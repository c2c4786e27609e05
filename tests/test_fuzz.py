"""The fleet and task readers fuzzed end to end through ``cli.main``.

Each example mutates a valid document: it drops fields, or replaces a
field, an entry or a whole list with a value of the wrong type, NaN,
±inf, a huge or a negative number, a string, a bool or a nested
structure.  Whatever the mutation, the run exits 0 or 2, no exception
escapes, and a 2 names a mutated field or the entry that holds it.
"""

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cyclepatrol import cli


def _fleet_with_state():
    """The n=8 benchmark fleet, placed 50 m apart with alternating
    orientations, and one scheduled speed change."""
    v = [0.6, 0.1, 0.5, 0.3, 0.7, 0.2, 0.8, 0.4]
    r = [20.0, 20.0, 50.0, 20.0, 20.0, 20.0, 100.0, 20.0]
    robots, x = [], 0.0
    for i in range(8):
        x += 50.0 + r[i]
        robots.append({"id": i + 1, "v": v[i], "r": r[i], "p0": x, "o0": 1 - 2 * (i % 2)})
        x += r[i]
    return {"L": 1000.0, "robots": robots, "events": [{"t": 100.0, "robot": 5, "v": 0.35}]}


FLEET = _fleet_with_state()
TASKS = {"tasks": [{"id": 1, "x": 0.0, "y": 0.0}, {"id": 2, "x": 10.0, "y": 0.0},
                   {"id": 3, "x": 10.0, "y": 10.0}, {"id": 4, "x": 0.0, "y": 10.0}]}
VALUES = [float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 10**400, -1, -2.5,
          0, 1, 2, "", "7", True, False, None, [], [1.0], {}, {"v": 1.0}]


def _paths(node, prefix=()):
    """Every path below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _names(doc, path) -> list[str]:
    """What a message may name for a mutation at path: each key on the
    way, each list entry as ``list[k]``, and a robot or task by its id."""
    names, node, parent = [], doc, None
    for key in path:
        child = node[key]
        if isinstance(key, int):
            names.append(f"{parent}[{key}]")
            if isinstance(child, dict):
                for field, label in (("id", parent[:-1]), ("robot", "robot")):
                    if field in child:
                        names.append(f"{label} {child[field]}")
        else:
            names.append(key)
        node, parent = child, key
    return names


@st.composite
def mutants(draw, doc):
    """A deep copy of doc with one or two mutations, and what each may
    be named by."""
    doc = copy.deepcopy(doc)
    names = []
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        if not paths:  # the first mutation emptied the document
            break
        path = draw(st.sampled_from(paths))
        names += _names(doc, path)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(path[-1], str) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.sampled_from(VALUES))
    return doc, names


def run_cli(doc, args, output):
    """``cli.main`` on doc written as a JSON file, in-process: the exit
    code, stderr, and the text of ``output`` under the output path (empty
    if it was not written)."""
    with tempfile.TemporaryDirectory() as tmp:
        p, out = Path(tmp) / "input.json", Path(tmp) / "out"
        p.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main([args[0], str(p), *args[1:], "-o", str(out)])
        written = out / output if output else out
        return rc, err.getvalue(), written.read_text() if written.exists() else ""


def assert_exits_0_or_2_naming(rc, err, written, names):
    """A 0 writes no infinite number; a 2 names the mutated field."""
    assert rc in (0, 2), err
    if rc == 0:
        assert "inf" not in written.lower()
    else:
        assert any(re.search(rf"(?<!\w){re.escape(name)}(?!\w)", err) for name in names), (
            names, err)


FUZZ = settings(derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@settings(FUZZ, max_examples=300)
@given(mutants(FLEET))
def test_mutated_fleet_exits_0_or_2_naming_the_field(mutant):
    doc, names = mutant
    assert_exits_0_or_2_naming(*run_cli(doc, ["simulate", "--events", "50"], "trace.csv"),
                               names)


@settings(FUZZ, max_examples=100)
@given(mutants(TASKS))
def test_mutated_tasks_exit_0_or_2_naming_the_field(mutant):
    doc, names = mutant
    assert_exits_0_or_2_naming(*run_cli(doc, ["tour"], None), names)


def test_unmutated_documents_run():
    rc, err, trace = run_cli(FLEET, ["simulate", "--events", "50"], "trace.csv")
    assert (rc, err, trace.count("\n")) == (0, "", 51)
    rc, err, graph = run_cli(TASKS, ["tour"], None)
    assert (rc, err, json.loads(graph)["total_length"]) == (0, "", 40.0)
