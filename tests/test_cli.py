import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cyclepatrol import cli, verify
from cyclepatrol.fleet import fleet_from_dict

SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(*args, timeout=60):
    """``python -m cyclepatrol *args`` from this source tree, in a fresh
    interpreter that is killed after ``timeout`` seconds."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-m", "cyclepatrol", *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture
def square_tasks(tmp_path):
    doc = {"tasks": [
        {"id": 1, "x": 0.0, "y": 0.0}, {"id": 2, "x": 10.0, "y": 0.0},
        {"id": 3, "x": 10.0, "y": 10.0}, {"id": 4, "x": 0.0, "y": 10.0},
    ]}
    p = tmp_path / "tasks.json"
    p.write_text(json.dumps(doc))
    return p


def eight_robot_doc(**extra):
    """The n=8 benchmark fleet as a fleet document, with extra top-level
    fields."""
    v = [0.6, 0.1, 0.5, 0.3, 0.7, 0.2, 0.8, 0.4]
    r = [20.0, 20.0, 50.0, 20.0, 20.0, 20.0, 100.0, 20.0]
    return {"L": 1000.0, "robots": [{"id": i + 1, "v": v[i], "r": r[i]} for i in range(8)],
            **extra}


def robot_1_at_speed(v):
    doc = eight_robot_doc()
    doc["robots"][0]["v"] = v
    return doc


def every_robot_at_speed(v):
    doc = eight_robot_doc()
    for rb in doc["robots"]:
        rb["v"] = v
    return doc


@pytest.fixture
def fig3_fleet_file(tmp_path):
    doc = {"L": 1000.0, "robots": [
        {"id": 1, "v": 0.3, "r": 50.0}, {"id": 2, "v": 0.7, "r": 50.0},
        {"id": 3, "v": 0.3, "r": 50.0}, {"id": 4, "v": 0.3, "r": 150.0},
    ]}
    p = tmp_path / "fleet.json"
    p.write_text(json.dumps(doc))
    return p


class TestTour:
    def test_square_nn_perimeter(self, square_tasks, tmp_path, capsys):
        out = tmp_path / "cg.json"
        rc = cli.main(["tour", str(square_tasks), "--method", "nn", "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["total_length"] == pytest.approx(40.0)

    def test_single_task_warns(self, tmp_path, capsys):
        p = tmp_path / "one.json"
        p.write_text(json.dumps({"tasks": [{"id": 1, "x": 3.0, "y": 4.0}]}))
        rc = cli.main(["tour", str(p), "-o", str(tmp_path / "cg.json")])
        assert rc == 0
        assert "degenerate" in capsys.readouterr().err

    def test_missing_file_usage_error(self, tmp_path):
        rc = cli.main(["tour", str(tmp_path / "nope.json")])
        assert rc == 1

    @pytest.mark.parametrize("doc, message", [
        ([{"id": 1, "x": 0.0, "y": 0.0}], "task set must be a JSON object, got list"),
        ({}, "task set: missing field 'tasks'"),
        ({"tasks": 3}, "task set: field 'tasks' must be a list, got 3"),
        ({"tasks": [{"id": 1, "x": None, "y": 0.0}]},
         "tasks[0]: field 'x' must be a number, got None"),
        ({"tasks": [{"id": 1, "x": 0.0, "y": 0.0}, {"id": True, "x": 1.0, "y": 0.0}]},
         "tasks[1]: field 'id' must be an integer, got True"),
        ({"tasks": [{"id": 1.5, "x": 0.0, "y": 0.0}]},
         "tasks[0]: field 'id' must be an integer, got 1.5"),
        ({"tasks": [{"id": 1, "x": 0.0}]}, "tasks[0]: missing field 'y'"),
        ({"tasks": [7]}, "tasks[0] must be a JSON object, got int"),
        ({"tasks": [{"id": 1, "x": "3", "y": 0.0}]},
         "tasks[0]: field 'x' must be a number, got '3'"),
        ({"tasks": [{"id": 1, "x": 0.0, "y": False}]},
         "tasks[0]: field 'y' must be a number, got False"),
    ])
    def test_bad_task_file_exits_2(self, tmp_path, capsys, doc, message):
        # int() and float() used to truncate 1.5, accept True and raise a
        # TypeError traceback on null, a list or a number
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "cg.json"
        rc = cli.main(["tour", str(p), "-o", str(out)])
        assert rc == 2
        assert f"error: bad task file: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["nn", "mst"])
    def test_overflowing_tour_length_exits_2(self, tmp_path, capsys, method):
        # the tour over tasks at x = +-1e308 used to be written with L = inf
        p = tmp_path / "far.json"
        p.write_text(json.dumps({"tasks": [{"id": 1, "x": -1e308, "y": 0.0},
                                           {"id": 2, "x": 1e308, "y": 0.0},
                                           {"id": 3, "x": 0.0, "y": 1.0}]}))
        out = tmp_path / "cg.json"
        rc = cli.main(["tour", str(p), "--method", method, "-o", str(out)])
        assert rc == 2
        assert "tour length L = inf: task x, y too far apart" in capsys.readouterr().err
        assert not out.exists()

    def test_truncated_task_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "cut.json"
        p.write_text('{"tasks": [')
        out = tmp_path / "cg.json"
        assert cli.main(["tour", str(p), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: bad task file: Expecting value")
        assert not out.exists()

    def test_duplicate_task_id_names_the_entry(self, tmp_path, capsys):
        p = tmp_path / "dup.json"
        p.write_text(json.dumps({"tasks": [{"id": 1, "x": 0.0, "y": 0.0},
                                           {"id": 1, "x": 3.0, "y": 4.0}]}))
        assert cli.main(["tour", str(p), "-o", str(tmp_path / "cg.json")]) == 2
        assert "tasks[1]: duplicate task id 1" in capsys.readouterr().err

    def test_bad_subcommand_usage_error(self):
        assert cli.main(["frobnicate"]) == 1


class TestSimulate:
    def test_benchmark_report_passes(self, fig3_fleet_file, tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli.main(["simulate", str(fig3_fleet_file), "--seed", "3",
                       "-o", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["t_star"] == 250.0
        assert report["all_pass"] is True
        assert (out / "trace.csv").exists()
        stdout = capsys.readouterr().out
        assert "t_star = 250" in stdout

    @pytest.mark.parametrize("flag, value", [
        ("--until", "nan"), ("--until", "inf"), ("--until", "-1"), ("--events", "-5"),
    ])
    def test_bad_run_length_exits_2(self, fig3_fleet_file, tmp_path, flag, value):
        # a subprocess with a timeout: `--until nan` used to run until memory
        # ran out, since no event time compares later than nan
        out = tmp_path / "run"
        proc = run_module("simulate", str(fig3_fleet_file), flag, value, "-o", str(out),
                          timeout=30)
        assert proc.returncode == 2
        assert f"error: {flag} must be" in proc.stderr
        assert not out.exists()

    def test_truncated_fleet_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "cut.json"
        p.write_text(json.dumps(eight_robot_doc())[:40])
        out = tmp_path / "run"
        assert cli.main(["simulate", str(p), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: bad fleet file: Expecting value")
        assert not out.exists()

    def test_a2_violating_fleet_exits_2(self, tmp_path, capsys):
        doc = {"L": 1000.0, "robots": [
            {"id": 1, "v": 0.3, "r": 10.0, "p0": 100.0, "o0": 1},
            {"id": 2, "v": 0.7, "r": 10.0, "p0": 500.0, "o0": 1},
        ]}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        rc = cli.main(["simulate", str(p), "-o", str(tmp_path / "run")])
        assert rc == 2
        assert "A2" in capsys.readouterr().err

    def test_nan_start_position_exits_2(self, tmp_path, capsys):
        # json reads the NaN literal; such a run used to write a trace of nan times
        doc = {"L": 1000.0, "robots": [
            {"id": 1, "v": 0.3, "r": 10.0, "p0": 100.0, "o0": 1},
            {"id": 2, "v": 0.7, "r": 10.0, "p0": float("nan"), "o0": -1},
            {"id": 3, "v": 0.5, "r": 10.0, "p0": 700.0, "o0": 1},
        ]}
        p = tmp_path / "nan.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "run"
        rc = cli.main(["simulate", str(p), "--events", "50", "-o", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "A3 violated" in err and "robot 2 at nan" in err
        assert not out.exists()

    def test_default_run_that_does_not_converge_exits_3(self, fig3_fleet_file, tmp_path,
                                                         capsys, monkeypatch):
        monkeypatch.setattr(verify, "MAX_EVENTS", 40)
        out = tmp_path / "run"
        rc = cli.main(["simulate", str(fig3_fleet_file), "--seed", "3", "-o", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == ("error: no convergence to 1e-09 within 40 events; "
                       "bound the run with --events or --until\n")
        assert not out.exists()

    @pytest.mark.parametrize("t_change", [60000.0, 200000.0])
    def test_default_run_converges_after_the_last_change(self, tmp_path, capsys, t_change):
        """Deep convergence ends at t = 52,056 s for seed 0.  A change at
        t = 60,000 s used to fall in the tail and leave both verdicts
        INCONCLUSIVE (exit 3); one at 200,000 s was never applied, and the
        run passed against the old t_star of 127.78 s."""
        doc = eight_robot_doc(events=[{"t": t_change, "robot": 5, "v": 0.35}])
        p = tmp_path / "fleet.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "run"
        rc = cli.main(["simulate", str(p), "--seed", "0", "-o", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0, stdout
        assert stdout.startswith("t_star = 141.538461538 s")
        assert stdout.count(": PASS") == 2
        last = (out / "trace.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) > t_change

    def test_change_beyond_the_event_budget_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(verify, "MAX_EVENTS", 4000)
        p = tmp_path / "fleet.json"
        p.write_text(json.dumps(eight_robot_doc(events=[{"t": 1e12, "robot": 5, "v": 0.35}])))
        out = tmp_path / "run"
        assert cli.main(["simulate", str(p), "-o", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: the last parameter change lies beyond 4000 events; "
            "bound the run with --events or --until\n")
        assert not out.exists()

    @pytest.mark.parametrize("doc, message", [
        # 167 of 200 trace rows used to hold inf
        (eight_robot_doc(L=1e308), "robot 7: speed v = 0.8 on a cycle of L = 1e+308 overflows"),
        # 10 inf rows
        (robot_1_at_speed(1e306), "robot 1: speed v = 1e+306 on a cycle of L = 1000.0 overflows"),
        # boundary updates overflowed to inf and the run ended in a DeadlockError
        (robot_1_at_speed(1e307), "robot 1: speed v = 1e+307 on a cycle of L = 1000.0 overflows"),
        (eight_robot_doc(events=[{"t": 10.0, "robot": 3, "v": 1e308}]),
         "events[0]: robot 3: speed v = 1e+308 on a cycle of L = 1000.0 overflows"),
    ])
    def test_overflowing_magnitudes_exit_2(self, tmp_path, capsys, doc, message):
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "run"
        rc = cli.main(["simulate", str(p), "--events", "200", "-o", str(out)])
        assert rc == 2
        assert f"error: bad fleet file: {message}: 4*v*max(L, 1) must be finite" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("doc, message", [
        # ended in a DeadlockError traceback
        (every_robot_at_speed(1e-306),
         "robot 1: speed v = 1e-306 on a cycle of L = 1000.0 overflows"),
        # exit 0 with inf in 35 of 50 trace rows
        (robot_1_at_speed(5e-324), "robot 1: speed v = 5e-324 on a cycle of L = 1000.0 overflows"),
        (eight_robot_doc(events=[{"t": 10.0, "robot": 3, "v": 1e-310}]),
         "events[0]: robot 3: speed v = 1e-310 on a cycle of L = 1000.0 overflows"),
    ])
    def test_tiny_speeds_exit_2(self, tmp_path, capsys, doc, message):
        p = tmp_path / "tiny.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "run"
        rc = cli.main(["simulate", str(p), "--events", "50", "-o", str(out)])
        assert rc == 2
        assert f"error: bad fleet file: {message}: max(L, 1)/v must be finite" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_statically_coverable_change_exits_2_before_the_run(self, tmp_path, capsys):
        # a change beyond the run's end used to pass unchecked
        doc = eight_robot_doc(events=[{"t": 1e6, "robot": 7, "r": 340.0}])
        p = tmp_path / "cover.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert cli.main(["simulate", str(p), "--events", "50", "-o", str(out)]) == 2
        assert ("events[0]: L - 2*sum(r) = -20.0 <= 0: cycle is statically coverable"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_changes_are_checked_in_time_order(self):
        """Robot 7's growth to r = 330 leaves the cycle coverable unless
        robot 3 has shrunk to r = 10 before it."""
        grow, shrink = {"robot": 7, "r": 330.0}, {"robot": 3, "r": 10.0}
        spec = fleet_from_dict(eight_robot_doc(events=[{"t": 2000.0, **grow},
                                                       {"t": 1000.0, **shrink}]))
        assert [ch["t"] for ch in spec.changes] == [2000.0, 1000.0]
        with pytest.raises(ValueError, match=r"events\[0\]: L - 2\*sum\(r\) = 0.0 <= 0"):
            fleet_from_dict(eight_robot_doc(events=[{"t": 1000.0, **grow},
                                                    {"t": 2000.0, **shrink}]))

    @pytest.mark.parametrize("where, field, value", [
        ("robot", "r", float("nan")),
        ("robot", "v", float("inf")),
        ("fleet", "L", float("inf")),
        ("fleet", "L", float("nan")),
    ])
    def test_non_finite_parameter_exits_2(self, fig3_fleet_file, tmp_path, capsys,
                                          where, field, value):
        doc = json.loads(fig3_fleet_file.read_text())
        (doc["robots"][1] if where == "robot" else doc)[field] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))  # writes NaN / Infinity literals
        rc = cli.main(["simulate", str(p), "-o", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{field} must be finite" in err

    @pytest.mark.parametrize("event, message", [
        ({"t": 100.0, "v": 0.5}, "missing field 'robot'"),
        ({"robot": 2, "v": 0.5}, "missing field 't'"),
        ({"t": 100.0, "robot": 9, "v": 0.5}, "robot 9 is not in the fleet"),
        ({"t": 100.0, "robot": 2, "v": -1.0}, "speed v must be finite and positive"),
        ({"t": None, "robot": 2, "v": 0.5}, "field 't' must be a number, got None"),
        ({"t": 100.0, "robot": True, "v": 0.5}, "field 'robot' must be an integer, got True"),
    ])
    def test_bad_scheduled_change_exits_2(self, fig3_fleet_file, tmp_path, capsys,
                                          event, message):
        doc = json.loads(fig3_fleet_file.read_text())
        doc["events"] = [event]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        rc = cli.main(["simulate", str(p), "--events", "50", "-o", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "events[0]" in err and message in err

    @pytest.mark.parametrize("where, field", [("robot", "v"), ("robot", "r"), ("fleet", "L")])
    def test_null_parameter_exits_2(self, fig3_fleet_file, tmp_path, capsys, where, field):
        doc = json.loads(fig3_fleet_file.read_text())
        (doc["robots"][1] if where == "robot" else doc)[field] = None
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        rc = cli.main(["simulate", str(p), "-o", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"field '{field}' must be a number, got None" in err
        assert ("robots[1]: " if where == "robot" else "fleet: ") in err

    def test_top_level_array_exits_2(self, fig3_fleet_file, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(json.loads(fig3_fleet_file.read_text())["robots"]))
        rc = cli.main(["simulate", str(p), "-o", str(tmp_path / "run")])
        assert rc == 2
        assert "fleet must be a JSON object, got list" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"L": 1000.0, "robots": 3}, "fleet: field 'robots' must be a list, got 3"),
        ({"L": 1000.0}, "fleet: missing field 'robots'"),
        ({"L": 1000.0, "robots": [{"id": 1, "v": 0.3, "r": 50.0},
                                  {"id": 2, "v": 0.7, "r": 50.0}], "events": 5},
         "fleet: field 'events' must be a list, got 5"),
    ])
    def test_robots_or_events_not_a_list_exits_2(self, tmp_path, capsys, doc, message):
        # iterating a number used to end in a TypeError traceback
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        rc = cli.main(["simulate", str(p), "--events", "5", "-o", str(tmp_path / "run")])
        assert rc == 2
        assert f"error: bad fleet file: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("where, field, value", [
        ("fleet", "L", "1000"), ("robot", "v", True), ("robot", "r", "5"),
        ("event", "v", True), ("event", "t", "100"),
    ])
    def test_string_or_bool_parameter_exits_2(self, fig3_fleet_file, tmp_path, capsys,
                                              where, field, value):
        # float() used to read "1000" as 1000.0 and true as 1.0
        doc = json.loads(fig3_fleet_file.read_text())
        doc["events"] = [{"t": 100.0, "robot": 2, "v": 0.5}]
        {"fleet": doc, "robot": doc["robots"][1], "event": doc["events"][0]}[where][field] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        rc = cli.main(["simulate", str(p), "--events", "5", "-o", str(tmp_path / "run")])
        assert rc == 2
        prefix = {"fleet": "fleet", "robot": "robots[1]", "event": "events[0]"}[where]
        assert (f"{prefix}: field '{field}' must be a number, got {value!r}"
                in capsys.readouterr().err)

    def test_duplicate_robot_id_exits_2(self, fig3_fleet_file, tmp_path, capsys):
        # a change for robot 2 would reach a different robot in the engine
        # (the first with the id) than in the trace's replay (the last)
        doc = json.loads(fig3_fleet_file.read_text())
        doc["robots"][3]["id"] = 2
        doc["events"] = [{"t": 100.0, "robot": 2, "v": 0.5}]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        rc = cli.main(["simulate", str(p), "--events", "50", "-o", str(tmp_path / "run")])
        assert rc == 2
        assert "robots[3]: duplicate robot id 2" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("id", 1.9), ("id", True), ("o0", 1.7)])
    def test_non_integral_id_or_orientation_exits_2(self, fig3_fleet_file, tmp_path, capsys,
                                                    field, value):
        # int() would truncate each of these to 1
        doc = json.loads(fig3_fleet_file.read_text())
        for rb, p0, o0 in zip(doc["robots"], [100.0, 400.0, 600.0, 820.0], [1, -1, 1, -1]):
            rb.update(p0=p0, o0=o0)
        doc["robots"][1][field] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        rc = cli.main(["simulate", str(p), "--events", "50", "-o", str(tmp_path / "run")])
        assert rc == 2
        assert (f"robots[1]: field '{field}' must be an integer, got {value!r}"
                in capsys.readouterr().err)

    def test_partial_initial_state_exits_2(self, fig3_fleet_file, tmp_path, capsys):
        # such a file used to run from a random start, exit 0
        doc = json.loads(fig3_fleet_file.read_text())
        doc["robots"][0]["p0"] = 100.0
        doc["robots"][1].update(p0=400.0, o0=-1)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        rc = cli.main(["simulate", str(p), "--events", "50", "-o", str(tmp_path / "run")])
        assert rc == 2
        assert "robots[0]: missing field 'o0'" in capsys.readouterr().err
        del doc["robots"][0]["p0"]
        p.write_text(json.dumps(doc))
        assert cli.main(["simulate", str(p), "--events", "50", "-o", str(tmp_path / "run")]) == 2
        assert "robots[0]: missing field 'p0'" in capsys.readouterr().err

    def test_orientation_zero_names_its_field(self, fig3_fleet_file, tmp_path, capsys):
        doc = json.loads(fig3_fleet_file.read_text())
        for rb, p0, o0 in zip(doc["robots"], [100.0, 400.0, 600.0, 820.0], [1, 0, 1, -1]):
            rb.update(p0=p0, o0=o0)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        rc = cli.main(["simulate", str(p), "--events", "50", "-o", str(tmp_path / "run")])
        assert rc == 2
        assert "robots[1]: field 'o0' must be -1 or +1, got 0" in capsys.readouterr().err

    def test_one_orientation_for_all_names_its_field(self, tmp_path, capsys):
        # used to read "A2 violated: all robots share one orientation"
        doc = {"L": 1000.0, "robots": [{"id": i + 1, "v": 0.5, "r": 10.0,
                                        "p0": 100.0 * i + 50.0, "o0": 1} for i in range(4)]}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        rc = cli.main(["simulate", str(p), "--events", "50", "-o", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err == ("error: bad fleet file: robots: field 'o0' is +1 "
                                           "on every robot; A2 needs both orientations\n")

    def test_change_breaking_a3_exits_2(self, tmp_path, capsys):
        # at t=4200 robot 2 patrols [100, 200]; r=45 puts its zone over y0
        doc = {"L": 400.0, "robots": [{"id": i + 1, "v": 1.0, "r": 10.0} for i in range(4)],
               "events": [{"t": 4200.0, "robot": 2, "r": 45.0}]}
        p = tmp_path / "grow.json"
        p.write_text(json.dumps(doc))
        rc = cli.main(["simulate", str(p), "--seed", "0", "--events", "300",
                       "-o", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "A3 violated at t=4200.0: robot 2" in err

    @pytest.mark.parametrize("value", ["9", "4", "0", "-1"])
    def test_n_minus_out_of_range_exits_2(self, fig3_fleet_file, tmp_path, capsys, value):
        out = tmp_path / "run"
        rc = cli.main(["simulate", str(fig3_fleet_file), "--n-minus", value,
                       "--events", "50", "-o", str(out)])
        assert rc == 2
        assert (f"error: --n-minus must be between 1 and 3 for a fleet of 4 robots, "
                f"got {value}" in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1", "3"])
    def test_n_minus_at_the_bounds_runs(self, fig3_fleet_file, tmp_path, value):
        rc = cli.main(["simulate", str(fig3_fleet_file), "--n-minus", value,
                       "--events", "50", "-o", str(tmp_path / "run")])
        assert rc == 0

    def test_n_minus_with_a_given_start_exits_2(self, fig3_fleet_file, tmp_path, capsys):
        # the flag used to be ignored: the run started from p0/o0 and exit 0
        doc = json.loads(fig3_fleet_file.read_text())
        for rb, p0, o0 in zip(doc["robots"], [100.0, 400.0, 600.0, 820.0], [1, -1, 1, -1]):
            rb.update(p0=p0, o0=o0)
        p = tmp_path / "stateful.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "run"
        rc = cli.main(["simulate", str(p), "--n-minus", "2", "--events", "50", "-o", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --n-minus ")
        assert not out.exists()
        assert cli.main(["simulate", str(p), "--n-minus", "2", "--random-start",
                         "--events", "50", "-o", str(out)]) == 0

    def test_seeded_runs_byte_identical(self, fig3_fleet_file, tmp_path):
        blobs = []
        for k in range(2):
            out = tmp_path / f"run{k}"
            rc = cli.main(["simulate", str(fig3_fleet_file), "--seed", "11",
                           "--events", "800", "-o", str(out)])
            assert rc == 0
            blobs.append((out / "trace.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestVerify:
    def test_small_suites_pass(self, capsys):
        rc = cli.main(["verify", "--suite", "words", "--samples", "500"])
        assert rc == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_injected_bug_fails_suite(self, monkeypatch, capsys):
        import cyclepatrol.engine as eng

        original = eng.boundary_consensus_update

        def flipped(y_prev, y_next, vl, vr, rl, rr):
            return original(y_prev, y_next, vr, vl, rl, rr)

        monkeypatch.setattr(eng, "boundary_consensus_update", flipped)
        rc = cli.main(["verify", "--suite", "consensus", "--fleets", "5"])
        assert rc == 3
        assert "[FAIL]" in capsys.readouterr().out


    @pytest.mark.parametrize("flag", ["--fleets", "--samples", "--instances",
                                      "--conservation-events"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_size_exits_2(self, capsys, flag, value):
        # these used to run the suite's default size (0) or pass over
        # nothing (negative) with exit 0
        rc = cli.main(["verify", "--suite", "all", flag, value])
        assert rc == 2
        captured = capsys.readouterr()
        assert f"error: {flag} must be >= 1, got {value}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("suite, flag, sized", [
        ("words", "--fleets", "consensus"),
        ("consensus", "--samples", "words"),
        ("conservation", "--instances", "rounds"),
        ("rounds", "--conservation-events", "conservation"),
    ])
    def test_size_flag_of_a_suite_not_run_exits_2(self, capsys, suite, flag, sized):
        # these used to run the chosen suite and ignore the flag, with exit 0
        rc = cli.main(["verify", "--suite", suite, flag, "3"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: {flag} sizes the {sized} suite, "
                                f"which --suite {suite} does not run\n")
        assert captured.out == ""

    def test_all_suites_take_every_size_flag(self, capsys):
        rc = cli.main(["verify", "--suite", "all", "--fleets", "2", "--samples", "50",
                       "--instances", "1", "--conservation-events", "200"])
        assert rc == 0
        assert len(capsys.readouterr().out.splitlines()) == 11


class TestSweep:
    def test_n_sweep_closed_form_monotone(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--vary-n", "2..8", "--closed-form-only",
                       "-o", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        t_rev = [float(r.split(",")[3]) for r in rows]
        assert len(t_rev) == 7
        assert all(b < a for a, b in zip(t_rev, t_rev[1:]))

    def test_factor_sweep_closed_form_monotone(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--factor", "0.2,1,3,15", "--closed-form-only",
                       "-o", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        t_rev = [float(r.split(",")[3]) for r in rows]
        assert all(b < a for a, b in zip(t_rev, t_rev[1:]))

    @pytest.mark.parametrize("mode, value, label", [
        ("--vary-n", "2..4", "vary_n"), ("--factor", "0.5,2", "factor"),
    ])
    def test_header_names_label_and_fleet_size(self, tmp_path, mode, value, label):
        # --vary-n used to write the header n,n,...: a reader keyed by
        # name kept only one of the two columns
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", mode, value, "--closed-form-only", "-o", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0].keys() == {label, "n", "t_star", "t_rev_predicted",
                                  "t_rev_measured", "rel_err"}
        if label == "vary_n":
            assert [float(r["vary_n"]) for r in rows] == [2.0, 3.0, 4.0]
            assert [r["n"] for r in rows] == ["2", "3", "4"]

    def test_factor_range_is_eight_even_steps(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--factor", "0.5..2", "--closed-form-only",
                         "-o", str(out)]) == 0
        with open(out, newline="") as fh:
            factors = [float(row["factor"]) for row in csv.DictReader(fh)]
        assert factors == pytest.approx([0.5 + 1.5 * k / 7 for k in range(8)], abs=1e-9)
        assert (factors[0], factors[-1]) == (0.5, 2.0)

    def test_single_point_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--vary-n", "6", "--closed-form-only",
                       "-o", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 2

    @pytest.mark.parametrize("args, flag", [
        (["--vary-n", "1..3"], "--vary-n"),
        (["--factor", "abc"], "--factor"),
        (["--vary-n", "2..4", "--L", "-5"], "--L"),
        (["--factor", "1", "--v", "0"], "--v"),
        (["--factor", "1", "--r", "nan"], "--r"),
        # parsed, but not finite factors > 0: no other "--factor must" applies
        (["--factor", "0,1"], "--factor"),
        (["--factor", "1,inf"], "--factor"),
    ])
    def test_bad_sweep_flag_exits_2(self, tmp_path, capsys, args, flag):
        out = tmp_path / "s.csv"
        rc = cli.main(["sweep", *args, "--closed-form-only", "-o", str(out)])
        assert rc == 2
        assert f"error: {flag} must" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_range_exits_2(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = cli.main(["sweep", "--vary-n", "5..2", "--closed-form-only", "-o", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: --vary-n must list at least one value, got '5..2'\n"
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--vary-n", "2,150"],
         "--vary-n value 150: L - 2*sum(r) = -5000.0 <= 0: cycle is statically coverable"),
        (["--factor", "1,1000"],
         "--factor value 1000.0: L - 2*sum(r) = -190400.0 <= 0: cycle is statically coverable"),
    ], ids=["vary-n", "factor"])
    def test_statically_coverable_point_exits_2_before_measuring(self, tmp_path, capsys,
                                                                 monkeypatch, args, message):
        def measured(*a, **kw):
            raise AssertionError("a point was measured")
        monkeypatch.setattr(verify, "converged_simulation", measured)
        out = tmp_path / "s.csv"
        rc = cli.main(["sweep", *args, "-o", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_requires_exactly_one_mode(self, tmp_path):
        rc = cli.main(["sweep", "-o", str(tmp_path / "s.csv")])
        assert rc == 1


@pytest.mark.parametrize("command, blocker", [
    ("tour", "file"), ("tour", "missing"), ("simulate", "file"),
    ("sweep", "file"), ("sweep", "missing"),
])
def test_unwritable_output_exits_1(square_tasks, fig3_fleet_file, tmp_path, command, blocker):
    # the output path sits under a regular file or a missing directory
    # (simulate creates missing directories)
    parent = tmp_path / "blocker"
    if blocker == "file":
        parent.write_text("")
    out = parent / "x"
    args = {"tour": ["tour", str(square_tasks)],
            "simulate": ["simulate", str(fig3_fleet_file), "--events", "50"],
            "sweep": ["sweep", "--vary-n", "2..3", "--closed-form-only"]}[command]
    proc = run_module(*args, "-o", str(out))
    assert proc.returncode == 1
    assert f"error: cannot write {out}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["tour", "simulate"])
@pytest.mark.parametrize("blocker", ["directory", "missing"])
def test_unreadable_input_exits_1(tmp_path, command, blocker):
    src = tmp_path / "in"
    if blocker == "directory":
        src.mkdir()
    proc = run_module(command, str(src), "-o", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert f"error: cannot read {src}: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_module_entry_point():
    proc = run_module("verify", "--suite", "rounds", "--instances", "1")
    assert proc.returncode == 0, proc.stderr
    assert "[PASS] rounds: balanced_synchronize_within_n_over_2" in proc.stdout


COLD_START = """
import json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import cyclepatrol.cli as cli

def loaded(name):
    return sys.modules.get(name) is not None

tmp = sys.argv[1]
modules = ["cyclepatrol." + m for m in ("verify", "consensus", "rounds", "words", "metrics")]
out = {"import": [loaded("numpy"), all(map(loaded, modules))]}
runs = {
    "simulate": ["simulate", tmp + "/fleet.json", "--events", "50", "-o", tmp + "/run"],
    "tour": ["tour", tmp + "/tasks.json", "-o", tmp + "/cg.json"],
    "sweep": ["sweep", "--vary-n", "2..3", "-o", tmp + "/sweep.csv"],
    "rounds": ["verify", "--suite", "rounds", "--instances", "1"],
    "conservation": ["verify", "--suite", "conservation", "--conservation-events", "200"],
    "words": ["verify", "--suite", "words", "--samples", "50"],
    "consensus": ["verify", "--suite", "consensus", "--fleets", "2"],
}
for name, argv in runs.items():
    out[name] = [cli.main(argv), loaded("numpy")]
print(json.dumps(out))
"""


def test_cold_start_runs_every_command_without_numpy(square_tasks, fig3_fleet_file,
                                                      tmp_path):
    # numpy is only a test dependency: every command and every suite, the
    # consensus oracle included, runs with it unimportable.  The modules the
    # CLI imports stay loaded: the benchmark's layer tracer finds them there.
    assert square_tasks.parent == fig3_fleet_file.parent == tmp_path
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got.pop("import") == [False, True]
    assert got == {name: [0, False] for name in
                   ("simulate", "tour", "sweep", "rounds", "conservation", "words", "consensus")}
