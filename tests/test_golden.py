"""Golden digests of ``cyclepatrol simulate`` outputs.

The sha256 of trace.csv, report.json and plot_data.csv pin what "the same
behaviour" means across rewrites of the engine: moving one event time in
its ninth decimal, or reordering two simultaneous events, changes a
digest.  Change the table only together with a change that is meant to
alter traces, and say so in the change log.
"""

import hashlib
import json
import random

import pytest

from cyclepatrol import cli, metrics
from cyclepatrol.engine import Simulation, random_initial_state
from cyclepatrol.fleet import compute_t_star, fleet_from_dict, load_fleet_json

EIGHT_ROBOT_FLEET = {"L": 1000.0, "robots": [
    {"id": i + 1, "v": v, "r": r} for i, (v, r) in enumerate(zip(
        [0.6, 0.1, 0.5, 0.3, 0.7, 0.2, 0.8, 0.4],
        [20.0, 20.0, 50.0, 20.0, 20.0, 20.0, 100.0, 20.0]))]}


def _fleet_64():
    rng = random.Random(64)
    radii = [rng.uniform(0.5, 2.0) for _ in range(64)]
    speeds = [rng.uniform(1.0, 2.0) for _ in range(64)]
    return {"L": 4.0 * sum(radii), "robots": [
        {"id": i + 1, "v": v, "r": r} for i, (v, r) in enumerate(zip(speeds, radii))]}


def _fleet_with_changes():
    # the n=8 fleet; robot 5 slows down, then robot 2 narrows its zone
    return {**EIGHT_ROBOT_FLEET, "events": [
        {"t": 3000.0, "robot": 5, "v": 0.35},
        {"t": 9000.0, "robot": 2, "r": 12.5},
    ]}


CASES = {
    "n8-seed0": (EIGHT_ROBOT_FLEET, ["--seed", "0"]),
    "n8-seed1": (EIGHT_ROBOT_FLEET, ["--seed", "1"]),
    "n8-seed2": (EIGHT_ROBOT_FLEET, ["--seed", "2"]),
    "n64-events3000": (_fleet_64(), ["--seed", "5", "--events", "3000"]),
    "n8-two-changes": (_fleet_with_changes(), ["--seed", "4", "--until", "40000"]),
}

GOLDEN = {
    "n64-events3000": {
        "trace.csv": "8841d25e827cb0181c9dd2716528b5fdc72c452edba748b1ef1a47ccbc4ccacf",
        "report.json": "2aeabbbc72eb07bd56e414d187086ff687887bfa479d37ac62ec0e51a0c03876",
        "plot_data.csv": "e36cf428db8dac6c6582d026fb50c78cc8fd5cde6bc4563419a477e095c9c1bc",
    },
    "n8-seed0": {
        "trace.csv": "33f52d5e555466e5a1894d707df6e879622196b5a11e88547768ddd6d4dc9002",
        "report.json": "01d8451344e5b76756244def69d39d49e830f0e74190837b3a63c49bba7482a4",
        "plot_data.csv": "b56e214e78506db461946626248bb1866142521f5cdb410823024290d5acdef3",
    },
    "n8-seed1": {
        "trace.csv": "94ed93c40f337088c78cf637d83efb29f3f3f25fbb8ca44ce53efeef32cb0894",
        "report.json": "6d40e1dbdfdb3b266c93e39bb822c58b60ab40edb96396c89e08e401ce80f503",
        "plot_data.csv": "ade0365781365dc38b9376514a9ea128f96f16ea5a71ca746050c06f4cbf2ce4",
    },
    "n8-seed2": {
        "trace.csv": "09102538e35aaac0a109cb52b21d9965921f1f9044bcc31220aa5cce3be13690",
        "report.json": "b5864d29127536bdd8a526283f5216f91033b0e8df2260bf2be9f75db538b894",
        "plot_data.csv": "2eade0218714768d8eec2495185891520fd23e43949ea060802523ea08b69fed",
    },
    "n8-two-changes": {
        "trace.csv": "8c61fca9171e7be241a2fc2cf7628fc344818483424007f9662d155284f94eca",
        "report.json": "c64cb3c05e3417ffe8a6f4b0ddf4dcab8336b7c236bdf6895448921a063ff8e7",
        "plot_data.csv": "117e897363e351a30d5d8acc742693f70c4f0cf510cbdbe9acdef33ceb6396e7",
    },
}


def simulate_digests(doc: dict, flags: list[str], tmp_path) -> dict[str, str]:
    fleet = tmp_path / "fleet.json"
    fleet.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert cli.main(["simulate", str(fleet), *flags, "-o", str(out)]) == 0
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in ("trace.csv", "report.json", "plot_data.csv")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulate_outputs_match_golden_digests(name, tmp_path, capsys):
    assert simulate_digests(*CASES[name], tmp_path) == GOLDEN[name]


def relabel(doc: dict) -> dict:
    """The fleet with each robot id mapped by id -> 1000 - 7 id, the robots
    kept in their order and the change records naming the new ids."""
    return {**doc,
            "robots": [{**rb, "id": 1000 - 7 * rb["id"]} for rb in doc["robots"]],
            "events": [{**ev, "robot": 1000 - 7 * ev["robot"]} for ev in doc.get("events", [])]}


@pytest.mark.parametrize("name", ["n8-seed0", "n8-two-changes"])
def test_relabelled_ids_leave_outputs_and_replay_unchanged(name, tmp_path, capsys):
    """Ids are labels: relabelling the robots leaves every output byte for
    byte and every replayed state bit for bit as it was."""
    doc, flags = CASES[name]
    assert simulate_digests(relabel(doc), flags, tmp_path) == GOLDEN[name]
    replays = []
    for spec in (fleet_from_dict(doc), fleet_from_dict(relabel(doc))):
        sim = Simulation(spec.config, *random_initial_state(spec.config,
                                                            random.Random(int(flags[1]))))
        for ch in spec.changes:
            sim.schedule_parameter_change(ch["t"], ch["robot"], v=ch.get("v"), r=ch.get("r"))
        sim.run_until(t_end=12000.0)
        replays.append(sim.trace.replay())
    for original, relabelled in zip(*replays, strict=True):
        assert repr(relabelled) == repr(original)


def test_two_changes_judged_against_final_t_star(tmp_path, capsys):
    # after the changes the fleet converges to a new t_star; the verdicts
    # and the printed t_star must use it, not the initial fleet's
    doc, flags = CASES["n8-two-changes"]
    fleet = tmp_path / "fleet.json"
    fleet.write_text(json.dumps(doc))
    spec = load_fleet_json(fleet)
    positions, orientations = random_initial_state(spec.config, random.Random(4))
    sim = Simulation(spec.config, positions, orientations)
    for ch in spec.changes:
        sim.schedule_parameter_change(ch["t"], ch["robot"], v=ch.get("v"), r=ch.get("r"))
    sim.run_until(t_end=40000.0)
    report = metrics.theorem_verdicts(sim.trace)
    assert sim.trace.t_star != pytest.approx(compute_t_star(spec.config), rel=1e-3)
    assert report.t_star == sim.trace.t_star
    assert report.all_pass

    out = tmp_path / "run"
    assert cli.main(["simulate", str(fleet), *flags, "-o", str(out)]) == 0
    assert f"t_star = {sim.trace.t_star:.9f} s" in capsys.readouterr().out
    assert json.loads((out / "report.json").read_text())["all_pass"]


SWEEP_GOLDEN = {
    "--factor 0.5..2": "415180fbfaa07f3c532aee0c4f14cdd414f2d9d452a21f856e200039b58a5278",
    "--vary-n 2..6": "5ef2a8156134acde31c69eb0b9e6987a23f437703372b7875135a56f94199bc3",
}


@pytest.mark.parametrize("flags", sorted(SWEEP_GOLDEN))
def test_measured_sweep_matches_golden_digest(flags, tmp_path, capsys):
    """A measured ``cyclepatrol sweep`` at the defaults (--v 2 --r 50
    --L 10000 --seed 5): the digest pins each point's fleet, its seed and
    the measured revisit time."""
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", *flags.split(), "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_GOLDEN[flags]
