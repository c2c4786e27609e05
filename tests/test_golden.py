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
from cyclepatrol.fleet import compute_t_star, load_fleet_json

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
        "trace.csv": "40cbe8d29865d48fa9be0d5f1bcce97d5f40c0b8f8181bdc58069c79ad66dcca",
        "report.json": "2aeabbbc72eb07bd56e414d187086ff687887bfa479d37ac62ec0e51a0c03876",
        "plot_data.csv": "7582fa0f6085a27aca6e0bebaa391259af1b5c46836ae1b4af0e4caea02c7e23",
    },
    "n8-seed0": {
        "trace.csv": "1659dc9c0006ab89903b6e4650e518dcc5cfe0165b3032a85b3669a0eefcf0a3",
        "report.json": "eb699a2db316272bc5f0a83478f390add3b7528cbf0436c1fec5bf640d9987d3",
        "plot_data.csv": "3251d66906f10a69405481ee42fb03fce305187f8865479dd4b454b612693441",
    },
    "n8-seed1": {
        "trace.csv": "5fd799688be84143e36befeb16cdedff82e3ad4b6e3f8f360158ec14fe4a5ed6",
        "report.json": "2937853502dc68fec198409fbdd545d3d4117a216ebe4ae51b27eb98ee9a6df3",
        "plot_data.csv": "83495f727cde8a4ae92dcf83d2e6298d95bb473cdc77f9361ab16c13b81203eb",
    },
    "n8-seed2": {
        "trace.csv": "6337ce5807ecebe93d3cca98f4e51e4b118aa5d378214c1d5df2705ae358522f",
        "report.json": "1bb05efcc33a02bd45dc5297b24ad6e595caf0090a1406a98c4a49b7528daec4",
        "plot_data.csv": "454275ae38ddb2838ba036f2d1b7234493ee713902e7198f8ba86b0866cc30f7",
    },
    "n8-two-changes": {
        "trace.csv": "cea5b3320d2657b476d8afa4d710e87dadd46b3b02232fc9061aea2613c1ccb2",
        "report.json": "85a8711da77efd86153da1bbbaa212626c61c5644cd82f8b8b861bf7db83b14a",
        "plot_data.csv": "4b5f2afde12ffa3c06d55029da3120ed3a1dd54349a54bb2d5ee5ab8abfb20b0",
    },
}


def simulate_digests(name: str, tmp_path) -> dict[str, str]:
    doc, flags = CASES[name]
    fleet = tmp_path / "fleet.json"
    fleet.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert cli.main(["simulate", str(fleet), *flags, "-o", str(out)]) == 0
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in ("trace.csv", "report.json", "plot_data.csv")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulate_outputs_match_golden_digests(name, tmp_path, capsys):
    assert simulate_digests(name, tmp_path) == GOLDEN[name]


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
