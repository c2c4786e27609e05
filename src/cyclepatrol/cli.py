"""Command-line front door: tours, simulation runs, verification suites,
and parameter sweeps.

Exit codes: 0 success, 1 usage error, 2 validation error (violated
assumptions or premise), 3 property-suite failure, or a default
``simulate`` run that does not converge to the fleet its last scheduled
change leaves within the event budget.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from pathlib import Path

from . import metrics, scenario, verify
from .engine import AssumptionError, Simulation, random_initial_state, write_rows
from .fleet import StaticallyCoverableError, load_fleet_json
from .rounds import NotConvergedError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_SUITE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def cmd_tour(args) -> int:
    build = scenario.build_tour_mst if args.method == "mst" else scenario.build_tour_nn
    try:
        tasks = scenario.load_tasks_json(args.tasks)
        graph = build(tasks)
    except OSError as exc:
        return _cannot("read", args.tasks, exc)
    except (ValueError, KeyError) as exc:
        print(f"error: bad task file: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if graph.total_length == 0.0:
        print("warning: degenerate cycle of length 0", file=sys.stderr)
    try:
        scenario.save_graph_json(graph, args.output)
    except OSError as exc:
        return _cannot("write", args.output, exc)
    print(f"{args.method} tour over {len(tasks.tasks)} tasks: "
          f"L = {graph.total_length:.9f} -> {args.output}")
    return EXIT_OK


def _bad_flag(flag: str, message: str) -> int:
    print(f"error: {flag} {message}", file=sys.stderr)
    return EXIT_VALIDATION


def _cannot(verb: str, path, exc: OSError) -> int:
    print(f"error: cannot {verb} {path}: {exc.strerror or exc}", file=sys.stderr)
    return EXIT_USAGE


def cmd_simulate(args) -> int:
    if args.until is not None and not 0.0 <= args.until < math.inf:
        return _bad_flag("--until", f"must be a finite time >= 0, got {args.until}")
    if args.events is not None and args.events < 0:
        return _bad_flag("--events", f"must be >= 0, got {args.events}")
    try:
        spec = load_fleet_json(args.fleet)
    except OSError as exc:
        return _cannot("read", args.fleet, exc)
    except (ValueError, KeyError) as exc:
        print(f"error: bad fleet file: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    cfg = spec.config
    if args.n_minus is not None and not 1 <= args.n_minus <= cfg.n - 1:
        return _bad_flag("--n-minus", f"must be between 1 and {cfg.n - 1} for a fleet of "
                                      f"{cfg.n} robots, got {args.n_minus}")
    if spec.positions is not None and not args.random_start:
        if args.n_minus is not None:
            return _bad_flag("--n-minus", "needs --random-start, as the fleet file gives p0/o0")
        positions, orientations = spec.positions, spec.orientations
    else:
        rng = random.Random(args.seed)
        positions, orientations = random_initial_state(cfg, rng, n_minus=args.n_minus)
    sim = Simulation(cfg, positions, orientations)
    for ch in spec.changes:
        sim.schedule_parameter_change(ch["t"], ch["robot"],
                                      v=ch.get("v"), r=ch.get("r"))
    if args.events is not None:
        sim.run_until(max_events=args.events)
    elif args.until is not None:
        sim.run_until(t_end=args.until)
    else:
        try:
            verify.run_to_deep_convergence(sim, rtol=1e-9)
        except NotConvergedError as exc:
            print(f"error: {exc}; bound the run with --events or --until", file=sys.stderr)
            return EXIT_SUITE
        sim.run_until(t_end=sim.t + 10.0 * cfg.n * sim.t_star)

    outdir = Path(args.output)
    report = metrics.theorem_verdicts(sim.trace)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        sim.trace.write_csv(outdir / "trace.csv")
        report.write_json(outdir / "report.json")
        metrics.write_plot_data(sim.trace, outdir / "plot_data.csv")
    except OSError as exc:
        return _cannot("write", outdir, exc)
    print(f"t_star = {report.t_star:.9f} s, t_rev predicted = "
          f"{report.t_rev_predicted:.9f} s, n_bal = {report.n_bal}")
    for v in report.verdicts:
        print(f"  {v.name}: {v.status}"
              + (f" (measured {v.measured:.6f}, rel err {v.rel_err:.2e})"
                 if v.measured is not None else ""))
    print(f"{len(sim.trace.events)} events -> {outdir}")
    return EXIT_OK if report.all_pass or args.events is not None or args.until is not None else EXIT_SUITE


def cmd_verify(args) -> int:
    names = list(verify.ALL_SUITES) if args.suite == "all" else [args.suite]
    # suite -> (flag, suite parameter, value or None for the suite's default)
    sizes = {
        "consensus": ("--fleets", "n_fleets", args.fleets),
        "words": ("--samples", "random_samples", args.samples),
        "rounds": ("--instances", "instances", args.instances),
        "conservation": ("--conservation-events", "total_events", args.conservation_events),
    }
    for name, (flag, _, value) in sizes.items():
        if value is not None and value < 1:
            return _bad_flag(flag, f"must be >= 1, got {value}")
        if value is not None and name not in names:
            return _bad_flag(flag, f"sizes the {name} suite, which --suite {args.suite} does not run")
    ok = True
    for name in names:
        _, param, value = sizes[name]
        result = verify.ALL_SUITES[name](**({} if value is None else {param: value}))
        for line in result.summary_lines():
            print(line)
        ok = ok and result.ok
    return EXIT_OK if ok else EXIT_SUITE


def _parse_range(spec: str, integral: bool) -> list[float]:
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        if integral:
            return [float(x) for x in range(int(lo), int(hi) + 1)]
        lo_f, hi_f = float(lo), float(hi)
        steps = 8
        return [lo_f + (hi_f - lo_f) * k / (steps - 1) for k in range(steps)]
    return [float(x) for x in spec.split(",")]


def cmd_sweep(args) -> int:
    if (args.vary_n is None) == (args.factor is None):
        print("error: pass exactly one of --vary-n or --factor", file=sys.stderr)
        return EXIT_USAGE
    if not 0.0 < args.v < math.inf:
        return _bad_flag("--v", f"must be a finite speed > 0, got {args.v}")
    if not 0.0 <= args.r < math.inf:
        return _bad_flag("--r", f"must be a finite radius >= 0, got {args.r}")
    if not 0.0 < args.L < math.inf:
        return _bad_flag("--L", f"must be a finite length > 0, got {args.L}")
    measure = not args.closed_form_only
    flag, spec = ("--vary-n", args.vary_n) if args.vary_n is not None else ("--factor", args.factor)
    try:
        values = _parse_range(spec, integral=args.vary_n is not None)
    except ValueError:
        return _bad_flag(flag, f"must be a value, a comma list or lo..hi, got {spec!r}")
    if not values:
        return _bad_flag(flag, f"must list at least one value, got {spec!r}")
    if args.vary_n is not None:
        if not all(x.is_integer() and x >= 2 for x in values):
            return _bad_flag(flag, f"must list integer fleet sizes >= 2, got {spec!r}")
        values = [int(n) for n in values]
        build, label = verify.size_fleet, "vary_n"
        seeds = [args.seed + n for n in values]
    else:
        if not all(0.0 < f < math.inf for f in values):
            return _bad_flag(flag, f"must list finite factors > 0, got {spec!r}")
        build, label = verify.factor_fleet, "factor"
        seeds = [args.seed + k for k in range(len(values))]
    fleets = []
    for x in values:  # every point's fleet, before any point is measured
        try:
            fleets.append(build(x, args.v, args.r, args.L))
        except ValueError as exc:
            return _bad_flag(flag, f"value {x}: {exc}")
    rows = [verify.sweep_point(cfg, label=float(x), seed=s, measure=measure)
            for x, cfg, s in zip(values, fleets, seeds)]
    try:
        write_rows(args.output, f"{label},n,t_star,t_rev_predicted,t_rev_measured,rel_err\n",
                   (f"{row['label']:.9f},{row['n']},{row['t_star']:.9f},"
                    f"{row['t_rev_predicted']:.9f},{row['t_rev_measured']:.9f},"
                    f"{row['rel_err']:.9f}\n" for row in rows))
    except OSError as exc:
        return _cannot("write", args.output, exc)
    print(f"{len(rows)} sweep points -> {args.output}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="cyclepatrol",
                     description="Cycle patrolling simulator and analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tour", help="build a cycle graph from task locations")
    p.add_argument("tasks", help="tasks JSON file")
    p.add_argument("--method", choices=("mst", "nn"), default="nn")
    p.add_argument("-o", "--output", default="cyclegraph.json")
    p.set_defaults(func=cmd_tour)

    p = sub.add_parser("simulate", help="run the event-driven simulator")
    p.add_argument("fleet", help="fleet JSON file")
    p.add_argument("--until", type=float, default=None, help="simulate to this time [s]")
    p.add_argument("--events", type=int, default=None, help="simulate this many events")
    p.add_argument("--seed", type=int, default=0, help="seed for random placement")
    p.add_argument("--n-minus", type=int, default=None,
                   help="robots oriented backward for random placement")
    p.add_argument("--random-start", action="store_true",
                   help="ignore p0/o0 from the fleet file")
    p.add_argument("-o", "--output", default="out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run property suites")
    p.add_argument("--suite", choices=(*verify.ALL_SUITES, "all"), default="all")
    p.add_argument("--fleets", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--conservation-events", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="revisit-time sweeps over fleet parameters")
    p.add_argument("--vary-n", default=None, help="fleet sizes, e.g. 2..20")
    p.add_argument("--factor", default=None, help="capability factors, e.g. 0.2..15")
    p.add_argument("--v", type=float, default=2.0)
    p.add_argument("--r", type=float, default=50.0)
    p.add_argument("--L", type=float, default=10_000.0)
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--closed-form-only", action="store_true")
    p.add_argument("-o", "--output", default="sweep.csv")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (AssumptionError, StaticallyCoverableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

