"""Fleet parameters and the closed-form goal partition of the cycle.

A fleet of n robots with speeds v_i and communication radii r_i shares a
cycle of length L.  The goal configuration assigns each robot a region it
can traverse (between boundary-contact positions) in the same common time

    t_star = (L - 2*sum(r)) / sum(v)

with region lengths d_i = v_i*t_star + 2*r_i and boundaries y_i the running
sums of the d_i (y_n = L).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

REL_TOL = 1e-9  # relative tolerance for closed-form identity checks


class StaticallyCoverableError(ValueError):
    """The cycle is covered by the radii alone; the protocol premise fails."""


@dataclass(frozen=True)
class RobotParams:
    id: int
    v: float  # maximum speed, m/s
    r: float  # communication radius, m

    def __post_init__(self):
        if not (math.isfinite(self.v) and self.v > 0):
            raise ValueError(f"robot {self.id}: speed v must be finite and positive, got {self.v}")
        if not (math.isfinite(self.r) and self.r >= 0):
            raise ValueError(
                f"robot {self.id}: radius r must be finite and non-negative, got {self.r}")


@dataclass(frozen=True)
class FleetConfig:
    """Robots in cycle order (index = position order) plus cycle length."""

    robots: tuple[RobotParams, ...]
    L: float

    def __post_init__(self):
        object.__setattr__(self, "robots", tuple(self.robots))
        if len(self.robots) < 2:
            raise ValueError("a fleet needs at least 2 robots")
        if not (math.isfinite(self.L) and self.L > 0):
            raise ValueError(f"cycle length L must be finite and positive, got {self.L}")
        ids = set()
        for k, rb in enumerate(self.robots):
            if rb.id in ids:
                raise ValueError(f"robots[{k}]: duplicate robot id {rb.id}")
            ids.add(rb.id)
        if self.free_length <= 0:
            raise StaticallyCoverableError(
                f"L - 2*sum(r) = {self.free_length} <= 0: cycle is statically coverable"
            )

    @property
    def n(self) -> int:
        return len(self.robots)

    @property
    def speeds(self) -> tuple[float, ...]:
        return tuple(rb.v for rb in self.robots)

    @property
    def radii(self) -> tuple[float, ...]:
        return tuple(rb.r for rb in self.robots)

    @property
    def free_length(self) -> float:
        return self.L - 2.0 * sum(self.radii)


@dataclass(frozen=True)
class GoalPartition:
    t_star: float
    d_star: tuple[float, ...]
    y_star: tuple[float, ...]


def compute_t_star(cfg: FleetConfig) -> float:
    """Common traversing time: free cycle length split by total speed."""
    return cfg.free_length / sum(cfg.speeds)


def compute_goal_partition(cfg: FleetConfig) -> GoalPartition:
    t_star = compute_t_star(cfg)
    d_star = tuple(rb.v * t_star + 2.0 * rb.r for rb in cfg.robots)
    y_star = []
    acc = 0.0
    for d in d_star:
        acc += d
        y_star.append(acc)
    # the running sum must close the cycle exactly (up to float roundoff)
    if abs(y_star[-1] - cfg.L) > REL_TOL * max(abs(cfg.L), 1.0):
        raise AssertionError(f"partition does not close: {y_star[-1]} vs L={cfg.L}")
    y_star[-1] = cfg.L
    return GoalPartition(t_star=t_star, d_star=d_star, y_star=tuple(y_star))


def traversing_time(d: float, robot: RobotParams) -> float:
    """Time to cross a region of length d between contact configurations.

    Total function: negative when d < 2r (region narrower than the
    communication zone), which transient simulator states can produce.
    """
    return (d - 2.0 * robot.r) / robot.v


@dataclass
class FleetScenario:
    """A fleet plus the optional initial state / scheduled changes from JSON."""

    config: FleetConfig
    positions: list[float] | None = None
    orientations: list[int] | None = None
    changes: list[dict] = field(default_factory=list)


def _field(doc, name: str, where: str):
    """doc[name], or a ValueError if doc is not an object or lacks it."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(doc).__name__}")
    if name not in doc:
        raise ValueError(f"{where}: missing field '{name}'")
    return doc[name]


def _list(doc, name: str, where: str) -> list:
    """doc[name] if it is a JSON list, else a ValueError that names the field."""
    x = _field(doc, name, where)
    if not isinstance(x, list):
        raise ValueError(f"{where}: field '{name}' must be a list, got {x!r}")
    return x


def _number(doc, name: str, where: str, kind: str = "a number") -> float:
    """doc[name] as a float, or a ValueError that names the field.  A JSON
    string or bool is not a number."""
    x = _field(doc, name, where)
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:
            pass
    raise ValueError(f"{where}: field '{name}' must be {kind}, got {x!r}")


def _integer(doc, name: str, where: str) -> int:
    """doc[name] as an int; a bool or a non-integral number is a ValueError
    that names the field."""
    x = _number(doc, name, where, "an integer")
    if not x.is_integer():
        raise ValueError(f"{where}: field '{name}' must be an integer, got {doc[name]!r}")
    return doc[name] if isinstance(doc[name], int) else int(x)


def fleet_from_dict(doc: dict) -> FleetScenario:
    """A fleet document.  Its initial state is given for every robot, each
    with ``p0`` and ``o0`` (-1 or +1), or for none: a robot missing a field
    that another robot gives is a ValueError naming the robot and field."""
    robots = []
    positions = []
    orientations = []
    L = _number(doc, "L", "fleet")
    entries = _list(doc, "robots", "fleet")
    have_state = any(isinstance(entry, dict) and ("p0" in entry or "o0" in entry)
                     for entry in entries)
    for k, entry in enumerate(entries):
        where = f"robots[{k}]"
        rb = RobotParams(id=_integer(entry, "id", where), v=_number(entry, "v", where),
                         r=_number(entry, "r", where))
        robots.append(rb)
        if have_state:
            positions.append(_number(entry, "p0", where))
            orientations.append(_integer(entry, "o0", where))
            if orientations[-1] not in (-1, 1):
                raise ValueError(f"{where}: field 'o0' must be -1 or +1, got {entry['o0']!r}")
    cfg = FleetConfig(robots=tuple(robots), L=L)
    events = _list(doc, "events", "fleet") if "events" in doc else []
    changes = [_change_from_dict(k, ev, cfg) for k, ev in enumerate(events)]
    return FleetScenario(
        config=cfg,
        positions=positions if have_state else None,
        orientations=orientations if have_state else None,
        changes=changes,
    )


def _change_from_dict(k: int, ev: dict, cfg: FleetConfig) -> dict:
    """One scheduled parameter change: a known robot id, a finite time
    t >= 0, and new values v and r that pass the robot checks."""
    where = f"events[{k}]"
    t = _number(ev, "t", where)
    robot_id = _integer(ev, "robot", where)
    robot = next((rb for rb in cfg.robots if rb.id == robot_id), None)
    if robot is None:
        raise ValueError(f"{where}: robot {ev['robot']!r} is not in the fleet")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"{where}: time t must be finite and non-negative, got {t}")
    v = robot.v if ev.get("v") is None else _number(ev, "v", where)
    r = robot.r if ev.get("r") is None else _number(ev, "r", where)
    try:
        RobotParams(id=robot.id, v=v, r=r)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    return {**ev, "t": t, "robot": robot_id}


def load_fleet_json(path) -> FleetScenario:
    with open(path) as fh:
        return fleet_from_dict(json.load(fh))
