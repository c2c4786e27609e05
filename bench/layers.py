"""Per-layer spans for the traced benchmark run.

The wrappers are installed from the benchmark's own files, around the
public functions and methods of each ``cyclepatrol`` layer.  A method
wrapped on its class also catches the engine's internal calls; a module
function is patched under every name any ``cyclepatrol`` module binds it
to, so calls from inside its own module are caught too.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter

# span name -> (module, attribute) or (module, class, method)
FUNCTION_SPANS = {
    "consensus.build_matrices": ("cyclepatrol.consensus", "build_matrices"),
    "consensus.check_spectrum": ("cyclepatrol.consensus", "check_spectrum"),
    "consensus.iterate_consensus": ("cyclepatrol.consensus", "iterate_consensus"),
    "consensus.replay_trace": ("cyclepatrol.consensus", "replay_trace"),
    "words.step_word": ("cyclepatrol.words", "step_word"),
    "words.is_interlaced": ("cyclepatrol.words", "is_interlaced"),
    "words.decompose": ("cyclepatrol.words", "decompose"),
    "rounds.lift_from_trace": ("cyclepatrol.rounds", "lift_from_trace"),
    "rounds.compare_with_engine": ("cyclepatrol.rounds", "compare_with_engine"),
    "rounds.step_round": ("cyclepatrol.rounds", "step_round"),
    "verify.run_to_deep_convergence": ("cyclepatrol.verify", "run_to_deep_convergence"),
    "metrics.theorem_verdicts": ("cyclepatrol.metrics", "theorem_verdicts"),
    "metrics.write_plot_data": ("cyclepatrol.metrics", "write_plot_data"),
    "metrics.inter_meeting_times": ("cyclepatrol.metrics", "inter_meeting_times"),
}
METHOD_SPANS = {
    "engine.next_candidate": ("cyclepatrol.engine", "Simulation", "next_candidate"),
    "engine.e_values": ("cyclepatrol.engine", "Simulation", "e_values"),
    "engine.max_deviation": ("cyclepatrol.engine", "Simulation", "max_deviation"),
    "engine.step": ("cyclepatrol.engine", "Simulation", "step"),
    "engine.run_until": ("cyclepatrol.engine", "Simulation", "run_until"),
    "engine.write_csv": ("cyclepatrol.engine", "Trace", "write_csv"),
    "words.evolution_step": ("cyclepatrol.words", "TrackedEvolution", "step"),
}


class _Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


@contextlib.contextmanager
def created_simulations():
    """Yield a list that collects every ``Simulation`` built inside the
    block.  The list holds the simulations (and their traces) alive, so
    drain it after each operation."""
    from cyclepatrol.engine import Simulation

    sims: list = []
    original = Simulation.__init__

    @functools.wraps(original)
    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        sims.append(self)

    patches = _Patches()
    patches.set(Simulation, "__init__", init)
    try:
        yield sims
    finally:
        patches.undo()


def count_events(sims: list, into: Counter) -> None:
    """Add the event kinds of the collected simulations' traces to
    ``into`` and drain the list."""
    for sim in sims:
        if sim.trace is not None:
            into.update(ev.kind for ev in sim.trace.events)
    sims.clear()


class Recorder:
    """Inclusive seconds and call counts per span, plus the sweep count
    that ``iterate_consensus`` returns."""

    def __init__(self):
        self.seconds: Counter = Counter()
        self.calls: Counter = Counter()
        self.sweeps = 0

    def add(self, span: str, seconds: float) -> None:
        self.seconds[span] += seconds
        self.calls[span] += 1

    def _wrap(self, span: str, fn):
        seconds, calls, clock = self.seconds, self.calls, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[span] += clock() - t0
                calls[span] += 1

        if span != "consensus.iterate_consensus":
            return timed

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = timed(*args, **kwargs)
            self.sweeps += result[1]
            return result

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Wrap every span for the duration of the block.  A missing
        target raises, so a renamed layer cannot silently read zero."""
        patches = _Patches()
        try:
            for span, (module, cls, method) in METHOD_SPANS.items():
                owner = getattr(sys.modules[module], cls)
                patches.set(owner, method, self._wrap(span, getattr(owner, method)))
            modules = [m for name, m in list(sys.modules.items())
                       if m is not None and name.split(".")[0] == "cyclepatrol"]
            for span, (module, attr) in FUNCTION_SPANS.items():
                original = getattr(sys.modules[module], attr)
                wrapper = self._wrap(span, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            patches.set(mod, name, wrapper)
            yield self
        finally:
            patches.undo()
