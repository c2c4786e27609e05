import math
import random

import pytest

from cyclepatrol import metrics
from cyclepatrol.engine import Simulation, random_initial_state
from cyclepatrol.metrics import (
    inter_meeting_times,
    theorem_verdicts,
    windowed_revisit,
)
from cyclepatrol.verify import converged_simulation, run_to_deep_convergence

from conftest import make_fleet


class TestInterMeetingTimes:
    def test_successive_differences(self, eight_robot_fleet):
        rng = random.Random(10)
        pos, ori = random_initial_state(eight_robot_fleet, rng, n_minus=4)
        sim = Simulation(eight_robot_fleet, pos, ori)
        sim.run_until(max_events=2000)
        series = inter_meeting_times(sim.trace)
        by_boundary = metrics.meetings_by_boundary(sim.trace)
        for j, diffs in series.items():
            ts = by_boundary[j]
            assert len(diffs) == len(ts) - 1
            assert all(d > 0 for d in diffs)
            assert diffs[0] == ts[1] - ts[0]

    def test_converged_differences_near_double_t_star(self):
        # 255.56 apart, twice the common traversing time of 127.78
        vals = [100.0, 355.56, 611.12]
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        assert diffs == pytest.approx([255.56, 255.56], abs=1e-9)

    def test_fewer_than_two_meetings_empty(self, fig3_fleet):
        rng = random.Random(10)
        pos, ori = random_initial_state(fig3_fleet, rng)
        sim = Simulation(fig3_fleet, pos, ori)
        sim.run_until(max_events=2)
        assert all(len(s) == 0 for s in inter_meeting_times(sim.trace).values())


class TestWindowedRevisit:
    def test_constant_series(self):
        assert windowed_revisit([5.0, 5.0, 5.0, 5.0], 2) == [5.0, 5.0, 5.0]

    def test_unbalanced_pattern_averages_to_target(self):
        t = 127.77777777777777
        series = [2 * t, 3 * t, 3 * t] * 4
        wins = windowed_revisit(series, 3)
        assert all(w == pytest.approx(8 * t / 3, rel=1e-12) for w in wins)
        assert wins[0] == pytest.approx(340.7407407407407, rel=1e-9)

    def test_window_equal_to_length(self):
        assert windowed_revisit([1.0, 2.0], 2) == [1.5]

    def test_too_short_series(self):
        assert windowed_revisit([1.0], 3) == []

    def test_bad_window(self):
        with pytest.raises(ValueError):
            windowed_revisit([1.0], 0)


class TestVerdicts:
    def test_balanced_benchmark_passes(self, fig3_fleet):
        sim = converged_simulation(fig3_fleet, seed=21, n_minus=2,
                                   rtol=1e-10, tail_rounds=24.0)
        report = theorem_verdicts(sim.trace)
        assert report.t_star == 250.0
        assert report.t_rev_predicted == 500.0
        assert report.all_pass
        by_name = {v.name: v for v in report.verdicts}
        assert by_name["revisit_time_balanced"].measured == pytest.approx(500.0, rel=0.01)

    def test_unbalanced_benchmark_passes(self, eight_robot_fleet):
        sim = converged_simulation(eight_robot_fleet, seed=22, n_minus=3,
                                   rtol=1e-10, tail_rounds=90.0)
        report = theorem_verdicts(sim.trace)
        assert not report.balanced and report.n_bal == 3
        assert report.t_rev_predicted == pytest.approx(340.7407407407407, rel=1e-12)
        assert report.all_pass

    def test_two_identical_robots_closed_form(self):
        # symmetric pair: each region is L/2, revisit = 2*(L/2 - 2r)/v = 180
        cfg = make_fleet([2.0, 2.0], [10.0, 10.0], 400.0)
        sim = converged_simulation(cfg, seed=23, rtol=1e-10, tail_rounds=20.0)
        series = inter_meeting_times(sim.trace)
        for s in series.values():
            assert s[-1] == pytest.approx(180.0, rel=0.01)
        report = theorem_verdicts(sim.trace)
        assert report.all_pass

    def test_unconverged_is_inconclusive(self, eight_robot_fleet):
        rng = random.Random(9)
        pos, ori = random_initial_state(eight_robot_fleet, rng, n_minus=4)
        sim = Simulation(eight_robot_fleet, pos, ori)
        sim.run_until(max_events=12)
        report = theorem_verdicts(sim.trace)
        assert all(v.status == "INCONCLUSIVE" for v in report.verdicts)

    def test_too_few_meetings_leave_the_revisit_time_inconclusive(self):
        # converged after 5 events, before any boundary has a revisit window
        cfg = make_fleet([1.0, 1.0], [10.0, 10.0], 1000.0)
        sim = Simulation(cfg, *random_initial_state(cfg, random.Random(0)))
        while sim.converged_at is None:
            sim.step()
        statuses = {v.name: v.status for v in theorem_verdicts(sim.trace).verdicts}
        assert statuses == {"common_traversing_time": "PASS",
                            "revisit_time_balanced": "INCONCLUSIVE"}

    def test_verdicts_deterministic(self, fig3_fleet):
        reports = []
        for _ in range(2):
            sim = converged_simulation(fig3_fleet, seed=77, n_minus=2,
                                       rtol=1e-9, tail_rounds=16.0)
            reports.append(theorem_verdicts(sim.trace).to_dict())
        assert reports[0] == reports[1]

    def test_final_e_ignores_change_after_last_event(self, fig3_fleet):
        sim = converged_simulation(fig3_fleet, seed=21, n_minus=2, rtol=1e-9)
        sim.step()  # the clock sits at the last event
        e_last = sim.e_values()
        converged_at = sim.trace.converged_at
        sim.apply_parameter_change(robot_id=2, v=0.35)
        assert sim.trace.parameter_changes[-1]["t"] == sim.trace.events[-1].time
        sim.trace.converged_at = converged_at  # judge the run as of its last event
        measured = theorem_verdicts(sim.trace).verdicts[0].measured
        assert measured == max(e_last, key=lambda e: abs(e - sim.t_star))

    def test_json_output(self, fig3_fleet, tmp_path):
        sim = converged_simulation(fig3_fleet, seed=21, n_minus=2,
                                   rtol=1e-9, tail_rounds=16.0)
        report = theorem_verdicts(sim.trace)
        path = tmp_path / "report.json"
        report.write_json(path)
        assert path.exists() and '"all_pass": true' in path.read_text()


class TestPlotData:
    def test_rows_one_per_meeting(self, fig3_fleet):
        sim = converged_simulation(fig3_fleet, seed=21, n_minus=2,
                                   rtol=1e-9, tail_rounds=12.0)
        rows = list(metrics.plot_data_rows(sim.trace))
        meetings = [ev for ev in sim.trace.events if ev.kind == "meeting"]
        assert len(rows) == len(meetings)
        assert all(r.count(",") == 4 for r in rows)

    def test_csv_write(self, fig3_fleet, tmp_path):
        sim = converged_simulation(fig3_fleet, seed=21, n_minus=2,
                                   rtol=1e-9, tail_rounds=12.0)
        p = tmp_path / "plot.csv"
        metrics.write_plot_data(sim.trace, p)
        head = p.read_text().splitlines()[0]
        assert head == "time,robot,e_i,f_i,windowed_f_i"
