import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclepatrol import consensus, verify
from cyclepatrol.engine import Simulation, random_initial_state
from cyclepatrol.fleet import fleet_from_dict

from conftest import make_fleet
from test_golden import CASES


def reference_link(m, i):
    """Dense P_i, Ptilde_i and Laptilde_i of link i from m's speeds and
    eps: P_i = I - diag(1/v) eps_i L_i and its symmetrized similar form."""
    v = np.array(m.speeds)
    n = m.n
    lap = np.zeros((n, n))
    lap[i, i] = lap[i + 1, i + 1] = 1.0
    lap[i, i + 1] = lap[i + 1, i] = -1.0
    inv_sqrt = np.diag(1.0 / np.sqrt(v))
    laptilde = inv_sqrt @ (m.eps[i] * lap) @ inv_sqrt
    return np.eye(n) - np.diag(1.0 / v) @ (m.eps[i] * lap), np.eye(n) - laptilde, laptilde


def link_matrix(m, i):
    """The matrix average_link applies: its action on the columns of I."""
    a = np.eye(m.n)
    consensus.average_link(a, m.speeds, i)
    return a


def dense_sweep(m):
    """The dense n x n product of one round-robin sweep: average_link
    applied to the columns of I, links 0 to n-2 in turn."""
    product = np.eye(m.n)
    for i in range(m.n - 1):
        consensus.average_link(product, m.speeds, i)
    return product


def random_matrices(rng, n_lo=2, n_hi=12, v_lo=0.1):
    n = rng.randint(n_lo, n_hi)
    return consensus.build_matrices([rng.uniform(v_lo, 10.0) for _ in range(n)])


class TestBuildMatrices:
    def test_equal_speeds_mixing(self):
        m = consensus.build_matrices([1.0, 1.0])
        assert m.eps == (0.5,)
        assert np.allclose(reference_link(m, 0)[0], [[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(link_matrix(m, 0), [[0.5, 0.5], [0.5, 0.5]])

    def test_unequal_speeds_entries(self):
        m = consensus.build_matrices([1.0, 3.0])
        assert m.eps[0] == pytest.approx(0.75)
        for P in (reference_link(m, 0)[0], link_matrix(m, 0)):
            assert P[0, 0] == pytest.approx(0.25)
            assert P[0, 1] == pytest.approx(0.75)
            assert P[1, 1] == pytest.approx(0.75)
            assert P[1, 0] == pytest.approx(0.25)

    def test_rows_sum_to_one(self, rng):
        for _ in range(30):
            m = random_matrices(rng, n_hi=16)
            for i in range(m.n - 1):
                for P in (reference_link(m, i)[0], link_matrix(m, i)):
                    assert np.allclose(P @ np.ones(m.n), np.ones(m.n), atol=1e-12)

    def test_speeds_are_left_fixed_vector(self, rng):
        for _ in range(30):
            m = random_matrices(rng)
            v = np.array(m.speeds)
            for i in range(m.n - 1):
                for P in (reference_link(m, i)[0], link_matrix(m, i)):
                    assert np.allclose(v @ P, v, atol=1e-10)

    def test_symmetrized_form_is_similar(self, rng):
        for _ in range(10):
            m = random_matrices(rng, n_hi=8)
            sv = np.diag(np.sqrt(m.speeds))
            sv_inv = np.diag(1 / np.sqrt(m.speeds))
            for i in range(m.n - 1):
                _, Ptilde, _ = reference_link(m, i)
                assert np.allclose(Ptilde, Ptilde.T, atol=1e-12)
                assert np.allclose(Ptilde, sv @ link_matrix(m, i) @ sv_inv, atol=1e-10)

    def test_nonpositive_speed_rejected(self):
        with pytest.raises(ValueError):
            consensus.build_matrices([1.0, 0.0])


@given(st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(-1e4, 1e4)),
                min_size=2, max_size=12),
       st.data())
def test_link_update_is_the_dense_projection(entries, data):
    """average_link equals P_i @ e of the dense reference, conserves v.e
    and leaves constant vectors fixed."""
    speeds, e0 = zip(*entries)
    m = consensus.build_matrices(speeds)
    i = data.draw(st.integers(0, m.n - 2))
    P = reference_link(m, i)[0]
    e = list(e0)
    consensus.average_link(e, m.speeds, i)
    scale = max(map(abs, e0)) + 1.0
    assert np.allclose(e, P @ np.array(e0), rtol=1e-12, atol=1e-12 * scale)
    v = np.array(speeds)
    assert float(v @ e) == pytest.approx(float(v @ e0), rel=1e-12, abs=1e-12 * scale * v.sum())
    const = [e0[0]] * m.n
    consensus.average_link(const, m.speeds, i)
    assert const == pytest.approx([e0[0]] * m.n, rel=1e-15)


class TestSpectrum:
    def test_equal_speed_pair_eigenvalues(self):
        m = consensus.build_matrices([1.0, 1.0])
        rep = consensus.check_spectrum(m)
        assert rep.ok
        assert np.linalg.eigvalsh(reference_link(m, 0)[1]) == pytest.approx([0.0, 1.0], abs=1e-12)
        assert np.linalg.eigvals(link_matrix(m, 0)) == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_random_fleets_spectra(self, rng):
        for _ in range(200):
            n = rng.randint(2, 10)
            speeds = [rng.uniform(1e-3, 10.0) for _ in range(n)]
            rep = consensus.check_spectrum(consensus.build_matrices(speeds))
            assert rep.ok, rep.violations

    def test_laplacians_positive_semidefinite(self, rng):
        for _ in range(30):
            m = random_matrices(rng, n_hi=10)
            for i in range(m.n - 1):
                assert np.linalg.eigvalsh(reference_link(m, i)[2]).min() > -1e-12

    def test_product_primitive_and_contractive(self, rng):
        # the docstring's path argument, on the dense reference: the sweep's
        # n-th power is positive, and its spectral radius is 1
        for _ in range(20):
            m = random_matrices(rng, n_lo=3)
            product = dense_sweep(m)
            assert np.all(np.linalg.matrix_power(product, m.n) > 0)
            assert max(abs(np.linalg.eigvals(product))) == pytest.approx(1.0, abs=1e-9)
            assert consensus.check_spectrum(m).ok

    def test_sweep_product_has_the_symmetrized_spectrum(self, rng):
        # the sweep built from average_link has the spectrum of the product
        # of the reference Ptilde_i, and check_spectrum reads its lambda_2
        for _ in range(20):
            m = random_matrices(rng, n_lo=3, n_hi=10)
            sweep = np.eye(m.n)
            tilde = np.eye(m.n)
            for i in range(m.n - 1):
                sweep = reference_link(m, i)[0] @ sweep
                tilde = tilde @ reference_link(m, i)[1]
            sv = np.diag(np.sqrt(m.speeds))
            assert np.allclose(sv @ sweep @ np.linalg.inv(sv), tilde.T, atol=1e-10)
            assert consensus.check_spectrum(m).second_modulus == pytest.approx(
                sorted(abs(np.linalg.eigvals(tilde)))[-2], abs=1e-9)

    def test_mutant_eps_is_a_violation(self, rng):
        m = random_matrices(rng, n_lo=3)
        mutant = dataclasses.replace(m, eps=tuple(0.9 * x for x in m.eps))
        rep = consensus.check_spectrum(mutant)
        assert not rep.ok
        assert len(rep.violations) == m.n - 1 and "link 0" in rep.violations[0]

    def test_second_modulus_is_the_product_lambda_2(self, rng):
        # the closed form against the dense sweep's eigenvalues, up to n = 64
        for _ in range(60):
            m = random_matrices(rng, n_lo=3, n_hi=64, v_lo=0.05)
            moduli = sorted(abs(np.linalg.eigvals(dense_sweep(m))))
            rep = consensus.check_spectrum(m)
            assert rep.ok, rep.violations
            assert rep.second_modulus == pytest.approx(moduli[-2], abs=1e-12)

    def test_two_robots_contract_in_one_sweep(self, rng):
        for _ in range(10):
            m = random_matrices(rng, n_hi=2)
            assert consensus.check_spectrum(m).second_modulus == 0.0

    @pytest.mark.parametrize("n", [3, 5, 8, 33, 64])
    def test_equal_speeds_give_cos_squared(self, n):
        rep = consensus.check_spectrum(consensus.build_matrices([0.7] * n))
        assert rep.second_modulus == pytest.approx(math.cos(math.pi / n) ** 2, abs=1e-15)

    def test_sturm_count_is_the_dense_eigenvalue_count(self, rng):
        # off-diagonals up to sqrt(0.6) also give tridiagonals with
        # eigenvalues outside (0, 2), which no Gram matrix of a fleet has
        for _ in range(200):
            c2 = [rng.uniform(0.0, 0.6) for _ in range(rng.randint(0, 12))]
            off = np.sqrt(c2)
            eig = np.linalg.eigvalsh(np.eye(len(c2) + 1) + np.diag(off, 1) + np.diag(off, -1))
            x = rng.uniform(-1.0, 3.0)
            if np.min(abs(eig - x)) > 1e-9:
                assert consensus._sturm_count(x, c2) == int(np.sum(eig <= x))

    def test_gram_eigenvalue_at_or_below_zero_is_a_violation(self, rng, monkeypatch):
        sturm_count = consensus._sturm_count
        # a count shifted by one: M then seems to have an eigenvalue <= 0
        monkeypatch.setattr(consensus, "_sturm_count", lambda x, c2: sturm_count(x + 1.0, c2))
        rep = consensus.check_spectrum(random_matrices(rng, n_lo=3))
        assert not rep.ok
        assert rep.violations == ["Gram matrix has an eigenvalue outside (0, 2)"]


class TestIterate:
    def test_two_robot_weighted_mean(self):
        m = consensus.build_matrices([1.0, 3.0])
        e, sweeps, converged = consensus.iterate_consensus(m, [4.0, 2.0])
        assert converged
        assert e == pytest.approx([2.5, 2.5], abs=1e-9)

    def test_constant_vector_fixed_immediately(self):
        m = consensus.build_matrices([1.0, 2.0, 3.0])
        e, sweeps, converged = consensus.iterate_consensus(m, [7.0, 7.0, 7.0])
        assert converged and sweeps == 1
        assert e == pytest.approx([7.0, 7.0, 7.0], abs=1e-12)

    def test_benchmark_fleet_reaches_250(self, rng):
        speeds = [0.3, 0.7, 0.3, 0.3]
        radii = [50.0, 50.0, 50.0, 150.0]
        m = consensus.build_matrices(speeds)
        # any initial partition of the cycle gives e summing against speeds
        cuts = sorted(rng.uniform(0.0, 1000.0) for _ in range(3))
        ys = [0.0] + cuts + [1000.0]
        e0 = [(ys[i + 1] - ys[i] - 2 * radii[i]) / speeds[i] for i in range(4)]
        e, _, converged = consensus.iterate_consensus(m, e0)
        assert converged
        assert e == pytest.approx([250.0] * 4, abs=1e-9)

    def test_weighted_sum_conserved_along_iteration(self, rng):
        n = 6
        v = np.array([rng.uniform(0.2, 5.0) for _ in range(n)])
        m = consensus.build_matrices(v)
        e = [rng.uniform(0.0, 100.0) for _ in range(n)]
        total = float(v @ e)
        for _ in range(50):
            for i in range(n - 1):
                consensus.average_link(e, m.speeds, i)
                assert float(v @ e) == pytest.approx(total, rel=1e-12)

    @staticmethod
    def _link_by_link(m, e0, tol=1e-9, max_sweeps=10_000):
        # the reference: a round-robin sweep of average_link calls
        e = [float(x) for x in e0]
        target = consensus.fixed_point(m.speeds, e0)
        for sweep in range(1, max_sweeps + 1):
            for i in range(m.n - 1):
                consensus.average_link(e, m.speeds, i)
            if max(abs(x - target) for x in e) < tol:
                return e, sweep, True
        return e, max_sweeps, False

    @pytest.mark.parametrize("speeds, e0, max_sweeps", [
        ([1.0, 3.0], [4.0, 2.0], 10_000),
        ([0.4, 2.5], [100.0, -3.0], 10_000),
        ([1.0, 2.0, 3.0], [7.0, 7.0, 7.0], 10_000),
        ([0.3, 9.0, 0.2, 4.0, 1.0], [10.0, 0.0, 5.0, 1.0, 7.0], 3),
    ])
    def test_sweep_equals_link_by_link(self, speeds, e0, max_sweeps):
        m = consensus.build_matrices(speeds)
        assert (consensus.iterate_consensus(m, e0, max_sweeps=max_sweeps)
                == self._link_by_link(m, e0, max_sweeps=max_sweeps))

    def test_sweep_equals_link_by_link_on_random_fleets(self, rng):
        for _ in range(30):
            n = rng.randint(2, 20)
            m = consensus.build_matrices([rng.uniform(0.2, 10.0) for _ in range(n)])
            e0 = [rng.uniform(0.0, 500.0) for _ in range(n)]
            assert consensus.iterate_consensus(m, e0) == self._link_by_link(m, e0)

    def test_sweep_cap_reports_nonconvergence(self):
        m = consensus.build_matrices([1.0, 1.0, 1.0])
        _, _, converged = consensus.iterate_consensus(
            m, [0.0, 5.0, 10.0], max_sweeps=1
        )
        assert not converged


class TestEngineReplay:
    def test_replay_matches_engine(self, eight_robot_fleet):
        rng = random.Random(4)
        pos, ori = random_initial_state(eight_robot_fleet, rng, n_minus=4)
        sim = Simulation(eight_robot_fleet, pos, ori)
        sim.run_until(max_events=4000)
        ok, err, count = consensus.replay_trace(sim.trace)
        assert count > 500
        assert ok, f"max err {err}"

    def test_replay_detects_update_bug(self, eight_robot_fleet, monkeypatch):
        import cyclepatrol.engine as eng

        original = eng.boundary_consensus_update

        def flipped(y_prev, y_next, vl, vr, rl, rr):
            # swapped speed weights: still averaging, but the wrong fixed point
            return original(y_prev, y_next, vr, vl, rl, rr)

        monkeypatch.setattr(eng, "boundary_consensus_update", flipped)
        rng = random.Random(4)
        pos, ori = random_initial_state(eight_robot_fleet, rng, n_minus=4)
        sim = Simulation(eight_robot_fleet, pos, ori)
        sim.run_until(max_events=2000)
        ok, err, _ = consensus.replay_trace(sim.trace)
        assert not ok and err > 1e-3

    def test_replay_across_speed_change(self, fig3_fleet):
        # robot 2 halves its speed mid-run: the replay takes the new speed
        # from the cursor and restarts from its e at the change
        pos, ori = random_initial_state(fig3_fleet, random.Random(2))
        sim = Simulation(fig3_fleet, pos, ori)
        sim.schedule_parameter_change(5000.0, 2, v=0.35)
        sim.run_until(max_events=600)
        assert sim.trace.parameter_changes
        ok, err, count = consensus.replay_trace(sim.trace)
        assert ok and err <= 1e-9
        assert count == 222

    def test_replay_golden_two_changes(self):
        doc, flags = CASES["n8-two-changes"]
        spec = fleet_from_dict(doc)
        pos, ori = random_initial_state(spec.config, random.Random(int(flags[1])))
        sim = Simulation(spec.config, pos, ori)
        for ch in spec.changes:
            sim.schedule_parameter_change(ch["t"], ch["robot"], v=ch.get("v"), r=ch.get("r"))
        sim.run_until(t_end=float(flags[3]))
        assert len(sim.trace.parameter_changes) == 2
        ok, err, count = consensus.replay_trace(sim.trace)
        assert ok, f"max err {err}"
        assert count > 800


class TestSuite:
    def test_sweeps_within_spectral_gap_bound(self):
        res = verify.consensus_suite(n_fleets=40, engine_crosschecks=0)
        assert res.ok, res.summary_lines()
        assert res.checks[2][0] == "sweeps_within_spectral_gap_bound"

    def test_sweep_skipping_a_link_fails_the_bound(self, monkeypatch):
        def skip_one_link(m, e0, tol=1e-9, max_sweeps=10_000):
            # round-robin sweeps that leave out link (sweep mod n-1)
            e = [float(x) for x in e0]
            target = consensus.fixed_point(m.speeds, e0)
            for sweep in range(1, max_sweeps + 1):
                for i in range(m.n - 1):
                    if i != sweep % (m.n - 1):
                        consensus.average_link(e, m.speeds, i)
                if max(abs(x - target) for x in e) < tol:
                    return e, sweep, True
            return e, max_sweeps, False

        monkeypatch.setattr(consensus, "iterate_consensus", skip_one_link)
        res = verify.consensus_suite(n_fleets=10, engine_crosschecks=0)
        name, ok, detail = res.checks[2]
        assert name == "sweeps_within_spectral_gap_bound"
        assert not ok, detail

    def test_sweeps_capped_at_half_the_prediction_fail(self, monkeypatch):
        # each fleet's sweeps are capped at its prediction plus two, so a
        # prediction at half its value leaves fleets short of the mean
        predicted = verify.predicted_sweeps
        monkeypatch.setattr(verify, "predicted_sweeps", lambda *a: predicted(*a) / 2)
        lines = verify.consensus_suite(n_fleets=10, engine_crosschecks=0).summary_lines()
        assert lines[1].startswith("[FAIL] consensus: round_robin_reaches_weighted_mean")
