"""Interval propagators of the learned chain loops against stage-by-stage RK4.

Random chains are m integrator chains with n states in all, driven by a
linear expert v = -(K + t K') z.  The single-basis tests use an index set
without the trivial run, so the bases carry nonzero base terms, and with
K' != 0 the tabulated offsets c(tau) are nonzero at the step midpoints.
With K' = 0 the learned loop repeats the expert's RK4 steps, so the affine
combinations of demonstrations are its solutions up to rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import analytic_double_int_set, off_grid_basis
from oracles import chain_rk4, reconstruct

from demostab.certify import contraction_check
from demostab.demos import DemonstrationSet
from demostab.errors import DivergenceError
from demostab.learner import AffineBasis, LearnedController, build_basis, simulate_chain_batch
from demostab.multi import MultiController
from demostab.plant import lqr_gain
from demostab.sim import rk4, time_grid

T, DT = 0.5, 0.01
N = round(T / DT)
MODES = ("closed_loop", "open_loop")


def chain_pair(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Block Brunovsky pair: m integrator chains whose lengths add up to n."""
    A, B = np.zeros((n, n)), np.zeros((n, m))
    row = 0
    for j in range(m):
        length = n // m + (j < n % m)
        A[row:row + length - 1, row + 1:row + length] = np.eye(length - 1)
        B[row + length - 1, j] = 1.0
        row += length
    return A, B


def random_chain_set(seed: int, n: int, m: int, starts: np.ndarray, rate: float = 0.0,
                     growth: float = 0.0) -> DemonstrationSet:
    """The trivial run, then expert runs from the columns of starts.

    K is an LQR gain for random weights, or, with growth > 0, positive
    feedback of the chain ends; K' has random entries of size up to rate.
    """
    rng = np.random.default_rng(seed)
    A, B = chain_pair(n, m)
    if growth > 0.0:
        K = -growth * B.T
    else:
        K = lqr_gain(A, B, np.diag(rng.uniform(0.5, 4.0, n)), np.eye(m))
    K1 = rate * rng.uniform(-1.0, 1.0, (m, n))

    def gain(t):
        return K + np.multiply.outer(t, K1)

    def rhs(t, Z):
        return A @ Z - B @ (gain(t) @ Z), 0.0

    times = time_grid(0.0, T, DT)
    states, _ = rk4(rhs, np.hstack([np.zeros((n, 1)), starts]), times)
    return DemonstrationSet(grid=times, z=states, v=-(gain(times) @ states), A=A, B=B)


def off_origin_basis(dset: DemonstrationSet):
    """The basis of every run but the trivial one."""
    return build_basis(dset, range(1, dset.n + 2))


def simplex_starts(rng, n: int) -> np.ndarray:
    """n+1 well-conditioned starts: a base point plus a perturbed unit simplex."""
    base = rng.uniform(-0.5, 0.5, (n, 1))
    return np.hstack([base, base + np.eye(n) + 0.3 * rng.uniform(-1.0, 1.0, (n, n)) / n])


def assert_same_run(got, ref):
    times, states, inputs = got
    assert np.array_equal(times, ref[0])
    assert states.shape == ref[1].shape and inputs.shape == ref[2].shape
    scale = max(np.abs(ref[1]).max(), np.abs(ref[2]).max())
    assert_allclose(states, ref[1], rtol=0, atol=1e-12 * scale)
    assert_allclose(inputs, ref[2], rtol=0, atol=1e-12 * scale)


chains = st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, min(n, 2))))
seeds = st.integers(0, 2**32 - 1)
# Whole intervals plus a remainder of whole steps (zero ends on a boundary).
durations = st.tuples(st.integers(0, 2), st.integers(0, N - 1)).map(
    lambda pr: (pr[0] * N + (pr[1] or N)) * DT)


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=30)
@given(seed=seeds, nm=chains, duration=durations)
def test_single_basis_matches_rk4(mode, seed, nm, duration):
    n, m = nm
    rng = np.random.default_rng(seed)
    dset = random_chain_set(seed, n, m, simplex_starts(rng, n), rate=2.0)
    ctrl = LearnedController(off_origin_basis(dset), A=dset.A, B=dset.B, feedback_mode=mode)
    z0 = rng.uniform(-2.0, 2.0, (n, 3))
    assert_same_run(simulate_chain_batch(ctrl, z0, duration),
                    chain_rk4(ctrl, z0, duration, DT))


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=15)
@given(seed=seeds, n=st.integers(2, 4), duration=durations)
def test_multi_matches_rk4(mode, seed, n, duration):
    rng = np.random.default_rng(seed)
    starts = rng.standard_normal((n, n + 2))
    dset = random_chain_set(seed, n, 1, starts, rate=2.0)
    ctrl = MultiController(dset, feedback_mode=mode)
    inside = starts @ rng.dirichlet(np.ones(n + 2), size=3).T
    z0 = np.hstack([inside, 3.0 * starts[:, :3]])
    assert_same_run(simulate_chain_batch(ctrl, z0, duration),
                    chain_rk4(ctrl, z0, duration, DT))


@settings(max_examples=30)
@given(seed=seeds, nm=chains)
def test_interval_map_is_monodromy(seed, nm):
    n, m = nm
    dset = random_chain_set(seed, n, m, simplex_starts(np.random.default_rng(seed), n))
    basis = off_origin_basis(dset)
    Psi = basis.monodromy()
    Pi_N = basis.propagator(dset.A, dset.B).P[-1]
    assert np.linalg.norm(Pi_N - Psi, 2) <= 1e-12 * np.linalg.norm(Psi, 2)


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=15)
@given(seed=seeds, nm=chains, growth=st.floats(8.0, 16.0))
def test_growing_loop_diverges_at_the_same_time(mode, seed, nm, growth):
    n, m = nm
    rng = np.random.default_rng(seed)
    dset = random_chain_set(seed, n, m, simplex_starts(rng, n), growth=growth)
    ctrl = LearnedController(off_origin_basis(dset), A=dset.A, B=dset.B, feedback_mode=mode)
    z0 = rng.uniform(-2.0, 2.0, (n, 2))
    with pytest.raises(DivergenceError) as ref:
        chain_rk4(ctrl, z0, 8.0, DT)
    with pytest.raises(DivergenceError) as got:
        simulate_chain_batch(ctrl, z0, 8.0)
    assert got.value.time == ref.value.time
    assert str(got.value) == str(ref.value)


@settings(max_examples=30)
@given(seed=seeds, nm=chains)
def test_affine_combinations_are_closed_loop_solutions(seed, nm):
    # From z(0) = z_base(0) + Z(0) zeta the learned loop stays on
    # z_base(t) + Z(t) zeta for the whole interval.
    n, m = nm
    rng = np.random.default_rng(seed)
    dset = random_chain_set(seed, n, m, simplex_starts(rng, n))
    basis = off_origin_basis(dset)
    zeta = rng.uniform(-2.0, 2.0, n)
    ctrl = LearnedController(basis, A=dset.A, B=dset.B)
    times, states, _ = simulate_chain_batch(ctrl, reconstruct(basis, 0.0, zeta), T)
    expected = np.stack([reconstruct(basis, t, zeta) for t in times])
    assert_allclose(states[:, :, 0], expected, rtol=0, atol=1e-9 * np.abs(expected).max())


def test_multi_reanchors_at_a_final_boundary(multi_point_set):
    # A run ending exactly at 2T selects a simplex again for its last input.
    ctrl = MultiController(multi_point_set)
    z0 = np.array([[0.9, -3.0, 0.2], [0.05, 2.0, 0.6]])
    got = simulate_chain_batch(ctrl, z0, 2 * ctrl.T)
    ref = chain_rk4(ctrl, z0, 2 * ctrl.T, 1e-3)
    assert_same_run(got, ref)


def test_propagators_skip_stage_evaluations(double_int_ctrl, monkeypatch):
    def fail(*args):
        raise AssertionError("stage evaluation on the tabulated path")

    monkeypatch.setattr(LearnedController, "eval_in_interval", fail)
    simulate_chain_batch(double_int_ctrl, np.array([0.5, 0.5]), 5.0)


def test_single_basis_is_tabulated_once_per_run(double_int_ctrl, monkeypatch):
    # A 5 s run over three intervals of 2 s builds one table.
    builds = []
    build = AffineBasis.propagator

    def counted(self, *args, **kwargs):
        builds.append(self)
        return build(self, *args, **kwargs)

    monkeypatch.setattr(AffineBasis, "propagator", counted)
    simulate_chain_batch(double_int_ctrl, np.array([0.5, 0.5]), 5.0)
    assert builds == [double_int_ctrl.basis]


def _learned_at_coarse_dt():
    """Single (both laws) and multi controllers learned at dt = 0.01."""
    dset = analytic_double_int_set(T=1.0, dt=1e-2)
    ctrls = [LearnedController(build_basis(dset), feedback_mode=mode) for mode in MODES]
    return ctrls + [MultiController(dset)]


@pytest.mark.parametrize("dt", [2e-2, 5e-3], ids=["coarser_dt", "finer_dt"])
def test_off_the_demonstration_dt_is_refused(dt):
    # The propagators and K/c tables hold the demonstration grid only:
    # contraction_check refuses any other dt, naming both.
    z0 = np.array([[0.5, -1.0], [0.5, 0.3]])
    for ctrl in _learned_at_coarse_dt():
        with pytest.raises(ValueError, match=rf"dt={dt} .* dt=0\.01 "):
            contraction_check(ctrl, z0, p_max=2, dt=dt)


def test_contraction_check_runs_at_the_controller_dt():
    # With no dt, contraction_check steps the controller's own grid, as the
    # simulators do; 0.02 is refused with both dts named.
    z0 = np.array([[0.5, -1.0], [0.5, 0.3]])
    for ctrl in _learned_at_coarse_dt():
        report = contraction_check(ctrl, z0, p_max=2)
        assert report.passed
        _, states, _ = simulate_chain_batch(ctrl, z0, 2 * ctrl.T)
        assert np.array_equal(report.sampled_norms,
                              np.linalg.norm(states[[0, 100, 200]], axis=1))
        with pytest.raises(ValueError, match=r"dt=0\.02 .* dt=0\.01 "):
            contraction_check(ctrl, z0, p_max=2, dt=0.02)


def test_horizon_off_the_grid_still_raises():
    # T = 1.0005 is no whole multiple of the demonstration dt = 1e-3: no
    # demonstration set holds such a grid, and a basis built on one directly
    # is refused by the simulator.
    with pytest.raises(ValueError, match="whole multiple"):
        analytic_double_int_set(T=1.0005)
    ctrl = LearnedController(off_grid_basis())
    with pytest.raises(ValueError, match="whole multiple"):
        simulate_chain_batch(ctrl, np.array([0.5, 0.5]), 3.0)


@pytest.mark.parametrize("mode", MODES)
def test_duration_off_the_grid_is_refused(mode, double_int_set):
    # 3.0005 s is no whole number of steps of dt = 1e-3.
    ctrl = LearnedController(build_basis(double_int_set), feedback_mode=mode)
    with pytest.raises(ValueError, match=r"3\.0005 is not a whole multiple of dt=0\.001"):
        simulate_chain_batch(ctrl, np.array([0.5, 0.5]), 3.0005)


def test_quadrotor_interval_map_is_monodromy(quad_set):
    basis = build_basis(quad_set)
    Psi = basis.monodromy()
    Pi_N = basis.propagator(quad_set.A, quad_set.B).P[-1]
    assert np.linalg.norm(Pi_N - Psi, 2) <= 1e-12 * np.linalg.norm(Psi, 2)


def test_hull_workload_interval_maps_are_monodromies():
    # The chain4 multi set of the hull benchmark: 16 demonstrations from the
    # origin, e_1..e_4 and 11 seeded normal starts, recorded at dt = 0.01.
    from demostab.demos import record_expert, to_zv
    from demostab.plant import chain_preset, expert_lqr

    rng = np.random.default_rng(1)
    starts = np.vstack([np.eye(4), rng.standard_normal((11, 4))])
    plant = chain_preset(4)
    raw = record_expert(plant, expert_lqr(plant, np.eye(4), 1.0), list(starts), T=6.0, dt=0.01)
    ctrl = MultiController(to_zv(plant, raw))
    for basis in ctrl.bases:
        Psi = basis.monodromy()
        Pi_N = basis.propagator(ctrl.A, ctrl.B).P[-1]
        assert np.linalg.norm(Pi_N - Psi, 2) <= 1e-12 * np.linalg.norm(Psi, 2)
