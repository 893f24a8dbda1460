"""Monodromy matrices, the norm certificate and the contraction check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import analytic_double_int_set, off_grid_basis
from oracles import double_int_flow, matrix_exp_series, monodromy_integral_loop, spectral_norm

from demostab.certify import (
    certificate,
    contraction_check,
    expm_nilpotent,
    find_T_tilde,
    monodromy_from_integral,
)
from demostab.demos import DemonstrationSet
from demostab.learner import LearnedController, build_basis
from demostab.multi import MultiController
from demostab.plant import brunovsky_pair
from demostab.sim import time_grid

# Frozen from the closed-form flow: Psi(2) = e^{-2} [[3, 2], [-2, -1]] and its
# larger singular value sqrt(9 + sqrt(80)) e^{-2}.
PSI_2_NORM = math.sqrt(9.0 + math.sqrt(80.0)) * math.exp(-2.0)


def test_monodromy_at_zero_is_identity(double_int_set):
    basis = build_basis(double_int_set)
    assert_allclose(basis.monodromy(0.0), np.eye(2), atol=0)
    A, B = double_int_set.A, double_int_set.B
    assert_allclose(monodromy_from_integral(basis, A, B, 0.0), np.eye(2), atol=0)


def test_monodromy_matches_flow_oracle(double_int_set):
    Psi = build_basis(double_int_set).monodromy()
    assert_allclose(Psi, math.exp(-2.0) * np.array([[3.0, 2.0], [-2.0, -1.0]]), atol=1e-12)
    assert_allclose(Psi, double_int_flow(2.0), atol=1e-12)
    assert abs(spectral_norm(Psi) - PSI_2_NORM) < 1e-12
    assert abs(PSI_2_NORM - 0.5732) < 1e-3


def test_monodromy_invariant_under_demo_scaling(double_int_set):
    scaled = analytic_double_int_set(
        starts=[np.zeros(2), np.array([3.7, 0.0]), np.array([0.0, 3.7])]
    )
    assert_allclose(
        build_basis(scaled).monodromy(),
        build_basis(double_int_set).monodromy(),
        atol=1e-12,
    )


def test_integral_with_zero_inputs_is_exponential():
    # Drift-only demonstrations of the chain: v = 0, z(t) = e^{At} z0.
    grid = time_grid(0.0, 1.0, 1e-3)
    pair = brunovsky_pair(2)
    starts = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # the origin, e_1 and e_2
    z = np.stack([expm_nilpotent(pair.A, t) @ starts for t in grid])
    dset = DemonstrationSet(grid=grid, z=z, v=np.zeros((len(grid), 3)), A=pair.A, B=pair.B)
    basis = build_basis(dset)
    Psi = monodromy_from_integral(basis, pair.A, pair.B, 1.0)
    assert_allclose(Psi, expm_nilpotent(pair.A, 1.0), atol=1e-12)
    assert_allclose(Psi, np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-12)


def test_integral_matches_data_formula(double_int_set):
    basis = build_basis(double_int_set)
    Psi_data = basis.monodromy()
    Psi_int = monodromy_from_integral(basis, double_int_set.A, double_int_set.B)
    assert np.linalg.norm(Psi_data - Psi_int) < 1e-4


def test_integral_scalar_case_by_hand():
    # n = 1 with v(t) = -z(t), z(t) = e^{-t}: Psi(T) = e^{-T}.
    grid = time_grid(0.0, 1.0, 1e-4)
    pair = brunovsky_pair(1)
    z = np.zeros((len(grid), 1, 2))
    z[:, 0, 1] = np.exp(-grid)
    dset = DemonstrationSet(grid=grid, z=z, v=-z[:, 0], A=pair.A, B=pair.B)
    basis = build_basis(dset)
    assert_allclose(basis.monodromy(1.0), [[math.exp(-1.0)]], atol=1e-9)
    assert_allclose(monodromy_from_integral(basis, pair.A, pair.B, 1.0),
                    [[math.exp(-1.0)]], atol=1e-7)


def test_expm_nilpotent_matches_series():
    pair = brunovsky_pair(4)
    assert_allclose(expm_nilpotent(pair.A, 0.7), matrix_exp_series(pair.A, 0.7), atol=1e-12)
    with pytest.raises(ValueError):
        expm_nilpotent(np.eye(2), 1.0)
    with pytest.raises(ValueError):
        expm_nilpotent(np.eye(2), np.array([0.0, 1.0]))


def _assert_matches_loop(basis, A, B, T):
    # Relative to e^{AT}, the size of the terms: on the ball-beam set the
    # integral cancels all but 2.4e-4 of it.
    want = monodromy_integral_loop(basis, A, B, T)
    got = monodromy_from_integral(basis, A, B, T)
    scale = np.linalg.norm(expm_nilpotent(A, basis.T if T is None else T))
    assert np.linalg.norm(got - want) <= 1e-13 * scale, T


def test_batched_integral_matches_the_node_loop(double_int_set, chain2_recorded,
                                                ball_beam_fixture, quad_set):
    # The criterion-02 fixtures at their own T, at a grid T inside the
    # horizon (an odd step count, so a trapezoid closes it) and at the
    # off-grid T = 1.0005, whose last node comes from interpolated V.
    for dset in (double_int_set, chain2_recorded, ball_beam_fixture["set"], quad_set):
        basis = build_basis(dset)
        for T in (None, 0.999, 1.0005):
            _assert_matches_loop(basis, dset.A, dset.B, T)


@pytest.mark.parametrize("steps", [1.0, 1.5, 2.0], ids=["2 nodes", "3 nodes uneven", "3 nodes"])
def test_batched_integral_on_the_shortest_horizons(double_int_set, steps):
    basis = build_basis(double_int_set)
    _assert_matches_loop(basis, double_int_set.A, double_int_set.B, steps * double_int_set.dt)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 6), data=st.data())
def test_expm_nilpotent_on_an_array_of_times_is_per_time(n, data):
    entries = st.floats(-3.0, 3.0, allow_nan=False)
    A = np.triu(np.array(data.draw(st.lists(entries, min_size=n * n, max_size=n * n)))
                .reshape(n, n), 1)
    times = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8)))
    batch = expm_nilpotent(A, times)
    assert batch.shape == (len(times), n, n)
    for t, E in zip(times, batch):
        assert_allclose(E, expm_nilpotent(A, t), rtol=1e-15, atol=1e-15 * np.abs(E).max())


def test_certificate_fields(double_int_set):
    cert = certificate(build_basis(double_int_set))
    assert cert.verdict
    assert_allclose(cert.margin, 1.0 - PSI_2_NORM, atol=1e-10)
    data = cert.to_dict()
    assert data["verdict"] == "pass"
    assert len(data["per_simplex"]) == 1
    assert data["per_simplex"][0]["spectral_radius"] < 1.0


def test_find_T_tilde_grid(double_int_set):
    # Frozen oracle norms: 0.9814 at T=0.5, 0.8882 at T=1, 0.5733 at T=2.
    for T, expected in ((0.5, 0.9814), (1.0, 0.8882), (2.0, 0.5733)):
        norm = spectral_norm(double_int_flow(T))
        assert abs(norm - expected) < 1e-4
    assert find_T_tilde(double_int_set, [0.5, 1.0, 2.0]) == 0.5


def test_find_T_tilde_unstable_expert_returns_none():
    # Demonstrations of an expanding loop: v = +z1 gives eigenvalues +-1.
    A_cl = np.array([[0.0, 1.0], [1.0, 0.0]])
    grid = time_grid(0.0, 2.0, 1e-3)
    pair = brunovsky_pair(2)
    starts = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # the origin, e_1 and e_2
    z = np.stack([matrix_exp_series(A_cl, t) @ starts for t in grid])
    dset = DemonstrationSet(grid=grid, z=z, v=z[:, 0], A=pair.A, B=pair.B)
    assert find_T_tilde(dset, [0.5, 1.0, 2.0]) is None


def test_find_T_tilde_zero_horizon_fails(double_int_set):
    # ||Psi(0)|| = ||I|| = 1 is not a contraction.
    assert find_T_tilde(double_int_set, [0.0]) is None


def test_find_T_tilde_rejects_out_of_range(double_int_set):
    with pytest.raises(ValueError):
        find_T_tilde(double_int_set, [3.0])


def test_contraction_zero_start(double_int_ctrl):
    report = contraction_check(double_int_ctrl, np.zeros(2), p_max=3)
    assert report.passed
    assert np.all(report.sampled_norms == 0.0)


def test_contraction_double_integrator(double_int_set):
    ctrl = LearnedController(build_basis(double_int_set))
    report = contraction_check(ctrl, np.array([0.5, 0.5]), p_max=5)
    assert report.passed
    ratios = report.sampled_norms[1:, 0] / report.sampled_norms[:-1, 0]
    assert np.all(ratios <= PSI_2_NORM + 1e-3)
    assert report.step_defect < 1e-4


def test_contraction_multi_linear_flow(multi_point_set):
    ctrl = MultiController(multi_point_set)
    z0 = np.array([0.4, 0.3])
    report = contraction_check(ctrl, z0, p_max=4)
    assert report.bound_ok
    # All demos share one linear flow, so z(pT) follows the flow power exactly.
    flow_T = double_int_flow(2.0)
    expected = z0.copy()
    for p in range(1, 5):
        expected = flow_T @ expected
        assert_allclose(report.sampled_norms[p, 0], np.linalg.norm(expected), atol=1e-4)


def test_contraction_rejects_horizon_off_the_grid():
    # T = 1.0005 is not a whole multiple of dt = 1e-3, so z(pT) is no grid
    # sample: no demonstration set holds such a grid, and a basis built on
    # one directly is refused.
    with pytest.raises(ValueError, match="whole multiple"):
        analytic_double_int_set(T=1.0005)
    ctrl = LearnedController(off_grid_basis())
    for p_max in (2, 3):
        with pytest.raises(ValueError, match="whole multiple"):
            contraction_check(ctrl, np.array([0.5, 0.5]), p_max=p_max)


def test_frobenius_bound_dominates(double_int_set):
    basis = build_basis(double_int_set)
    Psi = basis.monodromy()
    bound = np.linalg.norm(basis.Zs[-1], "fro") * np.linalg.norm(np.linalg.inv(basis.Zs[0]), 2)
    assert spectral_norm(Psi) <= bound + 1e-12


def test_certificate_from_controller_and_set_agree(double_int_set):
    ctrl = LearnedController(build_basis(double_int_set))
    c1 = certificate(ctrl)
    c2 = certificate(double_int_set)
    assert c1.margin == c2.margin
