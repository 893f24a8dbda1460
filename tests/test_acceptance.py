"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import json
import time

import numpy as np
import pytest

from oracles import (
    double_int_flow,
    embedding_terms,
    empty_circumsphere_violations,
    charpoly,
    enumerate_triangulations_2d,
    max_interp_error_2d,
    spectral_norm,
)

from demostab.certify import (
    certificate,
    contraction_check,
    find_T_tilde,
    monodromy_from_integral,
)
from demostab.cli import EXIT_OK, main
from demostab.embed import simulate_embedded_closed_loop
from demostab.geometry import delaunay
from demostab.learner import LearnedController, build_basis
from demostab.multi import MultiController
from demostab.sim import time_grid
from demostab.systems import figure_eight, simulate_tracking


def _report(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status}: {detail}")
    assert ok, detail


def test_criterion_01_affine_reconstruction(double_int_set):
    # Simulate dz/dt = Az + Bv with v = V(t) zeta from z(0) = Z(0) zeta for 20
    # random zeta; the solution must stay within 1e-4 of Z(t) zeta, in < 5 s.
    basis = build_basis(double_int_set)
    A, B = double_int_set.A, double_int_set.B
    rng = np.random.default_rng(42)
    zetas = rng.normal(size=(2, 20))
    zetas /= np.maximum(1.0, np.linalg.norm(zetas, axis=0))

    start = time.perf_counter()
    dt = 1e-3
    times = time_grid(0.0, 2.0, dt)
    Z = basis.Zs[0] @ zetas

    states = np.empty((len(times), 2, 20))
    states[0] = Z

    def rhs(tau, Zb):
        return A @ Zb + B @ basis.value_from_zeta(min(tau, 2.0), zetas)

    cur = Z
    for k in range(len(times) - 1):
        h = times[k + 1] - times[k]
        t = times[k]
        k1 = rhs(t, cur)
        k2 = rhs(t + 0.5 * h, cur + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, cur + 0.5 * h * k2)
        k4 = rhs(t + h, cur + h * k3)
        cur = cur + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[k + 1] = cur

    expected = np.einsum("gij,jk->gik", basis.Zs, zetas)
    err = float(np.max(np.linalg.norm(states - expected, axis=1)))
    elapsed = time.perf_counter() - start
    _report(1, err <= 1e-4 and elapsed < 5.0,
            f"affine-combination reconstruction error {err:.2e} (<= 1e-4) in {elapsed:.2f} s (< 5 s)")


def test_criterion_02_monodromy_cross_check(double_int_set, chain2_recorded,
                                            ball_beam_fixture, quad_set):
    fixtures = {
        "double-integrator": double_int_set,
        "chain2-recorded": chain2_recorded,
        "ball-beam-embedded": ball_beam_fixture["set"],
        "flat-quadrotor": quad_set,
    }
    worst = 0.0
    for name, dset in fixtures.items():
        basis = build_basis(dset)
        Psi_d = basis.monodromy()
        Psi_i = monodromy_from_integral(basis, dset.A, dset.B)
        worst = max(worst, float(np.linalg.norm(Psi_d - Psi_i)))
        exact_identity = np.array_equal(basis.monodromy(0.0), np.eye(dset.n))
        exact_identity &= np.array_equal(
            monodromy_from_integral(basis, dset.A, dset.B, 0.0), np.eye(dset.n)
        )
        assert exact_identity, f"Psi(0) != I on {name}"
    _report(2, worst <= 1e-3,
            f"data/integral monodromy agreement {worst:.2e} (<= 1e-3) on "
            f"{len(fixtures)} fixtures; Psi(0) = I exactly")


def test_criterion_03_certificate_oracle(double_int_set):
    basis = build_basis(double_int_set)
    Psi = basis.monodromy()
    oracle = double_int_flow(2.0)
    norm = float(np.linalg.norm(Psi, 2))
    ok = abs(norm - 0.5732) <= 1e-3
    ok &= np.allclose(Psi, oracle, atol=1e-10)
    ok &= abs(norm - spectral_norm(oracle)) <= 1e-9
    T_tilde = find_T_tilde(double_int_set, [0.5, 1.0, 2.0])
    ok &= T_tilde == 0.5
    _report(3, ok, f"||Psi(2)|| = {norm:.4f} (0.5732 +- 1e-3); T-tilde grid search -> {T_tilde}")


def test_criterion_04_contraction(double_int_set, multi_point_set):
    rng = np.random.default_rng(7)
    worst_ratio = 0.0
    for dset, make in ((double_int_set, lambda d: LearnedController(build_basis(d))),
                       (multi_point_set, MultiController)):
        ctrl = make(dset)
        cert = certificate(ctrl)
        assert cert.verdict
        points = dset.z0_points()
        weights = rng.dirichlet(np.ones(dset.M), size=20)
        Z0 = (weights @ points).T  # 20 states in conv Z(0)
        report = contraction_check(ctrl, Z0, p_max=10)
        assert report.bound_ok, "sampled norms exceeded the geometric bound"
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(report.bounds > 0, report.sampled_norms / report.bounds, 0.0)
        worst_ratio = max(worst_ratio, float(np.nanmax(ratios)))
    _report(4, worst_ratio <= 1.0,
            f"||z(pT)|| <= ||Psi||^p ||z0|| (1+1e-3) for p <= 10 on 2x20 random starts "
            f"(worst bound usage {worst_ratio:.3f})")


def test_criterion_05_delaunay_correctness():
    rng = np.random.default_rng(123)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 4))
        M = int(rng.integers(n + 2, 11))
        pts = rng.uniform(-1.0, 1.0, size=(M, n))
        tri = delaunay(pts)
        assert empty_circumsphere_violations(pts, [s.vertex_indices for s in tri.simplices]) == 0
        checked += 1
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.9, 0.9]])
    tri = delaunay(square)
    diagonal_ok = {s.vertex_indices for s in tri.simplices} == {(0, 1, 3), (0, 2, 3)}
    _report(5, checked == 100 and diagonal_ok,
            f"empty circumspheres on {checked} random sets (M <= 10, n <= 3); "
            f"square fixture selects diagonal (0,0)-(0.9,0.9)")


def test_criterion_06_delaunay_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    point_sets = [
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.9, 0.9]]),
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),  # cocircular
        np.array([[0.0, 0.0], [1.0, 0.0], [0.1, 0.9], [1.1, 1.0], [0.55, 0.4]]),
    ]
    for _ in range(3):
        M = int(rng.integers(5, 7))
        point_sets.append(rng.uniform(0.0, 1.0, size=(M, 2)))

    psi = lambda x: float(x[0] ** 2 + x[1] ** 2)
    n_sets = 0
    for pts in point_sets:
        values = np.array([psi(p) for p in pts])
        tilings = enumerate_triangulations_2d(pts)
        assert tilings, "enumeration found no tiling"
        lo = pts.min() - 0.05
        hi = pts.max() + 0.05
        gx, gy = np.meshgrid(np.linspace(lo, hi, 40), np.linspace(lo, hi, 40))
        grid_pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        errors = [max_interp_error_2d(pts, values, t, psi, grid_pts) for t in tilings]
        dt_tri = [s.vertex_indices for s in delaunay(pts).simplices]
        dt_err = max_interp_error_2d(pts, values, dt_tri, psi, grid_pts)
        assert dt_err <= min(errors) + 1e-9, \
            f"Delaunay error {dt_err} above best {min(errors)} on\n{pts}"
        n_sets += 1
    elapsed = time.perf_counter() - start
    _report(6, elapsed < 60.0,
            f"Delaunay minimizes the max |x|^2 interpolation error over all "
            f"triangulations of {n_sets} planar sets (<= 6 points) in {elapsed:.1f} s (< 60 s)")


def test_criterion_07_multi_equivalence(double_int_set):
    single = LearnedController(build_basis(double_int_set))
    multi = MultiController(double_int_set)
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        t = float(rng.uniform(0.0, 8.0))
        z = rng.normal(size=2) * rng.uniform(0.1, 3.0)
        worst = max(worst, abs(multi(t, z) - single(t, z)))
    _report(7, worst <= 1e-12,
            f"multi pipeline equals single pipeline within {worst:.2e} "
            f"(<= 1e-12) on 1000 random (t, z)")


def test_criterion_08_embedding_roundtrip(ball_beam_fixture):
    cfg = ball_beam_fixture["cfg"]
    # Chain-dynamics defect of the transformed demonstrations, O(dt^2).
    worst_defect = 0.0
    eset, xi, raw = ball_beam_fixture["set"], ball_beam_fixture["xi"], ball_beam_fixture["raw"]
    for i in range(eset.M):
        z, v = eset.z[:, :, i], eset.v[:, 0, i]
        scale = max(1.0, np.abs(z).max(), np.abs(v).max())
        dz = (z[2:] - z[:-2]) / (2.0 * eset.dt)
        defect = max(
            float(np.max(np.abs(dz[:, :3] - z[1:-1, 1:]))),
            float(np.max(np.abs(dz[:, 3] - v[1:-1]))),
        )
        worst_defect = max(worst_defect, defect / scale)
    chain_ok = worst_defect <= 5e-4  # dt = 1e-3: comfortably O(dt^2)

    # Input recovery through the dynamic feedback u = (s + v) / r, with r and
    # s formed term by term.
    worst_u = 0.0
    for i in range(eset.M):
        for k in range(0, len(raw.times), 100):
            _, r, s = embedding_terms(cfg.plant, cfg.w, raw.states[k, :, i], xi[k, :, i])
            u_rec = (s + eset.v[k, 0, i]) / r
            worst_u = max(worst_u, abs(u_rec - raw.inputs[k, i]))
    u_ok = worst_u <= 1e-6

    # A_xi eigenvalues are -1 (triple): the characteristic polynomial is
    # exactly (s + 1)^3.
    coeffs = charpoly(cfg.A_xi)
    eig_ok = np.max(np.abs(coeffs - np.array([1.0, 3.0, 3.0, 1.0]))) <= 1e-9
    _report(8, chain_ok and u_ok and eig_ok,
            f"chain defect {worst_defect:.2e} (O(dt^2)); u recovery {worst_u:.2e} "
            f"(<= 1e-6); A_xi char poly = (s+1)^3 within 1e-9")


def test_criterion_09_benchmark_parameter_pipelines(ball_beam_fixture, quad_set):
    # Ball and beam: certificate at T = 8 s and stabilization from the
    # benchmark start within 40 s.
    eset = ball_beam_fixture["set"]
    cert = certificate(build_basis(eset))
    bb_cert_ok = cert.verdict
    ctrl = LearnedController(build_basis(eset))
    traj = simulate_embedded_closed_loop(
        ball_beam_fixture["cfg"], ctrl, np.array([6.0, 0.0, 0.345, 0.0]),
        duration=40.0,
    )
    norms = np.linalg.norm(traj.x, axis=1)
    reached = np.flatnonzero(norms < 1e-2)
    bb_decay_ok = len(reached) > 0 and bool(np.all(norms[reached[0]:] < 1e-2))
    t_reach = float(traj.times[reached[0]]) if len(reached) else float("inf")

    # Quadrotor: 10 demonstrations, T = 2 s certificate, figure-eight tracking
    # with bounded decaying error after the first period.
    quad_cert = certificate(build_basis(quad_set))
    quad_ok = quad_set.M == 10 and quad_cert.verdict
    qctrl = LearnedController(build_basis(quad_set), A=quad_set.A, B=quad_set.B)
    res = simulate_tracking(qctrl, figure_eight(0.1), np.zeros(9), duration=20.0)
    first = res.error_norm[res.times <= 10.0]
    second = res.error_norm[res.times > 10.0]
    track_ok = second.max() < 0.05 and second.max() < first.max()
    _report(
        9,
        bb_cert_ok and bb_decay_ok and quad_ok and track_ok,
        f"ball-beam ||Z(8)Z(0)^-1|| = {1 - cert.margin:.3e} < 1, ||x|| < 1e-2 from "
        f"t = {t_reach:.1f} s (< 40 s); quadrotor ||Psi(2)|| = {1 - quad_cert.margin:.3f} < 1, "
        f"figure-eight error {second.max():.2e} after first period (decaying)",
    )


def test_criterion_10_determinism(tmp_path):
    config = {
        "preset": "chain2",
        "expert": {"Q": [1.0, 2.0], "R": 1.0},
        "initial_conditions": "default",
        "T": 1.0,
        "dt": 0.01,
        "simulate": {"x0": [0.5, 0.5], "duration": 4.0},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outs = (tmp_path / "run_a", tmp_path / "run_b")
    for out in outs:
        assert main(["all", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    names = sorted(p.name for p in outs[0].iterdir())
    identical = bool(names) and all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes() for name in names
    )
    _report(10, identical,
            f"two pipeline runs produced byte-identical outputs ({len(names)} files)")
