"""Plant models, stacked-term evaluators, linearizing feedback and LQR experts."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from oracles import ball_beam_lie, chain_lie, directional_derivative, lqr_gain_scipy

from demostab.errors import DomainError, RiccatiError, SingularDecouplingError
from demostab.plant import (
    RICCATI_TOL,
    PlantModel,
    brunovsky_pair,
    chain_preset,
    expert_lqr,
    lqr_gain,
)
from demostab.sim import simulate_closed_loop
from demostab.systems import BALL_BEAM_B, BALL_BEAM_G, ball_beam_plant, flat_quad_pair


def test_brunovsky_pair_n2():
    pair = brunovsky_pair(2)
    assert_allclose(pair.A, [[0.0, 1.0], [0.0, 0.0]])
    assert_allclose(pair.B, [[0.0], [1.0]])


def test_brunovsky_pair_n1():
    pair = brunovsky_pair(1)
    assert_allclose(pair.A, [[0.0]])
    assert_allclose(pair.B, [[1.0]])


def test_brunovsky_pair_n3_structure():
    A = brunovsky_pair(3).A
    expected = np.zeros((3, 3))
    expected[0, 1] = expected[1, 2] = 1.0
    assert_allclose(A, expected)


def test_brunovsky_pair_rejects_zero():
    with pytest.raises(ValueError):
        brunovsky_pair(0)


# The linearizing coordinates z_k = L_f^{k-1} h are rows 2n:3n of terms, and
# the linearizing input u = (v - L_f^n h) / L_g L_f^{n-1} h reads rows 3n and 4n.


def test_chain_feedback_linearize_is_identity():
    plant = chain_preset(4)
    x = np.array([0.3, -1.2, 0.7, 2.0])
    assert_allclose(plant.terms(x)[8:12], x)


def test_feedback_linearize_at_origin_vanishes():
    for plant in (chain_preset(2), chain_preset(3)):
        assert_allclose(plant.terms(np.zeros(plant.n))[2 * plant.n:3 * plant.n], 0.0)


def test_linearizing_input_chain_is_passthrough():
    terms = chain_preset(3).terms(np.array([0.5, 0.1, -0.2]))
    assert (1.7 - terms[9]) / terms[12] == 1.7


def test_linearizing_input_origin_zero():
    for plant in (chain_preset(2), ball_beam_plant()):
        terms = plant.terms(np.zeros(plant.n))
        assert (0.0 - terms[3 * plant.n]) / terms[4 * plant.n] == 0.0


def scaled_double_integrator() -> PlantModel:
    """dx = (x2, 2u): input field g = (0, 2), so b(z) = 2 everywhere."""
    return PlantModel(
        n=2,
        f=lambda x: np.array([x[1], 0.0]),
        g=lambda x: np.array([0.0, 2.0]),
        # f; g; L_f^k h; L_g L_f^k h
        terms=lambda x: np.array([x[1], 0.0, 0.0, 2.0, x[0], x[1], 0.0, 0.0, 2.0]),
        relative_degree=2,
        name="scaled_double_integrator",
    )


def test_linearizing_input_scaled_field():
    terms = scaled_double_integrator().terms(np.array([0.2, 0.4]))
    assert (4.0 - terms[6]) / terms[8] == 2.0


def test_linearizing_input_singular_decoupling():
    plant = PlantModel(
        n=1,
        f=lambda x: np.zeros(1),
        g=lambda x: np.array([float(x[0])]),  # vanishes at the origin
        terms=lambda x: np.array([0.0, x[0], x[0], 0.0, x[0]]),  # f; g; h, L_f h; L_g h
        name="degenerate",
    )
    with pytest.raises(SingularDecouplingError):
        expert_lqr(plant, np.eye(1), 1.0)(np.zeros(1))


def test_domain_error():
    plant = ball_beam_plant()
    with pytest.raises(DomainError):
        plant.require_in_domain(np.array([0.0, 0.0, 2.0, 0.0]))


def test_expert_lqr_known_gain_n2():
    # For Q = I, R = 1 the Riccati equation solves by hand to K = [1, sqrt(3)].
    plant = chain_preset(2)
    expert = expert_lqr(plant, np.eye(2), 1.0)
    assert_allclose(-expert(np.array([1.0, 0.0])), 1.0, atol=1e-9)
    assert_allclose(-expert(np.array([0.0, 1.0])), math.sqrt(3.0), atol=1e-9)


def test_expert_lqr_known_gain_n1():
    plant = chain_preset(1)
    expert = expert_lqr(plant, np.eye(1), 1.0)
    assert_allclose(-expert(np.array([1.0])), 1.0, atol=1e-10)


def test_expert_lqr_closed_loop_eigenvalues_stable():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        pair = brunovsky_pair(n)
        d = rng.uniform(0.5, 3.0, size=n)
        K = lqr_gain(pair.A, pair.B, np.diag(d), np.array([[rng.uniform(0.2, 2.0)]]))
        eigs = np.linalg.eigvals(pair.A - pair.B @ K)
        assert np.all(eigs.real < 0)


def test_lqr_rejects_bad_weights():
    pair = brunovsky_pair(2)
    with pytest.raises(ValueError):
        lqr_gain(pair.A, pair.B, -np.eye(2), np.eye(1))


def _preset_lqr_problem(name):
    """(A, B, Q, R) of a preset's expert with its default weights."""
    if name == "ball_beam":
        bg = BALL_BEAM_B * BALL_BEAM_G
        A = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, -bg, 0.0],
                      [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
        return A, np.eye(4)[:, 3:], np.diag([0.2, 0.5, 1.0, 2.0]), np.array([[0.1]])
    if name == "flat_quad_3d":
        return (*flat_quad_pair(), 40.0 * np.eye(9), np.eye(3))
    n = int(name[len("chain"):])
    pair = brunovsky_pair(n)
    return pair.A, pair.B, np.eye(n), np.eye(1)


# Largest change of the gain relative to its largest entry, against scipy's
# Schur solver.  Measured: at most 9e-15 up to chain4 and on the two
# presets, 2.6e-14 on chain5-6, 3.4e-13 on chain7-10, 3.1e-11 on chain11-12.
LQR_SCIPY_RTOL = {**{f"chain{n}": 1e-13 for n in range(1, 7)},
                  **{f"chain{n}": 1e-11 for n in range(7, 11)},
                  "chain11": 1e-10, "chain12": 1e-10, "ball_beam": 1e-13, "flat_quad_3d": 1e-13}


@pytest.mark.parametrize("name", LQR_SCIPY_RTOL)
def test_lqr_gain_matches_the_scipy_riccati_solver(name):
    A, B, Q, R = _preset_lqr_problem(name)
    K, want = lqr_gain(A, B, Q, R), lqr_gain_scipy(A, B, Q, R)
    assert K.shape == want.shape
    assert np.abs(K - want).max() <= LQR_SCIPY_RTOL[name] * np.abs(want).max()


@pytest.mark.parametrize("q1, q2", [(1.0, 1.0), (1e-8, 1e8), (1e8, 1e-8), (1e100, 1e-100),
                                    (1e200, 1e-200)])
def test_lqr_gain_of_the_double_integrator_in_closed_form(q1, q2):
    # Q = diag(q1, q2), R = 1: P = [[sqrt(q1) c, sqrt(q1)], [sqrt(q1), c]] with
    # c = sqrt(q2 + 2 sqrt(q1)), so K = (sqrt(q1), c), at any scale of the weights.
    pair = brunovsky_pair(2)
    K = lqr_gain(pair.A, pair.B, np.diag([q1, q2]), np.eye(1))[0]
    assert_allclose(K, [math.sqrt(q1), math.sqrt(q2 + 2.0 * math.sqrt(q1))], rtol=1e-14)


def test_lqr_gain_residual_bound_accepts_chains_up_to_16():
    # The default weights of every chain preset up to 16 integrators pass the
    # residual check; from 17 on the residual is above RICCATI_TOL.
    for n in range(1, 17):
        A, B, Q, R = _preset_lqr_problem(f"chain{n}")
        assert np.all(np.isfinite(lqr_gain(A, B, Q, R)))
    A, B, Q, R = _preset_lqr_problem("chain17")
    with pytest.raises(RiccatiError, match=f"above {RICCATI_TOL:g}"):
        lqr_gain(A, B, Q, R)


@pytest.mark.parametrize("q", [[1e308, 1e308], [1e-300, 1.0], [1e-160, 1e-160]])
def test_lqr_gain_refuses_weights_without_an_accurate_solution(q):
    pair = brunovsky_pair(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RiccatiError, match="Riccati"):
            lqr_gain(pair.A, pair.B, np.diag(q), np.eye(1))


@pytest.mark.parametrize("make_plant", [lambda: chain_preset(3), ball_beam_plant])
def test_lie_derivatives_match_finite_differences(make_plant):
    plant = make_plant()
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.uniform(-0.8, 0.8, size=plant.n)
        if not plant.domain_check(x):
            continue
        n = plant.n
        terms = plant.terms(x)
        assert terms.shape == (4 * n + 1,)
        lie = terms[2 * n:]
        # L_f^{k+1} h is the derivative of L_f^k h along f.
        for k in range(n):
            fd = directional_derivative(lambda y, k=k: plant.terms(y)[2 * n + k], plant.f, x)
            assert_allclose(fd, lie[k + 1], rtol=1e-6, atol=1e-6)
        # L_g L_f^k h (row n+1+k of the Lie rows) is the derivative of L_f^k h along g.
        for k in range(n):
            fd = directional_derivative(lambda y, k=k: plant.terms(y)[2 * n + k], plant.g, x)
            assert_allclose(fd, lie[n + 1 + k], rtol=1e-6, atol=1e-6)


def test_preset_outputs_vanish_at_origin():
    for plant in (chain_preset(2), chain_preset(3), ball_beam_plant()):
        assert plant.terms(np.zeros(plant.n))[2 * plant.n] == 0.0


def test_chain_inverse_phi_roundtrip():
    # A chain is already in normal form: the linearizing coordinates are x.
    plant = chain_preset(5)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.normal(size=5)
        z = plant.terms(x)[10:15]
        assert_allclose(z, x, atol=1e-9)


def test_chain_relative_degree_flags():
    assert chain_preset(4).relative_degree == 4
    assert ball_beam_plant().relative_degree is None


@pytest.mark.parametrize("n", [2, 3])
def test_expert_lqr_closed_loop_settles(n):
    plant = chain_preset(n)
    expert = expert_lqr(plant, np.eye(n), 1.0)
    rng = np.random.default_rng(n)
    x0 = rng.normal(size=n)
    x0 /= max(1.0, np.linalg.norm(x0))
    traj = simulate_closed_loop(plant, lambda t, x: expert(x), x0, 15.0, 1e-2)
    norms = np.linalg.norm(traj.states, axis=1)
    assert norms[-1] < 1e-3
    # Decreasing envelope: sampled norms shrink across quarters of the run.
    quarter = len(norms) // 4
    assert norms[quarter] < norms[0] and norms[2 * quarter] < norms[quarter]


# Each preset's terms against plant.f, plant.g and the Lie stack it wrote
# before f and g joined it, bit for bit, on one state or a batch (n, k).
TERMS_PRESETS = {
    "ball_beam": (ball_beam_plant(), lambda x: ball_beam_lie(x, BALL_BEAM_B, BALL_BEAM_G)),
    "ball_beam_b2_g3": (ball_beam_plant(2.0, 3.0), lambda x: ball_beam_lie(x, 2.0, 3.0)),
    **{f"chain{n}": (chain_preset(n), chain_lie) for n in (1, 2, 3, 4, 6)},
}


@pytest.mark.parametrize("name", sorted(TERMS_PRESETS))
@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([None, 1, 5]))
def test_terms_stack_f_g_and_the_lie_rows(name, seed, k):
    plant, lie = TERMS_PRESETS[name]
    n = plant.n
    shape = (n,) if k is None else (n, k)
    x = np.random.default_rng(seed).uniform(-3.0, 3.0, shape)
    terms = plant.terms(x)
    assert terms.shape == (4 * n + 1,) + shape[1:]
    for rows, want in ((terms[:n], plant.f(x)), (terms[n:2 * n], plant.g(x)),
                       (terms[2 * n:], lie(x))):
        assert rows.shape == want.shape
        assert rows.tobytes() == np.ascontiguousarray(want).tobytes()


# Entries a state may hold: beyond the float range of om ** 2, non-finite,
# and beam angles one ulp either side of the domain's edge at +-pi/2.
EDGE_ENTRIES = st.one_of(
    st.floats(-1e300, 1e300),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1.3e154, -1e200]),
    st.sampled_from([s * np.nextafter(math.pi / 2, e) for s in (1.0, -1.0)
                     for e in (0.0, math.pi / 2, 4.0)]),
)


@pytest.mark.parametrize("name", sorted(TERMS_PRESETS))
@settings(max_examples=60)
@given(columns=st.lists(st.lists(EDGE_ENTRIES, min_size=6, max_size=6), min_size=1, max_size=4))
# omega = 2.759: pow(2.759, 2) rounds one ulp below 2.759 * 2.759.
@example(columns=[[6.0, 0.0, 0.345, 2.759, -4.536, 0.0], [-1.0, 2.0, -0.3, -2.759, 0.5, 1.0]])
@example(columns=[[6.0, 0.0, 0.345, 1e200, 0.0, 0.0]])
def test_a_state_is_its_column_of_a_batch(name, columns):
    # terms, f and domain_check of one state give the bytes of that state
    # taken as a column of a batch, and raise nothing the batch does not.
    plant = TERMS_PRESETS[name][0]
    X = np.array(columns)[:, :plant.n].T
    with np.errstate(all="ignore"):
        batch = [plant.terms(X), plant.f(X), plant.domain_check(X)]
        for j in range(X.shape[1]):
            x = X[:, j].copy()
            for evaluator, batched in zip((plant.terms, plant.f, plant.domain_check), batch):
                single = np.asarray(evaluator(x))
                assert single.shape == batched.shape[:-1]
                assert single.tobytes() == batched[..., j].tobytes()


@pytest.mark.parametrize("name", sorted(TERMS_PRESETS))
@settings(max_examples=60)
@given(column=st.lists(EDGE_ENTRIES, min_size=6, max_size=6))
@example(column=[6.0, 0.0, 0.345, 2.759, -4.536, 0.0])
@example(column=[6.0, 0.0, math.inf, 1.0, 0.0, 0.0])
def test_term_list_is_terms_as_floats(name, column):
    # terms of one state given as a list of floats is a list of floats with
    # the bytes of that state's column of a batch, a non-finite angle included.
    plant = TERMS_PRESETS[name][0]
    x = np.array(column[:plant.n])
    with np.errstate(all="ignore"):
        got, want = plant.terms(x.tolist()), plant.terms(x[:, None])[:, 0]
    assert type(got) is list and all(type(v) is float for v in got)
    assert np.array(got).tobytes() == want.tobytes()


def test_a_source_plant_holds_only_its_generated_evaluators():
    # The ball-beam terms and domain_check are generated from the plant's
    # source.  Callables of another origin next to that source are refused;
    # a copy that changes another field keeps the source, and source=None
    # keeps the evaluators as plain callables.
    plant = ball_beam_plant()
    assert plant.terms.source is plant.source is plant.domain_check.source
    with pytest.raises(ValueError, match="generated from its source"):
        dataclasses.replace(plant, terms=chain_preset(4).terms)
    assert dataclasses.replace(plant, name="beam").source is plant.source
    called = dataclasses.replace(plant, source=None)
    assert (called.terms, called.domain_check) == (plant.terms, plant.domain_check)
    with pytest.raises(ValueError, match=r"4n \+ 1 = 17 term rows, got 16"):
        dataclasses.replace(plant.source, terms=plant.source.terms[:-1])
    with pytest.raises(ValueError, match="names 4 state entries, not n = 3"):
        dataclasses.replace(plant, n=3)


@pytest.mark.parametrize("k", [None, 16])
def test_expert_lqr_is_one_domain_test_and_one_terms_call(k):
    # The expert equals (-K z - L_f^n h) / L_g L_f^{n-1} h, formed from the
    # rows of one terms call, bit for bit.
    calls = {"domain": 0, "terms": 0}
    base = chain_preset(4)

    def counted(key, fn):
        def wrapper(x):
            calls[key] += 1
            return fn(x)
        return wrapper

    plant = dataclasses.replace(base, domain_check=counted("domain", base.domain_check),
                                terms=counted("terms", base.terms))
    Q, R = np.diag([1.0, 2.0, 3.0, 4.0]), 0.5
    expert = expert_lqr(plant, Q, R)
    pair = brunovsky_pair(4)
    K = lqr_gain(pair.A, pair.B, Q, np.array([[R]]))[0]
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4,) if k is None else (4, k))
    u = expert(x)
    assert calls == {"domain": 1, "terms": 1}
    terms = base.terms(x)
    want = (-K @ terms[8:12] - terms[12]) / terms[16]
    assert np.shape(u) == np.shape(want)
    assert np.asarray(u).tobytes() == np.asarray(want).tobytes()
