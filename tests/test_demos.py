"""Recording, transforming and validating demonstration sets."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import analytic_double_int_set
from oracles import load_demo_csv, record_one

from demostab.cli import PRESETS
from demostab.demos import (
    DemonstrationSet,
    demo_set_from_dict,
    demo_set_to_dict,
    load_demo_set,
    record_expert,
    save_demo_csv,
    save_demo_set,
    to_zv,
    validate_affine_independence,
)
from demostab.errors import DivergenceError, DomainError, NotFeedbackLinearizableError
from demostab.plant import brunovsky_pair, chain_preset, expert_lqr
from demostab.sim import Trajectory, time_grid
from demostab.systems import ball_beam_expert, ball_beam_plant

BALL_BEAM = PRESETS["ball_beam"]


def ball_beam_default_expert(plant):
    return ball_beam_expert(plant, np.diag(BALL_BEAM.Q), BALL_BEAM.R)


def test_record_count_and_trivial_first():
    plant = chain_preset(2)
    expert = expert_lqr(plant, np.eye(2), 1.0)
    raw = record_expert(plant, expert, [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
                        T=2.0, dt=1e-2)
    assert raw.states.shape == (len(raw.times), 2, 3) and raw.inputs.shape == (len(raw.times), 3)
    assert np.all(raw.states[:, :, 0] == 0.0) and np.all(raw.inputs[:, 0] == 0.0)


def test_record_from_origin_equals_trivial():
    plant = chain_preset(2)
    expert = expert_lqr(plant, np.eye(2), 1.0)
    raw = record_expert(plant, expert, [np.zeros(2)], T=1.0, dt=1e-2)
    assert np.array_equal(raw.states[:, :, 0], raw.states[:, :, 1])
    assert np.array_equal(raw.inputs[:, 0], raw.inputs[:, 1])


def test_recording_divergence_keeps_time():
    # A fast-spinning start tips the beam past pi/2 within a few steps; the
    # error keeps its time and gains a note naming the start.
    plant = ball_beam_plant()
    with pytest.raises(DivergenceError) as err:
        record_expert(plant, ball_beam_default_expert(plant),
                      [np.array([0.0, 0.0, 0.0, 200.0])], T=8.0, dt=1e-3)
    assert err.value.time == pytest.approx(0.009)
    assert any("x0=" in note for note in err.value.__notes__)


@pytest.mark.parametrize("case", ["chain2", "chain3_k_equals_n", "ball_beam"])
def test_batched_recording_matches_single_start_runs(case):
    T, dt = 2.0, 1e-2
    if case == "chain2":
        plant = chain_preset(2)
        expert = expert_lqr(plant, np.diag([1.0, 2.0]), 1.0)
        starts = list(np.eye(2))
    elif case == "chain3_k_equals_n":
        # Two starts and the trivial run make a batch of k = n = 3 columns,
        # where an input field that returned one (n,) vector for the whole
        # batch would broadcast g(x) * u into a wrong result without an error.
        plant = chain_preset(3)
        expert = expert_lqr(plant, np.eye(3), 1.0)
        starts = [np.array([1.0, -0.5, 0.2]), np.array([0.0, 1.0, 0.0])]
    else:
        plant = ball_beam_plant()
        expert = ball_beam_default_expert(plant)
        starts = [np.asarray(ic) for ic in BALL_BEAM.starts]
        dt = 1e-3
    batch = record_expert(plant, expert, starts, T, dt)
    assert batch.states.shape[2] == len(starts) + 1
    for i, x0 in enumerate([np.zeros(plant.n), *starts]):
        want = record_one(plant, expert, x0, T, dt)
        assert np.array_equal(batch.times, want.times)
        for a, b in ((batch.states[:, :, i], want.states), (batch.inputs[:, i], want.inputs)):
            assert a.shape == b.shape
            assert_allclose(a, b, rtol=0, atol=1e-12 * max(1.0, np.abs(b).max()))


@pytest.mark.parametrize("bad, time", [((0.0, 0.0, 1.6, 0.0), 0.0),
                                       ((0.0, 0.0, 0.0, 200.0), 0.009)],
                         ids=["outside_at_t0", "leaves_later"])
def test_failing_start_in_a_batch_is_named(bad, time):
    # The third of five starts fails; it is column 3 of the batch, after the
    # trivial run, and the error keeps the time at which it failed.
    plant = ball_beam_plant()
    starts = [np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0]), np.array(bad),
              np.array([0.0, 0.0, 0.1, 0.0]), np.array([0.0, 0.0, 0.0, 1.0])]
    with pytest.raises(DivergenceError) as err:
        record_expert(plant, ball_beam_default_expert(plant), starts, T=8.0, dt=1e-3)
    assert err.value.column == 3
    assert err.value.time == pytest.approx(time, abs=1e-12)
    assert f"recording from x0={starts[2]} failed" in err.value.__notes__


def test_to_zv_note_names_the_demonstration_and_sample():
    plant = chain_preset(2)
    grid = time_grid(0.0, 1.0, 0.1)
    states = np.zeros((len(grid), 2, 2))
    states[4, 1, 1] = np.nan
    batch = Trajectory(times=grid, states=states, inputs=np.zeros((len(grid), 2)))
    with pytest.raises(DomainError) as err:
        to_zv(plant, batch)
    assert err.value.__notes__ == ["demonstration 1, sample 4"]


def test_to_zv_chain_is_identity_on_samples(chain2_recorded):
    plant = chain_preset(2)
    expert = expert_lqr(plant, np.diag([1.0, 2.0]), 1.0)
    raw = record_expert(plant, expert, [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
                        T=2.0, dt=1e-3)
    assert np.array_equal(chain2_recorded.grid, raw.times)
    assert np.array_equal(chain2_recorded.z, raw.states)
    assert np.array_equal(chain2_recorded.v[:, 0], raw.inputs)


def test_to_zv_rejects_ball_beam():
    plant = ball_beam_plant()
    grid = time_grid(0.0, 1.0, 1e-2)
    from demostab.sim import Trajectory

    batch = Trajectory(times=grid, states=np.zeros((len(grid), 4, 1)),
                       inputs=np.zeros((len(grid), 1)))
    with pytest.raises(NotFeedbackLinearizableError):
        to_zv(plant, batch)


def test_demo_set_requires_trivial_and_count():
    grid = time_grid(0.0, 1.0, 0.1)
    pair = brunovsky_pair(2)
    G = len(grid)
    z, v = np.ones((G, 2, 3)), np.ones((G, 3))
    with pytest.raises(ValueError, match="trivial"):
        DemonstrationSet(grid=grid, z=z, v=v, A=pair.A, B=pair.B)
    z[:, :, 0], v[:, 0] = 0.0, 0.0
    z[3, 1, 0] = -0.0  # a negative zero is still zero
    DemonstrationSet(grid=grid, z=z, v=v, A=pair.A, B=pair.B)
    v[5, 0] = 1e-300  # so is no input but zero
    with pytest.raises(ValueError, match="trivial"):
        DemonstrationSet(grid=grid, z=z, v=v, A=pair.A, B=pair.B)
    with pytest.raises(ValueError, match="n\\+1"):
        DemonstrationSet(grid=grid, z=z[:, :, :2], v=v[:, :2], A=pair.A, B=pair.B)


@pytest.mark.parametrize("case", ["grid_length", "one_sample", "non_finite", "A_shape",
                                  "B_shape", "z_not_a_block", "columns_differ"])
def test_demo_set_checks_the_block(case):
    # The invariants hold over the whole block, checked once at construction.
    pair = brunovsky_pair(2)
    block = {"grid": time_grid(0.0, 1.0, 0.1), "z": np.zeros((11, 2, 3)),
             "v": np.zeros((11, 1, 3)), "A": pair.A, "B": pair.B}
    block["z"][:, 0, 1], block["z"][:, 1, 2] = 1.0, 1.0
    assert DemonstrationSet(**block).M == 3
    if case == "grid_length":
        block["grid"] = block["grid"][:-1]
    elif case == "one_sample":
        block.update(grid=block["grid"][:1], z=block["z"][:1], v=block["v"][:1])
    elif case == "non_finite":
        block["v"][7, 0, 2] = np.inf
    elif case == "A_shape":
        block["A"] = np.eye(3)
    elif case == "B_shape":
        block["B"] = np.ones((2, 2))
    elif case == "z_not_a_block":
        block["z"] = block["z"][:, :, 0]
    else:
        block["v"] = block["v"][:, :, :2]
    with pytest.raises(ValueError):
        DemonstrationSet(**block)


@pytest.mark.parametrize("grid, message", [
    ([0.0, 0.1, 0.3, 0.4], r"step 1 from t=0\.1 to t=0\.3 is 0\.19999999999999998, not dt=0\.1"),
    ([0.0, 0.1, 0.2 + 2e-10, 0.3], r"step 1 from t=0\.1 to t=0\.2000000002 "),
    ([0.0, 0.0, 0.1, 0.2], r"step 0 from t=0\.0 to t=0\.0 is 0\.0"),
    ([0.3, 0.2, 0.1, 0.0], r"step 0 from t=0\.3 to t=0\.2 "),
], ids=["skipped_sample", "just_off", "repeated_time", "decreasing"])
def test_demo_set_refuses_an_uneven_grid(grid, message):
    # The grid is uniform to 1e-9 dt, as the slot tables and the interval
    # loops read it; the first uneven step is named.
    pair = brunovsky_pair(2)
    z = np.zeros((4, 2, 3))
    z[:, 0, 1], z[:, 1, 2] = 1.0, 1.0
    with pytest.raises(ValueError, match="the grid must be uniform and increasing: " + message):
        DemonstrationSet(grid=np.array(grid), z=z, v=np.zeros((4, 3)), A=pair.A, B=pair.B)
    # A step within 1e-9 dt of the first is uniform.
    even = DemonstrationSet(grid=np.array([0.0, 0.1, 0.2 + 5e-11, 0.3]), z=z,
                            v=np.zeros((4, 3)), A=pair.A, B=pair.B)
    assert even.dt == 0.1


def test_validation_identity_starts(double_int_set):
    report = validate_affine_independence(double_int_set)
    assert report.passed
    # Z(0) = I, and the closed-loop flow keeps Z(t) nonsingular.
    assert report.min_sigma > 0.0
    assert report.max_sigma >= 1.0


def test_validation_duplicate_demos_fail():
    dup = analytic_double_int_set(
        starts=[np.zeros(2), np.array([1.0, 0.0]), np.array([1.0, 0.0])]
    )
    report = validate_affine_independence(dup)
    assert not report.passed
    assert report.min_sigma == 0.0


@pytest.mark.parametrize("index_set, message", [([0, 1], r"at least n\+1"),
                                                ([0, 1, 2, 1], "repeated entries")],
                         ids=["too_few", "repeated"])
def test_validation_refuses_a_bad_index_set(double_int_set, index_set, message):
    # A set of more than n+1 entries is allowed (a multi set is validated
    # over all its demonstrations), but never one with a repeated entry.
    with pytest.raises(ValueError, match=message):
        validate_affine_independence(double_int_set, index_set)


def test_validation_min_sigma_matches_flow_oracle(double_int_set):
    from oracles import double_int_flow

    # Z(t) = flow(t) for unit starts, so sigma_min(Z(t)) is the flow's.
    sig = min(np.linalg.svd(double_int_flow(t), compute_uv=False)[-1]
              for t in double_int_set.grid[::100])
    report = validate_affine_independence(double_int_set)
    assert report.min_sigma <= sig + 1e-12


def test_inputs_match_expert_along_demos(chain2_recorded):
    # v^i(t) = kappa(z^i(t)) at grid points: recompute the LQR law.
    expected = -np.einsum("j,gjk->gk", np.array([1.0, 2.0]), chain2_recorded.z)
    assert_allclose(chain2_recorded.v[:, 0], expected, atol=1e-6)


def test_demos_satisfy_chain_dynamics(chain2_recorded):
    # Central differences: dz_k/dt = z_{k+1} and dz_n/dt = v, O(dt^2).
    z, v = chain2_recorded.z, chain2_recorded.v
    dz = (z[2:] - z[:-2]) / (2.0 * chain2_recorded.dt)
    assert np.max(np.abs(dz[:, 0] - z[1:-1, 1])) < 1e-4
    assert np.max(np.abs(dz[:, 1] - v[1:-1, 0])) < 1e-4


def test_json_roundtrip_lossless(tmp_path, double_int_set):
    path = tmp_path / "set.json"
    save_demo_set(double_int_set, path)
    loaded = load_demo_set(path)
    assert np.array_equal(double_int_set.z, loaded.z)
    assert np.array_equal(double_int_set.v, loaded.v)
    assert np.array_equal(double_int_set.grid, loaded.grid)


def test_json_roundtrip_vector_inputs(tmp_path, quad_set):
    path = tmp_path / "quad.json"
    save_demo_set(quad_set, path)
    loaded = load_demo_set(path)
    assert loaded.m == 3
    assert np.array_equal(loaded.A, quad_set.A)
    assert np.array_equal(quad_set.z, loaded.z)
    assert np.array_equal(quad_set.v, loaded.v)


def test_csv_roundtrip_lossless(tmp_path, double_int_set):
    path = tmp_path / "demo.csv"
    save_demo_csv(double_int_set, path, 1)
    times, z, v = load_demo_csv(path)
    assert np.array_equal(z, double_int_set.z[:, :, 1])
    assert np.array_equal(v, double_int_set.v[:, :, 1])
    assert np.array_equal(times, double_int_set.grid)


def test_dict_roundtrip_single_input(double_int_set):
    data = demo_set_to_dict(double_int_set)
    assert data["n"] == 2 and data["m"] == 1 and data["M"] == 3
    # m = 1 stores v as a flat list per the file contract.
    assert isinstance(data["demos"][0]["v"][0], float)
    rebuilt = demo_set_from_dict(data)
    assert np.array_equal(rebuilt.z, double_int_set.z)
    assert np.array_equal(rebuilt.v, double_int_set.v)
