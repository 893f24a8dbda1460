"""Shared fixtures: analytic and recorded demonstration sets.

The double-integrator set is built from the closed-form flow so learner and
certificate tests compare against exact values; the ball-and-beam and
quadrotor fixtures run the real recording pipelines once per session.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run and never time out.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")

from oracles import DOUBLE_INT_K, double_int_flow

from demostab.cli import PRESETS
from demostab.demos import DemonstrationSet, read_demo_set, record_expert, save_demo_set
from demostab.embed import transform_demos
from demostab.learner import AffineBasis, LearnedController, build_basis, save_controller
from demostab.plant import brunovsky_pair, chain_preset
from demostab.sim import time_grid
from demostab.systems import ball_beam_expert, ball_beam_preset, flat_quad_demo_set


def analytic_double_int_set(T: float = 2.0, dt: float = 1e-3,
                            starts=None) -> DemonstrationSet:
    """LQR (K = [1, 2]) demonstrations sampled from the closed-form flow."""
    grid = time_grid(0.0, T, dt)
    if starts is None:
        starts = [np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    z = np.stack([double_int_flow(t) for t in grid]) @ np.column_stack(starts)  # (G, 2, M)
    pair = brunovsky_pair(2)
    return DemonstrationSet(grid=grid, z=z, v=-np.einsum("j,gjk->gk", DOUBLE_INT_K, z),
                            A=pair.A, B=pair.B)


def off_grid_basis() -> AffineBasis:
    """The double-integrator basis on [0, 1.0005] at dt = 1e-3, ending in a half step.

    No DemonstrationSet holds such a grid, so the basis is built directly:
    its T = 1.0005 is no whole multiple of its dt.
    """
    grid = np.append(1e-3 * np.arange(1001), 1.0005)
    Zs = np.stack([double_int_flow(t) for t in grid])  # starts 0, e_1, e_2
    return AffineBasis(index_set=(0, 1, 2), times=grid, Zs=Zs,
                       Vs=-np.einsum("j,gjk->gk", DOUBLE_INT_K, Zs)[:, None, :],
                       z_base=np.zeros((len(grid), 2)), v_base=np.zeros((len(grid), 1)))


def save_learned(ctrl, dset: DemonstrationSet, path: Path) -> None:
    """ctrl saved as path beside dset, the set it was learned from, as demo_set.json.

    ctrl takes the digest of that file, as learn_controller gives it.
    """
    demo_path = path.with_name("demo_set.json")
    save_demo_set(dset, demo_path)
    ctrl.demo_set_sha256 = read_demo_set(demo_path)[1]
    save_controller(ctrl, path)


@pytest.fixture(scope="session")
def double_int_set() -> DemonstrationSet:
    return analytic_double_int_set()


@pytest.fixture(scope="session")
def double_int_ctrl(double_int_set) -> LearnedController:
    dset = double_int_set
    return LearnedController(build_basis(dset), A=dset.A, B=dset.B)


@pytest.fixture(scope="session")
def multi_point_set() -> DemonstrationSet:
    """Five demonstrations of the same linear closed loop (M > n+1 case)."""
    starts = [np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]),
              np.array([1.0, 1.0]), np.array([-1.0, 0.5])]
    return analytic_double_int_set(starts=starts)


@pytest.fixture(scope="session")
def chain2_recorded() -> DemonstrationSet:
    """Demonstrations recorded through the actual simulation pipeline."""
    from demostab.demos import to_zv
    from demostab.plant import expert_lqr

    plant = chain_preset(2)
    expert = expert_lqr(plant, np.diag([1.0, 2.0]), 1.0)  # gain exactly [1, 2]
    raw = record_expert(plant, expert, [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
                        T=2.0, dt=1e-3)
    return to_zv(plant, raw)


@pytest.fixture(scope="session")
def ball_beam_fixture():
    """Full ball-and-beam pipeline at the benchmark parameters (cached)."""
    plant, cfg = ball_beam_preset()
    preset = PRESETS["ball_beam"]
    expert = ball_beam_expert(plant, np.diag(preset.Q), preset.R)
    raw = record_expert(plant, expert, [np.asarray(ic) for ic in preset.starts],
                        T=8.0, dt=1e-3)
    eset, xi = transform_demos(cfg, raw)
    return {"plant": plant, "cfg": cfg, "raw": raw, "xi": xi, "set": eset}


@pytest.fixture(scope="session")
def quad_set() -> DemonstrationSet:
    return flat_quad_demo_set(T=2.0, dt=1e-3, Q=40.0 * np.eye(9), R=1.0)
