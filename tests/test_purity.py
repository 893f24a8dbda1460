"""Learned controllers are pure functions of (t, z)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import expm

from demostab.demos import DemonstrationSet
from demostab.learner import LearnedController, build_basis
from demostab.multi import MultiController
from demostab.plant import brunovsky_pair
from demostab.sim import time_grid


def mixed_expert_set() -> DemonstrationSet:
    """Double-integrator demonstrations of three different LQR-like gains.

    Neighbouring simplices of the multi controller then carry different
    laws, so the simplex picked for z changes the value.
    """
    pair = brunovsky_pair(2)
    grid = time_grid(0.0, 2.0, 1e-2)
    starts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-1.0, 0.5)]
    gains = [(1.0, 2.0), (1.0, 2.0), (2.0, 3.0), (4.0, 1.0), (0.5, 1.5)]
    zs, vs = [], []
    for z0, K in zip(starts, gains):
        K = np.array([K])
        step = expm((pair.A - pair.B @ K) * 1e-2)
        z = [np.array(z0)]
        for _ in grid[1:]:
            z.append(step @ z[-1])
        zs.append(np.array(z))
        vs.append(-(zs[-1] @ K.T))
    return DemonstrationSet(grid=grid, z=np.stack(zs, axis=2), v=np.stack(vs, axis=2),
                            A=pair.A, B=pair.B)


DSET = mixed_expert_set()
BASIS = build_basis(DSET)
TRI = MultiController(DSET).tri
FACTORIES = {
    "single closed loop": lambda: LearnedController(BASIS),
    "single open loop": lambda: LearnedController(BASIS, feedback_mode="open_loop"),
    "multi closed loop": lambda: MultiController(DSET, tri=TRI),
    "multi open loop": lambda: MultiController(DSET, tri=TRI, feedback_mode="open_loop"),
}
states = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)).map(np.array)


@pytest.mark.parametrize("kind", FACTORIES)
@given(t=st.floats(0.0, 8.0), z1=states, z2=states)
def test_call_does_not_depend_on_earlier_calls(kind, t, z1, z2):
    expected = FACTORIES[kind]()(t, z1)
    ctrl = FACTORIES[kind]()
    ctrl(t, z2)
    assert ctrl(t, z1) == expected
