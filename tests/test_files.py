"""Output files: the chunked writers against the plain ones, and lossless round trips."""

import gc
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from conftest import save_learned
from oracles import csv_text, json_text

from demostab.demos import DemonstrationSet, load_demo_set, save_demo_set
from demostab.errors import AffineDependenceError, DegenerateGeometryError
from demostab.files import CHUNK_ROWS, read_json, write_csv, write_json
from demostab.learner import LearnedController, build_basis, load_controller
from demostab.multi import MultiController
from demostab.plant import brunovsky_pair
from demostab.sim import time_grid

SPECIAL = [-0.0, 5e-324, 1e-300, 1e16, 1e22, 1.0, math.nan, math.inf, -math.inf]
ROWS = [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1]


@st.composite
def float_arrays(draw, rows, inner=st.lists(st.integers(0, 3), max_size=2)):
    """1-, 2- or 3-D float arrays, a third of the entries from SPECIAL, the rest spread over
    every decade from subnormal to 1e300, and the first few drawn by hypothesis itself."""
    shape = (draw(rows), *draw(inner))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape)
    special = rng.random(shape) < 0.3
    a[special] = rng.choice(SPECIAL, int(special.sum()))
    head = draw(st.lists(st.floats(), max_size=min(a.size, 8)))
    a.flat[:len(head)] = head
    return a


def assert_same_text(got: str, want: str) -> None:
    """Equal strings, or a failure naming the first difference (pytest's own diff of
    megabyte strings takes minutes)."""
    if got != want:
        k = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"texts differ at offset {k} (lengths {len(got)}, {len(want)}): "
                    f"{got[max(k - 30, 0):k + 30]!r} != {want[max(k - 30, 0):k + 30]!r}")


def written(write, *args) -> str:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "out"
        write(path, *args)
        return path.read_text()


@pytest.mark.parametrize("rows", ROWS)
@settings(max_examples=15)
@given(data=st.data())
def test_json_array_matches_oracle(rows, data):
    a = data.draw(float_arrays(st.just(rows)))
    # Indented by 0 (bare), 1 (a value of the top object) and 3 (inside a list
    # inside a nested object).
    for payload in (a, {"a": a, "b": 1}, {"x": {"y": [None, a, "s"]}, "a": a}):
        assert_same_text(written(write_json, payload), json_text(payload))


_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.lists(st.integers(), max_size=4), float_arrays(st.integers(0, 3)),
    st.sampled_from(SPECIAL),
)
PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=10,
)


@given(payload=PAYLOADS)
def test_json_mixed_payload_matches_oracle(payload):
    assert_same_text(written(write_json, payload), json_text(payload))


@pytest.mark.parametrize("rows", ROWS)
@settings(max_examples=10)
@given(data=st.data())
def test_csv_and_column_json_match_oracle(rows, data):
    n_cols = data.draw(st.integers(1, 4))
    columns = [data.draw(float_arrays(st.just(rows), inner=st.just([]))) for _ in range(n_cols)]
    header = data.draw(st.lists(st.text("tuvxz0123", min_size=1, max_size=3),
                                min_size=n_cols, max_size=n_cols))
    with tempfile.TemporaryDirectory() as d:
        csv_path, json_path = Path(d) / "t.csv", Path(d) / "t.json"
        write_csv(csv_path, header, columns, json_path)
        assert_same_text(csv_path.read_text(), csv_text(header, columns))
        assert_same_text(json_path.read_text(), json_text(dict(zip(header, columns))))
        write_csv(csv_path, header, columns)
        assert_same_text(csv_path.read_text(), csv_text(header, columns))


def test_json_rejects_a_string_equal_to_the_placeholder(tmp_path):
    with pytest.raises(ValueError):
        write_json(tmp_path / "x.json", {"a": np.zeros(2), "b": "\x00array"})


# ---------------------------------------------------------------------------
# save_* then load_* gives back the same arrays and the same control values.
# ---------------------------------------------------------------------------


@st.composite
def demo_sets(draw, n_dims=st.integers(1, 3), extra=st.integers(0, 3)):
    n, m = draw(n_dims), draw(st.sampled_from([1, 2]))
    dt = draw(st.floats(1e-3, 0.25))
    grid = time_grid(0.0, draw(st.integers(2, 30)) * dt, dt)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-6, 6))
    M = n + 1 + draw(extra)
    z = scale * rng.standard_normal((len(grid), n, M))
    v = scale * rng.standard_normal((len(grid), m, M))
    z[:, :, 0], v[:, :, 0] = 0.0, 0.0  # the trivial demonstration
    if m == 1:
        pair = brunovsky_pair(n)
        A, B = pair.A, pair.B
    else:
        A, B = rng.standard_normal((n, n)), rng.standard_normal((n, m))
    return DemonstrationSet(grid=grid, z=z, v=v, A=A, B=B)


def reloaded(save, load, obj):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "file.json"
        save(obj, path)
        return load(path)


def control_values_agree(ctrl, other, dset, seed):
    """ctrl(t, z) is bit-equal at grid points, step midpoints and random times over three
    intervals, at states inside and well outside the demonstrations' starts."""
    rng = np.random.default_rng(seed)
    grid, scale = dset.grid, float(np.abs(dset.z0_points()).max())
    times = np.concatenate([grid[:3], grid[:3] + 0.5 * (grid[1] - grid[0]),
                            rng.uniform(0.0, 3.0 * dset.T, 6)])
    for t in times:
        z = 3.0 * scale * rng.standard_normal(dset.n)
        assert np.array_equal(ctrl(float(t), z), other(float(t), z))


@pytest.mark.parametrize("enabled", [True, False])
def test_read_json_pauses_the_collector_and_restores_it(tmp_path, monkeypatch, enabled):
    # The decode runs with the cyclic collector off; afterwards it is on or off
    # as the caller left it.
    path = tmp_path / "doc.json"
    write_json(path, {"a": np.arange(6.0).reshape(3, 2), "b": "text"})
    seen, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda text: seen.append(gc.isenabled()) or loads(text))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        doc = read_json(path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]
    assert doc == {"a": [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]], "b": "text"}


@given(dset=demo_sets())
def test_demo_set_round_trip(dset):
    back = reloaded(save_demo_set, load_demo_set, dset)
    assert np.array_equal(back.A, dset.A) and np.array_equal(back.B, dset.B)
    assert np.array_equal(back.grid, dset.grid)
    assert np.array_equal(back.z, dset.z) and np.array_equal(back.v, dset.v)


@given(dset=demo_sets(extra=st.just(0)), mode=st.sampled_from(["closed_loop", "open_loop"]),
       seed=st.integers(0, 2**32 - 1))
def test_single_controller_round_trip(dset, mode, seed):
    try:
        basis = build_basis(dset)
    except AffineDependenceError:
        assume(False)
    ctrl = LearnedController(basis, A=dset.A, B=dset.B, feedback_mode=mode)
    back = reloaded(lambda c, path: save_learned(c, dset, path), load_controller, ctrl)
    for name in ("times", "Zs", "Vs", "z_base", "v_base"):
        assert np.array_equal(getattr(back.basis, name), getattr(basis, name)), name
    assert back.basis.index_set == basis.index_set and back.feedback_mode == mode
    assert np.array_equal(back.A, ctrl.A) and np.array_equal(back.B, ctrl.B)
    control_values_agree(ctrl, back, dset, seed)


@settings(max_examples=40)
@given(dset=demo_sets(n_dims=st.integers(2, 3), extra=st.integers(1, 3)),
       mode=st.sampled_from(["closed_loop", "open_loop"]), seed=st.integers(0, 2**32 - 1))
def test_multi_controller_round_trip(dset, mode, seed):
    try:
        ctrl = MultiController(dset, feedback_mode=mode)
    except (AffineDependenceError, DegenerateGeometryError):
        assume(False)
    back = reloaded(lambda c, path: save_learned(c, dset, path), load_controller, ctrl)
    assert [s.vertex_indices for s in back.tri.simplices] \
        == [s.vertex_indices for s in ctrl.tri.simplices]
    assert np.array_equal(ctrl.dset.z, back.dset.z) and np.array_equal(ctrl.dset.v, back.dset.v)
    control_values_agree(ctrl, back, dset, seed)

