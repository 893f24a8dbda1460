"""Output files: the chunked writers against the plain ones, with and without the helper
process, and lossless round trips."""

import gc
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from conftest import save_learned
from oracles import csv_text, json_text

from demostab.demos import (DemonstrationSet, demo_set_to_dict, load_demo_set, save_demo_csv,
                            save_demo_set)
from demostab import files
from demostab.errors import AffineDependenceError, DegenerateGeometryError
from demostab.files import CHUNK_ROWS, read_json, write_csv, write_json
from demostab.learner import LearnedController, build_basis, load_controller
from demostab.multi import MultiController
from demostab.plant import brunovsky_pair
from demostab.sim import time_grid

SPECIAL = [-0.0, 5e-324, 1e-300, 1e16, 1e22, 1.0, math.nan, math.inf, -math.inf]
# The oracle tests write blocks of SMALL rows (the writers read files.CHUNK_ROWS at each
# call), so that they reach the same numbers of blocks in less time.
SMALL = 8


def rows_about(chunk: int) -> list[int]:
    """Row counts about blocks of ``chunk`` rows: none, one, a block less one, a block, a
    block and one, two blocks and one, four blocks."""
    return [0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1, 4 * chunk]


# Each case is named by the row count it stands for at the full CHUNK_ROWS.
NAMES = [str(rows) for rows in rows_about(CHUNK_ROWS)]
ROWS = pytest.mark.parametrize("rows", rows_about(SMALL), ids=NAMES)
DEMO_ROWS = pytest.mark.parametrize("rows", rows_about(SMALL)[2:], ids=NAMES[2:])
# How the writers format blocks: the odd ones in a helper process, or all in this process
# because os.fork fails or the process may run on one CPU only.
WAYS = ("helper", "no fork", "one CPU")
TWO_CPUS = (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)
needs_two_cpus = pytest.mark.skipif(not TWO_CPUS, reason="the helper runs on two or more CPUs")


def refuse_fork():
    raise OSError("fork refused")


def record_forks(patch: pytest.MonkeyPatch) -> list[int]:
    """The pids of the children forked from now on, in order, as this process sees them."""
    pids, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    patch.setattr(os, "fork", recorded)
    return pids


def assert_reaped(pids: list[int]) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):  # neither running nor a zombie of this process
            os.waitpid(pid, os.WNOHANG)


@contextmanager
def formatted(way: str, rows: int, chunk: int = SMALL):
    """The writers inside, with blocks of ``chunk`` rows, formatting them in ``way`` (one of
    WAYS).

    Afterwards a helper has been forked exactly if ``way`` is "helper", a file of ``rows``
    rows has two or more blocks and this machine has two CPUs, and every helper is reaped.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(files, "CHUNK_ROWS", chunk)
        pids = record_forks(patch)
        if way == "no fork":
            patch.setattr(os, "fork", refuse_fork)
        elif way == "one CPU":
            patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        yield
    assert bool(pids) == (way == "helper" and rows > chunk and TWO_CPUS), (way, rows, pids)
    assert_reaped(pids)


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


@ROWS
@settings(max_examples=15)
@given(data=st.data())
def test_json_array_matches_oracle(rows, data):
    a = data.draw(float_arrays(st.just(rows)))
    # Indented by 0 (bare), 1 (a value of the top object) and 3 (inside a list
    # inside a nested object).
    for payload in (a, {"a": a, "b": 1}, {"x": {"y": [None, a, "s"]}, "a": a}):
        want = json_text(payload)
        for way in WAYS:
            with formatted(way, rows if a.size else 0):  # an empty array is not streamed
                got = written(write_json, payload)
            assert_same_text(got, want)


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


def csv_columns(columns):
    """The CSV columns of 1- and 2-D columns: a 2-D column gives one per entry of its rows."""
    return [col for c in columns for col in (c.T if c.ndim == 2 else [c])]


@ROWS
@settings(max_examples=10)
@given(data=st.data())
def test_csv_and_column_json_match_oracle(rows, data):
    # 1- and 2-D columns; some of them in the JSON payload, one of those possibly under a
    # second key as well; the table written twice, the second time with its columns reversed.
    n_cols = data.draw(st.integers(1, 4))
    inner = st.lists(st.integers(1, 3), max_size=1)
    columns = [data.draw(float_arrays(st.just(rows), inner=inner)) for _ in range(n_cols)]
    widths = [c.shape[1] if c.ndim == 2 else 1 for c in columns]
    header = data.draw(st.lists(st.text("tuvxz0123", min_size=1, max_size=3),
                                min_size=sum(widths), max_size=sum(widths)))
    names = [header[at:at + w] for at, w in zip(np.cumsum([0] + widths), widths)]
    back_header = sum(names[::-1], [])
    in_payload = data.draw(st.lists(st.booleans(), min_size=n_cols, max_size=n_cols))
    payload = {f"c{j}": c for j, (c, given) in enumerate(zip(columns, in_payload)) if given}
    if payload and data.draw(st.booleans()):
        payload["d"] = next(iter(payload.values()))
    want = csv_text(header, csv_columns(columns))
    back_want = csv_text(back_header, csv_columns(columns[::-1]))
    json_want = json_text(payload)
    for way in WAYS:
        with tempfile.TemporaryDirectory() as d, formatted(way, rows):
            csv_path, back_path, json_path = Path(d) / "t.csv", Path(d) / "u.csv", Path(d) / "t.json"
            write_json(json_path, payload, [(csv_path, header, columns),
                                            (back_path, back_header, columns[::-1])])
            assert_same_text(csv_path.read_text(), want)
            assert_same_text(back_path.read_text(), back_want)
            assert_same_text(json_path.read_text(), json_want)
            write_csv(csv_path, header, columns)
            assert_same_text(csv_path.read_text(), want)


both_writers = pytest.mark.parametrize("write", [
    lambda d, header, columns: write_csv(d / "t.csv", header, columns),
    lambda d, header, columns: write_json(d / "t.json", {"t": columns[0], "z": columns[1]},
                                          [(d / "t.csv", header, columns)]),
], ids=["write_csv", "write_json"])


@both_writers
def test_ragged_columns_are_refused_before_any_file_is_opened(tmp_path, write):
    grid = np.arange(5000.0)
    with pytest.raises(ValueError, match="column 'b' has 4000 rows, column 'a' has 5000"):
        write(tmp_path, ["a", "b"], [grid, np.arange(4000.0)])
    with pytest.raises(ValueError, match="column 'z1' has 4999 rows, column 't' has 5000"):
        write(tmp_path, ["t", "z1", "z2", "v"], [grid, np.zeros((4999, 2)), grid])
    with pytest.raises(ValueError, match="3 header entries for 4 CSV columns"):
        write(tmp_path, ["t", "z1", "v"], [grid, np.zeros((5000, 2)), grid])
    assert not list(tmp_path.iterdir())


@both_writers
def test_a_2d_column_with_no_entries_is_refused_before_any_file_is_opened(tmp_path, write):
    # Its rows have no text: the two writers would join it differently, "0.0" or "0.0,".
    grid = np.arange(3.0)
    with pytest.raises(ValueError, match=r"column at header entry 1 of \['t'\] has no entries"):
        write(tmp_path, ["t"], [grid, np.zeros((3, 0))])
    with pytest.raises(ValueError, match=r"column at header entry 1 of \['t', 'v'\] has no"):
        write(tmp_path, ["t", "v"], [grid, np.zeros((3, 0)), grid])
    assert not list(tmp_path.iterdir())


def test_csv_writer_holds_one_block(tmp_path):
    # The peak allocation of a 26-column table (as tracking.csv has) does not grow
    # with its rows: the writer holds one block's text at a time.
    def peak(rows):
        columns = list(np.random.default_rng(rows).standard_normal((26, rows)))
        tracemalloc.start()
        try:
            write_csv(tmp_path / "t.csv", [f"c{j}" for j in range(26)], columns)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(4 * CHUNK_ROWS), peak(16 * CHUNK_ROWS)
    assert large <= 1.1 * small, (small, large)


def test_json_rejects_a_string_equal_to_the_placeholder(tmp_path):
    with pytest.raises(ValueError):
        write_json(tmp_path / "x.json", {"a": np.zeros(2), "b": "\x00array"})


# ---------------------------------------------------------------------------
# The helper's failures and lifetime.
# ---------------------------------------------------------------------------


def table(rows: int, seed: int = 0):
    """A header, three columns of ``rows`` rows, and their CSV text."""
    header, columns = ["a", "b", "c"], list(np.random.default_rng(seed).standard_normal((3, rows)))
    return header, columns, csv_text(header, columns)


@pytest.mark.parametrize("way", WAYS)
def test_full_size_blocks_match_oracles(tmp_path, capfd, way):
    # Two blocks and one of CHUNK_ROWS rows, as a run's files have them, through each
    # writer, a float32 array among them; no warning and nothing on standard error
    # whichever way they are formatted.
    rows = 2 * CHUNK_ROWS + 1
    header, columns, want = table(rows)
    payload = {"a": columns[0], "f": columns[1].astype(np.float32),
               "z": np.stack(columns, axis=-1)[:, :, None]}
    with warnings.catch_warnings(record=True) as caught, formatted(way, rows, CHUNK_ROWS):
        warnings.simplefilter("always")
        write_json(tmp_path / "t.json", payload, [(tmp_path / "t.csv", header, columns)])
        write_csv(tmp_path / "u.csv", header, columns)
    assert caught == []
    assert_same_text((tmp_path / "t.json").read_text(), json_text(payload))
    for name in ("t.csv", "u.csv"):
        assert_same_text((tmp_path / name).read_text(), want)
    assert capfd.readouterr().err == ""


@needs_two_cpus
def test_a_helper_killed_between_two_blocks_is_reaped_and_its_blocks_formatted_here(
        tmp_path, capfd, monkeypatch):
    # The first call's helper writes block 1 and is killed as it takes block 3: that call
    # reads block 1, formats blocks 0, 2 and 3 here, and the next call forks a helper of
    # its own.
    header, columns, want = table(4 * CHUNK_ROWS)
    pids = record_forks(monkeypatch)
    parent, block_text, here, there = os.getpid(), files._block_text, [], []

    def kill_the_first_helper_at_its_second_block(block):
        if os.getpid() == parent:
            here.append(block)
        elif not pids:  # the first helper: this process had recorded no fork when it forked
            there.append(block)
            if len(there) == 2:
                os.kill(os.getpid(), signal.SIGKILL)
        return block_text(block)

    monkeypatch.setattr(files, "_block_text", kill_the_first_helper_at_its_second_block)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        write_csv(tmp_path / "killed.csv", header, columns)
        assert len(pids) == 1 and len(here) == 3
        assert_reaped(pids)
        write_csv(tmp_path / "after.csv", header, columns)
        assert len(pids) == 2 and len(here) == 5  # blocks 1 and 3 formatted by the new helper
        assert_reaped(pids)
    assert caught == []
    for name in ("killed.csv", "after.csv"):
        assert_same_text((tmp_path / name).read_text(), want)
    assert capfd.readouterr().err == ""


@needs_two_cpus
def test_an_interrupt_in_mid_reply_drops_the_helper(tmp_path, monkeypatch):
    # Part of the first reply is read off the pipe, the rest left in it; the call that
    # raises reaps its helper, and the next call forks a helper of its own.
    header, columns, want = table(2 * CHUNK_ROWS)
    pids, receive = record_forks(monkeypatch), files._receive

    def interrupt_the_first_reply(replies):
        monkeypatch.setattr(files, "_receive", receive)
        replies.read(4)
        raise KeyboardInterrupt

    monkeypatch.setattr(files, "_receive", interrupt_the_first_reply)
    with pytest.raises(KeyboardInterrupt):
        write_csv(tmp_path / "cut.csv", header, columns)
    assert len(pids) == 1
    assert_reaped(pids)
    write_csv(tmp_path / "after.csv", header, columns)
    assert len(pids) == 2
    assert_reaped(pids)
    assert_same_text((tmp_path / "after.csv").read_text(), want)


class Refused(Exception):
    pass


@needs_two_cpus
@pytest.mark.parametrize("fault", [None, "unopenable path", "raise on block 2"])
@both_writers
def test_no_helper_outlives_its_write_call(tmp_path, monkeypatch, write, fault):
    # Whether the call returns or raises, with every reply read or with the reply of block 3
    # unread.
    header, columns, _ = table(4 * CHUNK_ROWS)
    pids = record_forks(monkeypatch)
    parent, block_text, here = os.getpid(), files._block_text, []

    def refuse_block_2(block):
        if os.getpid() == parent:
            here.append(block)
            if len(here) == 2:  # block 2, formatted here before block 3 is read
                raise Refused
        return block_text(block)

    raises = nullcontext()
    if fault == "unopenable path":
        for name in ("t.csv", "t.json"):
            (tmp_path / name).mkdir()
        raises = pytest.raises(IsADirectoryError)
    elif fault == "raise on block 2":
        monkeypatch.setattr(files, "_block_text", refuse_block_2)
        raises = pytest.raises(Refused)
    with raises:
        write(tmp_path, header, columns)
    assert len(pids) == 1
    assert_reaped(pids)


@needs_two_cpus
def test_the_helper_is_reaped_before_the_write_call_returns(tmp_path):
    # In a fresh process: once write_csv returns, no child of the process is left, running
    # or a zombie, before the process exits.
    code = f"""
import os
import numpy as np
from demostab import files
pids, fork = [], os.fork
os.fork = lambda: pids.append(fork()) or pids[-1]
files.write_csv({str(tmp_path / "t.csv")!r}, ["a"], [np.arange(3.0 * files.CHUNK_ROWS)])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print(*pids)
"""
    src = str(Path(files.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0 and result.stderr == "", result.stderr
    pid, = map(int, result.stdout.split())
    with pytest.raises(ProcessLookupError):  # gone, not a zombie: kill finds a zombie
        os.kill(pid, 0)
    assert_same_text((tmp_path / "t.csv").read_text(),
                     csv_text(["a"], [np.arange(3.0 * CHUNK_ROWS)]))


# ---------------------------------------------------------------------------
# save_* then load_* gives back the same arrays and the same control values.
# ---------------------------------------------------------------------------


@st.composite
def demo_sets(draw, n_dims=st.integers(1, 3), extra=st.integers(0, 3), steps=st.integers(2, 30),
              ms=st.sampled_from([1, 2]), special=0.0):
    """Sets of M = n + 1 + extra demonstrations over steps steps of dt; a fraction special of
    the z and v samples (column 0 stays zero) are finite SPECIAL values."""
    n, m = draw(n_dims), draw(ms)
    dt = draw(st.floats(1e-3, 0.25))
    grid = time_grid(0.0, draw(steps) * dt, dt)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-6, 6))
    M = n + 1 + draw(extra)
    z = scale * rng.standard_normal((len(grid), n, M))
    v = scale * rng.standard_normal((len(grid), m, M))
    for a in (z, v) if special else ():
        cells = rng.random(a.shape) < special
        a[cells] = rng.choice([x for x in SPECIAL if math.isfinite(x)], int(cells.sum()))
    z[:, :, 0], v[:, :, 0] = 0.0, 0.0  # the trivial demonstration
    if m == 1:
        pair = brunovsky_pair(n)
        A, B = pair.A, pair.B
    else:
        A, B = rng.standard_normal((n, n)), rng.standard_normal((n, m))
    return DemonstrationSet(grid=grid, z=z, v=v, A=A, B=B)


def demo_csv_text(dset, i) -> str:
    header = (["t"] + [f"z{k + 1}" for k in range(dset.n)]
              + (["v"] if dset.m == 1 else [f"v{j + 1}" for j in range(dset.m)]))
    return csv_text(header, [dset.grid, *dset.z[:, :, i].T, *dset.v[:, :, i].T])


@pytest.mark.parametrize("m", [1, 2])
@DEMO_ROWS
@settings(max_examples=4)
@given(data=st.data())
def test_demo_set_and_csvs_match_oracles(m, rows, data):
    # One pass writes demo_set.json and the CSVs from the same formatted text;
    # each file is the plain writers' text, as are a lone set and a lone CSV.
    dset = data.draw(demo_sets(steps=st.just(rows - 1), ms=st.just(m), special=0.3))
    want, csv_wants = json_text(demo_set_to_dict(dset)), [demo_csv_text(dset, i)
                                                          for i in range(dset.M)]
    for way in WAYS:
        with tempfile.TemporaryDirectory() as d, formatted(way, rows):
            set_path = Path(d) / "set.json"
            csv_paths = [Path(d) / f"{i}.csv" for i in range(dset.M)]
            save_demo_set(dset, set_path, csv_paths)
            assert_same_text(set_path.read_text(), want)
            for path, csv_want in zip(csv_paths, csv_wants):
                assert_same_text(path.read_text(), csv_want)
                path.unlink()
            save_demo_set(dset, set_path)
            assert_same_text(set_path.read_text(), want)
            assert not any(path.exists() for path in csv_paths)
            save_demo_csv(dset, csv_paths[-1], dset.M - 1)
            assert_same_text(csv_paths[-1].read_text(), csv_wants[-1])


def test_demo_writer_holds_one_demonstration(tmp_path):
    # The writer's peak allocation does not grow with the number of
    # demonstrations: it holds one demonstration's text, not the set's.
    def peak(M):
        rng = np.random.default_rng(M)
        z, v = rng.standard_normal((8001, 4, M)), rng.standard_normal((8001, M))
        z[:, :, 0], v[:, 0] = 0.0, 0.0
        pair = brunovsky_pair(4)
        dset = DemonstrationSet(grid=time_grid(0.0, 8.0, 1e-3), z=z, v=v, A=pair.A, B=pair.B)
        tracemalloc.start()
        try:
            save_demo_set(dset, tmp_path / "set.json",
                          [tmp_path / f"demo_{i:02d}.csv" for i in range(M)])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    five, ten = peak(5), peak(10)
    assert ten <= 1.1 * five, (five, ten)


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

