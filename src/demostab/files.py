"""Files: the JSON and CSV formats, written in bounded chunks of rows, each float formatted once.

The bytes are those of ``json.dumps(payload, indent=1, sort_keys=True)`` with
arrays as nested lists, and of a CSV with ``repr(float(x))`` per cell.  Every float
goes through ``_block_text``, CPython's ``repr(block.tolist())`` of at most CHUNK_ROWS
rows, and the writers only rewrite that text's brackets and separators with
``str.replace``, ``split`` and ``join``.  ``write_json`` also writes CSV tables, cut
from the JSON's text where their columns are arrays of the payload; no other module
knows either format.  JSON is read back with the cyclic garbage collector paused.

A write call with an array or table of two or more blocks formats on two cores: it forks
a helper process, which runs ``_block_text`` on every odd block while this process formats
the even one before it, so the text, and every byte written, is the same; the call reaps
the helper before it returns or raises.  On one CPU, without ``os.fork``, for single
blocks, or for the rest of a call once its helper has failed, every block is formatted in
this process.

A Memo holds the object a file's bytes decode to under their SHA-256, which
``write_json`` returns for the bytes it wrote, so that a process decodes each
demonstration set and controller once.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import struct
import warnings
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

CHUNK_ROWS = 2048

_MARK = "\x00array"  # an array's place in the JSON skeleton; json escapes the NUL


def _block_text(block: np.ndarray) -> str:
    """``repr(block.tolist())``: the text of every float of a block of at most CHUNK_ROWS rows.

    The helper process runs this same function on the blocks it formats."""
    return repr(block.tolist())


def _block_texts(a: np.ndarray, helper: _Helper | None):
    """The _block_text of each block of CHUNK_ROWS rows of ``a``, in order."""
    return _formatted(len(a), lambda start: a[start:start + CHUNK_ROWS], helper)


def _formatted(rows: int, block, helper: _Helper | None):
    """The _block_text of ``block(start)`` for start = 0, CHUNK_ROWS, ... below ``rows``, in
    order.  With a helper, each odd block is sent to it before the even one before it is
    formatted here, so one block at most is in flight."""
    starts = range(0, rows, CHUNK_ROWS)
    for even, odd in zip(starts[::2], [*starts[1::2], None]):
        sent = odd is not None and helper is not None and helper.send(block(odd))
        yield _block_text(block(even))
        text = helper.receive() if sent else None
        if odd is not None:
            yield _block_text(block(odd)) if text is None else text
        del text  # held by the caller alone while the next blocks are formatted


_SIZE = struct.Struct("<Q")


class _Helper:
    """A child made by ``os.fork`` for one write call, which replies to each float64 block
    sent to it with the block's _block_text.

    A request is the block's ndim, its shape and its raw bytes; a reply is the text's
    length and its ASCII bytes, each length and shape entry a little-endian uint64.  The
    child runs only ``frombuffer``, ``tolist``, ``repr`` and pipe I/O, nothing of BLAS, so
    a process whose BLAS threads hold locks can fork it; it leaves through ``os._exit``
    when its input ends.  A block that cannot be sent or whose reply does not arrive is
    formatted by the caller, and the helper is stopped, so the rest of the call formats
    every block in process.
    """

    def __init__(self):
        requests, replies = os.pipe(), os.pipe()  # each (read end, write end)
        try:
            with warnings.catch_warnings():  # Python 3.12 warns of fork() beside BLAS threads
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:
            for fd in requests + replies:
                os.close(fd)
            raise
        if pid == 0:
            os.close(requests[1])
            os.close(replies[0])
            _serve(requests[0], replies[1])
        os.close(requests[0])
        os.close(replies[1])
        self.pid = pid
        self.requests, self.replies = open(requests[1], "wb"), open(replies[0], "rb")

    def send(self, block: np.ndarray) -> bool:
        """Whether ``block`` went to the helper: not once it is stopped, nor for a dtype other
        than float64."""
        if self.requests.closed or block.dtype != np.float64:
            return False
        try:
            self.requests.write(struct.pack(f"<{block.ndim + 1}Q", block.ndim, *block.shape))
            self.requests.write(np.ascontiguousarray(block))
            self.requests.flush()
            return True
        except OSError:
            self.stop()
            return False

    def receive(self) -> str | None:
        """The text of the block in flight, or None if the helper failed; it is then stopped."""
        try:
            size, = _SIZE.unpack(self.replies.read(_SIZE.size))
            data = self.replies.read(size)
            if len(data) == size:
                return data.decode("ascii")
        except (OSError, struct.error):  # struct.error: the reply ended inside its length
            pass
        self.stop()
        return None

    def stop(self) -> None:
        """Close this end of both pipes, so that the helper exits, and reap it unless it is
        reaped already."""
        for f in (self.requests, self.replies):
            try:
                f.close()
            except OSError:  # the unsent rest of a request the helper did not read
                pass
        if self.pid:
            try:
                os.waitpid(self.pid, 0)
            except ChildProcessError:  # reaped already, as under SIGCHLD set to SIG_IGN
                pass
            self.pid = 0


def _serve(requests: int, replies: int) -> None:
    """The helper's loop: read a block from ``requests``, write its text to ``replies``,
    until the input ends; then leave through ``os._exit``, which runs no exit handlers and
    flushes no inherited files."""
    try:
        with open(requests, "rb") as src, open(replies, "wb") as dst:
            while head := src.read(_SIZE.size):
                ndim, = _SIZE.unpack(head)
                shape = struct.unpack(f"<{ndim}Q", src.read(_SIZE.size * ndim))
                data = src.read(8 * math.prod(shape))
                text = _block_text(np.frombuffer(data).reshape(shape)).encode("ascii")
                dst.write(_SIZE.pack(len(text)))
                dst.write(text)
                dst.flush()
    finally:
        os._exit(0)


@contextmanager
def _helper_for(rows: list[int]):
    """A helper for one write call whose arrays and tables have ``rows`` rows, stopped when
    the call returns or raises; None if none of them has two or more blocks, on one CPU,
    without ``os.fork``, or if the fork fails."""
    helper = None
    if (max(rows, default=0) > CHUNK_ROWS and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2):
        try:
            helper = _Helper()
        except OSError:
            pass
    try:
        yield helper
    finally:
        if helper is not None:
            helper.stop()


def _row_texts(text: str) -> list[str]:
    """The rows of a 1- or 2-D ``_block_text`` as CSV text: "a,b" for a row [a, b], "a" for an
    entry a of a 1-D block."""
    if text.startswith("[["):
        return text[2:-2].replace(", ", ",").split("],[")
    return text[1:-1].split(", ")


def _csv_rows(*texts: str) -> str:
    """The CSV rows of one block of rows from the _block_text of each of its columns."""
    return "\n".join(map(",".join, zip(*map(_row_texts, texts)))) + "\n"


def _table_columns(header: list[str], columns) -> list[np.ndarray]:
    """``columns`` as float arrays; a ValueError, before any file is opened, unless they have
    one header entry per CSV column (a 2-D column has one per entry of its rows, and at least
    one entry) and equal lengths."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    at = np.cumsum([0] + [c.shape[1] if c.ndim == 2 else 1 for c in columns])
    if at[-1] != len(header):
        raise ValueError(f"{len(header)} header entries for {at[-1]} CSV columns")
    for c, k in zip(columns, at):
        if c.ndim == 2 and c.shape[1] == 0:
            raise ValueError(f"the 2-D column at header entry {k} of {header} has no entries")
        if len(c) != len(columns[0]):
            raise ValueError(f"column {header[k]!r} has {len(c)} rows, "
                             f"column {header[0]!r} has {len(columns[0])}")
    return columns


class _JsonArray:
    """The indent=1 JSON of a k-dimensional float array, opening bracket on a line indented by
    ``level``: ``head``, then ``block`` of each _block_text in order, then ``tail``."""

    def __init__(self, k: int, level: int):
        pad = ["\n" + " " * (level + depth) for depth in range(k + 1)]
        self.k = k
        self.head = "".join("[" + pad[i + 1] for i in range(k))
        self.tail = "".join(pad[k - 1 - i] + "]" for i in range(k))
        # The repr's separators "]]], [[[" .. ", ", j brackets closing and opening around the
        # comma; a longer one contains the shorter ones, so it is rewritten first.
        self.seps = [("]" * j + ", " + "[" * j,
                      "".join(pad[k - 1 - i] + "]" for i in range(j)) + ","
                      + "".join(pad[k - j + i] + "[" for i in range(j)) + pad[k])
                     for j in range(k - 1, -1, -1)]

    def block(self, text: str, first: bool) -> str:
        """The JSON of the rows whose _block_text is ``text``; after the first block, with the
        separator of two rows in front."""
        text = text[self.k:-self.k]
        for old, new in self.seps:
            text = text.replace(old, new)
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
        return text if first else self.seps[0][1] + text


def _json_skeleton(payload) -> tuple[list[str], list[np.ndarray], list[int]]:
    """The indent=1, sorted-key JSON of ``payload`` cut at its float ndarrays.

    Returns (parts, arrays, levels): the document is parts[0], arrays[0] as JSON with its
    opening bracket on a line indented by levels[0], parts[1], ..., parts[-1].  An empty or
    0-d float array is written as its ``tolist()``.
    """
    arrays = []

    def hold(obj):
        if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
            if obj.ndim == 0 or obj.size == 0:
                return obj.tolist()
            arrays.append(obj)
            return _MARK
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    parts = json.dumps(payload, indent=1, sort_keys=True, default=hold).split(json.dumps(_MARK))
    if len(parts) != len(arrays) + 1:
        raise ValueError("payload contains the array placeholder string")
    lines = [part[part.rfind("\n") + 1:] for part in parts[:-1]]
    return parts, arrays, [len(line) - len(line.lstrip(" ")) for line in lines]


def write_json(path: str | Path, payload, tables=()) -> str:
    """``payload`` as indent=1, sorted-key JSON, its float arrays streamed block by block, and
    each table ``(csv_path, header, columns)`` as ``write_csv`` writes it; the SHA-256 hex
    digest of the JSON file's bytes.

    A column that is a float array of ``payload`` (the same object) is cut from that array's
    JSON text; any other column is formatted once per call.  A table is written while the
    last of its arrays in the document streams, and the text of its earlier ones is held
    until then; a table with none is written first, as write_csv writes it.
    """
    parts, arrays, levels = _json_skeleton(payload)
    tables = [(csv_path, header, _table_columns(header, columns))
              for csv_path, header, columns in tables]
    with _helper_for([len(a) for a in arrays] + [len(c) for t in tables for c in t[2]]) as helper:
        last = {id(a): p for p, a in enumerate(arrays)}  # each array's last place in the document
        due, keep, held = {}, {}, {}  # keep: array id -> the place of the last table that needs it
        for csv_path, header, columns in tables:
            p = max(last.get(id(c), -1) for c in columns)
            if p < 0:
                _write_table(csv_path, header, columns, helper)
                continue
            due.setdefault(p, []).append((csv_path, header, columns))
            for c in columns:
                if id(c) not in last and id(c) not in held:
                    held[id(c)] = list(_block_texts(c, helper))
                elif last.get(id(c), p) < p:
                    keep[id(c)] = max(keep.get(id(c), p), p)
        digest = hashlib.sha256()
        with open(path, "wb") as f:
            def put(text: str) -> None:
                data = text.encode()
                digest.update(data)
                f.write(data)

            for p, (part, a, level) in enumerate(zip(parts, arrays, levels)):
                layout, texts = _JsonArray(a.ndim, level), _block_texts(a, helper)
                if last[id(a)] == p and id(a) in keep:
                    texts = held[id(a)] = list(texts)
                put(part + layout.head)
                with ExitStack() as stack:
                    csvs = [(stack.enter_context(open(csv_path, "w")), header,
                             [held.get(id(c)) for c in columns])
                            for csv_path, header, columns in due.get(p, ())]
                    for csv, header, _ in csvs:
                        csv.write(",".join(header) + "\n")
                    for b, text in enumerate(texts):
                        put(layout.block(text, not b))
                        for csv, _, sources in csvs:
                            csv.write(_csv_rows(*[text if s is None else s[b] for s in sources]))
                put(layout.tail)
                for x in [x for x, q in keep.items() if q == p]:
                    del held[x]
            put(parts[-1])
    return digest.hexdigest()


def write_csv(path: str | Path, header: list[str], columns) -> None:
    """Equal-length columns as CSV rows under ``header``, ``repr(float(x))`` per cell; a 2-D
    column fills one CSV column per entry of its rows.  Each block of rows of the columns is
    formatted as one 2-D block."""
    columns = _table_columns(header, columns)
    with _helper_for([len(columns[0])]) as helper:
        _write_table(path, header, columns, helper)


def _write_table(path: str | Path, header: list[str], columns: list[np.ndarray],
                 helper: _Helper | None) -> None:
    """write_csv's file, from the columns _table_columns returns."""
    def block(start: int) -> np.ndarray:
        return np.column_stack([c[start:start + CHUNK_ROWS] for c in columns])

    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        # Unlike a for loop, map holds no block's text while the next block is formatted.
        f.writelines(map(_csv_rows, _formatted(len(columns[0]), block, helper)))


def read_json(path: str | Path):
    """The JSON document in path, decoded by decode_json."""
    return decode_json(Path(path).read_text())


def decode_json(text: str):
    """The JSON document in text, decoded with the cyclic garbage collector paused.

    The decoded lists hold numbers, strings and lists, so they form no
    cycles: a collection while they are built frees nothing, but it walks
    every live object and promotes the lists towards the oldest generation,
    whose growth then triggers full collections later in the run.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    finally:
        if enabled:
            gc.enable()


class Memo:
    """A one-slot memo: the object a file's bytes decode to, under their SHA-256 hex digest.

    A reader still reads and hashes the file.  ``get(digest)`` returns the object held under
    that digest, the one this process decoded or wrote last, and None for any other digest.
    A miss empties the slot, and a writer calls ``release`` before it builds, so that a new
    object is not built beside the old one.  ``hold`` makes every array reachable from the
    object read-only, so a later reader cannot change what an earlier one holds.
    """

    def __init__(self):
        self.release()

    def release(self) -> None:
        self._digest = self._obj = None

    def get(self, digest: str):
        if digest != self._digest:
            self.release()
        return self._obj

    def hold(self, digest: str, obj):
        """obj, made read-only and held under digest in place of the object held before."""
        _freeze(obj, set())
        self._digest, self._obj = digest, obj
        return obj


def _freeze(obj, seen: set) -> None:
    """Clear the writeable flag of every ndarray reachable from obj through tuples, lists
    and the attributes of this package's objects."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
        return
    if type(obj).__module__.partition(".")[0] == __package__:
        obj = vars(obj).values()
    elif not isinstance(obj, (tuple, list)):
        return
    for item in obj:
        _freeze(item, seen)
