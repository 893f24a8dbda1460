"""Files: the JSON and CSV formats, written in bounded chunks of rows, each float formatted once.

The bytes are those of ``json.dumps(payload, indent=1, sort_keys=True)`` with
arrays as nested lists, and of a CSV with ``repr(float(x))`` per cell.  Every float
goes through ``_block_text``, CPython's ``repr(block.tolist())`` of at most CHUNK_ROWS
rows, and the writers only rewrite that text's brackets and separators with
``str.replace``, ``split`` and ``join``.  ``write_json`` also writes CSV tables, cut
from the JSON's text where their columns are arrays of the payload; no other module
knows either format.  JSON is read back with the cyclic garbage collector paused.

A write call with an array or table of two or more blocks formats on two cores: it forks
a child, which already holds every array and table of the call, runs ``_block_text`` on
every odd block and writes the texts to a pipe in order, while this process formats the
even blocks and reads the odd ones, so the text, and every byte written, is the same; the
call reaps the child before it returns or raises.  On one CPU, without ``os.fork``, for
single blocks, or for the rest of a call once its child has failed, every block is
formatted in this process.

A Memo holds the object a file's bytes decode to under their SHA-256, which
``write_json`` returns for the bytes it wrote, so that a process decodes each
demonstration set and controller once.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import warnings
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

CHUNK_ROWS = 2048

_MARK = "\x00array"  # an array's place in the JSON skeleton; json escapes the NUL


def _block_text(block: np.ndarray) -> str:
    """``repr(block.tolist())``: the text of every float of a block of at most CHUNK_ROWS rows.

    The child a write call forks runs this same function on the odd blocks."""
    return repr(block.tolist())


def _array_source(a: np.ndarray):
    """(rows, block) of an array: its blocks of CHUNK_ROWS rows."""
    return len(a), lambda start: a[start:start + CHUNK_ROWS]


def _table_source(columns: list[np.ndarray]):
    """(rows, block) of a table: each block of rows of its columns as one 2-D block."""
    return len(columns[0]), lambda start: np.column_stack([c[start:start + CHUNK_ROWS]
                                                           for c in columns])


@contextmanager
def _formatted(sources: list):
    """For each source ``(rows, block)``, in order, an iterator over the _block_text of
    ``block(start)`` for start = 0, CHUNK_ROWS, ... below ``rows``; the caller takes them in
    order and runs each to its end.

    When a source has two or more blocks, ``os.fork`` exists and two or more CPUs are
    available, a child forked here walks the same sources and writes the text of every odd
    block to a pipe, each as its length, a little-endian uint64, and its ASCII bytes, then
    leaves through ``os._exit``, which runs no exit handlers and flushes no inherited files.
    It runs only slicing, stacking, ``tolist``, ``repr`` and pipe I/O, nothing of BLAS, so a
    process whose BLAS threads hold locks can fork it.  This process formats the even blocks and
    reads the odd ones; once a read fails, it formats every block left.  On return or raise
    it closes its read end, so that a child still writing gets EPIPE and exits, and reaps
    the child.
    """
    pid, replies = 0, None
    if (max((rows for rows, _ in sources), default=0) > CHUNK_ROWS and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2):
        r, w = os.pipe()
        try:
            with warnings.catch_warnings():  # Python 3.12 warns of fork() beside BLAS threads
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:
            os.close(w)
            os.close(r)
        else:
            if pid == 0:
                try:
                    os.close(r)
                    with open(w, "wb") as dst:
                        for rows, block in sources:
                            for start in range(CHUNK_ROWS, rows, 2 * CHUNK_ROWS):
                                text = _block_text(block(start)).encode("ascii")
                                dst.write(len(text).to_bytes(8, "little"))
                                dst.write(text)
                                dst.flush()
                finally:
                    os._exit(0)
            os.close(w)
            replies = open(r, "rb")
    try:
        yield (_texts(rows, block, replies) for rows, block in sources)
    finally:
        if replies is not None:
            replies.close()
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped already, as under SIGCHLD set to SIG_IGN
                pass


def _texts(rows: int, block, replies):
    """The _block_text of each block of a source: an odd one read from ``replies``, unless
    there is no child or it has failed (None is falsy, as no text is)."""
    for b, start in enumerate(range(0, rows, CHUNK_ROWS)):
        yield b % 2 and _receive(replies) or _block_text(block(start))


def _receive(replies) -> str | None:
    """The next text the child wrote, or None without a child; at an EOF, a short read or an
    OSError, ``replies`` is closed and None is returned from then on.  A plain function, so
    that nothing holds a text once it is returned."""
    if replies is None or replies.closed:
        return None
    try:
        head = replies.read(8)
        if len(head) == 8:
            size = int.from_bytes(head, "little")
            data = replies.read(size)
            if len(data) == size:
                return data.decode("ascii")
    except OSError:
        pass
    replies.close()
    return None


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
    last = {id(a): p for p, a in enumerate(arrays)}  # each array's last place in the document
    alone, others = [], {}  # tables with no array of the payload; other tables' other columns
    due, keep = {}, {}  # keep: array id -> the place of the last table that needs it
    for csv_path, header, columns in tables:
        p = max(last.get(id(c), -1) for c in columns)
        if p < 0:
            alone.append((csv_path, header, columns))
            continue
        due.setdefault(p, []).append((csv_path, header, columns))
        for c in columns:
            if id(c) not in last:
                others.setdefault(id(c), c)
            elif last[id(c)] < p:
                keep[id(c)] = max(keep.get(id(c), p), p)
    sources = ([_table_source(columns) for _, _, columns in alone]
               + [_array_source(c) for c in others.values()] + [_array_source(a) for a in arrays])
    with _formatted(sources) as texts:
        for csv_path, header, _ in alone:
            _write_table(csv_path, header, next(texts))
        held = {x: list(next(texts)) for x in others}
        digest = hashlib.sha256()
        with open(path, "wb") as f:
            def put(text: str) -> None:
                data = text.encode()
                digest.update(data)
                f.write(data)

            for p, (part, a, level) in enumerate(zip(parts, arrays, levels)):
                layout, array_texts = _JsonArray(a.ndim, level), next(texts)
                if last[id(a)] == p and id(a) in keep:
                    array_texts = held[id(a)] = list(array_texts)
                put(part + layout.head)
                with ExitStack() as stack:
                    csvs = [(stack.enter_context(open(csv_path, "w")), header,
                             [held.get(id(c)) for c in columns])
                            for csv_path, header, columns in due.get(p, ())]
                    for csv, header, _ in csvs:
                        csv.write(",".join(header) + "\n")
                    for b, text in enumerate(array_texts):
                        put(layout.block(text, not b))
                        for csv, _, held_texts in csvs:
                            csv.write(_csv_rows(*[text if s is None else s[b] for s in held_texts]))
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
    with _formatted([_table_source(columns)]) as texts:
        _write_table(path, header, next(texts))


def _write_table(path: str | Path, header: list[str], texts) -> None:
    """write_csv's file, from the _block_text of each block of rows of its columns."""
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        # Unlike a for loop, map holds no block's text while the next block is formatted.
        f.writelines(map(_csv_rows, texts))


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
