"""Files: the JSON and CSV formats, written in bounded chunks of rows, each float formatted once.

The bytes are those of ``json.dumps(payload, indent=1, sort_keys=True)`` with
arrays as nested lists, and of a CSV with ``repr(float(x))`` per cell.  Every float
goes through ``_block_text``, CPython's ``repr(block.tolist())`` of at most CHUNK_ROWS
rows, and the writers only rewrite that text's brackets and separators with
``str.replace``, ``split`` and ``join``.  ``write_json`` also writes CSV tables, cut
from the JSON's text where their columns are arrays of the payload; no other module
knows either format.  JSON is read back with the cyclic garbage collector paused.
"""

from __future__ import annotations

import gc
import json
from contextlib import ExitStack
from pathlib import Path

import numpy as np

CHUNK_ROWS = 2048

_MARK = "\x00array"  # an array's place in the JSON skeleton; json escapes the NUL


def _block_text(block: np.ndarray) -> str:
    """``repr(block.tolist())``: the text of every float of a block of at most CHUNK_ROWS rows."""
    return repr(block.tolist())


def _block_texts(a: np.ndarray):
    """The _block_text of each block of CHUNK_ROWS rows of ``a``, in order."""
    return (_block_text(a[start:start + CHUNK_ROWS]) for start in range(0, len(a), CHUNK_ROWS))


def _row_texts(text: str) -> list[str]:
    """The rows of a 1- or 2-D ``_block_text`` as CSV text: "a,b" for a row [a, b], "a" for an
    entry a of a 1-D block."""
    if text.startswith("[["):
        return text[2:-2].replace(", ", ",").split("],[")
    return text[1:-1].split(", ")


def _csv_rows(texts) -> str:
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


def write_json(path: str | Path, payload, tables=()) -> None:
    """``payload`` as indent=1, sorted-key JSON, its float arrays streamed block by block, and
    each table ``(csv_path, header, columns)`` as ``write_csv`` writes it.

    A column that is a float array of ``payload`` (the same object) is cut from that array's
    JSON text; any other column is formatted once per call.  A table is written while the
    last of its arrays in the document streams, and the text of its earlier ones is held
    until then; a table with none is written by write_csv.
    """
    parts, arrays, levels = _json_skeleton(payload)
    tables = [(csv_path, header, _table_columns(header, columns))
              for csv_path, header, columns in tables]
    last = {id(a): p for p, a in enumerate(arrays)}  # each array's last place in the document
    due, keep, held = {}, {}, {}  # keep: array id -> the place of the last table that needs it
    for csv_path, header, columns in tables:
        p = max(last.get(id(c), -1) for c in columns)
        if p < 0:
            write_csv(csv_path, header, columns)
            continue
        due.setdefault(p, []).append((csv_path, header, columns))
        for c in columns:
            if id(c) not in last and id(c) not in held:
                held[id(c)] = list(_block_texts(c))
            elif last.get(id(c), p) < p:
                keep[id(c)] = max(keep.get(id(c), p), p)
    with open(path, "w") as f:
        for p, (part, a, level) in enumerate(zip(parts, arrays, levels)):
            layout, texts = _JsonArray(a.ndim, level), _block_texts(a)
            if last[id(a)] == p and id(a) in keep:
                texts = held[id(a)] = list(texts)
            f.write(part + layout.head)
            with ExitStack() as stack:
                csvs = [(stack.enter_context(open(csv_path, "w")), header,
                         [held.get(id(c)) for c in columns])
                        for csv_path, header, columns in due.get(p, ())]
                for csv, header, _ in csvs:
                    csv.write(",".join(header) + "\n")
                for b, text in enumerate(texts):
                    f.write(layout.block(text, not b))
                    for csv, _, sources in csvs:
                        csv.write(_csv_rows([text if s is None else s[b] for s in sources]))
            f.write(layout.tail)
            for x in [x for x, q in keep.items() if q == p]:
                del held[x]
        f.write(parts[-1])


def write_csv(path: str | Path, header: list[str], columns) -> None:
    """Equal-length columns as CSV rows under ``header``, ``repr(float(x))`` per cell; a 2-D
    column fills one CSV column per entry of its rows.  Each block of rows of the columns is
    formatted as one 2-D block."""
    columns = _table_columns(header, columns)
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), CHUNK_ROWS):
            block = np.column_stack([c[start:start + CHUNK_ROWS] for c in columns])
            f.write(_csv_rows([_block_text(block)]))


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
