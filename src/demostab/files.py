"""Files: JSON and CSV written in bounded chunks of rows, each float formatted once, in C.

The bytes are those of ``json.dumps(payload, indent=1, sort_keys=True)`` with
arrays as nested lists, and of a CSV with ``repr(float(x))`` per cell.  Every
float goes through ``block_text``, the ``repr(block.tolist())`` of a block of
at most CHUNK_ROWS rows, which calls ``float.__repr__`` per number as ``json``
does; the writers only rewrite that text's brackets and separators, with
``str.replace``, ``split`` and ``join``.  A file written from the same numbers
as another (``trajectory.json`` with ``trajectory.csv``, the demo CSVs with
``demo_set.json``) is cut from the same text.  JSON is read back with the
cyclic garbage collector paused.
"""

from __future__ import annotations

import gc
import json
from pathlib import Path

import numpy as np

CHUNK_ROWS = 2048

_MARK = "\x00array"  # an array's place in the JSON skeleton; json escapes the NUL


def block_text(block: np.ndarray) -> str:
    """``repr(block.tolist())``: the text of every float of a block of at most CHUNK_ROWS rows."""
    return repr(block.tolist())


def block_texts(a: np.ndarray):
    """The block_text of each block of CHUNK_ROWS rows of ``a``, in order."""
    return (block_text(a[start:start + CHUNK_ROWS]) for start in range(0, len(a), CHUNK_ROWS))


def row_texts(text: str) -> list[str]:
    """The rows of a 1- or 2-D ``block_text`` as CSV text: "a,b" for a row [a, b], "a" for an
    entry a of a 1-D block."""
    if text.startswith("[["):
        return text[2:-2].replace(", ", ",").split("],[")
    return text[1:-1].split(", ")


class JsonArray:
    """The indent=1 JSON of a k-dimensional float array, opening bracket on a line indented by
    ``level``: ``head``, then ``block`` of each block_text in order, then ``tail``."""

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
        """The JSON of the rows whose block_text is ``text``; after the first block, with the
        separator of two rows in front."""
        text = text[self.k:-self.k]
        for old, new in self.seps:
            text = text.replace(old, new)
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
        return text if first else self.seps[0][1] + text


def write_array(f, a: np.ndarray, level: int) -> None:
    """The indent=1 JSON of ``a``, its opening bracket on a line indented by ``level``."""
    if a.ndim == 0 or a.size == 0:
        f.write(json.dumps(a.tolist(), indent=1).replace("\n", "\n" + " " * level))
        return
    layout = JsonArray(a.ndim, level)
    f.write(layout.head)
    f.writelines(layout.block(text, not b) for b, text in enumerate(block_texts(a)))
    f.write(layout.tail)


def json_skeleton(payload) -> tuple[list[str], list[np.ndarray], list[int]]:
    """The indent=1, sorted-key JSON of ``payload`` cut at its float ndarrays.

    Returns (parts, arrays, levels): the document is parts[0], arrays[0] as JSON with its
    opening bracket on a line indented by levels[0], parts[1], ..., parts[-1].
    """
    arrays = []

    def hold(obj):
        if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
            arrays.append(obj)
            return _MARK
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    parts = json.dumps(payload, indent=1, sort_keys=True, default=hold).split(json.dumps(_MARK))
    if len(parts) != len(arrays) + 1:
        raise ValueError("payload contains the array placeholder string")
    lines = [part[part.rfind("\n") + 1:] for part in parts[:-1]]
    return parts, arrays, [len(line) - len(line.lstrip(" ")) for line in lines]


def write_json(path: str | Path, payload) -> None:
    """``payload`` as indent=1, sorted-key JSON; ndarray leaves are streamed chunk by chunk."""
    parts, arrays, levels = json_skeleton(payload)
    with open(path, "w") as f:
        for part, a, level in zip(parts, arrays, levels):
            f.write(part)
            write_array(f, a, level)
        f.write(parts[-1])


def write_csv(path: str | Path, header: list[str], columns: list[np.ndarray],
              json_path: str | Path | None = None) -> None:
    """Equal-length columns as CSV rows under ``header``, ``repr(float(x))`` per cell.

    With ``json_path``, also the ``write_json`` bytes of ``{name: column}`` from the same
    formatted chunks; that file's text is held until the CSV is complete.
    """
    held = [[] for _ in columns]
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), CHUNK_ROWS):
            block = np.array([c[start:start + CHUNK_ROWS] for c in columns], dtype=float)
            rows = block_text(block.T)[2:-2].replace("], [", "\n").replace(", ", ",")
            f.write(rows + "\n")
            if json_path is not None:
                cells = rows.replace("nan", "NaN").replace("inf", "Infinity")
                cells = cells.replace("\n", ",").split(",")
                for j, frags in enumerate(held):
                    frags.append(",\n  ".join(cells[j::len(columns)]))
    if json_path is not None:
        with open(json_path, "w") as f:
            for i, (name, frags) in enumerate(sorted(dict(zip(header, held)).items())):
                f.write(("," if i else "{") + f"\n {json.dumps(name)}: ")
                f.write("[\n  " + ",\n  ".join(frags) + "\n ]" if frags else "[]")
            f.write("\n}")


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
