"""Files: JSON and CSV written in bounded chunks of rows, floats formatted in C.

The bytes are those of ``json.dumps(payload, indent=1, sort_keys=True)`` with
arrays as nested lists, and of a CSV with ``repr(float(x))`` per cell.  A chunk
is formatted by ``repr(chunk.tolist())``, which calls ``float.__repr__`` per
number as ``json`` does, and its separators are rewritten with ``str.replace``.
JSON is read back with the cyclic garbage collector paused.
"""

from __future__ import annotations

import gc
import json
from pathlib import Path

import numpy as np

CHUNK_ROWS = 2048

_MARK = "\x00array"  # an array's place in the JSON skeleton; json escapes the NUL


def _write_array(f, a: np.ndarray, level: int) -> None:
    """The indent=1 JSON of ``a``, its opening bracket on a line indented by ``level``."""
    if a.ndim == 0 or a.size == 0:
        f.write(json.dumps(a.tolist(), indent=1).replace("\n", "\n" + " " * level))
        return
    k = a.ndim
    pad = ["\n" + " " * (level + depth) for depth in range(k + 1)]
    # The repr's separators "]]], [[[" .. ", ", j brackets closing and opening around the
    # comma; a longer one contains the shorter ones, so it is rewritten first.
    seps = [("]" * j + ", " + "[" * j,
             "".join(pad[k - 1 - i] + "]" for i in range(j)) + ","
             + "".join(pad[k - j + i] + "[" for i in range(j)) + pad[k])
            for j in range(k - 1, -1, -1)]
    f.write("".join("[" + pad[i + 1] for i in range(k)))
    for start in range(0, len(a), CHUNK_ROWS):
        if start:
            f.write(seps[0][1])
        text = repr(a[start:start + CHUNK_ROWS].tolist())[k:-k]
        for old, new in seps:
            text = text.replace(old, new)
        f.write(text.replace("nan", "NaN").replace("inf", "Infinity"))
    f.write("".join(pad[k - 1 - i] + "]" for i in range(k)))


def write_json(path: str | Path, payload) -> None:
    """``payload`` as indent=1, sorted-key JSON; ndarray leaves are streamed chunk by chunk."""
    arrays = []

    def hold(obj):
        if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
            arrays.append(obj)
            return _MARK
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    parts = json.dumps(payload, indent=1, sort_keys=True, default=hold).split(json.dumps(_MARK))
    if len(parts) != len(arrays) + 1:
        raise ValueError("payload contains the array placeholder string")
    with open(path, "w") as f:
        for part, a in zip(parts, arrays):
            f.write(part)
            line = part[part.rfind("\n") + 1:]
            _write_array(f, a, len(line) - len(line.lstrip(" ")))
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
            rows = repr(block.T.tolist())[2:-2].replace("], [", "\n").replace(", ", ",")
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
