"""On-disk formats: column-major binary matrices with JSON sidecars, and
deterministic CSV tables (header row, '.' decimal, LF endings, repr-exact
floats so replays are byte-identical)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def save_matrix(path, array, config_hash: str | None = None) -> None:
    """Write a float64 matrix as a column-major blob plus a JSON sidecar.

    ``path`` should carry the .bin suffix; the sidecar sits next to it
    with .json.
    """
    path = Path(path)
    a = np.ascontiguousarray(np.atleast_2d(np.asarray(array, dtype=np.float64)).T)
    path.write_bytes(a.tobytes())   # contiguous transpose == column-major original
    sidecar = {
        "rows": int(a.shape[1]),
        "cols": int(a.shape[0]),
        "dtype": "float64",
        "order": "column-major",
    }
    if config_hash is not None:
        sidecar["config_hash"] = config_hash
    path.with_suffix(".json").write_text(
        json.dumps(sidecar, sort_keys=True, separators=(",", ":")) + "\n")


def load_matrix(path) -> np.ndarray:
    path = Path(path)
    sidecar = json.loads(path.with_suffix(".json").read_text())
    if sidecar["dtype"] != "float64":
        raise ValueError(f"unsupported dtype {sidecar['dtype']!r}")
    flat = np.frombuffer(path.read_bytes(), dtype=np.float64)
    rows, cols = sidecar["rows"], sidecar["cols"]
    if flat.shape[0] != rows * cols:
        raise ValueError(f"blob size does not match sidecar dims {rows}x{cols}")
    return flat.reshape((cols, rows)).T.copy()


def _format(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, columns: dict, config_hash: str | None = None) -> None:
    """Write named columns of equal length; floats keep full precision."""
    names = list(columns)
    data = [np.asarray(columns[name]) for name in names]
    length = data[0].shape[0]
    if any(col.shape[0] != length for col in data):
        raise ValueError("CSV columns must have equal length")
    lines = []
    if config_hash is not None:
        lines.append(f"# config_hash={config_hash}")
    lines.append(",".join(names))
    for i in range(length):
        lines.append(",".join(_format(col[i]) for col in data))
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def read_csv(path) -> dict:
    """Read a table written by ``write_csv`` back into float columns; a row
    whose cell count is not the header's is refused."""
    lines = Path(path).read_text().splitlines()
    rows = [ln for ln in lines if ln and not ln.startswith("#")]
    names = rows[0].split(",")
    values = [[] for _ in names]
    for ln in rows[1:]:
        cells = ln.split(",")
        if len(cells) != len(names):
            raise ValueError(f"a row of {len(cells)} cells under {len(names)} column names")
        for slot, cell in zip(values, cells):
            slot.append(float(cell))
    return {name: np.asarray(vals) for name, vals in zip(names, values)}


def artifact_hash(path) -> str | None:
    """The config hash an artifact was written with, or None if it has none.

    A ``.bin`` matrix carries it in its JSON sidecar, a CSV table on its
    first line, and a JSON document as its ``config_hash`` field.
    """
    path = Path(path)
    if path.suffix == ".bin":
        return json.loads(path.with_suffix(".json").read_text()).get("config_hash")
    if path.suffix == ".csv":
        with path.open() as fh:
            first = fh.readline().rstrip("\n")
        prefix = "# config_hash="
        return first[len(prefix):] if first.startswith(prefix) else None
    return json.loads(path.read_text()).get("config_hash")


def write_json(path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", newline="\n")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())
