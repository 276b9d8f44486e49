"""The file boundary: every file trafgen reads or writes passes through here.

Writes are atomic, so a failed write leaves any previous file intact. Reads
raise DataError naming the file and its kind for an OSError, and for any
KeyError, TypeError, ValueError or IndexError (or YAML or CSV syntax error)
raised while its contents are interpreted. The ``parse`` callbacks run
inside that boundary; they report a content problem by raising ValueError.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import warnings
from operator import itemgetter
from pathlib import Path

import numpy as np
import yaml

from .errors import DataError

DEVIATION_FORMAT = "trafgen-deviations/1"

# trajectory and scene CSV columns; the leading ones key each aircraft
_TRAJECTORY_LAYOUTS = (("scene_id", "aircraft_idx", "t", "x", "y", "z"),
                       ("traj_id", "t", "x", "y", "z"))

_MALFORMED = (KeyError, TypeError, ValueError, IndexError, csv.Error,
              yaml.YAMLError)


# ---------------------------------------------------------------------------
# Writes

@contextlib.contextmanager
def atomic_path(path: str | Path):
    """Yield a temporary path beside ``path``; on success it replaces ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_text(path: str | Path, text: str) -> None:
    with atomic_path(path) as tmp:
        tmp.write_text(text, encoding="utf-8")


def write_json(path: str | Path, doc: dict) -> None:
    """A report or sidecar: sorted keys, indent 1, trailing newline."""
    write_text(path, json.dumps(doc, sort_keys=True, indent=1) + "\n")


def write_deviation_dataset(path: Path, data: np.ndarray, segment_kind: str,
                            segment_length: int, rows: list[dict]) -> None:
    with atomic_path(path) as tmp:
        np.savetxt(tmp, data, delimiter=",", fmt="%.17g")
    write_json(path.with_suffix(".meta.json"), {
        "format": DEVIATION_FORMAT, "segment_kind": segment_kind,
        "T": segment_length, "rows": rows})


def _csv_field(value) -> str:
    """``value`` as ``csv.writer`` writes it: quoted when it holds a comma,
    a quote or a line break, with quotes doubled."""
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_trajectory_csv(path: Path, key_columns: list[str], rows) -> None:
    """Write (keys, times, points) rows as one CSV line per sample.

    The bytes are those of ``csv.writer``: CRLF line ends, floats as
    ``repr``, and keys quoted where it would quote them.
    """
    with atomic_path(path) as tmp, \
            tmp.open("w", newline="", encoding="utf-8") as handle:
        handle.write(",".join([*key_columns, "t", "x", "y", "z"]) + "\r\n")
        # one write per trajectory, so memory stays bounded by one of them
        for keys, times, points in rows:
            prefix = "".join(_csv_field(key) + "," for key in keys)
            handle.write("".join([
                f"{prefix}{t!r},{x!r},{y!r},{z!r}\r\n" for t, (x, y, z)
                in zip(np.asarray(times, dtype=float).tolist(),
                       np.asarray(points, dtype=float).tolist())]))


# ---------------------------------------------------------------------------
# Reads

@contextlib.contextmanager
def _reading(path, kind: str):
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot read {kind} {path}: {exc.strerror or exc}") from exc
    except _MALFORMED as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise DataError(f"{path}: malformed {kind}: {reason}") from exc


def read_keyvalue(path: str | Path, kind: str, parse):
    """``parse(values)`` of a flat ``key = value`` file; ``#`` starts a comment.

    A key given twice is an error, not a silent override.
    """
    with _reading(path, kind):
        values = {}
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        for lineno, raw in enumerate(lines, start=1):
            key, sep, value = raw.split("#", 1)[0].partition("=")
            key = key.strip()
            if not sep and key:
                raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
            if sep:
                if key in values:
                    raise ValueError(f"line {lineno}: duplicate key {key!r}")
                values[key] = value.strip()
        return parse(values)


def read_json(path: str | Path, kind: str, parse, *, tag: str | None = None):
    """``parse(doc)`` of a JSON document whose ``format`` must equal ``tag``."""
    with _reading(path, kind):
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if tag is not None and doc["format"] != tag:
            raise ValueError(f"unsupported format {doc['format']!r}")
        return parse(doc)


def read_yaml(path: str | Path, kind: str, parse):
    """``parse(documents)`` of a YAML stream."""
    with _reading(path, kind):
        return parse(list(yaml.safe_load_all(Path(path).read_text(encoding="utf-8"))))


def read_csv(path: str | Path, kind: str, layouts, parse, *,
             optional=(), errors: list[str] | None = None):
    """Yield ``parse(fields)`` for every non-blank data row of a CSV file.

    The header must name every column of one of ``layouts`` (the first that
    fits is used); ``fields`` holds a row's values of those columns, then of
    the ``optional`` ones the header and the row have. A row that lacks a
    column, or that ``parse`` rejects with ValueError or TypeError, gives
    ``path:line: reason``: appended to ``errors`` and skipped when a list is
    given, raised as DataError otherwise.
    """
    with _reading(path, kind), open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        columns = next((c for c in layouts if set(c) <= set(header)), None)
        if columns is None:
            raise DataError(f"{path}: header must contain columns "
                            + " or ".join(",".join(c) for c in layouts))
        index = [header.index(c) for c in columns]
        extra = [header.index(c) for c in optional if c in header]
        pick, width = itemgetter(*index), max(index) + 1
        for row in filter(None, reader):
            try:
                if len(row) < width:
                    missing = next(c for c, i in zip(columns, index) if i >= len(row))
                    raise ValueError(f"missing column {missing!r}")
                fields = pick(row) + tuple(row[i] for i in extra if i < len(row))
                record = parse(fields)
            except (ValueError, TypeError) as exc:
                if errors is None:
                    raise DataError(f"{path}:{reader.line_num}: {exc}") from exc
                errors.append(f"{path}:{reader.line_num}: {exc}")
                continue
            yield record


def _dataset_meta(doc: dict) -> tuple[dict, int]:
    """The meta sidecar, every row's keys checked, and the row width."""
    for i, row in enumerate(doc["rows"]):
        missing = [k for k in ("flight_id", "procedure", "arrival_time") if k not in row]
        if missing:
            raise ValueError(f"row {i} lacks {', '.join(missing)}")
    return doc, 3 * int(doc["T"]) + 2


def read_deviation_dataset(path: Path) -> tuple[np.ndarray, dict]:
    """A deviation dataset's (m, 3T+2) matrix and its checked meta."""
    with _reading(path, "deviation dataset"), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no data: raised below
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    if not len(data):
        raise DataError(f"{path}: dataset has no rows")
    meta, width = read_json(path.with_suffix(".meta.json"), "dataset meta",
                            _dataset_meta, tag=DEVIATION_FORMAT)
    if data.shape[1] != width:
        raise DataError(f"{path}: expected {width} columns, found {data.shape[1]}")
    if len(data) != len(meta["rows"]):
        raise DataError(f"{path}: {len(data)} rows, but its meta lists "
                        f"{len(meta['rows'])}")
    return data, meta


def read_trajectory_file(path: Path) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """A trajectory or scene CSV as a list of scenes of (times, points).

    Trajectory files yield one single-aircraft scene per trajectory; scene
    files group aircraft by scene id. Every aircraft's times must strictly
    increase.
    """
    scenes: dict[str, dict[tuple, list]] = {}
    for key, sample in read_csv(path, "trajectory file", _TRAJECTORY_LAYOUTS,
                                lambda f: (f[:-4], tuple(map(float, f[-4:])))):
        scenes.setdefault(key[0], {}).setdefault(key, []).append(sample)
    for aircraft in scenes.values():
        for key, samples in aircraft.items():
            arr = aircraft[key] = np.asarray(samples)
            if np.any(np.diff(arr[:, 0]) <= 0):
                raise DataError(f"{path}: times of aircraft {'/'.join(key)} "
                                "do not strictly increase")
    return [[(arr[:, 0], arr[:, 1:4]) for arr in aircraft.values()]
            for aircraft in scenes.values()]
