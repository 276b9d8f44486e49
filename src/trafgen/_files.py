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
from functools import partial
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path

import numpy as np
import yaml

from .errors import DataError

DEVIATION_FORMAT = "trafgen-deviations/1"

# trajectory and scene CSV columns; the leading ones key each aircraft
_TRAJECTORY_LAYOUTS = ((("scene_id", "aircraft_idx"), ("t", "x", "y", "z")),
                       (("traj_id",), ("t", "x", "y", "z")))

# lines per block of read_csv, which bounds its working memory
CSV_BLOCK_LINES = 4096
# the lines csv reads as empty rows
_BLANK_LINES = frozenset(("\n", "\r", "\r\n"))

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


def read_csv(path: str | Path, kind: str, layouts, parse, *, check=None,
             optional=(), errors: list[str] | None = None):
    """Yield ``(key, values)`` for every run of data rows with one key.

    ``layouts`` are (key columns, value columns) pairs. The header must name
    every column of one of them (the first that fits is used); a row's
    ``fields`` are its values of those columns, then of the ``optional``
    ones the header and the row have, and ``parse(fields)`` gives its values
    as floats. ``key`` is the tuple of a run's key fields and ``values`` the
    (n, v) float64 array of its rows' values, in file order. A row that
    lacks a column, or that ``parse`` rejects with ValueError or TypeError,
    gives ``path:line: reason``: appended to ``errors`` and skipped when a
    list is given, raised as DataError otherwise.

    The file is read in blocks of ``CSV_BLOCK_LINES`` lines, in array
    passes. numpy's C parser reads a block's key and optional fields as
    strings and its value fields as float64; it reads a subset of what
    float() reads, to the same values. When it rejects a value, float()
    reads each of the block's value fields instead. So ``parse`` must give
    float() of the value fields, and reject a row exactly when a value field
    or a nonempty optional field is not a number or when ``check(values)``,
    a row mask, flags it: only the rows that fail one of these checks go
    through ``parse``, which gives their message. A block holding a quote, a
    line longer than csv's field limit, or a row the tokenizer rejects (a
    short one) is read by csv, row by row, so every result and message is
    csv's.
    """
    with _reading(path, kind), open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        layout = next((l for l in layouts if set(l[0] + l[1]) <= set(header)), None)
        if layout is None:
            raise DataError(f"{path}: header must contain columns "
                            + " or ".join(",".join(k + v) for k, v in layouts))
        n_keys, columns = len(layout[0]), layout[0] + layout[1]
        index = [header.index(c) for c in columns]
        extra = [header.index(c) for c in optional if c in header]
        pick, width = itemgetter(*index), max(index) + 1

        def parse_row(line_no: int, row: list[str]):
            """A csv row's (key, values), or None once its error is reported."""
            try:
                if len(row) < width:
                    missing = next(c for c, i in zip(columns, index) if i >= len(row))
                    raise ValueError(f"missing column {missing!r}")
                fields = pick(row) + tuple(row[i] for i in extra if i < len(row))
                return fields[:n_keys], parse(fields)
            except (ValueError, TypeError) as exc:
                if errors is None:
                    raise DataError(f"{path}:{line_no}: {exc}") from exc
                errors.append(f"{path}:{line_no}: {exc}")
                return None

        # a row's key and optional fields as strings, its values as float64
        record = np.dtype([("keys", object, (n_keys,)),
                           ("values", float, (len(columns) - n_keys,)),
                           ("optional", object, (len(extra),))])

        def array_pass(block: list[str], before: int):
            """(keys, values, lines read) of a block read in array passes, or
            None when csv must read it; ``before`` lines precede the block."""
            rows = (range(len(block)) if _BLANK_LINES.isdisjoint(block) else
                    [i for i, line in enumerate(block) if line not in _BLANK_LINES])
            if (not rows or '"' in "".join(block)
                    or max(map(len, block)) > csv.field_size_limit()):
                return None
            lines = block if len(rows) == len(block) else [block[i] for i in rows]
            load = partial(np.loadtxt, lines, delimiter=",", comments=None,
                           usecols=index + extra)
            try:  # the numbers by numpy's C parser
                parsed = load(dtype=record, ndmin=1)
                keys, values = parsed["keys"], parsed["values"]
                present, flagged = parsed["optional"], np.zeros(len(rows), dtype=bool)
            except ValueError:  # by float(), which reads more of them
                try:
                    fields = load(dtype=object, ndmin=2)
                except ValueError:
                    return None
                keys, present = fields[:, :n_keys], fields[:, len(columns):]
                values, flagged = _floats(fields[:, n_keys:len(columns)])
            if len(keys) != len(rows):
                return None
            if present.size:  # optional fields may be empty
                flagged |= _floats(np.where(present == "", "0", present))[1]
            if check is not None:
                flagged |= check(values)
            keep = ~flagged
            for j in np.flatnonzero(flagged).tolist():
                parsed_row = parse_row(before + rows[j] + 1,
                                       lines[j].rstrip("\r\n").split(","))
                if parsed_row is not None:
                    keep[j] = True
                    values[j] = parsed_row[1]
            return keys[keep], values[keep], len(block)

        def csv_pass(block: list[str], before: int):
            """(keys, values, lines read) of a block read by csv; a quoted
            field may run on into the lines after the block."""
            rows = csv.reader(chain(block, handle))
            keys, values = [], []
            while rows.line_num < len(block):
                row = next(rows)
                parsed = parse_row(before + rows.line_num, row) if row else None
                if parsed is not None:
                    keys.append(parsed[0])
                    values.append(parsed[1])
            return (np.array(keys, dtype=object).reshape(-1, n_keys),
                    np.array(values, dtype=float).reshape(-1, len(layout[1])),
                    rows.line_num)

        before = reader.line_num
        while True:
            block, failure = [], None
            try:
                block.extend(islice(handle, CSV_BLOCK_LINES))
            except UnicodeDecodeError as exc:  # the rows before it count first
                failure = exc
            keys, values, read = array_pass(block, before) or csv_pass(block, before)
            before += read
            yield from _runs(keys, values)
            if failure is not None:
                raise failure
            if len(block) < CSV_BLOCK_LINES:
                return


def _floats(fields: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """float() of every field of an (n, c) object array of strings, with NaN
    for a field float() rejects, and the mask of rows that hold one."""
    numbers = _FLOAT_OR_NONE(fields)
    return numbers.astype(float), np.equal(numbers, None).any(axis=1)


def _float_or_none(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


_FLOAT_OR_NONE = np.frompyfunc(_float_or_none, 1, 1)


def _runs(keys: np.ndarray, values: np.ndarray):
    """(key tuple, values) of each run of rows with equal keys."""
    if len(keys):
        bounds = [0, *(np.flatnonzero((keys[1:] != keys[:-1]).any(axis=1)) + 1)
                  .tolist(), len(keys)]
        for start, end in zip(bounds, bounds[1:]):
            yield tuple(keys[start]), values[start:end]


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
    for key, values in read_csv(path, "trajectory file", _TRAJECTORY_LAYOUTS,
                                lambda f: tuple(map(float, f[-4:]))):
        scenes.setdefault(key[0], {}).setdefault(key, []).append(values)
    for aircraft in scenes.values():
        for key, runs in aircraft.items():
            arr = aircraft[key] = np.concatenate(runs)
            if np.any(np.diff(arr[:, 0]) <= 0):
                raise DataError(f"{path}: times of aircraft {'/'.join(key)} "
                                "do not strictly increase")
    return [[(arr[:, 0], arr[:, 1:4]) for arr in aircraft.values()]
            for aircraft in scenes.values()]
