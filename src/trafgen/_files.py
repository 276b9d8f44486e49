"""The file boundary: every file trafgen reads or writes passes through here.

Writes are atomic, so a failed write leaves any previous file intact. Reads
raise DataError naming the file and its kind for an OSError, and for any
KeyError, TypeError, ValueError, IndexError or OverflowError (or YAML or CSV
syntax error) raised while its contents are interpreted. The ``parse`` callbacks run
inside that boundary; they report a content problem by raising ValueError.
``read_csv`` and ``read_deviation_dataset`` check their data themselves: there
only an OSError or their parser's error for a malformed file is a DataError,
and any other exception is a defect and propagates.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import sys
import tokenize
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import DataError
from . import preprocess

DEVIATION_FORMAT = "trafgen-deviations/2"

# trajectory and scene CSV columns; the leading ones key each aircraft
_TRAJECTORY_LAYOUTS = ((("scene_id", "aircraft_idx"), ("t", "x", "y", "z")),
                       (("traj_id",), ("t", "x", "y", "z")))

# the lines csv reads as empty rows
_BLANK_LINES = frozenset(("\n", "\r", "\r\n"))

_MALFORMED = (KeyError, TypeError, ValueError, IndexError, OverflowError, csv.Error)
# what read_csv's own parsing raises for a malformed file
_MALFORMED_CSV = (csv.Error, UnicodeDecodeError)
# what numpy's .npy reader raises for a malformed file, its header included
_MALFORMED_NPY = (ValueError, TypeError, tokenize.TokenError)


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


def write_text(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the concatenated ``chunks`` as UTF-8, one chunk at a time."""
    with atomic_path(path) as tmp, tmp.open("w", encoding="utf-8") as handle:
        handle.writelines(chunks)


def json_chunks(value) -> Iterator[str]:
    """The text of ``json.dumps(value, sort_keys=True, allow_nan=False)``
    in pieces, where ``value``'s dict keys are strings and its leaves may
    be arrays: each array is dumped from its own ``tolist()``, so no more
    than one is held as Python lists or as text. A value that is not finite
    raises json's ValueError."""
    if isinstance(value, dict):
        yield "{"
        for i, key in enumerate(sorted(value)):
            yield f"{', ' if i else ''}{json.dumps(key)}: "
            yield from json_chunks(value[key])
        yield "}"
    elif isinstance(value, list):
        yield "["
        for i, item in enumerate(value):
            if i:
                yield ", "
            yield from json_chunks(item)
        yield "]"
    else:
        if isinstance(value, np.ndarray):
            value = value.tolist()
        yield json.dumps(value, allow_nan=False)


def write_json(path: str | Path, doc: dict) -> None:
    """A report or sidecar: sorted keys, indent 1, trailing newline.

    Model files are written by ``mixture.write_models``, not here."""
    write_text(path, (json.dumps(doc, sort_keys=True, indent=1), "\n"))


def write_deviation_dataset(path: Path, data: np.ndarray, segment_kind: str,
                            segment_length: int, rows: list[dict]) -> None:
    """The float64 matrix as ``.npy`` (``np.save``'s bytes), then its meta."""
    with atomic_path(path) as tmp, tmp.open("wb") as handle:
        np.lib.format.write_array(handle, data, allow_pickle=False)
    write_json(path.with_suffix(".meta.json"), {
        "format": DEVIATION_FORMAT, "segment_kind": segment_kind,
        "T": segment_length, "rows": rows})


def write_trajectory_csv(path: Path, key_columns: list[str], rows) -> None:
    """Write (keys, times, points) rows as one CSV line per sample.

    The bytes are those of ``csv.writer``: CRLF line ends, floats as
    ``repr``, and the keys, integers, as ``str``. Times that do not strictly
    increase, which ``read_trajectory_file`` rejects, raise ValueError
    naming the row's keys; the file is then left as it was.
    """
    with atomic_path(path) as tmp, \
            tmp.open("w", newline="", encoding="utf-8") as handle:
        handle.write(",".join([*key_columns, "t", "x", "y", "z"]) + "\r\n")
        # one write per trajectory, so memory stays bounded by one of them
        for keys, times, points in rows:
            times = np.asarray(times, dtype=float)
            if np.any(np.diff(times) <= 0):
                raise ValueError(f"times of aircraft {'/'.join(map(str, keys))} "
                                 "do not strictly increase")
            prefix = "".join(f"{key}," for key in keys)
            handle.write("".join([
                f"{prefix}{t!r},{x!r},{y!r},{z!r}\r\n" for t, (x, y, z)
                in zip(times.tolist(), np.asarray(points, dtype=float).tolist())]))


# ---------------------------------------------------------------------------
# Reads

@contextlib.contextmanager
def _reading(path, kind: str, malformed=_MALFORMED):
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot read {kind} {path}: {exc.strerror or exc}") from exc
    except malformed as exc:
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
    import yaml  # only the commands that read procedure files load it
    with _reading(path, kind, _MALFORMED + (yaml.YAMLError,)):
        return parse(list(yaml.safe_load_all(Path(path).read_text(encoding="utf-8"))))


def read_csv(path: str | Path, kind: str, layouts, rules, *, optional=(),
             errors: list[str] | None = None):
    """Yield ``(key, values)`` for every run of data rows with one key.

    ``layouts`` are (key columns, value columns) pairs. The header must name
    every column of one of them (the first that fits is used); the
    ``optional`` columns the header has are read too. ``key`` is the tuple of
    a run's key fields and ``values`` the (n, v) float64 array of its rows'
    values, in file order. A row is rejected for the first of these that
    holds, in this order: it lacks a column; a value field is not a number
    to float() (float()'s message); one of ``rules`` flags it; a nonempty
    optional field is not a number to float() (float()'s message). A rule
    is a ``(mask, message)`` pair: ``mask(values)`` flags rows of a block's
    (n, v) values, and ``message.format(*row)`` gives the reason, the row's
    values as Python floats. A rejected row gives ``path:line: reason``:
    appended to ``errors`` and skipped when a list is given, raised as
    DataError otherwise; either way rows are reported in line order.

    The file is read in blocks of whole lines, each ending at the line that
    brings it to ``preprocess.CHUNK_BYTES`` at 1,024 bytes a line and 4 a
    character: more than its arrays took, traced, on lines of 17 to 386
    characters (230 to 1,390 bytes). numpy's C parser reads a block's value
    fields as float64, a subset of what float() reads, to the same values.
    A block holding a blank line, a quote, a line longer than csv's field
    limit, or a field the parser rejects (a short row, or a value only
    float() reads) is read by csv, and float() converts its value fields in
    one pass, so every result and message is csv's and float()'s.
    """
    with (_reading(path, kind, _MALFORMED_CSV),
          open(path, newline="", encoding="utf-8") as handle):
        reader = csv.reader(handle)
        header = next(reader, [])
        layout = next((l for l in layouts if set(l[0] + l[1]) <= set(header)), None)
        if layout is None:
            raise DataError(f"{path}: header must contain columns "
                            + " or ".join(",".join(k + v) for k, v in layouts))
        n_keys, columns = len(layout[0]), layout[0] + layout[1]
        index = [header.index(c) for c in columns]
        extra = [header.index(c) for c in optional if c in header]
        pick, width = itemgetter(*index, *extra), max(index) + 1
        # a row's key and optional fields as strings, its values as float64
        record = np.dtype([("keys", object, (n_keys,)),
                           ("values", float, (len(columns) - n_keys,)),
                           ("optional", object, (len(extra),))])

        def screen(lines, keys, values, present, reasons):
            """Report each rejected row in line order, and give the (keys,
            values) of the rest; ``reasons`` holds those found so far."""
            rule_reasons(rules, values, reasons)
            if present.size:  # optional fields may be empty
                _convert(np.where(present == "", "0", present), reasons)
            for j in sorted(reasons):
                message = f"{path}:{lines[j]}: {reasons[j]}"
                if errors is None:
                    raise DataError(message)
                errors.append(message)
            keep = np.ones(len(values), dtype=bool)
            keep[list(reasons)] = False
            return keys[keep], values[keep]

        def numpy_pass(block: list[str], before: int):
            """(keys, values, lines read) of a block read by numpy's C
            parser, or None when csv must read it; ``before`` lines precede
            the block."""
            if (not block or not _BLANK_LINES.isdisjoint(block)
                    or '"' in "".join(block)
                    or max(map(len, block)) > csv.field_size_limit()):
                return None
            try:
                parsed = np.loadtxt(block, delimiter=",", comments=None,
                                    usecols=index + extra, dtype=record, ndmin=1)
            except ValueError:
                return None
            return (*screen(range(before + 1, before + len(block) + 1),
                            parsed["keys"], parsed["values"], parsed["optional"], {}),
                    len(block))

        def csv_pass(block: list[str], before: int):
            """(keys, values, lines read) of a block read by csv. A quoted
            field may run on into the lines after the block; the rows before
            a csv or decoding error are reported before it."""
            rows = csv.reader(chain(block, handle))
            lines, fields, reasons, failure = [], [], {}, None
            try:
                while rows.line_num < len(block):
                    row = next(rows)
                    if row:
                        if len(row) < width:
                            missing = next(c for c, i in zip(columns, index)
                                           if i >= len(row))
                            reasons[len(lines)] = f"missing column {missing!r}"
                        lines.append(before + rows.line_num)
                        # a field the row lacks reads as empty
                        fields.append(pick(row + [""] * len(header)))
            except (csv.Error, UnicodeDecodeError) as exc:
                failure = exc
            fields = np.array(fields, dtype=object).reshape(
                len(lines), len(columns) + len(extra))
            values = _convert(fields[:, n_keys:len(columns)], reasons)
            kept = screen(lines, fields[:, :n_keys], values,
                          fields[:, len(columns):], reasons)
            if failure is not None:
                raise failure
            return (*kept, rows.line_num)

        before = reader.line_num
        while True:
            block, size, failure = [], 0, None
            try:
                while size < preprocess.CHUNK_BYTES and (line := handle.readline()):
                    block.append(line)
                    size += 1024 + 4 * len(line)
            except UnicodeDecodeError as exc:  # the rows before it count first
                failure = exc
            keys, values, read = numpy_pass(block, before) or csv_pass(block, before)
            before += read
            yield from _runs(keys, values)
            if failure is not None:
                raise failure
            if size < preprocess.CHUNK_BYTES:
                return


def rule_reasons(rules, values: np.ndarray, reasons: dict[int, str]) -> dict[int, str]:
    """Add to ``reasons`` each row of the (n, v) ``values`` that a ``(mask,
    message)`` rule flags and that has no reason yet, with the message of the
    first rule that flags it, formatted with the row's values; return it."""
    for mask, message in rules:
        for j in np.flatnonzero(mask(values)).tolist():
            reasons.setdefault(j, message.format(*values[j].tolist()))
    return reasons


def _convert(fields: np.ndarray, reasons: dict[int, str]) -> np.ndarray:
    """float() of each field of an (n, c) object array of strings, NaN where
    it fails; a row that holds such a field and has no reason in ``reasons``
    gets float()'s message for the first."""
    numbers = _FLOAT_OR_NONE(fields)
    for j in np.flatnonzero(np.equal(numbers, None).any(axis=1)).tolist():
        try:
            list(map(float, fields[j]))
        except ValueError as exc:
            reasons.setdefault(j, str(exc))
    return numbers.astype(float)


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


def _dataset_meta(doc: dict, kind: str) -> tuple[dict, int]:
    """A ``kind`` dataset's meta, every row's keys and values checked, and its T."""
    if doc["segment_kind"] != kind:
        raise ValueError(f"segment_kind {doc['segment_kind']!r:.40} is not {kind!r}")
    for i, row in enumerate(doc["rows"]):
        missing = [k for k in ("flight_id", "procedure", "arrival_time") if k not in row]
        if missing:
            raise ValueError(f"row {i} lacks {', '.join(missing)}")
        for key in ("flight_id", "procedure"):
            if not isinstance(row[key], str):
                raise ValueError(f"row {i}: {key} must be a string, got {row[key]!r:.40}")
        # a bool, NaN, an infinity or an int beyond the float range fails
        time = row["arrival_time"]
        if type(time) not in (int, float) or not abs(time) <= sys.float_info.max:
            raise ValueError(f"row {i}: arrival_time must be a finite number, "
                             f"got {time!r:.40}")
    return doc, json_int(doc["T"], "T")


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer (not a bool), else a ValueError."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r:.40}")
    return value


def read_deviation_dataset(path: Path, kind: str) -> tuple[np.ndarray, dict]:
    """A dataset's (m, 3T+2) float64 matrix of finite values, and its meta,
    which must record the segment kind ``kind``."""
    meta, t_len = read_json(path.with_suffix(".meta.json"), "dataset meta",
                            lambda doc: _dataset_meta(doc, kind),
                            tag=DEVIATION_FORMAT)
    with _reading(path, "deviation dataset", _MALFORMED_NPY), \
            open(path, "rb") as handle:
        _check_npy_size(handle)
        data = np.lib.format.read_array(handle, allow_pickle=False)
    if data.ndim != 2 or data.dtype != np.float64:
        raise DataError(f"{path}: expected a 2-D float64 array, got "
                        f"{data.ndim}-D {data.dtype}")
    if not len(data):
        raise DataError(f"{path}: dataset has no rows")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if len(bad):
        raise DataError(f"{path}: row {bad[0]}: deviation values must be finite")
    preprocess.deviation_length(data.shape[1], "dataset width", expected=t_len, path=path)
    if len(data) != len(meta["rows"]):
        raise DataError(f"{path}: {len(data)} rows, but its meta lists "
                        f"{len(meta['rows'])}")
    return data, meta


def _check_npy_size(handle) -> None:
    """Raise ValueError if the .npy header of ``handle`` claims more data
    bytes than follow it: ``read_array`` allocates the claimed array before
    it reads. Leaves ``handle`` at its start."""
    version = np.lib.format.read_magic(handle)
    read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                   else np.lib.format.read_array_header_2_0)
    shape, _, dtype = read_header(handle)
    claimed = math.prod(shape) * dtype.itemsize
    left = os.fstat(handle.fileno()).st_size - handle.tell()
    # an object array holds pickles, which read_array refuses
    if claimed > left and not dtype.hasobject:
        raise ValueError(f"its header claims shape {shape} of {dtype}, "
                         f"{claimed} bytes, but {left} follow it")
    handle.seek(0)


_FINITE = ((lambda values: ~np.isfinite(values).all(axis=1),
            "t, x, y and z must be finite"),)


def read_trajectory_file(path: Path) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """A trajectory or scene CSV as a list of scenes of (times, points).

    Trajectory files yield one single-aircraft scene per trajectory; scene
    files group aircraft by scene id. Every value must be finite, and every
    aircraft's times must strictly increase.
    """
    scenes: dict[str, dict[tuple, list]] = {}
    for key, values in read_csv(path, "trajectory file", _TRAJECTORY_LAYOUTS,
                                _FINITE):
        scenes.setdefault(key[0], {}).setdefault(key, []).append(values)
    for aircraft in scenes.values():
        for key, runs in aircraft.items():
            arr = aircraft[key] = np.concatenate(runs)
            if np.any(np.diff(arr[:, 0]) <= 0):
                raise DataError(f"{path}: times of aircraft {'/'.join(key)} "
                                "do not strictly increase")
    return [[(arr[:, 0], arr[:, 1:4]) for arr in aircraft.values()]
            for aircraft in scenes.values()]
