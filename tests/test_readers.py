"""The block readers of track and trajectory files against csv.reader, and
the deviation dataset's ``.npy`` round trip.

Every file is read twice: by ``parse_tracks`` / ``read_trajectory_file``,
in blocks of a few lines so that odd rows straddle block edges, and by the
row-by-row references in ``oracles``. Flights and trajectories must be
equal bit for bit, and so must the error lists and every DataError text.
"""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trafgen import _files, preprocess
from trafgen._files import (read_deviation_dataset, read_trajectory_file,
                            write_deviation_dataset)
from trafgen.errors import DataError
from trafgen.ingest import parse_tracks

from conftest import assert_bitwise
from oracles import parse_tracks_rows, read_trajectory_file_rows

ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])
# numbers float() reads; numpy's C parser reads only the last ones
READABLE = st.sampled_from(["1_0", "１２", "١", " 12.5 ", "\t7\t", "+3",
                            "-0.0", "nan", "-inf", "1e999"])
# fields that float() rejects
UNREADABLE = st.sampled_from(["abc", "", " ", "1e", "0x10", "1\x00"])
KEYS = st.sampled_from(["a", "b", "c", " a", "a ", '"a"', '"a,b"', '"q""x"',
                        '"x\ny"', "a\x00", "é", ""])
# budgets of read_csv, which counts 1,024 bytes a line and 4 a character:
# blocks of 1 to 6 lines
BLOCK_BYTES = st.integers(1, 6 * 1024)
GROUND_SPEEDS = st.sampled_from(["", "250", "fast", " ", "nan", "1_0", "-3e2"])


def finite(low=-1e6, high=1e6):
    return st.floats(low, high).map(repr)


def number(clean, dirty=True):
    """Mostly clean numbers, some odd ones float() reads, and, in a dirty
    file, some it rejects."""
    return st.one_of(clean, clean, clean, READABLE,
                     *([UNREADABLE] if dirty else []))


TRACK_VALUES = {
    "id": KEYS,
    "time": number(finite()),
    "lat": number(st.one_of(finite(-90.0, 90.0), st.sampled_from(["95", "-90.5"]))),
    "lon": number(st.one_of(finite(-180.0, 180.0), st.sampled_from(["180.5"]))),
    "alt": number(finite()),
    "gs": GROUND_SPEEDS,
    "vr": GROUND_SPEEDS,
    "note": st.sampled_from(["x", "", '"n"']),
}


def lines_of(data, header, values, n_rows, dirty=True):
    """Header and data lines: mostly whole rows, some blank or long, and in
    a dirty file some whitespace-only or short."""
    text = ",".join(header) + data.draw(ENDINGS)
    kinds = ["row"] * 6 + ["blank", "long"] + (["space", "short"] if dirty else [])
    for _ in range(n_rows):
        kind = data.draw(st.sampled_from(kinds))
        if kind == "blank":
            line = ""
        elif kind == "space":
            line = data.draw(st.sampled_from([" ", "\t", "  "]))
        else:
            fields = [data.draw(values[c]) for c in header]
            if kind == "short":
                fields = fields[:data.draw(st.integers(0, len(fields) - 1))]
            elif kind == "long":
                fields.append("9")
            line = ",".join(fields)
        text += line + data.draw(ENDINGS)
    return text


def outcome(read, path):
    try:
        return read(path)
    except DataError as exc:
        return f"DataError: {exc}"


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_flights(got, want):
    if isinstance(want, str):
        assert got == want
        return
    (flights, errors), (ref_flights, ref_errors) = got, want
    assert errors == ref_errors
    assert [f.id for f in flights] == [f.id for f in ref_flights]
    for flight, ref in zip(flights, ref_flights):
        assert_same_bits(flight.points, ref.points)


def assert_same_scenes(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert [len(scene) for scene in got] == [len(scene) for scene in want]
    for scene, ref in zip(got, want):
        for (times, points), (ref_times, ref_points) in zip(scene, ref):
            assert_same_bits(times, ref_times)
            assert_same_bits(points, ref_points)


def write(tmp_path_factory, text, name):
    path = tmp_path_factory.mktemp("readers") / name
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(text)
    return path


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_parse_tracks_matches_the_row_reader(tmp_path_factory, data):
    columns = ["id", "time", "lat", "lon", "alt"]
    columns += data.draw(st.sampled_from([[], ["gs", "vr"], ["vr"], ["note"]]))
    header = data.draw(st.permutations(columns))
    text = lines_of(data, header, TRACK_VALUES, data.draw(st.integers(0, 30)))
    path = write(tmp_path_factory, text, "tracks.csv")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(preprocess, "CHUNK_BYTES", data.draw(BLOCK_BYTES))
        got = outcome(parse_tracks, path)
    assert_same_flights(got, outcome(parse_tracks_rows, path))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_read_trajectory_file_matches_the_row_reader(tmp_path_factory, data):
    layout = data.draw(st.sampled_from([["traj_id"], ["scene_id", "aircraft_idx"]]))
    header = data.draw(st.permutations(layout + ["t", "x", "y", "z"]))
    # a clean file reads unless a time repeats; a dirty one mostly fails
    dirty = data.draw(st.booleans())
    times = iter(range(1000))
    increasing = st.builds(lambda: repr(float(next(times))))
    values = {"traj_id": st.sampled_from(["0", "1", "1 ", '"2"', "é"]),
              "scene_id": st.sampled_from(["0", "1", '"0"']),
              "aircraft_idx": st.sampled_from(["0", "1", " 1"]),
              "t": st.one_of(*[increasing] * 8, READABLE,
                             *([UNREADABLE] if dirty else [])),
              "x": number(finite(), dirty), "y": number(finite(), dirty),
              "z": number(st.floats().map(repr), dirty)}
    text = lines_of(data, header, values, data.draw(st.integers(0, 30)), dirty)
    path = write(tmp_path_factory, text, "trajectories.csv")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(preprocess, "CHUNK_BYTES", data.draw(BLOCK_BYTES))
        got = outcome(read_trajectory_file, path)
    assert_same_scenes(got, outcome(read_trajectory_file_rows, path))


@pytest.fixture
def csv_readers(monkeypatch):
    """The inputs of every csv.reader the readers make."""
    readers = []
    real = csv.reader

    def counting(lines, *args, **kwargs):
        readers.append(lines)
        return real(lines, *args, **kwargs)

    monkeypatch.setattr(_files.csv, "reader", counting)
    return readers


def test_clean_blocks_are_not_read_by_csv(tmp_path, monkeypatch, csv_readers):
    # blocks of 2 lines, the last of 1 (2,048 bytes fill at the second line
    # of 15 to 25 characters): rows out of range and empty optional fields are
    # read by numpy; a value only float() reads, one it rejects and a short
    # row each need csv
    rows = ["a,0,40.6,-73.7,1000,250,", "a,1,95,-73.7,1000,,-800",
            "a,2,40.6,-73.7,1_0,,", "b,3,40.6,-73.7,abc,fast,",
            "b,4,40.6,-73.7"]
    path = tmp_path / "tracks.csv"
    path.write_text("id,time,lat,lon,alt,gs,vr\n" + "\n".join(rows) + "\n")
    monkeypatch.setattr(preprocess, "CHUNK_BYTES", 2048)
    flights, errors = parse_tracks(path)
    # the header's reader and those of the last two blocks
    assert len(csv_readers) == 3
    assert errors == [f"{path}:3: lat 95.0 outside [-90, 90]",
                      f"{path}:5: could not convert string to float: 'abc'",
                      f"{path}:6: missing column 'alt'"]
    assert flights[0].points[:, 0].tolist() == [0.0, 2.0]
    assert flights[0].points[1, 3] == 10.0


@pytest.mark.parametrize("bad_value", [False, True], ids=["numpy", "csv"])
def test_a_row_gives_the_first_reason_it_breaks(tmp_path, csv_readers, bad_value):
    # a bad value before a rule, the first rule before the second, a rule
    # before a bad optional field; a bad value sends the block to csv
    rows = ["a,-1,-1,1", "a,1,-1,y", "a,1,1,z", "a,2,2,"]
    rows += ["b,-1,x,w"] if bad_value else []
    path = tmp_path / "rows.csv"
    path.write_text("k,v,w,o\n" + "\n".join(rows) + "\n")
    rules = ((lambda values: values[:, 0] < 0, "v {0} negative"),
             (lambda values: values[:, 1] < 0, "w {1} negative"))
    errors = []
    runs = list(_files.read_csv(path, "test file", ((("k",), ("v", "w")),),
                                rules, optional=("o",), errors=errors))
    assert len(csv_readers) == 1 + bad_value
    assert [(key, values.tolist()) for key, values in runs] == [
        (("a",), [[2.0, 2.0]])]
    assert errors == [f"{path}:2: v -1.0 negative",
                      f"{path}:3: w -1.0 negative",
                      f"{path}:4: could not convert string to float: 'z'",
                      *([f"{path}:6: could not convert string to float: 'x'"]
                        if bad_value else [])]


@pytest.mark.parametrize("bad_row", [True, False])
def test_an_undecodable_byte_counts_after_the_rows_before_it(tmp_path, bad_row):
    # the byte lies beyond the first chunks the text layer decodes; a bad
    # row before it is reported first, as the row reader reports it
    rows = [f"0,{t}.0,1.0,2.0,3.0".encode() for t in range(2000)]
    if bad_row:
        rows[5] = b"0,5.0,abc,2.0,3.0"
    path = tmp_path / "trajectories.csv"
    path.write_bytes(b"traj_id,t,x,y,z\n" + b"\n".join(rows) + b"\n\xff\n")
    got = outcome(read_trajectory_file, path)
    assert got == outcome(read_trajectory_file_rows, path)
    assert ("abc" in got) == bad_row


def test_a_field_over_the_csv_limit_is_csv_error(tmp_path):
    path = tmp_path / "tracks.csv"
    path.write_text("id,time,lat,lon,alt\n" + "a" * 200 + ",0,40.6,-73.7,1000\n")
    # in the same block, a bad row before the long field is reported first
    bad_first = tmp_path / "trajectories.csv"
    bad_first.write_text("traj_id,t,x,y,z\n0,0.0,abc,2.0,3.0\n"
                         + "0" * 200 + ",1.0,1.0,2.0,3.0\n")
    limit = csv.field_size_limit(100)
    try:
        got = outcome(parse_tracks, path)
        assert got == outcome(parse_tracks_rows, path)
        bad = outcome(read_trajectory_file, bad_first)
        assert bad == outcome(read_trajectory_file_rows, bad_first)
    finally:
        csv.field_size_limit(limit)
    assert "field larger than field limit" in got
    assert bad.endswith(":2: could not convert string to float: 'abc'")


def dataset_rows(n):
    return [{"flight_id": f"F{i}", "procedure": "RV_WEST", "arrival_time": 0.0}
            for i in range(n)]


def test_a_reader_defect_is_not_a_data_error(tmp_path, monkeypatch):
    # only OSError, csv's errors and decoding errors are the file's fault;
    # a ValueError from the reader's own code propagates as it is
    path = tmp_path / "trajectories.csv"
    path.write_text("traj_id,t,x,y,z\n0,0.0,1.0,2.0,3.0\n")

    def defect(*args):
        raise ValueError("defect inside the reader")

    monkeypatch.setattr(_files, "_runs", defect)
    with pytest.raises(ValueError, match="defect inside the reader") as info:
        read_trajectory_file(path)
    assert not isinstance(info.value, DataError)

    # the dataset reader: only opening the file and numpy's .npy parse are
    # the file's fault; a defect in a later check propagates
    path = tmp_path / "rv_dataset.npy"
    write_deviation_dataset(path, np.ones((2, 5)), "radar_vector", 1,
                            dataset_rows(2))
    monkeypatch.setattr(np, "isfinite", defect)
    with pytest.raises(ValueError, match="defect inside the reader") as info:
        read_deviation_dataset(path)
    assert not isinstance(info.value, DataError)


def test_a_deviation_dataset_round_trips_bit_for_bit(tmp_path):
    top = 1.7976931348623157e308
    rng = np.random.default_rng(0)
    data = np.vstack([
        [-0.0, 5e-324, top, -top, 0.0],
        rng.normal(size=(6, 5)) * 10.0 ** rng.integers(-300, 300, size=(6, 5))])
    path = tmp_path / "rv_dataset.npy"
    write_deviation_dataset(path, data, "radar_vector", 1, dataset_rows(7))
    got, meta = read_deviation_dataset(path)
    assert_bitwise(got, data)
    assert meta["rows"] == dataset_rows(7)
    # the bytes of np.save, so the file is deterministic
    saved = io.BytesIO()
    np.save(saved, data)
    assert path.read_bytes() == saved.getvalue()
