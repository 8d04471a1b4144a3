import csv
import io
import math
import os
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsurvey import frames
from dpsurvey.designs import StratifiedSRSWOR, allocate_strata
from dpsurvey.frames import (
    Frame,
    FrameRecord,
    ValueUniverse,
    dump_frame_csv,
    load_frame_csv,
    make_frame,
)


def test_record_validation():
    with pytest.raises(ValueError):
        FrameRecord(1, 0.5, x=0.0)
    with pytest.raises(ValueError):
        FrameRecord(1, 0.5, propensity=0.0)
    with pytest.raises(ValueError):
        FrameRecord(1, 0.5, propensity=1.5)
    with pytest.raises(ValueError):
        FrameRecord(1, float("inf"))
    assert FrameRecord(1, float("nan")).y_missing


def test_frame_requires_unique_ids():
    with pytest.raises(ValueError):
        make_frame([0.1, 0.2], ids=[1, 1])
    with pytest.raises(ValueError):
        Frame(())


def test_frame_ordering_is_preserved():
    frame = make_frame([0.3, 0.1, 0.2], ids=[30, 10, 20])
    assert frame.ids == (30, 10, 20)


def test_strata_and_clusters_sorted_by_label():
    frame = make_frame([0] * 4, strata=["b", "a", "b", "a"], clusters=["y", "y", "x", "x"])
    assert list(frame.strata()) == ["a", "b"]
    assert frame.strata()["a"].tolist() == [1, 3]
    assert list(frame.clusters()) == ["x", "y"]


def test_csv_round_trip_preserves_missing_y():
    frame = make_frame([0.25, float("nan"), 1.0], xs=[1.0, 2.0, 1.5],
                       strata=["A", "A", "B"], clusters=["a", "b", "b"],
                       propensities=[0.5, 1.0, 0.75])
    text = dump_frame_csv(frame)
    loaded = load_frame_csv(io.StringIO(text))
    assert loaded.ids == frame.ids
    assert math.isnan(loaded.y_array[1])
    assert loaded.y_array[0] == 0.25
    assert loaded.propensity_array[2] == 0.75
    assert dump_frame_csv(loaded) == text


def test_csv_rejects_wrong_header():
    with pytest.raises(ValueError):
        load_frame_csv(io.StringIO("id,y\n1,0.5\n"))


def test_csv_rejects_short_rows():
    with pytest.raises(ValueError):
        load_frame_csv(io.StringIO("id,y,x,stratum,cluster,propensity\n1,0.5\n"))


# Errors name the CSV record: the header is line 1 and a blank line counts.
CSV_ERRORS = [
    ("1,0.5,1,a,b,1\n\n2,0.5,zz,a,b,1\n", "frame CSV line 4: cannot parse x 'zz'"),
    ("1,0.5,1,a,b,1\n2,w,1,a,b,1\n", "frame CSV line 3: cannot parse y 'w'"),
    ("1,0.5,1,a,b,1\n2.5,0.5,1,a,b,1\n", "frame CSV line 3: cannot parse id '2.5'"),
    ("1,0.5,1,a,b,\n", "frame CSV line 2: cannot parse propensity ''"),
    ("1,0.5,1,a,b,1\n2,0.5\n", "frame CSV line 3: expected 6 fields"),
    ("1,0.5,1,a,b,1,9\n", "frame CSV line 2: expected 6 fields"),
    ('1,0.5,1,"a\nb",c,1\n2,0.5,0,a,b,1\n',
     "frame CSV line 3: record 2: size measure x must be positive, got 0.0"),
    ('1,0.5,1,"a\n\nb",c,1\n\n2,0.5,x,a,b,1\n', "frame CSV line 4: cannot parse x 'x'"),
    ("1,0.5,1,a,b,1\n\n1,0.5,1,a,b,1\n",
     "frame CSV line 4: record 1: frame record ids must be unique"),
    ("", "frame must contain at least one record"),
    # a row of blanks or empty fields is a record with no id, not a blank line
    ("1,0.5,1,a,b,1\n   \n2,0.5,1,a,b,1\n", "frame CSV line 3: expected 6 fields"),
    ("1,0.5,1,a,b,1\n,,,,,\n2,0.5,1,a,b,1\n", "frame CSV line 3: cannot parse id ''"),
    # an id must fit in int64
    ("99999999999999999999,0.5,1,a,b,1\n",
     "frame CSV line 2: cannot parse id '99999999999999999999'"),
]


@pytest.mark.parametrize("rows, message", CSV_ERRORS)
def test_csv_errors_name_the_csv_line(rows, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_frame_csv(io.StringIO("id,y,x,stratum,cluster,propensity\n" + rows))


def test_header_only_csv_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^frame must contain at least one record$"):
            load_frame_csv(io.StringIO("id,y,x,stratum,cluster,propensity\n"))


def pipe_with(text):
    read_end, write_end = os.pipe()
    os.write(write_end, text.encode())
    os.close(write_end)
    return open(read_end, newline="")


def test_csv_loads_from_a_pipe_and_from_the_handle_position():
    text = "id,y,x,stratum,cluster,propensity\n1,0.5,1,a,b,1\n2,0.5,zz,a,b,1\n"
    error = "^frame CSV line 3: cannot parse x 'zz'$"
    with pipe_with(text.replace("zz", "2")) as pipe:
        assert load_frame_csv(pipe).x == (1.0, 2.0)
    with pipe_with(text) as pipe, pytest.raises(ValueError, match=error):
        load_frame_csv(pipe)
    handle = io.StringIO("preamble\n" + text)
    handle.readline()
    with pytest.raises(ValueError, match=error):
        load_frame_csv(handle)


def test_csv_converters_get_text_whatever_numpy_defaults_to(monkeypatch):
    loadtxt = np.loadtxt

    def loadtxt_with_numpy1_default(*args, encoding="bytes", **kwargs):
        # before numpy 2, "bytes" was the default and handed the converters bytes
        return loadtxt(*args, encoding=encoding, **kwargs)

    monkeypatch.setattr(np, "loadtxt", loadtxt_with_numpy1_default)
    loaded = load_frame_csv(io.StringIO("id,y,x,stratum,cluster,propensity\n1,,1,中,b,1\n"))
    assert loaded.stratum_labels == ("中",)


def test_universe_validation():
    with pytest.raises(ValueError):
        ValueUniverse(1.0, 0.0)
    with pytest.raises(ValueError):
        ValueUniverse(0.0, 1.0, x_values=())
    with pytest.raises(ValueError):
        ValueUniverse(0.0, 1.0, x_values=(-1.0,))
    universe = ValueUniverse(0.0, 1.0, x_values=(2.0, 1.0))
    assert universe.x_values == (1.0, 2.0)
    assert universe.value_range() == 1.0


@pytest.mark.parametrize("bounds", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)],
                         ids=repr)
def test_universe_refuses_a_bound_that_is_not_finite(bounds):
    with pytest.raises(ValueError, match=r"^y bounds must be finite$"):
        ValueUniverse(*bounds)


@pytest.mark.parametrize("column", ["y", "x", "propensity", "strata", "clusters"])
def test_frame_refuses_columns_of_unequal_length(column):
    values = {"y": [0.1], "x": [1.0], "propensity": [1.0], "strata": ["A"], "clusters": ["a"]}
    with pytest.raises(ValueError, match=r"^all frame columns must have the same length$"):
        Frame([1, 2], **{column: values[column]})


def test_positions_of_an_id_that_is_not_a_number_is_a_key_error():
    with pytest.raises(KeyError) as excinfo:
        make_frame([0.1, 0.2]).positions(["a"])
    assert excinfo.value.args == ("no record with id a in frame",)


def test_with_y_and_with_x_copy():
    frame = make_frame([0.0, 0.0], xs=[1.0, 1.0])
    other = frame.with_y([0.5, 1.0]).with_x([2.0, 3.0])
    assert other.y == (0.5, 1.0)
    assert other.x == (2.0, 3.0)
    assert frame.y == (0.0, 0.0)  # original untouched


@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_csv_round_trip_is_lossless(ys):
    frame = make_frame(ys)
    loaded = load_frame_csv(io.StringIO(dump_frame_csv(frame)))
    assert loaded.y == frame.y


LABEL_CHARS = st.one_of(st.sampled_from(',"\'#; é中'),
                        st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")))
# loading strips the whitespace around a label, so generated labels have none
LABELS = st.text(LABEL_CHARS, max_size=6).map(str.strip)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def frame_columns(draw, min_size=1):
    """Valid columns (ids unordered, some y missing) as a dict of make_frame keywords."""
    n = draw(st.integers(min_size, 8))

    def column(strategy):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    return {
        "ids": draw(st.lists(st.integers(-10 ** 9, 10 ** 9), min_size=n, max_size=n,
                             unique=True)),
        "ys": column(st.one_of(st.just(math.nan), FLOATS)),
        "xs": column(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        "strata": column(LABELS),
        "clusters": column(LABELS),
        "propensities": column(st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
    }


def csv_text(columns) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["id", "y", "x", "stratum", "cluster", "propensity"])
    writer.writerows(zip(columns["ids"], ["" if math.isnan(y) else repr(y) for y in columns["ys"]],
                         map(repr, columns["xs"]), columns["strata"], columns["clusters"],
                         map(repr, columns["propensities"])))
    return buffer.getvalue()


@given(frame_columns())
@settings(max_examples=100, deadline=None)
def test_csv_round_trip_keeps_every_column_and_the_row_order(columns):
    frame = make_frame(**columns)
    text = dump_frame_csv(frame)
    assert text == csv_text(columns)
    loaded = load_frame_csv(io.StringIO(text))
    assert loaded.ids == tuple(columns["ids"])
    np.testing.assert_array_equal(loaded.y_array, columns["ys"])  # NaN matches NaN
    assert loaded.x == tuple(columns["xs"])
    assert loaded.propensity_array.tolist() == columns["propensities"]
    assert loaded.stratum_labels == tuple(columns["strata"])
    assert loaded.cluster_labels == tuple(columns["clusters"])
    assert dump_frame_csv(loaded) == text


INVALID_FIELDS = [("xs", 0.0), ("xs", -1.5), ("xs", math.inf), ("xs", math.nan),
                  ("propensities", 0.0), ("propensities", 1.5), ("propensities", math.nan),
                  ("ys", math.inf), ("ys", -math.inf), ("ids", None)]


@given(frame_columns(min_size=2), st.sampled_from(INVALID_FIELDS), st.data())
@settings(max_examples=100, deadline=None)
def test_invalid_field_names_the_record(columns, invalid, data):
    key, value = invalid
    position = data.draw(st.integers(1, len(columns["ids"]) - 1))
    if key == "ids":  # repeat an earlier id
        value = columns["ids"][data.draw(st.integers(0, position - 1))]
    columns[key][position] = value
    offender = f"record {columns['ids'][position]}:"
    with pytest.raises(ValueError, match=offender):
        make_frame(**columns)
    with pytest.raises(ValueError, match=f"^frame CSV line {position + 2}: {offender}"):
        load_frame_csv(io.StringIO(csv_text(columns)))


# an unparsable value per column (the propensity is quoted, as it holds a comma)
UNPARSABLE = {"id": "2.5", "y": "zz", "x": "1e", "propensity": "1,5"}


@given(frame_columns(), st.sampled_from([*UNPARSABLE, None]), st.data())
@settings(max_examples=100, deadline=None)
def test_unparsable_or_short_record_names_its_csv_line(columns, column, data):
    rows = list(csv.reader(io.StringIO(csv_text(columns))))
    line = data.draw(st.integers(2, len(rows)))
    if column is None:
        del rows[line - 1][-1]
        message = "expected 6 fields"
    else:
        rows[line - 1][rows[0].index(column)] = UNPARSABLE[column]
        message = f"cannot parse {column} {UNPARSABLE[column]!r}"
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    with pytest.raises(ValueError, match=f"^{re.escape(f'frame CSV line {line}: {message}')}$"):
        load_frame_csv(io.StringIO(buffer.getvalue()))


@given(frame_columns(), st.integers())
@settings(max_examples=50, deadline=None)
def test_record_by_id_finds_every_id_and_rejects_unknown_ones(columns, unit):
    frame = make_frame(**columns)
    for position, unit_id in enumerate(columns["ids"]):
        record = frame.record_by_id(unit_id)
        assert (record.id, record.stratum) == (unit_id, columns["strata"][position])
    if unit not in columns["ids"]:
        with pytest.raises(KeyError):
            frame.record_by_id(unit)


def plain_grouping(labels):
    groups = {}
    for position, label in enumerate(labels):
        groups.setdefault(label, []).append(position)
    return [(label, tuple(groups[label])) for label in sorted(groups)]


def grouping(groups):
    """A frame's label -> positions map in plain_grouping's form; the arrays are read-only."""
    assert not any(positions.flags.writeable for positions in groups.values())
    return [(label, tuple(positions.tolist())) for label, positions in groups.items()]


@given(frame_columns())
@settings(max_examples=50, deadline=None)
def test_strata_and_clusters_match_a_plain_grouping(columns):
    frame = make_frame(**columns)
    assert grouping(frame.strata()) == plain_grouping(columns["strata"])
    assert grouping(frame.clusters()) == plain_grouping(columns["clusters"])
    frame.strata().clear()  # callers get their own copy
    assert grouping(frame.strata()) == plain_grouping(columns["strata"])


# Differential test of the frame's columns, label codes and id index against
# a plain csv.reader parse.  Labels carry the characters the CSV dialect
# quotes or a parser might trim; y cells may be blank or whitespace-only.
RAW_LABELS = st.text(st.sampled_from(' ,"#;\t\xa0é中ab'), max_size=4)
Y_CELLS = st.one_of(st.sampled_from(["", " ", "  \t"]), FLOATS.map(repr),
                    FLOATS.map(lambda v: f" {v!r} "))
INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)


# a fault per kind: (column, cell); no column drops the last field, and
# "repeat" takes an earlier record's id
FAULTS = [(0, "2.5"), (1, "zz"), (2, "1e"), (5, "1,5"), (2, "0"), (1, "inf"), (None, None),
          (0, "repeat")]


@st.composite
def csv_texts(draw, labels=RAW_LABELS, faults=0):
    n = draw(st.integers(1, 8))
    rows = [[str(unit), draw(Y_CELLS), repr(draw(st.floats(0.0, 1e6, exclude_min=True))),
             draw(labels), draw(labels), repr(draw(st.floats(0.0, 1.0, exclude_min=True)))]
            for unit in draw(st.lists(INT64, min_size=n, max_size=n, unique=True))]
    for _ in range(draw(st.integers(0, faults))):
        at = draw(st.integers(0, n - 1))
        column, cell = draw(st.sampled_from(FAULTS))
        if column is None:
            del rows[at][-1]
        elif column < len(rows[at]):
            rows[at][column] = rows[at - 1][0] if cell == "repeat" else cell
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=ending)
    writer.writerow(["id", "y", "x", "stratum", "cluster", "propensity"])
    for row in rows:
        if draw(st.booleans()):
            buffer.write(ending)  # a blank line
        writer.writerow(row)
    return buffer.getvalue()


def reference_columns(text):
    """The frame's columns from a plain csv.reader parse of the text."""
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row][1:]
    return {
        "ids": [int(row[0]) for row in rows],
        "ys": [float(row[1]) if row[1].strip() else math.nan for row in rows],
        "xs": [float(row[2]) for row in rows],
        "strata": [row[3].strip() for row in rows],
        "clusters": [row[4].strip() for row in rows],
        "propensities": [float(row[5]) for row in rows],
    }


@given(csv_texts(), st.lists(st.one_of(st.integers(), st.sampled_from(
    [2 ** 63 - 1, 2 ** 63, 2 ** 64, -2 ** 63, -2 ** 63 - 1, 10 ** 30])), max_size=4), st.data())
@settings(max_examples=150, deadline=None)
def test_frame_columns_labels_and_index_match_a_plain_csv_parse(text, others, data):
    frame = load_frame_csv(io.StringIO(text, newline=""))
    ref = reference_columns(text)
    assert frame.id_array.tolist() == ref["ids"]
    np.testing.assert_array_equal(frame.y_array, ref["ys"])  # NaN matches NaN
    assert frame.x_array.tolist() == ref["xs"]
    assert frame.propensity_array.tolist() == ref["propensities"]
    assert frame.stratum_labels == tuple(ref["strata"])
    assert frame.cluster_labels == tuple(ref["clusters"])
    assert grouping(frame.strata()) == plain_grouping(ref["strata"])
    assert grouping(frame.clusters()) == plain_grouping(ref["clusters"])

    position_of = {unit: p for p, unit in enumerate(ref["ids"])}
    wanted = data.draw(st.lists(st.sampled_from(ref["ids"]), max_size=10))
    assert frame.positions(wanted) == [position_of[unit] for unit in wanted]
    for unit in others:
        if unit not in position_of:
            message = f"^'no record with id {unit} in frame'$"
            with pytest.raises(KeyError, match=message):
                frame.positions([unit])
            with pytest.raises(KeyError, match=message):
                frame.positions(wanted + [unit] + wanted)

    kept = data.draw(st.lists(st.integers(0, frame.n - 1), min_size=1, max_size=8, unique=True))
    part = frame.select(kept)
    assert part.stratum_labels == tuple(ref["strata"][p] for p in kept)
    assert grouping(part.clusters()) == plain_grouping([ref["clusters"][p] for p in kept])

    n = data.draw(st.integers(len(frame.strata()), frame.n))
    allocation = allocate_strata("proportional", frame, n)
    sizes = {label: ref["strata"].count(label) for label in allocation}
    assert StratifiedSRSWOR(n).pi(frame).tolist() == [
        allocation[label] / sizes[label] for label in ref["strata"]]


# The chunked parse against one loadtxt call over the whole input.  A short
# input is parsed in one call, so patching _CHUNK_ROWS down is the only
# difference between the two loads.
def load_outcome(text):
    """The loaded frame, array by array as (dtype, bytes) with its label names,
    or the load's error text; a warning fails the load."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frame = load_frame_csv(io.StringIO(text, newline=""))
    except ValueError as err:
        return str(err)
    arrays = (frame.id_array, frame.y_array, frame.x_array, frame.stratum_codes,
              frame.cluster_codes, frame.propensity_array, frame._order, frame._sorted_ids)
    return ([(array.dtype.str, array.tobytes()) for array in arrays],
            frame.stratum_names, frame.cluster_names)


CHUNK_ROWS = (1, 2, 3, 7)


@given(csv_texts(labels=st.one_of(RAW_LABELS, st.text(st.sampled_from("a,\n"), max_size=4)),
                 faults=2))
@settings(max_examples=150, deadline=None)
def test_a_chunked_load_gives_the_one_call_frame_or_error(text):
    expected = load_outcome(text)
    for rows in CHUNK_ROWS:
        with mock.patch.object(frames, "_CHUNK_ROWS", rows):
            assert load_outcome(text) == expected, rows


def test_chunks_stop_at_the_first_short_one_and_a_short_input_takes_one_call():
    def max_rows(n_rows):
        text = csv_text({"ids": list(range(1, n_rows + 1)), "ys": [0.5] * n_rows,
                         "xs": [1.0] * n_rows, "strata": ["a"] * n_rows,
                         "clusters": ["b"] * n_rows, "propensities": [1.0] * n_rows})
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as spy:
            assert load_frame_csv(io.StringIO(text)).n == n_rows
        return [call.kwargs["max_rows"] for call in spy.call_args_list]

    assert max_rows(5) == [None]
    with mock.patch.object(frames, "_CHUNK_ROWS", 2):
        assert max_rows(5) == [2, 2, 2]
        assert max_rows(4) == [2, 2, 2]  # an exact multiple ends on an empty chunk


SEVEN_ROWS = "".join(f"{unit},0.5,1,a,b,1\n" for unit in range(1, 8))


@pytest.mark.parametrize("unit, where", [(1, "first"), (4, "middle"), (7, "last")])
@pytest.mark.parametrize("fault, cell, message", [
    ("1,0.5,1,a,b,1", "{unit},0.5,zz,a,b,1", "cannot parse x 'zz'"),
    ("1,0.5,1,a,b,1", "{unit},0.5", "expected 6 fields"),
    ("1,0.5,1,a,b,1", "{unit},0.5,0,a,b,1", "record {unit}: size measure x must be positive, "
                                            "got 0.0"),
], ids=["parse", "fields", "column"])
def test_a_fault_in_any_chunk_names_its_csv_line(unit, where, fault, cell, message):
    rows = SEVEN_ROWS.replace(f"{unit},0.5,1,a,b,1", cell.format(unit=unit))
    text = "id,y,x,stratum,cluster,propensity\n" + rows
    expected = f"frame CSV line {unit + 1}: {message.format(unit=unit)}"
    with mock.patch.object(frames, "_CHUNK_ROWS", 2):  # chunks of rows 1-2, 3-4, 5-6, 7
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            load_frame_csv(io.StringIO(text))


def test_a_quoted_label_across_a_chunk_boundary_loads():
    text = ('id,y,x,stratum,cluster,propensity\n1,0.5,1,"a,\nb",c,1\n'
            '2,0.5,1,"d\n\ne",c,1\n3,,1,a,"x,y",1\n')
    for rows in CHUNK_ROWS:
        with mock.patch.object(frames, "_CHUNK_ROWS", rows):
            frame = load_frame_csv(io.StringIO(text, newline=""))
        assert frame.stratum_labels == ("a,\nb", "d\n\ne", "a")
        assert frame.cluster_labels == ("c", "c", "x,y")


def test_chunked_loads_from_a_pipe_a_handle_position_and_a_header_only_file():
    text = "id,y,x,stratum,cluster,propensity\n1,0.5,1,a,b,1\n2,0.5,zz,a,b,1\n"
    error = "^frame CSV line 3: cannot parse x 'zz'$"
    with mock.patch.object(frames, "_CHUNK_ROWS", 1):
        with pipe_with(text.replace("zz", "2")) as pipe:
            assert load_frame_csv(pipe).x == (1.0, 2.0)
        with pipe_with(text) as pipe, pytest.raises(ValueError, match=error):
            load_frame_csv(pipe)
        handle = io.StringIO("preamble\n" + text)
        handle.readline()
        with pytest.raises(ValueError, match=error):
            load_frame_csv(handle)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^frame must contain at least one record$"):
                load_frame_csv(io.StringIO("id,y,x,stratum,cluster,propensity\n"))
