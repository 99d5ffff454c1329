import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from dfmvi.errors import DomainError, PanelFormatError
from dfmvi.panel import (
    StandardizationRecord,
    TimeSeriesPanel,
    load_csv,
    standardize,
    unstandardize,
    write_csv,
)


def test_load_csv_single_missing_cell(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,\n5.0,6.0\n")
    pan = load_csv(path)
    assert pan.T == 3 and pan.n == 2
    assert pan.mask.sum() == 5
    assert not pan.mask[1, 1]
    assert np.isnan(pan.values[1, 1])
    assert pan.names == ("a", "b")


def test_load_csv_all_missing(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("a,b\n,\n,\n")
    pan = load_csv(path)
    assert_array_equal(pan.counts, [0, 0])
    assert not pan.mask.any()


def test_load_csv_bad_cell_names_row_and_column(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("a,b\n1.0,x7\n")
    with pytest.raises(PanelFormatError, match=r"row 2, column 'b'"):
        load_csv(path)


def test_load_csv_ragged_row(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("a,b\n1.0,2.0\n3.0\n")
    with pytest.raises(PanelFormatError, match="row 3"):
        load_csv(path)


def test_load_csv_ignores_trailing_blank_lines(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("a,b\n1,2\n3,4\n\n\n")
    pan = load_csv(path)
    assert_array_equal(pan.values, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_blank_line_between_rows_names_row(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("a,b\n1,2\n\n3,4\n")
    with pytest.raises(PanelFormatError, match=r"row 3 has 0 fields"):
        load_csv(path)


def test_load_csv_drops_a_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" starts the file with a BOM; it is not part of the
    # first name.
    text = "var1,b\n1.5,\n-2.25,3.0\n"
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text.encode("utf-8"))
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    want, got = load_csv(plain), load_csv(bom)
    assert got.names == want.names == ("var1", "b")
    assert got.values.tobytes() == want.values.tobytes()
    assert got.mask.tobytes() == want.mask.tobytes()


def test_load_csv_parses_given_bytes_and_names_the_path(tmp_path):
    # The bytes are parsed as they are; the path, never opened, names them.
    pan = load_csv(tmp_path / "absent.csv", data="a,\u00d6l\n1,2\n".encode("utf-8"))
    assert pan.names == ("a", "\u00d6l")
    with pytest.raises(PanelFormatError, match=r"absent\.csv: row 2, column 'a'"):
        load_csv(tmp_path / "absent.csv", data=b"a\nx\n")


def test_load_csv_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("\u00d6l,b\n1,2\n".encode("latin-1"))
    with pytest.raises(PanelFormatError, match=r"latin1\.csv: not UTF-8 text"):
        load_csv(path)


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.standard_normal((7, 3)) * np.pi
    values[rng.random((7, 3)) < 0.3] = np.nan
    pan = TimeSeriesPanel(values, names=["x", "y", "z"])
    path = tmp_path / "rt.csv"
    write_csv(pan, path)
    back = load_csv(path)
    assert back.names == pan.names
    assert_array_equal(back.mask, pan.mask)
    assert_array_equal(back.values[back.mask], pan.values[pan.mask])


def _csv_writer_bytes(panel):
    """The panel as csv.writer writes it, one cell at a time."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(panel.names)
    for t in range(panel.T):
        writer.writerow(
            [
                repr(float(panel.values[t, j])) if panel.mask[t, j] else ""
                for j in range(panel.n)
            ]
        )
    return out.getvalue().encode("utf-8")


def _ragged_panel():
    values = np.random.default_rng(4).standard_normal((6, 3)) * 1e-3
    values[4:, 0] = values[5:, 2] = values[1, 1] = np.nan
    return TimeSeriesPanel(values, names=["a,b", 'say "hi"', "c"])


def _all_missing_row_panel():
    values = np.random.default_rng(5).standard_normal((4, 2))
    values[2] = np.nan
    return TimeSeriesPanel(values)


@pytest.mark.parametrize(
    "make",
    [
        _ragged_panel,
        lambda: TimeSeriesPanel(np.array([[1.5], [np.nan], [-2.0], [np.nan]])),
        _all_missing_row_panel,
    ],
    ids=["ragged", "one-column", "missing-row"],
)
def test_write_csv_matches_csv_writer_bytes_and_round_trips(tmp_path, make):
    pan = make()
    path = tmp_path / "panel.csv"
    write_csv(pan, path)
    assert path.read_bytes() == _csv_writer_bytes(pan)
    back = load_csv(path)
    assert back.names == pan.names
    assert_array_equal(back.mask, pan.mask)
    assert_array_equal(back.values[back.mask], pan.values[pan.mask])


def test_panel_invariants_enforced():
    with pytest.raises(DomainError, match="T x n matrix"):
        TimeSeriesPanel(np.array([1.0, 2.0]))
    with pytest.raises(DomainError, match="number of names"):
        TimeSeriesPanel(np.array([[1.0, 2.0]]), names=("a",))


def test_panel_mask_is_its_values_not_nan_and_names_default():
    # Missingness is held once, as NaN cells: there is no mask to pass.
    values = np.array([[1.0, np.nan, -0.0], [np.nan, np.nan, 2.5]])
    pan = TimeSeriesPanel(values)
    assert_array_equal(pan.mask, [[True, False, True], [False, False, True]])
    assert pan.names == ("var1", "var2", "var3")
    with pytest.raises(TypeError):
        TimeSeriesPanel(values, mask=~np.isnan(values))


def test_panel_immutable():
    pan = TimeSeriesPanel(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        pan.values[0, 0] = 9.0


def test_panel_derived_arrays_are_computed_once_and_read_only():
    pan = TimeSeriesPanel(np.array([[1.0, np.nan], [-2.0, 3.0], [np.nan, np.nan]]))
    assert_array_equal(pan.mask, [[True, False], [True, True], [False, False]])
    assert_array_equal(pan.mask_float, [[1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    assert_array_equal(pan.zero_filled, [[1.0, 0.0], [-2.0, 3.0], [0.0, 0.0]])
    assert_array_equal(pan.counts, [2.0, 1.0])
    assert_array_equal(pan.sums_of_squares, [5.0, 9.0])
    for name in ("mask", "mask_float", "zero_filled", "counts", "sums_of_squares"):
        arr = getattr(pan, name)
        assert getattr(pan, name) is arr
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_standardize_three_point_column():
    pan = TimeSeriesPanel(np.array([[1.0], [2.0], [3.0]]))
    out, rec = standardize(pan)
    assert_allclose(out.values[:, 0], [-1.0, 0.0, 1.0])
    assert_allclose(rec.mean, [2.0])
    assert_allclose(rec.scale, [1.0])


def test_standardize_idempotent():
    rng = np.random.default_rng(0)
    pan = TimeSeriesPanel(rng.standard_normal((40, 2)))
    once, _ = standardize(pan)
    twice, _ = standardize(once)
    assert_allclose(twice.values, once.values, atol=1e-12)


def test_standardize_with_missing_middle_cell():
    pan = TimeSeriesPanel(np.array([[4.0], [np.nan], [6.0]]))
    out, _ = standardize(pan)
    expected = 1.0 / math.sqrt(2.0)  # mean 5, sample stdev sqrt(2)
    assert_allclose(out.values[0, 0], -expected)
    assert np.isnan(out.values[1, 0])
    assert_allclose(out.values[2, 0], expected)


def test_standardize_zero_variance_names_column():
    pan = TimeSeriesPanel(np.array([[2.0, 1.0], [2.0, 4.0]]), names=["flat", "ok"])
    with pytest.raises(DomainError, match="flat"):
        standardize(pan)


def test_standardize_degenerate_column_passthrough():
    pan = TimeSeriesPanel(np.array([[4.0, 1.0], [np.nan, 2.0], [np.nan, 3.0]]))
    out, rec = standardize(pan)
    assert rec.degenerate[0] and not rec.degenerate[1]
    assert_allclose(out.values[0, 0], 4.0)


def test_standardization_record_json_round_trip():
    rec = StandardizationRecord(
        mean=np.array([1.5, -2.0]),
        scale=np.array([0.5, 3.0]),
        degenerate=np.array([False, True]),
    )
    back = StandardizationRecord.from_json(rec.to_json())
    assert_array_equal(back.mean, rec.mean)
    assert_array_equal(back.scale, rec.scale)
    assert_array_equal(back.degenerate, rec.degenerate)
    # No default: a record without the flags could not be written.
    with pytest.raises(TypeError, match="degenerate"):
        StandardizationRecord(mean=rec.mean, scale=rec.scale)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_standardize_unstandardize_identity(seed):
    rng = np.random.default_rng(seed)
    T = int(rng.integers(3, 12))
    n = int(rng.integers(1, 5))
    values = rng.standard_normal((T, n)) * rng.uniform(0.5, 5.0, n) + rng.uniform(
        -3, 3, n
    )
    mask = rng.random((T, n)) > 0.2
    # guarantee enough spread per column so standardization is defined
    for i in range(n):
        mask[:3, i] = True
    pan = TimeSeriesPanel(np.where(mask, values, np.nan))
    out, rec = standardize(pan)
    restored = unstandardize(out.values, rec)
    assert_allclose(restored[mask], pan.values[mask], atol=1e-10, rtol=1e-10)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_availability_counts_match_mask_sums(seed):
    rng = np.random.default_rng(seed)
    T = int(rng.integers(1, 15))
    n = int(rng.integers(1, 6))
    mask = rng.random((T, n)) > 0.5
    values = np.where(mask, rng.standard_normal((T, n)), np.nan)
    pan = TimeSeriesPanel(values)
    assert_array_equal(pan.counts, mask.sum(axis=0))
    assert_array_equal(pan.mask, mask)


@pytest.mark.parametrize("cell", ["inf", "-inf", "1e999", "nan", "NaN", "-nan"])
def test_load_csv_rejects_non_finite_cell_naming_row_and_column(tmp_path, cell):
    # A cell that reads as NaN would otherwise pass for a missing one.
    path = tmp_path / "p.csv"
    path.write_text(f"a,b\n1.0,2.0\n3.0,{cell}\n")
    with pytest.raises(DomainError, match=r"time step 2, column 'b'"):
        load_csv(path)


def test_from_arrays_rejects_infinite_cell():
    values = np.array([[1.0, np.nan], [np.inf, 2.0]])
    with pytest.raises(DomainError, match=r"time step 2, column 'x'.*finite"):
        TimeSeriesPanel(values, names=["x", "y"])


def test_load_csv_rejects_duplicate_variable_name(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("a,b,a\n1.0,2.0,3.0\n")
    with pytest.raises(DomainError, match=r"'a' appears more than once"):
        load_csv(path)


def test_from_arrays_rejects_duplicate_variable_name():
    with pytest.raises(DomainError, match=r"'y' appears more than once"):
        TimeSeriesPanel(np.ones((2, 3)), names=["y", "x", "y"])
