import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab.core import SequencePrefix
from seqlab.errors import SpecError, TruncationError
from seqlab.matrices import (SummabilityMatrix, apply_row, make_matrix,
                             regularity_check, transform_prefix)

BAND = Path(__file__).parent / "golden" / "data" / "band.csv"
RIESZ = SummabilityMatrix("riesz", weights=np.random.default_rng(3).uniform(0.1, 5.0, size=80))

finite_vals = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


def alternating(n):
    # x_k = (-1)^k, 1-indexed
    return SequencePrefix(np.asarray([(-1.0) ** k for k in range(1, n + 1)]), label="pm1")


class TestApplyRow:
    def test_identity(self):
        x = SequencePrefix(np.arange(1.0, 11.0))
        assert apply_row(make_matrix("identity"), x, 7) == 7.0

    def test_cesaro_alternating(self):
        assert apply_row(make_matrix("cesaro"), alternating(10), 10) == 0.0

    def test_riesz_unit_weights_is_cesaro(self):
        riesz = SummabilityMatrix("riesz", weights=np.ones(10))
        x = SequencePrefix(np.arange(1.0, 11.0))
        assert apply_row(riesz, x, 4) == pytest.approx(2.5)
        assert apply_row(riesz, x, 4) == apply_row(make_matrix("cesaro"), x, 4)

    def test_row_past_truncation(self):
        x = SequencePrefix(np.ones(5))
        with pytest.raises(TruncationError):
            apply_row(make_matrix("cesaro"), x, 6)

    def test_explicit_row_support_error_names_column(self):
        m = SummabilityMatrix("explicit", indptr=[0, 2], cols=[1, 9], coefs=[1.0, 2.0])
        with pytest.raises(TruncationError, match="column 9"):
            apply_row(m, SequencePrefix(np.ones(5)), 1)

    def test_explicit_missing_row(self):
        m = SummabilityMatrix("explicit", indptr=[0, 0, 1], cols=[1], coefs=[1.0])
        with pytest.raises(TruncationError):
            apply_row(m, SequencePrefix(np.ones(5)), 1)


class TestTransformPrefix:
    def test_identity_exact(self):
        x = SequencePrefix(np.asarray([0.1, -2.5, 3.75]))
        y = transform_prefix(make_matrix("identity"), x, 3)
        assert np.array_equal(y.values, x.values)

    def test_cesaro_of_ones(self):
        y = transform_prefix(make_matrix("cesaro"), SequencePrefix(np.ones(50)), 50)
        assert np.all(y.values == 1.0)

    def test_cesaro_alternating_bound(self):
        y = transform_prefix(make_matrix("cesaro"), alternating(100), 100)
        bound = 1.0 / np.arange(1, 101)
        assert np.all(np.abs(y.values) <= bound + 1e-12)

    def test_label_records_kind(self):
        y = transform_prefix(make_matrix("cesaro"), SequencePrefix(np.ones(3), label="u"), 3)
        assert y.label == "cesaro:u"

    def test_matches_apply_row(self):
        rng = np.random.default_rng(7)
        x = SequencePrefix(rng.normal(size=60))
        for m in (make_matrix("identity"), make_matrix("cesaro"), RIESZ, make_matrix(f"file:{BAND}")):
            y = transform_prefix(m, x, 60)
            rows = np.asarray([apply_row(m, x, i) for i in range(1, 61)])
            np.testing.assert_allclose(y.values, rows, rtol=1e-12, atol=1e-12, err_msg=m.kind)

    def test_cesaro_tracks_limit(self):
        # x_k = L + 1/k; |A_i(x) - L| <= (1 + ln i)/i
        L = 2.0
        n = 1000
        x = SequencePrefix(L + 1.0 / np.arange(1.0, n + 1))
        y = transform_prefix(make_matrix("cesaro"), x, n)
        i = np.arange(1.0, n + 1)
        assert np.all(np.abs(y.values - L) <= (1.0 + np.log(i)) / i + 1e-12)

    def test_row_checks_run_in_row_order(self):
        # row 2 reaches column 9 past n = 5, row 3 is undefined
        m = SummabilityMatrix("explicit", indptr=[0, 1, 3, 3, 4], cols=[1, 1, 9, 1], coefs=[1.0] * 4)
        with pytest.raises(TruncationError, match="^row 2 needs column 9 past truncation 5$"):
            transform_prefix(m, SequencePrefix(np.ones(5)), 4)
        # row 2 is undefined, row 3 reaches column 9
        m = SummabilityMatrix("explicit", indptr=[0, 1, 1, 3], cols=[1, 1, 9], coefs=[1.0] * 3)
        with pytest.raises(TruncationError, match="^explicit matrix defines no row 2$"):
            transform_prefix(m, SequencePrefix(np.ones(5)), 3)

    def test_rows_past_the_table_undefined(self):
        m = SummabilityMatrix("explicit", indptr=[0, 1, 2], cols=[1, 2], coefs=[1.0, 1.0])
        with pytest.raises(TruncationError, match="^explicit matrix defines no row 3$"):
            transform_prefix(m, SequencePrefix(np.ones(5)), 4)
        with pytest.raises(TruncationError, match="^explicit matrix defines no row 7$"):
            apply_row(m, SequencePrefix(np.ones(9)), 7)

    def test_row_checks_run_before_any_sum(self):
        # row 1 overflows, row 2 is undefined: the undefined row is reported
        m = SummabilityMatrix("explicit", indptr=[0, 2, 2], cols=[1, 2], coefs=[1e308, 1e308])
        x = SequencePrefix(np.full(3, 10.0))
        with pytest.raises(TruncationError, match="^explicit matrix defines no row 2$"):
            transform_prefix(m, x, 2)

    def test_non_finite_accumulation_names_row(self):
        # the sum of row 2 overflows; no single term does
        m = SummabilityMatrix("explicit", indptr=[0, 1, 3], cols=[1, 1, 2], coefs=[1.0, 1e308, 1e308])
        x = SequencePrefix(np.full(2, 1.5))
        with pytest.raises(ArithmeticError, match="^non-finite accumulation at row 2$"):
            transform_prefix(m, x, 2)
        with pytest.raises(ArithmeticError, match="overflow"):  # math.fsum's own OverflowError
            apply_row(m, x, 2)

    def test_error_propagates_row_index(self):
        m = SummabilityMatrix("explicit", indptr=[0, 1], cols=[1], coefs=[1.0])
        with pytest.raises(TruncationError, match="row 2"):
            transform_prefix(m, SequencePrefix(np.ones(5)), 2)


@settings(max_examples=30)
@given(vals=st.lists(finite_vals, min_size=4, max_size=24),
       a=finite_vals, b=finite_vals)
def test_linearity(vals, a, b):
    n = len(vals)
    rng = np.random.default_rng(n)
    x = SequencePrefix(np.asarray(vals))
    y = SequencePrefix(rng.uniform(-50, 50, size=n))
    combo = SequencePrefix(a * x.values + b * y.values)
    m = make_matrix("cesaro")
    i = n // 2 + 1
    lhs = apply_row(m, combo, i)
    rhs = a * apply_row(m, x, i) + b * apply_row(m, y, i)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestMakeMatrix:
    def test_riesz_file(self, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text("1.0\n2.0\n3.0\n")
        m = make_matrix(f"riesz:file={p}")
        x = SequencePrefix(np.asarray([1.0, 1.0, 1.0]))
        assert apply_row(m, x, 3) == pytest.approx(1.0)

    def test_riesz_rejects_nonpositive(self, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text("1.0\n-2.0\n")
        with pytest.raises(SpecError):
            make_matrix(f"riesz:file={p}")

    def test_csv_table(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("i,k,a\n1,1,2.0\n1,2,3.0\n2,1,5.0\n")
        m = make_matrix(f"file:{p}")
        x = SequencePrefix(np.asarray([1.0, 1.0]))
        assert apply_row(m, x, 1) == pytest.approx(5.0)
        assert apply_row(m, x, 2) == pytest.approx(5.0)

    def test_csv_needs_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,1,2.0\n")
        with pytest.raises(SpecError):
            make_matrix(f"file:{p}")

    def test_unknown(self):
        with pytest.raises(SpecError):
            make_matrix("borel")

    def test_csv_table_is_csr(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("i,k,a\n3,2,0.5\n1,1,1.0\n3,1,0.5\n")
        m = make_matrix(f"file:{p}")
        assert m.indptr.tolist() == [0, 1, 1, 3]
        assert m.cols.tolist() == [1, 1, 2]
        assert m.coefs.tolist() == [1.0, 0.5, 0.5]
        with pytest.raises(TruncationError, match="^explicit matrix defines no row 2$"):
            apply_row(m, SequencePrefix(np.ones(3)), 2)

    def test_csv_duplicate_names_row_and_file(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("i,k,a\n1,1,1.0\n2,2,0.5\n2,1,0.5\n2,2,0.25\n")
        with pytest.raises(SpecError, match=f"^duplicate entry for row 2 in {p}$"):
            make_matrix(f"file:{p}")

    def test_csv_header_only(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("i,k,a\n")
        with pytest.raises(SpecError, match=f"^explicit matrix has no entries in {p}$"):
            make_matrix(f"file:{p}")

    @pytest.mark.parametrize("line", ["0,1,1.0", "1,0,1.0", "1,1,inf", "50000001,1,1.0",
                                      "2,1,1.0", f"1,{2 ** 63},1.0"])
    def test_csv_invalid_entry(self, tmp_path, line):
        p = tmp_path / "m.csv"
        p.write_text(f"i,k,a\n{line}\n")
        with pytest.raises(SpecError, match="^invalid matrix entry"):
            make_matrix(f"file:{p}")

    @pytest.mark.parametrize("line", ["1,1", "1,x,1.0", "1,1,1.0,2"])
    def test_csv_malformed_row(self, tmp_path, line):
        p = tmp_path / "m.csv"
        p.write_text(f"i,k,a\n{line}\n")
        with pytest.raises(SpecError, match="^malformed matrix row"):
            make_matrix(f"file:{p}")


class TestCsr:
    def test_duplicate_rejected(self):
        with pytest.raises(SpecError, match="^duplicate entry for row 2$"):
            SummabilityMatrix("explicit", indptr=[0, 1, 3], cols=[1, 2, 2], coefs=[1.0, 0.5, 0.5])

    def test_duplicate_across_rows_allowed(self):
        m = SummabilityMatrix("explicit", indptr=[0, 1, 2], cols=[1, 1], coefs=[1.0, 1.0])
        assert transform_prefix(m, SequencePrefix(np.asarray([3.0, 4.0])), 2).values.tolist() == [3.0, 3.0]

    def test_columns_must_ascend(self):
        with pytest.raises(SpecError, match="ascend in row 1"):
            SummabilityMatrix("explicit", indptr=[0, 2], cols=[2, 1], coefs=[0.5, 0.5])

    @pytest.mark.parametrize("indptr, cols, coefs", [
        ([1, 2], [1, 2], [1.0, 1.0]),       # does not start at 0
        ([0, 1], [1, 2], [1.0, 1.0]),       # does not end at len(cols)
        ([0, 2, 1, 2], [1, 2], [1.0, 1.0]),  # falls
        ([0, 2], [1, 2], [1.0]),             # coefs misaligned
        ([2], [1, 2], [1.0, 1.0]),           # no row
    ])
    def test_bad_shape_rejected(self, indptr, cols, coefs):
        with pytest.raises(SpecError, match="CSR"):
            SummabilityMatrix("explicit", indptr=indptr, cols=cols, coefs=coefs)

    @pytest.mark.parametrize("cols, coefs", [([0], [1.0]), ([1], [math.nan]), ([1], [math.inf])])
    def test_bad_entry_rejected(self, cols, coefs):
        with pytest.raises(SpecError, match="columns >= 1 and finite coefficients"):
            SummabilityMatrix("explicit", indptr=[0, 1], cols=cols, coefs=coefs)

    def test_no_entries(self):
        with pytest.raises(SpecError, match="^explicit matrix has no entries$"):
            SummabilityMatrix("explicit")

    def test_arrays_are_read_only_copies(self):
        cols = np.asarray([1, 2])
        m = SummabilityMatrix("explicit", indptr=[0, 2], cols=cols, coefs=[0.5, 0.5])
        cols[0] = 7
        assert m.cols.tolist() == [1, 2]
        for a in (m.indptr, m.cols, m.coefs):
            assert not a.flags.writeable


class TestRegularity:
    def test_cesaro(self):
        rep = regularity_check(make_matrix("cesaro"), 64)
        assert rep.sup_abs_row_sum == 1.0
        assert rep.rows_sum_to_one
        assert rep.columns_vanish
        # column k trend: peak 1/k at i=k, final 1/upto
        assert rep.columns[1] == (1.0, pytest.approx(1.0 / 64))

    def test_identity(self):
        rep = regularity_check(make_matrix("identity"), 64)
        assert rep.sup_abs_row_sum == 1.0
        assert rep.rows_sum_to_one
        assert rep.columns_vanish

    def test_riesz_columns(self):
        rep = regularity_check(RIESZ, 60)
        w = RIESZ.weights
        for k, (peak, final) in rep.columns.items():
            assert peak == w[k - 1] / math.fsum(w[:k])
            assert final == pytest.approx(w[k - 1] / math.fsum(w[:60]), rel=1e-14)

    def test_riesz_weights_too_short(self):
        with pytest.raises(TruncationError, match="^riesz weights cover only 80 rows$"):
            regularity_check(RIESZ, 81)

    def test_explicit_matches_per_row_reference(self):
        m = make_matrix(f"file:{BAND}")
        upto = int(m.indptr.size - 1)
        rep = regularity_check(m, upto)
        rows = [(m.cols[m.indptr[i - 1]:m.indptr[i]], m.coefs[m.indptr[i - 1]:m.indptr[i]])
                for i in range(1, upto + 1)]
        assert rep.sup_abs_row_sum == pytest.approx(max(math.fsum(np.abs(a)) for _, a in rows), rel=1e-15)
        assert rep.row_sums_tail == pytest.approx([math.fsum(a) for _, a in rows[-5:]], rel=1e-15)
        for k, (peak, final) in rep.columns.items():
            assert peak == max((abs(float(a[c == k][0])) for c, a in rows if k in c), default=0.0)
            c, a = rows[-1]
            assert final == (abs(float(a[c == k][0])) if k in c else 0.0)

    def test_explicit_undefined_row(self):
        m = SummabilityMatrix("explicit", indptr=[0, 1, 1, 2], cols=[1, 1], coefs=[1.0, 1.0])
        with pytest.raises(TruncationError, match="^explicit matrix defines no row 2$"):
            regularity_check(m, 3)

    def test_explicit_flagged(self):
        coefs = [5.0 if i == 6 else 1.0 for i in range(1, 7)]
        m = SummabilityMatrix("explicit", indptr=np.arange(7), cols=np.ones(6, dtype=int), coefs=coefs)
        rep = regularity_check(m, 6)
        assert rep.sup_abs_row_sum >= 5.0
        assert not rep.rows_sum_to_one
        assert 5.0 in rep.row_sums_tail
