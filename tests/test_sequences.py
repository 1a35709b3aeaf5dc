import numpy as np
import pytest

from seqlab.errors import SpecError, TruncationError
from seqlab.sequences import (alternating_sequence, const_sequence, harmonic_sequence,
                              make_sequence, read_sequence_csv)


class TestGenerators:
    def test_const(self):
        x = make_sequence("const:3", 5)
        assert np.all(x.values == 3.0)
        assert len(x) == 5

    def test_spike_with_nested_commas(self):
        x = make_sequence("spike:set=arith:3,5,base=2,delta=1", 20)
        assert x.values[2] == 3.0   # index 3
        assert x.values[7] == 3.0   # index 8
        assert x.values[0] == 2.0

    def test_spike_defaults(self):
        x = make_sequence("spike:set=squares", 10)
        assert list(x.values) == [1, 0, 0, 1, 0, 0, 0, 0, 1, 0]

    def test_alt_starts_with_one(self):
        x = make_sequence("alt", 5)
        assert list(x.values) == [1, 0, 1, 0, 1]

    def test_alt_custom(self):
        x = make_sequence("alt:0,1", 4)
        assert list(x.values) == [0, 1, 0, 1]

    def test_harmonic(self):
        x = make_sequence("harmonic:2", 4)
        assert x.values[0] == 3.0
        assert x.values[3] == 2.25
        assert np.array_equal(x.values, harmonic_sequence(4, 2.0).values)

    @pytest.mark.parametrize("level", [0.0, 2.0, -0.5, 1e-17, 3e300])
    def test_harmonic_in_place_is_bit_identical(self, level):
        n = 100_003
        want = level + 1.0 / np.arange(1, n + 1, dtype=float)
        assert np.array_equal(harmonic_sequence(n, level).values, want)

    def test_generated_non_finite_refused_with_its_label(self):
        # a generator hands its array over uncopied, through the same check
        with pytest.raises(ValueError, match="^sequence 'const:inf' contains non-finite values$"):
            const_sequence(3, float("inf"))
        with pytest.raises(ValueError, match="^sequence 'alt:1,nan' contains non-finite values$"):
            alternating_sequence(3, 1.0, float("nan"))

    def test_list(self):
        x = make_sequence("list:3,4", None)
        assert list(x.values) == [3.0, 4.0]

    def test_list_truncates_but_never_extends(self):
        assert len(make_sequence("list:1,2,3", 2)) == 2
        with pytest.raises(TruncationError):
            make_sequence("list:1,2", 5)

    def test_needs_length(self):
        with pytest.raises(SpecError):
            make_sequence("const:3", None)

    def test_unknown(self):
        with pytest.raises(SpecError):
            make_sequence("random:1", 10)

    def test_alternating_phases(self):
        a = alternating_sequence(4)
        assert list(a.values) == [1, 0, 1, 0]
        b = alternating_sequence(4, first=0.0, second=1.0)
        assert list(b.values) == [0, 1, 0, 1]


class TestCsv:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "seq.csv"
        p.write_text("i,value\n1,0.5\n2,-1.25\n3,3\n")
        x = read_sequence_csv(p)
        assert list(x.values) == [0.5, -1.25, 3.0]

    def test_header_required(self, tmp_path):
        p = tmp_path / "seq.csv"
        p.write_text("1,0.5\n")
        with pytest.raises(SpecError, match="header"):
            read_sequence_csv(p)

    def test_gaps_forbidden(self, tmp_path):
        p = tmp_path / "seq.csv"
        p.write_text("i,value\n1,0.5\n3,0.7\n")
        with pytest.raises(SpecError, match="gap"):
            read_sequence_csv(p)

    def test_no_rows(self, tmp_path):
        p = tmp_path / "seq.csv"
        p.write_text("i,value\n")
        with pytest.raises(SpecError):
            read_sequence_csv(p)

    def test_not_utf8_names_the_file(self, tmp_path):
        p = tmp_path / "seq.csv"
        p.write_bytes(b"i,value\n1,\xff\n")
        with pytest.raises(SpecError, match="cannot read sequence file .*seq.csv"):
            read_sequence_csv(p)

    def test_via_make_sequence(self, tmp_path):
        p = tmp_path / "seq.csv"
        p.write_text("i,value\n1,1\n2,2\n")
        x = make_sequence(f"file:{p}", None)
        assert list(x.values) == [1.0, 2.0]
