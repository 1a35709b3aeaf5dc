"""The numeric spec-file readers: numpy's C parser against the per-line code.

Every numeric ``file:`` spec but the sequence CSV goes through
``core.read_table``, which parses the whole file with ``np.loadtxt`` and falls
back to the reader's per-line code for any file the C parser rejects or the
reader's checks refuse.  The per-line code
alone words errors.  So with ``np.loadtxt`` disabled, every reader must give
the same arrays, bit for bit, or the same error text.
"""

import bz2
import gzip
import lzma
import threading
import urllib.request
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab import core, matrices
from seqlab.core import MAX_INDEX, make_index_set, make_lacunary, read_floats, read_table
from seqlab.matrices import make_matrix
from seqlab.orlicz import make_family, make_rho
from seqlab.errors import SpecError

GOLDEN_DATA = Path(__file__).resolve().parent / "golden" / "data"


def _weights(path):
    make_family(f"weighted:base=linear,weights=file:{path}")  # its checks and errors
    return read_floats(path, "weight")


def _matrix(path):
    m = make_matrix(f"file:{path}")
    return m.indptr, m.cols, m.coefs


# Each reader as a spec names it, returning the arrays (or cuts) it built.
READERS = {
    "weights": _weights,
    "rho": lambda p: make_rho(f"file:{p}").table,
    "riesz": lambda p: make_matrix(f"riesz:file={p}").weights,
    "matrix": _matrix,
    "index": lambda p: make_index_set(f"file:{p}").members_upto(MAX_INDEX),
    "theta": lambda p: make_lacunary(f"file:{p}").cuts,
}


def outcome(reader, path):
    """What a reader made of a file: its arrays as bytes, or its error."""
    try:
        got = READERS[reader](path)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    if reader == "theta":
        return [(type(c).__name__, c) for c in got]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in (got if isinstance(got, tuple) else (got,))]


def per_line_outcome(reader, path):
    with mock.patch.object(np, "loadtxt", side_effect=ValueError("C parser disabled")):
        return outcome(reader, path)


# --- a grammar of spec-file text -------------------------------------------

# Tokens that a valid file may hold; then odd ones, which int() and float()
# take but which may make a file invalid; then tokens that int() or float()
# reject or that only they take.
GOOD_FLOATS = st.one_of(st.floats(min_value=1e-300, max_value=1e300).map(repr),
                        st.sampled_from(["+2", "1e5", ".5", "1.", "1E-3", "3", "  7"]))
ODD_FLOATS = st.one_of(st.floats().map(repr),  # nan, inf, zeros, negatives, subnormals
                       st.sampled_from(["-0", "Infinity", "-inf", "1e400", "4.9e-324", "1e-400"]))
ODD_INTS = st.sampled_from(["+3", "0", "-1", "007", "41", " 5", "9223372036854775807"])
BAD_TOKENS = st.sampled_from(["1_0", "0x10", "\u0661\u0662", "#1", "\ufeff1", "1,5", "1.5\t2",
                              '"1"', "\x0c", "9223372036854775808", "2.0", "1e1"])
PADS = st.sampled_from(["", "", "", " ", "  ", "\t"])
# line breaks that str.splitlines knows and numpy's reader takes for spaces
SPLITLINES_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
BREAKS = st.sampled_from(SPLITLINES_BREAKS)
EXTRA_LINES = st.sampled_from(["", "", "", " ", "\t ", "\r"])


@st.composite
def spec_text(draw, reader):
    """A small spec file for ``reader``: a valid table with up to four
    faults (an odd or bad token, a stray line break), a header variant, blank
    or whitespace-only lines, CRLF and a missing final line break."""
    size = draw(st.integers(0, 8))
    if reader == "matrix":
        rows = [[str(i), str(k), draw(GOOD_FLOATS)] for i in range(1, size + 1)
                for k in range(max(1, i - 1), i + 1)]
    elif reader in ("index", "theta"):
        # increasing, so that theta files are mostly valid schemes
        rows = [[str(v)] for v in sorted(set(draw(st.lists(st.integers(0, 60), max_size=size))))]
    else:
        rows = [[draw(GOOD_FLOATS)] for _ in range(size)]
    real = {"matrix": 2, "index": None, "theta": None}.get(reader, 0)
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 4])) if rows else 0):
        row = draw(st.sampled_from(rows))
        j = draw(st.integers(0, len(row) - 1))
        fault = draw(st.sampled_from(["odd", "odd", "bad", "break"]))
        if fault == "break":
            row[j] = draw(st.sampled_from([row[j] + draw(BREAKS), draw(BREAKS) + row[j]]))
        else:
            row[j] = draw(BAD_TOKENS if fault == "bad" else ODD_FLOATS if j == real else ODD_INTS)
    lines = [",".join(draw(PADS) + tok + draw(PADS) for tok in row) for row in rows]
    if reader == "matrix":
        lines.insert(0, draw(st.sampled_from(["i,k,a"] * 5 + [" i,k,a", "I,K,A", "i,k"])))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(EXTRA_LINES))
    text = "".join(ln + draw(st.sampled_from(["\n", "\n", "\r\n"])) for ln in lines)
    return text if draw(st.booleans()) else text.rstrip("\n")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("reader", sorted(READERS))
def test_bulk_reader_matches_per_line_reader(tmp_path_factory, reader, data):
    text = data.draw(spec_text(reader), label="text")
    path = tmp_path_factory.mktemp("spec") / "spec.txt"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(reader, path) == per_line_outcome(reader, path)


@pytest.mark.parametrize("reader, text", [
    ("weights", "1\r\n\r\n1_0\r\n 2 \r\n"),
    *[("matrix", f"i,k,a\n1,1{brk},1.0\n") for brk in SPLITLINES_BREAKS],
    ("matrix", "i,k,a\n1,0,1.0\n"),
    ("matrix", "i,k,a\n1,-1,1.0\n"),
    ("matrix", "i,k,a\n0,1,1.0\n"),
    ("matrix", "i,k,a\n2,1,1.0\n"),  # past the entry count
    ("matrix", "i,k,a\n1,1,nan\n"),
    ("matrix", "i,k,a\n1,1,-inf\n"),
    ("matrix", "i,k,a\n1,1,1.0\n1,1,2.0\n"),
    ("matrix", "i, k, a\n1,1,1.0\n"),
    ("matrix", "I,K,A\n1,1,1.0\n"),
    ("matrix", "\ni,k,a\n1,1,1.0\n"),
    ("index", "+3\n9223372036854775808\n"),
    ("theta", "0\n\x0c\n4\n"),
    ("rho", "1\n#1\n"),
    ("riesz", "1 # one\n"),
    ("weights", '"1"\n'),
])
def test_per_line_cases_match(tmp_path, reader, text):
    path = tmp_path / "spec.txt"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(reader, path) == per_line_outcome(reader, path)


FIXTURES = {"w.txt": "weights", "rho.txt": "rho", "riesz.txt": "riesz", "band.csv": "matrix",
            "idx.txt": "index", "cuts.txt": "theta"}


def test_golden_fixtures_load_without_the_per_line_reader(monkeypatch):
    def per_line(*args, **kwargs):
        raise AssertionError("fell back to the per-line reader")

    for module in (core, matrices):
        monkeypatch.setattr(module, "read_lines", per_line)
    for name, reader in FIXTURES.items():
        READERS[reader](GOLDEN_DATA / name)
    with pytest.raises(AssertionError, match="per-line"):  # a 1_0 token is for int() and float() alone
        READERS["weights"](GOLDEN_DATA / "w_crlf.txt")


# --- files numpy's path loader would open other than as themselves ----------

VALID_TEXT = {"weights": "0.5\n1.5\n", "matrix": "i,k,a\n1,1,1.0\n2,1,0.5\n2,2,0.5\n"}
COMPRESSORS = {".gz": gzip.compress, ".bz2": bz2.compress, ".xz": lzma.compress,
               ".lzma": lambda data: lzma.compress(data, format=lzma.FORMAT_ALONE)}


@pytest.mark.parametrize("suffix", sorted(COMPRESSORS))
@pytest.mark.parametrize("reader", sorted(VALID_TEXT))
def test_compressed_file_is_not_decompressed(tmp_path, reader, suffix):
    path = tmp_path / f"spec.txt{suffix}"
    path.write_bytes(COMPRESSORS[suffix](VALID_TEXT[reader].encode()))
    got = outcome(reader, path)
    assert got == per_line_outcome(reader, path)
    assert got[0] == "SpecError"


@pytest.mark.parametrize("suffix", sorted(COMPRESSORS))
@pytest.mark.parametrize("reader", sorted(VALID_TEXT))
def test_missing_file_does_not_read_its_compressed_sibling(tmp_path, reader, suffix):
    path = tmp_path / "spec.txt"
    Path(f"{path}{suffix}").write_bytes(COMPRESSORS[suffix](VALID_TEXT[reader].encode()))
    got = outcome(reader, path)
    assert got[0] == "SpecError" and got[1].startswith("cannot read ")


@pytest.mark.parametrize("reader", sorted(VALID_TEXT))
def test_url_is_not_fetched(monkeypatch, reader):
    def urlopen(*args, **kwargs):
        raise AssertionError("fetched a URL")

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    got = outcome(reader, "http://localhost:9/spec.txt")
    assert got[0] == "SpecError" and got[1].startswith("cannot read ")


# --- warnings and threads ------------------------------------------------------

def test_warning_from_another_thread_is_not_raised(tmp_path):
    """While a file parses, a warning raised in another thread is captured,
    not turned into an error; the parse falls back; the filters come back."""
    path = tmp_path / "w.txt"
    path.write_text("1\n2\n")
    raised = []
    load = np.loadtxt

    def loadtxt_while_another_thread_warns(*args, **kwargs):
        def warn():
            try:
                warnings.warn("from another thread", UserWarning)
            except UserWarning:
                raised.append(True)

        thread = threading.Thread(target=warn)
        thread.start()
        thread.join()
        return load(*args, **kwargs)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        filters = list(warnings.filters)
        with mock.patch.object(np, "loadtxt", loadtxt_while_another_thread_warns):
            got = read_table(path, {"value": np.float64}, lambda: ("per line",))
        assert warnings.filters == filters
    assert raised == []
    assert got == ("per line",)


def test_concurrent_reads_match_serial_reads():
    names = list(FIXTURES) * 4
    serial = [outcome(FIXTURES[n], GOLDEN_DATA / n) for n in names]
    with ThreadPoolExecutor(4) as pool:
        assert list(pool.map(lambda n: outcome(FIXTURES[n], GOLDEN_DATA / n), names)) == serial


def test_numpy_warning_falls_back_to_the_per_line_reader(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpecError, match="^empty weight file"):
            read_floats(path, "weight")
