"""The one-walk renderers against the two-pass path they replaced.

``ref_canon`` is the canonicaliser the CLI used to build a second tree with
before ``json.dumps``; the reference csv and table renderers below walk that
tree.  Drawn payloads must render byte for byte as the reference renders them.
"""

import csv
import dataclasses
import io
import json
import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from seqlab.cli import render_csv, render_json, render_table


def ref_canon(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {fld.name: ref_canon(getattr(obj, fld.name)) for fld in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): ref_canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [ref_canon(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [ref_canon(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            return str(v)
        return float(f"{v:.12g}")
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def ref_fmt_scalar(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    if v is None:
        return ""
    return str(v)


def ref_flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from ref_flatten(obj[k], f"{prefix}.{k}" if prefix else str(k))
    else:
        yield prefix, obj


def ref_csv(payload):
    lines = ["field,index,value"]
    for field, leaf in ref_flatten(ref_canon(payload)):
        for idx, v in enumerate(leaf, start=1) if isinstance(leaf, list) else [("", leaf)]:
            val = ref_fmt_scalar(v)
            if any(c in val for c in ',"\n\r'):
                val = '"' + val.replace('"', '""') + '"'
            lines.append(f"{field},{idx},{val}")
    return "\n".join(lines) + "\n"


def ref_table(payload):
    flat = [(field, ", ".join(map(ref_fmt_scalar, leaf)) if isinstance(leaf, list) else ref_fmt_scalar(leaf))
            for field, leaf in ref_flatten(ref_canon(payload))]
    width = max((len(k) for k, _ in flat), default=0)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in flat) + "\n"


@dataclasses.dataclass(frozen=True)
class Record:
    value: object
    trail: object


floats = st.floats(allow_nan=True, allow_infinity=True)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-2 ** 70, max_value=2 ** 70), floats,
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 1e16, 1 / 3, 5e-324]),
    st.text(),  # non-ASCII and control characters included
    st.integers(-2 ** 31, 2 ** 31 - 1).map(np.int32), st.integers(0, 255).map(np.uint8),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), floats.map(np.float64),
    st.floats(width=32).map(np.float32), st.booleans().map(np.bool_),
)
ARRAYS = st.one_of(hnp.arrays(np.int64, st.integers(0, 5)), hnp.arrays(np.float64, st.integers(0, 5)),
                   hnp.arrays(np.bool_, st.integers(0, 5)))
# a leaf as every report has one: a scalar, or a list, tuple or ndarray of scalars (possibly empty)
LEAVES = st.one_of(SCALARS, st.lists(SCALARS, max_size=5), st.lists(SCALARS, max_size=5).map(tuple), ARRAYS)
KEYS = st.one_of(st.text(max_size=6), st.integers(-3, 3))


def _records(children):
    return st.builds(Record, children, children)


# dicts and records over those leaves: what csv and table flatten
FLAT_PAYLOADS = st.recursive(LEAVES, lambda c: st.one_of(st.dictionaries(KEYS, c, max_size=4), _records(c)),
                             max_leaves=20)
# containers nested any way, lists of dicts and of lists too: what JSON writes
PAYLOADS = st.recursive(st.one_of(SCALARS, ARRAYS), lambda c: st.one_of(
    st.dictionaries(KEYS, c, max_size=4), _records(c), st.lists(c, max_size=4),
    st.lists(c, max_size=4).map(tuple)), max_leaves=20)


@given(PAYLOADS)
def test_json_equals_canonical_dumps(payload):
    assert render_json(payload) == json.dumps(ref_canon(payload), sort_keys=True, indent=2) + "\n"


@given(st.dictionaries(KEYS, FLAT_PAYLOADS, max_size=5))
def test_csv_and_table_equal_the_canonical_path(payload):
    assert render_csv(payload) == ref_csv(payload)
    assert render_table(payload) == ref_table(payload)


@given(st.dictionaries(st.sampled_from(["set", "tol"]), st.text(alphabet=st.sampled_from('ab,"\n\r é')), min_size=1))
def test_csv_reads_back_every_value(inputs):
    rows = list(csv.reader(io.StringIO(render_csv({"inputs": inputs}), newline="")))
    assert rows[0] == ["field", "index", "value"]
    assert {row[0]: row[2] for row in rows[1:]} == {f"inputs.{k}": v for k, v in inputs.items()}
