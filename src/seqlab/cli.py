"""Command-line frontend: parse specs, run diagnostics, emit reports.

Usage examples:

    seqlab density --set squares --modulus log1p --n 1000000
    seqlab density --set evens --n 100000
    seqlab membership --seq const:3 --limit 3 --mode density --modulus id
    seqlab membership --witness half-plateau --mode mean --blocks 10
    seqlab norm --kind luxemburg --orlicz poly:2 --seq list:3,4
    seqlab norm --kind block-mean --theta powers2 --blocks 4 --seq const:1 --n 16
    seqlab witness half-plateau --nu 1 --rho-value 1 --blocks 10
    seqlab witness block-spike --theta powers2 --blocks 12 --orlicz linear
    seqlab witness extract --seq spike:set=squares,base=2,delta=1 --modulus id --n 100000
    seqlab witness probe --seq spike:set=squares,base=2,delta=1 --probe-moduli id,log1p --n 100000
    seqlab check --modulus id

Reports are deterministic: identical invocations produce byte-identical JSON
(stable field order, floats at 12 significant digits).  Exit status encodes
only I/O and spec validity; mathematical verdicts live in the payload.
Timing goes to stderr so it never perturbs the canonical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import density as density_mod
from . import membership as membership_mod
from . import witnesses as witnesses_mod
from .core import make_index_set, make_lacunary
from .errors import (CauchyConstructionError, SeqlabError,
                     WitnessExtractionError)
from .matrices import SummabilityMatrix, make_matrix, transform_prefix
from .membership import SpaceParams
from .modulus import check_modulus_axioms, make_modulus
from .orlicz import (LUXEMBURG_TOL, ORLICZ_TOL, block_mean_norm, check_orlicz_axioms,
                     luxemburg_norm, make_family, make_orlicz, make_rho, orlicz_norm)
from .sequences import is_generated, make_sequence

SCHEMA_VERSION = "seqlab/1"
# Largest --depth of witness extract and cauchy, whose time grows with it.
MAX_DEPTH = 1000


# -----------------------------
# canonical rendering
# -----------------------------

def _node(obj):
    """``obj`` as a report reads it, by the first rule that fits: a dataclass or dict as a dict of str keys, an
    ndarray as a list, a bool, int or float of Python or numpy as its Python value, bool tested before int, a
    list, tuple, str or None as itself, and anything else as its str."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {fld.name: getattr(obj, fld.name) for fld in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): v for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    for kind, of in ((bool, (bool, np.bool_)), (int, (int, np.integer)), (float, (float, np.floating))):
        if isinstance(obj, of):
            return kind(obj)
    return obj if obj is None or isinstance(obj, (list, tuple, str)) else str(obj)


_digits = "{:.12g}".format  # a float at 12 significant digits, as every format rounds it; "nan", "inf" by name


def _json_float(v) -> str:
    """A float's JSON: its ``_digits`` as a number, or as the string "inf", "-inf" or "nan" if not finite."""
    return repr(float(_digits(float(v)))) if math.isfinite(v) else f'"{_digits(float(v))}"'


_json_str = json.encoder.encode_basestring_ascii
# The JSON of a scalar by its exact type, the path of nearly every leaf; _json takes other types through _node
_JSON_SCALARS = {str: _json_str, int: int.__repr__, float: _json_float, np.float64: _json_float,
                 np.int64: lambda v: repr(int(v)), type(None): lambda v: "null",
                 bool: lambda v: "true" if v else "false", np.bool_: lambda v: "true" if v else "false"}


def _json(obj, pad: str) -> str:
    """The JSON of ``obj``, keys sorted and one element a line, its inner lines at ``pad`` plus two spaces."""
    if type(obj) in _JSON_SCALARS:
        return _JSON_SCALARS[type(obj)](obj)
    obj, inner = _node(obj), pad + "  "
    if isinstance(obj, dict):
        texts, ends = [f"{_json_str(k)}: {_json(v, inner)}" for k, v in sorted(obj.items())], "{}"
    elif isinstance(obj, (list, tuple)):
        try:  # a list of scalars, as most are
            texts = [_JSON_SCALARS[type(v)](v) for v in obj]
        except KeyError:
            texts = [_json(v, inner) for v in obj]
        ends = "[]"
    else:  # a scalar _node made plain, or a str subclass
        return _JSON_SCALARS.get(type(obj), _json_str)(obj)
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(texts) + f"\n{pad}{ends[1]}" if texts else ends


def render_json(payload: dict) -> str:
    """The canonical report: ``json.dumps(..., sort_keys=True, indent=2)``'s text, written in one walk."""
    return _json(payload, "") + "\n"


def _cell(v) -> str:
    """A scalar's csv or table text: true or false, a float at 12 significant digits, None as empty."""
    v = _node(v)
    return (str(v).lower() if isinstance(v, bool) else _digits(v) if isinstance(v, float)
            else "" if v is None else str(v))


def _flatten(obj, prefix: str = ""):
    """Yield (path, leaf) over a payload: a leaf is a scalar or a list of scalars, as _node reads it."""
    obj = _node(obj)
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _flatten(obj[k], f"{prefix}.{k}" if prefix else k)
    else:
        yield prefix, obj


def render_csv(payload: dict) -> str:
    lines = ["field,index,value"]
    for field, leaf in _flatten(payload):
        for idx, v in enumerate(leaf, start=1) if isinstance(leaf, (list, tuple)) else [("", leaf)]:
            val = _cell(v)
            if any(c in val for c in ',"\n\r'):  # quoted as RFC 4180 asks
                val = '"' + val.replace('"', '""') + '"'
            lines.append(f"{field},{idx},{val}")
    return "\n".join(lines) + "\n"


def render_table(payload: dict) -> str:
    # a list joins into one row, so an empty list still prints its field
    flat = [(field, ", ".join(map(_cell, leaf)) if isinstance(leaf, (list, tuple)) else _cell(leaf))
            for field, leaf in _flatten(payload)]
    width = max((len(k) for k, _ in flat), default=0)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in flat) + "\n"


def _emit(payload: dict, fmt: str, out: str | None) -> None:
    text = {"json": render_json, "csv": render_csv, "table": render_table}[fmt](payload)
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise SeqlabError(f"cannot write report to {out}: {exc.strerror or exc}") from None
    sys.stdout.write(text)


def _report(args, results, warnings=(), **resolved) -> dict:
    """The report of ``args``, whose ``inputs`` hold exactly the flags its route reads: each
    as given, or at the value the run used where ``resolved`` names one."""
    return {
        "schema_version": SCHEMA_VERSION,
        "subcommand": args.command,
        "inputs": {name: resolved.get(name, getattr(args, name)) for name in _READS[_route(args)]},
        "results": results,
        "warnings": list(warnings),
    }


def _membership_payload(rep) -> dict:
    """A MembershipReport's fields, less the trails its mode left unset."""
    return {fld.name: getattr(rep, fld.name) for fld in dataclasses.fields(rep)
            if getattr(rep, fld.name) is not None}


def _pair_payload(rep, **extra) -> dict:
    """A PairReport's checks and mean trails, with its two membership reports
    under ``mean`` and ``count``."""
    return {**rep.checks, "residuals": rep.mean_report.block_residuals,
            "exceedance_ratios": rep.mean_report.exceedance_ratios,
            "matches_expected": rep.matches_expected, "mean": _membership_payload(rep.mean_report),
            "count": _membership_payload(rep.count_report), **extra}


def _witness_instance(kind: str, args):
    """The ``half-plateau`` or ``block-spike`` instance as ``(x, params, extras)``, extras the fields its
    ``witness`` report adds.  Unset ``--blocks`` means 10 blocks, or 12 for block-spike, on both commands."""
    blocks = args.blocks if args.blocks is not None else (10 if kind == "half-plateau" else 12)
    if kind == "half-plateau":
        x, params = witnesses_mod.gen_half_plateau_instance(args.nu, args.rho_value, blocks)
        return x, params, {"cuts": params.scheme.cuts, "eps": params.eps}
    x, params, heights = witnesses_mod.gen_block_spike_instance(
        make_orlicz(args.orlicz), make_lacunary(args.theta, blocks), args.rho_value, args.alpha)
    return x, params, {"cuts": params.scheme.cuts, "spike_heights": heights}


# The flags each route reads: the flags its report echoes under inputs, and the only ones it takes
_READS = {route: frozenset(names.split()) for route, names in {
    "density": "set modulus n tol",
    "membership --seq": "seq witness mode modulus matrix orlicz theta blocks alpha rho limit eps tol n "
                        "estimate_limit",
    "membership --witness half-plateau": "witness mode modulus blocks nu rho_value tol",
    "membership --witness block-spike": "witness mode modulus orlicz theta blocks alpha rho_value tol",
    "norm luxemburg": "kind orlicz seq tol n",
    "norm orlicz": "kind orlicz seq tol n",
    "norm block-mean": "kind seq theta blocks n",
    "witness half-plateau": "task blocks nu rho_value tol",
    "witness block-spike": "task orlicz theta blocks alpha rho_value tol",
    "witness probe": "task seq matrix orlicz rho eps tol n probe_moduli",
    "witness extract": "task seq modulus matrix orlicz rho limit eps tol n depth",
    "witness cauchy": "task seq modulus matrix eps tol n depth",
    "check": "modulus orlicz"}.items()}
# The order in which the first flag a route does not read is named: the data and scoring flags, the
# generated instance's, the witness task's, then the family and scheme flags
_REFUSAL_ORDER = ("seq", "modulus", "matrix", "rho", "limit", "eps", "tol", "n", "estimate_limit", "nu",
                  "rho_value", "depth", "probe_moduli", "orlicz", "theta", "alpha", "blocks")


def _route(args) -> str:
    """The ``_READS`` key of ``args``: the command, with the source, kind or task that picks its route."""
    if args.command == "membership":
        return f"membership --witness {args.witness}" if args.witness else "membership --seq"
    return " ".join([args.command] + [getattr(args, pick) for pick in ("kind", "task") if hasattr(args, pick)])


def _refuse_unread(args, parser) -> None:
    """Refuse the first flag, in ``_REFUSAL_ORDER``, that the route of ``args`` does not read and
    that is set away from its default in the command's own subparser of ``parser``."""
    route, defaults = _route(args), _defaults(parser)[args.command]
    for name in _REFUSAL_ORDER:
        if name not in _READS[route] and getattr(args, name, None) != defaults[name]:
            raise SeqlabError(f"{route} does not read --{name.replace('_', '-')}")


def _space_params(args, scheme) -> tuple[SummabilityMatrix, SpaceParams]:
    """The ``--matrix``, made first, and the params the other space flags give."""
    return make_matrix(args.matrix), SpaceParams(make_family(args.orlicz), scheme, args.alpha,
                                                 make_rho(args.rho), args.limit, args.eps)


# -----------------------------
# subcommand handlers
# -----------------------------

def _cmd_density(args) -> dict:
    a = make_index_set(args.set)
    est = density_mod.f_density(a, make_modulus(args.modulus or "id"), args.n, args.tol)
    return _report(args, est)


def _scored(y, params: SpaceParams, f, tol) -> tuple[SpaceParams, np.ndarray]:
    """``params`` with their limit and the scores of the transformed prefix ``y``
    against it: the given limit, or else the one ``stat_limit_estimate`` finds
    under the modulus ``f``, whose winning scores are kept."""
    if params.limit is not None:
        return params, membership_mod.pointwise_scores(y, params)
    (est,), s = membership_mod.stat_limit_estimate(y, params, [f], tol)
    if est is None:
        raise SeqlabError("no candidate limit passed the density test; supply --limit")
    return dataclasses.replace(params, limit=est), s


def _cmd_membership(args) -> dict:
    f = make_modulus(args.modulus or "id")
    # refused before any data is made: a bounded modulus where a density is judged, or no limit to score against
    if args.mode == "density" or args.estimate_limit:
        f.unbounded_for("the density mode")
    if args.witness:  # a generated instance, scored on its own values
        x, params, _ = _witness_instance(args.witness, args)
        s = membership_mod.pointwise_scores(x.values, params)
    elif args.seq is None:
        raise SeqlabError("membership needs --seq or --witness")
    elif args.limit is None and not args.estimate_limit:
        raise SeqlabError("membership needs --limit or --estimate-limit")
    else:  # --matrix's one transform of --seq
        scheme = make_lacunary(args.theta, 10 if args.blocks is None else args.blocks)
        # a density trail needs room, and so does the limit estimate, which scans one; block modes need k_max
        room = 100_000 if args.mode == "density" else 1000 if args.estimate_limit else 0
        x = make_sequence(args.seq, max(scheme.k_max, room) if args.n is None else args.n)
        matrix, params = _space_params(args, scheme)
        if args.estimate_limit:
            params = dataclasses.replace(params, limit=None)  # the estimate replaces any --limit
        # the block modes read rows up to k_max; rows past n are left to block_trails, which names the scheme
        rows = len(x) if args.estimate_limit or args.mode == "density" else min(scheme.k_max, len(x))
        params, s = _scored(transform_prefix(matrix, x, rows), params, f, args.tol)
    if args.mode == "density":
        rep = membership_mod.density_membership(s, params, f, args.tol)
    else:
        rep = membership_mod.block_membership(s, params, args.mode, args.tol)
    warnings = [witnesses_mod.BLOCK_SPIKE_DISCREPANCY] if args.witness == "block-spike" else []
    return _report(args, _membership_payload(rep), warnings, limit=params.limit, n=len(x),
                   blocks=params.scheme.blocks)


def _cmd_norm(args) -> dict:
    x = make_sequence(args.seq, args.n)
    if args.kind == "block-mean":
        scheme = make_lacunary(args.theta, args.blocks)
        return _report(args, {"value": block_mean_norm(x, scheme), "cuts": scheme.cuts},
                       n=len(x), blocks=scheme.blocks)
    family = make_family(args.orlicz)
    default = LUXEMBURG_TOL if args.kind == "luxemburg" else ORLICZ_TOL
    tol = default if args.tol is None else args.tol
    if args.kind == "luxemburg":
        return _report(args, {"value": luxemburg_norm(family, x, tol)}, n=len(x), tol=tol)
    res = orlicz_norm(family, x, tol)
    past = res.scale is None and res.value > 0  # x = 0 has no scale either
    return _report(args, res, ["the minimizing scale k lies past the float range"] if past else [],
                   n=len(x), tol=tol)


def _cmd_witness(args) -> dict:
    if args.task in ("half-plateau", "block-spike"):
        x, params, extras = _witness_instance(args.task, args)
        spike = args.task == "block-spike"
        report = witnesses_mod.block_spike_report if spike else witnesses_mod.half_plateau_report
        warnings = [witnesses_mod.BLOCK_SPIKE_DISCREPANCY] if spike else []
        return _report(args, _pair_payload(report(x, params, args.tol), **extras), warnings,
                       blocks=params.scheme.blocks)

    if args.seq is None:
        raise SeqlabError(f"witness task {args.task!r} needs --seq")
    depth = {"extract": 5, "cauchy": 10}.get(args.task) if args.depth is None else args.depth
    least = 2 if args.task == "extract" else 1
    # refused before any computation, so the data cannot decide: no probe modulus, a bounded one, or a bad depth
    if args.task == "probe":
        tokens = filter(str.strip, (args.probe_moduli or "").split(","))
        moduli = witnesses_mod.probe_moduli(map(make_modulus, tokens))
    elif not least <= depth <= MAX_DEPTH:
        raise SeqlabError(f"witness {args.task} needs --depth in [{least}, {MAX_DEPTH}], got {depth}")
    else:  # named for the first stage to read f: the Cauchy check, or extract's limit estimate if it runs
        use = ("the Cauchy check" if args.task == "cauchy" else
               "witness extraction" if args.limit is not None else "the density mode")
        f = make_modulus(args.modulus or "id").unbounded_for(use)
    # an unset --n is 100,000 for a generated sequence; list and file data keep their own length, as under norm
    x = make_sequence(args.seq, 100_000 if args.n is None and is_generated(args.seq) else args.n)
    matrix, params = _space_params(args, make_lacunary(args.theta, max(1, int(math.log2(max(2, len(x)))))))
    y = transform_prefix(matrix, x, len(x))  # once, for the probe, extract's scores or both Cauchy stages

    if args.task == "probe":
        return _report(args, witnesses_mod.multi_modulus_probe(y, params, moduli, args.tol), n=len(x))
    if args.task == "extract":
        params, s = _scored(y, params, f, args.tol)  # against the given or the estimated limit
        try:
            ws = witnesses_mod.extract_witness_set(s, f, depth, args.tol)
        except WitnessExtractionError as exc:
            results = {"failure": {"stuck_level": exc.stuck_level, "message": str(exc)},
                       "limit": params.limit}
            return _report(args, results, n=len(x), depth=depth)
        off = witnesses_mod.converge_off_witness(s, ws.members, params.eps, 1.0 / depth)
        members = ws.members.members_upto(len(x))
        results = {
            "limit": params.limit,
            "thresholds": ws.thresholds,
            "witness_size": members.size,
            "witness_members_head": members[:500],
            "density": ws.density,
            "off_tail_sup": ws.off_tail_sup,
            "off_check": off,
        }
        return _report(args, results, n=len(x), depth=depth)

    # cauchy, the one task left
    base = membership_mod.stat_cauchy_check(y, params.eps, f, tol=args.tol)
    results: dict = {"cauchy": base.cauchy, "anchor": base.anchor}
    if base.cauchy:
        try:
            nested = witnesses_mod.cauchy_limit_construction(y, f, depth, args.tol)
            results.update(limit=nested.value, width=nested.width, anchors=nested.anchors)
        except CauchyConstructionError as exc:
            results["failure"] = {"level": exc.level, "message": str(exc)}
    return _report(args, results, n=len(x), depth=depth)


def _cmd_check(args) -> dict:
    if bool(args.modulus) == bool(args.orlicz):
        raise SeqlabError("check needs exactly one of --modulus or --orlicz")
    if args.modulus:
        report = check_modulus_axioms(make_modulus(args.modulus))
        kind, name = "modulus", args.modulus
    else:
        report = check_orlicz_axioms(make_orlicz(args.orlicz))
        kind, name = "orlicz", args.orlicz
    results = {"kind": kind, "name": name, "passed": report.passed, "axioms": report.checks()}
    return _report(args, results)


# -----------------------------
# parser
# -----------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p.add_argument("--out", default=None, help="also write the report to this path")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call and shared: callers must not mutate it."""
    parser = argparse.ArgumentParser(prog="seqlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="natural or modulus-weighted density of an index set")
    p.add_argument("--set", required=True)
    p.add_argument("--modulus", default=None)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--tol", type=float, default=density_mod.DEFAULT_TOL)
    _add_common(p)

    # the sequence, space and witness-instance flags of membership and witness
    space = argparse.ArgumentParser(add_help=False)
    space.add_argument("--seq")
    space.add_argument("--modulus")
    space.add_argument("--matrix", default="identity")
    space.add_argument("--orlicz", default="linear")
    space.add_argument("--theta", default="powers2")
    space.add_argument("--alpha", type=float, default=1.0)
    space.add_argument("--rho", default="const:1")
    space.add_argument("--nu", type=float, default=1.0)
    space.add_argument("--rho-value", type=float, default=1.0, help="scalar rho for generated witness instances")
    space.add_argument("--limit", type=float, help="candidate limit L")
    space.add_argument("--eps", type=float, default=membership_mod.DEFAULT_EPS)
    space.add_argument("--tol", type=float, default=density_mod.DEFAULT_TOL)
    space.add_argument("--n", type=int)
    _add_common(space)

    p = sub.add_parser("membership", parents=[space], help="block membership diagnostics")
    p.add_argument("--witness", choices=("half-plateau", "block-spike"), default=None)
    p.add_argument("--mode", choices=("mean", "count", "density"), required=True)
    p.add_argument("--blocks", type=int)
    p.add_argument("--estimate-limit", action="store_true")

    p = sub.add_parser("norm", help="Luxemburg, Orlicz, or block-mean norm")
    p.add_argument("--kind", choices=("luxemburg", "orlicz", "block-mean"), required=True)
    p.add_argument("--orlicz", default="poly:2")
    p.add_argument("--seq", required=True)
    p.add_argument("--theta", default="powers2")
    p.add_argument("--blocks", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("witness", parents=[space], help="constructions and probes")
    p.add_argument("task", choices=("extract", "cauchy", "half-plateau", "block-spike", "probe"))
    p.add_argument("--probe-moduli", help="comma list, e.g. id,log1p,pow:0.5")
    p.add_argument("--depth", type=int,
                   help=f"extract: 2..{MAX_DEPTH} (default 5), cauchy: 1..{MAX_DEPTH} (default 10)")
    p.add_argument("--blocks", type=int)

    p = sub.add_parser("check", help="sampled axiom checks for moduli and Orlicz functions")
    p.add_argument("--modulus", default=None)
    p.add_argument("--orlicz", default=None)
    _add_common(p)

    return parser


@functools.cache
def _defaults(parser: argparse.ArgumentParser) -> dict[str, dict]:
    """Each command's default of every ``_REFUSAL_ORDER`` flag, read once from its subparser in ``parser``."""
    return {cmd: {name: sub.get_default(name) for name in _REFUSAL_ORDER}
            for cmd, sub in next(a for a in parser._actions if a.dest == "command").choices.items()}


_HANDLERS = {"density": _cmd_density, "membership": _cmd_membership, "norm": _cmd_norm,
             "witness": _cmd_witness, "check": _cmd_check}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        _refuse_unread(args, parser)  # before any handler generates data
        _emit(_HANDLERS[args.command](args), args.format, args.out)
    except (SeqlabError, ValueError, ArithmeticError) as exc:
        print(f"seqlab: error: {exc}", file=sys.stderr)
        return 1
    print(f"elapsed_ms={1000.0 * (time.monotonic() - started):.1f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
