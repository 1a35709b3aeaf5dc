"""Command-line frontend: parse specs, run diagnostics, emit reports.

Usage examples:

    seqlab density --set squares --modulus log1p --n 1000000
    seqlab density --set evens --n 100000
    seqlab membership --seq const:3 --limit 3 --mode density --modulus id
    seqlab membership --witness half-plateau --mode mean --blocks 10
    seqlab norm --kind luxemburg --orlicz poly:2 --seq list:3,4
    seqlab norm --kind block-mean --theta powers2 --blocks 4 --seq const:1
    seqlab witness half-plateau --nu 1 --rho 1 --blocks 10
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
from .matrices import make_matrix, transform_prefix
from .membership import SpaceParams
from .modulus import check_modulus_axioms, make_modulus
from .orlicz import (block_mean_norm, check_orlicz_axioms, luxemburg_norm,
                     make_family, make_orlicz, make_rho, orlicz_norm)
from .sequences import make_sequence

SCHEMA_VERSION = "seqlab/1"
# Largest --depth of witness extract and cauchy, whose time grows with it.
MAX_DEPTH = 1000


# -----------------------------
# canonical rendering
# -----------------------------

def _canon(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {fld.name: _canon(getattr(obj, fld.name)) for fld in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_canon(v) for v in obj.tolist()]
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


def render_json(payload: dict) -> str:
    return json.dumps(_canon(payload), sort_keys=True, indent=2) + "\n"


def _fmt_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    if v is None:
        return ""
    return str(v)


def _flatten(obj, prefix: str = ""):
    """Yield (path, leaf) over a canonical payload; a leaf is a scalar or a
    list of scalars (possibly empty)."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _flatten(obj[k], f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(obj, list) and any(isinstance(v, (dict, list)) for v in obj):
        for i, v in enumerate(obj, start=1):
            yield from _flatten(v, f"{prefix}[{i}]")
    else:
        yield prefix, obj


def render_csv(payload: dict) -> str:
    lines = ["field,index,value"]
    for field, leaf in _flatten(_canon(payload)):
        for idx, v in enumerate(leaf, start=1) if isinstance(leaf, list) else [("", leaf)]:
            val = _fmt_scalar(v)
            if "," in val or '"' in val:
                val = '"' + val.replace('"', '""') + '"'
            lines.append(f"{field},{idx},{val}")
    return "\n".join(lines) + "\n"


def render_table(payload: dict) -> str:
    # a list joins into one row, so an empty list still prints its field
    flat = [(field, ", ".join(map(_fmt_scalar, leaf)) if isinstance(leaf, list) else _fmt_scalar(leaf))
            for field, leaf in _flatten(_canon(payload))]
    width = max((len(k) for k, _ in flat), default=0)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in flat) + "\n"


def _emit(payload: dict, fmt: str, out: str | None) -> None:
    text = {"json": render_json, "csv": render_csv, "table": render_table}[fmt](payload)
    if out:
        Path(out).write_text(text)
    sys.stdout.write(text)


def _report(subcommand: str, inputs: dict, results, warnings=()) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "inputs": inputs,
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
    """The ``half-plateau`` or ``block-spike`` instance as ``(x, params, spike_heights)``,
    heights None for half-plateau.  Unset ``--blocks`` (``witness`` only: ``membership``
    defaults it to 10) means 10 blocks, or 12 for block-spike."""
    blocks = args.blocks if args.blocks is not None else (10 if kind == "half-plateau" else 12)
    if kind == "half-plateau":
        return (*witnesses_mod.gen_half_plateau_instance(args.nu, args.rho_value, blocks), None)
    return witnesses_mod.gen_block_spike_instance(
        make_orlicz(args.orlicz), make_lacunary(args.theta, blocks), args.rho_value, args.alpha)


# the flags membership and witness both echo in their inputs
_SPACE_ECHO = ("seq", "modulus", "theta", "blocks", "orlicz", "alpha", "rho", "limit", "eps", "tol", "n")


def _echo(args, names, **resolved) -> dict:
    """A report's ``inputs``: each flag in ``names`` as given, then ``resolved``
    values, which override flags of the same name."""
    return {**{name: getattr(args, name) for name in names}, **resolved}


def _space_params(args, scheme) -> SpaceParams:
    return SpaceParams(
        matrix=make_matrix(args.matrix),
        family=make_family(args.orlicz),
        scheme=scheme,
        alpha=args.alpha,
        rho=make_rho(args.rho),
        limit=args.limit,
        eps=args.eps,
    )


# -----------------------------
# subcommand handlers
# -----------------------------

def _cmd_density(args) -> dict:
    a = make_index_set(args.set)
    if args.modulus:
        f = make_modulus(args.modulus)
        est = density_mod.f_density(a, f, args.n, args.tol)
    else:
        est = density_mod.natural_density(a, args.n, args.tol)
    return _report("density", _echo(args, ("set", "modulus", "n", "tol")), est)


def _resolve_membership(args):
    if args.witness:
        return _witness_instance(args.witness, args)[:2]
    if args.seq is None:
        raise SeqlabError("membership needs --seq or --witness")
    scheme = make_lacunary(args.theta, args.blocks)
    n = args.n
    if n is None:
        if args.mode in ("mean", "count"):
            # limit estimation scans a density trail, which needs room
            n = max(scheme.k_max, 1000) if args.estimate_limit else scheme.k_max
        else:
            n = max(scheme.k_max, 100_000)
    x = make_sequence(args.seq, n)
    params = _space_params(args, scheme)
    if args.estimate_limit:
        f = make_modulus(args.modulus or "id")
        (est,), _ = membership_mod.stat_limit_estimate(
            transform_prefix(params.matrix, x, len(x)), params, [f], tol=args.tol)
        if est is None:
            raise SeqlabError("no candidate limit passed the density test; supply --limit")
        params = dataclasses.replace(params, limit=est)
    elif params.limit is None:
        raise SeqlabError("membership needs --limit or --estimate-limit")
    return x, params


def _cmd_membership(args) -> dict:
    x, params = _resolve_membership(args)
    if args.mode == "density":
        f = make_modulus(args.modulus or "id")
        rep = membership_mod.density_membership(x, params, f, args.tol)
    else:
        rep = membership_mod.block_membership(x, params, args.mode, args.tol)
    inputs = _echo(args, _SPACE_ECHO + ("witness", "mode", "matrix"),
                   limit=params.limit, eps=params.eps, n=len(x))
    warnings = [witnesses_mod.BLOCK_SPIKE_DISCREPANCY] if args.witness == "block-spike" else []
    return _report("membership", inputs, _membership_payload(rep), warnings)


def _cmd_norm(args) -> dict:
    x = make_sequence(args.seq, args.n)
    inputs = _echo(args, ("kind", "orlicz", "seq", "theta", "blocks"), n=len(x))
    if args.kind == "block-mean":
        scheme = make_lacunary(args.theta, args.blocks)
        return _report("norm", inputs, {"value": block_mean_norm(x, scheme), "cuts": scheme.cuts})
    family = make_family(args.orlicz)
    if args.kind == "luxemburg":
        tol = args.tol if args.tol is not None else 1e-8
        inputs["tol"] = tol
        return _report("norm", inputs, {"value": luxemburg_norm(family, x, tol)})
    tol = args.tol if args.tol is not None else 1e-6
    inputs["tol"] = tol
    res = orlicz_norm(family, x, tol)
    past = res.scale is None and res.value > 0  # x = 0 has no scale either
    return _report("norm", inputs, res, ["the minimizing scale k lies past the float range"] if past else [])


def _cmd_witness(args) -> dict:
    inputs = _echo(args, _SPACE_ECHO + ("task", "depth", "nu", "probe_moduli"))

    if args.task in ("half-plateau", "block-spike"):
        x, params, heights = _witness_instance(args.task, args)
        if heights is None:
            rep = witnesses_mod.half_plateau_report(x, params, args.tol)
            return _report("witness", inputs, _pair_payload(rep, cuts=params.scheme.cuts, eps=params.eps))
        rep = witnesses_mod.block_spike_report(x, params, args.tol)
        results = _pair_payload(rep, cuts=params.scheme.cuts, spike_heights=heights)
        return _report("witness", inputs, results, [witnesses_mod.BLOCK_SPIKE_DISCREPANCY])

    if args.seq is None:
        raise SeqlabError(f"witness task {args.task!r} needs --seq")
    depth = {"extract": 5, "cauchy": 10}.get(args.task) if args.depth is None else args.depth
    least = 2 if args.task == "extract" else 1
    # before any computation, so the data cannot decide
    if args.task != "probe" and not least <= depth <= MAX_DEPTH:
        raise SeqlabError(f"witness {args.task} needs --depth in [{least}, {MAX_DEPTH}], got {depth}")
    n = args.n if args.n is not None else 100_000
    x = make_sequence(args.seq, n)
    blocks = args.blocks if args.blocks is not None else max(1, int(math.log2(max(2, len(x)))))
    params = _space_params(args, make_lacunary(args.theta, blocks))

    if args.task == "probe":
        moduli = [make_modulus(tok) for tok in (args.probe_moduli or "").split(",") if tok.strip()]
        return _report("witness", inputs, witnesses_mod.multi_modulus_probe(x, params, moduli, args.tol))

    f = make_modulus(args.modulus or "id")
    if args.task == "extract":
        # the scores are computed once, against the given or the estimated limit
        y = transform_prefix(params.matrix, x, len(x))
        if params.limit is None:
            (est,), s = membership_mod.stat_limit_estimate(y, params, [f], args.tol)
            if est is None:
                raise SeqlabError("no candidate limit found; supply --limit")
            params = dataclasses.replace(params, limit=est)
        else:
            s = membership_mod.pointwise_scores(y, params)
        try:
            ws = witnesses_mod.extract_witness_set(s, f, depth, args.tol)
        except WitnessExtractionError as exc:
            results = {"failure": {"stuck_level": exc.stuck_level, "message": str(exc)},
                       "limit": params.limit}
            return _report("witness", inputs, results)
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
        return _report("witness", inputs, results)

    # cauchy, the one task left
    base = membership_mod.stat_cauchy_check(x, params, f, tol=args.tol)
    results: dict = {"cauchy": base.cauchy, "anchor": base.anchor}
    if base.cauchy:
        try:
            nested = witnesses_mod.cauchy_limit_construction(x, params, f, depth, args.tol)
            results["limit"] = nested.value
            results["width"] = nested.width
            results["anchors"] = nested.anchors
        except CauchyConstructionError as exc:
            results["failure"] = {"level": exc.level, "message": str(exc)}
    return _report("witness", inputs, results)


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
    return _report("check", _echo(args, ("modulus", "orlicz")), results)


# -----------------------------
# parser
# -----------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p.add_argument("--out", default=None, help="also write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seqlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="natural or modulus-weighted density of an index set")
    p.add_argument("--set", required=True)
    p.add_argument("--modulus", default=None)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--tol", type=float, default=1e-2)
    _add_common(p)

    # the sequence, space and witness-instance flags of membership and witness
    space = argparse.ArgumentParser(add_help=False)
    space.add_argument("--seq", default=None)
    space.add_argument("--modulus", default=None)
    space.add_argument("--matrix", default="identity")
    space.add_argument("--orlicz", default="linear")
    space.add_argument("--theta", default="powers2")
    space.add_argument("--alpha", type=float, default=1.0)
    space.add_argument("--rho", default="const:1")
    space.add_argument("--nu", type=float, default=1.0)
    space.add_argument("--rho-value", type=float, default=1.0,
                       help="scalar rho for generated witness instances")
    space.add_argument("--limit", type=float, default=None, help="candidate limit L")
    space.add_argument("--eps", type=float, default=0.1)
    space.add_argument("--tol", type=float, default=1e-2)
    space.add_argument("--n", type=int, default=None)
    _add_common(space)

    p = sub.add_parser("membership", parents=[space], help="block membership diagnostics")
    p.add_argument("--witness", choices=("half-plateau", "block-spike"), default=None)
    p.add_argument("--mode", choices=("mean", "count", "density"), required=True)
    p.add_argument("--blocks", type=int, default=10)
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
    p.add_argument("--probe-moduli", default=None, help="comma list, e.g. id,log1p,pow:0.5")
    p.add_argument("--depth", type=int, default=None,
                   help=f"extract: 2..{MAX_DEPTH} (default 5), cauchy: 1..{MAX_DEPTH} (default 10)")
    p.add_argument("--blocks", type=int, default=None)

    p = sub.add_parser("check", help="sampled axiom checks for moduli and Orlicz functions")
    p.add_argument("--modulus", default=None)
    p.add_argument("--orlicz", default=None)
    _add_common(p)

    return parser


_HANDLERS = {
    "density": _cmd_density,
    "membership": _cmd_membership,
    "norm": _cmd_norm,
    "witness": _cmd_witness,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        payload = _HANDLERS[args.command](args)
    except (SeqlabError, ValueError, ArithmeticError) as exc:
        print(f"seqlab: error: {exc}", file=sys.stderr)
        return 1
    _emit(payload, args.format, args.out)
    print(f"elapsed_ms={1000.0 * (time.monotonic() - started):.1f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
