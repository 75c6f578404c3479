"""Batch command-line front end.

Every command reads exact rational inputs, runs one library operation, and
writes a JSON report to stdout (or --out). Exit codes: 0 success (and every
requested check passed), 1 a requested check failed, 2 unknown command or
bad arguments, 3 malformed input file or a file that cannot be read or
written, 4 violated mathematical precondition.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from typing import Any

from . import serialize
from .conciseness import mode_subspaces, subspace_sum
from .harness import run_harness
from .lie import exp_log_signature, log_signature, pure_volume_check
from .ranks import (
    certify_rank,
    classify_222_complex_rank,
    decompose_s_k_alpha,
    hyperdet_222,
    rank_bound_formula,
    s_k_alpha,
)
from .serialize import ParseError, dump_json
from .signatures import Path, pwl_signature, time_series_to_path
from .symmetry import Sig222Params, partial_symmetry_constraint, sig222_from_params, symmetry_report
from .words import Word, shuffle

DEFAULT_LEVEL = 4
GUARD_DIM = 6
GUARD_LEVEL = 8
COST_WARN_ENTRIES = 200_000


def _check_size(dim: int, level: int, allow_large: bool):
    entries = sum(dim**k for k in range(level + 1))
    if entries > COST_WARN_ENTRIES:
        print(
            f"warning: about {entries} exact entries across levels 0..{level} in dimension {dim}",
            file=sys.stderr,
        )
    if (dim > GUARD_DIM or level > GUARD_LEVEL) and not allow_large:
        raise ValueError(
            f"precondition 'dim <= {GUARD_DIM} and level <= {GUARD_LEVEL}' violated "
            f"(dim={dim}, level={level}); pass --allow-large to override"
        )


def _add_float_columns(obj: Any) -> Any:
    """Attach lossy float companions next to rational payloads."""
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            out[key] = _add_float_columns(value)
            if key in ("entries", "coeff", "value", "hyperdeterminant") and _is_rationals(value):
                out[key + "_float_lossy"] = _to_floats(value)
        return out
    if isinstance(obj, list):
        return [_add_float_columns(x) for x in obj]
    return obj


def _is_rationals(value: Any) -> bool:
    if isinstance(value, str):
        return _is_rational_str(value)
    return isinstance(value, list) and all(isinstance(x, str) and _is_rational_str(x) for x in value)


def _is_rational_str(text: str) -> bool:
    try:
        Fraction(text)
        return True
    except (ValueError, ZeroDivisionError):
        return False


def _to_floats(value: Any):
    if isinstance(value, str):
        return float(Fraction(value))
    return [float(Fraction(x)) for x in value]


def _emit(report: dict, args) -> None:
    text = dump_json(_add_float_columns(report) if getattr(args, "float", False) else report)
    out = getattr(args, "out", None)
    if out:
        out_dir = os.environ.get("SIGTENSOR_OUT_DIR", "")
        target = out if os.path.isabs(out) or not out_dir else os.path.join(out_dir, out)
        with open(target, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_path(args) -> Path:
    if getattr(args, "series", None):
        samples = serialize.read_time_series_csv(args.series, has_header=args.header)
        return time_series_to_path(samples)
    return serialize.path_from_json(serialize.load_json(args.path), args.path)


# -- commands ----------------------------------------------------------------

def cmd_signature(args) -> int:
    path = _load_path(args)
    _check_size(path.dim, args.level, args.allow_large)
    sig = pwl_signature(path, args.level)
    report = {
        "command": "signature",
        "inputs": {"path": serialize.path_to_json(path), "level": args.level},
        "result": {"signature": serialize.signature_to_json(sig)},
    }
    _emit(report, args)
    return 0


def cmd_shuffle(args) -> int:
    v, w = args.w1, args.w2
    result = shuffle(v, w)
    report = {
        "command": "shuffle",
        "inputs": {"w1": str(v), "w2": str(w)},
        "result": serialize.word_sum_to_json(result),
    }
    _emit(report, args)
    return 0


def cmd_exp(args) -> int:
    l = serialize.log_signature_from_json(serialize.load_json(args.logsig), args.logsig)
    level = args.level if args.level is not None else l.max_level
    if level < 0:
        raise ValueError("precondition 'level >= 0' violated")
    _check_size(l.dim, level, args.allow_large)
    sig = exp_log_signature(l.truncate(level))
    report = {
        "command": "exp",
        "inputs": {"logsig": args.logsig, "level": level},
        "result": {"signature": serialize.signature_to_json(sig)},
    }
    _emit(report, args)
    return 0


def cmd_log(args) -> int:
    sig = serialize.signature_from_json(serialize.load_json(args.sig), args.sig)
    _check_size(sig.dim, sig.max_level, args.allow_large)
    l = log_signature(sig)
    report = {
        "command": "log",
        "inputs": {"sig": args.sig},
        "result": {"log_signature": serialize.log_signature_to_json(l)},
    }
    _emit(report, args)
    return 0


def cmd_decompose(args) -> int:
    path = _load_path(args)
    _check_size(path.dim, args.level, args.allow_large)
    if args.level < 2:
        raise ValueError("precondition 'level >= 2' violated")
    dec = decompose_s_k_alpha(path.increments, args.level, args.alpha)
    # the witness is certified against a tensor computed without it
    if args.alpha == 0:
        target = pwl_signature(path, args.level).level(args.level)
    else:
        target = s_k_alpha(path.increments, args.level, args.alpha)
    cert = certify_rank(target, dec)
    report = {
        "command": "decompose",
        "inputs": {"path": serialize.path_to_json(path), "level": args.level, "alpha": args.alpha},
        "result": {"decomposition": serialize.decomposition_to_json(dec), "length": dec.length},
        "certificates": {"rank": serialize.certificate_to_json(cert, include_witness=False)},
    }
    _emit(report, args)
    return 0


def cmd_rank_bound(args) -> int:
    value = rank_bound_formula(args.k, args.m)
    report = {
        "command": "rank-bound",
        "inputs": {"k": args.k, "m": args.m},
        "result": {"bound": value},
    }
    _emit(report, args)
    return 0


def cmd_certify(args) -> int:
    tensor = serialize.tensor_from_json(serialize.load_json(args.tensor), args.tensor)
    witness = serialize.decomposition_from_json(serialize.load_json(args.witness), args.witness)
    cert = certify_rank(tensor, witness)
    report = {
        "command": "certify",
        "inputs": {"tensor": args.tensor, "witness": args.witness},
        "result": serialize.certificate_to_json(cert, include_witness=False),
    }
    _emit(report, args)
    return 0


def cmd_classify222(args) -> int:
    tensor = serialize.tensor_from_json(serialize.load_json(args.tensor), args.tensor)
    label = classify_222_complex_rank(tensor)
    report = {
        "command": "classify222",
        "inputs": {"tensor": args.tensor},
        "result": {
            "complex_rank": label,
            "real_rank": "not computed",
            "hyperdeterminant": serialize.format_rational(hyperdet_222(tensor)),
        },
    }
    _emit(report, args)
    return 0


def cmd_symmetry(args) -> int:
    tensor = serialize.tensor_from_json(serialize.load_json(args.tensor), args.tensor)
    report_obj = symmetry_report(tensor)
    report = {
        "command": "symmetry",
        "inputs": {"tensor": args.tensor},
        "result": serialize.symmetry_report_to_json(report_obj),
    }
    _emit(report, args)
    return 0


def cmd_sig222(args) -> int:
    values = [x.strip() for x in args.params.split(",")]
    if len(values) != 5:
        raise ParseError("expected five comma-separated rationals x,y,a,b,c", "--params")
    params = Sig222Params.of(*values)
    tensor = sig222_from_params(params)
    rep = symmetry_report(tensor)
    report = {
        "command": "sig222",
        "inputs": {"params": {"x": str(params.x), "y": str(params.y), "a": str(params.a), "b": str(params.b), "c": str(params.c)}},
        "result": {
            "tensor": serialize.tensor_to_json(tensor),
            "hyperdeterminant": serialize.format_rational(hyperdet_222(tensor)),
            "complex_rank": classify_222_complex_rank(tensor),
            "constraint_first": partial_symmetry_constraint(params, "first"),
            "constraint_last": partial_symmetry_constraint(params, "last"),
        },
        "certificates": {"symmetry": serialize.symmetry_report_to_json(rep)},
    }
    _emit(report, args)
    return 0


def cmd_concise(args) -> int:
    sig = serialize.signature_from_json(serialize.load_json(args.sig), args.sig)
    level = args.level if args.level is not None else sig.max_level
    if not 2 <= level <= sig.max_level:
        raise ValueError(f"precondition '2 <= level <= {sig.max_level}' violated (level={level})")
    # each level's mode subspaces are computed once; its symmetric-conciseness
    # span is their sum, and the recovered subspace is the sum of those spans
    per_level, spans = [], []
    for k in range(1, level + 1):
        spaces = mode_subspaces(sig.level(k))
        spans.append(subspace_sum(spaces, sig.dim))
        per_level.append({
            "level": k,
            "mode_dims": [w.dim for w in spaces],
            "symmetric_conciseness": serialize.subspace_to_json(spans[-1]),
        })
    w = subspace_sum(spans, sig.dim)
    report = {
        "command": "concise",
        "inputs": {"sig": args.sig, "level": level},
        "result": {
            "levels": per_level,
            "recovered_subspace": None if w.is_full else serialize.subspace_to_json(w),
            "symmetrically_concise": w.is_full,
            "certified_up_to_level": level,
        },
    }
    _emit(report, args)
    return 0


def cmd_pure_volume(args) -> int:
    sig = serialize.signature_from_json(serialize.load_json(args.sig), args.sig)
    verdict = pure_volume_check(sig, args.n, args.k0)
    report = {
        "command": "pure-volume",
        "inputs": {"sig": args.sig, "n": args.n, "k0": args.k0},
        "result": {"pure_volume": verdict},
    }
    _emit(report, args)
    return 0 if verdict else 1


def cmd_verify(args) -> int:
    result = run_harness(args.seed, args.size)
    report = {
        "command": "verify",
        "inputs": {"seed": args.seed, "size": args.size},
        "result": result,
    }
    _emit(report, args)
    return 0 if result["passed"] else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _word(text: str) -> Word:
    try:
        return Word.parse(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a word of positive integer letters: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sigtensor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        if out:
            p.add_argument("--out", help="write the report to this file (relative to SIGTENSOR_OUT_DIR if set)")
        p.add_argument("--float", action="store_true", help="add lossy decimal columns next to exact values")
        p.add_argument("--allow-large", action="store_true", help="lift the dim <= 6, level <= 8 guard")

    p = sub.add_parser("signature", help="signature of a piecewise linear path")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--path", help="path JSON file")
    src.add_argument("--series", help="time-series CSV file (one sample per row)")
    p.add_argument("--header", action="store_true", help="the CSV has a header row")
    p.add_argument("--level", type=int, default=DEFAULT_LEVEL)
    common(p)
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("shuffle", help="shuffle product of two words")
    p.add_argument("--w1", required=True, type=_word)
    p.add_argument("--w2", required=True, type=_word)
    common(p)
    p.set_defaults(func=cmd_shuffle)

    p = sub.add_parser("exp", help="exponential of a log-signature")
    p.add_argument("--logsig", required=True)
    p.add_argument("--level", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_exp)

    p = sub.add_parser("log", help="logarithm of a truncated signature")
    p.add_argument("--sig", required=True)
    common(p)
    p.set_defaults(func=cmd_log)

    p = sub.add_parser("decompose", help="explicit decomposition of a signature level")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--path", help="path JSON file")
    src.add_argument("--series", help="time-series CSV file")
    p.add_argument("--header", action="store_true")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--alpha", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("rank-bound", help="certified rank upper bound formula")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_rank_bound)

    p = sub.add_parser("certify", help="rank certificate from a decomposition witness")
    p.add_argument("--tensor", required=True)
    p.add_argument("--witness", required=True)
    common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("classify222", help="complex rank of a 2x2x2 tensor")
    p.add_argument("--tensor", required=True)
    common(p)
    p.set_defaults(func=cmd_classify222)

    p = sub.add_parser("symmetry", help="symmetry report for a tensor")
    p.add_argument("--tensor", required=True)
    common(p)
    p.set_defaults(func=cmd_symmetry)

    p = sub.add_parser("sig222", help="2x2x2 signature tensor from parameters x,y,a,b,c")
    p.add_argument("--params", required=True)
    common(p)
    p.set_defaults(func=cmd_sig222)

    p = sub.add_parser("concise", help="mode subspaces and hyperplane recovery")
    p.add_argument("--sig", required=True)
    p.add_argument("--level", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_concise)

    p = sub.add_parser("pure-volume", help="pure n-volume pattern check")
    p.add_argument("--sig", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k0", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_pure_volume)

    p = sub.add_parser("verify", help="seeded randomized property harness")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=_positive_int, default=10)
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


# parse_args keeps no state between calls, so one parser serves every call
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
