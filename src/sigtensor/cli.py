"""Batch command-line front end.

Every command reads exact rational inputs, runs one library operation, and
writes a JSON report to stdout (or --out). Exit codes: 0 success (and every
requested check passed), 1 a requested check failed, 2 unknown command or
bad arguments, 3 malformed input file or a file that cannot be decoded,
read or written, 4 violated mathematical precondition, 5 internal error (any
other exception, reported on one line without a traceback).

A command is one function registered by @_command(name, help, *arguments),
each argument an _arg(*flags, **options) for add_argument; path_input adds
--path | --series and --header, and all take --out, --float, --allow-large.
It returns the report's inputs and result (and certificates, if any) for
main to wrap and write; verdict names the result key whose false value exits 1.
Each command imports the library functions it calls when it runs, so that
start-up compiles only the modules every command needs.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from . import serialize
from .serialize import ParseError, dump_json

if TYPE_CHECKING:
    from .signatures import Path
    from .words import Word

DEFAULT_LEVEL = 4
GUARD_DIM = 6
GUARD_LEVEL = 8
GUARD_SHUFFLE = 200_000
GUARD_TERMS = 100_000
GUARD_VERIFY_SIZE = 1000  # the harness costs about 16 ms per unit of size
COST_WARN_ENTRIES = 200_000


def _too_large(condition: str, values: str) -> ValueError:
    """The error of an --allow-large guard: the condition and the values that broke it."""
    return ValueError(f"precondition '{condition}' violated ({values}); pass --allow-large to override")


def _check_size(dim: int, level: int, allow_large: bool):
    # the entries are counted only while the count stays below 2^64, so a huge
    # level meets the guard at once rather than a sum of huge powers
    if (level + 1) * dim.bit_length() <= 64:
        entries = sum(dim**k for k in range(level + 1))
        if entries > COST_WARN_ENTRIES:
            print(
                f"warning: about {entries} exact entries across levels 0..{level} in dimension {dim}",
                file=sys.stderr,
            )
    if (dim > GUARD_DIM or level > GUARD_LEVEL) and not allow_large:
        raise _too_large(f"dim <= {GUARD_DIM} and level <= {GUARD_LEVEL}", f"dim={dim}, level={level}")


def _check_order(order: int, allow_large: bool):
    """A dim-1 tensor has one entry at any order, while the flattening scan
    grows like order^2 and a symmetry witness like the order."""
    if order > GUARD_LEVEL and not allow_large:
        raise _too_large(f"order <= {GUARD_LEVEL}", f"order={order}")


def _add_float_columns(obj: Any) -> Any:
    """Attach lossy float companions next to rational payloads."""
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            out[key] = _add_float_columns(value)
            # the keys under which the serializers write exact rationals
            if key in ("entries", "coeff", "hyperdeterminant"):
                out[key + "_float_lossy"] = _to_floats(value)
        return out
    if isinstance(obj, list):
        return [_add_float_columns(x) for x in obj]
    return obj


def _to_float(text: str) -> float | None:
    """The nearest double, or None (JSON null) for a value outside the double range."""
    try:
        return float(Fraction(text))
    except OverflowError:
        return None


def _to_floats(value: Any):
    return _to_float(value) if isinstance(value, str) else [_to_float(x) for x in value]


def _read(parse: Callable[[Any, str], Any], file: str):
    return parse(serialize.load_json(file), file)


def _load_path(args) -> Path:
    from .signatures import time_series_to_path

    if args.series:
        samples = serialize.read_time_series_csv(args.series, has_header=args.header)
        return time_series_to_path(samples)
    return _read(serialize.path_from_json, args.path)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _word(text: str) -> Word:
    from .words import Word

    try:
        return Word.parse(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a word of positive integer letters: {text!r}") from None


# -- the command registry ------------------------------------------------------

class _Command(NamedTuple):
    run: Callable[[argparse.Namespace], tuple]
    help: str
    arguments: tuple[tuple[tuple[str, ...], dict], ...]
    path_input: bool
    verdict: str | None


_COMMANDS: dict[str, _Command] = {}


def _command(name: str, help: str, *arguments, path_input: bool = False, verdict: str | None = None):
    def register(run):
        _COMMANDS[name] = _Command(run, help, arguments, path_input, verdict)
        return run
    return register


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    return flags, options


@_command("signature", "signature of a piecewise linear path",
          _arg("--level", type=int, default=DEFAULT_LEVEL), path_input=True)
def cmd_signature(args):
    from .signatures import pwl_signature

    path = _load_path(args)
    _check_size(path.dim, args.level, args.allow_large)
    sig = pwl_signature(path, args.level)
    return {"path": serialize.path_to_json(path), "level": args.level}, {"signature": serialize.signature_to_json(sig)}


@_command("shuffle", "shuffle product of two words",
          _arg("--w1", required=True, type=_word), _arg("--w2", required=True, type=_word))
def cmd_shuffle(args):
    from .words import shuffle

    v, w = args.w1, args.w2
    # comb(n, k) rises with k up to n/2 and comb(64, 32) is far past the guard,
    # so k capped at 32 decides the guard without building a huge integer
    if math.comb(len(v) + len(w), min(len(v), len(w), 32)) > GUARD_SHUFFLE and not args.allow_large:
        raise _too_large(f"comb(|w1| + |w2|, |w1|) <= {GUARD_SHUFFLE}", f"|w1|={len(v)}, |w2|={len(w)}")
    return {"w1": str(v), "w2": str(w)}, serialize.word_sum_to_json(shuffle(v, w))


@_command("exp", "exponential of a log-signature",
          _arg("--logsig", required=True), _arg("--level", type=int, default=None))
def cmd_exp(args):
    from .lie import exp_log_signature

    l = _read(serialize.log_signature_from_json, args.logsig)
    level = args.level if args.level is not None else l.max_level
    if level < 0:
        raise ValueError("precondition 'level >= 0' violated")
    _check_size(l.dim, level, args.allow_large)
    sig = exp_log_signature(l.truncate(level))
    return {"logsig": args.logsig, "level": level}, {"signature": serialize.signature_to_json(sig)}


@_command("log", "logarithm of a truncated signature", _arg("--sig", required=True))
def cmd_log(args):
    from .lie import log_signature

    sig = _read(serialize.signature_from_json, args.sig)
    _check_size(sig.dim, sig.max_level, args.allow_large)
    return {"sig": args.sig}, {"log_signature": serialize.log_signature_to_json(log_signature(sig))}


@_command("decompose", "explicit decomposition of a signature level",
          _arg("--level", type=int, required=True), _arg("--alpha", type=int, default=0), path_input=True)
def cmd_decompose(args):
    from .ranks import _certify_s_k_alpha, decompose_s_k_alpha, rank_bound_formula

    path = _load_path(args)
    _check_size(path.dim, args.level, args.allow_large)
    if args.level < 2:
        raise ValueError("precondition 'level >= 2' violated")
    # the weights (level + alpha)! grow with alpha as they do with the level
    if args.alpha > GUARD_LEVEL and not args.allow_large:
        raise _too_large(f"alpha <= {GUARD_LEVEL}", f"alpha={args.alpha}")
    # the witness has this many terms; realize costs one outer product per node of their prefix trie
    if not args.allow_large and rank_bound_formula(args.level, path.segments) > GUARD_TERMS:
        raise _too_large(f"rank_bound_formula(level, segments) <= {GUARD_TERMS}", f"level={args.level}, segments={path.segments}")
    dec = decompose_s_k_alpha(path.increments, args.level, args.alpha)
    # the witness is certified against a tensor computed without it
    cert = _certify_s_k_alpha(path.increments, args.level, args.alpha, dec)
    return (
        {"path": serialize.path_to_json(path), "level": args.level, "alpha": args.alpha},
        {"decomposition": serialize.decomposition_to_json(dec), "length": dec.length},
        {"rank": serialize.certificate_to_json(cert)},
    )


@_command("rank-bound", "certified rank upper bound formula",
          _arg("--k", type=int, required=True), _arg("--m", type=int, required=True))
def cmd_rank_bound(args):
    from .ranks import rank_bound_formula

    # the formula costs about k^3, so k takes the level guard
    if args.k > GUARD_LEVEL and not args.allow_large:
        raise _too_large(f"k <= {GUARD_LEVEL}", f"k={args.k}")
    return {"k": args.k, "m": args.m}, {"bound": rank_bound_formula(args.k, args.m)}


@_command("certify", "rank certificate from a decomposition witness",
          _arg("--tensor", required=True), _arg("--witness", required=True))
def cmd_certify(args):
    from .ranks import certify_rank

    tensor = _read(serialize.tensor_from_json, args.tensor)
    witness = _read(serialize.decomposition_from_json, args.witness)
    _check_order(tensor.order, args.allow_large)
    # a witness longer than the flattening ranks reaches the Koszul candidates,
    # d^2 x d C(d, 2) cells each at order 3
    if tensor.dim > GUARD_DIM and not args.allow_large:
        raise _too_large(f"dim <= {GUARD_DIM}", f"dim={tensor.dim}")
    cert = certify_rank(tensor, witness)
    return {"tensor": args.tensor, "witness": args.witness}, serialize.certificate_to_json(cert)


@_command("classify222", "complex rank of a 2x2x2 tensor", _arg("--tensor", required=True))
def cmd_classify222(args):
    from .ranks import classify_222_complex_rank, hyperdet_222

    tensor = _read(serialize.tensor_from_json, args.tensor)
    return {"tensor": args.tensor}, {
        "complex_rank": classify_222_complex_rank(tensor),
        "real_rank": "not computed",
        "hyperdeterminant": str(hyperdet_222(tensor)),
    }


@_command("symmetry", "symmetry report for a tensor", _arg("--tensor", required=True))
def cmd_symmetry(args):
    from .symmetry import plain_symmetry_report, symmetry_report

    # a level of plain strings is read as strings, and any other through
    # tensor_from_json, which names a bad entry; both check the shape first
    obj = serialize.load_json(args.tensor)
    order, dim, entries = serialize.tensor_fields(obj, args.tensor)
    plain = serialize.plain_entries(entries)
    tensor = None if plain is not None else serialize.tensor_from_json(obj, args.tensor)
    del obj, entries  # a repetitive level's tuple shares its strings: the others are freed before the scan
    _check_order(order, args.allow_large)
    report = symmetry_report(tensor) if plain is None else plain_symmetry_report(plain, order, dim)
    return {"tensor": args.tensor}, serialize.symmetry_report_to_json(report)


@_command("sig222", "2x2x2 signature tensor from parameters x,y,a,b,c", _arg("--params", required=True))
def cmd_sig222(args):
    from .ranks import classify_222_complex_rank, hyperdet_222
    from .symmetry import Sig222Params, partial_symmetry_constraint, sig222_from_params, symmetry_report

    values = [x.strip() for x in args.params.split(",")]
    if len(values) != 5:
        raise ParseError("expected five comma-separated rationals x,y,a,b,c", "--params")
    params = Sig222Params(*(serialize.parse_rational(v, f"--params[{i}]") for i, v in enumerate(values)))
    tensor = sig222_from_params(params)
    return (
        {"params": {"x": str(params.x), "y": str(params.y), "a": str(params.a), "b": str(params.b), "c": str(params.c)}},
        {
            "tensor": serialize.tensor_to_json(tensor),
            "hyperdeterminant": str(hyperdet_222(tensor)),
            "complex_rank": classify_222_complex_rank(tensor),
            "constraint_first": partial_symmetry_constraint(params, "first"),
            "constraint_last": partial_symmetry_constraint(params, "last"),
        },
        {"symmetry": serialize.symmetry_report_to_json(symmetry_report(tensor))},
    )


@_command("concise", "mode subspaces and hyperplane recovery",
          _arg("--sig", required=True), _arg("--level", type=int, default=None))
def cmd_concise(args):
    from .conciseness import echelon_sum, live_echelons, signature_levels
    from .linalg import Subspace

    # a level of plain strings is checked whole and parsed only where its fibers are read
    sig = _read(signature_levels, args.sig)
    level = args.level if args.level is not None else sig.max_level
    if not 2 <= level <= sig.max_level:
        raise ValueError(f"precondition '2 <= level <= {sig.max_level}' violated (level={level})")
    _check_size(sig.dim, level, args.allow_large)
    # each level's modes are eliminated once, in integers; its
    # symmetric-conciseness span is their sum, and the recovered subspace is
    # the sum of those spans. Only the spans the report prints become RREF
    # Fractions.
    d, per_level, spans = sig.dim, [], []
    for k in range(1, level + 1):
        live, modes = live_echelons(sig.level(k))
        modes = list(modes)
        spans.append(echelon_sum(modes, len(live)))
        per_level.append({
            "level": k,
            "mode_dims": [len(rows) for rows in modes],
            "symmetric_conciseness": serialize.subspace_to_json(Subspace._of_echelon(spans[-1], d)),
        })
    w = Subspace._of_echelon(echelon_sum(spans, d), d)
    return {"sig": args.sig, "level": level}, {
        "levels": per_level,
        "recovered_subspace": None if w.is_full else serialize.subspace_to_json(w),
        "symmetrically_concise": w.is_full,
        "certified_up_to_level": level,
    }


@_command("pure-volume", "pure n-volume pattern check", _arg("--sig", required=True),
          _arg("--n", type=int, required=True), _arg("--k0", type=int, required=True), verdict="pure_volume")
def cmd_pure_volume(args):
    from .lie import pure_volume_check

    sig = _read(serialize.signature_from_json, args.sig)
    _check_size(sig.dim, sig.max_level, args.allow_large)
    return {"sig": args.sig, "n": args.n, "k0": args.k0}, {"pure_volume": pure_volume_check(sig, args.n, args.k0)}


@_command("verify", "seeded randomized property harness",
          _arg("--seed", type=int, default=0), _arg("--size", type=_positive_int, default=10), verdict="passed")
def cmd_verify(args):
    from .harness import run_harness

    if args.size > GUARD_VERIFY_SIZE and not args.allow_large:
        raise _too_large(f"size <= {GUARD_VERIFY_SIZE}", f"size={args.size}")
    return {"seed": args.seed, "size": args.size}, run_harness(args.seed, args.size)


def build_parser() -> argparse.ArgumentParser:
    # --help shows the docstring's first two paragraphs, which are for users
    parser = argparse.ArgumentParser(prog="sigtensor", description="\n\n".join((__doc__ or "").split("\n\n")[:2]))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.path_input:
            src = p.add_mutually_exclusive_group(required=True)
            src.add_argument("--path", help="path JSON file")
            src.add_argument("--series", help="time-series CSV file (one sample per row)")
            p.add_argument("--header", action="store_true", help="the CSV has a header row")
        for flags, options in command.arguments:
            p.add_argument(*flags, **options)
        p.add_argument("--out", help="write the report to this file (relative to SIGTENSOR_OUT_DIR if set)")
        p.add_argument("--float", action="store_true", help="add lossy decimal columns next to exact values (null for a value outside the double range)")
        p.add_argument("--allow-large", action="store_true", help="lift the dim <= 6, level <= 8, certify and symmetry order <= 8, decompose alpha <= 8, shuffle-size, decompose term-count and verify size <= 1000 guards")
    return parser


# parse_args keeps no state between calls, so one parser serves every call
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        inputs, result, *certificates = command.run(args)
        report = {"command": args.command, "inputs": inputs, "result": result}
        if certificates:
            report["certificates"] = certificates[0]
        text = dump_json(_add_float_columns(report) if args.float else report)
        if args.out:
            out_dir = os.environ.get("SIGTENSOR_OUT_DIR", "")
            target = args.out if os.path.isabs(args.out) or not out_dir else os.path.join(out_dir, args.out)
            with open(target, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # a defect, not a bad input: one line, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5
    return 0 if command.verdict is None or result[command.verdict] else 1


if __name__ == "__main__":
    sys.exit(main())
