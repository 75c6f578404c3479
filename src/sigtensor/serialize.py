"""JSON and CSV wire formats.

All numbers travel as exact rational strings "p/q" (or "p"); nothing is
ever rounded. Parse failures raise ParseError with a position annotation so
the CLI can report exactly where an input file went wrong.

A tensor level is parsed straight to Tensor's integer numerators over one
denominator and emitted from them with one gcd per entry, so neither
direction builds a Fraction per entry. A level of plain "p"/"p/q" ASCII
strings is checked and parsed in a few C-level passes over the whole level
(a join, one character-class match, str.partition, int and a table of
scales per distinct denominator), with no Python loop per entry. A
level's parse cost follows its distinct entries: when a sample of one entry
in eight is at most half distinct, those passes read each distinct string
once and every entry takes its value from a dict. Paths confined to a
subspace (their levels are zero wherever a letter leaves it) and collinear
paths (a multiple of v^(x)k, with a few values up to sign) give such levels.
Only a level with an entry outside the plain form (a JSON int, other
Fraction syntax, a zero denominator, a malformed string) is parsed through
Fraction, which keeps every accepted syntax and every error message of
parse_rational, and names a bad entry by its index in the full level.
parse_rational takes every syntax Fraction takes, except an exponent above
4300 in magnitude ("1e9999999"), which it refuses before building the value.

`symmetry` compares entries only for equality, so it reads a level of plain
strings without converting it: plain_entries checks, in a few C-level passes
over the level joined as bytes, that every entry is a string _parse_plain
would parse, and when the strings other than "0" repeat (a collinear path's
levels) it checks the distinct ones and makes equal entries one object.
negated and same_value are the negation and the value test of such strings.
`concise` checks every entry of a plain level that does not repeat by the
same passes (_is_plain) and parses only the fibers it eliminates
(conciseness.signature_levels).
"""

from __future__ import annotations

import csv
import json
import re
import sys
from fractions import Fraction
from io import StringIO
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, inf, lcm
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Collection, Sequence

from . import graded
from .linalg import Subspace, Vector
from .tensors import Tensor

if TYPE_CHECKING:  # the parsers import the modules of the objects they build
    from .lie import LogSignature
    from .ranks import Decomposition, RankCertificate
    from .signatures import Path, TruncatedSignature
    from .symmetry import SymmetryReport
    from .words import WordSum


class ParseError(ValueError):
    """Malformed input, with enough position information to locate it."""

    def __init__(self, message: str, where: str = ""):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)


def _is_int(x: Any) -> bool:
    """A JSON integer; bool is a subclass of int but true/false are not numbers."""
    return isinstance(x, int) and not isinstance(x, bool)


# "p" or "p/q" in ASCII digits, the form every report writes; int() parses
# it faster than Fraction's general string syntax, to the same value
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


# the exponent that Fraction's decimal syntax ("1e3", "-2.5E-2") turns into
# 10**|exponent|; past CPython's default limit on int-to-string conversion
# such a value could not be written back, so it is refused before it is built
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
MAX_EXPONENT = 4300


def _check_exponent(text: str) -> None:
    """Raise ValueError if text is Fraction syntax with an exponent of
    magnitude above MAX_EXPONENT, or written in more characters than that,
    which is not read as an int. The text is Fraction syntax exactly when
    it still is with the exponent's digits set to 0, which is cheap to
    parse; on any other text Fraction raises its own error before any
    arithmetic."""
    exp = _EXPONENT.search(text)
    if exp is None or (len(exp[1]) <= MAX_EXPONENT and abs(int(exp[1])) <= MAX_EXPONENT):
        return
    try:
        Fraction(text[: exp.start(1)] + re.sub(r"\d", "0", exp[1]) + text[exp.end(1) :])
    except ValueError:
        return
    raise ValueError(f"exponent above {MAX_EXPONENT} in magnitude")


def parse_rational(text: Any, where: str = "") -> Fraction:
    if _is_int(text):
        return Fraction(text)
    if not isinstance(text, str):
        raise ParseError(f"expected a rational string, got {type(text).__name__}", where)
    try:
        plain = _PLAIN_RATIONAL.fullmatch(text)
        if plain is None:
            _check_exponent(text)
            return Fraction(text)
        num, den = plain.groups()
        return Fraction(int(num)) if den is None else Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}", where) from None


def _parse_rationals(items: list, where: Callable[[int], str]) -> list[Fraction]:
    """Parse rationals; a bad entry's location where(i) is formatted only on failure."""
    try:
        return [parse_rational(x) for x in items]
    except ParseError:
        for i, x in enumerate(items):
            parse_rational(x, where(i))
        raise


# the characters of a level's plain entries joined by commas: one character
# class repeated, so matching keeps no backtracking state per entry
_PLAIN_LEVEL_CHARS = re.compile(r"[-0-9,/]*")


def _parse_plain(items: list) -> graded.Level:
    """A level (nums, den) of plain "p" and "p/q" strings, not yet reduced,
    in a few passes over the whole level.

    The level joined by commas must hold only ASCII digits, "-", "/" and
    ",", and no entry may end in "/". Over those characters int() accepts
    exactly -?[0-9]+, so int(p) checks every p and a positive int(q) checks
    each distinct q; an entry holding a comma fails int(). Entries are put
    over L, the lcm of the q's: L * x is an integer for every entry x, so
    the reduced denominator divides L, and reducing the pair gives the
    canonical one even for unreduced input such as "2/4". A non-string
    entry raises TypeError; any other entry outside that form (other
    Fraction syntax, a q that is not positive, digits past int's limit)
    raises ValueError.
    """
    joined = ",".join(items)
    if not _PLAIN_LEVEL_CHARS.fullmatch(joined) or "/," in joined or joined.endswith("/"):
        raise ValueError("not a plain level")
    if "/" not in joined:
        return list(map(int, items)), 1
    # both passes partition every entry: one list of all the partitions would
    # hold three objects per entry at once, about four times the peak memory
    q_texts = set(map(itemgetter(2), map(str.partition, items, repeat("/"))))
    q_ints = {q: int(q) if q else 1 for q in q_texts}
    if min(q_ints.values()) <= 0:
        raise ValueError("a q that is not positive")
    den = lcm(*q_ints.values())
    scale = {q: den // v for q, v in q_ints.items()}
    return [int(p) * scale[q] for p, _, q in map(str.partition, items, repeat("/"))], den


# one entry in this many is sampled to decide whether a level repeats enough
# to be parsed through its distinct entries
_SAMPLE_STEP = 8


def _parse_level(items: list, where: Callable[[int], str]) -> graded.Level:
    """A level (nums, den) of rationals, not yet reduced.

    When at most half of the sampled entries are distinct, _parse_plain
    reads each distinct entry once and every entry takes its value from a
    dict; the lcm of the distinct q's is that of all q's, so (nums, den) is
    the one the whole level gives. Otherwise _parse_plain reads the whole
    level. A level it refuses, or with an unhashable entry, goes through
    _parse_rationals, whose errors name an entry's index in the full level.
    """
    try:
        sample = items[::_SAMPLE_STEP]
        if 2 * len(set(sample)) > len(sample):
            return _parse_plain(items)
        distinct = list(dict.fromkeys(items))
        nums, den = _parse_plain(distinct)
        value = dict(zip(distinct, nums))
        return list(map(value.__getitem__, items)), den
    except (TypeError, ValueError):  # a non-string or unhashable entry, or one outside the plain form
        pass
    return graded.from_fractions(_parse_rationals(items, where))


# the characters of a plain level, deleted from it to show that it holds no
# other; and the map that writes every digit as 0, which keeps the shape of
# its entries
_PLAIN_BYTES = b"-0123456789,/"
_DIGITS_AS_ZERO = bytes.maketrans(b"123456789", b"000000000")


def _is_plain(items: Collection) -> bool:
    """Whether _parse_plain accepts the strings of items (a nonempty
    collection), without converting one: each is -?[0-9]+ or
    -?[0-9]+/[0-9]+ with q > 0, no digit run past int's digit limit.

    The level is joined as ASCII bytes B between commas, and each test is
    one C-level pass: B holds only _PLAIN_BYTES, and n + 1 commas for n
    entries, so no entry holds one. With every digit written as 0, each
    "-" is in ",-0", each comma but the last is followed by "0" or "-0",
    and each but the first is preceded by "0": so every entry starts with
    -?[0-9], ends with a digit and holds "-" only at its start. With digits
    and "-" deleted, no "//" is left, so no entry holds two "/"s, and by
    the rules above a "/" has a digit on each side. A q of zeros starts
    "/0", which a canonical level never holds, so only then is B searched
    for one. A non-string entry fails the join, and a non-ASCII one the
    encoding.
    """
    try:
        joined = f",{','.join(items)},".encode("ascii")
    except (TypeError, UnicodeEncodeError):
        return False
    n = len(items)
    if joined.translate(None, _PLAIN_BYTES) or joined.count(b",") != n + 1:
        return False
    shape = joined.translate(_DIGITS_AS_ZERO)
    signed = shape.count(b",-0")
    if shape.count(b"-") != signed or shape.count(b",0") + signed != n or shape.count(b"0,") != n:
        return False
    if b"//" in joined.translate(None, b"-0123456789") or (b"/0" in joined and re.search(rb"/0+,", joined)):
        return False
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0, no limit, on Pythons without one
    return not (limit and len(joined) > limit and b"0" * (limit + 1) in shape)


def plain_entries(items: list) -> tuple[str, ...] | None:
    """The entries of a level as a tuple if they are all plain "p" or "p/q"
    strings (_is_plain), else None; no entry is converted.

    When at most half of the sampled entries other than "0" are distinct,
    as on a collinear path's levels, the level is checked on its distinct
    strings and its equal entries become one object, so that comparing runs
    of entries mostly finds them identical. "0" is left out of the count:
    CPython's JSON decoder already gives every "0" one object, so a level
    whose other entries are mostly distinct, as a confined path's are, gains
    nothing from that and is checked whole, as any other level is.
    """
    try:
        if _repetitive(items):
            first = {text: text for text in dict.fromkeys(items)}
            return tuple(map(first.__getitem__, items)) if _is_plain(first) else None
    except TypeError:  # an unhashable entry
        return None
    return tuple(items) if _is_plain(items) else None


def _repetitive(items: list) -> bool:
    """Whether at most half of the sampled entries other than "0" are
    distinct; TypeError for an unhashable entry."""
    sample = items[::_SAMPLE_STEP]
    distinct = set(sample)
    distinct.discard("0")
    return 2 * len(distinct) <= len(sample) - sample.count("0")


def negated(text: str) -> str:
    """-x for a plain string x, still plain; "0" is its own negation."""
    if text[0] == "-":
        return text[1:]
    return text if text == "0" else "-" + text


def same_value(a: str, b: str) -> bool:
    """Whether two plain strings name one rational ("2/4" and "1/2" do)."""
    return parse_rational(a) == parse_rational(b)


def _fields(obj: Any, where: str, *keys: str) -> list:
    """The values of keys in a JSON object, or the first missing key reported."""
    if not isinstance(obj, dict):
        raise ParseError("expected an object", where)
    for key in keys:
        if key not in obj:
            raise ParseError(f"missing key {key!r}", where)
    return [obj[key] for key in keys]


def load_json(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(str(exc), path) from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}", path) from None
    except (ValueError, RecursionError) as exc:  # bad UTF-8, nesting too deep, an int past the digit limit
        raise ParseError(f"cannot decode JSON: {exc}", path) from None


def dump_json(obj: Any) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) + "\n", byte for byte.

    With an indent, json.dumps takes its pure-Python encoder, one call per
    value. Here each string goes through json's C quoting function, and a
    list of strings (a tensor level's entries) is written by one join.
    """
    out: list[str] = []
    _emit(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _scalar(x: Any) -> str:
    """A JSON scalar as json.dumps writes it; also a dict key before quoting."""
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        return "Infinity" if x == inf else "-Infinity" if x == -inf else float.__repr__(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _emit(obj: Any, indent: str, out: list[str]) -> None:
    """Append the text of obj to out; indent is the newline and indentation
    of the line obj starts on."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        out.append("[" + inner)
        try:
            out.append(("," + inner).join(map(_quote, obj)))
        except TypeError:  # not a list of strings
            for i, x in enumerate(obj):
                if i:
                    out.append("," + inner)
                _emit(x, inner, out)
        out.append(indent + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(sep + _quote(key if isinstance(key, str) else _scalar(key)) + ": ")
            sep = "," + inner
            _emit(value, inner, out)
        out.append(indent + "}")
    else:
        out.append(_scalar(obj))


# -- tensors ---------------------------------------------------------------

def _entries(nums: Sequence[int], den: int) -> list[str]:
    """The values nums[i] / den as str(Fraction) would write them, one gcd per entry unless den is 1."""
    return list(map(str, nums)) if den == 1 else [str(n // g) if (g := gcd(n, den)) == den else f"{n // g}/{den // g}" for n in nums]


def tensor_to_json(t: Tensor) -> dict:
    return {"order": t.order, "dim": t.dim, "entries": _entries(t.nums, t.den)}


def tensor_fields(obj: Any, where: str = "tensor") -> tuple[int, int, list]:
    """The order, dim and entry list of a tensor's JSON object, its shape
    checked; the entries are not read."""
    order, dim, entries = _fields(obj, where, "order", "dim", "entries")
    if not _is_int(order) or not _is_int(dim):
        raise ParseError("order and dim must be integers", where)
    if not isinstance(entries, list):
        raise ParseError("entries must be a list", where)
    # for dim >= 2, dim**order == len(entries) forces order <= len(entries).bit_length();
    # checking that first keeps a huge order from building a huge integer
    if dim < 1 or order < 0 or (dim >= 2 and order > len(entries).bit_length()) or len(entries) != dim**order:
        raise ParseError(f"expected {dim}^{order} entries, got {len(entries)}", where)
    return order, dim, entries


def tensor_from_json(obj: Any, where: str = "tensor") -> Tensor:
    order, dim, entries = tensor_fields(obj, where)
    return Tensor._of_level(order, dim, _parse_level(entries, lambda i: f"{where}.entries[{i}]"))


# -- vectors and paths -----------------------------------------------------

def vector_to_json(v: Vector) -> list[str]:
    return [str(x) for x in v]


def vector_from_json(obj: Any, where: str) -> Vector:
    if not isinstance(obj, list) or not obj:
        raise ParseError("expected a nonempty list of rationals", where)
    return tuple(_parse_rationals(obj, lambda i: f"{where}[{i}]"))


def path_to_json(p: Path) -> dict:
    return {"dim": p.dim, "increments": [vector_to_json(u) for u in p.increments]}


def path_from_json(obj: Any, where: str = "path") -> Path:
    from .signatures import Path

    dim, incs = _fields(obj, where, "dim", "increments")
    if not _is_int(dim) or dim < 1:
        raise ParseError("dim must be a positive integer", where)
    if not isinstance(incs, list) or not incs:
        raise ParseError("increments must be a nonempty list", where)
    vectors = [vector_from_json(u, f"{where}.increments[{i}]") for i, u in enumerate(incs)]
    if any(len(u) != dim for u in vectors):
        raise ParseError("every increment must have length dim", where)
    return Path(dim, tuple(vectors))


# -- signatures ------------------------------------------------------------

def signature_to_json(s: TruncatedSignature | LogSignature) -> dict:
    """Levels 0..K of a signature, or 1..K of a log-signature."""
    return {"dim": s.dim, "max_level": s.max_level, "levels": [tensor_to_json(t) for t in s.levels]}


def _levels_from_json(obj: Any, where: str, cls, read: Callable[[Any, str], Any] = tensor_from_json):
    """A signature lists levels 0..max_level, a log-signature 1..max_level
    (cls.first); read(obj, where) reads each level."""
    dim, max_level, levels = _fields(obj, where, "dim", "max_level", "levels")
    if not _is_int(dim) or not _is_int(max_level):
        raise ParseError("dim and max_level must be integers", where)
    if not isinstance(levels, list) or len(levels) != max_level + 1 - cls.first:
        raise ParseError(f"levels must list tensors for {cls.first}..max_level", where)
    tensors = [read(t, f"{where}.levels[{k}]") for k, t in enumerate(levels, cls.first)]
    try:
        return cls(dim, max_level, tuple(tensors))
    except ValueError as exc:
        raise ParseError(str(exc), where) from None


def signature_from_json(obj: Any, where: str = "signature") -> TruncatedSignature:
    from .signatures import TruncatedSignature

    return _levels_from_json(obj, where, TruncatedSignature)


def log_signature_to_json(l: LogSignature) -> dict:
    return signature_to_json(l)


def log_signature_from_json(obj: Any, where: str = "log-signature") -> LogSignature:
    from .lie import LogSignature

    return _levels_from_json(obj, where, LogSignature)


# -- decompositions and certificates ----------------------------------------

def decomposition_to_json(d: Decomposition) -> dict:
    terms = [{"coeff": str(c), "factors": [_entries(*key) for key in keys]} for c, keys in d.keyed]
    return {"dim": d.dim, "order": d.order, "terms": terms}


def decomposition_from_json(obj: Any, where: str = "decomposition") -> Decomposition:
    """The factor entries are parsed as one level (_parse_level), each factor's key its slice of
    that level; a malformed term is reported after any bad entry listed before it."""
    from .ranks import Decomposition

    dim, order, terms_json = _fields(obj, where, "dim", "order", "terms")
    if not _is_int(dim) or not _is_int(order):
        raise ParseError("dim and order must be integers", where)
    if not isinstance(terms_json, list):
        raise ParseError("terms must be a list", where)
    coeffs, entries, places = [], [], []

    def entry_where(i: int) -> str:
        if not places:  # the (term, factor, entry) indices of every entry read, listed on the first call
            places.extend(islice(((t, j, l) for t, term in enumerate(terms_json) for j, v in enumerate(term["factors"]) for l in range(len(v))), len(entries)))
        return "{}.terms[{}].factors[{}][{}]".format(where, *places[i])

    try:
        for i, term in enumerate(terms_json):
            tw = f"{where}.terms[{i}]"
            coeffs.append(parse_rational(*_fields(term, tw, "coeff"), f"{tw}.coeff"))
            (factors_json,) = _fields(term, tw, "factors")
            if not isinstance(factors_json, list) or len(factors_json) != order:
                raise ParseError(f"expected {order} factors", tw)
            for j, v in enumerate(factors_json):
                if not isinstance(v, list) or not v:
                    raise ParseError("expected a nonempty list of rationals", f"{tw}.factors[{j}]")
                entries += v
    except ParseError:
        _parse_level(entries, entry_where)  # a bad entry listed before the malformed term is reported first
        raise
    nums, den = _parse_level(entries, entry_where)
    it = iter(nums)
    keyed = [(c, tuple(graded.as_key(list(islice(it, len(v))), den) for v in term["factors"])) for c, term in zip(coeffs, terms_json)]
    try:
        return Decomposition._unchecked(dim, order, keyed)._checked()
    except ValueError as exc:
        raise ParseError(str(exc), where) from None


def certificate_to_json(c: RankCertificate) -> dict:
    """The bounds and status; the witness is reported on its own, if at all."""
    return {"lower": c.lower, "upper": c.upper, "status": c.status}


# -- reports and subspaces ---------------------------------------------------

def subspace_to_json(w: Subspace) -> dict:
    return {
        "ambient_dim": w.ambient_dim,
        "dim": w.dim,
        "basis": [vector_to_json(row) for row in w.basis],
    }


def symmetry_report_to_json(r: SymmetryReport) -> dict:
    return {
        "is_symmetric": r.is_symmetric,
        "is_skew": r.is_skew,
        "partial": sorted(r.partial),
        "witness": [list(pair) for pair in r.witness] if r.witness is not None else None,
    }


def word_sum_to_json(ws: WordSum) -> dict:
    return {str(w): c for w, c in ws.items()}


# -- time series -------------------------------------------------------------

def read_time_series_csv(path: str, has_header: bool = False) -> list[Vector]:
    """One sample per row, d rational columns."""
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(str(exc), path) from None
    except ValueError as exc:  # bad UTF-8
        raise ParseError(f"cannot decode: {exc}", path) from None
    return parse_time_series_csv(text, has_header=has_header, where=path)


def parse_time_series_csv(text: str, has_header: bool = False, where: str = "csv") -> list[Vector]:
    try:
        rows = list(csv.reader(StringIO(text)))
    except csv.Error as exc:  # such as a cell past the reader's field size limit
        raise ParseError(str(exc), where) from None
    if has_header and rows:
        rows = rows[1:]
    samples = []
    for r, row in enumerate(rows):
        cells = [cell.strip() for cell in row]
        if not any(cells):
            continue
        samples.append(tuple(_parse_rationals(cells, lambda c: f"{where}:row {r + 1}, column {c + 1}")))
    if not samples:
        raise ParseError("no samples", where)
    width = len(samples[0])
    if any(len(s) != width for s in samples):
        raise ParseError("rows have inconsistent column counts", where)
    return samples
