"""Span tracing of sigtensor's public functions from outside the package.

Tracer.install() replaces module and class attributes with wrappers that
record one span per call while a job runs (Tracer.job is set): job, span
id, parent span id, name, start and end. Spans stay in memory; write()
saves them once, at the end of a run. A call of a function from inside its
own span (recursion) is folded into the outer span, so counts are outermost
calls. Sizes and bit lengths are computed in the wrappers before a span
starts or after it ends, never inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

# (span name, module, traced attributes). A layer's time metric is its
# spans' self time: span time minus the time of the spans it encloses.
SPANS: list[tuple[str, str, tuple[str, ...]]] = [
    ("cli.self", "sigtensor.cli", ("main",)),
    ("serialize.parse", "sigtensor.serialize", (
        "load_json", "tensor_from_json", "path_from_json", "signature_from_json",
        "log_signature_from_json", "decomposition_from_json",
    )),
    ("serialize.emit", "sigtensor.serialize", (
        "dump_json", "tensor_to_json", "path_to_json", "signature_to_json", "log_signature_to_json",
        "decomposition_to_json", "certificate_to_json", "subspace_to_json", "symmetry_report_to_json",
    )),
    ("signatures.pwl_signature", "sigtensor.signatures", ("pwl_signature",)),
    ("signatures.chen_concat", "sigtensor.signatures", ("chen_concat",)),
    ("signatures.oracle", "sigtensor.signatures", ("iterated_integral_entry",)),
    ("lie.log", "sigtensor.lie", ("log_signature",)),
    ("lie.exp", "sigtensor.lie", ("exp_log_signature",)),
    ("lie.truncated_product", "sigtensor.lie", ("_truncated_product",)),
    ("lie.dynkin", "sigtensor.lie", ("dynkin_map",)),
    ("lie.f_lambda", "sigtensor.lie", ("f_lambda",)),
    ("tensors.tensor_product", "sigtensor.tensors", ("tensor_product",)),
    ("tensors.flatten", "sigtensor.tensors", ("flatten",)),
    ("ranks.decompose", "sigtensor.ranks", ("decompose_s_k_alpha",)),
    ("ranks.realize", "sigtensor.ranks", ("Decomposition.realize",)),
    ("ranks.flattening_bound", "sigtensor.ranks", ("flattening_lower_bound",)),
    ("ranks.koszul_bound", "sigtensor.ranks", ("koszul_lower_bound",)),
    ("ranks.s_k_alpha", "sigtensor.ranks", ("s_k_alpha",)),
    ("linalg.matrix_rank", "sigtensor.linalg", ("matrix_rank",)),
    ("linalg.span", "sigtensor.linalg", ("Subspace.span",)),
    ("symmetry.report", "sigtensor.symmetry", ("symmetry_report",)),
    ("conciseness.mode_subspaces", "sigtensor.conciseness", ("mode_subspaces",)),
    ("conciseness.recovery", "sigtensor.conciseness", ("hyperplane_recovery",)),
    ("words.shuffle_check", "sigtensor.words", ("check_shuffle_identity",)),
    ("harness.run", "sigtensor.harness", ("run_harness",)),
]

# Per-layer metrics in output order: (name, unit). "_s" metrics are self
# time per job, "_calls" are span counts per job; the rest are described
# next to the hook or counter that feeds them.
LAYER_METRICS: list[tuple[str, str]] = [
    ("cli.self_s", "s"),
    ("serialize.parse_s", "s"),
    ("serialize.emit_s", "s"),
    ("serialize.bytes_in", "bytes"),
    ("serialize.bytes_out", "bytes"),
    ("signatures.pwl_signature_s", "s"),
    ("signatures.chen_concat_s", "s"),
    ("signatures.chen_concat_calls", "count"),
    ("signatures.oracle_s", "s"),
    ("signatures.max_den_bits", "bits"),
    ("lie.log_s", "s"),
    ("lie.exp_s", "s"),
    ("lie.truncated_product_s", "s"),
    ("lie.truncated_product_calls", "count"),
    ("lie.dynkin_s", "s"),
    ("lie.dynkin_calls", "count"),
    ("lie.f_lambda_s", "s"),
    ("tensors.tensor_product_s", "s"),
    ("tensors.tensor_product_calls", "count"),
    ("tensors.flatten_s", "s"),
    ("tensors.flatten_calls", "count"),
    ("ranks.decompose_s", "s"),
    ("ranks.realize_s", "s"),
    ("ranks.realize_calls", "count"),
    ("ranks.realize_terms", "count"),
    ("ranks.flattening_bound_s", "s"),
    ("ranks.koszul_bound_s", "s"),
    ("ranks.s_k_alpha_s", "s"),
    ("linalg.matrix_rank_s", "s"),
    ("linalg.matrix_rank_calls", "count"),
    ("linalg.matrix_cells", "count"),
    ("linalg.rank_max_bits", "bits"),
    ("linalg.span_s", "s"),
    ("linalg.span_calls", "count"),
    ("linalg.span_vectors_offered", "count"),
    ("linalg.span_consumed_ratio", "1"),
    ("symmetry.report_s", "s"),
    ("conciseness.mode_subspaces_s", "s"),
    ("conciseness.recovery_s", "s"),
    ("words.shuffle_check_s", "s"),
    ("harness.run_s", "s"),
    ("trace.overhead_ratio", "1"),
]

MAXIMA = ("signatures.max_den_bits", "linalg.rank_max_bits")
HOOK_SPAN = "trace.hook"


def _bits(x) -> int:
    """Bit length of the larger of numerator and denominator (ints too)."""
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


# Hooks run outside the span: hook(tracer, args) -> (args, after), where
# after(result) is called once the span has ended, or is None.
def _matrix_rank_hook(tracer: "Tracer", args):
    rows = args[0]
    tracer.add("linalg.matrix_cells", sum(len(row) for row in rows))
    tracer.note_max("linalg.rank_max_bits", max((_bits(x) for row in rows for x in row), default=0))
    return args, None


def _span_hook(tracer: "Tracer", args):
    vectors = list(args[0])
    tracer.add("linalg.span_vectors_offered", len(vectors))
    consumed = 0

    def counted():
        nonlocal consumed
        for v in vectors:
            consumed += 1
            yield v

    return (counted(),) + tuple(args[1:]), lambda result: tracer.add("linalg.span_vectors_consumed", consumed)


def _realize_hook(tracer: "Tracer", args):
    tracer.add("ranks.realize_terms", len(args[0].terms))
    return args, None


def _pwl_signature_hook(tracer: "Tracer", args):
    def after(sig):
        tracer.note_max("signatures.max_den_bits", max(x.denominator.bit_length() for t in sig.levels for x in t.entries))
    return args, after


HOOKS: dict[str, Callable] = {
    "linalg.matrix_rank": _matrix_rank_hook,
    "linalg.span": _span_hook,
    "ranks.realize": _realize_hook,
    "signatures.pwl_signature": _pwl_signature_hook,
}


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.job: int | None = None
        self.spans: list[tuple[Any, int, int | None, str, float, float]] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = defaultdict(int)
        self._stack: list[tuple[int, Callable]] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def add(self, key: str, amount: float) -> None:
        self.totals[key] += amount

    def note_max(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = HOOKS.get(name)
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None or (stack and stack[-1][1] is fn):
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            after = None
            if hook is not None:
                hook_start = perf_counter()
                args, after = hook(self, args)
                self._hook_span(parent, hook_start)
            span_id = len(spans) + len(stack)
            stack.append((span_id, fn))
            start = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((self.job, span_id, parent, name, start, end))
            if after is not None:
                hook_start = perf_counter()
                after(return_value)
                self._hook_span(parent, hook_start)
            return return_value

        return traced

    def _hook_span(self, parent: int | None, start: float) -> None:
        """Record a hook's own time as a span, so that it is not counted in
        the self time of the span around it."""
        self.spans.append((self.job, len(self.spans) + len(self._stack), parent, HOOK_SPAN, start, perf_counter()))

    def install(self) -> None:
        """Wrap every traced function wherever a sigtensor module holds it."""
        modules = [m for key, m in list(sys.modules.items()) if key == "sigtensor" or key.startswith("sigtensor.")]
        for name, module_name, attrs in SPANS:
            module = importlib.import_module(module_name)
            for attr in attrs:
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[method]
                    if isinstance(raw, staticmethod):
                        setattr(cls, method, staticmethod(self._wrap(name, raw.__func__)))
                    else:
                        setattr(cls, method, self._wrap(name, raw))
                    self._undo.append((cls, method, raw))
                    continue
                fn = getattr(module, attr)
                wrapped = self._wrap(name, fn)
                for m in modules:
                    for key in [k for k, v in vars(m).items() if v is fn]:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def self_times(self) -> dict[Any, dict[str, float]]:
        """Self time of each span name, per job."""
        enclosed: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                enclosed[parent] += end - start
        out: dict[Any, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for job, span_id, _, name, start, end in self.spans:
            out[job][name] += end - start - enclosed[span_id]
        return out

    def layer_metrics(self, scales: dict[Any, float], overhead_ratio: float) -> dict[str, float]:
        """Per-job averages over the traced jobs.

        scales maps each traced job to the factor that converts its times
        to the reference machine speed.
        """
        n = len(scales)
        per_job = self.self_times()
        values: dict[str, float] = {}
        for name, _, _ in SPANS:
            values[name + "_s"] = sum(per_job[job][name] * scale for job, scale in scales.items()) / n
            values[name + "_calls"] = sum(1 for span in self.spans if span[3] == name) / n
        for key, total in self.totals.items():
            values[key] = total / n
        offered = self.totals["linalg.span_vectors_offered"]
        values["linalg.span_consumed_ratio"] = self.totals["linalg.span_vectors_consumed"] / offered if offered else 0.0
        for key in MAXIMA:
            values[key] = self.maxima[key]
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: values.get(name, 0.0) for name, _ in LAYER_METRICS}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
