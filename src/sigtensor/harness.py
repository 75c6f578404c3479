"""Seeded randomized property harness.

Each check exercises a structural identity that holds for every valid input
(oracle equivalence, shuffle identity, exp/log inversion, component sums,
skew impossibility, partial-symmetry consequences, hyperplane recovery). A
failure always indicates an implementation bug, never new mathematics. Runs
are reproducible: the report depends only on the seed and size.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any

from .conciseness import divisor_propagation_check, hyperplane_recovery
from .lie import LogSignature, exp_log_signature, f_lambda, lie_basis, log_signature, partitions_of
from .linalg import Subspace, integer_rank
from .ranks import decompose_s_k_alpha, rank_bound_formula, s_k_alpha
from .signatures import Path, iterated_integral_entry, pwl_signature
from .symmetry import (
    Sig222Params,
    partial_symmetry_constraint,
    sig222_from_params,
    skew_impossibility_check,
    symmetry_report,
    verify_partial_symmetry_consequences,
)
from .tensors import Tensor
from .words import check_shuffle_identity, words_of_length


def random_path(rng: random.Random, max_dim: int = 4, max_segments: int = 5, bound: int = 3) -> Path:
    d = rng.randint(1, max_dim)
    m = rng.randint(1, max_segments)
    incs = [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(m)]
    return Path.from_increments(incs, dim=d)


def random_lie_level(rng: random.Random, d: int, k: int, bound: int = 2) -> Tensor:
    """A random integer combination of the Lie basis, one draw per basis element."""
    return sum((b.scale(rng.randint(-bound, bound)) for b in lie_basis(d, k)), Tensor.zeros(k, d))


def random_log_signature(rng: random.Random, d: int, max_level: int, bound: int = 2) -> LogSignature:
    levels = [random_lie_level(rng, d, k, bound) for k in range(1, max_level + 1)]
    return LogSignature.from_levels(levels, d)


def _parallel(u: list[int], v: list[int]) -> bool:
    return all(u[i] * v[j] == u[j] * v[i] for i in range(len(u)) for j in range(i + 1, len(u)))


def _reduced_increments(incs: list[list[int]]) -> list[list[int]]:
    """Merge consecutive parallel increments and drop zero ones until none
    are left. The signature sees only this reduced path: b followed by -b
    backtracks and contributes nothing."""
    out: list[list[int]] = []
    for u in incs:
        while out and _parallel(out[-1], u):
            u = [a + b for a, b in zip(out.pop(), u)]
        if any(u):
            out.append(u)
    return out


def random_hyperplane_path(rng: random.Random, d: int = 4, segments: int = 4, bound: int = 3) -> Path:
    """A path confined to {x_1 = 0} whose reduced increments span the
    hyperplane, so its signature determines the hyperplane."""
    while True:
        incs = [[0] + [rng.randint(-bound, bound) for _ in range(d - 1)] for _ in range(segments)]
        if integer_rank(_reduced_increments(incs)) == d - 1:
            return Path.from_increments(incs, dim=d)


def run_harness(seed: int, size: int = 10) -> dict[str, Any]:
    """Run every property check at the given seed; size scales trial counts."""
    rng = random.Random(seed)
    checks: list[dict[str, Any]] = []

    def record(name: str, trials: int, failures: list[str]):
        checks.append({
            "name": name,
            "trials": trials,
            "passed": not failures,
            "failures": failures[:5],
        })

    # Chen vs iterated-integral oracle, plus shuffle identity
    failures = []
    n_paths = max(2, size // 2)
    for trial in range(n_paths):
        path = random_path(rng)
        level = 3
        sig = pwl_signature(path, level)
        for n in range(level + 1):
            for word in words_of_length(path.dim, n):
                got = sig.level(n)[word.letters]
                want = iterated_integral_entry(path, word)
                if got != want:
                    failures.append(f"trial {trial}: word {word} mismatch")
        if check_shuffle_identity(sig, level) is not None:
            failures.append(f"trial {trial}: shuffle identity violated")
    record("chen_vs_oracle_and_shuffle", n_paths, failures)

    # exp/log inversion and the partition component sum
    failures = []
    for trial in range(size):
        d = rng.randint(2, 3)
        K = rng.randint(2, 4)
        l = random_log_signature(rng, d, K)
        sig = exp_log_signature(l)
        if log_signature(sig) != l:
            failures.append(f"trial {trial}: log(exp) != id")
        for k in range(1, K + 1):
            total = Tensor.zeros(k, d)
            for lam in partitions_of(k):
                total = total + f_lambda(l, lam)
            if total != sig.level(k):
                failures.append(f"trial {trial}: component sum != exp at level {k}")
    record("exp_log_and_component_sum", size, failures)

    # skew impossibility and partial-symmetry consequences
    failures = []
    for trial in range(size):
        d = rng.randint(2, 3)
        l = random_log_signature(rng, d, 5)
        for k in (3, 4, 5):
            if not skew_impossibility_check(l, k):
                failures.append(f"trial {trial}: skew level {k}")
        res = verify_partial_symmetry_consequences(l, 4)
        if not res.passed:
            failures.append(f"trial {trial}: {res.violated_clause}")
    record("skew_and_partial_symmetry", size, failures)

    # decomposition realizations against the defining sum
    failures = []
    for trial in range(max(2, size // 2)):
        k = rng.randint(2, 5)
        m = rng.randint(1, 5)
        alpha = rng.randint(0, 2)
        vs = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(m)]
        dec = decompose_s_k_alpha(vs, k, alpha)
        if dec.realize() != s_k_alpha(vs, k, alpha):
            failures.append(f"trial {trial}: ({k},{m},{alpha}) realization")
        if k >= 3 or m <= 3:
            if dec.length > rank_bound_formula(k, m):
                failures.append(f"trial {trial}: ({k},{m},{alpha}) length over bound")
    record("decomposition_realization", max(2, size // 2), failures)

    # 2x2x2 signature family: closed-form constraint vs symmetry flags
    failures = []
    for trial in range(size * 5):
        if trial % 3 == 0:
            a, x, y = (Fraction(rng.randint(-6, 6)) for _ in range(3))
            params = Sig222Params.of(x, y, a, a * x / 6, -a * y / 6)
        else:
            params = Sig222Params.of(*(rng.randint(-6, 6) for _ in range(5)))
        tensor = sig222_from_params(params)
        report = symmetry_report(tensor)
        want_first = partial_symmetry_constraint(params, "first")
        if want_first != ("first_k_minus_1" in report.partial):
            failures.append(f"trial {trial}: first-block flag mismatch")
        want_last = partial_symmetry_constraint(params, "last")
        if want_last != ("last_k_minus_1" in report.partial):
            failures.append(f"trial {trial}: last-block flag mismatch")
        if exp_log_signature(params.log_signature()).level(3) != tensor:
            failures.append(f"trial {trial}: entrywise table != exp level 3")
    record("sig222_family", size * 5, failures)

    # hyperplane recovery and divisor propagation
    failures = []
    n_geo = max(2, size // 2)
    for trial in range(n_geo):
        path = random_hyperplane_path(rng)
        sig = pwl_signature(path, 4)
        w = hyperplane_recovery(sig)
        expected = Subspace.span([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 4)
        if w != expected:
            failures.append(f"trial {trial}: recovered {w}")
        if not divisor_propagation_check(sig, 4, expected):
            failures.append(f"trial {trial}: divisor propagation")
    record("hyperplane_recovery", n_geo, failures)

    return {
        "seed": seed,
        "size": size,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
