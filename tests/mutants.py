"""Mutants that the tests must kill, with a standard-library runner.

    python tests/mutants.py          # run every mutant
    python tests/mutants.py --list   # name them

Each mutant is one exact-text edit of a file under src/sigtensor and the
tests that must fail once it is applied. For each mutant the runner copies
src/ and tests/ to a temporary directory, applies the edit to the copy and
runs those tests there with pytest (hypothesis seeded, so runs repeat, and
under the "mutants" profile of tests/conftest.py, which does not shrink). The
named tests first run once on an unmutated copy and must pass, so a kill is
never an environment failure. The runner exits 1 if a mutant survives, and
at once if a mutant's old text is not found exactly once in its file: the
code moved, and the mutant must be re-targeted.

pytest collects only test_*.py files, so Tier-1 never runs this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
FLAT = "tests/test_flattening_bound.py::"
ELIM = "tests/test_elimination.py::"
GRADED = "tests/test_graded.py::"
MODP = "tests/test_rank_mod_p.py::"
SER = "tests/test_serialize.py::"
CONC = "tests/test_conciseness.py::"
SYM = "tests/test_symmetry.py::"
SYMREF = "tests/test_symmetry_reference.py::"
RANKS = "tests/test_ranks.py::"
DREF = "tests/test_decompose_reference.py::"
KEYED = "tests/test_keyed_witness.py::"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/sigtensor
    old: str
    new: str
    tests: tuple[str, ...]  # a pinned test first: it names the fault, and -x stops there


MUTANTS = [
    Mutant(
        "certify_rank does not realize the witness",
        "ranks.py",
        "if (upper_witness.dim, upper_witness.order) != (t.dim, t.order) or upper_witness.realize() != t:",
        "if (upper_witness.dim, upper_witness.order) != (t.dim, t.order):",
        (FLAT + "test_certify_rejects_witness_off_by_its_denominator_only",),
    ),
    Mutant(
        "_scan stops one rank early",
        "ranks.py",
        "        if best >= stop:\n            break",
        "        if best >= stop - 1:\n            break",
        (FLAT + "test_certify_scans_past_a_flattening_below_the_witness_length", FLAT + "test_core_scan_matches_the_ambient_scan"),
    ),
    Mutant(
        "the Koszul divisor is d, not d - 1",
        "ranks.py",
        "yield min(d * d, d * comb(d, 2)), d - 1, partial(",
        "yield min(d * d, d * comb(d, 2)), d, partial(",
        (FLAT + "test_axis_path_in_q4_keeps_the_ambient_koszul_bound", FLAT + "test_koszul_bound_matches_the_fraction_koszul_flattening"),
    ),
    Mutant(
        "the core drops one pivot of U",
        "ranks.py",
        "pivots = [pc for pc, _ in level_echelon(t)]",
        "pivots = [pc for pc, _ in level_echelon(t)[1:]]",
        (FLAT + "test_core_is_the_slice_at_the_pivot_coordinates", FLAT + "test_core_scan_matches_the_ambient_scan"),
    ),
    Mutant(
        "U is the first mode subspace, not the sum of all of them",
        "conciseness.py",
        "return echelon_sum(modes, len(live))",
        "return echelon_sum([next(modes)], len(live))",
        (FLAT + "test_core_spans_every_mode_subspace_not_only_the_first", FLAT + "test_core_scan_matches_the_ambient_scan"),
    ),
    Mutant(
        "the core keeps the ambient dimension (a zero tensor's empty core is read at d)",
        "ranks.py",
        "return _slice(t, pivots), len(pivots)",
        "return _slice(t, pivots), t.dim",
        (FLAT + "test_core_of_the_zero_tensor_is_empty_and_scans_nothing", FLAT + "test_core_scan_matches_the_ambient_scan"),
    ),
    Mutant(
        "the witness slice drops the last pivot of the witness's span",
        "ranks.py",
        "span = [pc for pc, _ in _echelon({nums for _, keys in witness.keyed for nums, _ in keys}, t.dim)]",
        "span = [pc for pc, _ in _echelon({nums for _, keys in witness.keyed for nums, _ in keys}, t.dim)][:-1]",
        (FLAT + "test_the_witness_core_reads_every_pivot_of_the_witness_span", FLAT + "test_certify_matches_the_ambient_scan_whatever_the_witness_spans"),
    ),
    Mutant(
        "decompose reads the axis path without the rank test on the increments",
        "ranks.py",
        "    if len(_echelon(_scaled_vectors(vecs, t.dim), t.dim)) < m:\n        return certify_rank(t, witness)\n",
        "",
        ("tests/test_cli.py::test_decompose_of_dependent_increments_reads_no_axis_path", FLAT + "test_dependent_increments_fall_back_to_the_witness_span"),
    ),
    Mutant(
        "the axis path is built at alpha = 0",
        "ranks.py",
        "k, alpha).nums, m))",
        "k, 0).nums, m))",
        (FLAT + "test_independent_increments_scan_the_axis_path_at_their_alpha",),
    ),
    Mutant(
        "the witness cap counts only the factors at the side's first position",
        "ranks.py",
        "len(set(map(itemgetter(*side), terms)))",
        "len(set(map(itemgetter(side[0]), terms)))",
        (FLAT + "test_certify_ranks_6_of_the_10_balanced_flattenings_of_a_rank_cert_input", FLAT + "test_certify_matches_the_ambient_scan_whatever_the_witness_spans"),
    ),
    Mutant(
        "the witness cap drops the witness's last term",
        "ranks.py",
        "for c, keys in witness.keyed if c]",
        "for c, keys in witness.keyed[:-1] if c]",
        (FLAT + "test_certify_ranks_6_of_the_10_balanced_flattenings_of_a_rank_cert_input", FLAT + "test_certify_matches_the_ambient_scan_whatever_the_witness_spans"),
    ),
    Mutant(
        "flattening candidates come by ascending cap",
        "ranks.py",
        "key=lambda candidate: -candidate[0]",
        "key=lambda candidate: candidate[0]",
        (FLAT + "test_certify_ranks_6_of_the_10_balanced_flattenings_of_a_rank_cert_input",),
    ),
    Mutant(
        "_scan skips a candidate whose cap is one above the best",
        "ranks.py",
        "if -(-cap // divisor) <= best:",
        "if -(-cap // divisor) <= best + 1:",
        (FLAT + "test_the_scan_ranks_a_candidate_whose_cap_is_one_above_the_best", FLAT + "test_the_one_scan_matches_the_two_scans_it_replaced"),
    ),
    Mutant(
        "_scan ranks a candidate whose nonzero rows only equal the best",
        "ranks.py",
        "if -(-len(nonzero) // divisor) <= best:",
        "if -(-len(nonzero) // divisor) < best:",
        (FLAT + "test_the_scan_ranks_a_candidate_only_if_its_nonzero_rows_can_beat_the_best",),
    ),
    Mutant(
        "_scan skips a candidate whose nonzero rows are one above the best",
        "ranks.py",
        "if -(-len(nonzero) // divisor) <= best:",
        "if -(-len(nonzero) // divisor) <= best + 1:",
        (FLAT + "test_the_scan_ranks_a_candidate_only_if_its_nonzero_rows_can_beat_the_best", FLAT + "test_the_one_scan_matches_the_two_scans_it_replaced"),
    ),
    Mutant(
        "_scan rounds rank / divisor down",
        "ranks.py",
        "best = max(best, -(-_rank_mod_p(nonzero, len(nonzero[0])) // divisor))",
        "best = max(best, _rank_mod_p(nonzero, len(nonzero[0])) // divisor)",
        (FLAT + "test_axis_path_in_q4_keeps_the_ambient_koszul_bound", FLAT + "test_the_one_scan_matches_the_two_scans_it_replaced"),
    ),
    Mutant(
        "the third Koszul pivot is dropped",
        "ranks.py",
        "for pivot in (1, 2, 3):",
        "for pivot in (1, 2):",
        (FLAT + "test_koszul_bound_reads_the_third_pivot",),
    ),
    Mutant(
        "symmetry runs past the order guard",
        "cli.py",
        "    _check_order(order, args.allow_large)\n    report = ",
        "    report = ",
        ("tests/test_cli.py::test_symmetry_over_order_guard_exits_4_at_once",),
    ),
    Mutant(
        "certify runs past the dim guard",
        "cli.py",
        "    if tensor.dim > GUARD_DIM and not args.allow_large:\n        raise _too_large(f\"dim <= {GUARD_DIM}\", f\"dim={tensor.dim}\")\n",
        "",
        ("tests/test_cli.py::test_certify_takes_the_dim_guard",),
    ),
    Mutant(
        "decompose runs past the alpha guard",
        "cli.py",
        "    if args.alpha > GUARD_LEVEL and not args.allow_large:\n        raise _too_large(f\"alpha <= {GUARD_LEVEL}\", f\"alpha={args.alpha}\")\n",
        "",
        # not test_decompose_over_alpha_guard_exits_4_at_once: unguarded, it runs for minutes
        ("tests/test_cli.py::test_decompose_alpha_guard_builds_no_decomposition",),
    ),
    Mutant(
        "pure-volume runs past the dim/level guard",
        "cli.py",
        "    _check_size(sig.dim, sig.max_level, args.allow_large)\n    return {\"sig\": args.sig, \"n\": args.n",
        "    return {\"sig\": args.sig, \"n\": args.n",
        ("tests/test_cli.py::test_pure_volume_takes_the_dim_guard[False]",),
    ),
    Mutant(
        "concise runs past the dim/level guard",
        "cli.py",
        "    _check_size(sig.dim, level, args.allow_large)\n",
        "",
        ("tests/test_cli.py::test_concise_over_level_guard_exits_4_at_once", "tests/test_cli.py::test_concise_takes_the_dim_guard"),
    ),
    Mutant(
        "cli imports the harness at start-up",
        "cli.py",
        "from .serialize import ParseError, dump_json\n",
        "from .harness import run_harness\nfrom .serialize import ParseError, dump_json\n",
        ("tests/test_startup.py::test_cli_start_up_loads_only_the_modules_every_command_needs",),
    ),
    Mutant(
        "signature's Horner step weights level i by C(k, i), not C(k + alpha, i)",
        "graded.py",
        "t = _prepend(w, t, steps[i - 1]) + comb(k + a, i) * nums[i]",
        "t = _prepend(w, t, steps[i - 1]) + comb(k, i) * nums[i]",
        ("tests/test_ranks.py::test_two_segments_alpha_weighted", "tests/test_series_kernel.py::test_s_k_alpha_matches_composition_sum"),
    ),
    Mutant(
        "a packed level's width is one bit short",
        "graded.py",
        "return 64 * ((bound.bit_length() + 64) // 64)",
        "return 64 * ((bound.bit_length() + 63) // 64)",
        (GRADED + "test_packed_levels_read_back_entries_at_the_width_boundaries", GRADED + "test_packed_signature_matches_the_list_kernel"),
    ),
    Mutant(
        "_unpack drops the 2^(width - 1) offset",
        "graded.py",
        'data = ((v + offset) ^ offset).to_bytes(n * size, "little")',
        'data = v.to_bytes(n * size, "little")',
        (GRADED + "test_packed_levels_read_back_entries_at_the_width_boundaries", GRADED + "test_packed_signature_matches_the_list_kernel"),
    ),
    Mutant(
        "_prepend shifts letter l by (l + 1) * step",
        "graded.py",
        "out += x * t << l * step",
        "out += x * t << (l + 1) * step",
        (GRADED + "test_one_segment_levels_are_tensor_powers", GRADED + "test_packed_signature_matches_the_list_kernel"),
    ),
    Mutant(
        "the trie fold skips depth 0",
        "graded.py",
        "for j in range(order, depth, -1):",
        "for j in range(order, max(depth, 1), -1):",
        (GRADED + "test_every_leading_factor_reaches_the_root", GRADED + "test_accumulate_matches_the_flat_sum_in_any_term_order"),
    ),
    Mutant(
        "accumulate keeps only the last coefficient of a repeated factor list",
        "graded.py",
        "acc[order] += c",
        "acc[order] = c",
        (GRADED + "test_repeated_factor_lists_add_their_coefficients", GRADED + "test_accumulate_matches_the_flat_sum_in_any_term_order"),
    ),
    Mutant(
        "accumulate drops the denominator of a factor",
        "graded.py",
        "Fraction(c.numerator, c.denominator * prod(den for _, den in keys))",
        "Fraction(c.numerator, c.denominator)",
        (GRADED + "test_factor_denominators_move_into_the_coefficient", GRADED + "test_accumulate_matches_the_flat_sum_in_any_term_order"),
    ),
    Mutant(
        "a key whose denominator is dropped in accumulate (the first factor's)",
        "graded.py",
        "prod(den for _, den in keys)",
        "prod(den for _, den in keys[1:])",
        (GRADED + "test_the_first_factor_keeps_its_denominator", GRADED + "test_accumulate_matches_the_flat_sum_in_any_term_order"),
    ),
    Mutant(
        "a coefficient that loses its denominator in accumulate",
        "graded.py",
        "Fraction(c.numerator, c.denominator * prod(",
        "Fraction(c.numerator, prod(",
        (GRADED + "test_a_coefficient_keeps_its_denominator", KEYED + "test_keyed_witnesses_agree_with_the_fraction_reference"),
    ),
    Mutant(
        "a decomposition stores its factors in reverse order",
        "ranks.py",
        "keyed=tuple((c, tuple(_keys(factors))) for c, factors in terms)",
        "keyed=tuple((c, tuple(_keys(factors))[::-1]) for c, factors in terms)",
        (KEYED + "test_decomposition_keeps_its_factor_order", KEYED + "test_keyed_witnesses_agree_with_the_fraction_reference"),
    ),
    Mutant(
        "the witness emitter skips the gcd and writes 2/4",
        "serialize.py",
        'f"{n // g}/{den // g}"',
        'f"{n}/{den}"',
        (KEYED + "test_witness_entries_are_written_in_lowest_terms", KEYED + "test_keyed_witnesses_agree_with_the_fraction_reference"),
    ),
    Mutant(
        "the witness parser takes a factor's denominator from its first entry only",
        "serialize.py",
        "graded.as_key(list(islice(it, len(v))), den)",
        "(lambda s: graded.as_key([n * (den // gcd(den, s[0])) // den for n in s], den // gcd(den, s[0])))(list(islice(it, len(v))))",
        (KEYED + "test_the_witness_parser_reads_each_factor_over_all_of_its_entries", KEYED + "test_keyed_witnesses_agree_with_the_fraction_reference"),
    ),
    Mutant(
        "accumulate's common prefix skips the first depth, merging nodes that differ",
        "graded.py",
        "        p = 0\n        while p < order and key[p] == prev[p]:",
        "        p = 1\n        while p < order and key[p] == prev[p]:",
        (GRADED + "test_terms_that_differ_only_in_their_first_factor_stay_apart", GRADED + "test_accumulate_matches_the_flat_sum_in_any_term_order"),
    ),
    Mutant(
        "accumulate drops the final fold to depth 0",
        "graded.py",
        "    fold(0)\n    return reduced(_unpack(",
        "    return reduced(_unpack(",
        (GRADED + "test_every_leading_factor_reaches_the_root", GRADED + "test_accumulate_matches_the_flat_sum_in_any_term_order"),
    ),
    Mutant(
        "swap_positions swaps letters pos + 1 and pos + 2",
        "graded.py",
        "size = dim ** (order - 2 - pos)",
        "size = dim ** (order - 3 - pos)",
        (GRADED + "test_swap_positions_on_a_hand_example", GRADED + "test_swap_positions_matches_permute_modes"),
    ),
    Mutant(
        "the log/exp Horner step truncates x one level short",
        "lie.py",
        "return graded.product([([0], 1)] + x[:n], ",
        "return graded.product([([0], 1)] + x[:n - 1], ",
        ("tests/test_lie.py::test_log_of_segment_is_pure_level_one", "tests/test_series_kernel.py::test_exp_matches_power_series"),
    ),
    Mutant(
        "the Lie check runs in a second loop, after every level's shape",
        "signatures.py",
        "                raise ValueError(f\"level {k} has wrong shape\")\n            self._check_level(k, t)\n",
        "                raise ValueError(f\"level {k} has wrong shape\")\n        for k, t in enumerate(self.levels, self.first):\n            self._check_level(k, t)\n",
        ("tests/test_containers.py::test_levels_are_checked_in_level_order[levels0-level 2 is not a Lie element]",),
    ),
    Mutant(
        "the v^b loop of three segments starts at 1 for odd k",
        "ranks.py",
        "for b in range(1 + k % 2, k, 2):",
        "for b in range(1, k, 2):",
        ("tests/test_ranks.py::test_three_segments_length_and_realization[5]", "tests/test_decompose_reference.py::test_three_segments_cover_both_parities"),
    ),
    Mutant(
        "s3's head sums run one vector ahead",
        "ranks.py",
        "head.append(_mix(d, (head[-1], 1), (v[i], 1)))",
        "head.append(_mix(d, (head[-1], 1), (v[(i + 1) % m], 1)))",
        (RANKS + "test_s3_alpha_terms_on_four_axes", DREF + "test_s3_alpha_matches_the_reference"),
    ),
    Mutant(
        "s3's tail sums miss v_m",
        "ranks.py",
        "tail[m - 1 - i] = _mix(d, (tail[m - i], 1), (v[m - i], 1))",
        "tail[m - 1 - i] = _mix(d, (tail[m - i], 1), (v[m - i], 1)) if i > 1 else tail[m - 1]",
        (RANKS + "test_s3_alpha_terms_on_four_axes", DREF + "test_s3_alpha_matches_the_reference"),
    ),
    Mutant(
        "the level-2 remainder is taken out after its term, not before",
        "ranks.py",
        "        rest = _mix(d, (rest, 1), (v, -1))\n        terms.append((Fraction(1, factorial(alpha + first)), [v, _mix(d, (v, 2 + alpha * first), (rest, 1))]))\n",
        "        terms.append((Fraction(1, factorial(alpha + first)), [v, _mix(d, (v, 2 + alpha * first), (rest, 1))]))\n        rest = _mix(d, (rest, 1), (v, -1))\n",
        (RANKS + "test_second_level_terms_on_three_axes", DREF + "test_second_level_matches_the_reference"),
    ),
    Mutant(
        "the loop prepends v_i = 0 to its branch's terms",
        "ranks.py",
        "        if any(v[0]):\n",
        "        if v:\n",
        (RANKS + "test_a_zero_first_increment_adds_no_term", DREF + "test_s_k_alpha_matches_the_reference"),
    ),
    Mutant(
        "the loop keeps the weight alpha after the first branch",
        "ranks.py",
        "        a, scale = 0, factorial(alpha)\n",
        "        scale = factorial(alpha)\n",
        (RANKS + "test_every_branch_after_the_first_is_at_weight_one", DREF + "test_s_k_alpha_matches_the_reference_on_long_series"),
    ),
    Mutant(
        "the closing grouping is at weight alpha after a loop that ran",
        "ranks.py",
        "_three_segments(*vecs[-3:], k, a).keyed]",
        "_three_segments(*vecs[-3:], k, alpha).keyed]",
        (RANKS + "test_the_closing_grouping_after_the_loop_is_at_weight_zero", DREF + "test_s_k_alpha_matches_the_reference_on_long_series"),
    ),
    Mutant(
        "the first branch is also over alpha!",
        "ranks.py",
        "terms, a, scale = [], alpha, 1",
        "terms, a, scale = [], alpha, factorial(alpha)",
        (RANKS + "test_the_first_branch_is_not_over_alpha_factorial", DREF + "test_s_k_alpha_matches_the_reference_on_long_series"),
    ),
    Mutant(
        "symmetry_report does not rescan the last block when the first violation is at p = 0",
        "symmetry.py",
        "(sym[0] == 0 and _transposition_violation(e, k, d, range(1, k - 1), +1, *values) is None)",
        "sym[0] == 0",
        ("tests/test_symmetry_reference.py::test_first_violation_at_each_position[3-0]", "tests/test_symmetry_reference.py::test_report_matches_the_four_scan_reference"),
    ),
    Mutant(
        "a skew position is compared with the level, not its negation",
        "symmetry.py",
        "(e if sign == 1 else tuple(map(neg, e)))",
        "e",
        (SYM + "test_skew_positions_are_accepted_by_one_whole_level_comparison",),
    ),
    Mutant(
        "symmetry tries the whole level at the first agreeing run pair, zero or not",
        "symmetry.py",
        "if untried and x.count(zero) != lo:",
        "if untried:",
        (SYM + "test_generic_and_confined_tensors_build_no_swapped_level",),
    ),
    Mutant(
        "the diagonal runs are chained before the a < b pairs",
        "symmetry.py",
        "itertools.chain(pairs, ((o + a * (hi + lo),) * 2 for o in prefixes for a in range(d)))",
        "itertools.chain(((o + a * (hi + lo),) * 2 for o in prefixes for a in range(d)), pairs)",
        (SYM + "test_skew_witness_on_a_segment_is_an_off_diagonal_pair_before_any_diagonal_entry", "tests/test_symmetry_reference.py::test_report_matches_the_four_scan_reference"),
    ),
    Mutant(
        "the diagonal runs are dropped for sign -1",
        "symmetry.py",
        "        if sign == -1:\n            pairs = ",
        "        if sign == 2:\n            pairs = ",
        (SYM + "test_a_cube_of_a_basis_vector_fails_skew_on_its_diagonal_entry[1]", "tests/test_symmetry_reference.py::test_report_matches_the_four_scan_reference"),
    ),
    Mutant(
        "the diagonal offset is o + a * hi",
        "symmetry.py",
        "((o + a * (hi + lo),) * 2 for",
        "((o + a * hi,) * 2 for",
        (SYM + "test_a_cube_of_a_basis_vector_fails_skew_on_its_diagonal_entry[2]", "tests/test_symmetry_reference.py::test_report_matches_the_four_scan_reference"),
    ),
    Mutant(
        "Tensor._combine drops the sign of the second term",
        "tensors.py",
        "a, b = den // self.den, sign * (den // other.den)",
        "a, b = den // self.den, den // other.den",
        ("tests/test_tensors.py::test_sums_that_cancel_to_integers_have_denominator_one", "tests/test_tensors.py::test_arithmetic_matches_fraction_references"),
    ),
    Mutant(
        "the dead-letter check reads mode 1 only, so a letter live only at a later mode is sliced away",
        "conciseness.py",
        "any(any(map(nonzero, _unfolding_runs(e, d, d ** (k - mode), i))) for mode in range(1, k + 1))",
        "any(any(map(nonzero, _unfolding_runs(e, d, d ** (k - mode), i))) for mode in range(1, 2))",
        (ELIM + "test_a_letter_live_at_a_later_mode_only_is_kept", ELIM + "test_mode_subspaces_match_one_fiber_at_a_time_scan"),
    ),
    Mutant(
        "the slice drops the last letter",
        "ranks.py",
        "offsets = [o * t.dim + j for o in offsets for j in coords]",
        "offsets = [o * t.dim + j for o in offsets for j in coords[:-1]]",
        (FLAT + "test_core_is_the_slice_at_the_pivot_coordinates", FLAT + "test_core_scan_matches_the_ambient_scan"),
    ),
    Mutant(
        "each mode's echelon is capped at d, not |J|",
        "conciseness.py",
        "rows = _echelon(_spanning_fibers(firsts[mode - start], whole, d, k, stride, unfolded), len(live))",
        "rows = _echelon(_spanning_fibers(firsts[mode - start], whole, d, k, stride, unfolded), d)",
        (ELIM + "test_a_level_in_a_coordinate_hyperplane_eliminates_no_unfolding", ELIM + "test_a_level_in_a_coordinate_plane_eliminates_no_unfolding"),
    ),
    Mutant(
        "the first fibers hold letter 0, not live[0], at the other positions",
        "conciseness.py",
        "base = live[0] * (sum(d**p for p in range(k)) - stride - step)",
        "base = 0 * (sum(d**p for p in range(k)) - stride - step)",
        (ELIM + "test_first_fibers_are_the_first_fibers_of_the_live_slice_lifted", ELIM + "test_a_level_in_a_coordinate_hyperplane_eliminates_no_unfolding"),
    ),
    Mutant(
        "the swap corner is read at letter 0, not live[0]",
        "conciseness.py",
        "base = live[0] * (sum(d**p for p in range(k)) - (d + 1) * stride)",
        "base = 0 * (sum(d**p for p in range(k)) - (d + 1) * stride)",
        (ELIM + "test_a_level_in_a_coordinate_and_a_non_coordinate_hyperplane_builds_no_swapped_level",),
    ),
    Mutant(
        "mode_echelons reuses a mode's rows without comparing the swapped level",
        "conciseness.py",
        " for a in range(d)) and graded.swap_positions(nums, d, k, mode - 2) == nums:",
        " for a in range(d)):",
        (ELIM + "test_reuse_stops_at_a_swap_that_changes_the_tensor", ELIM + "test_mode_echelons_match_the_fraction_span_of_every_fiber"),
    ),
    Mutant(
        "mode_echelons tries the swap after every mode, not only after a full unfolding",
        "conciseness.py",
        "        if unfolded:\n            # the entries whose",
        "        if mode > 1:\n            # the entries whose",
        (ELIM + "test_a_symmetric_level_settled_by_its_first_fibers_builds_no_swapped_level", ELIM + "test_generic_and_confined_levels_build_no_swapped_level"),
    ),
    Mutant(
        "mode_echelons swaps the whole level without the check on the entries whose other letters are live[0]",
        "conciseness.py",
        "if all(corner[a * d : (a + 1) * d] == corner[a::d] for a in range(d)) and graded",
        "if graded",
        (ELIM + "test_a_level_in_a_non_coordinate_hyperplane_builds_no_swapped_level",),
    ),
    Mutant(
        "is_concise reads only mode 1",
        "conciseness.py",
        "all(len(rows) == t.dim for rows in mode_echelons(t))",
        "all(len(rows) == t.dim for rows in [next(mode_echelons(t))])",
        (CONC + "test_example_64_symmetrically_concise_not_concise", CONC + "test_concise_agrees_with_the_fraction_path"),
    ),
    Mutant(
        "hyperplane_recovery skips level 1",
        "conciseness.py",
        "for k in range(1, s.max_level + 1)), s.dim)",
        "for k in range(2, s.max_level + 1)), s.dim)",
        (CONC + "test_hyperplane_recovery_reads_level_1", CONC + "test_concise_agrees_with_the_fraction_path"),
    ),
    Mutant(
        "classify_222_complex_rank counts the level sum instead of each mode",
        "ranks.py",
        "ranks = [len(rows) for rows in mode_echelons(t)]",
        "ranks = [len(level_echelon(t))] * 3",
        (FLAT + "test_classify_222_counts_each_mode_not_their_sum", FLAT + "test_classify_222_matches_the_flattening_reference"),
    ),
    Mutant(
        "_echelon drops Bareiss's exact division by the previous pivot",
        "linalg.py",
        "v = [(p * a - f * b) // q for a, b in zip(v, row)] if f else [p * a // q for a in v]",
        "v = [p * a - f * b for a, b in zip(v, row)] if f else [p * a for a in v]",
        (ELIM + "test_echelon_pivots_are_the_leading_minors", ELIM + "test_echelon_pivot_entries_equal_leading_minors"),
    ),
    Mutant(
        "_echelon never advances the divisor q past 1",
        "linalg.py",
        "            q = p\n",
        "",
        (ELIM + "test_echelon_pivots_are_the_leading_minors", ELIM + "test_echelon_pivot_entries_equal_leading_minors"),
    ),
    Mutant(
        "_echelon does not rescale a vector whose entry at the pivot column is 0",
        "linalg.py",
        "if f else [p * a // q for a in v]",
        "if f else v",
        (ELIM + "test_echelon_pivots_are_the_leading_minors", ELIM + "test_echelon_pivot_entries_equal_leading_minors"),
    ),
    Mutant(
        "_rank_mod_p reads the field one column right of the pivot",
        "linalg.py",
        "f = (v >> shift & _MASK) * inv % P",
        "f = (v >> shift + 64 & _MASK) * inv % P",
        (MODP + "test_each_step_reads_the_field_at_the_pivot_column", MODP + "test_rank_matches_integer_rank_on_low_rank_products"),
    ),
    Mutant(
        "_rank_mod_p searches the pivot among unreduced fields",
        "linalg.py",
        "residues = [x % P for x in _unpack(v, n)]",
        "residues = list(_unpack(v, n))",
        (MODP + "test_residues_are_reduced_before_the_pivot_search", MODP + "test_rank_matches_integer_rank_on_low_rank_products"),
    ),
    Mutant(
        "_rank_mod_p leaves the pivot inverse out of f",
        "linalg.py",
        "f = (v >> shift & _MASK) * inv % P",
        "f = (v >> shift & _MASK) % P",
        (MODP + "test_each_step_scales_by_the_inverse_of_the_pivot", MODP + "test_rank_matches_integer_rank_on_random_matrices"),
    ),
    Mutant(
        "_absorbs reads the basis before the vectors",
        "linalg.py",
        "_scaled_vectors([*vectors, *self.basis], d)",
        "_scaled_vectors([*self.basis, *vectors], d)",
        ("tests/test_subspace_reference.py::test_bad_vectors_raise_as_the_reference[vector0-ValueError-full]",),
    ),
    Mutant(
        "the distinct route maps entries by position rather than by value",
        "serialize.py",
        "return list(map(value.__getitem__, items)), den",
        "return (nums * len(items))[: len(items)], den",
        (SER + "test_distinct_route_maps_each_entry_by_its_value", SER + "test_tensor_from_json_agrees_with_fraction_tensor"),
    ),
    Mutant(
        "the distinct route takes den from the sampled entries only",
        "serialize.py",
        "return list(map(value.__getitem__, items)), den",
        "return list(map(value.__getitem__, items)), _parse_plain(sample)[1]",
        (SER + "test_distinct_route_takes_den_from_every_entry_not_the_sample", SER + "test_tensor_from_json_agrees_with_fraction_tensor"),
    ),
    Mutant(
        "the string route trusts a string inequality without parsing the two entries",
        "symmetry.py",
        "if not same(x[r], neg(y[r]) if negate else y[r]):",
        "if True:",
        (SYM + "test_plain_entries_spelled_apart_at_mirrored_positions_are_no_violation", SYMREF + "test_the_string_route_reports_as_the_tensor_route"),
    ),
    Mutant(
        "the skew scan negates the whole second run before comparing it",
        "symmetry.py",
        "map(operator.ne, x, map(neg, y) if negate else y)",
        "map(operator.ne, x, tuple(map(neg, y)) if negate else y)",
        (SYM + "test_the_skew_scan_negates_a_plain_run_only_up_to_its_first_difference",),
    ),
    Mutant(
        "the skew scan compares the second run without negating it",
        "symmetry.py",
        "map(operator.ne, x, map(neg, y) if negate else y)",
        "map(operator.ne, x, y)",
        (SYM + "test_skew_witness_on_a_segment_is_an_off_diagonal_pair_before_any_diagonal_entry", "tests/test_symmetry_reference.py::test_report_matches_the_four_scan_reference"),
    ),
    Mutant(
        "the plain check misses the two-slash case",
        "serialize.py",
        'if b"//" in joined.translate(None, b"-0123456789") or (',
        "if (",
        (SER + "test_the_plain_check_refuses_two_slashes_and_a_zero_q", SER + "test_the_plain_check_accepts_a_level_exactly_when_parse_plain_does"),
    ),
    Mutant(
        "the plain check misses the zero-denominator case",
        "serialize.py",
        ' or (b"/0" in joined and re.search(rb"/0+,", joined)):',
        ":",
        (SER + "test_the_plain_check_refuses_two_slashes_and_a_zero_q", SER + "test_the_plain_check_accepts_a_level_exactly_when_parse_plain_does"),
    ),
    Mutant(
        "entry sharing maps every entry to the first distinct string",
        "serialize.py",
        "return tuple(map(first.__getitem__, items)) if _is_plain(first) else None",
        "return (next(iter(first)),) * len(items) if _is_plain(first) else None",
        (SER + "test_a_repetitive_plain_level_shares_one_object_per_distinct_string", SYMREF + "test_the_string_route_reports_as_the_tensor_route"),
    ),
    Mutant(
        "concise sums only the first mode's rows into a level's span",
        "cli.py",
        "spans.append(echelon_sum(modes, len(live)))",
        "spans.append(echelon_sum(modes[:1], len(live)))",
        (CONC + "test_concise_level_span_sums_every_mode", CONC + "test_concise_agrees_with_the_fraction_path"),
    ),
    Mutant(
        "concise reads mode_dims from the level's span",
        "cli.py",
        '"mode_dims": [len(rows) for rows in modes],',
        '"mode_dims": [len(spans[-1])] * len(modes),',
        (CONC + "test_concise_mode_dims_count_each_mode_not_the_level_sum", CONC + "test_concise_agrees_with_the_fraction_path"),
    ),
    Mutant(
        "concise reads a plain level as strings without the plain check",
        "conciseness.py",
        "if order >= 3 and not serialize._repetitive(entries) and _is_plain(entries):",
        "if order >= 3 and not serialize._repetitive(entries):",
        ("tests/test_cli.py::test_concise_names_a_malformed_entry_that_no_fiber_reads", CONC + "test_concise_prints_the_bytes_of_the_tensor_route"),
    ),
    Mutant(
        # fibers of one mode scaled apart keep its span; the unfolding of
        # another mode mixes them, which only one denominator keeps
        "the full unfolding of a plain level parses its last-mode fibers each over its own denominator",
        "conciseness.py",
        "parsed.append(next(batch([iter([e])])[0]))",
        "parsed.append(tuple(chain.from_iterable(next(batch([iter([e[i : i + d]])])[0]) for i in range(0, len(e), d))))",
        (CONC + "test_plain_unfolding_of_a_level_in_a_non_coordinate_hyperplane_is_over_one_denominator", CONC + "test_concise_prints_the_bytes_of_the_tensor_route"),
    ),
    Mutant(
        "a plain run is zero when its first entry is \"0\"",
        "conciseness.py",
        'return run.count("0") != len(run)',
        'return run[0] != "0"',
        (CONC + "test_plain_live_letters_of_a_level_in_a_coordinate_hyperplane", CONC + "test_concise_prints_the_bytes_of_the_tensor_route"),
    ),
]


def copy_tree(target: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, target / part, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))


def run_tests(workdir: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", "--hypothesis-profile=mutants", *tests]
    return subprocess.run(command, cwd=workdir, env=env, capture_output=True, text=True, timeout=600)


def apply(mutant: Mutant, workdir: Path) -> None:
    path = workdir / "src" / "sigtensor" / mutant.file
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        sys.exit(f"mutant '{mutant.name}': its old text occurs {found} times in src/sigtensor/{mutant.file}, expected once; re-target it")
    path.write_text(text.replace(mutant.old, mutant.new))


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for m in MUTANTS:
            print(f"{m.file}: {m.name}")
        return 0
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="sigtensor-mutants-") as tmp:
        tmp = Path(tmp)
        for i, mutant in enumerate(MUTANTS):  # every old text is checked before any test runs
            copy_tree(tmp / str(i))
            apply(mutant, tmp / str(i))
        copy_tree(tmp / "clean")
        named = sorted({t for m in MUTANTS for t in m.tests})
        clean = run_tests(tmp / "clean", named)
        if clean.returncode != 0:
            print(clean.stdout[-3000:], clean.stderr[-3000:], sep="\n")
            print("the named tests fail without any mutant; nothing was measured")
            return 1
        survivors = []
        for i, mutant in enumerate(MUTANTS):
            result = run_tests(tmp / str(i), mutant.tests)
            if result.returncode not in (0, 1):  # pytest's own error (2-5), not a failing test
                print(result.stdout[-3000:], result.stderr[-3000:], sep="\n")
                print(f"mutant '{mutant.name}': pytest exited {result.returncode}, not with failing tests")
                return 1
            killed = result.returncode == 1
            print(f"{'killed' if killed else 'SURVIVED'}: {mutant.name} ({mutant.file})", flush=True)
            if not killed:
                survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed in {time.monotonic() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
