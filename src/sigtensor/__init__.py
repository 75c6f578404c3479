"""Exact-arithmetic signature tensors of piecewise linear paths.

Public surface re-exported here: tensors and exact linear algebra, the word
shuffle algebra, path signatures with an iterated-integral oracle, the
free-Lie exp/log layer, rank decompositions and certificates, and the
symmetry and conciseness classifiers.

Each name is imported from its module on first access (PEP 562), so that
importing the package, or one of its modules, compiles no module it does
not use.
"""

from importlib import import_module as _import_module

# each module, and the names re-exported from it
_EXPORTS = {
    "graded": (),
    "linalg": ("Subspace", "Vector", "as_fraction", "as_vector", "matrix_rank", "rref"),
    "tensors": (
        "Flattening",
        "Tensor",
        "flatten",
        "gl_act",
        "koszul_flatten",
        "permute_modes",
        "tensor_product",
        "unflatten",
    ),
    "words": ("Word", "WordSum", "check_shuffle_identity", "evaluate", "shuffle", "words_of_length"),
    "signatures": (
        "Path",
        "TruncatedSignature",
        "chen_concat",
        "iterated_integral_entry",
        "pwl_signature",
        "segment_signature",
        "time_series_to_path",
    ),
    "lie": (
        "LogSignature",
        "Partition",
        "dynkin_map",
        "exp_log_signature",
        "f_lambda",
        "is_lie_element",
        "lie_basis",
        "lie_bracket",
        "log_signature",
        "lyndon_words",
        "partitions_of",
        "pure_volume_check",
        "thrall_forced_zero",
    ),
    "ranks": (
        "Decomposition",
        "RankCertificate",
        "certify_rank",
        "classify_222_complex_rank",
        "decompose_s3_alpha",
        "decompose_s_k_alpha",
        "decompose_second_level",
        "decompose_three_segments",
        "decompose_two_segments",
        "flattening_lower_bound",
        "hyperdet_222",
        "koszul_lower_bound",
        "rank_bound_formula",
        "s_k_alpha",
    ),
    "symmetry": (
        "PartialSymmetryConsequences",
        "Sig222Params",
        "SymmetryReport",
        "brute_force_symmetric",
        "is_skew",
        "is_symmetric",
        "partial_symmetry_constraint",
        "sig222_from_params",
        "skew_impossibility_check",
        "symmetry_report",
        "verify_partial_symmetry_consequences",
    ),
    "conciseness": (
        "divisor_propagation_check",
        "hyperplane_recovery",
        "is_concise",
        "mode_subspaces",
        "symmetric_conciseness",
        "tensor_in_power",
    ),
}
# name -> its module; a module name maps to itself
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")  # importing a module binds it here
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
