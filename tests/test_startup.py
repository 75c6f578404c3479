"""What start-up loads and what the package exports, each read in a fresh
interpreter: in this process earlier tests have loaded every module."""

import json
import os
import subprocess
import sys
from pathlib import Path

import sigtensor

ALL = [
    "Decomposition", "Flattening", "LogSignature", "PartialSymmetryConsequences", "Partition", "Path",
    "RankCertificate", "Sig222Params", "Subspace", "SymmetryReport", "Tensor", "TruncatedSignature", "Vector",
    "Word", "WordSum", "as_fraction", "as_vector", "brute_force_symmetric", "certify_rank",
    "check_shuffle_identity", "chen_concat", "classify_222_complex_rank", "conciseness", "decompose_s3_alpha",
    "decompose_s_k_alpha", "decompose_second_level", "decompose_three_segments", "decompose_two_segments",
    "divisor_propagation_check", "dynkin_map", "evaluate", "exp_log_signature", "f_lambda", "flatten",
    "flattening_lower_bound", "gl_act", "graded", "hyperdet_222", "hyperplane_recovery", "is_concise",
    "is_lie_element", "is_skew", "is_symmetric", "iterated_integral_entry", "koszul_flatten",
    "koszul_lower_bound", "lie", "lie_basis", "lie_bracket", "linalg", "log_signature", "lyndon_words",
    "matrix_rank", "mode_subspaces", "partial_symmetry_constraint", "partitions_of", "permute_modes",
    "pure_volume_check", "pwl_signature", "rank_bound_formula", "ranks", "rref", "s_k_alpha",
    "segment_signature", "shuffle", "sig222_from_params", "signatures", "skew_impossibility_check",
    "symmetric_conciseness", "symmetry", "symmetry_report", "tensor_in_power", "tensor_product", "tensors",
    "thrall_forced_zero", "time_series_to_path", "unflatten", "verify_partial_symmetry_consequences", "words",
    "words_of_length",
]
MODULES = ["conciseness", "graded", "lie", "linalg", "ranks", "signatures", "symmetry", "tensors", "words"]


def fresh(script: str):
    """The JSON that script prints, run by a new interpreter that finds this sigtensor."""
    env = {**os.environ, "PYTHONPATH": str(Path(sigtensor.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def test_cli_start_up_loads_only_the_modules_every_command_needs():
    loaded = fresh(
        "import json, sys; import sigtensor.cli as cli; cli.build_parser(); "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('sigtensor'))))"
    )
    assert loaded == [f"sigtensor{m}" for m in ("", ".cli", ".graded", ".linalg", ".serialize", ".tensors")]


def test_package_exports_each_name_from_its_module():
    # a name is the same object in every module that holds it; a module name is the module
    exports = fresh(
        "import importlib, json, sigtensor\n"
        "names = sigtensor.__all__\n"
        "values = [getattr(sigtensor, name) for name in names]\n"
        f"homes = [importlib.import_module('sigtensor.' + m) for m in {MODULES!r}]\n"
        "same = []\n"
        "for name, value in zip(names, values):\n"
        "    held = [getattr(m, name) for m in homes if hasattr(m, name)] or [importlib.import_module('sigtensor.' + name)]\n"
        "    same.append(all(value is v for v in held))\n"
        "try:\n"
        "    sigtensor.no_such_name\n"
        "    missing = None\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(json.dumps({'all': names, 'same': same, 'dir': dir(sigtensor), 'missing': missing}))"
    )
    assert exports["all"] == ALL
    assert all(exports["same"])
    assert set(ALL) <= set(exports["dir"]) and "__version__" in exports["dir"]
    assert exports["missing"] == "module 'sigtensor' has no attribute 'no_such_name'"
