"""The public API is fixed: these sets change only on purpose."""

import argparse
import types

import shiftlab
from shiftlab.cli import build_parser

EXPORTS = {
    "AdjacencySpec", "BisectionIndex", "CONFORMAL", "ClassicalIsometry",
    "ConstraintSystem", "ErgodicityVerdict", "FixedPointReport",
    "GraphAutomorphism", "LevelBasis", "MagicUnitaryModel", "MeasureValue",
    "OperatorBlock", "PARRY", "PatternMatrix", "PerronFrobeniusData",
    "RelationReport", "SupportPattern", "TAReport", "WaveletVector", "Word",
    "WordOperator", "ahlfors_profile", "automorphism_group",
    "ball_kernel_integral", "bisections_up_to", "bisections_with_length",
    "build_constraints", "classical_fixed_points", "classical_witness",
    "collapse_report", "commutation_residual", "conformal_measure",
    "count_bisections", "count_words", "cylinder_measure", "delta_matrix",
    "dirac_block", "eigenvalue_formula", "enumerate_bisections",
    "enumerate_words", "ergodicity_verdict", "halmos_lemma_check",
    "is_admissible", "is_bisection_index", "isometry_unitary", "kms_value",
    "level_basis", "normality_element_norm", "parry_measure",
    "perron_frobenius", "propagate", "qls_magic", "relation_check",
    "spectrum", "spectrum_dense", "support_decomposition", "t_a_analysis",
    "two_projection_magic", "validate_primitive", "wavelet_basis",
    "word_op_adjoint", "word_op_mul", "word_op_norm", "word_support",
}

SUBCOMMANDS = {
    "autgroup", "classical-fix", "ergodicity", "measures", "pattern", "pf",
    "repmodel", "report", "spectrum", "t-a",
}


def test_package_exports():
    # submodules become package attributes once imported; they are not exports
    public = {
        name
        for name, value in vars(shiftlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == EXPORTS


def test_cli_subcommands():
    (sub,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert set(sub.choices) == SUBCOMMANDS
