"""The public API is fixed: these sets change only on purpose."""

import argparse
import re
import types

import numpy as np
import pytest

import shiftlab as sl
from shiftlab.cli import build_parser
from shiftlab.errors import (
    IndexClash,
    LastLetterMismatch,
    LengthOverflow,
    NotAdmissible,
    NotBiunitary,
    PrefixMismatch,
)
from shiftlab.groupoid import make_bisection
from shiftlab.models import classical_model
from shiftlab.symmetry import GraphAutomorphism

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
        for name, value in vars(sl).items()
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


def _word_op(dim, shift_power=0):
    return sl.WordOperator.from_legs(dim, shift_power, {0: np.eye(dim)})


# Library calls that refuse their arguments: the call on Fibonacci (its
# spec and PF data), the exception and a fragment of its message
REFUSALS = {
    "cylinder-kind": (
        lambda fib, pf: sl.cylinder_measure(pf, (1,), "bogus"),
        ValueError, "unknown measure kind 'bogus'",
    ),
    "ahlfors-depth-0": (
        lambda fib, pf: sl.ahlfors_profile(pf, 0), ValueError, "depth_max must be >= 1"
    ),
    "ball-empty-word": (
        lambda fib, pf: sl.ball_kernel_integral(pf, (), 0.5),
        ValueError, "ball needs a nonempty center word",
    ),
    "count-words-length-minus-1": (
        lambda fib, pf: sl.count_words(fib, -1), ValueError, "length must be >= 0"
    ),
    "enumerate-words-length-minus-1": (
        lambda fib, pf: sl.enumerate_words(fib, -1), ValueError, "length must be >= 0"
    ),
    "bisections-s-length-0": (
        lambda fib, pf: sl.enumerate_bisections(fib, 1, 0),
        ValueError, "need r_len >= 0 and s_len >= 1",
    ),
    # 2^21 indices on the full 2-shift, over the default cap
    "bisections-over-cap": (
        lambda fib, pf: sl.enumerate_bisections(sl.AdjacencySpec.full_shift(2), 10, 11),
        LengthOverflow, "bisection count at (10, 11) exceeds cap 1000000",
    ),
    "bisections-length-0": (
        lambda fib, pf: sl.bisections_with_length(fib, 0),
        ValueError, "length must be >= 1",
    ),
    "make-bisection-non-index": (
        lambda fib, pf: make_bisection(fib, (2,), (2,)),
        NotAdmissible, "((2,), (2,)) is not a bisection index",
    ),
    "support-empty-word": (
        lambda fib, pf: sl.support_decomposition(fib, (), (1,)),
        LastLetterMismatch, "both words must be nonempty",
    ),
    "support-inadmissible": (
        lambda fib, pf: sl.support_decomposition(fib, (2, 2, 1), (1,)),
        NotAdmissible, "word (2, 2, 1) is not admissible",
    ),
    "level-basis-empty-base": (
        lambda fib, pf: sl.level_basis(fib, (), 1),
        NotAdmissible, "level basis needs a nonempty base word",
    ),
    "level-basis-inadmissible": (
        lambda fib, pf: sl.level_basis(fib, (2, 2), 1),
        NotAdmissible, "base (2, 2) is not admissible",
    ),
    "eigenvalue-empty-s-word": (
        lambda fib, pf: sl.eigenvalue_formula(pf, (), (1,)),
        PrefixMismatch, "s_word must be nonempty",
    ),
    "eigenvalue-inadmissible-nu": (
        lambda fib, pf: sl.eigenvalue_formula(pf, (2,), (2, 2)),
        NotAdmissible, "word (2, 2) is not admissible",
    ),
    "wavelet-depth-0": (
        lambda fib, pf: sl.wavelet_basis(pf, (1,), 0), ValueError, "depth must be >= 1"
    ),
    "fixed-points-k-0": (
        lambda fib, pf: sl.classical_fixed_points(fib, 0), ValueError, "k must be >= 1"
    ),
    "isometry-phase-2": (
        lambda fib, pf: sl.ClassicalIsometry((2.0, 1.0), GraphAutomorphism((1, 2))),
        ValueError, "phase 2.0 is not unimodular",
    ),
    "witness-unequal-lengths": (
        lambda fib, pf: sl.classical_witness(fib, (1,), (1, 2)),
        ValueError, "words must have equal length",
    ),
    "qls-non-cubic-grid": (
        lambda fib, pf: sl.qls_magic(np.zeros((2, 2, 3))),
        NotBiunitary, "expected shape (n, n, n), got (2, 2, 3)",
    ),
    "normality-3-grid": (
        lambda fib, pf: sl.normality_element_norm(classical_model((1, 2, 3)), 1, 2, 3),
        IndexClash, "model needs n >= 4",
    ),
    "word-op-mul-leg-dimensions": (
        lambda fib, pf: sl.word_op_mul(_word_op(2), _word_op(3)),
        ValueError, "leg dimensions differ",
    ),
    "materialize-with-shift": (
        lambda fib, pf: _word_op(2, shift_power=1).materialize(),
        ValueError, "only shift-free operators materialize",
    ),
}


@pytest.mark.parametrize(
    "call, error, fragment", REFUSALS.values(), ids=REFUSALS.keys()
)
def test_library_refusals(monkeypatch, fib, fib_pf, call, error, fragment):
    monkeypatch.delenv("ARIADNE_CAP", raising=False)
    with pytest.raises(error, match=re.escape(fragment)):
        call(fib, fib_pf)
