"""The public API is fixed: these sets change only on purpose."""

import argparse
import ast
import re
import string
import types
from pathlib import Path

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
from shiftlab.symmetry import GraphAutomorphism, generating_set, matrix_automorphisms

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


def _full(n):
    return sl.AdjacencySpec.full_shift(n)


# Every cap refusal, one row per core.charge site (and level_basis's walk
# from one letter): the call on Fibonacci (its spec and PF data), reduced to
# one figure of its result; the count it charges; that figure when
# ARIADNE_CAP is the count; and the exact message of the LengthOverflow when
# ARIADNE_CAP is one less
CAPS = {
    # 2, 4, 8, 16 words of lengths 1..4
    "words": (lambda fib, pf: len(sl.enumerate_words(_full(2), 4)), 16, 16,
        "16 words of length 4 exceed cap 15"),
    # from letter 1: 1, 2, 3, 5 words of lengths 1..4, so length 4 is named
    "level-basis": (lambda fib, pf: sl.level_basis(fib, (2, 1), 3).size, 5, 5,
        "5 words of length 4 exceed cap 4"),
    "bisections": (lambda fib, pf: len(sl.enumerate_bisections(_full(2), 2, 3)), 16, 16,
        "bisection count at (2, 3) exceeds cap 15"),
    # 9 + 81 word pairs on a 3-grid
    "word-pairs": (
        lambda fib, pf: sl.relation_check(classical_model((1, 2, 3)), 2).words_checked,
        90, 90, "90 word pairs up to length 2 exceed cap 89"),
    # 16 word pairs, 4 * 3 * 2 normality triples
    "normality-triples": (
        lambda fib, pf: sl.relation_check(classical_model((1, 2, 3, 4)), 1).words_checked,
        24, 16, "24 normality triples exceed cap 23"),
    "t-a-entries": (lambda fib, pf: sl.t_a_analysis(fib).order, 16, 2,
        "16 t-a matrix entries exceed cap 15"),
    # walk states, counted with the level being built; 562 eigenvalues
    "spectrum-walk": (lambda fib, pf: sum(m for _, m in sl.spectrum(pf, 5.0)), 99, 562,
        "spectrum walk exceeds cap 98"),
    # 5 Fibonacci words of length 3: their 25 pairs are refused before the
    # pair states are formed
    "word-support-pairs": (
        lambda fib, pf: len(sl.word_support(sl.propagate(sl.build_constraints(fib, pf)), pf, 3).words),
        25, 5, "25 word pairs of length 3 exceed cap 24"),
    # S_3, refused before it is listed
    "group-order": (lambda fib, pf: len(matrix_automorphisms(_full(3).a)), 6, 6,
        "group of order 6 exceeds cap 5"),
    # S_12: 11 generators found in 77 search nodes, the group never listed
    "search-nodes": (lambda fib, pf: len(generating_set(_full(12))), 77, 11,
        "search exceeds cap 76 nodes"),
}


@pytest.mark.parametrize(
    "call, count, figure, message", CAPS.values(), ids=CAPS.keys()
)
def test_cap_boundaries(monkeypatch, fib, fib_pf, call, count, figure, message):
    monkeypatch.setenv("ARIADNE_CAP", str(count))
    assert call(fib, fib_pf) == figure
    monkeypatch.setenv("ARIADNE_CAP", str(count - 1))
    with pytest.raises(LengthOverflow, match=f"^{re.escape(message)}$"):
        call(fib, fib_pf)


def _charge_templates():
    """The constant template of every charge(...) call in shiftlab's modules."""
    calls = [
        node
        for path in sorted(Path(sl.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and "charge" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert calls and all(isinstance(call.args[1], ast.Constant) for call in calls)
    return {call.args[1].value for call in calls}


def _template_pattern(template):
    """A regex of the messages a template formats to: any text per field."""
    return "".join(
        re.escape(text) + ("" if field is None else ".+")
        for text, field, _, _ in string.Formatter().parse(template)
    )


def test_every_charge_template_has_a_cap_row():
    # so a new cap site cannot land without its boundary row
    templates = _charge_templates()
    messages = [row[-1] for row in CAPS.values()]
    for template in templates:
        assert any(re.fullmatch(_template_pattern(template), m) for m in messages), template
    for message in messages:
        hits = [t for t in templates if re.fullmatch(_template_pattern(t), message)]
        assert len(hits) == 1, (message, hits)
