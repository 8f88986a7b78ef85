"""Batch command-line front end: one JSON report per invocation.

Input matrices arrive as {"n": int, "a": [[0|1, ...], ...]}.  Every
command emits a single JSON report (stdout, or --output); `spectrum`
additionally writes an (eigenvalue, multiplicity) CSV next to the JSON
output.  All randomness is governed by --seed, and reports are
deterministic for fixed inputs and seed apart from the wall_time_ms field.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    AdjacencySpec,
    ahlfors_profile,
    conformal_measure,
    enumerate_words,
    kms_value,
    parry_measure,
    perron_frobenius,
)
from .errors import (
    LengthOverflow,
    NotPrimitive,
    ParseError,
    SearchCapExceeded,
    ShiftLabError,
)
from .groupoid import count_bisections
from .models import (
    classical_model,
    normality_element_norm,
    qls_magic,
    random_qls_vectors,
    relation_check,
    two_projection_magic,
)
from .quantum import (
    build_constraints,
    collapse_report,
    ergodicity_verdict,
    propagate,
    t_a_analysis,
)
from .spectral import spectrum
from .symmetry import automorphism_group, classical_fixed_points, generating_set

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_NOT_PRIMITIVE = 3
EXIT_OVERFLOW = 4


def round15(x: float) -> float:
    """Reals are emitted with 15 significant digits."""
    return float(f"{float(x):.15g}")


def _clean(obj):
    if type(obj) is int:  # most leaves; t-a can list millions of permutations
        return obj
    if isinstance(obj, float):
        return round15(obj)
    if isinstance(obj, (np.floating,)):
        return round15(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": round15(obj.real), "im": round15(obj.imag)}
    if isinstance(obj, np.ndarray):
        return _clean(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    return obj


def fingerprint(spec: AdjacencySpec) -> str:
    canon = json.dumps({"n": spec.n, "a": [list(r) for r in spec.a]})
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_spec(path: str) -> AdjacencySpec:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return AdjacencySpec.from_json(text)


def _report(command: str, spec: AdjacencySpec | None, results, started: float):
    return {
        "command": command,
        "fingerprint": fingerprint(spec) if spec is not None else None,
        "version": __version__,
        "results": _clean(results),
        "wall_time_ms": round(1000.0 * (time.perf_counter() - started), 3),
    }


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if output:
        Path(output).write_text(text + "\n")
    else:
        print(text)


def _word_str(word) -> str:
    return "".join(str(x) for x in word)


def run_pf(spec: AdjacencySpec, args) -> dict:
    pf = perron_frobenius(spec, tol=args.tol)
    return {
        "primitivity_exponent": pf.primitivity_exponent,
        "lambda_max": pf.lambda_max,
        "dimension": pf.d_f,
        "u": pf.u,
        "v": pf.v,
        "p_stat": pf.p_stat,
        "stochastic": pf.stoch,
    }


def run_measures(spec: AdjacencySpec, args) -> dict:
    pf = perron_frobenius(spec, tol=args.tol)
    depth = args.depth
    table = {}
    for m in range(1, depth + 1):
        rows = []
        for w in enumerate_words(spec, m):
            rows.append(
                {
                    "word": _word_str(w),
                    "conformal": conformal_measure(pf, w),
                    "parry": parry_measure(pf, w),
                    "kms_diagonal": kms_value(pf, w, w),
                }
            )
        table[str(m)] = rows
    c_min, c_max = ahlfors_profile(pf, depth)
    counts = {
        f"{r_len}.{s_len}": count_bisections(spec, r_len, s_len)
        for total in range(1, depth + 1)
        for r_len in range(total)
        for s_len in [total - r_len]
    }
    return {
        "cylinders": table,
        "regularity_ratio": {"min": c_min, "max": c_max},
        "bisection_counts": counts,
    }


def run_spectrum(spec: AdjacencySpec, args) -> dict:
    if not 1 <= args.cutoff < math.inf:
        raise ParseError(f"--cutoff must be finite and >= 1, got {args.cutoff}")
    if args.output and Path(args.output).suffix == ".csv":
        raise ParseError(
            f"--output {args.output} would be overwritten by the eigenvalue CSV"
        )
    pf = perron_frobenius(spec, tol=args.tol)
    pairs = spectrum(pf, args.cutoff)
    counting = {}
    t = 1
    while t <= args.cutoff:
        counting[str(t)] = int(
            sum(m for e, m in pairs if abs(e) <= t + 1e-9)
        )
        t += 1
    if args.output:
        csv_path = Path(args.output).with_suffix(".csv")
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["eigenvalue", "multiplicity"])
            for e, m in pairs:
                writer.writerow([f"{e:.15g}", m])
    return {
        "cutoff": args.cutoff,
        "eigenvalues": [{"value": e, "multiplicity": m} for e, m in pairs],
        "counting_function": counting,
    }


def run_autgroup(spec: AdjacencySpec, args) -> dict:
    group = automorphism_group(spec)
    gens = generating_set(group)
    return {
        "order": len(group),
        "permutations": [list(g.perm) for g in group],
        "generators": [list(g.perm) for g in gens],
    }


def run_classical_fix(spec: AdjacencySpec, args) -> dict:
    rep = classical_fixed_points(spec, args.level)
    return {
        "level": rep.level,
        "dimension": rep.dimension,
        "orbits": [[_word_str(w) for w in orbit] for orbit in rep.orbits],
        "cycle_witness": [_word_str(w) for w in rep.cycle_words],
        "witness_proper": rep.witness_proper,
    }


def run_pattern(spec: AdjacencySpec, args) -> dict:
    pf = perron_frobenius(spec, tol=args.tol)
    system = build_constraints(spec, pf, use_pf_rule=not args.no_pf_rule)
    pattern = propagate(system)
    grids = pattern.grid_strings()
    return {
        "p": grids["p"],
        "q": grids["q"],
        "diagnosis": collapse_report(pattern),
        "pf_rule": not args.no_pf_rule,
    }


def run_ergodicity(spec: AdjacencySpec, args) -> dict:
    pf = perron_frobenius(spec, tol=args.tol)
    verdict = ergodicity_verdict(spec, pf, args.level)
    return {
        "level": verdict.level,
        "verdict": verdict.verdict,
        "witness": (
            [_word_str(w) for w in verdict.witness]
            if verdict.witness is not None
            else None
        ),
    }


def run_t_a(spec: AdjacencySpec, args) -> dict:
    rep = t_a_analysis(spec)
    return {
        "matrix": rep.matrix,
        "group_order": rep.order,
        "permutations": [list(p) for p in rep.automorphisms],
    }


def run_repmodel(args) -> dict:
    if args.model == "two-projection":
        model = two_projection_magic(args.theta)
    elif args.model == "qls":
        model = qls_magic(random_qls_vectors(args.size, seed=args.seed))
    elif args.model == "classical":
        model = classical_model(tuple(range(1, args.size + 1)))
    else:
        raise ParseError(f"unknown model kind {args.model!r}")
    rep = relation_check(model, args.ell)
    norms = {}
    for i in range(1, model.n + 1):
        for k in range(1, model.n + 1):
            for l in range(1, model.n + 1):
                if len({i, k, l}) == 3 and model.n >= 4:
                    key = f"{i},{k},{l}"
                    norms[key] = normality_element_norm(model, i, k, l)
    return {
        "model": args.model,
        "grid_size": model.n,
        "leg_dimension": model.dim,
        "relation_defect": rep.max_partial_isometry_defect,
        "unitarity_defect": rep.max_unitarity_defect,
        "words_checked": rep.words_checked,
        "normality_norms": norms,
        "max_normality_norm": max(norms.values()) if norms else None,
    }


def run_report(spec: AdjacencySpec, args) -> dict:
    """Bundle of all analyses; per-section failures recorded, not fatal."""
    bundle: dict = {}

    def section(name, fn):
        try:
            bundle[name] = {"ok": True, "results": fn()}
        except ShiftLabError as exc:
            bundle[name] = {
                "ok": False,
                "error": type(exc).__name__,
                "message": str(exc),
            }

    class _A:
        tol = args.tol
        depth = 4
        cutoff = 5.0
        level = 3
        output = None
        no_pf_rule = False

    section("pf", lambda: run_pf(spec, _A))
    section("measures", lambda: run_measures(spec, _A))
    section("spectrum", lambda: run_spectrum(spec, _A))
    section("autgroup", lambda: run_autgroup(spec, _A))
    section("pattern", lambda: run_pattern(spec, _A))
    section("classical-fix", lambda: run_classical_fix(spec, _A))
    section("ergodicity", lambda: run_ergodicity(spec, _A))
    section("t-a", lambda: run_t_a(spec, _A))
    return bundle


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftlab",
        description="invariants of a primitive 0/1 adjacency matrix",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="adjacency JSON path")
        p.add_argument("--output", default=None, help="report path (stdout)")
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--seed", type=int, default=0)

    common(sub.add_parser("pf", help="maximal eigenvalue data"))
    p = sub.add_parser("measures", help="cylinder measures and regularity")
    common(p)
    p.add_argument("--depth", type=int, default=4)
    p = sub.add_parser("spectrum", help="Hamiltonian eigenvalues up to cutoff")
    common(p)
    p.add_argument("--cutoff", type=float, default=3.0)
    common(sub.add_parser("autgroup", help="digraph automorphism group"))
    p = sub.add_parser("classical-fix", help="fixed points of the classical action")
    common(p)
    p.add_argument("--level", type=int, default=2)
    p = sub.add_parser("pattern", help="propagated projection-variable grids")
    common(p)
    p.add_argument("--no-pf-rule", action="store_true")
    p = sub.add_parser("ergodicity", help="level-k ergodicity verdict")
    common(p)
    p.add_argument("--level", type=int, default=2)
    common(sub.add_parser("t-a", help="flip-intertwiner symmetry analysis"))
    p = sub.add_parser("repmodel", help="finite-dimensional model checks")
    common(p, needs_input=False)
    p.add_argument(
        "--model",
        choices=["two-projection", "qls", "classical"],
        default="two-projection",
    )
    p.add_argument("--theta", type=float, default=float(np.pi / 5))
    p.add_argument("--ell", type=int, default=3)
    p.add_argument("--size", type=int, default=4)
    common(sub.add_parser("report", help="bundle of all analyses"))
    return parser


_HANDLERS = {
    "pf": run_pf,
    "measures": run_measures,
    "spectrum": run_spectrum,
    "autgroup": run_autgroup,
    "classical-fix": run_classical_fix,
    "pattern": run_pattern,
    "ergodicity": run_ergodicity,
    "t-a": run_t_a,
    "report": run_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.command == "repmodel":
            report = _report("repmodel", None, run_repmodel(args), started)
        else:
            spec = load_spec(args.input)
            results = _HANDLERS[args.command](spec, args)
            report = _report(args.command, spec, results, started)
        _emit(report, args.output)
    except ParseError as exc:
        print(f"shiftlab: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotPrimitive as exc:
        print(f"shiftlab: not primitive: {exc}", file=sys.stderr)
        return EXIT_NOT_PRIMITIVE
    except LengthOverflow as exc:
        print(f"shiftlab: enumeration overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except SearchCapExceeded as exc:
        print(f"shiftlab: search cap: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ShiftLabError as exc:
        print(f"shiftlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
