"""Batch command-line front end: one JSON report per invocation.

Input matrices arrive as {"n": int, "a": [[0|1, ...], ...]}.  Every
command emits a single JSON report (stdout, or --output); `spectrum`
additionally writes an (eigenvalue, multiplicity) CSV next to the JSON
output.  All randomness is governed by --seed, and reports are
deterministic for fixed inputs and seed apart from the wall_time_ms field.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import csv
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    DEFAULT_PF_TOL,
    AdjacencySpec,
    PerronFrobeniusData,
    ahlfors_profile,
    conformal_measure,
    enumerate_words,
    kms_value,
    parry_measure,
    perron_frobenius,
    word_cap,
)
from .errors import (
    LengthOverflow,
    NotPrimitive,
    ParseError,
    ShiftLabError,
)
from .groupoid import count_bisections
from .models import (
    _normality_norms,
    capped_word_pairs,
    classical_model,
    qls_magic,
    random_qls_vectors,
    relation_check,
    two_projection_magic,
)
from .quantum import (
    _live_sweep,
    collapse_report,
    ergodicity_verdict,
    t_a_analysis,
)
from .spectral import MERGE_TOL, spectrum
from .symmetry import _listed_group, classical_fixed_points

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_NOT_PRIMITIVE = 3
EXIT_OVERFLOW = 4

ROW_CHUNK = 1024  # rows of a 2-D array per write (full3's t-a has 9!)


def round15(x: float) -> float:
    """Reals are emitted with 15 significant digits."""
    return float(f"{float(x):.15g}")


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
        "results": results,
        "wall_time_ms": round(1000.0 * (time.perf_counter() - started), 3),
    }


@contextlib.contextmanager
def _open_output(path, **kwargs):
    """open(path, "w"), with a failed open or write as a parse error (exit 2)."""
    try:
        with open(path, "w", **kwargs) as fh:
            yield fh
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _write_json(obj, out, pad: str = "\n") -> None:
    """Write obj to the text stream out as json.dumps(obj, indent=2,
    sort_keys=True) spells it, piece by piece: reals to 15 digits, numpy
    scalars and arrays as Python values, complex as {"im", "re"}, keys as
    str.  pad opens obj's line."""
    if isinstance(obj, str):
        out.write(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        out.write("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = round15(obj)  # json.dumps spells a finite float as its repr
        out.write(repr(x) if math.isfinite(x) else json.dumps(x))
    elif isinstance(obj, complex):
        _write_json({"im": obj.imag, "re": obj.real}, out, pad)
    elif isinstance(obj, np.ndarray):
        kind = obj.dtype.kind
        if obj.ndim == 2 and obj.size and (
            kind in "iu" or kind == "f" and np.isfinite(obj).all()
        ):
            _write_rows(obj, out, pad)
        else:
            _write_json(obj.tolist(), out, pad)
    elif isinstance(obj, dict):
        items, inner, sep = {str(k): v for k, v in obj.items()}, pad + "  ", "{"
        for key in sorted(items):
            out.write(sep + inner + encode_basestring_ascii(key) + ": ")
            _write_json(items[key], out, inner)
            sep = ","
        out.write(pad + "}" if items else "{}")
    elif isinstance(obj, (list, tuple)):
        inner, sep = pad + "  ", "["
        for item in obj:
            out.write(sep + inner)
            _write_json(item, out, inner)
            sep = ","
        out.write(pad + "]" if obj else "[]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_rows(rows: np.ndarray, out, pad: str) -> None:
    """rows.tolist() as _write_json spells it, ROW_CHUNK rows per write.

    Each row carries the "," before it, which the first row trades for
    "[".  A chunk of integers whose entries all lie in 0..9 (a group on at
    most 9 letters, a 0/1 matrix) is put, as chunk + 48, into the evenly
    spaced digit slots of one reused buffer of the row's bytes tiled, and
    goes to out's binary layer after a flush of its text (as text where out
    has none, as io.StringIO has not); any other chunk is one %-format of
    the repeated row, reals rounded to 15 digits first (%s spells a float
    as its repr)."""
    inner, deeper = pad + "  ", pad + "    "
    row = "," + inner + "[" + deeper + ("," + deeper).join(["%s"] * rows.shape[1])
    row += inner + "]"
    first, step = row.index("%"), len("," + deeper) + 1  # slot to slot: a digit, ",", deeper
    # the rows hold newlines, which a text layer would translate elsewhere
    binary = getattr(out, "buffer", None) if os.linesep == "\n" else None
    tiled = None
    real = rows.dtype.kind == "f"
    out.write("[")
    for start in range(0, len(rows), ROW_CHUNK):
        chunk, skip = rows[start : start + ROW_CHUNK], 0 if start else 1
        if not real and 0 <= chunk.min() and chunk.max() <= 9:
            if tiled is None:
                template = (row % ((0,) * rows.shape[1])).encode()
                template = np.frombuffer(template, dtype=np.uint8)
                tiled = np.tile(template, (min(len(rows), ROW_CHUNK), 1))
                digits = tiled[:, first::step]
            digits[: len(chunk)] = chunk + 48
            data = tiled[: len(chunk)].reshape(-1)[skip:]
            if binary is None:
                out.write(data.tobytes().decode())
            else:
                out.flush()
                binary.write(data)
        else:
            values = chunk.ravel().tolist()
            text = row * len(chunk) % tuple(map(round15, values) if real else values)
            out.write(text[skip:])
    out.write(pad + "]")


def _emit(report: dict, output: str | None) -> None:
    """Stream the report to --output or stdout; it is never held as text."""
    with _open_output(output) if output else contextlib.nullcontext(sys.stdout) as fh:
        _write_json(report, fh)
        fh.write("\n")
        fh.flush()  # a closed stdout fails here, not at interpreter exit


def _word_str(word) -> str:
    return "".join(str(x) for x in word)


def _check_flags(args: argparse.Namespace) -> None:
    """Every command's flags, checked before any analysis runs."""
    for flag in ("depth", "level", "ell", "size"):
        value = getattr(args, flag, 1)
        if value < 1:
            raise ParseError(f"--{flag} must be >= 1, got {value}")
    if hasattr(args, "cutoff"):
        if not 1 <= args.cutoff < math.inf:
            raise ParseError(f"--cutoff must be finite and >= 1, got {args.cutoff}")
        if args.output and Path(args.output).suffix == ".csv":
            raise ParseError(
                f"--output {args.output} would be overwritten by the eigenvalue CSV"
            )


def run_pf(pf: PerronFrobeniusData) -> dict:
    return {
        "primitivity_exponent": pf.primitivity_exponent,
        "lambda_max": pf.lambda_max,
        "dimension": pf.d_f,
        "u": pf.u,
        "v": pf.v,
        "p_stat": pf.p_stat,
        "stochastic": pf.stoch,
    }


def run_measures(pf: PerronFrobeniusData, depth: int) -> dict:
    table = {
        str(m): [
            {
                "word": _word_str(w),
                "conformal": conformal_measure(pf, w),
                "parry": parry_measure(pf, w),
                "kms_diagonal": kms_value(pf, w, w),
            }
            for w in enumerate_words(pf.spec, m)
        ]
        for m in range(1, depth + 1)
    }
    c_min, c_max = ahlfors_profile(pf, depth)
    counts = {
        f"{r_len}.{s_len}": count_bisections(pf.spec, r_len, s_len)
        for total in range(1, depth + 1)
        for r_len in range(total)
        for s_len in [total - r_len]
    }
    return {
        "cylinders": table,
        "regularity_ratio": {"min": c_min, "max": c_max},
        "bisection_counts": counts,
    }


def run_spectrum(pf: PerronFrobeniusData, cutoff: float, output: str | None) -> dict:
    pairs = spectrum(pf, cutoff)
    by_size = sorted((abs(e), m) for e, m in pairs)
    totals = list(itertools.accumulate((m for _, m in by_size), initial=0))
    counting = {}
    t = 1
    while t <= cutoff:
        at = bisect.bisect_right(by_size, t + MERGE_TOL, key=lambda pair: pair[0])
        counting[str(t)] = totals[at]
        t += 1
    if output:
        csv_path = Path(output).with_suffix(".csv")
        with _open_output(csv_path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["eigenvalue", "multiplicity"])
            for e, m in pairs:
                writer.writerow([f"{e:.15g}", m])
    return {
        "cutoff": cutoff,
        "eigenvalues": [{"value": e, "multiplicity": m} for e, m in pairs],
        "counting_function": counting,
    }


def run_autgroup(spec: AdjacencySpec) -> dict:
    group, generators = _listed_group(spec.a)
    return {"order": len(group), "permutations": group, "generators": generators}


def run_classical_fix(spec: AdjacencySpec, level: int) -> dict:
    rep = classical_fixed_points(spec, level)
    return {
        "level": rep.level,
        "dimension": rep.dimension,
        "orbits": [[_word_str(w) for w in orbit] for orbit in rep.orbits],
        "cycle_witness": [_word_str(w) for w in rep.cycle_words],
        "witness_proper": rep.witness_proper,
    }


def run_pattern(pf: PerronFrobeniusData, pf_rule: bool) -> dict:
    pattern = _live_sweep(pf.spec, pf, use_pf_rule=pf_rule)[0]
    grids = pattern.grid_strings()
    return {
        "p": grids["p"],
        "q": grids["q"],
        "diagnosis": collapse_report(pattern),
        "pf_rule": pf_rule,
    }


def run_ergodicity(pf: PerronFrobeniusData, level: int) -> dict:
    verdict = ergodicity_verdict(pf.spec, pf, level)
    witness = verdict.witness
    return {
        "level": verdict.level,
        "verdict": verdict.verdict,
        "witness": None if witness is None else [_word_str(w) for w in witness],
    }


def run_t_a(spec: AdjacencySpec) -> dict:
    rep = t_a_analysis(spec)
    return {
        "matrix": rep.matrix,
        "group_order": rep.order,
        "permutations": rep.permutations,
    }


def run_repmodel(kind: str, theta: float, ell: int, size: int, seed: int) -> dict:
    # an over-cap request fails before the model is built
    capped_word_pairs(4 if kind == "two-projection" else size, ell)
    if kind == "two-projection":
        model = two_projection_magic(theta)
    elif kind == "qls":
        model = qls_magic(random_qls_vectors(size, seed=seed))
    else:
        model = classical_model(tuple(range(1, size + 1)))
    rep = relation_check(model, ell)
    norms = {}
    if model.n >= 4:
        triples = itertools.permutations(range(1, model.n + 1), 3)
        values = _normality_norms(model).tolist()
        norms = {f"{i},{k},{l}": v for (i, k, l), v in zip(triples, values)}
    return {
        "model": kind,
        "grid_size": model.n,
        "leg_dimension": model.dim,
        "relation_defect": rep.max_partial_isometry_defect,
        "unitarity_defect": rep.max_unitarity_defect,
        "words_checked": rep.words_checked,
        "normality_norms": norms,
        "max_normality_norm": max(norms.values()) if norms else None,
    }


def run_report(spec: AdjacencySpec, pf) -> dict:
    """Every analysis with its command's handler and the flags below, on one
    PF computation; per-section failures recorded, not fatal."""
    args = argparse.Namespace(depth=4, cutoff=5.0, level=3, output=None, no_pf_rule=False)
    bundle: dict = {}
    for name, (_, _, handler) in _COMMANDS.items():
        if name in ("repmodel", "report"):
            continue
        try:
            bundle[name] = {"ok": True, "results": handler(spec, pf, args)}
        except ShiftLabError as exc:
            bundle[name] = {"ok": False, "error": type(exc).__name__, "message": str(exc)}
    return bundle


# each command: help line, flags beyond --input (all but repmodel's), --output,
# --tol and --seed, and handler (spec, cached PF computation, parsed flags)
_COMMANDS = {
    "pf": ("maximal eigenvalue data", {}, lambda spec, pf, a: run_pf(pf())),
    "measures": (
        "cylinder measures and regularity",
        {"--depth": dict(type=int, default=4)},
        lambda spec, pf, a: run_measures(pf(), a.depth),
    ),
    "spectrum": (
        "Hamiltonian eigenvalues up to cutoff",
        {"--cutoff": dict(type=float, default=3.0)},
        lambda spec, pf, a: run_spectrum(pf(), a.cutoff, a.output),
    ),
    "autgroup": ("digraph automorphism group", {}, lambda spec, pf, a: run_autgroup(spec)),
    "classical-fix": (
        "fixed points of the classical action",
        {"--level": dict(type=int, default=2)},
        lambda spec, pf, a: run_classical_fix(spec, a.level),
    ),
    "pattern": (
        "propagated projection-variable grids",
        {"--no-pf-rule": dict(action="store_true")},
        lambda spec, pf, a: run_pattern(pf(), not a.no_pf_rule),
    ),
    "ergodicity": (
        "level-k ergodicity verdict",
        {"--level": dict(type=int, default=2)},
        lambda spec, pf, a: run_ergodicity(pf(), a.level),
    ),
    "t-a": ("flip-intertwiner symmetry analysis", {}, lambda spec, pf, a: run_t_a(spec)),
    "repmodel": (
        "finite-dimensional model checks",
        {
            "--model": dict(
                choices=["two-projection", "qls", "classical"], default="two-projection"
            ),
            "--theta": dict(type=float, default=float(np.pi / 5)),
            "--ell": dict(type=int, default=3),
            "--size": dict(type=int, default=4),
        },
        lambda spec, pf, a: run_repmodel(a.model, a.theta, a.ell, a.size, a.seed),
    ),
    "report": ("bundle of all analyses", {}, lambda spec, pf, a: run_report(spec, pf)),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """Every command's parser, or with only the top one and that command's."""
    parser = argparse.ArgumentParser(
        prog="shiftlab", description="invariants of a primitive 0/1 adjacency matrix"
    )
    parser.add_argument("--version", action="version", version=__version__)
    # a metavar on the full parser would change its missing and invalid
    # command messages, so it is set on the one-command parser alone
    metavar = None if only is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if only is None else [only]:
        help_line, flags, _ = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        if name != "repmodel":
            p.add_argument("--input", required=True, help="adjacency JSON path")
        p.add_argument("--output", default=None, help="report path (stdout)")
        p.add_argument("--tol", type=float, default=DEFAULT_PF_TOL)
        p.add_argument("--seed", type=int, default=0)
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(only).parse_args(argv)
    started = time.perf_counter()
    try:
        if not 0 < args.tol < math.inf:
            raise ParseError(f"--tol must be finite and > 0, got {args.tol}")
        if args.seed < 0:
            raise ParseError(f"--seed must be >= 0, got {args.seed}")
        word_cap()  # a malformed ARIADNE_CAP fails here, not in a report section
        spec = None if args.command == "repmodel" else load_spec(args.input)
        _check_flags(args)
        # a failed PF computation is not cached: each report section that
        # needs it recomputes it and records its own error
        pf = functools.cache(lambda: perron_frobenius(spec, tol=args.tol))
        results = _COMMANDS[args.command][2](spec, pf, args)
        _emit(_report(args.command, spec, results, started), args.output)
    except ParseError as exc:
        print(f"shiftlab: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotPrimitive as exc:
        print(f"shiftlab: not primitive: {exc}", file=sys.stderr)
        return EXIT_NOT_PRIMITIVE
    except LengthOverflow as exc:
        print(f"shiftlab: enumeration overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except ShiftLabError as exc:
        print(f"shiftlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # the unflushed rest goes to devnull: no second error at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("shiftlab: output closed early", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
