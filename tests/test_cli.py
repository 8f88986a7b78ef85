import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import shiftlab
import shiftlab.cli
from shiftlab import AdjacencySpec, enumerate_words, perron_frobenius, t_a_analysis
from shiftlab.cli import (
    ROW_CHUNK, _COMMANDS, _emit, _word_str, build_parser, main, round15,
)
from conftest import (
    FIBONACCI, NEEDS_VMHWM, PARSER_ARGV, UNKNOWN_EXHIBIT, budget, cut_wall_time,
    primitive_matrices, random_primitive, run_child, wielandt,
)
from oracles import reference_report_text


@pytest.fixture()
def fib_file(tmp_path):
    path = tmp_path / "fib.json"
    path.write_text(json.dumps({"n": 2, "a": FIBONACCI}))
    return str(path)


@pytest.fixture()
def full3_file(tmp_path):
    path = tmp_path / "full3.json"
    path.write_text(json.dumps({"n": 3, "a": [[1] * 3] * 3}))
    return str(path)


def run_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


class TestDispatch:
    def test_pf(self, capsys, fib_file):
        code, rep = run_json(capsys, "pf", "--input", fib_file)
        assert code == 0
        assert rep["command"] == "pf"
        assert rep["results"]["lambda_max"] == pytest.approx(1.6180339887499)
        assert rep["results"]["primitivity_exponent"] == 2

    def test_pattern_grids(self, capsys, fib_file):
        code, rep = run_json(capsys, "pattern", "--input", fib_file)
        assert code == 0
        assert rep["results"]["p"] == ["10", "01"]
        assert rep["results"]["q"] == ["10", "01"]
        assert rep["results"]["diagnosis"] == "DualFreeGroup"

    def test_ergodicity_verdicts(self, capsys, fib_file, full3_file):
        code, rep = run_json(
            capsys, "ergodicity", "--input", fib_file, "--level", "2"
        )
        assert code == 0 and rep["results"]["verdict"] == "NonErgodic"
        code, rep = run_json(
            capsys, "ergodicity", "--input", full3_file, "--level", "3"
        )
        assert code == 0 and rep["results"]["verdict"] == "ErgodicCertified"

    def test_autgroup(self, capsys, full3_file):
        code, rep = run_json(capsys, "autgroup", "--input", full3_file)
        assert code == 0
        assert rep["results"]["order"] == 6

    def test_autgroup_searches_once(self, capsys, monkeypatch, full3_file):
        searched = []
        search = shiftlab.symmetry._search
        monkeypatch.setattr(
            shiftlab.symmetry, "_search", lambda a: searched.append(a) or search(a)
        )
        code, rep = run_json(capsys, "autgroup", "--input", full3_file)
        assert code == 0 and len(rep["results"]["generators"]) == 2
        assert len(searched) == 1

    def test_spectrum_writes_csv(self, tmp_path, fib_file):
        out = tmp_path / "spec.json"
        code = main(
            [
                "spectrum",
                "--input",
                fib_file,
                "--cutoff",
                "2",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        rep = json.loads(out.read_text())
        pairs = {
            row["value"]: row["multiplicity"]
            for row in rep["results"]["eigenvalues"]
        }
        assert pairs[1.0] == 2
        assert pairs[2.0] == 3
        with open(tmp_path / "spec.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["eigenvalue", "multiplicity"]
        assert len(rows) == len(pairs) + 1

    @pytest.mark.parametrize(
        "matrix, cutoff",
        [(FIBONACCI, "4"), (UNKNOWN_EXHIBIT, "3.5"), ([[1] * 3] * 3, "2")],
        ids=["fibonacci", "unknown", "full3"],
    )
    def test_spectrum_csv_bytes_are_csv_writers(self, tmp_path, matrix, cutoff):
        # the excel dialect quotes nothing here and ends each row in \r\n
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"n": len(matrix), "a": matrix}))
        out = tmp_path / "spec.json"
        argv = ["spectrum", "--input", str(path), "--cutoff", cutoff, "--output", str(out)]
        assert main(argv) == 0
        pf = perron_frobenius(AdjacencySpec.from_matrix(matrix))
        pairs = shiftlab.spectrum(pf, float(cutoff))
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["eigenvalue", "multiplicity"])
        for e, m in pairs:
            writer.writerow([f"{e:.15g}", m])
        assert (tmp_path / "spec.csv").read_bytes() == buf.getvalue().encode()

    def test_t_a_report(self, capsys, fib_file):
        code, rep = run_json(capsys, "t-a", "--input", fib_file)
        assert code == 0
        assert rep["results"]["matrix"] == [
            [1, 1, 1, 1],
            [1, 1, 0, 0],
            [1, 0, 1, 0],
            [1, 0, 0, 0],
        ]
        assert rep["results"]["group_order"] > 1

    def test_t_a_on_seven_letters(self, capsys, tmp_path, monkeypatch):
        # loops plus the 7-cycle: 49 letters, a group of order 28
        monkeypatch.delenv("ARIADNE_CAP", raising=False)
        path = tmp_path / "cycle7.json"
        a = [[int((j - i) % 7 in (0, 1)) for j in range(7)] for i in range(7)]
        path.write_text(json.dumps({"n": 7, "a": a}))
        code, rep = run_json(capsys, "t-a", "--input", str(path))
        assert code == 0 and rep["results"]["group_order"] == 28

    def test_repmodel(self, capsys):
        code, rep = run_json(
            capsys, "repmodel", "--model", "two-projection", "--ell", "2"
        )
        assert code == 0
        assert rep["results"]["relation_defect"] <= 1e-9

    def test_repmodel_qls(self, capsys):
        code, rep = run_json(
            capsys, "repmodel", "--model", "qls", "--size", "4", "--ell", "1",
            "--seed", "0",
        )
        assert code == 0
        res = rep["results"]
        norms = res.pop("normality_norms")
        assert len(norms) == 4 * 3 * 2
        assert res.pop("max_normality_norm") == max(norms.values()) > 0
        assert res.pop("relation_defect") <= 1e-9
        assert res.pop("unitarity_defect") <= 1e-9
        assert res == {
            "model": "qls", "grid_size": 4, "leg_dimension": 4, "words_checked": 16,
        }


# Every refused cli.main call, one row each: the input written to in.json in
# the test's directory (a matrix, JSON text, or None: no file), the
# arguments (split at spaces), ARIADNE_CAP (None: unset), the exit code, the
# stderr, and a bound on the call's CPU time in s (None: none).  The stderr
# is exact; a row whose stderr stops before the end of the line gives its
# fixed head, where the rest is Python's or the OS's error text.  A refused
# call prints nothing on stdout and writes no report and no CSV.
EXITS = {
    "parse-error": ("{not json", "pf --input in.json", None, 2,
        "shiftlab: parse error: bad adjacency JSON: ", None),
    "missing-file": (None, "pf --input /nonexistent/x.json", None, 2,
        "shiftlab: parse error: cannot read /nonexistent/x.json: ", None),
    "not-primitive": ([[0, 1], [1, 0]], "pf --input in.json", None, 3,
        "shiftlab: not primitive: no power up to the Wielandt bound 2 is strictly positive\n",
        None),
    "shape-one-letter": ([[1]], "pf --input in.json", None, 3,
        "shiftlab: not primitive: alphabet size must be >= 2, got 1\n", None),
    "shape-zero-column": ([[1, 0], [1, 0]], "pf --input in.json", None, 3,
        "shiftlab: not primitive: column 2 has no incoming edge\n", None),
    # the first offender is named: a bad row before its entries, and the
    # first of two bad entries
    "schema-float-entry": ('{"n": 2, "a": [[1, 1.7], [1, 0]]}', "pf --input in.json", None, 2,
        "shiftlab: parse error: entry 1.7 in row 1 is not an integer\n", None),
    "schema-bool-entry": ('{"n": 2, "a": [[1, true], [1, 0]]}', "pf --input in.json", None, 2,
        "shiftlab: parse error: entry true in row 1 is not an integer\n", None),
    "schema-string-row": ('{"n": 2, "a": ["11", [1, 0]]}', "pf --input in.json", None, 2,
        "shiftlab: parse error: row 1 is not a list of 2 entries\n", None),
    "schema-float-n": ('{"n": 2.9, "a": [[1, 1], [1, 0]]}', "pf --input in.json", None, 2,
        "shiftlab: parse error: n must be an integer, got 2.9\n", None),
    "schema-ragged": ('{"n": 2, "a": [[1, 1, 1], [1, 0]]}', "pf --input in.json", None, 2,
        "shiftlab: parse error: row 1 is not a list of 2 entries\n", None),
    "schema-ragged-before-entries": (
        '{"n": 2, "a": [[1, 1], [0, "1", 2.0]]}', "pf --input in.json", None, 2,
        "shiftlab: parse error: row 2 is not a list of 2 entries\n", None),
    "schema-first-of-two-entries": (
        '{"n": 3, "a": [[1, 1, 1], [1, "1", 2.0], [1, 1, 1]]}', "pf --input in.json", None, 2,
        'shiftlab: parse error: entry "1" in row 2 is not an integer\n', None),
    "schema-two-entry": ('{"n": 2, "a": [[1, 1], [2, 0]]}', "pf --input in.json", None, 2,
        "shiftlab: parse error: entry 2 in row 2 is not 0 or 1\n", None),
    "schema-negative-entry": ('{"n": 2, "a": [[1, -1], [1, 0]]}', "pf --input in.json", None, 2,
        "shiftlab: parse error: entry -1 in row 1 is not 0 or 1\n", None),
    "schema-a-not-a-list": ('{"n": 2, "a": 5}', "pf --input in.json", None, 2,
        "shiftlab: parse error: a must be a list of rows\n", None),
    "schema-row-count": ('{"n": 3, "a": [[1, 1, 1], [1, 1, 1]]}', "pf --input in.json", None, 2,
        "shiftlab: parse error: matrix has 2 rows, expected n=3\n", None),
    "cutoff-0.5": (FIBONACCI, "spectrum --input in.json --cutoff 0.5", None, 2,
        "shiftlab: parse error: --cutoff must be finite and >= 1, got 0.5\n", None),
    "cutoff-nan": (FIBONACCI, "spectrum --input in.json --cutoff nan", None, 2,
        "shiftlab: parse error: --cutoff must be finite and >= 1, got nan\n", None),
    "cutoff-inf": (FIBONACCI, "spectrum --input in.json --cutoff inf", None, 2,
        "shiftlab: parse error: --cutoff must be finite and >= 1, got inf\n", None),
    "tol-nan": (FIBONACCI, "pf --input in.json --tol nan", None, 2,
        "shiftlab: parse error: --tol must be finite and > 0, got nan\n", None),
    "tol-inf": (FIBONACCI, "pf --input in.json --tol inf", None, 2,
        "shiftlab: parse error: --tol must be finite and > 0, got inf\n", None),
    "tol-0": (FIBONACCI, "pf --input in.json --tol 0", None, 2,
        "shiftlab: parse error: --tol must be finite and > 0, got 0.0\n", None),
    "tol-minus-1": (FIBONACCI, "pf --input in.json --tol -1", None, 2,
        "shiftlab: parse error: --tol must be finite and > 0, got -1.0\n", None),
    "seed-repmodel": (None, "repmodel --seed -1 --model qls", None, 2,
        "shiftlab: parse error: --seed must be >= 0, got -1\n", None),
    "seed-pf": (FIBONACCI, "pf --seed -1 --input in.json", None, 2,
        "shiftlab: parse error: --seed must be >= 0, got -1\n", None),
    "cap-abc": (FIBONACCI, "measures --input in.json", "abc", 2,
        "shiftlab: parse error: ARIADNE_CAP must be an integer >= 1, got 'abc'\n", None),
    "cap-1.5": (FIBONACCI, "measures --input in.json", "1.5", 2,
        "shiftlab: parse error: ARIADNE_CAP must be an integer >= 1, got '1.5'\n", None),
    "cap-0": (FIBONACCI, "measures --input in.json", "0", 2,
        "shiftlab: parse error: ARIADNE_CAP must be an integer >= 1, got '0'\n", None),
    # report must not file the error under each section and exit 0
    "cap-minus-3-report": (FIBONACCI, "report --input in.json", "-3", 2,
        "shiftlab: parse error: ARIADNE_CAP must be an integer >= 1, got '-3'\n", None),
    # int() takes these, but the value is ASCII digits only
    "cap-space-5": (FIBONACCI, "measures --input in.json", " 5", 2,
        "shiftlab: parse error: ARIADNE_CAP must be an integer >= 1, got ' 5'\n", None),
    "cap-plus-5": (FIBONACCI, "measures --input in.json", "+5", 2,
        "shiftlab: parse error: ARIADNE_CAP must be an integer >= 1, got '+5'\n", None),
    "cap-arabic-5": (FIBONACCI, "measures --input in.json", "\u0665", 2,
        "shiftlab: parse error: ARIADNE_CAP must be an integer >= 1, got '\u0665'\n", None),
    "cap-1_000": (FIBONACCI, "measures --input in.json", "1_000", 2,
        "shiftlab: parse error: ARIADNE_CAP must be an integer >= 1, got '1_000'\n", None),
    "depth-0": (FIBONACCI, "measures --depth 0 --input in.json", None, 2,
        "shiftlab: parse error: --depth must be >= 1, got 0\n", None),
    "classical-level-0": (FIBONACCI, "classical-fix --level 0 --input in.json", None, 2,
        "shiftlab: parse error: --level must be >= 1, got 0\n", None),
    "ergodicity-level-minus-1": (FIBONACCI, "ergodicity --level -1 --input in.json", None, 2,
        "shiftlab: parse error: --level must be >= 1, got -1\n", None),
    "ergodicity-level-0": (FIBONACCI, "ergodicity --level 0 --input in.json", None, 2,
        "shiftlab: parse error: --level must be >= 1, got 0\n", None),
    "ell-0": (None, "repmodel --ell 0", None, 2,
        "shiftlab: parse error: --ell must be >= 1, got 0\n", None),
    "size-0": (None, "repmodel --size 0", None, 2,
        "shiftlab: parse error: --size must be >= 1, got 0\n", None),
    "spectrum-csv-output": (FIBONACCI, "spectrum --input in.json --output spec.csv", None, 2,
        "shiftlab: parse error: --output spec.csv would be overwritten by the eigenvalue CSV\n",
        None),
    # the full 12-shift: 12! automorphisms
    "group-autgroup-full12": ([[1] * 12] * 12, "autgroup --input in.json", None, 4,
        f"shiftlab: enumeration overflow: group of order {math.factorial(12)} exceeds cap "
        "1000000\n", 1.0),
    # the full 4-shift: 16! flip-intertwiner symmetries
    "group-t-a-full4": ([[1] * 4] * 4, "t-a --input in.json", None, 4,
        f"shiftlab: enumeration overflow: group of order {math.factorial(16)} exceeds cap "
        "1000000\n", 1.0),
    # 12^2 + 12^4 + 12^6 word pairs, for the classical model and for qls
    # before its polar fits
    "pairs-classical12": (None, "repmodel --model classical --size 12 --ell 3", None, 4,
        "shiftlab: enumeration overflow: 3006864 word pairs up to length 3 exceed cap 1000000\n",
        1.0),
    "pairs-qls12": (None, "repmodel --model qls --size 12 --ell 3", None, 4,
        "shiftlab: enumeration overflow: 3006864 word pairs up to length 3 exceed cap 1000000\n",
        1.0),
    # 120 * 119 * 118 normality triples
    "triples-classical120": (None, "repmodel --model classical --size 120 --ell 1", None, 4,
        "shiftlab: enumeration overflow: 1685040 normality triples exceed cap 1000000\n", 1.0),
    # a length whose pair count has over 24,000 digits
    "pairs-huge-ell": (None, "repmodel --model two-projection --ell 20000", None, 4,
        "shiftlab: enumeration overflow: 1118480 word pairs up to length 5 exceed cap 1000000\n",
        1.0),
    # past about level 20,600 the exact Fibonacci word count has more digits
    # than int-to-str allows, and the count itself takes level steps
    "level-classical-fix": (FIBONACCI, "classical-fix --input in.json --level 30000", None, 4,
        "shiftlab: enumeration overflow: 1346269 words of length 29 exceed cap 1000000\n", 1.0),
    "level-ergodicity": (FIBONACCI, "ergodicity --input in.json --level 30000", None, 4,
        "shiftlab: enumeration overflow: 1346269 words of length 29 exceed cap 1000000\n", 1.0),
    "measures-depth-over-cap": ([[1, 1], [1, 1]], "measures --input in.json --depth 6", "10", 4,
        "shiftlab: enumeration overflow: 16 words of length 4 exceed cap 10\n", None),
    # the search for S_12 takes 77 nodes
    "search-over-cap": ([[1] * 12] * 12, "autgroup --input in.json", "50", 1,
        "shiftlab: SearchCapExceeded: search exceeds cap 50 nodes\n", None),
}


@pytest.mark.parametrize(
    "given, argv, cap, code, stderr, cpu_s", EXITS.values(), ids=EXITS.keys()
)
def test_exit(tmp_path, monkeypatch, capsys, given, argv, cap, code, stderr, cpu_s):
    monkeypatch.chdir(tmp_path)
    if given is not None:
        text = given if isinstance(given, str) else json.dumps({"n": len(given), "a": given})
        Path("in.json").write_text(text)
    monkeypatch.delenv("ARIADNE_CAP", raising=False)
    if cap is not None:
        monkeypatch.setenv("ARIADNE_CAP", cap)
    with budget(cpu_s=cpu_s) if cpu_s else contextlib.nullcontext():
        assert main(argv.split()) == code
    out, err = capsys.readouterr()
    assert out == ""
    if stderr.endswith("\n"):
        assert err == stderr
    else:
        assert err.startswith(stderr) and err.count("\n") == 1 and err.endswith("\n"), err
    assert os.listdir() == ([] if given is None else ["in.json"])


class TestErrorPaths:
    """What a row of EXITS cannot hold: an output path made a directory
    first, a reader that closes the pipe, and a bound on a library call."""

    # a report into a missing directory or onto a directory, and the
    # spectrum CSV onto a directory: (command, --output, path named)
    @pytest.mark.parametrize(
        "command, output, named",
        [
            ("pf", "missing/x.json", "missing/x.json"),
            ("pf", ".", "."),
            ("spectrum", "x.json", "x.csv"),
        ],
        ids=["missing-dir", "directory", "spectrum-csv"],
    )
    def test_unwritable_output_exit_two(
        self, tmp_path, capsys, fib_file, command, output, named
    ):
        (tmp_path / "x.csv").mkdir()
        argv = [command, "--input", fib_file, "--output", str(tmp_path / output)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"shiftlab: parse error: cannot write {tmp_path / named}:")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "x.json").exists()

    def test_stdout_closed_early_exits_one_quietly(self, full3_file):
        # `shiftlab t-a ... | head -c 20`: the reader leaves mid-report
        env = dict(os.environ, PYTHONPATH=str(Path(shiftlab.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "shiftlab.cli", "t-a", "--input", full3_file],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        head = proc.stdout.read(20)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert head.startswith(b"{")
        assert err == "shiftlab: output closed early\n"

    def test_large_classical_model_in_bounded_time(self):
        # 59,280 normality triples and an n^3 unitarity check on n = 40
        # (about 2.4 s as one SVD per triple and a loop over the pairs)
        with budget(cpu_s=1.0):
            out = shiftlab.cli.run_repmodel("classical", 0.5, 1, 40, 0)
        assert len(out["normality_norms"]) == 40 * 39 * 38
        assert out["max_normality_norm"] == 0.0
        assert out["unitarity_defect"] == 0.0


def _subparsers(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _flags(parser):
    return [
        (a.option_strings, a.dest, a.default, a.type, a.choices, a.required, a.help)
        for a in parser._actions
    ]


class TestOneCommandParser:
    """A call builds the top parser and its own command's parser alone;
    flags, help, usage and errors are the full parser's."""

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_same_flags_as_the_full_parser(self, command):
        (one,) = _subparsers(build_parser(command)).values()
        full = _subparsers(build_parser())[command]
        assert one.prog == full.prog == f"shiftlab {command}"
        assert _flags(one) == _flags(full)

    @pytest.mark.parametrize(
        "argv", PARSER_ARGV, ids=lambda argv: " ".join(argv) or "no-arguments"
    )
    def test_same_exit_and_text_as_the_full_parser(self, capsys, monkeypatch, argv):
        def outcome():
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            return code, *capsys.readouterr()

        one = outcome()
        full_parser = build_parser
        monkeypatch.setattr(shiftlab.cli, "build_parser", lambda only=None: full_parser())
        assert one == outcome()
        assert one[0] == (0 if "--help" in argv or "--version" in argv else 2)

    def test_a_command_builds_two_parsers(self, monkeypatch, fib_file, tmp_path):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        out = tmp_path / "pf.json"
        assert main(["pf", "--input", fib_file, "--output", str(out)]) == 0
        assert len(built) <= 2


class TestReportBundle:
    def test_all_sections_succeed(self, tmp_path, fib_file):
        out = tmp_path / "rep.json"
        assert main(["report", "--input", fib_file, "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        sections = rep["results"]
        assert all(sections[name]["ok"] for name in sections)
        assert sections["pattern"]["results"]["diagnosis"] == "DualFreeGroup"
        assert sections["ergodicity"]["results"]["verdict"] == "NonErgodic"

    def test_large_alphabet_records_cap_not_fatal(self, tmp_path):
        # the search ends; its group, S_49, is over the listing cap
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 7, "a": [[1] * 7] * 7}))
        out = tmp_path / "rep7.json"
        assert main(["report", "--input", str(path), "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        ta = rep["results"]["t-a"]
        assert not ta["ok"]
        assert ta["error"] == "LengthOverflow"
        assert rep["results"]["pf"]["ok"]

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_full_shift_t_a_over_cap_not_fatal(self, tmp_path, monkeypatch, n):
        monkeypatch.delenv("ARIADNE_CAP", raising=False)
        path = tmp_path / f"full{n}.json"
        path.write_text(json.dumps({"n": n, "a": [[1] * n] * n}))
        out = tmp_path / f"rep{n}.json"
        with budget(cpu_s=5.0):
            assert main(["report", "--input", str(path), "--output", str(out)]) == 0
        sections = json.loads(out.read_text())["results"]
        assert sections["t-a"]["error"] == "LengthOverflow"
        assert all(sections[name]["ok"] for name in sections if name != "t-a")

    def test_one_pf_computation(self, tmp_path, monkeypatch, fib_file):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return perron_frobenius(*args, **kwargs)

        monkeypatch.setattr(shiftlab.cli, "perron_frobenius", counted)
        out = tmp_path / "rep.json"
        assert main(["report", "--input", fib_file, "--output", str(out)]) == 0
        assert len(calls) == 1
        sections = json.loads(out.read_text())["results"]
        assert all(section["ok"] for section in sections.values())

    def test_failed_pf_recorded_in_every_section_that_needs_it(self, tmp_path):
        path = tmp_path / "cycle3.json"
        cycle = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        path.write_text(json.dumps({"n": 3, "a": cycle}))
        out = tmp_path / "rep.json"
        assert main(["report", "--input", str(path), "--output", str(out)]) == 0
        sections = json.loads(out.read_text())["results"]
        wielandt = "no power up to the Wielandt bound 5 is strictly positive"
        for name in ["pf", "measures", "spectrum", "pattern", "ergodicity"]:
            assert sections[name] == {
                "ok": False,
                "error": "NotPrimitive",
                "message": wielandt,
            }
        for name in ["autgroup", "classical-fix", "t-a"]:
            assert sections[name]["ok"]

    @pytest.mark.parametrize(
        "matrix", [FIBONACCI, UNKNOWN_EXHIBIT], ids=["fib", "unknown"]
    )
    def test_sections_equal_standalone_commands(self, tmp_path, capsys, matrix):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"n": len(matrix), "a": matrix}))
        code, rep = run_json(capsys, "report", "--input", str(path))
        assert code == 0
        flags = {
            "measures": ["--depth", "4"],
            "spectrum": ["--cutoff", "5"],
            "classical-fix": ["--level", "3"],
            "ergodicity": ["--level", "3"],
        }
        assert sorted(rep["results"]) == [
            "autgroup", "classical-fix", "ergodicity", "measures", "pattern",
            "pf", "spectrum", "t-a",
        ]
        for name, section in rep["results"].items():
            code, alone = run_json(
                capsys, name, "--input", str(path), *flags.get(name, [])
            )
            assert code == 0 and section == {"ok": True, "results": alone["results"]}

    def test_deterministic_reports(self, tmp_path, fib_file):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["report", "--input", fib_file, "--output", str(out1)]) == 0
        assert main(["report", "--input", fib_file, "--output", str(out2)]) == 0
        # byte-identical apart from the timing field
        assert cut_wall_time(out1.read_text()) == cut_wall_time(out2.read_text())


class TestFormatting:
    def test_round15(self):
        assert round15(0.1 + 0.2) == 0.3
        assert round15(1.6180339887498949) == 1.61803398874989


_KEYS = st.one_of(
    st.text(max_size=4), st.integers(-3, 3), st.booleans(), st.none(), st.floats(-2, 2)
)
# heights 0, 1, 3 and past one write chunk; widths 0 and 3
_ARRAY_SHAPES = [(0, 3), (3, 0), (1, 3), (3, 3), (ROW_CHUNK + 5, 3)]
# leaves are also drawn 1-D, which the writer sends through .tolist()
_LEAF_SHAPES = _ARRAY_SHAPES + [(0,), (1,), (5,)]
_INT_DTYPES = [np.int8, np.int16, np.int64, np.uint64]


def _int_array(dtype, shape, seed):
    """An array over the dtype's whole range, negatives included."""
    info = np.iinfo(dtype)
    rng = np.random.default_rng(seed)
    return rng.integers(info.min, info.max, shape, dtype=dtype, endpoint=True)


def _digit_array(dtype, shape, seed):
    """An array of one-digit entries: every 2-D chunk is written from bytes."""
    return np.random.default_rng(seed).integers(0, 10, shape).astype(dtype)


def _one_digit_cases():
    """One-digit arrays of every shape, then ROW_CHUNK + 5 rows whose last
    row holds a 10 or a -1, so the two chunks take different paths, and the
    same rows rolled so that the off-digit chunk comes first."""
    for dtype in _INT_DTYPES:
        name = np.dtype(dtype).name
        for shape in _ARRAY_SHAPES:
            yield pytest.param(_digit_array(dtype, shape, 7), id=f"{name}-{shape}")
        for odd in (10, -1) if np.issubdtype(dtype, np.signedinteger) else (10,):
            arr = _digit_array(dtype, (ROW_CHUNK + 5, 3), 7)
            arr[-1, 1] = odd
            yield pytest.param(arr, id=f"{name}-{odd}-last")
            yield pytest.param(np.roll(arr, 5, axis=0), id=f"{name}-{odd}-first")


def _float_cases():
    """Reals whose repr is an edge case; arrays of shapes (1, n), (n, 1)
    and (0,); ROW_CHUNK + 5 rows of 17-digit reals, written in two chunks,
    the second all in [0, 1) as a stochastic matrix is (no digit tile for
    reals); and arrays holding NaN or an infinity, which keep the per-leaf
    path."""
    edge = np.array([-0.0, 1e16, 5e-324, 0.1 + 0.2, 1 / 3])
    yield pytest.param(edge, id="edge-reals")
    yield pytest.param(edge[None, :], id="1xn")
    yield pytest.param(edge[:, None], id="nx1")
    yield pytest.param(np.zeros(0), id="empty")
    rng = np.random.default_rng(7)
    tall = rng.random((ROW_CHUNK + 5, 3))
    tall[:ROW_CHUNK] *= 10.0 ** rng.integers(-20, 20, 3)
    yield pytest.param(tall, id="two-chunks")
    for bad in (math.nan, math.inf, -math.inf):
        yield pytest.param(np.array([0.5, bad]), id=f"1d-{bad}")
        yield pytest.param(np.array([[0.5, 1e16], [bad, 1 / 3]]), id=f"2d-{bad}")


def _bool_array(shape, seed):
    return np.random.default_rng(seed).integers(0, 2, shape).astype(bool)


_LEAVES = st.one_of(
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    st.sampled_from(["\x00\x1f\x7f", "\u00e9\u2028", "\U0001f600", '"\\/']),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 2.2e-308, math.nan, math.inf, -math.inf]),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.complex_numbers(),
    st.lists(st.floats(), max_size=3).map(np.array),
    st.lists(st.complex_numbers(), max_size=2).map(np.array),
    st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2), max_size=2).map(
        np.array
    ),
    st.lists(st.integers(-(2**40), 2**40), max_size=5).map(tuple),
    st.builds(
        _int_array,
        st.sampled_from(_INT_DTYPES),
        st.sampled_from(_LEAF_SHAPES),
        st.integers(0, 2**32 - 1),
    ),
    st.builds(
        _digit_array,
        st.sampled_from(_INT_DTYPES),
        st.sampled_from(_LEAF_SHAPES),
        st.integers(0, 2**32 - 1),
    ),
    st.builds(_bool_array, st.sampled_from(_LEAF_SHAPES), st.integers(0, 2**32 - 1)),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_KEYS, kids, max_size=4),
    ),
    max_leaves=24,
)


def _digest_without_wall_time(text):
    return hashlib.sha256(cut_wall_time(text).encode()).hexdigest()


def _assert_emits_reference_text(value):
    """_emit writes value as the reference text to an --output file, to a
    stdout with a binary layer (a buffer) and to one without (io.StringIO).
    Digit chunks go to a binary layer and all else to the text layer, so a
    missing flush between the two misorders bytes."""
    expected = reference_report_text(value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        _emit(value, str(path))
        assert path.read_bytes() == expected.encode()
    with io.TextIOWrapper(io.BytesIO(), encoding="utf-8") as out:
        with contextlib.redirect_stdout(out):
            _emit(value, None)
        assert out.buffer.getvalue() == expected.encode()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(value, None)
    assert out.getvalue() == expected


class TestWriter:
    @seed(20261018)
    @settings(max_examples=200, deadline=None)
    @given(_VALUES)
    def test_same_bytes_as_reference(self, value):
        _assert_emits_reference_text(value)

    @pytest.mark.parametrize("shape", _ARRAY_SHAPES)
    @pytest.mark.parametrize("dtype", _INT_DTYPES + [bool])
    def test_two_dimensional_arrays_same_bytes(self, dtype, shape):
        arr = _bool_array(shape, 7) if dtype is bool else _int_array(dtype, shape, 7)
        _assert_emits_reference_text({"a": [arr, {"b": arr}], "c": arr})

    @pytest.mark.parametrize("arr", _one_digit_cases())
    def test_one_digit_chunks_same_bytes(self, arr):
        _assert_emits_reference_text({"a": [arr, {"b": arr}], "c": arr})

    @pytest.mark.parametrize("arr", _float_cases())
    def test_float_rows_same_bytes(self, arr):
        _assert_emits_reference_text({"a": [arr, {"b": arr}], "c": arr})

    def test_full3_t_a_listing_writes_fast(self, tmp_path, monkeypatch):
        # 9! rows of 9 one-digit letters, 42 MB: about 0.5 s as %-formats
        monkeypatch.delenv("ARIADNE_CAP", raising=False)
        perms = t_a_analysis(AdjacencySpec.from_matrix([[1] * 3] * 3)).permutations
        assert perms.shape == (362_880, 9)
        out = tmp_path / "t-a.json"
        with budget(cpu_s=0.2):
            _emit({"results": {"permutations": perms}}, str(out))
        assert out.stat().st_size > 40_000_000

    def test_full3_t_a_writes_in_bounded_time(self, tmp_path, full3_file, monkeypatch):
        # 9! rows of 9 letters: listed and written from one integer array;
        # the list is the one whose digest perfbench/refs.json stores
        # (integers only, so no numpy version moves it), and the text is
        # json.dumps's
        monkeypatch.delenv("ARIADNE_CAP", raising=False)
        out = tmp_path / "t-a.json"
        with budget(cpu_s=1.5):
            assert main(["t-a", "--input", full3_file, "--output", str(out)]) == 0
        assert out.stat().st_size > 40_000_000
        text = out.read_text()
        report = json.loads(text)
        perms = json.dumps(report["results"]["permutations"], separators=(",", ":"))
        refs = json.loads((Path(__file__).parents[1] / "perfbench" / "refs.json").read_text())
        want = refs["report:full3"]["t-a"]["permutations"]["__sha256__"]
        assert hashlib.sha256(perms.encode()).hexdigest() == want
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"

    # every float leaf and float row a report holds: pf's eigenvectors and
    # stochastic matrix, repmodel's normality norms, measures' cylinder
    # rows and spectrum's eigenvalue dicts
    @pytest.mark.parametrize(
        "argv, matrix",
        [
            (["pf"], wielandt(24)),
            (["measures", "--depth", "3"], wielandt(24)),
            (["repmodel", "--model", "classical", "--size", "6", "--ell", "1"], None),
            (["spectrum", "--cutoff", "4"], FIBONACCI),
        ],
        ids=["pf-wielandt24", "measures-wielandt24", "repmodel-classical6", "spectrum-fib"],
    )
    def test_cli_reports_are_json_dumps_text(self, tmp_path, argv, matrix):
        if matrix is not None:
            path = tmp_path / "in.json"
            path.write_text(json.dumps({"n": len(matrix), "a": matrix}))
            argv = argv + ["--input", str(path)]
        out = tmp_path / "out.json"
        assert main(argv + ["--output", str(out)]) == 0
        text = out.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    @NEEDS_VMHWM
    def test_full3_t_a_streams_in_bounded_memory(self, tmp_path, full3_file):
        # 9! permutations, 42 MB of text: about 450 MiB when built as one string
        out = tmp_path / "t-a.json"
        argv = ["t-a", "--input", full3_file]
        run = run_child(
            "import sys\n"
            "from shiftlab.cli import main\n"
            f"sys.exit(main({argv + ['--output', str(out)]!r}) or main({argv!r}))\n"
        )
        assert run.returncode == 0, run.stderr
        assert run.peak_mib < 200
        assert out.stat().st_size > 40_000_000
        assert _digest_without_wall_time(out.read_text()) == _digest_without_wall_time(run.stdout)


def test_cli_runs_never_import_numpy_ma(tmp_path, fib_file, full3_file):
    # numpy's set routines (np.unique, np.union1d, ...) import numpy.ma on
    # first use, about 15 ms of every process that reaches one
    rand64 = tmp_path / "rand64.json"
    rand64.write_text(json.dumps({"n": 64, "a": random_primitive(64, seed=64)}))
    out = str(tmp_path / "report.json")
    for argv in (
        ["report", "--input", fib_file],
        ["report", "--input", full3_file],
        ["ergodicity", "--input", str(rand64)],
        ["repmodel"],
    ):
        run = run_child(
            "import sys\n"
            "from shiftlab.cli import main\n"
            f"print(main({argv + ['--output', out]!r}), 'numpy.ma' in sys.modules)\n"
        )
        assert run.stdout.split() == ["0", "False"], (argv, run.stderr)


SEEDED = 20261018
COMPLETE8 = [[int(i != j) for j in range(8)] for i in range(8)]

# Every memory and CPU bound on a whole run, one row each: the input
# matrix (written to in.json), the call (CLI arguments, or a library
# snippet), ARIADNE_CAP (None: the default), the exit code, what the
# outcome reads (from the run and the results of out.json) and must equal,
# and the bounds on the child's peak RSS in MiB and its CPU time in s.
# A row with a peak bound needs the child's VmHWM.
GATES = [
    # 23,580 level-3 words, whose m x m pair array alone would be 556 MB;
    # the verdict is a search over words
    pytest.param(
        random_primitive(128, seed=SEEDED),
        ["ergodicity", "--input", "in.json", "--level", "3", "--output", "out.json"],
        None, 0,
        lambda run, res: (res["verdict"], len(res["witness"])), ("NonErgodic", 1),
        150, None,
        marks=NEEDS_VMHWM, id="ergodicity-level3-seeded128",
    ),
    # the all-kept path: with the PF rule off nothing is pre-zeroed, so all
    # 16,896 equations are built and swept, and every entry stays its own
    # free class
    pytest.param(
        random_primitive(128, seed=SEEDED),
        ["pattern", "--input", "in.json", "--no-pf-rule", "--output", "out.json"],
        None, 0,
        lambda run, res: (
            res["diagnosis"], sum(row.count(".") for g in "pq" for row in res[g])
        ),
        ("Indeterminate", 32768),
        None, 2,
        id="pattern-no-pf-rule-seeded128",
    ),
    # 134,456 level-6 words in orbits of up to 20,160 under S_8: soundness
    # is read on an 8 x 8 letter mask, not on the sum of |orbit|^2 word pairs
    pytest.param(
        COMPLETE8,
        ["ergodicity", "--input", "in.json", "--level", "6", "--output", "out.json"],
        None, 0,
        lambda run, res: res["verdict"], "Unknown",
        150, 10,
        marks=NEEDS_VMHWM, id="ergodicity-level6-complete8",
    ),
    # the walk passes the cap; the cap is checked as each level is built,
    # so no level past it is held (475 MiB when each level was counted only
    # once built whole)
    pytest.param(
        random_primitive(16, seed=SEEDED),
        ["spectrum", "--input", "in.json", "--cutoff", "5.0"],
        None, 4,
        lambda run, res: run.stderr,
        "shiftlab: enumeration overflow: spectrum walk exceeds cap 1000000\n",
        400, None,
        marks=NEEDS_VMHWM, id="spectrum-cutoff5-seeded16",
    ),
    # 14,211 cells for the swap of letters 1 and 2 with the phase z^i on
    # letter i: an automorphism, so the residual is rounding only.  Each
    # block is read off the cell map; a dense cells x cells U alone would
    # be 3.2 GB
    pytest.param(
        None,
        "import cmath\n"
        "import shiftlab as sl\n"
        "from shiftlab.symmetry import ClassicalIsometry, GraphAutomorphism\n"
        "pf = sl.perron_frobenius(sl.AdjacencySpec.full_shift(3))\n"
        "z = cmath.exp(2j * cmath.pi / 7)\n"
        "iso = ClassicalIsometry((z, z**2, z**3), GraphAutomorphism((2, 1, 3)))\n"
        "print(sl.commutation_residual(iso, pf, 6.0))\n",
        None, 0,
        lambda run, res: float(run.stdout) <= 1e-9, True,
        100, None,
        marks=NEEDS_VMHWM, id="residual-full3-cutoff6",
    ),
    # 2,379,783 (value, multiplicity) pairs for 83,991 distinct values:
    # about 416 MiB and 5 s of CPU when every pair was held and sorted
    pytest.param(
        FIBONACCI,
        ["spectrum", "--cutoff", "120", "--input", "in.json", "--output", "out.json"],
        None, 0,
        lambda run, res: len(res["eigenvalues"]), 29862,
        150, 3,
        marks=NEEDS_VMHWM, id="spectrum-cutoff120-fibonacci",
    ),
    # 20 walks over a 20-letter alphabet, counts past 2^59 at value 3
    pytest.param(
        wielandt(20),
        ["spectrum", "--cutoff", "3", "--input", "in.json", "--output", "out.json"],
        None, 0,
        lambda run, res: (len(res["eigenvalues"]), res["counting_function"]["3"]),
        (1899, 706902165977799748),
        None, 10,
        id="spectrum-cutoff3-wielandt20",
    ),
    # the group search on the full 16-shift's t-a matrix: 256 letters, all
    # twins, so its order is 256! and the listing refuses it
    pytest.param(
        [[1] * 16] * 16,
        ["t-a", "--input", "in.json"],
        None, 4,
        lambda run, res: run.stderr,
        "shiftlab: enumeration overflow: "
        f"group of order {math.factorial(256)} exceeds cap 1000000\n",
        None, 5,
        id="t-a-full16-over-cap",
    ),
    # the full 3-shift's report, whose t-a section lists all of S_9: 9!
    # rows of 9 letters, 58 MB of text.  Each level of the listing is
    # filled a chunk at a time and the digit rows go out as bytes (47.4 MiB
    # when each level was one fancy gather and each chunk was decoded)
    pytest.param(
        [[1] * 3] * 3,
        ["report", "--input", "in.json", "--output", "out.json"],
        None, 0,
        lambda run, res: res["t-a"]["results"]["group_order"], math.factorial(9),
        43, None,
        marks=NEEDS_VMHWM, id="report-full3",
    ),
    # the walk passes the cap long before cutoff 1000, and no index is
    # counted before the walks end
    pytest.param(
        FIBONACCI,
        ["spectrum", "--cutoff", "1000", "--input", "in.json"],
        100_000, 4,
        lambda run, res: "spectrum walk exceeds cap 100000" in run.stderr, True,
        None, 5,
        id="spectrum-cutoff1000-fibonacci-over-cap",
    ),
]


@pytest.mark.parametrize(
    "matrix, call, cap, code, outcome, expected, peak_mib, cpu_s", GATES
)
def test_run_within_its_bounds(
    tmp_path, matrix, call, cap, code, outcome, expected, peak_mib, cpu_s
):
    if matrix is not None:
        (tmp_path / "in.json").write_text(json.dumps({"n": len(matrix), "a": matrix}))
    run = run_child(call, cap, cwd=tmp_path)
    assert run.returncode == code, run.stderr
    out = tmp_path / "out.json"
    results = json.loads(out.read_text())["results"] if out.exists() else None
    assert outcome(run, results) == expected
    assert peak_mib is None or run.peak_mib < peak_mib
    assert cpu_s is None or run.cpu_s < cpu_s


def _relabeled(a, s):
    """σAσ⁻¹ for the permutation s of range(n): letter i + 1 of a is letter
    s[i] + 1 of the result.  Rows may be strings, as pattern grids are."""
    b = [[0] * len(a) for _ in a]
    for i, row in enumerate(a):
        for j, entry in enumerate(row):
            b[s[i]][s[j]] = entry
    return b


def _cli_results(argv, matrix):
    """The exit code, stderr and results (None unless the exit is 0) of one
    cli.main call on the matrix, under ARIADNE_CAP=20000."""
    err, out = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(json.dumps({"n": len(matrix), "a": matrix}))
        with mock.patch.dict(os.environ, {"ARIADNE_CAP": "20000"}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--input", str(path)])
    return code, err.getvalue(), json.loads(out.getvalue())["results"] if code == 0 else None


def _words_by_spelling(matrix, m):
    """The words of length m of the matrix, keyed by their report spelling;
    the spellings are checked to be distinct, which holds for n <= 9."""
    words = enumerate_words(AdjacencySpec.from_matrix(matrix), m)
    spelled = {_word_str(w): w for w in words}
    assert len(spelled) == len(words)
    return spelled


def _same_pf(ra, rb, a, b, s):
    assert abs(rb["lambda_max"] - ra["lambda_max"]) <= 1e-12
    assert rb["primitivity_exponent"] == ra["primitivity_exponent"]
    for key in ("u", "v", "p_stat"):
        np.testing.assert_allclose(np.asarray(rb[key])[s], ra[key], rtol=0, atol=1e-9)
    stochastic = np.asarray(rb["stochastic"])[np.ix_(s, s)]
    np.testing.assert_allclose(stochastic, ra["stochastic"], rtol=0, atol=1e-9)


def _same_group(ra, rb, a, b, s):
    assert rb["order"] == ra["order"]
    conjugates = set()
    for g in ra["permutations"]:
        h = [0] * len(s)
        for i, image in enumerate(g):
            h[s[i]] = s[image - 1] + 1
        conjugates.add(tuple(h))
    assert set(map(tuple, rb["permutations"])) == conjugates


def _same_fixed_points(ra, rb, a, b, s):
    words_a, words_b = _words_by_spelling(a, ra["level"]), _words_by_spelling(b, rb["level"])

    def renamed(spellings):
        return frozenset(tuple(s[x - 1] + 1 for x in words_a[t]) for t in spellings)

    def read(spellings):
        return frozenset(words_b[t] for t in spellings)

    assert set(map(renamed, ra["orbits"])) == set(map(read, rb["orbits"]))
    assert renamed(ra["cycle_witness"]) == read(rb["cycle_witness"])
    assert (rb["dimension"], rb["witness_proper"]) == (ra["dimension"], ra["witness_proper"])


def _same_verdict(ra, rb, a, b, s):
    assert rb["verdict"] == ra["verdict"]


def _same_pattern(ra, rb, a, b, s):
    def canonical(rows):  # class letters renamed in order of first appearance
        names = {}
        return [[names.setdefault(c, len(names)) if c.isalpha() else c for c in row] for row in rows]

    moved = _relabeled(ra["p"], s) + _relabeled(ra["q"], s)
    assert canonical(moved) == canonical(rb["p"] + rb["q"])
    assert rb["diagnosis"] == ra["diagnosis"]


def _same_measures(ra, rb, a, b, s):
    spec_a, spec_b = AdjacencySpec.from_matrix(a), AdjacencySpec.from_matrix(b)
    assert rb["cylinders"].keys() == ra["cylinders"].keys()
    for m, rows in ra["cylinders"].items():
        words_a = enumerate_words(spec_a, int(m))
        row_of = {w: k for k, w in enumerate(enumerate_words(spec_b, int(m)))}
        assert len(rows) == len(words_a) == len(row_of) == len(rb["cylinders"][m])
        for w, row in zip(words_a, rows):
            twin = rb["cylinders"][m][row_of[tuple(s[x - 1] + 1 for x in w)]]
            for key in ("conformal", "parry", "kms_diagonal"):
                assert abs(twin[key] - row[key]) <= 1e-9, (m, w, key)
    for key in ("min", "max"):
        assert abs(rb["regularity_ratio"][key] - ra["regularity_ratio"][key]) <= 1e-9
    assert rb["bisection_counts"] == ra["bisection_counts"]


def _same_spectrum(ra, rb, a, b, s):
    values_a, values_b = ra["eigenvalues"], rb["eigenvalues"]
    assert [e["multiplicity"] for e in values_b] == [e["multiplicity"] for e in values_a]
    np.testing.assert_allclose(
        [e["value"] for e in values_b], [e["value"] for e in values_a], rtol=0, atol=1e-9
    )
    assert rb["counting_function"] == ra["counting_function"]


def _same_order(ra, rb, a, b, s):
    assert rb["group_order"] == ra["group_order"]


@st.composite
def _relabelings(draw):
    a = draw(primitive_matrices(max_n=6))
    return a, draw(st.permutations(range(len(a))))


def _assert_relabeling_invariant(argv, same, a, s):
    b = _relabeled(a, s)
    code, err, ra = _cli_results(argv, a)
    code_b, err_b, rb = _cli_results(argv, b)
    assert (code_b, err_b) == (code, err)
    if code == 0:
        same(ra, rb, a, b, s)


class TestRelabeling:
    """The report on σAσ⁻¹ is the report on A with its letters renamed by σ.
    Rows and words are matched through enumerate_words of each matrix; an
    over-cap draw ends at once, with the same exit and stderr on both
    sides."""

    @pytest.mark.parametrize(
        "argv, same",
        [
            pytest.param(argv, same, id=" ".join(argv))
            for argv, same in [
                (["pf"], _same_pf),
                (["autgroup"], _same_group),
                (["classical-fix", "--level", "3"], _same_fixed_points),
                (["ergodicity", "--level", "3"], _same_verdict),  # the witness holds word 0
                (["pattern"], _same_pattern),
                (["pattern", "--no-pf-rule"], _same_pattern),
                (["measures", "--depth", "3"], _same_measures),
                (["spectrum", "--cutoff", "4"], _same_spectrum),
                (["t-a"], _same_order),
            ]
        ],
    )
    @seed(20261018)
    @settings(max_examples=60, deadline=None)
    @given(_relabelings())
    def test_random_primitive(self, argv, same, case):
        _assert_relabeling_invariant(argv, same, *case)

    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    @pytest.mark.parametrize(
        "argv, same",
        [
            pytest.param(argv, same, id=" ".join(argv))
            for argv, same in [
                (["pf"], _same_pf),
                (["autgroup"], _same_group),
                (["ergodicity", "--level", "2"], _same_verdict),
                (["pattern"], _same_pattern),
                (["measures", "--depth", "2"], _same_measures),
            ]
        ],
    )
    def test_seeded_graph_reversed(self, argv, same, n):
        _assert_relabeling_invariant(argv, same, random_primitive(n, seed=SEEDED), range(n)[::-1])
