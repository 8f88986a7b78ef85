import csv
import json

import pytest

from shiftlab.cli import main, round15
from conftest import FIBONACCI


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

    def test_repmodel(self, capsys):
        code, rep = run_json(
            capsys, "repmodel", "--model", "two-projection", "--ell", "2"
        )
        assert code == 0
        assert rep["results"]["relation_defect"] <= 1e-9


class TestErrorPaths:
    def test_parse_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["pf", "--input", str(bad)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_missing_file_exit_two(self, capsys):
        assert main(["pf", "--input", "/nonexistent/x.json"]) == 2

    def test_not_primitive_exit_three(self, tmp_path, capsys):
        path = tmp_path / "per.json"
        path.write_text(json.dumps({"n": 2, "a": [[0, 1], [1, 0]]}))
        assert main(["pf", "--input", str(path)]) == 3

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 2, "a": [[1, 1.7], [1, 0]]}',
            '{"n": 2, "a": [[1, true], [1, 0]]}',
            '{"n": 2, "a": ["11", [1, 0]]}',
            '{"n": 2.9, "a": [[1, 1], [1, 0]]}',
            '{"n": 2, "a": [[1, 1, 1], [1, 0]]}',
        ],
        ids=["float-entry", "bool-entry", "string-row", "float-n", "ragged"],
    )
    def test_schema_violation_exit_two(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["pf", "--input", str(path)]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("cutoff", ["0.5", "nan", "inf"])
    def test_spectrum_bad_cutoff_exit_two(self, capsys, fib_file, cutoff):
        assert main(["spectrum", "--input", fib_file, "--cutoff", cutoff]) == 2
        err = capsys.readouterr().err
        assert "--cutoff" in err and len(err.strip().splitlines()) == 1

    def test_spectrum_csv_output_path_exit_two(self, tmp_path, capsys, fib_file):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--input", fib_file, "--output", str(out)]) == 2
        assert "--output" in capsys.readouterr().err
        assert not out.exists()

    def test_overflow_exit_four(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ARIADNE_CAP", "10")
        path = tmp_path / "full.json"
        path.write_text(json.dumps({"n": 2, "a": [[1, 1], [1, 1]]}))
        assert main(["measures", "--input", str(path), "--depth", "6"]) == 4


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
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 7, "a": [[1] * 7] * 7}))
        out = tmp_path / "rep7.json"
        assert main(["report", "--input", str(path), "--output", str(out)]) == 0
        rep = json.loads(out.read_text())
        ta = rep["results"]["t-a"]
        assert not ta["ok"]
        assert ta["error"] == "SearchCapExceeded"
        assert rep["results"]["pf"]["ok"]

    def test_deterministic_reports(self, tmp_path, fib_file):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["report", "--input", fib_file, "--output", str(out1)]) == 0
        assert main(["report", "--input", fib_file, "--output", str(out2)]) == 0
        rep1 = json.loads(out1.read_text())
        rep2 = json.loads(out2.read_text())
        rep1.pop("wall_time_ms")
        rep2.pop("wall_time_ms")
        # byte-identical apart from the timing field
        assert json.dumps(rep1, sort_keys=True) == json.dumps(
            rep2, sort_keys=True
        )


class TestFormatting:
    def test_round15(self):
        assert round15(0.1 + 0.2) == 0.3
        assert round15(1.6180339887498949) == 1.61803398874989
