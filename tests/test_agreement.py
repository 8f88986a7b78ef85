"""`tests/agreement.py compare` on hand-written records, with and without a
list of intended differences."""

import json
import sys

import pytest


def record(report):
    return {"exit": 0, "stderr": "", "report": report, "csv": None, "seconds": 0.5}


@pytest.fixture
def compare(monkeypatch, tmp_path):
    """compare(changed, listed) on a two-case corpus where the cases named
    in ``changed`` differ; ``listed`` is the text of the list, or None."""
    monkeypatch.setattr(sys, "path", sys.path[:])  # agreement.py prepends the repo root
    import agreement

    ref = {"pf :fib": record("a"), "spectrum :fib": record("b")}
    (tmp_path / "ref.json").write_text(json.dumps(ref))

    def run(changed, listed=None):
        other = {case: record(rec["report"] + "!" * (case in changed)) for case, rec in ref.items()}
        (tmp_path / "other.json").write_text(json.dumps(other))
        paths = [tmp_path / "ref.json", tmp_path / "other.json"]
        if listed is not None:
            (tmp_path / "expected.txt").write_text(listed)
            paths.append(tmp_path / "expected.txt")
        return agreement.compare(*map(str, paths))

    return run


def test_no_difference_passes(compare):
    assert compare(set()) == 0


def test_unlisted_difference_fails(compare, capsys):
    assert compare({"pf :fib"}) == 1
    assert compare({"pf :fib", "spectrum :fib"}, "spectrum :fib\n") == 1
    assert "differs: pf :fib\n" in capsys.readouterr().out


def test_listed_difference_passes(compare, capsys):
    assert compare({"pf :fib"}, "# the pf change\n\npf :fib\n") == 0
    out = capsys.readouterr().out
    assert "differs as expected: pf :fib\n" in out
    assert "0 differ unlisted, 1 as listed" in out


def test_listed_case_that_does_not_differ_fails(compare, capsys):
    assert compare({"pf :fib"}, "pf :fib\nspectrum :fib\n") == 1
    assert "listed but does not differ: spectrum :fib\n" in capsys.readouterr().out
    assert compare(set(), "pf :fib\n") == 1


def test_listed_case_outside_the_corpus_fails(compare, capsys):
    assert compare({"pf :fib"}, "pf :fib\nreport :fib\n") == 1
    assert "listed but does not differ: report :fib\n" in capsys.readouterr().out
