"""`tests/agreement.py compare` on hand-written records, with and without a
list of intended differences."""

import hashlib
import json
import os
import signal
import sys

import pytest


def record(report):
    return {"exit": 0, "stderr": "", "stdout": "", "report": report, "csv": None, "seconds": 0.5}


@pytest.fixture
def compare(monkeypatch, tmp_path):
    """compare(changed, listed, key) on a two-case corpus where the cases
    named in ``changed`` differ in ``key``; ``listed`` is the text of the
    list, or None."""
    monkeypatch.setattr(sys, "path", sys.path[:])  # agreement.py prepends the repo root
    import agreement

    ref = {"pf :fib": record("a"), "spectrum :fib": record("b")}
    (tmp_path / "ref.json").write_text(json.dumps(ref))

    def run(changed, listed=None, key="report"):
        other = {case: {**rec, key: rec[key] + "!" * (case in changed)} for case, rec in ref.items()}
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


def test_stdout_difference_fails(compare, capsys):
    assert compare({"spectrum :fib"}, key="stdout") == 1
    assert "differs: spectrum :fib\n" in capsys.readouterr().out


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


def test_run_records_argparse_exits(monkeypatch, tmp_path):
    # help and usage errors end in SystemExit, recorded as the case's exit
    monkeypatch.setattr(sys, "path", sys.path[:])
    monkeypatch.setenv("COLUMNS", "80")  # run fixes it; restored after
    import agreement
    from shiftlab import __version__

    cases = {"version": (["--version"], None, False, None), "bogus": (["bogus"], None, False, None)}
    monkeypatch.setattr(agreement, "corpus", lambda: cases)
    handler = signal.getsignal(signal.SIGALRM)
    try:
        agreement.run(str(tmp_path / "records.json"))
    finally:
        signal.signal(signal.SIGALRM, handler)
    records = json.loads((tmp_path / "records.json").read_text())
    version = hashlib.sha256(f"{__version__}\n".encode()).hexdigest()
    assert records["version"]["exit"] == 0 and records["version"]["stdout"] == version
    assert records["bogus"]["exit"] == 2
    assert "invalid choice: 'bogus'" in records["bogus"]["stderr"]


def test_run_sets_each_case_cap(monkeypatch, tmp_path):
    # a case runs under its own ARIADNE_CAP, or the default when it has
    # none, and the caller's environment comes back as it was
    monkeypatch.setattr(sys, "path", sys.path[:])
    monkeypatch.setenv("ARIADNE_CAP", "7")
    import agreement

    full2 = [[1, 1], [1, 1]]
    cases = {
        "default": (["measures", "--depth", "3"], full2, True, None),
        "capped": (["measures", "--depth", "3"], full2, True, 3),
    }
    monkeypatch.setattr(agreement, "corpus", lambda: cases)
    handler = signal.getsignal(signal.SIGALRM)
    try:
        agreement.run(str(tmp_path / "records.json"))
    finally:
        signal.signal(signal.SIGALRM, handler)
    records = json.loads((tmp_path / "records.json").read_text())
    assert records["default"]["exit"] == 0
    assert records["capped"]["exit"] == 4
    assert records["capped"]["stderr"] == (
        "shiftlab: enumeration overflow: 4 words of length 2 exceed cap 3\n"
    )
    assert os.environ["ARIADNE_CAP"] == "7"


def test_capped_pass_repeats_every_case(monkeypatch):
    # every case again at the small cap, with the 20 left out of the
    # default pass for their time
    monkeypatch.setattr(sys, "path", sys.path[:])
    import agreement

    cases = agreement.corpus()
    default = [case for case, spec in cases.items() if spec[3] is None]
    capped = [case for case, spec in cases.items() if spec[3] == agreement.CAP == 2000]
    assert len(default) + len(capped) == len(cases)
    assert [f"{case} @cap2000" for case in default] == capped[: len(default)]
    assert sorted(capped[len(default):]) == sorted(
        f"{command} :{name} @cap2000"
        for command, names in [
            ("report", [*(f"wielandt{n}" for n in range(18, 25)), "seeded32", "seeded64", "seeded128"]),
            ("t-a", [f"wielandt{n}" for n in range(18, 25)]),
            ("spectrum", ["seeded32", "seeded64", "seeded128"]),
        ]
        for name in names
    )
