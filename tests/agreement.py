"""CLI byte agreement between two source trees, on one fixed corpus.

    PYTHONPATH=src python tests/agreement.py run change.json
    PYTHONPATH=parent-src/src python tests/agreement.py run parent.json
    python tests/agreement.py compare parent.json change.json [expected.txt]

`run` sends every case of the corpus through ``shiftlab.cli.main`` in this
one process, each under an alarm of ``ALARM_S`` seconds, and writes per
case the exit code (argparse's ``SystemExit`` code included), stderr, the
sha256 of stdout, the sha256 of the report (cut by
``conftest.cut_wall_time``) and the sha256 of the CSV, if one was written.
Help and usage text wrap at ``COLUMNS``, which `run` fixes at 80.
`compare` prints every case whose record differs between the two files
and exits 1 if any does.  A case the first (reference) side did not finish
is named and not compared.  The optional list names the differences a
change intends, one case id per line as `compare` prints them (blank lines
and ``#`` comments are skipped): a listed case that differs is printed as
expected and does not fail, and a listed case that does not differ, or is
not in the corpus, fails, so a list cannot outlive its change.

The corpus:
  * the ops of the four perfbench workloads at seeds 1 and 2;
  * ``pf``, ``measures --depth 1..3``, ``spectrum``, ``report``,
    ``autgroup``, ``t-a``, ``pattern`` with and without ``--no-pf-rule``,
    ``classical-fix --level 1..3`` and ``ergodicity --level 1..3`` on
    Fibonacci, ``UNKNOWN_EXHIBIT``, the full 2..7 shifts, Wielandt 3..24,
    the primitive circulants with n <= 5 and the seeded n = 16..128 graphs
    of ``tests/conftest.py``;
  * ``repmodel`` with all three models at sizes 4..10, ``--ell`` 1 and 3;
  * ``spectrum`` on Fibonacci at cutoffs 9..60, and 70..120 in steps of 10,
    where the index counts and the (class, length) expansion dominate;
  * the argv of ``PARSER_ARGV`` in ``tests/conftest.py``, run as they are:
    help, version, usage and argparse's errors.
Left out, each for its time: ``report`` and ``t-a`` on Wielandt n >= 18
(``t-a`` searches a group of hundreds of digits to its end, minutes per
case), and ``spectrum`` and ``report`` on the seeded n >= 32 graphs
(``spectrum`` exits 4 only after several seconds and hundreds of MiB).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "tests")]  # perfbench and conftest
ALARM_S = 60

COMMANDS = [
    ["pf"],
    *(["measures", "--depth", str(d)] for d in (1, 2, 3)),
    ["spectrum"],
    ["report"],
    ["autgroup"],
    ["t-a"],
    ["pattern"],
    ["pattern", "--no-pf-rule"],
    *(["classical-fix", "--level", str(k)] for k in (1, 2, 3)),
    *(["ergodicity", "--level", str(k)] for k in (1, 2, 3)),
]


class CaseTimeout(BaseException):
    """Raised by the alarm; a BaseException, so no handler in the CLI takes it."""


def _inputs() -> dict[str, list[list[int]]]:
    from conftest import UNKNOWN_EXHIBIT, random_primitive
    from perfbench.workloads import FIBONACCI, full_shift, is_primitive, wielandt

    import numpy as np

    inputs = {"fib": FIBONACCI, "unknown": UNKNOWN_EXHIBIT}
    inputs.update((f"full{n}", full_shift(n)) for n in range(2, 8))
    inputs.update((f"wielandt{n}", wielandt(n)) for n in range(3, 25))
    for n in range(2, 6):  # a[i][j] = c[(j - i) % n], with c[1] = 1 as in conftest
        for bits in range(2 ** (n - 1)):
            c = [bits >> k & 1 for k in range(n - 1)]
            c = c[:1] + [1] + c[1:]
            a = [[c[(j - i) % n] for j in range(n)] for i in range(n)]
            if is_primitive(np.array(a)):
                inputs[f"circulant{n}-{''.join(map(str, c))}"] = a
    inputs.update((f"seeded{n}", random_primitive(n, seed=20261018)) for n in (16, 32, 64, 128))
    return inputs


def corpus() -> dict[str, tuple[list[str], list[list[int]] | None, bool]]:
    """Case id -> (argv, matrix or None, whether run adds --input and
    --output to argv)."""
    from conftest import PARSER_ARGV
    from perfbench.workloads import WORKLOADS, fingerprint

    cases: dict[str, tuple[list[str], list[list[int]] | None, bool]] = {}
    inputs = _inputs()
    for name, a in inputs.items():
        n = len(a)
        for argv in COMMANDS:
            slow = (
                name.startswith("wielandt") and n >= 18 and argv[0] in ("report", "t-a")
            ) or (name.startswith("seeded") and n >= 32 and argv[0] in ("spectrum", "report"))
            if not slow:
                cases[f"{' '.join(argv)} :{name}"] = (argv, a, True)
    for model in ("two-projection", "qls", "classical"):
        for size in range(4, 11):
            for ell in (1, 3):
                argv = ["repmodel", "--model", model, "--size", str(size), "--ell", str(ell)]
                cases[" ".join(argv)] = (argv, None, True)
    for cutoff in [*range(9, 61), *range(70, 121, 10)]:
        argv = ["spectrum", "--cutoff", str(cutoff)]
        cases[f"{' '.join(argv)} :fib"] = (argv, inputs["fib"], True)
    seen = {(tuple(argv), json.dumps(a)) for argv, a, _ in cases.values()}
    for seed in (1, 2):
        for build, _ in WORKLOADS.values():
            for op in build(seed):
                argv, a = [op["cmd"], *op["args"]], op["matrix"]
                if (tuple(argv), json.dumps(a)) not in seen:
                    seen.add((tuple(argv), json.dumps(a)))
                    tag = f" :{op['input']}/{fingerprint(a)[:8]}" if a is not None else ""
                    cases[" ".join(argv) + tag] = (argv, a, True)
    for argv in PARSER_ARGV:
        cases[f"argv {json.dumps(argv)}"] = (argv, None, False)
    return cases


def _digest(path: Path, cut: bool = False) -> str | None:
    from conftest import cut_wall_time

    if not path.exists():
        return None
    text = path.read_text()
    path.unlink()
    if cut:
        text = cut_wall_time(text)
    return hashlib.sha256(text.encode()).hexdigest()


def run(out_path: str) -> None:
    from shiftlab.cli import main

    def on_alarm(signum, frame):
        raise CaseTimeout

    signal.signal(signal.SIGALRM, on_alarm)
    os.environ["COLUMNS"] = "80"
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for k, (case, (argv, a, files)) in enumerate(corpus().items()):
            out = Path(tmp) / f"{k}.json"
            args = [*argv, "--output", str(out)] if files else [*argv]
            if a is not None:
                src = Path(tmp) / f"{k}-input.json"
                src.write_text(json.dumps({"n": len(a), "a": a}))
                args += ["--input", str(src)]
            err, stdout = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            signal.alarm(ALARM_S)
            try:
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdout):
                    code = main(args)
            except SystemExit as exc:  # argparse's help, version and usage errors
                code = exc.code
            except CaseTimeout:
                code = "timeout"
            except Exception as exc:  # an error the CLI does not type: part of the record
                code = f"raised {type(exc).__name__}: {exc}"
            finally:
                signal.alarm(0)
            records[case] = {
                "exit": code,
                "stderr": err.getvalue().replace(tmp, "TMP"),
                "stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
                "report": _digest(out, cut=True),
                "csv": _digest(out.with_suffix(".csv")),
                "seconds": round(time.perf_counter() - start, 3),
            }
            print(f"{records[case]['seconds']:8.2f} s  {code}  {case}", file=sys.stderr)
    Path(out_path).write_text(json.dumps(records, indent=1) + "\n")


def compare(reference_path: str, other_path: str, expected_path: str | None = None) -> int:
    ref = json.loads(Path(reference_path).read_text())
    other = json.loads(Path(other_path).read_text())
    expected = set()
    if expected_path is not None:
        lines = (line.strip() for line in Path(expected_path).read_text().splitlines())
        expected = {line for line in lines if line and not line.startswith("#")}
    differ, listed = 0, set()
    for case in sorted(ref.keys() | other.keys()):
        a, b = ref.get(case), other.get(case)
        if a is not None and a["exit"] == "timeout":
            print(f"not finished on {reference_path}: {case}")
            continue
        if a is None or b is None or any(
            a[key] != b[key] for key in ("exit", "stderr", "stdout", "report", "csv")
        ):
            if case in expected:
                listed.add(case)
                print(f"differs as expected: {case}")
            else:
                differ += 1
                print(f"differs: {case}\n  {reference_path}: {a}\n  {other_path}: {b}")
    stale = sorted(expected - listed)
    for case in stale:
        print(f"listed but does not differ: {case}")
    seconds = [sum(r["seconds"] for r in side.values()) for side in (ref, other)]
    print(
        f"{len(ref)} cases, {differ} differ unlisted, {len(listed)} as listed; "
        f"{seconds[0]:.0f} s and {seconds[1]:.0f} s in cases"
    )
    return int(differ > 0 or bool(stale))


if __name__ == "__main__":
    mode, *paths = sys.argv[1:]
    if mode == "run":
        run(*paths)
    elif mode == "compare":
        sys.exit(compare(*paths))
    else:
        sys.exit(f"unknown mode {mode}: run OUT.json | compare REFERENCE.json OTHER.json [LIST]")
