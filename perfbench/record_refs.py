"""Record refs.json: reference outputs from the current shiftlab, for the
outputs the benchmark has no cheap independent computation for.

    python3 perfbench/record_refs.py

Run once at the commit whose outputs are taken as correct.  Recorded:
the spectrum, pattern, ergodicity and t-a sections of `report` on the
fixed report-corpus inputs and on every primitive 3 x 3 matrix with seven
ones (the random members are drawn from these), and `spectrum` on the
spectrum-deep ops.  Inputs on which the seed fails (the full 4-shift
report) are left out: they are checked by independent computation only.
"""

from __future__ import annotations

import itertools
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import shiftlab.cli  # noqa: E402
from oracle import REFS_PATH, digest  # noqa: E402
from workloads import fingerprint, is_primitive, report_corpus, spectrum_deep  # noqa: E402

import numpy as np  # noqa: E402

REPORT_SECTIONS = ("spectrum", "pattern", "ergodicity", "t-a")


def cli_results(cmd: str, matrix, args=()) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        inp, out = Path(tmp, "in.json"), Path(tmp, "out.json")
        inp.write_text(json.dumps({"n": len(matrix), "a": matrix}))
        code = shiftlab.cli.main([cmd, "--input", str(inp), "--output", str(out), *args])
        if code != 0:
            raise SystemExit(f"{cmd} on {matrix} exited {code}")
        return json.loads(out.read_text())["results"]


def report_ref(matrix) -> dict:
    bundle = cli_results("report", matrix)
    ref = {}
    for name in REPORT_SECTIONS:
        sec = bundle[name]
        if not sec["ok"]:
            raise SystemExit(f"report section {name} failed on {matrix}")
        res = dict(sec["results"])
        if name == "t-a":
            res["permutations"] = digest(res["permutations"])
        ref[name] = res
    return ref


def main() -> None:
    refs = {}
    for op in report_corpus(0):
        if op["input"].startswith("rand") or op["input"] == "full4":
            continue
        print("recording", op["id"], flush=True)
        refs[op["id"]] = report_ref(op["matrix"])
    for bits in itertools.product([0, 1], repeat=9):
        a = np.array(bits).reshape(3, 3)
        if a.sum() == 7 and is_primitive(a):
            refs[f"report:n3/{fingerprint(a.tolist())}"] = report_ref(a.tolist())
    for op in spectrum_deep(0):
        print("recording", op["id"], flush=True)
        refs[op["id"]] = cli_results("spectrum", op["matrix"], op["args"])
    REFS_PATH.write_text(json.dumps(refs, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {len(refs)} references to {REFS_PATH.name}")


if __name__ == "__main__":
    main()
