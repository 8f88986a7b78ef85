"""shiftlab benchmark: CLI ops run the way users run them, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op is one `shiftlab <cmd> --input <generated.json> --output <tmp>`
call in a fresh interpreter (perfbench/opchild.py), one at a time (closed
loop, one client, no threads).  Latency is timed inside that interpreter
from the call into shiftlab.cli.main until the report (and the spectrum
CSV) is written; interpreter start plus `import shiftlab.cli` is set-up
time.  Every op has a deadline; an op that misses it is killed, fails, and
counts the full deadline.  An op that missed its deadline is not started
again in the same run: later passes record it as failed at the deadline.

The op list runs in passes; the pass count is fixed by --seconds and a
per-workload constant, so every run of a workload measures the same work
and a faster program simply finishes sooner.  An op's latency is its
median over the passes.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 each op runs traced and then untraced (half the passes), and the
line holds the per-layer metrics.  The full run record is written to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
KILL_GRACE_S = 5.0
# Every op interpreter times a fixed loop before and after its call
# (opchild.speed_probe).  End-to-end times are scaled to the speed at
# which that loop takes PROBE_REF_S, so that swings in the speed of a
# shared machine do not read as changes in the program; the unscaled
# times are kept in the run record.  The speed around an op is the mean
# of the probes of that op and of the ops just before and after it: one
# probe is a 20 ms glimpse, and the speed moves within seconds.
PROBE_REF_S = 0.020
TAIL_BEYOND = 10  # op_tail: highest percentile with this many samples beyond it
# Functions whose self time is a per-layer metric (each layer's total is too).
SELF_TIME_FNS = (
    "core.validate_primitive", "core.perron_frobenius", "core.enumerate_words",
    "groupoid.count_bisections", "groupoid.enumerate_bisections",
    "spectral.spectrum", "symmetry.automorphism_group",
    "symmetry.matrix_automorphisms", "symmetry.generating_set",
    "symmetry.classical_fixed_points", "quantum.propagate",
    "quantum.word_support", "quantum.ergodicity_verdict",
    "quantum.t_a_analysis", "models.relation_check",
    "models.random_qls_vectors", "cli.main", "cli.load_spec",
)


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def fail_setup(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_op(op: dict, paths: dict, traced: bool, tmp: Path) -> dict:
    """One op in a fresh interpreter; returns its sample."""
    out = tmp / f"{op['idx']}.json"
    csv = out.with_suffix(".csv")
    meta_path = tmp / f"{op['idx']}.meta.json"
    argv = [op["cmd"]]
    if op["matrix"] is not None:
        argv += ["--input", str(paths[op["fingerprint"]])]
    argv += ["--output", str(out), *op["args"]]
    env = {k: v for k, v in os.environ.items() if k not in ("ARIADNE_CAP", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    cmd = [sys.executable, str(HERE / "opchild.py"), str(meta_path), "1" if traced else "0", "--", *argv]
    spawned = now()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    sample = {"op": op["id"], "traced": traced, "killed": False}
    try:
        _, err = proc.communicate(timeout=op["deadline_s"] + 2.0)
    except subprocess.TimeoutExpired:
        sample["killed"] = True
        proc.send_signal(signal.SIGTERM)
        try:
            _, err = proc.communicate(timeout=KILL_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
    sample["exit"] = proc.returncode
    sample["stderr"] = err.decode(errors="replace").strip()[-300:]
    meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    if "ready" in meta:
        sample["setup_s"] = meta["ready"] - spawned
    if "maxrss_kib" in meta:
        sample["rss_mib"] = meta["maxrss_kib"] / 1024.0
    sample["trace"] = meta.get("trace")
    sample["probe_s"] = meta.get("probe_s", [])
    latency = meta.get("latency_s")
    if sample["killed"] or latency is None or latency > op["deadline_s"]:
        sample["status"] = "deadline" if sample["killed"] or latency else "crashed"
        sample["latency_s"] = op["deadline_s"]
    else:
        sample["latency_s"] = latency
        sample["status"] = "ok" if proc.returncode == op["expect_exit"] else "exit"
    sample["report"] = out.read_text() if out.exists() and sample["status"] == "ok" else None
    sample["csv"] = csv.read_text() if csv.exists() else None
    sample["output_bytes"] = sum(p.stat().st_size for p in (out, csv) if p.exists())
    for p in (out, csv, meta_path):
        p.unlink(missing_ok=True)
    return sample


def scale_by_speed(samples: list[dict]) -> None:
    """Add scaled_latency_s and scaled_setup_s (see PROBE_REF_S)."""
    probed = [s for s in samples if s.get("probe_s")]
    for i, s in enumerate(probed):
        window = [p for t in probed[max(0, i - 1) : i + 2] for p in t["probe_s"]]
        scale = PROBE_REF_S / statistics.mean(window)
        if "setup_s" in s:
            s["scaled_setup_s"] = s["setup_s"] * scale
        s["scale"] = scale
    for s in samples:
        # a missed deadline counts the deadline itself, unscaled
        measured = s["status"] != "deadline" and "scale" in s
        s["scaled_latency_s"] = s["latency_s"] * s["scale"] if measured else s["latency_s"]


def judge(op: dict, sample: dict, checker) -> None:
    """Fill in failed / wrong.  Wrong means an answer disagreeing with the
    reference (or success on an input that must be refused)."""
    sample["errors"] = []
    sample["wrong"] = False
    if sample["status"] == "ok" and op["expect_exit"] == 0:
        sample["errors"] = checker.check(op, sample["report"], sample["csv"])
        sample["wrong"] = bool(sample["errors"])
    elif sample["status"] == "exit" and sample["exit"] == 0:
        sample["wrong"] = True
        sample["errors"] = [f"exit 0 where {op['expect_exit']} was expected"]
    sample["failed"] = sample["status"] != "ok" or sample["wrong"]
    sample.pop("report", None)
    sample.pop("csv", None)


def why_failed(op: dict, sample: dict) -> str:
    if sample["errors"]:
        return "wrong output: " + "; ".join(sample["errors"])
    if sample["status"] == "deadline":
        return f"missed its {op['deadline_s']:g} s deadline"
    last = sample.get("stderr", "").splitlines()[-1:] or [""]
    return f"exit {sample['exit']} (expected {op['expect_exit']}) {last[0]}".rstrip()


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond) for op_tail, over per-op latencies.

    The highest percentile with 10 ops beyond it; when that percentile
    would fall below the median (fewer than 20 ops) it is no tail, and
    the slowest op is reported instead.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return xs[-1], 100.0, 0
    idx = n - TAIL_BEYOND - 1
    return xs[idx], 100.0 * (idx + 1) / n, TAIL_BEYOND


def op_medians(ops: list[dict], samples: list[dict], key: str = "scaled_latency_s") -> list[float]:
    """Each op's latency: its median over the passes."""
    return [
        statistics.median(s[key] for s in samples if s["op"] == op["id"])
        for op in ops
    ]


def corpus_s(ops: list[dict], samples: list[dict]) -> float:
    """Time to checked answers for the op list: per-op median latency
    over the passes, summed over the ops."""
    return sum(op_medians(ops, samples))


def end_to_end(ops, samples) -> tuple[dict, dict]:
    lat = op_medians(ops, samples)
    setup = [s["scaled_setup_s"] for s in samples if "scaled_setup_s" in s]
    failed = sum(s["failed"] for s in samples)
    tail_value, tail_pct, beyond = tail(lat)
    raw = op_medians(ops, samples, "latency_s")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "corpus_s": (corpus_s(ops, samples), "s"),
        "op_p50_ms": (1000.0 * statistics.median(lat), "ms"),
        "op_tail_ms": (1000.0 * tail_value, "ms"),
        "ok_frac": ((len(samples) - failed) / len(samples), "ratio"),
        "peak_rss_mb": (max(s.get("rss_mib", 0.0) for s in samples), "MiB"),
    }
    info = {
        "op_tail_percentile": tail_pct,
        "op_tail_ops_beyond": beyond,
        "ops": len(lat),
        "samples": len(samples),
        "setup_samples": len(setup),
        "failed_frac": failed / len(samples),
        "probe_median_s": statistics.median(p for s in samples for p in s.get("probe_s", [])),
        "unscaled": {
            "setup_s": statistics.median(s["setup_s"] for s in samples if "setup_s" in s),
            "corpus_s": sum(raw),
            "op_p50_ms": 1000.0 * statistics.median(raw),
            "op_tail_ms": 1000.0 * tail(raw)[0],
        },
    }
    return metrics, info


def per_layer(ops, untraced, traced) -> tuple[dict, dict]:
    from tracer import LAYERS, summarize

    passes: dict[int, list[dict]] = {}
    for s in traced:
        passes.setdefault(s["pass"], []).append(s)
    rows = []
    gap = 0.0
    failed_by_type: dict[str, dict[str, int]] = {layer: {} for layer in LAYERS}
    for batch in passes.values():
        fn_self: dict[str, float] = {}
        calls: dict[str, int] = {}
        fn_failed: dict[str, int] = {}
        sizes: dict[str, int] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        layer_failed = {layer: 0 for layer in LAYERS}
        out_bytes = 0
        ran = [s for s in batch if s["trace"] is not None]
        for s in ran:
            summ = summarize(s["trace"])
            s_total = sum(summ["layer_self_s"].values())
            if not s["killed"] and s["status"] == "ok":
                gap = max(gap, abs(s_total - s["latency_s"]))
            for d, src in ((fn_self, summ["fn_self_s"]), (calls, summ["fn_calls"]),
                           (calls, summ["leaf_calls"]), (fn_failed, summ["fn_failed"]),
                           (sizes, summ["sizes"]), (layer_self, summ["layer_self_s"])):
                for k, v in src.items():
                    d[k] = d.get(k, 0) + v
            for layer, by_type in summ["layer_failed"].items():
                for exc, count in by_type.items():
                    layer_failed[layer] += count
                    bucket = failed_by_type[layer]
                    bucket[exc] = bucket.get(exc, 0) + count
            out_bytes += s["output_bytes"]
        n_ops = max(1, len(ran))
        walk = calls.get("spectral.eigenvalue_formula", 0)
        row = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        row.update({f"{layer}.failed": layer_failed[layer] for layer in LAYERS})
        for name in SELF_TIME_FNS:
            row[f"{name}.self_s"] = fn_self.get(name, 0.0)
        row["core.perron_frobenius.failed"] = fn_failed.get("core.perron_frobenius", 0)
        row["core.perron_frobenius.calls_per_op"] = calls.get("core.perron_frobenius", 0) / n_ops
        row["symmetry.automorphism_group.calls_per_op"] = calls.get("symmetry.automorphism_group", 0) / n_ops
        row["core.enumerate_words.words"] = sizes.get("core.enumerate_words", 0)
        row["spectral.eigenvalue_formula.calls"] = walk
        row["spectral.walk_yield"] = sizes.get("spectral.spectrum", 0) / walk if walk else 0.0
        row["symmetry.matrix_automorphisms.results"] = sizes.get("symmetry.matrix_automorphisms", 0)
        row["quantum.build_constraints.equations"] = sizes.get("quantum.build_constraints", 0)
        row["quantum.word_support.pairs"] = sizes.get("quantum.word_support", 0)
        row["models.relation_check.words_checked"] = sizes.get("models.relation_check", 0)
        row["cli.output_bytes"] = out_bytes
        rows.append(row)
    traced_corpus = corpus_s(ops, traced)
    untraced_corpus = corpus_s(ops, untraced)
    units = {}
    metrics = {}
    for key in rows[0]:
        metrics[key] = statistics.median(r[key] for r in rows)
        if key.endswith("_s"):
            units[key] = "s"
        elif key == "cli.output_bytes":
            units[key] = "B"
        elif key.endswith(("_per_op", "walk_yield")):
            units[key] = "ratio"
        else:
            units[key] = "count"
    metrics["trace.corpus_s"] = traced_corpus
    metrics["trace.overhead_s"] = traced_corpus - untraced_corpus
    metrics["trace.selfsum_gap_s"] = gap
    units.update({"trace.corpus_s": "s", "trace.overhead_s": "s", "trace.selfsum_gap_s": "s"})
    info = {"untraced_corpus_s": untraced_corpus, "failed_by_type": failed_by_type}
    return {k: (v, units[k]) for k, v in metrics.items()}, info


def src_lines() -> int:
    return sum(
        sum(1 for line in p.read_text().splitlines() if line.strip())
        for p in sorted((SRC / "shiftlab").glob("*.py"))
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "shiftlab" / "cli.py").is_file():
        fail_setup(f"no shiftlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import shiftlab
    import numpy as np

    if Path(shiftlab.__file__).resolve().parent != SRC / "shiftlab":
        fail_setup(f"imported shiftlab from {shiftlab.__file__}, not from {SRC}")
    from oracle import Checker
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail_setup(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    build, pass_s = WORKLOADS[args.workload]
    started = now()
    ops = build(args.seed)
    for i, op in enumerate(ops):
        op["idx"] = i
    passes = max(1, round(args.seconds / pass_s))
    if args.trace:
        passes = max(1, passes // 2)

    results_dir = HERE / "results"
    tmp = results_dir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    checker = Checker()
    samples: list[dict] = []
    try:
        paths = {}
        for op in ops:
            if op["matrix"] is not None and op["fingerprint"] not in paths:
                p = tmp / f"in-{op['fingerprint']}.json"
                p.write_text(json.dumps({"n": len(op["matrix"]), "a": op["matrix"]}))
                paths[op["fingerprint"]] = p
        setup_done = now()
        missed: set[str] = set()
        for pass_no in range(passes):
            for op in ops:
                # traced first: a deadline miss then still leaves its spans
                for traced in ([True, False] if args.trace else [False]):
                    if op["id"] in missed:
                        sample = {"op": op["id"], "traced": traced, "killed": False,
                                  "status": "deadline", "carried": True, "exit": None,
                                  "latency_s": op["deadline_s"], "trace": None,
                                  "output_bytes": 0, "errors": [], "wrong": False, "failed": True}
                    else:
                        sample = run_op(op, paths, traced, tmp)
                        judge(op, sample, checker)
                        if sample["status"] == "deadline":
                            missed.add(op["id"])
                    sample["pass"] = pass_no
                    samples.append(sample)
        measured_s = now() - setup_done
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if not any("setup_s" in s for s in samples):
        fail_setup("no op got as far as importing shiftlab.cli: " + samples[0]["stderr"])
    scale_by_speed(samples)
    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    metrics, info = end_to_end(ops, untraced)
    if args.trace:
        metrics, layer_info = per_layer(ops, untraced, traced)
        info.update(layer_info)
    wrong = [s for s in samples if s["wrong"]]
    failed = [s for s in samples if s["failed"]]
    failing_ops = sorted({s["op"] for s in failed})

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "seconds_per_pass": pass_s,
        "measured_s": measured_s,
        "wall_s": now() - started,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "os": platform.platform(),
        "nproc": os.cpu_count(),
        "src_nonblank_lines": src_lines(),
        "ops": [
            {k: op[k] for k in ("id", "input", "cmd", "args", "fingerprint", "deadline_s", "expect_exit")}
            for op in ops
        ],
        "info": info,
        "failing_ops": {
            op_id: sorted({why_failed(op, s) for s in failed if s["op"] == op_id})
            for op_id, op in ((op["id"], op) for op in ops) if op_id in failing_ops
        },
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": [{k: v for k, v in s.items() if k != "trace"} for s in samples],
    }
    results_dir.mkdir(exist_ok=True)
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  passes {passes}  ops {len(ops)}  "
          f"samples {len(untraced)}  src lines {record['src_nonblank_lines']}")
    for op in ops:
        print(f"  {op['id']:<28} {op['fingerprint'] or '-':<16}  deadline {op['deadline_s']:.0f} s")
    for op_id, reasons in record["failing_ops"].items():
        print(f"  FAILED {op_id}: {' | '.join(reasons)}")
    print(f"  op_tail at p{info['op_tail_percentile']:.1f} of {info['ops']} per-op latencies "
          f"({info['op_tail_ops_beyond']} beyond); failed_frac {info['failed_frac']:.4f}")
    unscaled = info.get("unscaled", {})
    for name, (value, unit) in metrics.items():
        raw = f"  (unscaled {unscaled[name]:.6g})" if name in unscaled else ""
        print(f"  {name:<44} {value:.6g} {unit}{raw}")
    print(f"  speed probe median {info['probe_median_s'] * 1000:.2f} ms "
          f"(times scaled to {PROBE_REF_S * 1000:.0f} ms)")
    print(f"  record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
