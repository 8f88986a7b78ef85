"""One benchmark op: a fresh interpreter that runs ``shiftlab.cli.main`` once.

Usage (from the benchmark, never by hand):
    python3 perfbench/opchild.py META_PATH TRACE(0|1) -- CLI ARGS...

Writes META_PATH as JSON: the monotonic clock right after
``import shiftlab.cli`` (the parent subtracts its spawn time to get the
set-up time), the latency of the ``main`` call, its exit code, the peak
resident memory, a speed probe before and after ``main``, and with
TRACE=1 the spans.  On SIGTERM (deadline missed) it writes what it has,
marked killed, and exits.
"""

import json
import os
import resource
import signal
import sys
import time

import shiftlab.cli  # timed: this import is the op's set-up cost

READY = time.clock_gettime(time.CLOCK_MONOTONIC)


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop: the machine's speed right now.

    On a shared machine that speed swings by a third within seconds; the
    benchmark scales each op's times by it (see run.py)."""
    start = time.perf_counter()
    counts: dict = {}
    acc = 0.0
    for i in range(60_000):
        key = (i % 7, i % 11)
        counts[key] = counts.get(key, 0) + 1
        acc += (i % 13) * 0.5
    return time.perf_counter() - start


def peak_rss_kib() -> int:
    """This interpreter's own high-water mark.  ru_maxrss is not: Linux
    carries the spawning process's peak over fork and exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    meta_path, trace_flag = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1 :]
    meta = {"ready": READY, "killed": False}
    tracer = None
    if trace_flag:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        meta["wrapped"] = tracer.install()

    def write_meta() -> None:
        meta["maxrss_kib"] = peak_rss_kib()
        if tracer is not None:
            meta["trace"] = tracer.dump()
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)

    def on_term(signum, frame):
        meta["killed"] = True
        if tracer is not None:
            tracer.close_open_spans()
        write_meta()
        os._exit(124)

    signal.signal(signal.SIGTERM, on_term)
    meta["probe_s"] = [speed_probe()]
    start = time.perf_counter()
    try:
        code = shiftlab.cli.main(argv)
    except Exception as exc:  # an untyped error is what a user would see
        import traceback

        traceback.print_exc()
        meta["exception"] = type(exc).__name__
        code = 1
    meta["latency_s"] = time.perf_counter() - start
    meta["exit"] = code
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    meta["probe_s"].append(speed_probe())
    write_meta()
    sys.exit(code)


if __name__ == "__main__":
    main()
