"""The four workloads: fixed corpus matrices, seeded random ones, and the op lists.

Random matrices come from the run's --seed and are checked for primitivity
by this file's own graph code (strong connectivity plus period 1), never by
shiftlab: the library's scan runs to the Wielandt bound for every rejected
candidate, which takes minutes at n = 128.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

FIBONACCI = [[1, 1], [1, 0]]
UNKNOWN_EXHIBIT = [[0, 0, 1, 1], [0, 0, 1, 1], [0, 1, 0, 1], [1, 0, 0, 1]]

# A deadline of 3x the op's latency at the seed, and at least this.
MIN_DEADLINE_S = 5.0


def full_shift(n: int) -> list[list[int]]:
    return [[1] * n for _ in range(n)]


def wielandt(n: int) -> list[list[int]]:
    """The primitive matrix whose exponent attains n^2 - 2n + 2."""
    a = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        a[i][i + 1] = 1
    a[n - 1][0] = 1
    a[n - 1][1] = 1
    return a


def cycle(n: int) -> list[list[int]]:
    """Irreducible with period n: imprimitive."""
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][(i + 1) % n] = 1
    return a


def fingerprint(a: list[list[int]]) -> str:
    """The same digest shiftlab's CLI reports (canonical JSON, sha256)."""
    canon = json.dumps({"n": len(a), "a": [list(r) for r in a]})
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _reach(adj: list[list[int]], start: int) -> list[int]:
    """BFS levels from start (-1 where unreachable)."""
    level = [-1] * len(adj)
    level[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for i in frontier:
            for j in adj[i]:
                if level[j] < 0:
                    level[j] = level[i] + 1
                    nxt.append(j)
        frontier = nxt
    return level


def is_primitive(a: np.ndarray) -> bool:
    """Irreducible (strongly connected) and aperiodic (period 1)."""
    n = a.shape[0]
    out = [list(np.flatnonzero(a[i])) for i in range(n)]
    inn = [list(np.flatnonzero(a[:, j])) for j in range(n)]
    level = _reach(out, 0)
    if min(level) < 0 or min(_reach(inn, 0)) < 0:
        return False
    period = 0
    for i in range(n):
        for j in out[i]:
            period = math.gcd(period, level[i] + 1 - level[j])
    return period == 1


def _pf_vector(a: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eig(a.astype(float))
    u = np.abs(vecs[:, int(np.argmax(vals.real))].real)
    return u / u.sum()


def random_primitive(rng: np.random.Generator, n: int, ones: int) -> list[list[int]]:
    """Uniform draw of an n x n 0/1 matrix with exactly `ones` ones,
    rejected until primitive with pairwise distinct PF entries.

    A fixed count of ones fixes the number of length-2 words, so the cost
    of the word-pair ops does not swing with the seed.  Distinct PF
    entries (no automorphism, no tie the PF rule cannot split) are what
    random graphs have, and they give pattern and ergodicity a closed form.
    """
    while True:
        flat = np.zeros(n * n, dtype=np.int64)
        flat[rng.choice(n * n, size=ones, replace=False)] = 1
        a = flat.reshape(n, n)
        if not is_primitive(a):
            continue
        u = np.sort(_pf_vector(a))
        if np.min(np.diff(u)) <= 1e-6 * u[-1]:
            continue
        return a.tolist()


def random_small(rng: np.random.Generator) -> list[list[int]]:
    """Primitive 3 x 3 with seven ones.  Sparser n = 3 matrices have
    spectrum costs that swing 100-fold with the draw (the slowest, with the
    smallest lambda, is Wielandt n = 3, already a fixed member)."""
    while True:
        flat = np.ones(9, dtype=np.int64)
        flat[rng.choice(9, size=2, replace=False)] = 0
        a = flat.reshape(3, 3)
        if is_primitive(a):
            return a.tolist()


def qls_seed(seed: int) -> int:
    """A seed for `repmodel --model qls` on which the model exists."""
    from shiftlab.errors import NotBiunitary
    from shiftlab.models import random_qls_vectors

    k = seed
    while True:
        try:
            random_qls_vectors(4, seed=k)
            return k
        except NotBiunitary:
            k += 1


def _op(workload, name, cmd, matrix=None, args=(), nominal_s=0.1, exit=0, **extra):
    op = {
        "id": f"{cmd}:{name}",
        "workload": workload,
        "input": name,
        "cmd": cmd,
        "args": list(args),
        "matrix": matrix,
        "fingerprint": fingerprint(matrix) if matrix is not None else None,
        "deadline_s": max(MIN_DEADLINE_S, 3.0 * nominal_s),
        "expect_exit": exit,
    }
    if name.startswith("wielandt"):
        n = len(matrix)
        op["exponent"] = n * n - 2 * n + 2
    op.update(extra)
    return op


def report_corpus(seed: int) -> list[dict]:
    w = "report-corpus"
    rng = np.random.default_rng([seed, 1])
    ops = [
        _op(w, "fib", "report", FIBONACCI),
        _op(w, "full2", "report", full_shift(2)),
        _op(w, "full3", "report", full_shift(3), nominal_s=11.0),
        # A healthy full-4 report takes under 0.5 s outside t-a, so the
        # minimum deadline is ample; at the seed t-a lists S_16 and hangs.
        _op(w, "full4", "report", full_shift(4)),
        _op(w, "unknown", "report", UNKNOWN_EXHIBIT, nominal_s=5.0),
        _op(w, "wielandt3", "report", wielandt(3), nominal_s=3.0),
    ]
    for k in range(2):
        ops.append(_op(w, f"rand3-{k}", "report", random_small(rng)))
    return ops


def spectrum_deep(seed: int) -> list[dict]:
    w = "spectrum-deep"

    def spec(name, a, cutoff, nominal_s=0.3):
        return _op(w, name, "spectrum", a, ("--cutoff", str(cutoff)), nominal_s, cutoff=cutoff)

    # Cutoffs chosen so every op walks for at least half a second: the
    # median op is then not a sub-second sample at the mercy of the clock.
    return [
        spec("fib", FIBONACCI, 9, nominal_s=5.0),
        spec("full2", full_shift(2), 8, nominal_s=0.7),
        spec("unknown", UNKNOWN_EXHIBIT, 4.5, nominal_s=0.7),
        spec("wielandt3", wielandt(3), 4.5, nominal_s=0.7),
        spec("wielandt4", wielandt(4), 3.5, nominal_s=1.2),
    ]


def symmetry_models(seed: int) -> list[dict]:
    w = "symmetry-models"
    ops = []
    for n in (5, 6, 7):
        a = full_shift(n)
        ops.append(_op(w, f"full{n}", "autgroup", a))
        ops.append(_op(w, f"full{n}", "classical-fix", a, ("--level", "3"), 2.0, level=3))
        ops.append(_op(w, f"full{n}", "ergodicity", a, ("--level", "3"), level=3))
    ops.append(
        _op(w, "two-projection", "repmodel", None,
            ("--model", "two-projection", "--ell", "3"), 0.6, model="two-projection", ell=3)
    )
    k = qls_seed(seed)
    ops.append(
        _op(w, "qls", "repmodel", None,
            ("--model", "qls", "--size", "4", "--ell", "3", "--seed", str(k)), 5.0,
            model="qls", ell=3, size=4, qls_seed=k)
    )
    ops.append(
        _op(w, "classical", "repmodel", None,
            ("--model", "classical", "--size", "4", "--ell", "3"), 0.6,
            model="classical", ell=3, size=4)
    )
    return ops


def large_alphabet(seed: int) -> list[dict]:
    w = "large-alphabet"
    rng = np.random.default_rng([seed, 4])
    ops = []
    for n in (64, 96, 128):
        a = random_primitive(rng, n, round(0.1 * n * n))
        name = f"rand{n}"
        # pattern and ergodicity compute PF data first, so a separate pf op
        # is kept only at the largest size
        if n == 128:
            ops.append(_op(w, name, "pf", a))
        ops.append(_op(w, name, "pattern", a, nominal_s=1.2))
        ops.append(_op(w, name, "ergodicity", a, ("--level", "2"), 5.0, level=2))
    ops.append(_op(w, "wielandt16", "pf", wielandt(16)))
    ops.append(_op(w, "wielandt24", "pf", wielandt(24)))
    ops.append(_op(w, "cycle64", "pf", cycle(64), nominal_s=1.1, exit=3))
    return ops


# name -> (op-list builder, seconds of --seconds that buy one pass).  At
# --seconds 24 that is 2 passes each; a report-corpus run overruns
# (a pass takes about 20 s) because one sample per op is too noisy.
WORKLOADS = {
    "report-corpus": (report_corpus, 12.0),
    "spectrum-deep": (spectrum_deep, 11.0),
    "symmetry-models": (symmetry_models, 11.0),
    "large-alphabet": (large_alphabet, 11.0),
}
