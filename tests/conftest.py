import os

# One BLAS thread, as `run_child` gives its children: idle BLAS workers spin
# while they wait for a core, and that spin counts in this process's CPU
# time, which `budget` bounds.  BLAS reads these as it loads, so they are set
# before numpy is imported.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

import shiftlab
from shiftlab import AdjacencySpec, perron_frobenius
from shiftlab.symmetry import GraphAutomorphism
from oracles import least_positive_power

FIBONACCI = [[1, 1], [1, 0]]


def wielandt(n):
    """Cycle 1 -> 2 -> ... -> n -> 1 plus the chord n -> 2."""
    a = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        a[i][i + 1] = 1
    a[n - 1][0] = a[n - 1][1] = 1
    return a


# pinned by exhaustive scan: primitive, constant row sums, trivial
# automorphism group; propagation leaves everything free, so the level-2
# verdict is Unknown (regression exhibit)
UNKNOWN_EXHIBIT = [
    [0, 0, 1, 1],
    [0, 0, 1, 1],
    [0, 1, 0, 1],
    [1, 0, 0, 1],
]

# argv that the CLI's parser settles: no command, top help, version and an
# unknown command; each command's help, in the order of the help listing;
# and flag errors.  --inp is an accepted abbreviation, so that case ends at
# the loader's "cannot read"; no other case reads a file
PARSER_ARGV = [
    [],
    ["--help"],
    ["--version"],
    ["bogus"],
    *(
        [command, "--help"]
        for command in (
            "pf", "measures", "spectrum", "autgroup", "classical-fix", "pattern",
            "ergodicity", "t-a", "repmodel", "report",
        )
    ),
    ["pf"],
    ["pf", "--input", "fib.json", "--tol", "x"],
    ["spectrum", "--input", "fib.json", "--cutoff", "abc"],
    ["repmodel", "--model", "nope"],
    ["ergodicity", "--input", "fib.json", "--level"],
    ["pf", "--input", "fib.json", "--bogus"],
    ["pf", "--input", "fib.json", "stray"],
    ["pf", "--inp", "/nonexistent/fib.json"],
]


def cut_wall_time(text):
    """A report's text up to its run-varying tail, which starts at the last
    ``"wall_time_ms"``: the bytes two runs of one call must share."""
    return text[: text.rfind('"wall_time_ms"')]


@st.composite
def irreducible_matrices(draw, max_n=12):
    """Random 0/1 matrices over a random n-cycle (irreducible), n = 2..max_n."""
    n = draw(st.integers(2, max_n))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    order = draw(st.permutations(range(n)))
    a = [[int(bits[i * n + j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        a[order[i]][order[(i + 1) % n]] = 1
    return a


@st.composite
def primitive_matrices(draw, max_n=12):
    """The primitive ones among :func:`irreducible_matrices`."""
    a = draw(irreducible_matrices(max_n))
    assume(least_positive_power(a) is not None)
    return a


@st.composite
def primitive_circulants(draw, max_n):
    """a[i][j] = c[(j - i) % n] with c[1] = 1: rotation is an automorphism."""
    n = draw(st.integers(2, max_n))
    c = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    c[1] = True
    a = [[int(c[(j - i) % n]) for j in range(n)] for i in range(n)]
    assume(least_positive_power(a) is not None)
    return a


def random_primitive(n, seed):
    """10% ones over an n-cycle with one loop: primitive, and (as random
    graphs go) with pairwise distinct PF entries."""
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < 0.1).astype(int)
    a[np.arange(n), (np.arange(n) + 1) % n] = 1
    a[0, 0] = 1
    return a.tolist()


# The child reads its own peak RSS (VmHWM) and CPU time as it exits, so a
# parent with numpy loaded measures it as well as a bare parent would:
# Linux carries a parent's peak RSS into its child's ru_maxrss across fork
# and exec, but not into the child's VmHWM.  The figures are the last line
# of the child's stderr; the peak reads nan where there is no /proc.
_MEASURED = """\
import atexit, resource, sys
def _measure():
    try:
        peak = open('/proc/self/status').read().split('VmHWM:')[1].split()[0]
    except OSError:
        peak = 'nan'
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(peak, usage.ru_utime + usage.ru_stime, file=sys.stderr)
atexit.register(_measure)
"""
# what `python -m shiftlab.cli` runs
_CLI = (
    "import runpy\n"
    "runpy.run_module('shiftlab.cli', run_name='__main__', alter_sys=True)\n"
)

NEEDS_VMHWM = pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="the child reads VmHWM"
)


@dataclass(frozen=True)
class ChildRun:
    returncode: int
    stdout: str
    stderr: str  # without the figures' line
    peak_mib: float  # the child's VmHWM
    cpu_s: float  # the child's user + system time


def run_child(call, cap=None, cwd=None) -> ChildRun:
    """Run `python -m shiftlab.cli *call` when ``call`` is a list of
    arguments, or the Python snippet ``call`` when it is a string, in a
    fresh interpreter on this checkout's shiftlab: under the default
    ARIADNE_CAP, or under ``cap`` when one is given.  The child runs one
    BLAS thread: idle BLAS workers spin while they wait for a core, and
    their time would count in the child's CPU time on a busy machine."""
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(shiftlab.__file__).parents[1]),
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    env.pop("ARIADNE_CAP", None)
    if cap is not None:
        env["ARIADNE_CAP"] = str(cap)
    script, argv = (call, []) if isinstance(call, str) else (_CLI, list(call))
    proc = subprocess.run(
        [sys.executable, "-c", _MEASURED + script, *argv],
        capture_output=True, env=env, cwd=cwd, text=True, timeout=300,
    )
    lines = proc.stderr.splitlines(keepends=True)
    figures = lines.pop().split() if lines else []
    assert len(figures) == 2, f"no figures, exit {proc.returncode}: {proc.stderr}"
    return ChildRun(
        proc.returncode, proc.stdout, "".join(lines),
        float(figures[0]) / 1024, float(figures[1]),
    )


@contextmanager
def budget(cpu_s=None, traced_mib=None):
    """Bound one figure of the block, and yield a namespace that holds it on
    exit: ``cpu_s``, the block's CPU time in this process
    (``time.process_time()``: user plus system, all threads), in s; or
    ``traced_mib``, its ``tracemalloc`` peak, in MiB.  CPU time, so other
    processes' load does not count; and with one BLAS thread (above), BLAS
    workers spinning for a core do not count either.  Tracing slows the
    block, so a block bounded on both figures runs once under each."""
    assert (cpu_s is None) != (traced_mib is None), "bound one figure"
    spent = SimpleNamespace()
    if cpu_s is not None:
        start = time.process_time()
        yield spent
        spent.cpu_s = time.process_time() - start
        assert spent.cpu_s < cpu_s, f"{spent.cpu_s:.3f} s of CPU, bound {cpu_s} s"
        return
    tracemalloc.start()
    try:
        yield spent
        spent.traced_mib = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert spent.traced_mib < traced_mib, (
        f"traced peak {spent.traced_mib:.1f} MiB, bound {traced_mib} MiB"
    )


def sample_phase_vectors(n):
    """Deterministic unimodular samples used by the residual suite."""
    roots = [1.0 + 0.0j, 1.0j, -1.0 + 0.0j, np.exp(2.0j * np.pi / 7.0)]
    vectors = []
    for k, z in enumerate(roots):
        vec = tuple(z ** ((i + k) % 3 + 1) for i in range(n))
        vectors.append(tuple(v / abs(v) for v in vec))
    return vectors


def swap_permutation(n, i, j):
    perm = list(range(1, n + 1))
    perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
    return GraphAutomorphism(tuple(perm))


def fourier_qls_vectors(n):
    """Shift-modulate grid of a flat chirp: orthonormal rows and columns.

    For even n the quadratic chirp exp(i pi k^2 / n) is flat in both
    position and frequency, so its translates (row index) and modulates
    (column index) form a vector grid with orthonormal rows and columns.
    """
    k = np.arange(n)
    v = np.exp(1j * np.pi * k * k / n) / np.sqrt(n)
    vectors = np.zeros((n, n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            vectors[a, b] = np.roll(v, a) * np.exp(2j * np.pi * b * k / n)
    return vectors


def random_projection(dim, rank, rng):
    m = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    q, _ = np.linalg.qr(m)
    return q @ q.conj().T


@pytest.fixture(scope="session")
def fib():
    return AdjacencySpec.from_matrix(FIBONACCI)


@pytest.fixture(scope="session")
def full2():
    return AdjacencySpec.full_shift(2)


@pytest.fixture(scope="session")
def full3():
    return AdjacencySpec.full_shift(3)


@pytest.fixture(scope="session")
def fib_pf(fib):
    return perron_frobenius(fib)


@pytest.fixture(scope="session")
def full2_pf(full2):
    return perron_frobenius(full2)


@pytest.fixture(scope="session")
def full3_pf(full3):
    return perron_frobenius(full3)
