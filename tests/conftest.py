import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

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
