"""Exception types shared across the library.

Every failure mode a caller can trigger through the public API maps to
one of these; internal assertion errors always indicate bugs.
"""


class ShiftLabError(Exception):
    """Base class for all library errors."""


class NotZeroOne(ShiftLabError):
    """Adjacency matrix contains an entry outside {0, 1}."""


class NotPrimitive(ShiftLabError):
    """Matrix is reducible or periodic (no power is strictly positive)."""


class NonConvergence(ShiftLabError):
    """Perron-Frobenius eigenvector failed its positivity or residual check."""


class LengthOverflow(ShiftLabError):
    """An enumeration would exceed the configured cap."""


class NotAdmissible(ShiftLabError):
    """Word contains a forbidden transition."""


class LastLetterMismatch(ShiftLabError):
    """Support decomposition requires both words to share a last letter."""


class PrefixMismatch(ShiftLabError):
    """Eigenvalue formula requires nu to extend the base word."""


class NotClosed(ShiftLabError):
    """Bisection list is not closed under the requested relabeling."""


class Inconsistent(ShiftLabError):
    """Constraint propagation derived a contradiction."""


class DegenerateAngle(ShiftLabError):
    """Two-projection model needs an angle strictly inside (0, pi/2)."""


class NotBiunitary(ShiftLabError):
    """Vector grid rows/columns are not simultaneously orthonormal."""


class IndexClash(ShiftLabError):
    """Normality element needs pairwise-distinct indices and n >= 4."""


class NotProjection(ShiftLabError):
    """Operand is not a self-adjoint idempotent at tolerance."""


class ParseError(ShiftLabError):
    """Input file or command-line argument does not match its schema."""
