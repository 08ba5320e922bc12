"""Thin SVDs plus relative singular-value truncation.

Two entry points, both on numpy's LAPACK routines:

- :func:`right_svd` returns only sigma and V^T, from a Householder QR of the
  input (R factor only) followed by the SVD of that small R. Every scoring
  path needs no more from its sketch: the basis is ``A V diag(1/sigma)``
  (for the exact method, from its internal sketch, or from A itself when A
  is its own sketch), so a left factor would be built only to be thrown
  away. ``A = Q R`` with Q orthonormal gives A and R the same sigma and V,
  and the route is backward stable like the full SVD (LAPACK's
  divide-and-conquer SVD itself starts with a QR on tall inputs); nothing
  is inverted or squared.
- :func:`thin_svd` returns all three factors. The exact method uses it on
  its small k x k factor ``R_A``, whose left factor rotates the basis; on
  anything tall it is the reference that tests and benchmarks compare
  against.

The truncation threshold is always RELATIVE to the largest singular value,
which keeps it scale-invariant (exposed on the CLI as ``--sv-tol``).
"""

from dataclasses import dataclass

import numpy as np

from .config import ensure_capacity
from .errors import ConfigurationError, DegenerateInputError
from .matrix import as_matrix


@dataclass
class SvdResult:
    """Thin SVD ``a = u @ diag(sigma) @ vt`` with sigma descending; ``u`` is
    None when only the right factor was computed."""

    u: np.ndarray | None  # n x r, orthonormal columns
    sigma: np.ndarray     # r, descending, nonnegative
    vt: np.ndarray        # r x d, orthonormal rows

    @property
    def rank(self) -> int:
        return self.sigma.shape[0]


def thin_svd(a: np.ndarray) -> SvdResult:
    """Thin SVD of a dense matrix, left factor included.

    Checked against the memory cap first: LAPACK works on a Fortran-order copy
    of the input and numpy holds U and V^T both in LAPACK's buffers and in the
    returned arrays, so an m x n input with r = min(m, n) is counted as
    ``4*m*n + 7*r*r`` float64 elements (numpy 2.4 with OpenBLAS peaks at about
    ``3.3*m*n`` on tall and ``3.7*m*n`` on wide inputs).
    Backend non-convergence (rare) surfaces as numpy.linalg.LinAlgError.
    """
    a = as_matrix(a)
    m, n = a.shape
    r = min(m, n)
    ensure_capacity(8 * (4 * m * n + 7 * r * r), f"thin SVD of a {m}x{n} matrix")
    u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    return SvdResult(u=u, sigma=sigma, vt=vt)


def right_svd(a: np.ndarray) -> SvdResult:
    """Singular values and right singular vectors of a dense matrix, from the
    thin SVD of its R factor; ``u`` is None.

    For an m x n input with m > n, only the QR touches all m rows; the SVD runs
    on the n x n factor, and no m x n left factor is accumulated. Checked
    against the memory cap first: a Fortran-order copy of the input, numpy's
    copy of that and LAPACK's, tau, R, and the thin SVD of R as counted by
    :func:`thin_svd`, ``3*m*n + 5*r*n + 7*r*r + r`` float64 elements with
    r = min(m, n).
    """
    return _right_svd(as_matrix(a))


def _right_svd(a: np.ndarray) -> SvdResult:
    """:func:`right_svd` of a matrix already validated by ``as_matrix``."""
    m, n = a.shape
    r = min(m, n)
    ensure_capacity(8 * (3 * m * n + 5 * r * n + 7 * r * r + r), f"R-factor SVD of a {m}x{n} matrix")
    # LAPACK works in column-major order: numpy's qr copies a Fortran-order
    # input into its buffer and back as is, a C-order one by transposing it
    # both ways, which costs more than this copy. R is the same bit for bit.
    _, sigma, vt = np.linalg.svd(np.linalg.qr(np.asfortranarray(a), mode="r"), full_matrices=False)
    return SvdResult(u=None, sigma=sigma, vt=vt)


def singular_values(a: np.ndarray) -> np.ndarray:
    """All singular values, descending: the spectrum figure's data, from
    :func:`right_svd` and under its memory-cap figure."""
    return right_svd(a).sigma


def truncate(svd: SvdResult, threshold: float) -> SvdResult:
    """Drop singular components with ``sigma_j <= threshold * sigma_1``.

    The comparison is strict (components are kept iff
    ``sigma_j > threshold * sigma_1``), so ``threshold=0`` keeps exactly the
    strictly positive components and at least one component survives whenever
    ``sigma_1 > 0``. Idempotent at a fixed threshold. A missing left factor
    stays missing.
    """
    if not 0 <= threshold < 1:
        raise ConfigurationError(f"truncation threshold must be in [0, 1), got {threshold}")
    sigma = svd.sigma
    if sigma.shape[0] == 0 or sigma[0] <= 0:
        raise DegenerateInputError("cannot truncate an all-zero matrix (largest singular value is 0)")
    r: int = int(np.count_nonzero(sigma > threshold * sigma[0]))
    u = None if svd.u is None else svd.u[:, :r]
    return SvdResult(u=u, sigma=sigma[:r], vt=svd.vt[:r, :])
