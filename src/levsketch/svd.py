"""Thin SVDs plus relative singular-value truncation.

Two entry points, both on numpy's LAPACK routines:

- :func:`right_svd` returns only sigma and V^T, above a relative cut
  ``sv_tol`` when one is given: the one SVD every scoring pipeline calls.
  They need no more from their sketch: the basis is ``A V diag(1/sigma)``
  (for the exact method, from its internal sketch, or from A itself when A
  is its own sketch), so a left factor would be built only to be thrown
  away. Its route follows ``sv_tol`` alone (:func:`svd_route`). With no cut,
  or one below :data:`GRAM_SV_TOL_FLOOR`, it is the SVD of the input's R
  factor: ``A = Q R`` with Q orthonormal gives A and R the same sigma and V,
  the route is backward stable like the full SVD (LAPACK's
  divide-and-conquer SVD itself starts with a QR on tall inputs), and it
  resolves every component down to rounding, as the uncorrected sketched
  method (which inverts all of them) and the exact method need. From the
  floor up it is the Gram matrix plus one Cholesky QR pass, at the BLAS
  rate, which the truncated sketched method takes at its usual cuts.
- :func:`thin_svd` returns all three factors. The exact method uses it on
  its small k x k factor ``R_A``, whose left factor rotates the basis; on
  anything tall it is the reference that tests and benchmarks compare
  against.

Both refuse a finite input whose factors overflow with the FormatError of a
non-finite one, so that no SVD hangs on an infinite R factor or returns an
infinite sigma_1.

The truncation threshold is always RELATIVE to the largest singular value,
which keeps it scale-invariant (exposed on the CLI as ``--sv-tol``).
"""

from dataclasses import dataclass

import numpy as np

from .config import ensure_capacity
from .errors import ConfigurationError, DegenerateInputError, FormatError
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
    Backend non-convergence (rare) surfaces as numpy.linalg.LinAlgError, and
    a sigma_1 that overflows (finite entries near the overflow threshold) as
    the FormatError of a non-finite input.
    """
    a = as_matrix(a)
    m, n = a.shape
    r = min(m, n)
    ensure_capacity(8 * (4 * m * n + 7 * r * r), f"thin SVD of a {m}x{n} matrix")
    u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    return SvdResult(u=u, sigma=_finite(sigma), vt=vt)


# The smallest relative cut that takes the Gram route of :func:`right_svd`.
GRAM_SV_TOL_FLOOR = 1e-4


def svd_route(sv_tol: float | None) -> str:
    """The route :func:`right_svd` takes at ``sv_tol``, by the name a run's
    report records: ``"gram_cholesky_qr"`` from :data:`GRAM_SV_TOL_FLOOR`
    up, ``"householder_qr"`` below it and for None. An ``sv_tol`` outside
    [0, 1) raises ConfigurationError."""
    if sv_tol is None:
        return "householder_qr"
    if not 0 <= sv_tol < 1:  # NaN fails too
        raise ConfigurationError(f"sv_tol must be in [0, 1), got {sv_tol}")
    return "gram_cholesky_qr" if sv_tol >= GRAM_SV_TOL_FLOOR else "householder_qr"


def right_svd(a: np.ndarray, sv_tol: float | None = None) -> SvdResult:
    """Singular values and right singular vectors of a dense matrix, those
    above ``sv_tol`` times the largest when a cut is given; ``u`` is None.

    The input is validated once by ``as_matrix``; an ``sv_tol`` outside
    [0, 1) raises ConfigurationError first. The route follows ``sv_tol``
    alone (:func:`svd_route`):

    - None, or a cut below :data:`GRAM_SV_TOL_FLOOR`: the thin SVD of the R
      factor of a Householder QR, then :func:`truncate` at the cut. For an
      m x n input with m > n only the QR touches all m rows, and no m x n
      left factor is accumulated. Checked against the memory cap first: a
      Fortran-order copy of the input, numpy's copy of that and LAPACK's,
      tau, R, and the thin SVD of R as counted by :func:`thin_svd`,
      ``3*m*n + 5*r*n + 7*r*r + r`` float64 elements with r = min(m, n).
    - A cut from the floor up: the Gram matrix plus one Cholesky QR pass,
      two m x n x n products and small n x n factorizations in place of a
      Householder QR of all m rows, which runs far below the BLAS rate. Up
      to rounding it gives what the R factor does (SVQB, Stathopoulos & Wu,
      SISC 2002; CholeskyQR2, Fukaya et al., ScalA 2014):

      1. ``A^T A = V diag(lam) V^T`` by ``eigh``; keep the components with
         ``sqrt(lam) > (sv_tol/2) sigma_1``, as V_1 and Sigma_1.
      2. ``Q = A V_1 Sigma_1^-1``, one m x n x r GEMM.
      3. ``Q^T Q = C^T C``, a Cholesky factorization.
      4. ``A V_1 = Z C Sigma_1`` with ``Z = Q C^-1`` orthonormal, so sigma
         and V^T are those of the r x n matrix ``C Sigma_1 V_1^T``: its thin
         SVD, cut at ``sv_tol``.

      The input is first scaled by the power of two that brings its largest
      entry into [1/2, 1): that is exact, and the Gram neither overflows
      nor underflows. An all-zero input raises DegenerateInputError.
      Checked against the memory cap first: the scaled copy of the input,
      Q, and the n x n factorizations (the Gram, ``eigh``'s copy,
      eigenvectors and workspace, V_1 Sigma_1^-1, Q^T Q and C,
      ``C Sigma_1 V_1^T`` and its thin SVD as counted by :func:`thin_svd`),
      ``2*m*n + 17*n*n + 2*n`` float64 elements.

    The floor. The Gram and its ``eigh`` err by about ``n u sigma_1^2`` (u =
    2^-53), so step 1 measures a component at the cut ``(sv_tol/2) sigma_1``
    to ``4 n u / sv_tol^2`` of its lam: at sv_tol = 1e-4 that is n * 4.4e-8,
    1.1e-5 at n = 256, against a margin of 4 in lam between the cut and any
    component kept at the end. The same error leaves each kept right vector
    tilted towards the dropped ones by up to about ``n u sigma_1^2 /
    (sigma_i^2 - sigma_j^2) <= (4/3) n u / sv_tol^2``, which steps 2-4 cannot
    undo since they act inside the span of V_1; scores built on V inherit
    that, ``n u / sv_tol^2``, at most 2.8e-6 at n = 256 and the floor, far
    inside any sketch's distortion. Steps 2-4 make sigma accurate to about
    ``n u / sv_tol`` relative: ``kappa(Q)^2 <= 1 + 4 n u / sv_tol^2``, so one
    Cholesky QR pass makes Z orthonormal to rounding. A component under
    ``sqrt(n u) sigma_1`` is lost in the Gram's rounding altogether; only a
    QR resolves it, which is why a cut below the floor takes the R factor.

    Overflow. Finite entries near the overflow threshold can give an R
    factor with an infinite entry (a column norm above the largest double),
    on which LAPACK's SVD may never return, or a sigma_1 that overflows when
    LAPACK or the Gram route scales it back. A non-finite R factor is
    refused before LAPACK sees it (the Gram of the scaled input holds
    entries of at most m, so it is always finite), and a non-finite sigma on
    either route after, with the FormatError ``as_matrix`` gives a
    non-finite input.
    """
    route = svd_route(sv_tol)
    a = as_matrix(a)
    m, n = a.shape
    if route == "householder_qr":
        r = min(m, n)
        ensure_capacity(8 * (3 * m * n + 5 * r * n + 7 * r * r + r), f"R-factor SVD of a {m}x{n} matrix")
        # LAPACK works in column-major order: numpy's qr copies a Fortran-order
        # input into its buffer and back as is, a C-order one by transposing it
        # both ways, which costs more than this copy. R is the same bit for bit.
        factor = np.linalg.qr(np.asfortranarray(a), mode="r")
        _, sigma, vt = np.linalg.svd(_finite(factor), full_matrices=False)
    else:
        ensure_capacity(8 * (2 * m * n + 17 * n * n + 2 * n), f"Gram SVD of a {m}x{n} matrix")
        top = max(a.max(), -a.min())
        if top == 0:
            raise DegenerateInputError("cannot truncate an all-zero matrix (largest singular value is 0)")
        exponent = int(np.frexp(top)[1])
        b = np.ldexp(a, -exponent)
        lam, v = np.linalg.eigh(b.T @ b)
        sigma = np.sqrt(np.maximum(lam, 0.0))
        keep = sigma > 0.5 * sv_tol * sigma[-1]
        sigma, v = sigma[keep], v[:, keep]
        q = b @ (v / sigma)
        c = np.linalg.cholesky(q.T @ q, upper=True)
        del q
        _, sigma, vt = np.linalg.svd((c * sigma) @ v.T, full_matrices=False)
        with np.errstate(over="ignore"):  # an overflow is refused below
            sigma = np.ldexp(sigma, exponent)
    svd = SvdResult(u=None, sigma=_finite(sigma), vt=vt)
    return svd if sv_tol is None else truncate(svd, sv_tol)


def _finite(x: np.ndarray) -> np.ndarray:
    """``x``, if every entry is finite; else the FormatError of a non-finite
    input, which is what a validated input near the overflow threshold has
    become by overflowing on the way."""
    if not np.isfinite(x).all():
        raise FormatError("matrix contains non-finite entries")
    return x


def singular_values(a: np.ndarray) -> np.ndarray:
    """All singular values, descending: the spectrum figure's data, from
    :func:`right_svd` with no cut and under its memory-cap figure."""
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
