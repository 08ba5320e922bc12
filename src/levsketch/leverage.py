"""Leverage scores: exact by SVD, brute-force oracle, and two sketched variants.

The exact method reads scores off the thin-SVD left factor. The oracle forms
the full projection matrix through a pseudo-inverse and is kept as a fully
independent code path for testing. The sketched method computes an
approximate orthonormal basis from the SVD of ``S @ A``; uncorrected, it
inverts every singular value of the sketch and is deliberately retained
because it fails on rank-deficient or noise-corrupted inputs. The truncated
variant drops small singular components first, which restores the
approximation guarantee on such inputs.
"""

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ensure_capacity
from .errors import CapacityError, DegenerateInputError, FormatError, SingularInversionError
from .matrix import as_matrix, format_float
from .sketch import SketchSpec, apply_sketch, sketch_rows
from .svd import SvdResult, thin_svd, truncate

# Relative floor under which singular components are treated as numerically
# zero by the exact method, so rank-deficient inputs stay well-defined.
MACHINE_RANK_TOL = 1e-12

ORACLE_MAX_ROWS = 5000

# Height of the fixed, globally aligned row blocks the score GEMM runs on.
SCORE_BLOCK_ROWS = 1024


@dataclass
class LeverageResult:
    scores: np.ndarray
    method: str
    effective_rank: int
    eps: float = 0.0
    spec: SketchSpec | None = None
    sv_tol: float | None = None
    wall_time_s: float | None = None


def leverage_exact(a) -> LeverageResult:
    """Exact scores: squared row norms of the thin-SVD left factor, restricted
    to components above the machine-relative rank floor."""
    a = as_matrix(a)
    svd = thin_svd(a)
    if svd.sigma[0] <= 0:
        raise DegenerateInputError("leverage scores of an all-zero matrix are undefined")
    kept = truncate(svd, MACHINE_RANK_TOL)
    scores = np.einsum("ij,ij->i", kept.u, kept.u)
    return LeverageResult(scores=scores, method="exact", effective_rank=kept.rank)


def leverage_oracle(a) -> LeverageResult:
    """Brute-force scores from the projection matrix ``A (A^T A)^+ A^T``.

    Independent of the SVD-based path; quadratic memory in n, so capped at
    test scale (n <= 5000).
    """
    a = as_matrix(a)
    n = a.shape[0]
    if n > ORACLE_MAX_ROWS:
        raise CapacityError(f"oracle forms an n x n projector; n={n} exceeds {ORACLE_MAX_ROWS}")
    ensure_capacity(8 * n * n, "projection matrix")
    if not a.any():
        raise DegenerateInputError("leverage scores of an all-zero matrix are undefined")
    h = a @ np.linalg.pinv(a.T @ a) @ a.T
    scores = np.einsum("ij,ij->i", h, h)
    rank = int(round(float(np.trace(h))))
    return LeverageResult(scores=scores, method="oracle", effective_rank=rank)


def _approx_basis(svd: SvdResult) -> np.ndarray:
    """Right factor of the approximate-basis product: ``V / sigma`` columnwise.

    Refuses to divide by an exactly-zero singular value; near-zero values pass
    through (that blow-up is what truncation exists to prevent).
    """
    if np.any(svd.sigma == 0.0):
        raise SingularInversionError(
            "sketch has an exactly-zero singular value; use the truncated method"
        )
    return svd.vt.T / svd.sigma


def _block_scores(rows: np.ndarray, basis: np.ndarray, start: int = 0) -> np.ndarray:
    """Scores for the rows at global indices ``start, start + 1, ...``: squared
    row norms of ``rows @ basis``.

    Shared by the serial and distributed paths. BLAS does not promise a row the
    same bits at every GEMM height, so each row is scored in the globally
    aligned block of ``SCORE_BLOCK_ROWS`` rows that holds it, by a GEMM of
    exactly that height, partial edge blocks zero-padded. A row's result then
    does not depend on how the rows were partitioned.
    """
    n, d = rows.shape
    scores = np.empty(n)
    lo = 0
    while lo < n:
        offset = (start + lo) % SCORE_BLOCK_ROWS
        hi = min(n, lo + SCORE_BLOCK_ROWS - offset)
        if hi - lo == SCORE_BLOCK_ROWS:
            block = rows[lo:hi]
        else:
            block = np.zeros((SCORE_BLOCK_ROWS, d))
            block[offset : offset + hi - lo] = rows[lo:hi]
        u = block @ basis
        scores[lo:hi] = np.einsum("ij,ij->i", u, u)[offset : offset + hi - lo]
        lo = hi
    return scores


def leverage_sketched(a, spec: SketchSpec, mem_cap_bytes: int | None = None) -> LeverageResult:
    """Uncorrected sketched scores (no truncation).

    Assumes full column rank; on rank-deficient or noisy inputs the inverted
    near-zero singular values corrupt the result, which is the documented
    failure mode this method exists to demonstrate.
    """
    a = as_matrix(a)
    state = apply_sketch(a, spec, mem_cap=mem_cap_bytes)
    svd = thin_svd(state.data)
    basis = _approx_basis(svd)
    scores = _block_scores(a, basis)
    return LeverageResult(
        scores=scores, method="sketch", effective_rank=svd.rank, eps=spec.eps, spec=spec
    )


def leverage_sketched_trunc(
    a, spec: SketchSpec, sv_tol: float, mem_cap_bytes: int | None = None
) -> LeverageResult:
    """Sketched scores with singular components below ``sv_tol`` (relative to
    the largest) dropped before the basis inversion."""
    a = as_matrix(a)
    state = apply_sketch(a, spec, mem_cap=mem_cap_bytes)
    svd = truncate(thin_svd(state.data), sv_tol)
    basis = _approx_basis(svd)
    scores = _block_scores(a, basis)
    return LeverageResult(
        scores=scores,
        method="sketch_trunc",
        effective_rank=svd.rank,
        eps=spec.eps,
        spec=spec,
        sv_tol=sv_tol,
    )


# ---------------------------------------------------------------------------
# Serialization: scores CSV plus JSON metadata sidecar


def save_scores(result: LeverageResult, csv_path, meta_path=None, extra_meta: dict | None = None) -> None:
    csv_path = Path(csv_path)
    meta_path = Path(meta_path) if meta_path is not None else Path(str(csv_path) + ".json")
    with open(csv_path, "w") as f:
        for i, v in enumerate(result.scores):
            f.write(f"{i},{format_float(v)}\n")
    meta = {
        "method": result.method,
        "eps": result.eps,
        "sv_tol": result.sv_tol,
        "effective_rank": result.effective_rank,
        "seed": result.spec.seed if result.spec is not None else None,
        "wall_time_s": result.wall_time_s,
        "n": int(result.scores.shape[0]),
    }
    if result.spec is not None:
        meta["sketch"] = {
            "family": result.spec.family,
            "k": sketch_rows(result.spec),
            "osnap_s": result.spec.osnap_s,
            "rows_override": result.spec.rows_override,
            "sizing_c": result.spec.sizing_c,
        }
    if extra_meta:
        meta.update(extra_meta)
    with open(meta_path, "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


def load_scores(path) -> np.ndarray:
    """Read a scores CSV written by :func:`save_scores`: ``index,score`` rows
    whose indices run 0..n-1 in order."""
    path = Path(path)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty file is reported below
            table = np.loadtxt(path, delimiter=",", dtype=np.float64, comments=None, ndmin=2)
    except ValueError as exc:
        raise FormatError(f"{path}: expected index,score rows: {exc}") from None
    if table.size == 0:
        raise FormatError(f"{path}: no scores found")
    if table.shape[1] != 2:
        raise FormatError(f"{path}: expected index,score rows, got {table.shape[1]} fields")
    wrong = np.flatnonzero(table[:, 0] != np.arange(table.shape[0]))
    if wrong.size:
        i = wrong[0]
        raise FormatError(
            f"{path}: index column must run 0..{table.shape[0] - 1} in order; "
            f"row {i + 1} has index {table[i, 0]:g}"
        )
    return np.ascontiguousarray(table[:, 1])
