"""Leverage scores: exact, brute-force oracle, and one sketched pipeline.

The sketched method computes an approximate orthonormal basis
``A V diag(1/sigma)`` from the singular values and right singular vectors of
``S @ A``, taken from the SVD of its R factor
(:func:`levsketch.svd.right_svd`), so the k x d left factor of the sketch is
never formed. Uncorrected, it inverts every singular value of the sketch and
is deliberately retained because it fails on rank-deficient or
noise-corrupted inputs. The truncated variant drops small singular components
first, which restores the approximation guarantee on such inputs. The exact
method runs the same stages with A as its own sketch, then makes the basis
orthonormal to float64 rounding with one Cholesky QR pass. The oracle forms
the full projection matrix through a pseudo-inverse and is kept as a fully
independent code path for testing.

Both sketched variants run through :func:`run_distributed`, a simulation of
row-partitioned sketching in the coordinator model; the serial methods are its
one-worker run. Workers sketch contiguous row partitions using global row
indices, so each worker's hash assignments are identical to a serial pass; the
coordinator merges the states in ascending worker order, runs the R-factor
SVD of the merged sketch once, and broadcasts the basis so workers score their
own rows. Workers are concurrent tasks in one process exchanging owned values;
no network transport is implemented. Communication is accounted as what the
workers ship to the coordinator, which is exactly what sketch.save_state
writes: each worker's canonical block-tree nodes (k x d each, O(log(n/L)) of
them for a contiguous range over leaves of L rows) plus its raw rows of the at
most two leaves it holds only in part, O(k*d*log(n/L) + L*d) bytes per worker,
for every sketch family.
"""

import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ensure_capacity
from .errors import (
    CapacityError,
    ConfigurationError,
    DegenerateInputError,
    FormatError,
    SingularInversionError,
)
from .matrix import as_matrix, format_float, write_json
from .sketch import SketchSpec, SketchState, _consume, merge
from .svd import SvdResult, _right_svd, right_svd, truncate

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
    spec: SketchSpec | None = None
    sv_tol: float | None = None
    wall_time_s: float | None = None


def leverage_exact(a) -> LeverageResult:
    """Exact scores, restricted to components above the machine-relative rank
    floor: the sketched pipeline with A as its own sketch, plus one Cholesky
    QR pass.

    ``Y = A V diag(1/sigma)``, from the R-factor SVD of A, spans the kept left
    singular subspace but is orthonormal only to O(kappa u), kappa the
    condition number of the kept part and u = 2^-53. With ``Y^T Y = C^T C``
    (C upper triangular), ``Z = Y C^{-1}`` is orthonormal to O(u) whenever
    kappa(Y) < u^{-1/2} (Yamamoto et al., ETNA 2015). The floor bounds kappa
    by 1e12, so ``||Y^T Y - I|| <~ d u 1e12 <= 0.03`` at d = 256 and
    kappa(Y) <= 1.03, far inside that condition. Every score is then in
    [0, 1 + O(u)] and the scores sum to the rank r to O(r u). The Gram matrix
    and Z come from the same computed Y: folding ``C^{-1}`` into the basis and
    multiplying A again would bring back the O(kappa u) error.
    """
    a = as_matrix(a)
    svd = _right_svd(a)
    if svd.sigma[0] <= 0:
        raise DegenerateInputError("leverage scores of an all-zero matrix are undefined")
    kept = truncate(svd, MACHINE_RANK_TOL)
    n, d = a.shape
    r = kept.rank
    # Y, the scores, the basis, Gram / C / C^-1, and per score block its
    # zero-padded copy, its product and its row norms
    ensure_capacity(
        8 * (n * r + n + d * r + 3 * r * r + min(n, SCORE_BLOCK_ROWS) * (2 * r + 1)),
        f"orthonormal basis of a {n}x{d} matrix",
    )
    y = a @ _approx_basis(kept)
    c = np.linalg.cholesky(y.T @ y, upper=True)
    scores = _block_scores(y, np.linalg.inv(c), 0, n)
    return LeverageResult(scores=scores, method="exact", effective_rank=r)


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


def _block_scores(rows: np.ndarray, basis: np.ndarray, start: int, n: int) -> np.ndarray:
    """Scores for the rows at global indices ``start, start + 1, ...`` of an
    n-row matrix: squared row norms of ``rows @ basis``.

    BLAS does not promise a row the same bits at every GEMM height, so each row
    is scored in the globally aligned block that holds it, rows
    ``[b, b + min(SCORE_BLOCK_ROWS, n - b))`` for b a multiple of
    ``SCORE_BLOCK_ROWS``, by a GEMM of exactly that height; the rows of the
    block that ``rows`` does not hold are zero-padded. A row's result then
    does not depend on how the rows were partitioned.
    """
    m, d = rows.shape
    scores = np.empty(m)
    lo = 0
    while lo < m:
        offset = (start + lo) % SCORE_BLOCK_ROWS
        height = min(SCORE_BLOCK_ROWS, n - (start + lo - offset))
        hi = min(m, lo + height - offset)
        if hi - lo == height:
            block = rows[lo:hi]
        else:
            block = np.zeros((height, d))
            block[offset : offset + hi - lo] = rows[lo:hi]
        u = block @ basis
        scores[lo:hi] = np.einsum("ij,ij->i", u, u)[offset : offset + hi - lo]
        lo = hi
    return scores


@dataclass
class CoordinatorReport:
    merged: SketchState
    workers: int
    per_worker_times: list[float]
    merge_time: float
    svd_time: float
    score_time: float
    bytes_communicated: int
    per_worker_rows: list[int]

    def to_json_dict(self) -> dict:
        return {
            "workers": self.workers,
            "per_worker_times_s": self.per_worker_times,
            "merge_time_s": self.merge_time,
            "svd_time_s": self.svd_time,
            "score_time_s": self.score_time,
            "bytes_communicated": self.bytes_communicated,
            "per_worker_rows": self.per_worker_rows,
            "sketch": self.merged.spec.to_json_dict(),
        }


def partition_rows(n: int, w: int) -> list[tuple[int, int]]:
    """Split [0, n) into w contiguous ranges with sizes differing by at most 1."""
    if w < 1:
        raise ConfigurationError(f"need at least one worker, got {w}")
    if w > n:
        raise ConfigurationError(f"cannot split {n} rows across {w} workers")
    base, rem = divmod(n, w)
    ranges = []
    lo = 0
    for p in range(w):
        hi = lo + base + (1 if p < rem else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def run_distributed(
    a, spec: SketchSpec, workers: int, sv_tol: float | None, max_threads: int | None = None
) -> tuple[LeverageResult, CoordinatorReport]:
    """Sketched leverage scores over ``workers`` row partitions: sketch, merge,
    SVD of the merged sketch's R factor (sigma and V^T only), basis, score.

    ``sv_tol=None`` inverts every singular component of the sketch (method
    ``"sketch"``); otherwise components at or below ``sv_tol`` times the
    largest are dropped first (``"sketch_trunc"``). One worker is the serial
    computation; more workers give the same scores bit for bit on any data
    and for every family, since the sketch is a fixed block-tree sum that the
    merged states reproduce exactly (see the sketch module) and scores are
    computed on globally aligned row blocks. At most ``max_threads`` tasks
    (at least 1) run at once, by default one per CPU; the thread count never
    changes the result.
    """
    a = as_matrix(a)
    n = a.shape[0]
    ranges = partition_rows(n, workers)
    los, his = zip(*ranges)

    def sketch_partition(lo: int, hi: int) -> tuple[SketchState, float]:
        t0 = time.perf_counter()
        state = _consume(SketchState(spec, n), a[lo:hi], lo)
        return state, time.perf_counter() - t0

    if max_threads is not None and max_threads < 1:
        raise ConfigurationError(f"max_threads must be at least 1, got {max_threads}")
    pool_size = min(workers, max_threads or os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=pool_size) as pool:
        sketched = list(pool.map(sketch_partition, los, his))

        t0 = time.perf_counter()
        merged = sketched[0][0]
        for state, _ in sketched[1:]:
            merged = merge(merged, state)
        merge_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        svd = right_svd(merged.data)
        if sv_tol is not None:
            svd = truncate(svd, sv_tol)
        svd_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        basis = _approx_basis(svd)
        blocks = pool.map(lambda lo, hi: _block_scores(a[lo:hi], basis, lo, n), los, his)
        scores = np.concatenate(list(blocks))
        score_time = time.perf_counter() - t0

    result = LeverageResult(
        scores=scores,
        method="sketch" if sv_tol is None else "sketch_trunc",
        effective_rank=svd.rank,
        spec=spec,
        sv_tol=sv_tol,
    )
    report = CoordinatorReport(
        merged=merged,
        workers=workers,
        per_worker_times=[t for _, t in sketched],
        merge_time=merge_time,
        svd_time=svd_time,
        score_time=score_time,
        bytes_communicated=sum(state.message_bytes for state, _ in sketched),
        per_worker_rows=[hi - lo for lo, hi in ranges],
    )
    return result, report


def leverage_sketched(a, spec: SketchSpec) -> LeverageResult:
    """Uncorrected sketched scores (no truncation), computed serially.

    Assumes full column rank; on rank-deficient or noisy inputs the inverted
    near-zero singular values corrupt the result, which is the documented
    failure mode this method exists to demonstrate.
    """
    return run_distributed(a, spec, 1, None)[0]


def leverage_sketched_trunc(a, spec: SketchSpec, sv_tol: float) -> LeverageResult:
    """Sketched scores with singular components below ``sv_tol`` (relative to
    the largest) dropped before the basis inversion, computed serially."""
    return run_distributed(a, spec, 1, sv_tol)[0]


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
        "sketch": result.spec.to_json_dict() if result.spec is not None else None,
        "sv_tol": result.sv_tol,
        "effective_rank": result.effective_rank,
        "wall_time_s": result.wall_time_s,
        "n": int(result.scores.shape[0]),
    }
    if extra_meta:
        meta.update(extra_meta)
    write_json(meta_path, meta)


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
