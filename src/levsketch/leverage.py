"""Leverage scores: exact, brute-force oracle, and one sketched pipeline.

The sketched method computes an approximate orthonormal basis
``A V diag(1/sigma)`` from the singular values and right singular vectors of
``S @ A``, so the k x d left factor of the sketch is never formed.
Uncorrected, it inverts every singular value of the sketch and is
deliberately retained because it fails on rank-deficient or noise-corrupted
inputs. The truncated variant drops the components at or below ``sv_tol``
times the largest first, which restores the approximation guarantee on such
inputs. Every pipeline takes sigma and V from one SVD,
:func:`levsketch.svd.right_svd` at its cut, which picks its route from the
cut alone and which :func:`levsketch.svd.svd_route` names in the result's
report: the sketch's R factor with no cut (every component resolved down to
rounding) or one below :data:`levsketch.svd.GRAM_SV_TOL_FLOOR` (1e-4), and
from the floor up its Gram matrix plus one Cholesky QR pass, two k x d x d
products in place of a Householder QR of k rows. The exact method runs
the same stages on an internal CountSketch of 4d rows, always through the R
factor (its cut, 1e-14, is far below what a Gram resolves), makes the basis
orthonormal to float64 rounding with one Cholesky QR pass, and decides the
rank on A's own singular values; when a check against A shows that the
sketch missed a direction or left the basis too ill-conditioned for one
pass, it runs them again with A as its own sketch. The oracle forms
the full projection matrix through a pseudo-inverse and is kept as a fully
independent code path for testing.

Both sketched variants run through :func:`run_distributed`, a simulation of
row-partitioned sketching in the coordinator model; the serial methods are its
one-worker run, and every sketched result carries the run's report (stage
times, bytes communicated, SVD route, sketch record); exact and oracle
results carry none. Workers sketch contiguous row partitions using global row
indices, so each worker's hash assignments are identical to a serial pass; the
coordinator merges the states in ascending worker order, runs the SVD of the
merged sketch once, and broadcasts the basis. A row's score needs only that
row and the basis (Drineas, Magdon-Ismail, Mahoney & Woodruff, JMLR 2012), so
the simulation scores all rows in one sweep of globally aligned blocks of
``SCORE_BLOCK_ROWS`` rows, one GEMM per block, which no split of the rows
changes. Workers are concurrent tasks in one process exchanging owned values;
no network transport is implemented. An OSNAP worker given spare threads
sketches its rows as several leaf-aligned pieces at once, which merge to its
state bit for bit. Communication is accounted as the sketch messages only,
what the workers ship to the coordinator, which is exactly what
sketch.save_state writes: each worker's canonical block-tree nodes (k x d
each, O(log(n/L)) of them for a contiguous range over leaves of L rows) plus
its raw rows of the at most two leaves it holds only in part,
O(k*d*log(n/L) + L*d) bytes per worker, for every sketch family. L is at
least 4k for CountSketch and OSNAP and at least k for SRHT (see
``sketch._leaf_rows``), so a worker range shorter than a leaf ships its raw
rows.

Neither pipeline reads A to check it is finite. Every leaf kernel multiplies
each entry of A by +-1 or a nonzero scale and sums, so a NaN or an infinity
anywhere in A leaves a non-finite entry in the k x d sketch, whatever the
BLAS; ``right_svd`` validates the sketch it is given, the merged one of the
sketched method and the preconditioner's of the exact method. So a
non-finite entry raises FormatError after the sketch stage, not before it,
and so do finite entries whose sums in the sketch, or whose sketch's R
factor or sigma_1, overflow.
"""

import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import _integer, ensure_capacity
from .errors import (
    CapacityError,
    ConfigurationError,
    DegenerateInputError,
    FormatError,
    SingularInversionError,
)
from .matrix import _float_matrix, as_matrix, write_json, write_rows
from .sketch import COUNTSKETCH, SketchSpec, SketchState, _consume, _leaf_pieces, merge
from .svd import SvdResult, _finite, right_svd, svd_route, thin_svd, truncate

# Relative floor under which singular components are treated as numerically
# zero by the exact method, so rank-deficient inputs stay well-defined.
MACHINE_RANK_TOL = 1e-12

# The exact method's preconditioner: a CountSketch of this many rows per
# column of A at a fixed seed (its eps is recorded but unused, as the row
# count is pinned), the relative cut on its singular values, and the largest
# condition number of the Cholesky factor C it is accepted with.
_PRECONDITIONER_ROWS = 4
_PRECONDITIONER_SEED = 0
_PRECONDITIONER_CUT = 1e-14
_PRECONDITIONER_KAPPA = 1e2

ORACLE_MAX_ROWS = 5000

# Height of the fixed, globally aligned row blocks the score GEMM runs on.
SCORE_BLOCK_ROWS = 1024


def _load_scores_bytes(file_bytes: int) -> int:
    """Bytes :func:`load_scores` needs for a file of ``file_bytes`` bytes. A
    row is at least 4 bytes (``0,0`` and a newline, which the last row may
    lack), and each costs at most 36: ``np.loadtxt``'s n x 2 float64 table
    held twice while it grows by a quarter (16 + 20), more than the table
    with the index check's range and mask (25) or with the returned column
    (24). The reader's buffers add 64 KiB."""
    return 36 * ((file_bytes + 1) // 4) + (1 << 16)


@dataclass
class LeverageResult:
    scores: np.ndarray
    method: str
    effective_rank: int
    spec: SketchSpec | None = None
    sv_tol: float | None = None
    wall_time_s: float | None = None
    preconditioner: SketchSpec | None = None
    report: dict | None = None


def leverage_exact(a) -> LeverageResult:
    """Exact scores, restricted to components above the machine-relative rank
    floor: the sketched pipeline run on a CountSketch preconditioner, checked
    against A, plus one Cholesky QR pass.

    When n > 4d, A is sketched by a CountSketch of 4d rows at a fixed seed
    (the preconditioner, Rokhlin & Tygert, PNAS 2008); otherwise A is its own
    sketch. From the R-factor SVD of the sketch, cut at 1e-14 of its largest
    singular value, ``Y = A V_1 diag(1/sigma_1)`` spans A's column space
    whenever the sketch kept every direction A has. With ``Y^T Y = C^T C``
    (C upper triangular), ``Z = Y C^{-1}`` is orthonormal to O(kappa(C)^2 u)
    (u = 2^-53; Yamamoto et al., ETNA 2015), and ``A V_1 = Z R_A`` with
    ``R_A = C diag(sigma_1)``, so A's singular values are R_A's. The rank r is
    decided on them at the 1e-12 floor, and the scores are the squared row
    norms of ``Y (C^{-1} U_R[:, :r])``; when r is every column of Y, U_R only
    rotates the basis and is left out.

    A sketch can miss directions of A: CountSketch sums colliding rows, so
    rows that alone carry a direction can cancel or merge. The preconditioner
    is therefore accepted only when (a) it kept all d directions, or what A
    holds in the directions it dropped is below the floor,
    ``||A V_0||_F <= 1e-12 sigma_1(R_A)``, with V_0 the right singular
    vectors past the cut from the same SVD of the sketch, and (b) C is
    factored and kappa(C) is at most 1e2, so that one pass is enough:
    ``||Z^T Z - I||`` stays near kappa(C)^2 u <= 1e4 u (measured kappa on
    CountSketch embeddings: about 3). An attempt that overflows is refused
    too.
    Otherwise the same stages run with A as its own sketch, cut at the 1e-12
    floor: there the floor itself bounds kappa(Y) by about 1.03, since
    ``||Y^T Y - I|| <~ d u 1e12 <= 0.03`` at d = 256. Either way every score
    is in [0, 1 + O(kappa(C)^2 u)] and the scores sum to r to the same
    relative accuracy. The Gram matrix and Z come from the same computed Y:
    folding ``C^{-1}`` into the basis and multiplying A again would bring
    back an error of O(kappa(A) u).

    A's shape is checked first. A NaN or an infinity in A leaves one in the
    preconditioner's sketch, which is then refused like one whose sums
    overflowed; in the fallback ``right_svd`` checks A itself and raises
    FormatError on a non-finite entry, or on finite entries whose R factor
    or sigma_1 overflows. With A its own sketch only that check runs.
    """
    a = _float_matrix(a)
    n, d = a.shape
    if n > _PRECONDITIONER_ROWS * d:
        spec = SketchSpec(
            COUNTSKETCH, eps=0.5, d=d, seed=_PRECONDITIONER_SEED, rows_override=_PRECONDITIONER_ROWS * d
        )
        # A non-finite entry of A leaves one in the sketch (see the module
        # docstring). On finite entries near the overflow threshold the
        # sketch's bucket sums and norms can overflow where A's own R factor
        # does not. Either way the sketch is refused, and the fallback's check
        # of A tells which. A sketch whose rows cancelled in every bucket
        # (DegenerateInputError) is refused too.
        with np.errstate(over="ignore", invalid="ignore"):
            sketch = _consume(SketchState(spec, n), a, 0).data
            try:
                result = _cholesky_qr_scores(a, sketch, _PRECONDITIONER_CUT)
            except (np.linalg.LinAlgError, FormatError, DegenerateInputError):
                result = None
        if result is not None:
            result.preconditioner = spec
            return result
    return _cholesky_qr_scores(a, a, MACHINE_RANK_TOL)


def _cholesky_qr_scores(a: np.ndarray, sketch: np.ndarray, cut: float) -> LeverageResult | None:
    """Exact scores of A from the R-factor SVD of ``sketch`` cut at ``cut``,
    one Cholesky QR pass and the SVD of R_A (see :func:`leverage_exact`). A
    sketch other than A is checked against A, and None is returned when it
    fails the check; A as its own sketch needs no check. The SVD validates
    the sketch, so a non-finite one raises FormatError, and an all-zero one
    DegenerateInputError.
    """
    checked = sketch is not a
    full = right_svd(sketch)
    kept = truncate(full, cut)
    n, d = a.shape
    k = kept.rank
    # Y (and A V_0 before it for a checked sketch), the scores, the basis, Gram
    # / C / R_A / the SVD of R_A / C^-1 U_R, and per score block its product
    # and row norms
    ensure_capacity(
        8 * (n * (d if checked else k) + n + d * k + 7 * k * k + min(n, SCORE_BLOCK_ROWS) * (k + 1)),
        f"orthonormal basis of a {n}x{d} matrix",
    )
    # what A holds in the directions the sketch dropped: the rows of its V^T
    # past the cut, none when it kept all d
    leak = np.linalg.norm(a @ full.vt[k:].T) if checked else 0.0
    y = a @ _approx_basis(kept)
    c = np.linalg.cholesky(y.T @ y, upper=True)
    if checked and not np.linalg.cond(c) <= _PRECONDITIONER_KAPPA:  # NaN fails too
        return None
    r_a = truncate(thin_svd(c * kept.sigma), MACHINE_RANK_TOL)
    if leak > MACHINE_RANK_TOL * r_a.sigma[0]:
        return None
    basis = np.linalg.inv(c)
    if r_a.rank < k:  # A's own spectrum drops components the sketch kept
        basis = basis @ r_a.u
    return LeverageResult(scores=_block_scores(y, basis), method="exact", effective_rank=r_a.rank)


def leverage_oracle(a) -> LeverageResult:
    """Brute-force scores from the projection matrix ``A (A^T A)^+ A^T``.

    Independent of the SVD-based path; quadratic memory in n, so capped at
    test scale (n <= 5000). Finite entries whose Gram ``A^T A`` overflows
    raise the FormatError of a non-finite input before ``pinv`` sees it.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if n > ORACLE_MAX_ROWS:
        raise CapacityError(f"oracle forms an n x n projector; n={n} exceeds {ORACLE_MAX_ROWS}")
    ensure_capacity(8 * n * n, "projection matrix")
    if not a.any():
        raise DegenerateInputError("leverage scores of an all-zero matrix are undefined")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        gram = a.T @ a
    h = a @ np.linalg.pinv(_finite(gram)) @ a.T
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


def _block_scores(rows: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Squared row norms of ``rows @ basis``, one GEMM per block of
    ``SCORE_BLOCK_ROWS`` rows counted from the first (the last one shorter).

    BLAS does not promise a row the same bits at every GEMM height; blocks
    fixed from the first row fix every score's bits, whatever the worker count.
    The scores and one block's product and row norms are checked against the
    memory cap before they are allocated.
    """
    n, r = rows.shape[0], basis.shape[1]
    ensure_capacity(8 * (n + min(n, SCORE_BLOCK_ROWS) * (r + 1)), f"scores of {n} rows at rank {r}")
    scores = np.empty(n)
    for lo in range(0, n, SCORE_BLOCK_ROWS):
        u = rows[lo : lo + SCORE_BLOCK_ROWS] @ basis
        np.einsum("ij,ij->i", u, u, out=scores[lo : lo + SCORE_BLOCK_ROWS])
        del u  # else it is held while the next block's product is allocated
    return scores


def partition_rows(n: int, w: int) -> list[tuple[int, int]]:
    """Split [0, n) into w contiguous ranges with sizes differing by at most 1."""
    w = _integer(w, "workers", 1)
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
) -> tuple[LeverageResult, SketchState]:
    """Sketched leverage scores over ``workers`` row partitions: sketch, merge,
    SVD of the merged sketch (sigma and V^T only), basis, score. Returns the
    result and the merged sketch state. The result's ``report`` is the run's
    record, the keys of the CLI's ``.report.json``: the worker count, each
    worker's sketch time and row count, the merge, SVD and score times,
    ``svd_route``, ``bytes_communicated`` and the sketch record.

    ``sv_tol=None`` inverts every singular component of the sketch (method
    ``"sketch"``); otherwise components at or below ``sv_tol`` times the
    largest are dropped first (``"sketch_trunc"``). The SVD is
    ``right_svd(sketch, sv_tol)``, whose route follows ``sv_tol`` alone;
    ``report["svd_route"]`` names it by the same rule (:func:`svd_route`),
    and an ``sv_tol`` outside [0, 1) is refused before any row is sketched.
    One worker is the serial
    computation; more workers give the same scores bit for bit on any data
    and for every family, since the sketch is a fixed block-tree sum that the
    merged states reproduce exactly (see the sketch module), and the scores
    are one sweep of the globally aligned blocks of :func:`_block_scores`.
    At most ``max_threads`` sketch tasks (at least 1) run at once, by default
    one per CPU; the thread count never changes the result. With more threads
    than workers, a worker may sketch its rows as up to ``threads // workers``
    leaf-aligned pieces at once (see ``sketch._leaf_pieces``), and its
    reported time is its pieces' times plus their merges.

    A's shape is checked first; its entries are not read until they are
    sketched. A NaN or an infinity in A, or finite entries whose sums in the
    sketch overflow, raise FormatError when the SVD validates the merged
    sketch, and so do finite entries whose sketch's R factor or sigma_1
    overflows; the errors checked first (``sv_tol``, the worker count, the
    sketch's fit under the memory cap) come before it.
    """
    a = _float_matrix(a)
    n = a.shape[0]
    route = svd_route(sv_tol)  # refuses an sv_tol outside [0, 1) before any row is sketched
    ranges = partition_rows(n, workers)
    if max_threads is not None:
        max_threads = _integer(max_threads, "max_threads", 1)

    # The SVD refuses a non-finite sum in the sketch, so numpy's warnings on
    # the way to it, in each thread, would only repeat that error.
    def sketch_partition(lo: int, hi: int) -> tuple[SketchState, float]:
        t0 = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):
            state = _consume(SketchState(spec, n), a[lo:hi], lo)
        return state, time.perf_counter() - t0

    threads = max_threads or os.cpu_count() or 1
    parts = threads // len(ranges)
    pieces = [(w, *piece) for w, rows in enumerate(ranges) for piece in _leaf_pieces(spec, *rows, parts)]
    owners, los, his = zip(*pieces)
    states, sketch_times = [None] * len(ranges), [0.0] * len(ranges)
    with np.errstate(over="ignore", invalid="ignore"):
        with ThreadPoolExecutor(max_workers=min(len(pieces), threads)) as pool:
            for w, (state, seconds) in zip(owners, pool.map(sketch_partition, los, his)):
                t0 = time.perf_counter()
                states[w] = state if states[w] is None else merge(states[w], state)
                sketch_times[w] += seconds + time.perf_counter() - t0
        del state  # so that each worker's state is freed once merged
        bytes_communicated = sum(state.message_bytes for state in states)

        t0 = time.perf_counter()
        merged = states.pop(0)
        while states:
            merged = merge(merged, states.pop(0))
        merge_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        sketch = merged.data
    # A NaN or an infinity in A leaves one in the sketch (see the module
    # docstring), and so can finite entries whose sums overflow; the SVD's
    # check of its input then gives the error as_matrix gives of A.
    svd = right_svd(sketch, sv_tol)
    svd_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    scores = _block_scores(a, _approx_basis(svd))
    report = {
        "workers": len(ranges),
        "per_worker_times_s": sketch_times,
        "merge_time_s": merge_time,
        "svd_route": route,
        "svd_time_s": svd_time,
        "score_time_s": time.perf_counter() - t0,
        "bytes_communicated": bytes_communicated,
        "per_worker_rows": [hi - lo for lo, hi in ranges],
        "sketch": spec.to_json_dict(),
    }
    method = "sketch" if sv_tol is None else "sketch_trunc"
    result = LeverageResult(scores, method, svd.rank, spec=spec, sv_tol=sv_tol, report=report)
    return result, merged


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


def save_scores(result: LeverageResult, csv_path, extra_meta: dict | None = None) -> None:
    with open(csv_path, "w") as f:
        write_rows(f, result.scores, index=True)
    meta = {
        "method": result.method,
        "sketch": result.spec.to_json_dict() if result.spec is not None else None,
        "preconditioner": result.preconditioner.to_json_dict() if result.preconditioner is not None else None,
        "sv_tol": result.sv_tol,
        "effective_rank": result.effective_rank,
        "wall_time_s": result.wall_time_s,
        "n": int(result.scores.shape[0]),
    }
    if extra_meta:
        meta.update(extra_meta)
    write_json(Path(str(csv_path) + ".json"), meta)


def load_scores(path) -> np.ndarray:
    """Read a scores CSV written by :func:`save_scores`: ``index,score`` rows
    whose indices run 0..n-1 in order. The memory cap is checked against
    the file's size before it is parsed."""
    path = Path(path)
    ensure_capacity(_load_scores_bytes(path.stat().st_size), f"scores file {path}")
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
