"""Simulated row-partitioned distributed sketching in the coordinator model.

Workers sketch contiguous row partitions using global row indices, so each
worker's hash assignments are identical to a serial pass; the coordinator
merges the states in ascending worker order (bit-reproducible), runs the
truncated SVD once, and broadcasts the basis so workers score their own rows.
Workers are concurrent tasks in one process exchanging owned values; the
message types serialize (see sketch.save_state), but no network transport is
implemented. Communication is accounted as the sketch payloads shipped to the
coordinator, ``w * k * d * 8`` bytes, independent of n.
"""

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, UnsupportedFamilyError
from .leverage import LeverageResult, _approx_basis, _block_scores
from .matrix import as_matrix
from .sketch import COUNTSKETCH, OSNAP, SketchSpec, SketchState, consume_rows, merge
from .svd import thin_svd, truncate


@dataclass
class Partition:
    worker_id: int
    lo: int
    hi: int
    rows: np.ndarray  # read-only view of the worker's block


@dataclass
class CoordinatorReport:
    merged: SketchState
    basis_sigma: np.ndarray
    basis_vt: np.ndarray
    workers: int
    per_worker_times: list[float]
    merge_time: float
    svd_time: float
    score_time: float
    bytes_communicated: int
    per_worker_rows: list[int] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "workers": self.workers,
            "per_worker_times_s": self.per_worker_times,
            "merge_time_s": self.merge_time,
            "svd_time_s": self.svd_time,
            "score_time_s": self.score_time,
            "bytes_communicated": self.bytes_communicated,
            "per_worker_rows": self.per_worker_rows,
            "sketch": {
                "family": self.merged.spec.family,
                "k": self.merged.k,
                "d": self.merged.d,
                "eps": self.merged.spec.eps,
                "seed": self.merged.spec.seed,
            },
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
    a,
    spec: SketchSpec,
    workers: int,
    sv_tol: float,
    max_threads: int | None = None,
    mem_cap_bytes: int | None = None,
) -> tuple[LeverageResult, CoordinatorReport]:
    """Truncated sketched leverage scores over ``workers`` row partitions.

    Output is identical to ``leverage_sketched_trunc(a, spec, sv_tol)`` run
    serially with the same seed, for any worker count.
    """
    if spec.family not in (COUNTSKETCH, OSNAP):
        raise UnsupportedFamilyError(
            f"distributed sketching supports countsketch and osnap, not {spec.family!r}"
        )
    a = as_matrix(a)
    n = a.shape[0]
    ranges = partition_rows(n, workers)
    parts = [Partition(p, lo, hi, a[lo:hi]) for p, (lo, hi) in enumerate(ranges)]

    def sketch_partition(part: Partition) -> tuple[SketchState, float]:
        t0 = time.perf_counter()
        state = SketchState(spec, n, mem_cap=mem_cap_bytes)
        consume_rows(state, part.rows, part.lo)
        return state, time.perf_counter() - t0

    pool_size = workers if max_threads is None else max(1, min(workers, max_threads))
    with ThreadPoolExecutor(max_workers=pool_size) as pool:
        sketched = list(pool.map(sketch_partition, parts))

    t0 = time.perf_counter()
    merged = sketched[0][0]
    for state, _ in sketched[1:]:
        merged = merge(merged, state)
    merge_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    svd = truncate(thin_svd(merged.data), sv_tol)
    svd_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    basis = _approx_basis(svd)
    with ThreadPoolExecutor(max_workers=pool_size) as pool:
        blocks = list(pool.map(lambda part: _block_scores(part.rows, basis, part.lo), parts))
    scores = np.concatenate(blocks)
    score_time = time.perf_counter() - t0

    result = LeverageResult(
        scores=scores,
        method="sketch_trunc",
        effective_rank=svd.rank,
        eps=spec.eps,
        spec=spec,
        sv_tol=sv_tol,
    )
    report = CoordinatorReport(
        merged=merged,
        basis_sigma=svd.sigma,
        basis_vt=svd.vt,
        workers=workers,
        per_worker_times=[t for _, t in sketched],
        merge_time=merge_time,
        svd_time=svd_time,
        score_time=score_time,
        bytes_communicated=workers * merged.payload_bytes,
        per_worker_rows=[part.hi - part.lo for part in parts],
    )
    return result, report
