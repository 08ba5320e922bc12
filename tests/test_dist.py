from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import levsketch.leverage
from levsketch import (
    SketchSpec,
    SketchState,
    SyntheticSpec,
    apply_sketch,
    consume_rows,
    gen_synthetic,
    leverage_sketched,
    leverage_sketched_trunc,
    load_matrix,
    merge,
    partition_rows,
    run_distributed,
    save_state,
)
from levsketch.errors import ConfigurationError
from levsketch.leverage import _block_scores


def test_partition_even_split():
    assert partition_rows(10, 2) == [(0, 5), (5, 10)]


def test_partition_uneven_split():
    assert partition_rows(10, 3) == [(0, 4), (4, 7), (7, 10)]


def test_partition_singletons():
    ranges = partition_rows(5, 5)
    assert ranges == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]


def test_partition_validation():
    with pytest.raises(ConfigurationError):
        partition_rows(3, 4)
    with pytest.raises(ConfigurationError):
        partition_rows(3, 0)


def test_single_worker_identical_to_serial():
    a = gen_synthetic(SyntheticSpec(n=400, d=16, rank=16, seed=1))
    spec = SketchSpec("countsketch", eps=0.5, d=16, seed=2)
    serial = leverage_sketched_trunc(a, spec, 1e-3)
    res, rep = run_distributed(a, spec, 1, 1e-3)
    assert np.array_equal(res.scores, serial.scores)
    assert res.effective_rank == serial.effective_rank
    assert rep.workers == 1


@pytest.mark.parametrize("workers", [2, 3, 4, 8])
@pytest.mark.parametrize("family", ["countsketch", "osnap", "srht"])
def test_distributed_bit_equals_serial(workers, family):
    a = gen_synthetic(SyntheticSpec(n=1000, d=16, rank=16, seed=3))
    spec = SketchSpec(family, eps=0.5, d=16, seed=4)
    serial = leverage_sketched_trunc(a, spec, 1e-3)
    res, rep = run_distributed(a, spec, workers, 1e-3)
    assert np.array_equal(res.scores, serial.scores)
    assert rep.merged.rows_consumed == 1000


def test_uneven_split_bit_equals_serial():
    a = gen_synthetic(SyntheticSpec(n=1000, d=16, rank=16, seed=5))
    spec = SketchSpec("countsketch", eps=0.5, d=16, seed=6)
    serial = leverage_sketched_trunc(a, spec, 1e-3)
    res, _ = run_distributed(a, spec, 3, 1e-3)  # 334 + 333 + 333
    assert np.array_equal(res.scores, serial.scores)


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_distributed_bit_equals_serial_at_odd_kept_rank(workers):
    # a 256 x 255 basis: BLAS gives rows different last bits at different GEMM
    # heights, so this holds only because scoring runs on globally aligned blocks
    a = gen_synthetic(SyntheticSpec(n=2**13, d=256, rank=255, seed=1))
    spec = SketchSpec("countsketch", eps=0.5, d=256, seed=1, rows_override=4096)
    serial = leverage_sketched_trunc(a, spec, 1e-3)
    assert serial.effective_rank == 255
    res, _ = run_distributed(a, spec, workers, 1e-3)
    assert np.array_equal(res.scores, serial.scores)


@pytest.mark.parametrize("family", ["countsketch", "osnap", "srht"])
def test_distributed_bit_equals_serial_on_adversarial_data(family):
    # entries whose bucket sums cancel across 32 orders of magnitude: 11 of
    # these 200 seeds gave different CountSketch scores with compensated sums
    spec = SketchSpec(family, eps=0.5, d=2, seed=0, rows_override=2 if family == "countsketch" else None)
    values = [1.0, -1.0, 1e-16, -1e-16, 1e16, -1e16, 3.0, 1e-8]
    for seed in range(200):
        a = np.random.default_rng(seed).choice(values, size=(60, 2))
        serial = leverage_sketched_trunc(a, spec, 1e-3)
        for workers in (2, 3):
            res, _ = run_distributed(a, spec, workers, 1e-3)
            assert np.array_equal(res.scores, serial.scores), (seed, workers)


def test_block_scores_independent_of_split():
    rng = np.random.default_rng(23)
    rows = rng.standard_normal((3000, 256))
    basis = rng.standard_normal((256, 255))  # a width where GEMM height changes the bits
    whole = _block_scores(rows, basis)
    u = rows @ basis
    assert np.allclose(whole, np.einsum("ij,ij->i", u, u), rtol=1e-13)
    cuts = [0, 1, 1023, 1024, 1500, 2049, 2999, 3000]
    pieces = [_block_scores(rows[lo:hi], basis, lo) for lo, hi in zip(cuts, cuts[1:])]
    assert np.array_equal(np.concatenate(pieces), whole)


def test_srht_single_worker_equals_serial():
    a = gen_synthetic(SyntheticSpec(n=300, d=8, rank=8, seed=17))
    spec = SketchSpec("srht", eps=0.5, d=8, seed=18, rows_override=64)
    serial = leverage_sketched_trunc(a, spec, 1e-3)
    res, rep = run_distributed(a, spec, 1, 1e-3)
    assert np.array_equal(res.scores, serial.scores)
    assert res.method == "sketch_trunc"
    assert rep.merged.rows_consumed == 300


@pytest.mark.parametrize("workers", [1, 3])
def test_uncorrected_run_equals_leverage_sketched(workers):
    a = gen_synthetic(SyntheticSpec(n=600, d=16, rank=16, seed=19))
    spec = SketchSpec("countsketch", eps=0.5, d=16, seed=20)
    serial = leverage_sketched(a, spec)
    res, _ = run_distributed(a, spec, workers, None)
    assert res.method == serial.method == "sketch"
    assert res.sv_tol is None
    assert res.effective_rank == serial.effective_rank == 16
    assert np.array_equal(res.scores, serial.scores)


def test_merge_runs_no_capacity_check(monkeypatch):
    # both states pass the cap they were built under; merging them under a cap
    # below the accumulator size must still succeed
    a = np.random.default_rng(21).standard_normal((200, 4))
    spec = SketchSpec("countsketch", eps=0.5, d=4, seed=0, rows_override=64)
    bulk = apply_sketch(a, spec).data
    head = consume_rows(SketchState(spec, 200), a[:120], 0)
    tail = consume_rows(SketchState(spec, 200), a[120:], 120)
    monkeypatch.setenv("LVSK_MEM_CAP", "1000")
    assert np.array_equal(merge(head, tail).data, bulk)


def test_default_pool_capped_at_cpu_count(monkeypatch):
    sizes = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(levsketch.leverage, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(levsketch.leverage.os, "cpu_count", lambda: 2)
    a = gen_synthetic(SyntheticSpec(n=120, d=4, rank=4, seed=22))
    spec = SketchSpec("countsketch", eps=0.5, d=4, seed=23)
    default, _ = run_distributed(a, spec, 6, 1e-3)
    explicit, _ = run_distributed(a, spec, 6, 1e-3, max_threads=3)
    monkeypatch.setattr(levsketch.leverage.os, "cpu_count", lambda: None)
    unknown, _ = run_distributed(a, spec, 6, 1e-3)
    assert sizes == [2, 3, 1]
    assert np.array_equal(default.scores, explicit.scores)
    assert np.array_equal(default.scores, unknown.scores)


@pytest.mark.parametrize("workers", [1, 2, 4, 8])
def test_srht_distributed_bit_equals_serial(workers):
    # k = 64 gives leaves of 1024 rows: five leaves, cut at ragged worker boundaries
    a = gen_synthetic(SyntheticSpec(n=5000, d=8, rank=8, seed=7))
    spec = SketchSpec("srht", eps=0.5, d=8, seed=8, rows_override=64)
    serial = leverage_sketched_trunc(a, spec, 1e-3)
    res, rep = run_distributed(a, spec, workers, 1e-3)
    assert np.array_equal(res.scores, serial.scores)
    assert np.array_equal(rep.merged.data, apply_sketch(a, spec).data)


def test_more_workers_than_rows_rejected():
    a = gen_synthetic(SyntheticSpec(n=10, d=4, rank=4, seed=9))
    with pytest.raises(ConfigurationError):
        run_distributed(a, SketchSpec("countsketch", eps=0.5, d=4, seed=10), 11, 1e-3)


def test_bytes_communicated_counts_nodes_and_pending_rows():
    # k = 64 gives leaves of 1024 rows
    spec = SketchSpec("countsketch", eps=0.5, d=4, seed=11, rows_override=64)
    node = 64 * 4 * 8
    a = gen_synthetic(SyntheticSpec(n=4096, d=4, rank=4, seed=12))
    # aligned: each worker ships one node (two leaves) or two nodes (one leaf each)
    _, rep = run_distributed(a, spec, 2, 1e-3)
    assert rep.bytes_communicated == 2 * node
    _, rep = run_distributed(a, spec, 4, 1e-3)
    assert rep.bytes_communicated == 4 * node
    # [0, 1500) ships leaf 0 plus rows 1024..1499 of leaf 1; [1500, 3000) ships
    # rows 1500..2047 of leaf 1 plus the last leaf, rows 2048..2999
    _, rep = run_distributed(a[:3000], spec, 2, 1e-3)
    assert rep.bytes_communicated == 2 * node + (476 + 548) * 4 * 8
    # below one leaf every worker ships its raw rows
    _, rep = run_distributed(a[:200], spec, 4, 1e-3)
    assert rep.bytes_communicated == 200 * 4 * 8


def test_report_contents():
    a = gen_synthetic(SyntheticSpec(n=300, d=16, rank=16, seed=13))
    spec = SketchSpec("osnap", eps=0.5, d=16, seed=14)
    _, rep = run_distributed(a, spec, 3, 1e-3)
    assert len(rep.per_worker_times) == 3
    assert rep.per_worker_rows == [100, 100, 100]
    assert rep.merge_time >= 0 and rep.svd_time >= 0 and rep.score_time >= 0
    payload = rep.to_json_dict()
    assert payload["workers"] == 3
    assert payload["sketch"]["family"] == "osnap"
    assert payload["bytes_communicated"] == rep.bytes_communicated


def test_thread_cap_does_not_change_result():
    a = gen_synthetic(SyntheticSpec(n=500, d=16, rank=16, seed=15))
    spec = SketchSpec("countsketch", eps=0.5, d=16, seed=16)
    free, _ = run_distributed(a, spec, 4, 1e-3)
    capped, _ = run_distributed(a, spec, 4, 1e-3, max_threads=1)
    assert np.array_equal(free.scores, capped.scores)


@pytest.mark.parametrize("family", ["countsketch", "osnap", "srht"])
def test_bytes_communicated_is_the_saved_payload(tmp_path, family):
    a = gen_synthetic(SyntheticSpec(n=3000, d=4, rank=4, seed=12))
    spec = SketchSpec(family, eps=0.5, d=4, seed=11, rows_override=None if family == "osnap" else 64)
    _, rep = run_distributed(a, spec, 3, 1e-3)
    saved = 0
    for p, (lo, hi) in enumerate(partition_rows(3000, 3)):
        save_state(consume_rows(SketchState(spec, 3000), a[lo:hi], lo), tmp_path / f"{p}.bin")
        saved += load_matrix(tmp_path / f"{p}.bin").nbytes
    assert rep.bytes_communicated == saved
