import functools
import itertools
import json
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levsketch.leverage
import levsketch.sketch
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
    right_svd,
    run_distributed,
    save_state,
    truncate,
)
from levsketch.errors import ConfigurationError
from levsketch.leverage import SCORE_BLOCK_ROWS, _approx_basis, _block_scores
from levsketch.sketch import _leaf_pieces, _leaf_rows
from levsketch.svd import GRAM_SV_TOL_FLOOR


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
    for w in (0, 2.0, True, "2"):
        with pytest.raises(ConfigurationError):
            partition_rows(200, w)
    a = gen_synthetic(SyntheticSpec(n=200, d=4, rank=4, seed=1))
    spec = SketchSpec("countsketch", eps=0.5, d=4, seed=2)
    for workers, max_threads in ((2.0, None), (True, None), (2, 0), (2, 1.5), (2, True)):
        with pytest.raises(ConfigurationError):
            run_distributed(a, spec, workers, None, max_threads=max_threads)


def test_single_worker_identical_to_serial():
    a = gen_synthetic(SyntheticSpec(n=400, d=16, rank=16, seed=1))
    spec = SketchSpec("countsketch", eps=0.5, d=16, seed=2)
    serial = leverage_sketched_trunc(a, spec, 1e-3)
    res, _ = run_distributed(a, spec, 1, 1e-3)
    assert np.array_equal(res.scores, serial.scores)
    assert res.effective_rank == serial.effective_rank
    assert res.report["workers"] == 1


@pytest.mark.parametrize("workers", [2, 3, 4, 8])
@pytest.mark.parametrize("family", ["countsketch", "osnap", "srht"])
def test_distributed_bit_equals_serial(workers, family):
    a = gen_synthetic(SyntheticSpec(n=1000, d=16, rank=16, seed=3))
    spec = SketchSpec(family, eps=0.5, d=16, seed=4)
    serial = leverage_sketched_trunc(a, spec, 1e-3)
    res, merged = run_distributed(a, spec, workers, 1e-3)
    assert np.array_equal(res.scores, serial.scores)
    assert merged.rows_consumed == 1000


@pytest.mark.parametrize("leaf", [2048, 8192])
def test_srht_bits_hold_across_streams_merges_and_workers(leaf):
    # k = L, so each leaf's kernel is its full three-factor transform (8 x 16
    # x 16 at 2048, 8 x 32 x 32 at 8192); two whole leaves and a last one of
    # 1500 rows, short of whole 128- or 256-row blocks. 1000-row chunks in two
    # halves that split leaf 1, merged, give the bulk sketch; 1, 3 and 8
    # workers give the same scores
    n, d = 2 * leaf + 1500, 8
    a = gen_synthetic(SyntheticSpec(n=n, d=d, rank=d, seed=leaf))
    spec = SketchSpec("srht", eps=0.5, d=d, seed=7, rows_override=leaf)
    halves = []
    for lo, hi in ((0, n // 2), (n // 2, n)):
        halves.append(SketchState(spec, n))
        for start in range(lo, hi, 1000):
            consume_rows(halves[-1], a[start : min(start + 1000, hi)], start)
    assert np.array_equal(merge(*halves).data, apply_sketch(a, spec).data)
    scores = [run_distributed(a, spec, workers, 1e-3)[0].scores for workers in (1, 3, 8)]
    assert all(np.array_equal(s, scores[0]) for s in scores[1:])


@pytest.mark.parametrize("family, k", [("countsketch", 1024), ("osnap", None)])
@pytest.mark.parametrize("workers", [1, 3, 8])
def test_hashed_leaves_split_across_states_give_the_bulk_bits(family, k, workers):
    # leaves of L = 4k rows (4096 for CountSketch at k = 1024, 2048 for OSNAP
    # at its default k = 355): two whole leaves and a last one of 1500 rows,
    # rows of magnitudes 1e-8..1e8 so that sums depend on their order. Each
    # worker's range, streamed in 1000-row chunks, holds parts of leaves as
    # runs; its states merged in any order give the bulk sketch bit for bit
    d = 16
    spec = SketchSpec(family, eps=0.5, d=d, seed=9, rows_override=k)
    leaf = _leaf_rows(spec)
    assert leaf == {"countsketch": 4096, "osnap": 2048}[family]
    n = 2 * leaf + 1500
    rng = np.random.default_rng(leaf + workers)
    a = gen_synthetic(SyntheticSpec(n=n, d=d, rank=d, seed=workers)) * 10.0 ** rng.integers(-8, 9, (n, 1))
    bulk = apply_sketch(a, spec).data
    states = []
    for lo, hi in partition_rows(n, workers):
        states.append(SketchState(spec, n))
        for start in range(lo, hi, 1000):
            consume_rows(states[-1], a[start : min(start + 1000, hi)], start)
    if workers <= 3:
        orders = list(itertools.permutations(range(workers)))
    else:
        orders = [range(workers), range(workers - 1, -1, -1)] + [rng.permutation(workers) for _ in range(6)]
    for order in orders:
        merged = functools.reduce(merge, [states[i] for i in order])
        assert np.array_equal(merged.data, bulk) and merged.rows_consumed == n
    while len(states) > 1:  # a balanced tree of merges
        states = [merge(*states[i : i + 2]) if i + 1 < len(states) else states[i] for i in range(0, len(states), 2)]
    assert np.array_equal(states[0].data, bulk)
    res, merged = run_distributed(a, spec, workers, 1e-3, max_threads=2)
    assert np.array_equal(merged.data, bulk)
    assert np.array_equal(res.scores, leverage_sketched_trunc(a, spec, 1e-3).scores)


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
    # every cut on a block boundary; the last block, rows 2048..2999, is 952 rows high
    cuts = [0, SCORE_BLOCK_ROWS, 2 * SCORE_BLOCK_ROWS, 3000]
    pieces = [_block_scores(rows[lo:hi], basis) for lo, hi in zip(cuts, cuts[1:])]
    assert np.array_equal(np.concatenate(pieces), whole)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_block_scores_of_any_split_equal_the_unsplit_call(data):
    n = data.draw(st.integers(1, 3500).filter(lambda v: v % SCORE_BLOCK_ROWS), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    rows = rng.standard_normal((n, 256))
    basis = rng.standard_normal((256, 255))
    whole = _block_scores(rows, basis)
    aligned = range(SCORE_BLOCK_ROWS, n, SCORE_BLOCK_ROWS)
    cuts = sorted(data.draw(st.sets(st.sampled_from(aligned)), label="cuts")) if aligned else []
    bounds = [0, *cuts, n]
    pieces = [_block_scores(rows[lo:hi], basis) for lo, hi in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(pieces), whole)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(256, 3500), workers=st.integers(1, 8), seed=st.integers(0, 2**16))
def test_distributed_scores_of_ragged_splits_equal_one_worker(n, workers, seed):
    # a 256 x 255 basis, a width where GEMM height changes the bits; worker
    # boundaries land anywhere inside the aligned score blocks, and each block
    # must still be scored whole. An SRHT of min(1024, m) rows keeps all 255
    # directions even at n = 256, where hashed sketches collide rows away.
    a = gen_synthetic(SyntheticSpec(n=n, d=256, rank=255, seed=seed))
    spec = SketchSpec("srht", eps=0.5, d=256, seed=seed, rows_override=min(1024, 1 << (n - 1).bit_length()))
    serial = run_distributed(a, spec, 1, 1e-10)[0]
    assert serial.effective_rank == 255
    res, _ = run_distributed(a, spec, workers, 1e-10)
    assert np.array_equal(res.scores, serial.scores)


@pytest.mark.parametrize("workers", [1, 3, 8])
def test_one_score_sweep_over_all_rows(monkeypatch, workers):
    a = gen_synthetic(SyntheticSpec(n=5000, d=8, rank=8, seed=19))
    spec = SketchSpec("countsketch", eps=0.5, d=8, seed=20, rows_override=64)
    sweep, calls = levsketch.leverage._block_scores, []

    def recording_sweep(rows, basis):
        calls.append(rows)
        return sweep(rows, basis)

    monkeypatch.setattr(levsketch.leverage, "_block_scores", recording_sweep)
    run_distributed(a, spec, workers, 1e-3)
    assert len(calls) == 1 and calls[0].shape == a.shape


def test_srht_single_worker_equals_serial():
    a = gen_synthetic(SyntheticSpec(n=300, d=8, rank=8, seed=17))
    spec = SketchSpec("srht", eps=0.5, d=8, seed=18, rows_override=64)
    serial = leverage_sketched_trunc(a, spec, 1e-3)
    res, merged = run_distributed(a, spec, 1, 1e-3)
    assert np.array_equal(res.scores, serial.scores)
    assert res.method == "sketch_trunc"
    assert merged.rows_consumed == 300


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
    res, merged = run_distributed(a, spec, workers, 1e-3)
    assert np.array_equal(res.scores, serial.scores)
    assert np.array_equal(merged.data, apply_sketch(a, spec).data)


@pytest.mark.parametrize("workers", [1, 3, 8])
def test_srht_distributed_bit_equals_serial_at_k_equal_to_the_leaf(workers):
    # k = L = 2048, as the benchmarks run SRHT: three leaves, the last one
    # 904 rows, short of whole 64-row blocks, cut at ragged worker boundaries
    a = gen_synthetic(SyntheticSpec(n=5000, d=16, rank=16, seed=63))
    spec = SketchSpec("srht", eps=0.5, d=16, seed=64, rows_override=2048)
    serial = leverage_sketched_trunc(a, spec, 1e-3)
    res, merged = run_distributed(a, spec, workers, 1e-3, max_threads=2)
    assert np.array_equal(res.scores, serial.scores)
    assert np.array_equal(merged.data, apply_sketch(a, spec).data)


def test_worker_states_are_freed_once_merged(monkeypatch):
    # leaves of 4k rows: eight workers of k rows each ship their raw rows, k x
    # d each, and one worker ships one node of two leaves; once merged, only
    # the merged sketch is left of them when the score sweep starts
    n, d, k = 1 << 15, 16, 4096
    a = np.random.default_rng(65).standard_normal((n, d))
    spec = SketchSpec("countsketch", eps=0.5, d=d, seed=66, rows_override=k)
    held = []

    def spy(rows, basis):
        held.append(tracemalloc.get_traced_memory()[0])
        return _block_scores(rows, basis)

    monkeypatch.setattr(levsketch.leverage, "_block_scores", spy)
    runs = []
    for workers in (1, 8):
        tracemalloc.start()
        try:
            runs.append(run_distributed(a, spec, workers, 1e-3, max_threads=2))
        finally:
            tracemalloc.stop()
    assert held[1] <= held[0] + 8 * k * d + (64 << 10)
    assert np.array_equal(runs[0][0].scores, runs[1][0].scores)
    assert runs[1][0].report["bytes_communicated"] == 8 * runs[0][0].report["bytes_communicated"] == 8 * 8 * k * d


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
    res, _ = run_distributed(a, spec, 2, 1e-3)
    assert res.report["bytes_communicated"] == 2 * node
    res, _ = run_distributed(a, spec, 4, 1e-3)
    assert res.report["bytes_communicated"] == 4 * node
    # [0, 1500) ships leaf 0 plus rows 1024..1499 of leaf 1; [1500, 3000) ships
    # rows 1500..2047 of leaf 1 plus the last leaf, rows 2048..2999
    res, _ = run_distributed(a[:3000], spec, 2, 1e-3)
    assert res.report["bytes_communicated"] == 2 * node + (476 + 548) * 4 * 8
    # below one leaf every worker ships its raw rows
    res, _ = run_distributed(a[:200], spec, 4, 1e-3)
    assert res.report["bytes_communicated"] == 200 * 4 * 8


def test_report_contents():
    a = gen_synthetic(SyntheticSpec(n=300, d=16, rank=16, seed=13))
    spec = SketchSpec("osnap", eps=0.5, d=16, seed=14)
    res, _ = run_distributed(a, spec, 3, 1e-3)
    report = res.report
    assert len(report["per_worker_times_s"]) == 3
    assert report["per_worker_rows"] == [100, 100, 100]
    assert report["merge_time_s"] >= 0 and report["svd_time_s"] >= 0 and report["score_time_s"] >= 0
    assert report["workers"] == 3
    assert report["svd_route"] == "gram_cholesky_qr"
    assert report["sketch"]["family"] == "osnap"
    # the record is its own JSON: it survives a round trip unchanged
    assert json.loads(json.dumps(report)) == report
    # a numpy worker count gives the same report, all plain ints
    res, _ = run_distributed(a, spec, np.int64(3), 1e-3, max_threads=np.int64(2))
    assert json.loads(json.dumps(res.report))["per_worker_rows"] == [100, 100, 100]
    assert type(res.report["workers"]) is int


@pytest.mark.parametrize("sv_tol", [None, 0.0, 1e-5, np.nextafter(GRAM_SV_TOL_FLOOR, 0)])
def test_a_cut_below_the_gram_floor_takes_the_r_factor_route(monkeypatch, sv_tol):
    # the scores of the R-factor SVD written out, bit for bit, at any worker count
    a = gen_synthetic(SyntheticSpec(n=3000, d=24, rank=24, seed=48))
    spec = SketchSpec("osnap", eps=0.5, d=24, seed=49)
    svd = right_svd(apply_sketch(a, spec).data)
    expected = _block_scores(a, _approx_basis(svd if sv_tol is None else truncate(svd, sv_tol)))

    def refuse(*args):
        raise AssertionError("the Gram route ran")

    monkeypatch.setattr(np.linalg, "eigh", refuse)  # the Gram route's first step
    for w in (1, 3):
        res, _ = run_distributed(a, spec, w, sv_tol)
        assert res.report["svd_route"] == "householder_qr"
        assert np.array_equal(res.scores, expected)


def test_thread_cap_does_not_change_result():
    a = gen_synthetic(SyntheticSpec(n=500, d=16, rank=16, seed=15))
    spec = SketchSpec("countsketch", eps=0.5, d=16, seed=16)
    free, _ = run_distributed(a, spec, 4, 1e-3)
    capped, _ = run_distributed(a, spec, 4, 1e-3, max_threads=1)
    assert np.array_equal(free.scores, capped.scores)


@pytest.mark.parametrize("family", ["countsketch", "osnap", "srht"])
def test_spare_threads_sketch_a_worker_in_leaf_aligned_pieces(monkeypatch, family):
    # k = 64 gives leaves of 1024 rows: each of two workers holds five leaves,
    # the first and last of [4200, 8400) in part
    a = gen_synthetic(SyntheticSpec(n=8400, d=8, rank=8, seed=17))
    spec = SketchSpec(family, eps=0.5, d=8, seed=18, rows_override=64)
    consumed = []

    def recording_consume(state, rows, start):
        consumed.append((start, start + rows.shape[0]))
        return levsketch.sketch._consume(state, rows, start)

    monkeypatch.setattr(levsketch.leverage, "_consume", recording_consume)
    one, one_merged = run_distributed(a, spec, 2, 1e-3, max_threads=2)
    assert sorted(consumed) == [(0, 4200), (4200, 8400)]
    for threads in (4, 5, 64):
        consumed.clear()
        res, merged = run_distributed(a, spec, 2, 1e-3, max_threads=threads)
        # only OSNAP (s = 3 here) splits: CountSketch has s = 1, and SRHT's
        # leaf kernel is BLAS GEMMs, which already use every thread
        if family != "osnap":
            assert sorted(consumed) == [(0, 4200), (4200, 8400)]
        elif threads < 64:
            assert sorted(consumed) == [(0, 2048), (2048, 4200), (4200, 6144), (6144, 8400)]
        else:  # one piece per leaf touched
            assert len(consumed) == 10
        assert np.array_equal(res.scores, one.scores)
        assert np.array_equal(merged.data, one_merged.data)
        assert res.report["bytes_communicated"] == one.report["bytes_communicated"]
        assert len(res.report["per_worker_times_s"]) == 2


@settings(max_examples=200, deadline=None)
@given(
    lo=st.integers(0, 20000),
    size=st.integers(1, 20000),
    k=st.sampled_from([64, 500, 1000, 2000]),
    parts=st.integers(0, 9),
)
def test_leaf_pieces_cut_a_range_at_leaf_boundaries(lo, size, k, parts):
    # OSNAP, the family that is cut; k sets the leaf height, 1024 to 8192
    spec = SketchSpec("osnap", eps=0.5, d=8, rows_override=k)
    leaf = _leaf_rows(spec)
    pieces = _leaf_pieces(spec, lo, lo + size, parts)
    assert pieces[0][0] == lo and pieces[-1][1] == lo + size
    assert all(a < b for a, b in pieces)
    assert all(b == c for (_, b), (c, _) in zip(pieces, pieces[1:]))
    assert all(b % leaf == 0 for _, b in pieces[:-1])
    leaves = (lo + size - 1) // leaf - lo // leaf + 1
    assert len(pieces) == min(max(parts, 1), leaves)


@pytest.mark.parametrize("family", ["countsketch", "osnap", "srht"])
def test_bytes_communicated_is_the_saved_payload(tmp_path, family):
    a = gen_synthetic(SyntheticSpec(n=3000, d=4, rank=4, seed=12))
    spec = SketchSpec(family, eps=0.5, d=4, seed=11, rows_override=None if family == "osnap" else 64)
    res, _ = run_distributed(a, spec, 3, 1e-3)
    saved = 0
    for p, (lo, hi) in enumerate(partition_rows(3000, 3)):
        save_state(consume_rows(SketchState(spec, 3000), a[lo:hi], lo), tmp_path / f"{p}.bin")
        saved += load_matrix(tmp_path / f"{p}.bin").nbytes
    assert res.report["bytes_communicated"] == saved
