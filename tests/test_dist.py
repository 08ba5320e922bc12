import numpy as np
import pytest

from levsketch import (
    SketchSpec,
    SyntheticSpec,
    gen_synthetic,
    leverage_sketched_trunc,
    partition_rows,
    run_distributed,
)
from levsketch.errors import ConfigurationError, UnsupportedFamilyError
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
@pytest.mark.parametrize("family", ["countsketch", "osnap"])
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


def test_srht_not_mergeable():
    a = gen_synthetic(SyntheticSpec(n=100, d=8, rank=8, seed=7))
    with pytest.raises(UnsupportedFamilyError):
        run_distributed(a, SketchSpec("srht", eps=0.5, d=8, seed=8), 2, 1e-3)


def test_more_workers_than_rows_rejected():
    a = gen_synthetic(SyntheticSpec(n=10, d=4, rank=4, seed=9))
    with pytest.raises(ConfigurationError):
        run_distributed(a, SketchSpec("countsketch", eps=0.5, d=4, seed=10), 11, 1e-3)


def test_communication_accounting_independent_of_n():
    spec = SketchSpec("countsketch", eps=0.5, d=16, seed=11)
    byte_counts = []
    for n in (200, 1000):
        a = gen_synthetic(SyntheticSpec(n=n, d=16, rank=16, seed=12))
        _, rep = run_distributed(a, spec, 4, 1e-3)
        byte_counts.append(rep.bytes_communicated)
        assert rep.bytes_communicated == 4 * rep.merged.k * 16 * 8
    assert byte_counts[0] == byte_counts[1]


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
