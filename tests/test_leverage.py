import numpy as np
import pytest

from levsketch import (
    LeverageResult,
    SketchSpec,
    SyntheticSpec,
    gen_synthetic,
    leverage_exact,
    leverage_oracle,
    leverage_sketched,
    leverage_sketched_trunc,
    load_scores,
    save_scores,
    thin_svd,
    truncate,
)
from levsketch.errors import CapacityError, DegenerateInputError, FormatError, SingularInversionError
from levsketch.leverage import _approx_basis
from levsketch.svd import SvdResult


def test_orthonormal_rows_give_unit_scores():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    res = leverage_exact(a)
    assert np.allclose(res.scores, [1.0, 1.0, 0.0], atol=1e-12)
    assert res.effective_rank == 2


def test_all_ones_column_splits_evenly():
    a = np.ones((4, 1))
    res = leverage_exact(a)
    assert np.allclose(res.scores, 0.25)
    assert res.effective_rank == 1
    assert abs(res.scores.sum() - 1.0) < 1e-12


def test_exact_matches_oracle_full_rank():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((200, 10))
    ex = leverage_exact(a)
    orc = leverage_oracle(a)
    assert ex.effective_rank == orc.effective_rank == 10
    assert np.abs(ex.scores - orc.scores).max() < 1e-8


def test_exact_matches_oracle_rank_deficient():
    a = gen_synthetic(SyntheticSpec(n=150, d=12, rank=5, seed=3))
    ex = leverage_exact(a)
    orc = leverage_oracle(a)
    assert ex.effective_rank == orc.effective_rank == 5
    assert np.abs(ex.scores - orc.scores).max() < 1e-8


def test_oracle_identity():
    res = leverage_oracle(np.eye(6))
    assert np.allclose(res.scores, 1.0, atol=1e-12)
    assert res.effective_rank == 6
    assert abs(res.scores.sum() - res.effective_rank) <= 1e-6 * res.effective_rank


def test_oracle_projector_self_check():
    # H idempotent makes diag(H) equal the squared row norms of H
    rng = np.random.default_rng(1)
    a = rng.standard_normal((40, 6))
    h = a @ np.linalg.pinv(a.T @ a) @ a.T
    assert np.allclose(np.diag(h), np.einsum("ij,ij->i", h, h), atol=1e-10)


def test_oracle_capacity_cap():
    with pytest.raises(CapacityError):
        leverage_oracle(np.ones((5001, 2)))


def test_zero_matrix_rejected():
    z = np.zeros((4, 3))
    with pytest.raises(DegenerateInputError):
        leverage_exact(z)
    with pytest.raises(DegenerateInputError):
        leverage_oracle(z)


def test_scores_bounded_and_sum_to_rank():
    for seed in range(5):
        a = gen_synthetic(SyntheticSpec(n=120, d=15, rank=8 + seed, seed=seed))
        res = leverage_exact(a)
        assert res.scores.min() >= 0
        assert res.scores.max() <= 1 + 1e-8
        assert abs(res.scores.sum() - res.effective_rank) <= 1e-6 * res.effective_rank


def test_scale_invariance_exact():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((60, 7))
    base = leverage_exact(a).scores
    for c in (2.0, -3.0, 1e-6, 1e6):
        scaled = leverage_exact(c * a).scores
        assert np.abs(scaled - base).max() < 1e-10


def test_sketched_full_rank_within_band():
    a = gen_synthetic(SyntheticSpec(n=4096, d=10, rank=10, seed=7))
    ex = leverage_exact(a)
    spec = SketchSpec("countsketch", eps=0.5, d=10, seed=3)
    res = leverage_sketched(a, spec)
    assert res.method == "sketch"
    assert res.effective_rank == 10
    mask = ex.scores >= 1e-6
    rel = np.abs(res.scores[mask] - ex.scores[mask]) / ex.scores[mask]
    assert rel.max() <= 2 * spec.eps
    # sketched sum stays within O(eps) of the rank
    assert abs(res.scores.sum() - 10) <= 3 * spec.eps * 10


def test_sketched_rank_deficient_breaks():
    a = gen_synthetic(SyntheticSpec(n=4096, d=10, rank=5, seed=7))
    ex = leverage_exact(a)
    spec = SketchSpec("countsketch", eps=0.5, d=10, seed=3)
    res = leverage_sketched(a, spec)
    mask = ex.scores >= 1e-6
    rel = np.abs(res.scores[mask] - ex.scores[mask]) / ex.scores[mask]
    assert rel.max() > 2 * spec.eps


def test_truncation_repairs_rank_deficient():
    a = gen_synthetic(SyntheticSpec(n=4096, d=10, rank=5, seed=7))
    ex = leverage_exact(a)
    spec = SketchSpec("countsketch", eps=0.5, d=10, seed=3)
    res = leverage_sketched_trunc(a, spec, 1e-3)
    assert res.effective_rank == 5
    mask = ex.scores >= 1e-6
    rel = np.abs(res.scores[mask] - ex.scores[mask]) / ex.scores[mask]
    assert rel.max() <= 2 * spec.eps


def test_truncation_repairs_noisy_data():
    a = gen_synthetic(SyntheticSpec(n=2048, d=200, rank=50, noise_sigma=1e-3, seed=7))
    base = truncate(thin_svd(a), 1e-3)
    ref = np.einsum("ij,ij->i", base.u, base.u)
    spec = SketchSpec("osnap", eps=0.5, d=200, seed=3)
    res = leverage_sketched_trunc(a, spec, 1e-3)
    assert res.effective_rank == 50
    mask = ref >= 1e-6
    rel = np.abs(res.scores[mask] - ref[mask]) / ref[mask]
    assert rel.max() <= 2 * spec.eps


def test_trunc_with_zero_tol_equals_uncorrected():
    a = gen_synthetic(SyntheticSpec(n=500, d=10, rank=10, seed=11))
    spec = SketchSpec("countsketch", eps=0.5, d=10, seed=5)
    plain = leverage_sketched(a, spec)
    trunc = leverage_sketched_trunc(a, spec, 0.0)
    assert np.array_equal(plain.scores, trunc.scores)


def test_exact_zero_singular_value_refused():
    res = SvdResult(u=np.eye(3), sigma=np.array([2.0, 1.0, 0.0]), vt=np.eye(3))
    with pytest.raises(SingularInversionError):
        _approx_basis(res)


def test_sketched_scale_consistency():
    # same seed, same S: scores of c*A relate to A's through the same basis
    a = gen_synthetic(SyntheticSpec(n=300, d=8, rank=8, seed=13))
    spec = SketchSpec("countsketch", eps=0.5, d=8, seed=7)
    s1 = leverage_sketched(a, spec).scores
    s2 = leverage_sketched(4.0 * a, spec).scores
    assert np.abs(s1 - s2).max() < 1e-8


def test_scores_roundtrip(tmp_path):
    a = gen_synthetic(SyntheticSpec(n=50, d=5, rank=5, seed=17))
    res = leverage_exact(a)
    path = tmp_path / "scores.csv"
    save_scores(res, path)
    back = load_scores(path)
    assert np.array_equal(back, res.scores)
    assert (tmp_path / "scores.csv.json").exists()


def test_load_scores_rejects_junk(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1.0,extra\n")
    with pytest.raises(FormatError):
        load_scores(path)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("", id="empty"),
        pytest.param("\n\n", id="blank-lines-only"),
        pytest.param("0,0.5\n1,abc\n", id="non-numeric-score"),
        pytest.param("0,0.5\n1\n", id="missing-field"),
        pytest.param("0,0.5,1\n1,0.5,1\n", id="three-fields"),
        pytest.param("0,0.5\n2,0.25\n3,0.25\n", id="gapped"),
        pytest.param("1,0.5\n0,0.25\n2,0.25\n", id="permuted"),
        pytest.param("0,0.5\n1,0.25\n1,0.25\n", id="duplicated"),
        pytest.param("1,0.5\n2,0.25\n", id="starts-at-1"),
        pytest.param("0,0.5\n1.5,0.25\n", id="fractional-index"),
    ],
)
def test_load_scores_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(FormatError):
        load_scores(path)


def test_load_scores_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(19)
    scores = np.concatenate([rng.random(500) ** 7, [0.0, 1.0, 5e-324, 1 - 2**-53]])
    path = tmp_path / "scores.csv"
    save_scores(LeverageResult(scores=scores, method="exact", effective_rank=1), path)
    assert np.array_equal(load_scores(path), scores)
    path.write_text("0,0.5\n\n1,0.25\n")  # blank lines are skipped
    assert load_scores(path).tolist() == [0.5, 0.25]
