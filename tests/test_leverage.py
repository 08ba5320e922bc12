import tracemalloc

import numpy as np
import pytest

from levsketch import (
    LeverageResult,
    SketchSpec,
    SketchState,
    SyntheticSpec,
    apply_sketch,
    consume_rows,
    gen_synthetic,
    leverage_exact,
    leverage_oracle,
    leverage_sketched,
    leverage_sketched_trunc,
    load_scores,
    run_distributed,
    save_scores,
    thin_svd,
    truncate,
)
from levsketch.errors import CapacityError, DegenerateInputError, FormatError, SingularInversionError
from levsketch.leverage import SCORE_BLOCK_ROWS, _approx_basis, _load_scores_bytes
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


def thin_svd_sketch_scores(a, spec, sv_tol):
    """The sketched pipeline written out on the full thin SVD of S @ A: the
    oracle for the R-factor route the package takes."""
    svd = thin_svd(apply_sketch(a, spec).data)
    if sv_tol is not None:
        svd = truncate(svd, sv_tol)
    u = a @ (svd.vt.T / svd.sigma)
    return np.einsum("ij,ij->i", u, u), svd.rank


@pytest.mark.parametrize("family", ["countsketch", "osnap", "srht"])
def test_sketched_scores_match_a_thin_svd_oracle(family):
    full = gen_synthetic(SyntheticSpec(n=700, d=12, rank=12, seed=21))
    noisy = gen_synthetic(SyntheticSpec(n=700, d=12, rank=5, noise_sigma=1e-6, seed=22))
    spec = SketchSpec(family, eps=0.5, d=12, seed=23)
    for a, sv_tol in ((full, None), (noisy, 1e-3)):
        res = leverage_sketched(a, spec) if sv_tol is None else leverage_sketched_trunc(a, spec, sv_tol)
        ref, rank = thin_svd_sketch_scores(a, spec, sv_tol)
        assert res.effective_rank == rank
        assert (np.abs(res.scores - ref) <= 1e-12 * ref).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_every_entry_point_rejects_a_non_finite_row(bad):
    a = gen_synthetic(SyntheticSpec(n=300, d=6, rank=6, seed=24))
    a[117, 2] = bad
    spec = SketchSpec("countsketch", eps=0.5, d=6, seed=25)
    for call in (
        lambda: run_distributed(a, spec, 1, 1e-3),
        lambda: run_distributed(a, spec, 3, None),
        lambda: apply_sketch(a, spec),
        lambda: consume_rows(SketchState(spec, 300), a[100:200], 100),
        lambda: leverage_exact(a),
    ):
        with pytest.raises(FormatError, match="non-finite"):
            call()


def exact_basis_bytes(n, d, r):
    """The memory-cap figure of the exact method's basis and score step."""
    return 8 * (n * r + n + d * r + 3 * r * r + min(n, SCORE_BLOCK_ROWS) * (2 * r + 1))


def test_exact_svd_checks_the_memory_cap_before_allocating(monkeypatch):
    n, d = 2000, 16
    a = gen_synthetic(SyntheticSpec(n=n, d=d, rank=d, seed=26))
    # here the R-factor SVD (three input copies, tau, R, thin SVD of R) needs
    # more than the basis and score step, so it sets the exact route's figure
    need = 8 * (3 * n * d + 5 * d * d + 7 * d * d + d)
    assert need > exact_basis_bytes(n, d, d)

    def refuse(*args, **kwargs):
        raise AssertionError("the QR ran despite the memory cap")

    with monkeypatch.context() as patched:
        patched.setenv("LVSK_MEM_CAP", str(need - 1))
        patched.setattr(np.linalg, "qr", refuse)
        with pytest.raises(CapacityError, match="R-factor SVD"):
            leverage_exact(a)
    monkeypatch.setenv("LVSK_MEM_CAP", str(need))
    assert leverage_exact(a).effective_rank == d


def test_exact_basis_checks_the_memory_cap_before_its_gemm(monkeypatch):
    n, d = 300, 4
    a = gen_synthetic(SyntheticSpec(n=n, d=d, rank=d, seed=28))
    # Y, the scores, the basis, Gram / C / C^-1 and the score block; at this
    # n and d they need more than the R-factor SVD
    need = exact_basis_bytes(n, d, d)
    assert need > 8 * (3 * n * d + 5 * d * d + 7 * d * d + d)

    def refuse(*args, **kwargs):
        raise AssertionError("the Cholesky QR ran despite the memory cap")

    with monkeypatch.context() as patched:
        patched.setenv("LVSK_MEM_CAP", str(need - 1))
        patched.setattr(np.linalg, "cholesky", refuse)
        with pytest.raises(CapacityError, match="orthonormal basis"):
            leverage_exact(a)
    monkeypatch.setenv("LVSK_MEM_CAP", str(need))
    assert leverage_exact(a).effective_rank == d


def with_spectrum(n, sigma, seed):
    """An n x len(sigma) matrix with singular values ``sigma``, random
    orthonormal singular vectors, and its exact leverage scores."""
    rng = np.random.default_rng(seed)
    d = sigma.shape[0]
    q1 = np.linalg.qr(rng.standard_normal((n, d)))[0]
    q2 = np.linalg.qr(rng.standard_normal((d, d)))[0]
    return (q1 * sigma) @ q2.T, np.einsum("ij,ij->i", q1, q1)


# Max error against the true projector's diagonal; each bound is the error of
# the thin-SVD left factor (LAPACK gesdd, numpy 2.4, OpenBLAS 0.3.31) on the
# same input, rounded down. The Cholesky QR route measured 3.53e-8, 2.69e-11
# and 8.78e-7. At kappa 1e11 both are set by the rounding in forming A.
@pytest.mark.parametrize(
    "sigma, bound",
    [
        pytest.param(np.logspace(0, -11, 20), 3.56e-8, id="kappa-1e11"),
        pytest.param(np.logspace(0, -8, 20), 5.7e-11, id="kappa-1e8"),
        pytest.param(np.r_[np.ones(10), np.full(10, 2e-12)], 6.2e-6, id="ten-sigma-at-2e-12"),
    ],
)
def test_exact_scores_of_ill_conditioned_inputs(sigma, bound):
    a, truth = with_spectrum(3000, sigma, 0)
    res = leverage_exact(a)
    assert res.effective_rank == 20  # every component is above the 1e-12 floor
    assert np.abs(res.scores - truth).max() <= bound


def test_exact_scores_stay_in_the_unit_interval_over_a_sweep():
    # 3000 low-rank inputs, columns scaled apart by up to 10^6. Largest
    # l - 1: 4.4e-16 here, 8.9e-16 from the thin-SVD left factor, and 3.0e-9
    # from the basis V/sigma applied to A without the Cholesky QR pass.
    rng = np.random.default_rng(0)
    for seed in range(3000):
        d = int(rng.integers(1, 7))
        n = int(rng.integers(d, 61))
        rank = int(rng.integers(1, d + 1))
        a = gen_synthetic(SyntheticSpec(n=n, d=d, rank=rank, seed=seed)) * 10.0 ** rng.uniform(-3, 3, d)
        res = leverage_exact(a)
        assert res.effective_rank == rank
        assert (res.scores >= 0).all() and (res.scores <= 1 + 1e-12).all()
        assert abs(res.scores.sum() - rank) <= 1e-9 * rank


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


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(None, id="save-scores-65536-rows"),
        pytest.param("".join(f"{i},0\n" for i in range(20000)), id="shortest-rows"),
        pytest.param("0,0", id="one-row-no-newline"),
    ],
)
def test_load_scores_peak_within_its_capacity_check(tmp_path, monkeypatch, text):
    path = tmp_path / "scores.csv"
    if text is None:
        scores = np.random.default_rng(23).random(65536)
        save_scores(LeverageResult(scores=scores, method="exact", effective_rank=1), path)
    else:
        path.write_text(text)
    need = _load_scores_bytes(path.stat().st_size)
    with monkeypatch.context() as patch:
        patch.setenv("LVSK_MEM_CAP", str(need - 1))
        patch.setattr(np, "loadtxt", None)  # refused before any parse
        with pytest.raises(CapacityError):
            load_scores(path)
    monkeypatch.setenv("LVSK_MEM_CAP", str(need))
    tracemalloc.start()
    try:
        load_scores(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need
