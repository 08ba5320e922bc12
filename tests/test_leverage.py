import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import levsketch
import levsketch.leverage
import levsketch.matrix
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
    right_svd,
    run_distributed,
    save_scores,
    sketch_rows,
    thin_svd,
    truncate,
)
from levsketch.errors import CapacityError, DegenerateInputError, FormatError, SingularInversionError
from levsketch.leverage import SCORE_BLOCK_ROWS, _approx_basis, _load_scores_bytes
from levsketch.sketch import FAMILIES
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
    # an all-zero sketch, on the Gram route and on the R-factor route
    for sv_tol in (1e-3, 1e-5):
        with pytest.raises(DegenerateInputError):
            leverage_sketched_trunc(z, SketchSpec("countsketch", eps=0.5, d=3, seed=1), sv_tol)


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


def test_serial_sketched_results_keep_their_report():
    # the serial entry points are one-worker coordinator runs, record included;
    # the Gram route from 1e-4 up, the R factor below
    a = gen_synthetic(SyntheticSpec(n=2000, d=10, rank=10, seed=12))
    spec = SketchSpec("countsketch", eps=0.5, d=10, seed=5)
    assert leverage_sketched_trunc(a, spec, 1e-3).report["svd_route"] == "gram_cholesky_qr"
    assert leverage_sketched_trunc(a, spec, 1e-5).report["svd_route"] == "householder_qr"
    report = leverage_sketched(a, spec).report
    assert (report["svd_route"], report["workers"], report["per_worker_rows"]) == ("householder_qr", 1, [2000])
    assert report["sketch"] == spec.to_json_dict()
    assert leverage_exact(a).report is None and leverage_oracle(a).report is None


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


# Rows of a 3372 x 4 input, whose sketches at d = 4 have leaves of 1024 rows:
# the first leaf, a leaf cut by worker boundaries at 3 and 8 workers (1124
# and 1265), a middle leaf, and the last leaf, which is short.
NON_FINITE_ROWS = (0, 1130, 2600, 3371)


@pytest.mark.parametrize("workers", [1, 3, 8])
@pytest.mark.parametrize("family", FAMILIES)
def test_a_non_finite_entry_anywhere_is_caught_from_the_sketch(family, workers):
    a = gen_synthetic(SyntheticSpec(n=3372, d=4, rank=4, seed=60))
    spec = SketchSpec(family, eps=0.5, d=4, seed=61)
    for bad in (np.nan, np.inf, -np.inf):
        for row in NON_FINITE_ROWS:
            b = a.copy()
            b[row, 1] = bad
            for sv_tol in (None, 1e-3):  # the R-factor and the Gram routes
                with pytest.raises(FormatError, match="^matrix contains non-finite entries$"):
                    run_distributed(b, spec, workers, sv_tol)


def test_exact_catches_a_non_finite_entry_on_both_routes():
    # 3372 rows: a refused preconditioner sends the run to A's own check; 16
    # rows (n <= 4d): A is its own sketch
    for n, rows in ((3372, NON_FINITE_ROWS), (16, (0, 7, 15))):
        a = gen_synthetic(SyntheticSpec(n=n, d=4, rank=4, seed=62))
        for bad in (np.nan, np.inf, -np.inf):
            for row in rows:
                b = a.copy()
                b[row, 2] = bad
                with pytest.raises(FormatError, match="^matrix contains non-finite entries$"):
                    leverage_exact(b)


@pytest.mark.parametrize("family", FAMILIES)
def test_finite_entries_whose_sketch_overflows_raise_format_error(family):
    # every bucket sum of two or more rows of a column of 1.7e308 overflows,
    # and the sketch's check raises what the SVD's check of that sketch would,
    # with none of numpy's overflow warnings on the way
    a = gen_synthetic(SyntheticSpec(n=3000, d=4, rank=4, seed=63))
    a[:, 2] = 1.7e308
    spec = SketchSpec(family, eps=0.5, d=4, seed=64)
    for workers in (1, 3):
        for sv_tol in (None, 1e-3):
            with pytest.raises(FormatError, match="^matrix contains non-finite entries$"):
                run_distributed(a, spec, workers, sv_tol)


def overflowing_factors():
    """A finite 14 x 4 input whose first column is 1e308 throughout, so that
    its column norm, and with it the first entry of its R factor and its
    sigma_1, overflow; and a CountSketch whose sketch of it is finite, but
    whose sketch's R factor holds -inf."""
    a = gen_synthetic(SyntheticSpec(n=3372, d=4, rank=4, seed=1))[:14] * 1e300
    a[:, 0] = 1e308
    return a, SketchSpec("countsketch", eps=0.5, d=4, seed=2)


def test_finite_entries_whose_r_factor_or_sigma_overflows_raise_format_error():
    a, spec = overflowing_factors()
    assert np.isfinite(apply_sketch(a, spec).data).all()
    for call in (
        # the Gram route's sigma_1 overflows when it is scaled back
        lambda: run_distributed(a, spec, 1, 1e-3),
        lambda: run_distributed(a, spec, 3, 1e-3),
        lambda: right_svd(a),
        lambda: right_svd(a, 1e-3),
        lambda: leverage_exact(a),  # A is its own sketch at n <= 4d
        lambda: thin_svd(a),  # LAPACK scales sigma_1 back to inf
    ):
        with pytest.raises(FormatError, match="^matrix contains non-finite entries$"):
            call()


def test_the_oracle_refuses_finite_entries_whose_gram_overflows():
    # A^T A of that input holds inf: the oracle refuses it before pinv sees
    # it, with the error of the other methods and no overflow warning
    a, _ = overflowing_factors()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match="^matrix contains non-finite entries$"):
            leverage_oracle(a)


# The uncorrected run on the input of overflowing_factors: its sketch's R
# factor holds -inf, on which LAPACK's SVD may never return.
UNCORRECTED_RUNS = """
import sys
import numpy as np
from levsketch import SketchSpec, run_distributed
from levsketch.errors import FormatError

a = np.load(sys.argv[1])
for workers in (1, 3):
    try:
        run_distributed(a, SketchSpec("countsketch", eps=0.5, d=4, seed=2), workers, None)
    except FormatError as exc:
        print(exc)
"""


def test_an_overflowing_r_factor_of_the_sketch_is_refused_before_its_svd(tmp_path):
    # in a child process, so that a regression fails on the timeout instead
    # of hanging the suite
    a, _ = overflowing_factors()
    np.save(tmp_path / "a.npy", a)
    src = str(Path(levsketch.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run(
        [sys.executable, "-W", "error", "-c", UNCORRECTED_RUNS, str(tmp_path / "a.npy")],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout == "matrix contains non-finite entries\n" * 2


def test_the_pipelines_check_the_sketch_for_finiteness_never_a(monkeypatch):
    n, d = 4096, 16
    a = gen_synthetic(SyntheticSpec(n=n, d=d, rank=d, seed=65))
    checked = []

    def refuse_n_by_d(check):
        def refusing(x, *args, **kwargs):
            if np.size(x) >= n * d:
                raise AssertionError(f"a finiteness check of {np.shape(x)} ran")
            if np.ndim(x) == 2:
                checked.append(np.shape(x))
            return check(x, *args, **kwargs)

        return refusing

    monkeypatch.setattr(np, "isfinite", refuse_n_by_d(np.isfinite))
    monkeypatch.setattr(levsketch.matrix, "_all_finite", refuse_n_by_d(levsketch.matrix._all_finite))
    spec = SketchSpec("countsketch", eps=0.5, d=d, seed=66, rows_override=1024)
    for workers in (1, 3):
        assert run_distributed(a, spec, workers, 1e-3)[0].effective_rank == d
    res = leverage_exact(a)
    assert res.effective_rank == d and res.preconditioner is not None
    # the two runs' sketches, exact's sketch and its d x d R factor, and its
    # d x d factor C diag(sigma); each but the R factor is checked by
    # _all_finite, whose scan checks it again as one block
    assert checked == [(1024, d)] * 4 + [(4 * d, d)] * 2 + [(d, d)] * 3


def exact_basis_bytes(n, d, k, leaks):
    """The memory-cap figure of the exact method's basis and score step, for a
    sketch that kept k directions: Y (n x k, or n x d with A V_0 beside it
    when a checked sketch dropped directions), the scores, the basis V / sigma,
    Gram / C / R_A / the SVD of R_A / C^-1 U_R, and the score block."""
    return 8 * (n * (d if leaks else k) + n + d * k + 7 * k * k + min(n, SCORE_BLOCK_ROWS) * (k + 1))


def r_factor_svd_bytes(n, d):
    """The memory-cap figure of :func:`right_svd` of an n x d matrix, n >= d."""
    return 8 * (3 * n * d + 5 * d * d + 7 * d * d + d)


def spikes(n, d, m, seed):
    """Gaussian columns plus m columns that each hold one nonzero, on m
    distinct rows: those rows have score 1 and carry a direction alone, so a
    CountSketch that sums two of them into one bucket loses a direction. The
    exact scores: 1 on the spike rows, and the others' from the thin SVD of
    the Gaussian columns without the spike rows."""
    rng = np.random.default_rng(seed)
    a = np.zeros((n, d))
    a[:, : d - m] = rng.standard_normal((n, d - m))
    rows = rng.choice(n, m, replace=False)
    a[rows, np.arange(d - m, d)] = rng.uniform(0.5, 2.0, m)
    truth = np.ones(n)
    rest = np.setdiff1d(np.arange(n), rows)
    if m < d:
        u = thin_svd(a[rest, : d - m]).u
        truth[rest] = np.einsum("ij,ij->i", u, u)
    else:
        truth[rest] = 0.0
    return a, truth


def refuse_qr_of(rows):
    """A stand-in for np.linalg.qr that refuses an input of more than ``rows``
    rows and passes smaller ones (a sketch) to the real QR."""
    qr = np.linalg.qr

    def refusing(x, *args, **kwargs):
        if x.shape[0] > rows:
            raise AssertionError(f"a QR of {x.shape[0]} rows ran")
        return qr(x, *args, **kwargs)

    return refusing


def test_exact_svd_checks_the_memory_cap_before_allocating(monkeypatch):
    # On the fallback route the R-factor SVD of A (three input copies, tau, R,
    # thin SVD of R) needs more than any other step, so it sets the figure:
    # with A its own sketch (n <= 4d), and when the check refuses the sketch
    # because 16 spike rows collide in its 64 rows and the QR runs on A.
    for n, d, m, sketched in ((60, 16, 0, False), (2000, 16, 16, True)):
        a = spikes(n, d, m, 26)[0]
        need = r_factor_svd_bytes(n, d)
        assert need > exact_basis_bytes(n, d, d, sketched)
        with monkeypatch.context() as patched:
            patched.setenv("LVSK_MEM_CAP", str(need - 1))
            patched.setattr(np.linalg, "qr", refuse_qr_of(n - 1))
            with pytest.raises(CapacityError, match=f"R-factor SVD of a {n}x{d}"):
                leverage_exact(a)
        with monkeypatch.context() as patched:
            patched.setenv("LVSK_MEM_CAP", str(need))
            res = leverage_exact(a)
        assert res.effective_rank == d
        assert res.preconditioner is None


def test_exact_basis_checks_the_memory_cap_before_its_gemm(monkeypatch):
    # On the preconditioned route nothing touches all n rows before Y = A W:
    # the sketch state and the R-factor SVD of the 4d x d sketch need less.
    # At rank 4 the sketch drops 12 directions, and A V_0 is formed to check
    # them.
    n, d = 5000, 16

    def refuse(*args, **kwargs):
        raise AssertionError("the basis GEMM ran despite the memory cap")

    for rank in (d, 4):
        a = gen_synthetic(SyntheticSpec(n=n, d=d, rank=rank, seed=28))
        need = exact_basis_bytes(n, d, rank, rank < d)
        assert need > r_factor_svd_bytes(4 * d, d)
        with monkeypatch.context() as patched:
            patched.setenv("LVSK_MEM_CAP", str(need - 1))
            patched.setattr(levsketch.leverage, "_approx_basis", refuse)
            with pytest.raises(CapacityError, match="orthonormal basis"):
                leverage_exact(a)
        with monkeypatch.context() as patched:
            patched.setenv("LVSK_MEM_CAP", str(need))
            res = leverage_exact(a)
        assert res.effective_rank == rank
        assert sketch_rows(res.preconditioner) == 4 * d


@pytest.mark.parametrize(
    "n, d, m",
    [pytest.param(4096, 64, 32, id="4096x64-32-spikes"), pytest.param(20000, 256, 128, id="20000x256-128-spikes")],
)
def test_exact_scores_of_spike_rows_that_collide_in_the_sketch(n, d, m):
    # Without the check against A the preconditioned route loses the
    # directions of spike rows that share a bucket: rank 62 of 64 at
    # 4096 x 64, and 251 of 256 at 20000 x 256.
    a, truth = spikes(n, d, m, 5)
    res = leverage_exact(a)
    assert res.effective_rank == d
    assert np.abs(res.scores - truth).max() <= 1e-12
    if n <= 5000:
        orc = leverage_oracle(a)
        assert orc.effective_rank == d
        assert np.abs(res.scores - orc.scores).max() <= 1e-12


@pytest.mark.parametrize("rest", [1.0, 0.0], ids=["kappa-of-C-1e6", "sketch-all-zero"])
def test_exact_refuses_a_sketch_that_cancels_two_large_rows(rest):
    # Two equal rows of norm ~1e6 that the preconditioner sums into one bucket
    # with opposite signs vanish from the sketch. Among Gaussian rows the
    # sketch keeps all d directions but sees theirs a million times too small:
    # kappa(C) is then ~1e6, and one Cholesky QR pass without the kappa check
    # misses the scores by 1e-6. Alone, they leave an all-zero sketch of a
    # rank-1 matrix.
    n, d = 300, 8
    spec = SketchSpec("countsketch", eps=0.5, d=n, rows_override=4 * d)  # S itself, as S I
    s = apply_sketch(np.eye(n), spec).data
    i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if np.array_equal(s[:, i], -s[:, j]))
    rng = np.random.default_rng(30)
    a = rest * rng.standard_normal((n, d))
    a[[i, j]] = 1e6 * rng.standard_normal(d)
    res = leverage_exact(a)
    ref = truncate(thin_svd(a), 1e-12)
    assert res.effective_rank == ref.rank
    assert res.preconditioner is None
    assert np.abs(res.scores - np.einsum("ij,ij->i", ref.u, ref.u)).max() <= 1e-12


@pytest.mark.parametrize("rank", [4, 2])
def test_exact_scores_of_entries_near_the_overflow_threshold(rank):
    # At entries of 1e307 the sketched attempt's norms can overflow where A's
    # own R factor does not (here ||A V_0||_F, at rank 2): that refuses the
    # sketch, with no warning and no error.
    rng = np.random.default_rng(31)
    a = rng.standard_normal((200, rank)) @ rng.standard_normal((rank, 4))
    a *= 1e307 / np.abs(a).max()
    res = leverage_exact(a)
    ref = leverage_exact(a * 2.0**-1000)  # exact scaling, far from overflow
    assert res.effective_rank == ref.effective_rank == rank
    assert np.abs(res.scores - ref.scores).max() <= 1e-12


@pytest.mark.parametrize("rank", [64, 20], ids=["gaussian-full-rank", "exact-low-rank"])
def test_exact_takes_the_preconditioned_route_on_generic_inputs(monkeypatch, rank):
    n, d = 4096, 64
    a = gen_synthetic(SyntheticSpec(n=n, d=d, rank=rank, seed=29))
    monkeypatch.setattr(np.linalg, "qr", refuse_qr_of(4 * d))
    res = leverage_exact(a)
    assert res.effective_rank == rank
    assert res.preconditioner == SketchSpec("countsketch", eps=0.5, d=d, rows_override=4 * d)
    assert np.abs(res.scores - leverage_oracle(a).scores).max() <= 1e-12


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


def test_exact_rotates_the_basis_onto_the_components_above_the_floor():
    # the preconditioner keeps the two components at 1e-13 (its cut is
    # 1e-14), A's own spectrum drops them at the 1e-12 floor; 5.2e-18 measured
    rng = np.random.default_rng(3)
    u = np.linalg.qr(rng.standard_normal((4096, 12)))[0]
    v = np.linalg.qr(rng.standard_normal((12, 12)))[0]
    a = (u * np.r_[np.ones(10), np.full(2, 1e-13)]) @ v.T
    res = leverage_exact(a)
    assert res.preconditioner is not None and res.effective_rank == 10
    assert np.abs(res.scores - np.einsum("ij,ij->i", u[:, :10], u[:, :10])).max() <= 1e-15


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


def test_save_scores_writes_index_and_17_digit_score_lines(tmp_path):
    # 10000 rows span three write blocks, the last one short
    scores = np.random.default_rng(4).random(10000) ** 9
    scores[:3] = [0.0, 5e-324, 1.0]
    path = tmp_path / "scores.csv"
    save_scores(LeverageResult(scores=scores, method="exact", effective_rank=1), path)
    assert path.read_text() == "".join("%d,%.17g\n" % pair for pair in enumerate(scores.tolist()))


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


def test_score_sweep_checks_the_memory_cap_before_allocating(monkeypatch):
    # 200000 x 1 at k = 4: the sketch stage needs far less than the 1.6 MB
    # of scores, so the sweep's own check is the one that refuses
    n = 200000
    a = np.random.default_rng(5).standard_normal((n, 1))
    spec = SketchSpec("countsketch", eps=0.5, d=1)
    need = 8 * (n + SCORE_BLOCK_ROWS * (1 + 1))  # the scores, one block's product and row norms
    for cap in (1000000, need - 1):
        monkeypatch.setenv("LVSK_MEM_CAP", str(cap))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=f"scores of {n} rows"):
                run_distributed(a, spec, 1, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n  # refused before the scores were allocated
    sweep, peaks = levsketch.leverage._block_scores, []

    def traced_sweep(rows, basis):
        tracemalloc.start()
        try:
            scores = sweep(rows, basis)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return scores

    monkeypatch.setenv("LVSK_MEM_CAP", str(need))
    # the first run passing the cap also fills numpy's internal caches (a few
    # KB of small buffers that no cap figure counts); the second is traced
    untraced, _ = run_distributed(a, spec, 1, 1e-3)
    monkeypatch.setattr(levsketch.leverage, "_block_scores", traced_sweep)
    res, _ = run_distributed(a, spec, 1, 1e-3)
    assert len(peaks) == 1 and peaks[0] <= need
    assert np.array_equal(res.scores, untraced.scores)
