import numpy as np
import pytest

from levsketch import (
    SketchSpec,
    SyntheticSpec,
    apply_sketch,
    gen_synthetic,
    right_svd,
    thin_svd,
    truncate,
)
from levsketch.errors import CapacityError, ConfigurationError, DegenerateInputError, SingularInversionError
from levsketch.leverage import _approx_basis
from levsketch.svd import GRAM_SV_TOL_FLOOR, svd_route

U = 2.0**-53


def test_identity_singular_values():
    res = thin_svd(np.eye(3))
    assert np.allclose(res.sigma, [1.0, 1.0, 1.0])


def test_diagonal_matrix():
    res = thin_svd(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(res.sigma, [3.0, 2.0, 1.0])
    # u and v are signed permutations of the identity
    assert np.allclose(np.abs(res.u), np.eye(3), atol=1e-12)
    assert np.allclose(np.abs(res.vt), np.eye(3), atol=1e-12)


def test_reconstruction_and_orthonormality():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((50, 8))
    res = thin_svd(a)
    assert res.sigma.shape == (8,)
    assert (np.diff(res.sigma) <= 0).all()
    assert (res.sigma >= 0).all()
    assert np.allclose(res.u.T @ res.u, np.eye(8), atol=1e-10)
    assert np.allclose(res.vt @ res.vt.T, np.eye(8), atol=1e-10)
    recon = res.u @ np.diag(res.sigma) @ res.vt
    assert np.linalg.norm(recon - a) <= 1e-8 * np.linalg.norm(a)


def test_truncate_threshold_is_strict_and_relative():
    res = thin_svd(np.diag([10.0, 5.0, 1e-12]))
    kept = truncate(res, 1e-6)
    assert kept.rank == 2
    assert np.allclose(kept.sigma, [10.0, 5.0])
    assert kept.u.shape == (3, 2)
    assert kept.vt.shape == (2, 3)


def test_truncate_zero_keeps_strictly_positive():
    res = thin_svd(np.diag([4.0, 2.0, 0.0]))
    kept = truncate(res, 0.0)
    assert kept.rank == 2


def test_truncate_idempotent():
    rng = np.random.default_rng(9)
    res = thin_svd(rng.standard_normal((30, 6)))
    once = truncate(res, 0.3)
    twice = truncate(once, 0.3)
    assert twice.rank == once.rank
    assert np.array_equal(once.sigma, twice.sigma)


def test_truncate_recovers_rank_between_gap():
    a = gen_synthetic(SyntheticSpec(n=80, d=12, rank=4, seed=5))
    res = thin_svd(a)
    for tol in (1e-9, 1e-6, 1e-3):
        assert truncate(res, tol).rank == 4


def test_truncate_recovers_planted_rank_under_noise():
    # rank 50 plus noise 1e-3: the spectrum has a wide gap at component 50
    a = gen_synthetic(SyntheticSpec(n=2048, d=200, rank=50, noise_sigma=1e-3, seed=7))
    res = thin_svd(a)
    assert truncate(res, 1e-2).rank == 50
    assert truncate(res, 1e-3).rank == 50


def test_truncate_rejects_bad_threshold():
    res = thin_svd(np.eye(2))
    with pytest.raises(ConfigurationError):
        truncate(res, 1.0)
    with pytest.raises(ConfigurationError):
        truncate(res, -0.1)


def test_truncate_rejects_zero_matrix():
    res = thin_svd(np.zeros((3, 3)) + 0.0)
    with pytest.raises(DegenerateInputError):
        truncate(res, 0.5)


# ---------------------------------------------------------------------------
# SVD of the R factor (sigma and V^T only)


def with_spectrum(m, n, sigma, seed):
    """An m x n matrix with singular values ``sigma`` (length min(m, n)) and
    random orthonormal singular vectors."""
    rng = np.random.default_rng(seed)
    r = min(m, n)
    q1 = np.linalg.qr(rng.standard_normal((m, r)))[0]
    q2 = np.linalg.qr(rng.standard_normal((n, r)))[0]
    return (q1 * sigma) @ q2.T


def zero_column_sketch():
    a = gen_synthetic(SyntheticSpec(n=400, d=6, rank=6, seed=2))
    a[:, 3] = 0.0
    return apply_sketch(a, SketchSpec("countsketch", eps=0.5, d=6, seed=4, rows_override=40)).data


SHAPES = {
    "tall": lambda: with_spectrum(300, 12, 2.0 ** -np.arange(12), 1),
    "square": lambda: with_spectrum(12, 12, 2.0 ** -np.arange(12), 2),
    # a sketch with fewer rows than columns (rows_override below d)
    "wide": lambda: apply_sketch(
        gen_synthetic(SyntheticSpec(n=500, d=20, rank=20, seed=3)),
        SketchSpec("countsketch", eps=0.5, d=20, seed=5, rows_override=8),
    ).data,
    "zero-column": zero_column_sketch,
    "ill-conditioned": lambda: with_spectrum(200, 15, np.logspace(0, -14, 15), 6),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_right_svd_matches_full_svd(shape):
    a = SHAPES[shape]()
    _, sigma, vt = np.linalg.svd(a, full_matrices=False)
    res = right_svd(a)
    assert res.u is None
    assert res.sigma.shape == sigma.shape and res.vt.shape == vt.shape
    assert np.abs(res.sigma - sigma).max() <= 1e-12 * sigma[0]
    assert np.allclose(res.vt @ res.vt.T, np.eye(vt.shape[0]), atol=1e-12)
    # the span of the leading r right vectors is determined wherever sigma has
    # a gap; its perturbation is at most backward error / gap (Davis-Kahan)
    checked = 0
    for r in range(1, sigma.size):
        gap = (sigma[r - 1] - sigma[r]) / sigma[0]
        if gap < 1e-6:
            continue
        ref = vt[:r].T @ vt[:r]
        got = res.vt[:r].T @ res.vt[:r]
        assert np.linalg.norm(got - ref, 2) <= 1e-12 / gap
        checked += 1
    assert checked >= 4


def test_right_svd_keeps_an_exact_zero_singular_value():
    a = np.array([[3.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 0.0]])
    res = right_svd(a)
    assert res.sigma.tolist() == [4.0, 3.0, 0.0]
    with pytest.raises(SingularInversionError):
        _approx_basis(res)
    kept = truncate(res, 0.0)
    assert kept.rank == 2 and kept.u is None
    assert np.allclose(np.abs(kept.vt), [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], atol=1e-15)


def test_right_svd_of_zero_matrix_cannot_be_truncated():
    res = right_svd(np.zeros((10, 4)))
    assert not res.sigma.any()
    with pytest.raises(DegenerateInputError):
        truncate(res, 1e-3)
    with pytest.raises(DegenerateInputError):
        right_svd(np.zeros((10, 4)), 1e-3)


# per route: the call, the LAPACK step it must not reach over the cap, and its
# figure for an m x n input: three input copies, tau, R and the thin SVD of R;
# or the scaled copy, Q and the n x n factorizations
CAPPED_ROUTES = {
    "householder_qr": (right_svd, "qr", lambda m, n: 8 * (3 * m * n + 5 * n * n + 7 * n * n + n)),
    "gram_cholesky_qr": (lambda a: right_svd(a, 1e-3), "eigh", lambda m, n: 8 * (2 * m * n + 17 * n * n + 2 * n)),
}


@pytest.mark.parametrize("route", CAPPED_ROUTES)
def test_right_svd_checks_the_memory_cap_before_allocating(monkeypatch, route):
    call, step, figure = CAPPED_ROUTES[route]
    m, n = 2000, 16
    a = gen_synthetic(SyntheticSpec(n=m, d=n, rank=n, seed=27))
    need = figure(m, n)

    def refuse(*args, **kwargs):
        raise AssertionError(f"the {step} ran despite the memory cap")

    with monkeypatch.context() as patched:
        patched.setattr(np.linalg, step, refuse)
        patched.setenv("LVSK_MEM_CAP", str(need - 1))
        with pytest.raises(CapacityError):
            call(a)
    assert call(a).rank == n
    monkeypatch.setenv("LVSK_MEM_CAP", str(need))
    assert call(a).rank == n


# ---------------------------------------------------------------------------
# Truncated SVD from the Gram matrix plus one Cholesky QR pass


@pytest.mark.parametrize("sv_tol", [1e-3, GRAM_SV_TOL_FLOOR])
@pytest.mark.parametrize("shape", SHAPES)
def test_gram_right_svd_matches_the_truncated_r_factor_svd(shape, sv_tol):
    a = SHAPES[shape]()
    ref = truncate(right_svd(a), sv_tol)
    res = right_svd(a, sv_tol)
    n = a.shape[1]
    assert res.u is None and res.rank == ref.rank and res.vt.shape == ref.vt.shape
    # Q is orthonormal to rounding, so sigma is as accurate as the GEMM A V_1
    # that formed it, about n u sigma_1 / sigma_j relative
    assert (np.abs(res.sigma - ref.sigma) <= n * U / sv_tol * ref.sigma).all()
    assert np.allclose(res.vt @ res.vt.T, np.eye(res.rank), atol=1e-12)
    # the kept span is tilted towards the dropped one by the Gram's rounding,
    # about n u sigma_1^2 / (sigma_r^2 - sigma_(r+1)^2)
    full = np.linalg.svd(a, compute_uv=False)
    if res.rank < full.size:
        gap = (full[res.rank - 1] ** 2 - full[res.rank] ** 2) / full[0] ** 2
        tilt = np.linalg.norm(res.vt.T @ res.vt - ref.vt.T @ ref.vt, 2)
        assert tilt <= n * U / gap


def test_gram_right_svd_scales_exactly_by_powers_of_two():
    # entries near the overflow threshold, and near the bottom of the normal
    # range, where the unscaled Gram would overflow or flush to zero
    a = SHAPES["tall"]()
    base = right_svd(a, 1e-3)
    for power in (1000, -1000):
        res = right_svd(np.ldexp(a, power), 1e-3)
        assert np.array_equal(res.sigma, np.ldexp(base.sigma, power))
        assert np.array_equal(res.vt, base.vt)


@pytest.mark.parametrize("sv_tol", [0.0, 1e-5, 0.99 * GRAM_SV_TOL_FLOOR, 1.0, np.nan])
def test_gram_right_svd_refuses_a_cut_outside_its_range(monkeypatch, sv_tol):
    # a cut below the floor takes the R factor, bit for bit, and never the
    # Gram's eigh; a cut outside [0, 1) is refused
    a = SHAPES["tall"]()
    if not 0 <= sv_tol < 1:
        with pytest.raises(ConfigurationError, match="sv_tol must be in"):
            right_svd(a, sv_tol)
        return
    ref = truncate(right_svd(a), sv_tol)

    def refuse(*args, **kwargs):
        raise AssertionError("the Gram route ran")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert svd_route(sv_tol) == "householder_qr"
    res = right_svd(a, sv_tol)
    assert np.array_equal(res.sigma, ref.sigma) and np.array_equal(res.vt, ref.vt)
