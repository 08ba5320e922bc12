"""Property tests of the score invariants (Drineas, Magdon-Ismail, Mahoney &
Woodruff, JMLR 2012): exact scores lie in [0, 1] and sum to the rank, permute
with the rows, and do not change when the matrix is scaled; neither do the
sketched, truncated scores. Exact scores match the oracle on inputs built to
defeat the exact method's internal sketch. The sketch itself is linear to
within float64 rounding. The truncated sketched method's Gram route keeps the
rank and scores of the R-factor route on spectra that straddle its cut."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from levsketch import (
    SketchSpec,
    SyntheticSpec,
    apply_sketch,
    gen_synthetic,
    leverage_exact,
    leverage_oracle,
    leverage_sketched_trunc,
    right_svd,
    run_distributed,
    truncate,
)
from levsketch.leverage import _approx_basis, _block_scores


@st.composite
def low_rank(draw, min_rows=1, max_rows=60):
    """A matrix of exact column rank r <= d, its columns scaled apart by up to
    three orders of magnitude, and r."""
    d = draw(st.integers(1, 6), label="d")
    n = draw(st.integers(max(min_rows, d), max_rows), label="n")
    rank = draw(st.integers(1, d), label="rank")
    a = gen_synthetic(SyntheticSpec(n=n, d=d, rank=rank, seed=draw(st.integers(0, 2**16), label="seed")))
    columns = draw(st.lists(st.floats(1e-3, 1e3), min_size=d, max_size=d), label="column scales")
    return a * np.array(columns), rank


@settings(max_examples=40, deadline=None)
@given(case=low_rank())
# kappa about 1.8e8 with every score 1: the Cholesky QR route gives
# l - 1 = 2.2e-16, the thin-SVD left factor 8.9e-16, and the basis V/sigma
# applied to A without the Cholesky QR pass 3.1e-10
@example(case=(gen_synthetic(SyntheticSpec(n=4, d=4, rank=4, seed=61208)) * [0.1, 0.1, 1000, 0.001], 4))
def test_exact_scores_lie_in_the_unit_interval_and_sum_to_the_rank(case):
    a, rank = case
    res = leverage_exact(a)
    assert res.effective_rank == rank
    assert (res.scores >= 0).all() and (res.scores <= 1 + 1e-12).all()
    assert abs(res.scores.sum() - rank) <= 1e-9 * rank


@settings(max_examples=40, deadline=None)
@given(case=low_rank(), data=st.data())
def test_exact_scores_permute_with_the_rows(case, data):
    a, _ = case
    perm = np.array(data.draw(st.permutations(range(a.shape[0])), label="perm"))
    np.testing.assert_allclose(leverage_exact(a[perm]).scores, leverage_exact(a).scores[perm], rtol=1e-9, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(case=low_rank(), scale=st.floats(1e-6, 1e6))
def test_exact_scores_are_scale_invariant(case, scale):
    a, _ = case
    np.testing.assert_allclose(leverage_exact(scale * a).scores, leverage_exact(a).scores, rtol=1e-9, atol=1e-12)


@st.composite
def coherent(draw):
    """An n x d matrix with 4d < n <= 4d + 40, so that the exact method runs
    on a CountSketch of only 4d rows, built to defeat that sketch: a
    rank-deficient Gaussian product with spike columns (one nonzero each, so
    a spike row has score 1 and carries a direction alone), duplicated rows
    and all-zero columns, its rows in two tiers 1e8 apart."""
    d = draw(st.integers(1, 6), label="d")
    n = draw(st.integers(4 * d + 1, 4 * d + 40), label="n")
    rank = draw(st.integers(1, d), label="rank")
    rng = np.random.default_rng(draw(st.integers(0, 2**16), label="seed"))
    a = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
    # 1e8 on at least half the rows, or 1e-8 on at most half: the large tier
    # spans the product's row space either way
    up = draw(st.booleans(), label="scale up")
    scaled = rng.permutation(n)[: draw(st.integers(-(-n // 2), n) if up else st.integers(0, n // 2), label="scaled")]
    a[scaled] *= 1e8 if up else 1e-8
    top = 1e8 if up else 1.0  # spikes as large as the large tier, far from the rank floor
    spike_cols = draw(st.lists(st.integers(0, d - 1), unique=True, max_size=d), label="spike columns")
    a[:, spike_cols] = 0.0
    a[rng.choice(n, len(spike_cols), replace=False), spike_cols] = top * rng.uniform(0.5, 2.0, len(spike_cols))
    for _ in range(draw(st.integers(0, 4), label="duplicates")):
        i, j = rng.integers(0, n, 2)
        a[i] = a[j]
    a[:, draw(st.lists(st.integers(0, d - 1), unique=True, max_size=d - 1), label="zero columns")] = 0.0
    return a


@settings(max_examples=60, deadline=None)
@given(a=coherent())
# two spike rows that share a bucket of the 8-row sketch: without the check
# against A the route returned rank 1, scoring them 0.06 and 0.94
@example(a=np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])[[0, 2, 2, 2, 2, 2, 1, 2, 2]])
def test_exact_scores_match_the_oracle_on_coherent_inputs(a):
    assume(a.any())
    # the oracle inverts A^T A, squaring A's condition number: it resolves
    # 1e-8, and the rank, only while every singular value is either within
    # 1e3 of the largest or rounding noise
    sigma = np.linalg.svd(a, compute_uv=False)
    assume(((sigma > 1e-3 * sigma[0]) | (sigma <= 1e-14 * sigma[0])).all())
    ex, orc = leverage_exact(a), leverage_oracle(a)
    assert ex.effective_rank == orc.effective_rank
    assert np.abs(ex.scores - orc.scores).max() <= 1e-8


@settings(max_examples=30, deadline=None)
@given(
    case=low_rank(min_rows=130, max_rows=300),
    family=st.sampled_from(["countsketch", "osnap", "srht"]),
    scale=st.floats(1e-6, 1e6),
)
def test_sketched_truncated_scores_are_scale_invariant(case, family, scale):
    a, rank = case
    spec = SketchSpec(family, eps=0.5, d=a.shape[1], seed=7)
    base = leverage_sketched_trunc(a, spec, 1e-3)
    scaled = leverage_sketched_trunc(scale * a, spec, 1e-3)
    assert scaled.effective_rank == base.effective_rank
    np.testing.assert_allclose(scaled.scores, base.scores, rtol=1e-8, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(16, 3000),
    d=st.integers(1, 6),
    family=st.sampled_from(["countsketch", "osnap", "srht"]),
    seed=st.integers(0, 2**16),
    alpha=st.floats(-1e3, 1e3),
    beta=st.floats(-1e3, 1e3),
)
@example(n=16, d=1, family="countsketch", seed=0, alpha=0.0, beta=2.2250738585e-313)
def test_sketch_is_linear(n, d, family, seed, alpha, beta):
    rng = np.random.default_rng(seed)
    a, b = (rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, d) for _ in range(2))
    spec = SketchSpec(family, eps=0.5, d=d, seed=seed, rows_override=16)
    combined = apply_sketch(alpha * a + beta * b, spec).data
    separate = alpha * apply_sketch(a, spec).data + beta * apply_sketch(b, spec).data
    # Every entry of S X is a sum of at most m = 2^ceil(log2 n) products of an
    # entry of S (|S| <= 1 in all three families) with an entry of X, so in
    # float64 it is off by at most m u |S||X| (u = 2^-53); both sides make
    # that error once per operand, plus a few roundings for alpha*A + beta*B
    # and the scaling. A rounding in the subnormal range errs by up to 2^-1074
    # absolutely rather than relatively, hence the (m + 4) 2^-1074 term.
    m = 1 << (n - 1).bit_length()
    relative = (2 * m + 8) * 2.0**-53 * (abs(alpha) * np.abs(a) + abs(beta) * np.abs(b)).sum(axis=0)
    bound = relative + (m + 4) * 2.0**-1074
    assert (np.abs(combined - separate) <= bound).all()


U = 2.0**-53
# A QR-route singular value this close to the cut, relative, may fall on
# either side of it on the Gram route (whose sigma err by about d u / sv_tol).
CUT_GAP = 1e-8


@st.composite
def straddling_spectra(draw, d=64):
    """An n x 64 input whose spectrum reaches past a cut of 1e-3 or 1e-4: a
    log-spaced spectrum with condition number up to 1e8; rank d/2 plus noise
    1e-6; or multivariate-t rows with one degree of freedom (T1; Ma, Mahoney
    & Yu, JMLR 2015), Gaussian rows of covariance 2 * 0.5^|i - j| each divided
    by the root of a chi-square(1) draw, whose scores are far from uniform."""
    kind = draw(st.sampled_from(["log-spectrum", "half-rank-noise", "t1-rows"]), label="kind")
    n = draw(st.integers(1100, 3000), label="n")
    seed = draw(st.integers(0, 2**16), label="seed")
    rng = np.random.default_rng(seed)
    if kind == "log-spectrum":
        kappa = 10.0 ** draw(st.floats(2, 8), label="log10 kappa")
        left, right = (np.linalg.qr(rng.standard_normal((m, d)))[0] for m in (n, d))
        return (left * np.geomspace(1, 1 / kappa, d)) @ right.T
    if kind == "half-rank-noise":
        return gen_synthetic(SyntheticSpec(n=n, d=d, rank=d // 2, noise_sigma=1e-6, seed=seed))
    cov = 2.0 * 0.5 ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    return rng.standard_normal((n, d)) @ np.linalg.cholesky(cov).T / np.sqrt(rng.chisquare(1, (n, 1)))


@settings(max_examples=30, deadline=None)
@given(
    a=straddling_spectra(),
    family=st.sampled_from(["countsketch", "osnap", "srht"]),
    sv_tol=st.sampled_from([1e-3, 1e-4]),
)
def test_gram_route_keeps_the_rank_and_scores_of_the_r_factor_route(a, family, sv_tol):
    d = a.shape[1]
    spec = SketchSpec(family, eps=0.5, d=d, seed=3, rows_override=1024)
    sketch = apply_sketch(a, spec).data
    qr = right_svd(sketch)
    ref = truncate(qr, sv_tol)
    res, _ = run_distributed(a, spec, 1, sv_tol)
    assert res.report["svd_route"] == "gram_cholesky_qr"
    for w in (3, 8):
        assert np.array_equal(run_distributed(a, spec, w, sv_tol)[0].scores, res.scores)
    near = np.abs(qr.sigma / (sv_tol * qr.sigma[0]) - 1) <= CUT_GAP
    if near.any():
        assert abs(res.effective_rank - ref.rank) <= np.count_nonzero(near)
        return
    assert res.effective_rank == ref.rank
    # sigma as accurate as the GEMM A V_1 that formed it: about d u / sv_tol
    # relative at most, 0.42 u / sv_tol measured (the largest over about 1,000
    # drawn inputs of these kinds, at both cuts and for all three families)
    gram = right_svd(sketch, sv_tol)
    assert (np.abs(gram.sigma - ref.sigma) <= 2 * U / sv_tol * ref.sigma).all()
    # The Gram's rounding, about d u sigma_1^2, tilts each kept right vector
    # towards the dropped ones by up to d u sigma_1^2 / (sigma_i^2 - sigma_j^2),
    # with sigma_i > sv_tol sigma_1 and sigma_j <= sv_tol sigma_1 / 2, and the
    # Cholesky QR pass, acting inside the kept span, keeps that tilt: so the
    # scores move by up to about d u / sv_tol^2, against u / sv_tol for the QR
    # route's own. Measured on the same draws: 2.4 u / sv_tol^2 at most, on
    # scores below 1e-6 of T1 rows, 0.94 u / sv_tol^2 on scores above 1e-3.
    expected = _block_scores(a, _approx_basis(ref))
    assert (np.abs(res.scores - expected) <= 8 * U / sv_tol**2 * expected).all()
