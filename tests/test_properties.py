"""Property tests of the score invariants (Drineas, Magdon-Ismail, Mahoney &
Woodruff, JMLR 2012): exact scores lie in [0, 1] and sum to the rank, permute
with the rows, and do not change when the matrix is scaled; neither do the
sketched, truncated scores. The sketch itself is linear to within float64
rounding."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levsketch import (
    SketchSpec,
    SyntheticSpec,
    apply_sketch,
    gen_synthetic,
    leverage_exact,
    leverage_sketched_trunc,
)


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
# kappa about 1.8e8 with every score 1: the thin-SVD left factor gives
# l - 1 = 8.9e-16, the basis V/sigma applied to A gives 3.1e-10
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
    # and the scaling.
    m = 1 << (n - 1).bit_length()
    bound = (2 * m + 8) * 2.0**-53 * (abs(alpha) * np.abs(a) + abs(beta) * np.abs(b)).sum(axis=0)
    assert (np.abs(combined - separate) <= bound).all()
