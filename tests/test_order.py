import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from levsketch import OrderingPlan, OrderingPolicy, make_plan, scores_to_distribution
from levsketch.errors import CapacityError, ConfigurationError, DegenerateInputError
from levsketch.matrix import philox
from levsketch.order import _DRAW_CHUNK, _ORDER_STREAM, _PLAN_CHUNK, _stable_argsort, save_manifest, save_plan


def str_join_plan_bytes(indices) -> bytes:
    """The plan file as a per-index str() join writes it: the reference for
    save_plan's bytes."""
    return ("\n".join(str(int(i)) for i in indices) + "\n").encode("ascii")


def saved_plan_bytes(indices, path) -> bytes:
    save_plan(OrderingPlan(epoch=0, indices=np.asarray(indices, dtype=np.int64), policy=OrderingPolicy("dec")), path)
    return path.read_bytes()


def test_distribution_normalizes():
    assert np.allclose(scores_to_distribution([2.0, 1.0, 1.0]), [0.5, 0.25, 0.25])
    assert np.allclose(scores_to_distribution([7.0]), [1.0])


def test_distribution_uniform_from_equal_scores():
    p = scores_to_distribution(np.full(8, 0.37))
    assert np.allclose(p, 1 / 8)
    assert abs(p.sum() - 1.0) <= 1e-12


def test_distribution_rejects_degenerate():
    with pytest.raises(DegenerateInputError):
        scores_to_distribution([0.0, 0.0])
    with pytest.raises(DegenerateInputError):
        scores_to_distribution([1.0, -0.5])
    with pytest.raises(DegenerateInputError):
        scores_to_distribution([])
    for bad in ([1.0, np.nan], [np.inf, 1.0], [[1.0, 2.0]]):
        with pytest.raises(DegenerateInputError):
            scores_to_distribution(bad)


def test_dec_sorts_decreasing():
    p = scores_to_distribution([0.1, 0.9, 0.5])
    plan = make_plan(p, OrderingPolicy("dec", seed=0))
    assert plan.indices.tolist() == [1, 2, 0]


def test_dec_breaks_ties_by_index():
    p = scores_to_distribution([0.3, 0.4, 0.3])
    plan = make_plan(p, OrderingPolicy("dec", seed=0))
    assert plan.indices.tolist() == [1, 0, 2]


def test_dec_epoch_invariant():
    p = scores_to_distribution(np.random.default_rng(0).random(20))
    policy = OrderingPolicy("dec", seed=3)
    plans = [make_plan(p, policy, e).indices for e in range(3)]
    assert np.array_equal(plans[0], plans[1])
    assert np.array_equal(plans[1], plans[2])


def test_swr_point_mass_forces_draws():
    plan = make_plan(np.array([0.0, 1.0, 0.0]), OrderingPolicy("dec_swr", seed=1))
    assert plan.indices.tolist() == [1, 1, 1]


def test_permutation_policies_emit_permutations():
    rng = np.random.default_rng(2)
    p = scores_to_distribution(rng.random(200))
    for kind in ("shuffle", "dec", "dec_swor"):
        plan = make_plan(p, OrderingPolicy(kind, seed=5), epoch=2)
        assert sorted(plan.indices.tolist()) == list(range(200))


def test_swr_length_and_range():
    rng = np.random.default_rng(3)
    p = scores_to_distribution(rng.random(100))
    plan = make_plan(p, OrderingPolicy("dec_swr", seed=7), epoch=1)
    assert plan.indices.shape == (100,)
    assert plan.indices.min() >= 0 and plan.indices.max() < 100


def test_zero_score_items_sort_last_in_swor():
    p = np.array([0.5, 0.0, 0.5, 0.0])
    plan = make_plan(p, OrderingPolicy("dec_swor", seed=11), epoch=0)
    assert sorted(plan.indices.tolist()) == [0, 1, 2, 3]
    assert set(plan.indices[:2].tolist()) == {0, 2}
    assert set(plan.indices[2:].tolist()) == {1, 3}


def test_zero_score_items_never_drawn_in_swr():
    p = np.array([0.5, 0.0, 0.5, 0.0])
    plan = make_plan(p, OrderingPolicy("dec_swr", seed=13), epoch=0)
    assert set(plan.indices.tolist()) <= {0, 2}


def test_stochastic_policies_keyed_by_seed_and_epoch():
    rng = np.random.default_rng(4)
    p = scores_to_distribution(rng.random(50))
    for kind in ("shuffle", "dec_swr", "dec_swor"):
        policy = OrderingPolicy(kind, seed=17)
        e0 = make_plan(p, policy, 0).indices
        e1 = make_plan(p, policy, 1).indices
        assert not np.array_equal(e0, e1)
        assert np.array_equal(e0, make_plan(p, policy, 0).indices)
        other_seed = make_plan(p, OrderingPolicy(kind, seed=18), 0).indices
        assert not np.array_equal(e0, other_seed)


def test_score_scaling_leaves_plans_unchanged():
    rng = np.random.default_rng(5)
    scores = rng.random(64)
    for kind in ("shuffle", "dec", "dec_swr", "dec_swor"):
        policy = OrderingPolicy(kind, seed=19)
        base = make_plan(scores_to_distribution(scores), policy, 1).indices
        scaled = make_plan(scores_to_distribution(1000.0 * scores), policy, 1).indices
        assert np.array_equal(base, scaled)


def test_swor_first_draw_law():
    # first draw of the exponential-keys race follows P itself
    p = scores_to_distribution(np.array([4.0, 2.0, 1.0, 1.0]))
    policy = OrderingPolicy("dec_swor", seed=23)
    trials = 20000
    counts = np.zeros(4)
    for e in range(trials):
        counts[make_plan(p, policy, e).indices[0]] += 1
    freq = counts / trials
    sigma = np.sqrt(p * (1 - p) / trials)
    assert (np.abs(freq - p) <= 3 * sigma).all()


def test_swor_uniform_is_uniform_shuffle():
    # chi-square on first positions under a uniform distribution, n=5
    n, trials = 5, 20000
    p = np.full(n, 1 / n)
    policy = OrderingPolicy("dec_swor", seed=29)
    counts = np.zeros(n)
    for e in range(trials):
        counts[make_plan(p, policy, e).indices[0]] += 1
    expected = trials / n
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 18.47  # df=4 at p=0.001


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        OrderingPolicy("sorted", seed=0)
    p = np.array([0.5, 0.5])
    with pytest.raises(DegenerateInputError):
        make_plan(np.array([0.5, 0.2]), OrderingPolicy("dec", seed=0))
    with pytest.raises(ConfigurationError):
        make_plan(p, OrderingPolicy("dec", seed=0), epoch=-1)
    with pytest.raises(DegenerateInputError):
        make_plan(np.array([[0.5, 0.5]]), OrderingPolicy("dec", seed=0))
    for seed in (-1, True, False, 3.0, "3"):
        with pytest.raises(ConfigurationError, match="seed"):
            OrderingPolicy("shuffle", seed=seed)
    for kind in ("shuffle", "dec", "dec_swr", "dec_swor"):
        for epoch in (1.5, 1.0, True, "1"):
            with pytest.raises(ConfigurationError, match="epoch"):
                make_plan(p, OrderingPolicy(kind, seed=0), epoch=epoch)
        for bad in ([np.nan, 1.0], [1.5, -0.5], [np.inf, 0.0]):
            with pytest.raises(DegenerateInputError, match="finite and nonnegative"):
                make_plan(np.array(bad), OrderingPolicy(kind, seed=0))


def test_numpy_integers_are_taken_as_python_ints(tmp_path):
    policy = OrderingPolicy("shuffle", seed=np.int64(3))
    assert policy == OrderingPolicy("shuffle", seed=3) and type(policy.seed) is int
    p = scores_to_distribution(np.arange(1.0, 9.0))
    plan = make_plan(p, policy, np.int64(2))
    assert type(plan.epoch) is int
    assert np.array_equal(plan.indices, make_plan(p, OrderingPolicy("shuffle", seed=3), 2).indices)
    save_manifest([plan], ["e.txt"], 4, tmp_path / "m.json")
    assert json.loads((tmp_path / "m.json").read_text())["seed"] == 3


def test_make_plan_checks_its_memory_figure_before_drawing(monkeypatch):
    n = 50000
    p = scores_to_distribution(np.random.default_rng(6).random(n))
    # p, then dec_swr's cumulative sum, uniform draws and drawn indices, plus
    # one chunk's uniform order, sorted uniforms and lookups
    need = 32 * n + 24 * _DRAW_CHUNK

    def refuse(*args, **kwargs):
        raise AssertionError("a plan was drawn despite the memory cap")

    for kind in ("shuffle", "dec", "dec_swr", "dec_swor"):
        policy = OrderingPolicy(kind, seed=3)
        monkeypatch.setenv("LVSK_MEM_CAP", str(need - 1))
        with monkeypatch.context() as m:
            m.setattr(np.random, "Philox", refuse)
            m.setattr(np, "argsort", refuse)
            with pytest.raises(CapacityError):
                make_plan(p, policy, 1)
        monkeypatch.setenv("LVSK_MEM_CAP", str(need))
        tracemalloc.start()
        try:
            plan = make_plan(p, policy, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= need, kind
        assert plan.indices.dtype == np.int64 and plan.indices.size == n


# lengths on both sides of the draw chunk and of a multiple of it
CHUNK_EDGES = [_DRAW_CHUNK + k for k in (-1, 0, 1)] + [2 * _DRAW_CHUNK + k for k in (-1, 0, 1)]


@st.composite
def tied_scores(draw):
    """Scores with many ties: a few distinct values, runs of zeros, or a
    single nonzero, at small lengths and at lengths around the draw chunk."""
    n = draw(st.one_of(st.integers(1, 40), st.sampled_from(CHUNK_EDGES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["distinct", "few-values", "zeros", "one-nonzero"]))
    if shape == "one-nonzero":
        scores = np.zeros(n)
        scores[rng.integers(n)] = draw(st.sampled_from([1.0, 1e-300, 3.5]))
        return scores
    if shape == "distinct":
        scores = rng.random(n)
    else:
        scores = rng.choice(rng.random(draw(st.integers(1, 5))), size=n)
    if shape == "zeros":
        scores[rng.random(n) < draw(st.sampled_from([0.01, 0.5, 0.99]))] = 0.0
    if not scores.any():
        scores[rng.integers(n)] = 1.0
    return scores


@settings(max_examples=80, deadline=None)
@given(scores=tied_scores(), seed=st.integers(0, 2**32), epoch=st.integers(0, 5))
def test_draws_equal_numpys_choice_and_stable_argsort(scores, seed, epoch):
    n = scores.size
    p = scores_to_distribution(scores)
    swr = make_plan(p, OrderingPolicy("dec_swr", seed), epoch).indices
    assert np.array_equal(swr, philox(_ORDER_STREAM, seed, epoch).choice(n, size=n, replace=True, p=p))
    dec = make_plan(p, OrderingPolicy("dec", seed), epoch).indices
    assert np.array_equal(dec, np.argsort(-p, kind="stable"))
    keys = philox(_ORDER_STREAM, seed, epoch).exponential(size=n)
    with np.errstate(divide="ignore", invalid="ignore"):
        keys /= p
    swor = make_plan(p, OrderingPolicy("dec_swor", seed), epoch).indices
    assert np.array_equal(swor, np.argsort(keys, kind="stable"))


SPECIAL_KEYS = [-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -2.5, 5e-324]


@settings(max_examples=150, deadline=None)
@given(
    keys=hnp.arrays(
        np.float64,
        st.integers(1, 120),
        elements=st.one_of(st.sampled_from(SPECIAL_KEYS), st.floats(allow_nan=True, allow_infinity=True)),
    )
)
def test_stable_argsort_orders_ties_like_numpys_stable_sort(keys):
    expected = np.argsort(keys, kind="stable")
    assert np.array_equal(_stable_argsort(keys.copy()), expected)


@pytest.mark.parametrize("n", [1, 2, *CHUNK_EDGES, 3 * _DRAW_CHUNK + 5])
def test_stable_argsort_across_chunks(n):
    # runs of -0.0/+0.0, inf and NaN long enough to cross chunk boundaries
    rng = np.random.default_rng(n)
    for pool in (SPECIAL_KEYS, [-0.0, 0.0], [np.nan, -np.nan], [np.inf, 1.0], [7.0]):
        keys = rng.choice(np.array(pool), size=n)
        assert np.array_equal(_stable_argsort(keys.copy()), np.argsort(keys, kind="stable")), pool
    keys = np.sort(rng.choice(np.array(SPECIAL_KEYS), size=n))
    assert np.array_equal(_stable_argsort(keys.copy()), np.argsort(keys, kind="stable"))


@pytest.mark.parametrize(
    "indices",
    [
        [0],
        [7],
        [0, 0, 0, 0],
        [v for k in range(1, 13) for v in (10**k - 1, 10**k, 10**k + 1)],
        [2**63 - 1, 0, 10**18, 10**18 - 1],
    ],
    ids=["zero", "one-index", "all-zeros", "powers-of-ten", "int64-extremes"],
)
def test_save_plan_writes_the_str_join_bytes(indices, tmp_path):
    assert saved_plan_bytes(indices, tmp_path / "plan.txt") == str_join_plan_bytes(indices)


def test_save_plan_bytes_of_drawn_plans(tmp_path):
    rng = np.random.default_rng(8)
    # a dec_swr plan repeats high-score indices; n spans more than one chunk
    for n in (1000, 2 * _PLAN_CHUNK + 17):
        p = scores_to_distribution(rng.random(n) ** 4)
        for kind in ("shuffle", "dec", "dec_swr", "dec_swor"):
            plan = make_plan(p, OrderingPolicy(kind, seed=5), epoch=1)
            if kind == "dec_swr":
                assert np.unique(plan.indices).size < n
            path = tmp_path / f"{kind}_{n}.txt"
            save_plan(plan, path)
            assert path.read_bytes() == str_join_plan_bytes(plan.indices)


@settings(max_examples=60, deadline=None)
@given(
    indices=hnp.arrays(
        np.int64,
        st.integers(1, 300),
        elements=st.one_of(st.integers(0, 2**63 - 1), st.integers(0, 10**7)),
    )
)
def test_save_plan_bytes_property(indices, tmp_path_factory):
    path = tmp_path_factory.mktemp("plan") / "plan.txt"
    assert saved_plan_bytes(indices, path) == str_join_plan_bytes(indices)


def test_save_plan_rejects_empty_and_negative_plans(tmp_path):
    for indices in ([], [3, -1, 2]):
        with pytest.raises(DegenerateInputError):
            saved_plan_bytes(indices, tmp_path / "plan.txt")
