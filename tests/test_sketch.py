import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from levsketch import (
    SketchSpec,
    SketchState,
    SyntheticSpec,
    apply_sketch,
    consume_rows,
    gen_synthetic,
    load_matrix,
    load_state,
    merge,
    partition_rows,
    save_matrix,
    save_state,
    sketch_rows,
)
from levsketch.errors import (
    CapacityError,
    ConfigurationError,
    DimensionMismatchError,
    FormatError,
    IncompatibleSketchError,
    UnsupportedFamilyError,
)
from levsketch.sketch import (
    _bucket_hash,
    _hadamard,
    _leaf_rows,
    _leaf_transform,
    _next_pow2,
    _sampled_hadamard,
    _sign_hash,
    _srht_factors,
    _tree_state_elements,
)


def cs_spec(**kw):
    base = dict(family="countsketch", eps=0.5, d=16, seed=1)
    base.update(kw)
    return SketchSpec(**base)


# ---------------------------------------------------------------------------
# Row-count sizing


def test_rows_countsketch_example():
    # ceil(1 * (16 / 0.5)^2) = 1024
    assert sketch_rows(SketchSpec("countsketch", eps=0.5, d=16)) == 1024


def test_rows_osnap_example():
    # ceil(2 * 16 / 0.25 * ln 16) = ceil(354.89...) = 355
    assert sketch_rows(SketchSpec("osnap", eps=0.5, d=16)) == 355


def test_rows_srht_power_of_two():
    # the power of two at or above 1 * 16 / 0.25 * ln 16 = 177.4...
    k = sketch_rows(SketchSpec("srht", eps=0.5, d=16))
    assert k == 256
    assert k & (k - 1) == 0


EPS_GRID = (0.1, 0.3, 0.5, 0.9)

# k at the default sizing constants for eps in EPS_GRID, by family and d
DEFAULT_ROWS = {
    "countsketch": {
        2: [400, 45, 16, 5],
        10: [10000, 1112, 400, 124],
        64: [409600, 45512, 16384, 5057],
        256: [6553600, 728178, 262144, 80909],
    },
    "osnap": {
        2: [278, 31, 12, 4],
        10: [4606, 512, 185, 57],
        64: [53234, 5915, 2130, 658],
        256: [283914, 31546, 11357, 3506],
    },
    "srht": {
        2: [256, 16, 8, 2],
        10: [4096, 256, 128, 32],
        64: [32768, 4096, 2048, 512],
        256: [262144, 16384, 8192, 2048],
    },
}


@pytest.mark.parametrize("family", sorted(DEFAULT_ROWS))
@pytest.mark.parametrize("d", [2, 10, 64, 256])
def test_default_rows_table(family, d):
    assert [sketch_rows(SketchSpec(family, eps=eps, d=d)) for eps in EPS_GRID] == DEFAULT_ROWS[family][d]


def test_rows_override_wins():
    for fam in ("countsketch", "osnap", "srht"):
        assert sketch_rows(SketchSpec(fam, eps=0.5, d=16, rows_override=64)) == 64


def test_spec_validation():
    with pytest.raises(UnsupportedFamilyError):
        SketchSpec("gaussian", eps=0.5, d=4)
    with pytest.raises(ConfigurationError):
        SketchSpec("countsketch", eps=1.5, d=4)
    with pytest.raises(ConfigurationError):
        SketchSpec("countsketch", eps=0.5, d=0)
    with pytest.raises(ConfigurationError):
        SketchSpec("osnap", eps=0.5, d=4, osnap_s=0)
    for family in ("countsketch", "srht"):
        with pytest.raises(ConfigurationError, match="OSNAP only"):
            SketchSpec(family, eps=0.5, d=4, osnap_s=4)
    with pytest.raises(ConfigurationError, match="below nonzeros per column"):
        SketchState(SketchSpec("osnap", eps=0.5, d=4, osnap_s=4, rows_override=3), 100)


@pytest.mark.parametrize(
    "field, value",
    [
        ("d", 4.0),
        ("d", True),
        ("seed", 1.0),
        ("seed", True),
        ("osnap_s", 2.0),
        ("rows_override", 64.0),
        ("rows_override", True),
    ],
)
def test_spec_refuses_a_field_that_is_not_an_integer(field, value):
    family = "osnap" if field == "osnap_s" else "countsketch"
    with pytest.raises(ConfigurationError, match=field):
        SketchSpec(**{"family": family, "eps": 0.5, "d": 4, field: value})


@pytest.mark.parametrize("n_rows", [3000.0, True, "3000"])
def test_state_refuses_a_row_count_that_is_not_an_integer(n_rows):
    with pytest.raises(ConfigurationError, match="n_rows"):
        SketchState(cs_spec(), n_rows)


def test_numpy_integers_are_taken_as_python_ints():
    spec = SketchSpec(
        "osnap", eps=0.5, d=np.int64(4), osnap_s=np.int32(2), seed=np.uint64(3), rows_override=np.int64(16)
    )
    plain = SketchSpec("osnap", eps=0.5, d=4, osnap_s=2, seed=3, rows_override=16)
    assert spec == plain and all(type(v) is int for v in (spec.d, spec.osnap_s, spec.seed, spec.rows_override))
    assert json.dumps(spec.to_json_dict()) == json.dumps(plain.to_json_dict())
    a = np.random.default_rng(46).standard_normal((300, 4))
    state = consume_rows(SketchState(spec, np.int64(300)), a, 0)
    assert type(state.n_rows) is int
    assert np.array_equal(state.data, apply_sketch(a, plain).data)


# ---------------------------------------------------------------------------
# Column structure of the implicit matrix


def srht_draws(spec: SketchSpec, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """SRHT's m signs and its sample, drawn in one pass from one Philox stream
    (all m signs, then the sample), with the sample in increasing order, the
    order of the state's rows: the oracle for the per-leaf draws of the
    package."""
    m, state = _next_pow2(n_rows), SketchState(spec, n_rows)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([0x5348, spec.seed])))
    signs = 2.0 * rng.integers(0, 2, m) - 1.0
    sample = np.sort(rng.choice(m, state.k, replace=False))
    *_, low, high = state._transform  # sampled row p = high*L + low, in the state's row order
    assert np.array_equal(high * state._leaf + low, sample)
    return signs, sample


def sketch_matrix(spec: SketchSpec, n_rows: int) -> np.ndarray:
    """Materialize S as a dense k x n matrix from the state's hash keys, or
    from SRHT's one-pass draws: the oracle for the streaming products of the
    package."""
    state = SketchState(spec, n_rows)
    idx = np.arange(n_rows, dtype=np.uint64)
    cols = np.arange(n_rows)
    if spec.family == "srht":
        # overall scale sqrt(m/k)/sqrt(m)
        signs, sample = srht_draws(spec, n_rows)
        return _hadamard(sample, cols) * signs[None, :n_rows] / math.sqrt(state.k)
    s_mat = np.zeros((state.k, n_rows))
    for j in range(spec.s):
        buckets = state._block_offsets[j] + _bucket_hash(
            idx, state._hash_a[j], state._hash_b[j], state._block_sizes[j]
        )
        s_mat[buckets, cols] = _sign_hash(idx, state._sign_keys[j]) * state._scale
    return s_mat


def test_countsketch_one_nonzero_per_column():
    s_mat = sketch_matrix(cs_spec(), n_rows=200)
    nz = np.count_nonzero(s_mat, axis=0)
    assert (nz == 1).all()
    vals = s_mat[s_mat != 0]
    assert set(np.unique(vals)) == {-1.0, 1.0}


def test_osnap_s_nonzeros_per_column():
    spec = SketchSpec("osnap", eps=0.5, d=16, osnap_s=4, seed=2)
    s_mat = sketch_matrix(spec, n_rows=200)
    nz = np.count_nonzero(s_mat, axis=0)
    assert (nz == 4).all()
    vals = np.abs(s_mat[s_mat != 0])
    assert np.allclose(vals, 0.5)  # 1/sqrt(4)


def test_explicit_matrix_matches_streaming():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((150, 16))
    for spec in (cs_spec(), SketchSpec("osnap", eps=0.5, d=16, osnap_s=3, seed=5)):
        state = apply_sketch(a, spec)
        direct = sketch_matrix(spec, 150) @ a
        assert np.allclose(state.data, direct, atol=1e-12)


# ---------------------------------------------------------------------------
# Streaming updates


def test_countsketch_single_basis_row_touches_one_bucket():
    spec = cs_spec()
    state = SketchState(spec, 50)
    before = state.data.copy()
    e1 = np.zeros(16)
    e1[0] = 1.0
    consume_rows(state, e1[None, :], 7)
    delta = state.data - before
    changed = np.flatnonzero(np.any(delta != 0, axis=1))
    assert changed.size == 1
    assert np.allclose(np.abs(delta[changed[0]]), e1)


def test_osnap_single_row_touches_s_buckets():
    spec = SketchSpec("osnap", eps=0.5, d=16, osnap_s=2, seed=3)
    state = SketchState(spec, 50)
    e1 = np.zeros(16)
    e1[0] = 1.0
    consume_rows(state, e1[None, :], 7)
    delta = state.data
    changed = np.flatnonzero(np.any(delta != 0, axis=1))
    assert changed.size <= 2
    for row in changed:
        assert np.allclose(np.abs(delta[row]), e1 / math.sqrt(2))


def test_single_row_consume_validates():
    state = SketchState(cs_spec(), 10)
    with pytest.raises(DimensionMismatchError):
        consume_rows(state, np.zeros(7)[None, :], 0)
    with pytest.raises(DimensionMismatchError):
        consume_rows(state, np.zeros(16)[None, :], 10)
    with pytest.raises(DimensionMismatchError):
        consume_rows(state, np.zeros(16)[None, :], -1)
    for start in (3.0, 2.5, True, False):
        with pytest.raises(ConfigurationError, match="start_index"):
            consume_rows(state, np.zeros(16)[None, :], start)
    consume_rows(state, np.zeros(16)[None, :], np.int64(9))
    assert state.rows_consumed == 1


def test_consume_rows_matches_row_by_row():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((60, 16))
    spec = cs_spec()
    bulk = apply_sketch(a, spec)
    single = SketchState(spec, 60)
    for i, row in enumerate(a):
        consume_rows(single, row[None, :], i)
    diff = np.linalg.norm(bulk.data - single.data)
    assert diff <= 1e-10 * max(1.0, np.linalg.norm(bulk.data))
    assert bulk.rows_consumed == single.rows_consumed == 60


def test_row_order_independence():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((80, 16))
    spec = SketchSpec("osnap", eps=0.5, d=16, seed=11)
    natural = SketchState(spec, 80)
    for i in range(80):
        consume_rows(natural, a[i][None, :], i)
    permuted = SketchState(spec, 80)
    for i in rng.permutation(80):
        consume_rows(permuted, a[i][None, :], int(i))
    rel = np.linalg.norm(natural.data - permuted.data) / np.linalg.norm(natural.data)
    assert rel <= 1e-10


def test_sketch_deterministic():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((100, 16))
    for fam in ("countsketch", "osnap", "srht"):
        override = 64 if fam == "srht" else None  # default SRHT k exceeds padded n here
        spec = SketchSpec(fam, eps=0.5, d=16, seed=21, rows_override=override)
        assert np.array_equal(apply_sketch(a, spec).data, apply_sketch(a, spec).data)


# ---------------------------------------------------------------------------
# Merge


def test_merge_half_streams_bit_exact():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((100, 16))
    spec = cs_spec()
    serial = apply_sketch(a, spec)
    s1 = consume_rows(SketchState(spec, 100), a[:50], 0)
    s2 = consume_rows(SketchState(spec, 100), a[50:], 50)
    merged = merge(s1, s2)
    assert np.array_equal(merged.data, serial.data)
    assert merged.rows_consumed == 100


def test_merge_zero_state_is_identity():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((40, 16))
    spec = cs_spec()
    s = apply_sketch(a, spec)
    zero = SketchState(spec, 40)
    merged = merge(s, zero)
    assert np.array_equal(merged.data, s.data)
    assert merged.rows_consumed == s.rows_consumed


def test_merge_four_way_any_association_order():
    # oracle: the serial sketch over all rows
    a = gen_synthetic(SyntheticSpec(n=1000, d=16, rank=16, seed=9))
    spec = cs_spec(seed=13)
    serial = apply_sketch(a, spec)
    parts = []
    for lo, hi in partition_rows(1000, 4):
        parts.append(consume_rows(SketchState(spec, 1000), a[lo:hi], lo))
    left = merge(merge(merge(parts[0], parts[1]), parts[2]), parts[3])
    balanced = merge(merge(parts[0], parts[1]), merge(parts[2], parts[3]))
    scrambled = merge(parts[2], merge(parts[0], merge(parts[3], parts[1])))
    for m in (left, balanced, scrambled):
        assert np.array_equal(m.data, serial.data)


def test_merge_rejects_mismatched_specs():
    s1 = SketchState(cs_spec(seed=1), 10)
    s2 = SketchState(cs_spec(seed=2), 10)
    with pytest.raises(IncompatibleSketchError):
        merge(s1, s2)
    s3 = SketchState(cs_spec(seed=1), 11)
    with pytest.raises(IncompatibleSketchError):
        merge(s1, s3)


def test_merge_rejects_overlapping_counts():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((10, 16))
    spec = cs_spec()
    s1 = apply_sketch(a, spec)
    s2 = apply_sketch(a, spec)
    with pytest.raises(IncompatibleSketchError):
        merge(s1, s2)


# Values whose sums cancel across some 32 orders of magnitude: plain float
# sums of them depend on the association order.
ADVERSARIAL = [1.0, -1.0, 1e-16, -1e-16, 1e16, -1e16, 3.0, 1e-8]


def adversarial_rows(seed, n, d=2):
    return np.random.default_rng(seed).choice(ADVERSARIAL, size=(n, d))


OSNAP_S3 = dict(family="osnap", eps=0.5, d=16, osnap_s=3, seed=5)


@pytest.mark.parametrize(
    "spec",
    [
        cs_spec(rows_override=64),
        SketchSpec(**OSNAP_S3),
        cs_spec(rows_override=1024),
        SketchSpec(**OSNAP_S3, rows_override=1024),
    ],
)
def test_tree_matches_row_order_loop_per_leaf(spec):
    # the definition, byte for byte (so +0.0 and -0.0 differ): per leaf of L
    # rows (1024 at k = 64, 2048 at k = 355, 4096 at k = 1024), every bucket
    # adds its signed rows in row order to zero, then the leaf is scaled; the
    # root is leaf 0 + leaf 1. At k = 1024 a last leaf of 76 rows leaves most
    # of its buckets empty.
    leaf = _leaf_rows(spec)
    n = leaf + (76 if spec.rows_override == 1024 else 476)
    a = adversarial_rows(28, n, d=16)
    a[::5] = 0.0
    a[1::10] = -0.0
    state = SketchState(spec, n)
    leaves = []
    for lo, hi in ((0, leaf), (leaf, n)):
        acc = np.zeros((state.k, 16))
        for i in range(lo, hi):
            idx = np.array([i], dtype=np.uint64)
            for j in range(spec.s):
                b = _bucket_hash(idx, state._hash_a[j], state._hash_b[j], state._block_sizes[j])[0]
                acc[state._block_offsets[j] + b] += _sign_hash(idx, state._sign_keys[j])[0] * a[i]
        leaves.append(acc * state._scale if spec.s > 1 else acc)
    assert apply_sketch(a, spec).data.tobytes() == (leaves[0] + leaves[1]).tobytes()


@pytest.mark.parametrize(
    "family, k, leaf",
    [
        ("countsketch", 1, 1024),
        ("countsketch", 256, 1024),
        ("countsketch", 257, 2048),
        ("countsketch", 16384, 65536),
        ("osnap", 2130, 16384),
        ("osnap", 11357, 65536),
        ("srht", 1024, 1024),
        ("srht", 2048, 2048),
        ("srht", 8192, 8192),
    ],
)
def test_leaf_rows_follow_the_family_rule(family, k, leaf):
    # the power of two at or above max(4k, 1024) for the hashed families,
    # max(k, 1024) for SRHT; every sidecar records it
    spec = SketchSpec(family, eps=0.5, d=64, rows_override=k)
    assert _leaf_rows(spec) == spec.to_json_dict()["leaf_rows"] == SketchState(spec, 1 << 17)._leaf == leaf


def small_k(family, n):
    """A row count giving leaves of 1024 rows: k = 2 (CountSketch), 12 (OSNAP)
    or 8 (SRHT, at most the padded row count)."""
    return {"countsketch": 2, "osnap": None, "srht": min(8, _next_pow2(n))}[family]


@pytest.mark.parametrize("family", ["countsketch", "osnap", "srht"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_partition_and_merge_order_gives_the_same_bits(family, data):
    # leaves of 1024 rows, so up to three leaves and a tree
    n = data.draw(st.integers(1, 3000), label="n")
    a = adversarial_rows(data.draw(st.integers(0, 2**32 - 1), label="seed"), n)
    spec = SketchSpec(family, eps=0.5, d=2, seed=0, rows_override=small_k(family, n))
    serial = apply_sketch(a, spec)
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=6), label="cuts")) if n > 1 else []
    parts = []
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        state = SketchState(spec, n)
        step = data.draw(st.integers(1, hi - lo), label="chunk")
        for start in range(lo, hi, step):
            consume_rows(state, a[start : min(start + step, hi)], start)
        if data.draw(st.booleans(), label="round trip"):
            with tempfile.TemporaryDirectory() as tmp:
                save_state(state, Path(tmp) / "part.bin")
                state = load_state(Path(tmp) / "part.bin")
        parts.append(state)
    parts = data.draw(st.permutations(parts), label="order")
    while len(parts) > 1:
        i = data.draw(st.integers(0, len(parts) - 2), label="pair")
        parts[i : i + 2] = [merge(parts[i], parts[i + 1])]
    assert np.array_equal(parts[0].data, serial.data)
    assert parts[0].rows_consumed == n


@pytest.mark.parametrize("family", ["countsketch", "osnap", "srht"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_state_of_any_row_subset_is_the_sketch_with_the_other_rows_zeroed(family, data):
    # an oracle for the fold of partly held leaves and of nodes without
    # their sibling: the full tree over the matrix with absent rows zeroed
    n = data.draw(st.integers(1, 3000), label="n")
    a = adversarial_rows(data.draw(st.integers(0, 2**32 - 1), label="seed"), n)
    spec = SketchSpec(family, eps=0.5, d=2, seed=0, rows_override=small_k(family, n))
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=8), label="cuts")) if n > 1 else []
    held = data.draw(st.booleans(), label="first range held")
    state, zeroed = SketchState(spec, n), np.zeros_like(a)
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        if held:
            consume_rows(state, a[lo:hi], lo)
            zeroed[lo:hi] = a[lo:hi]
        held = not held
    assert np.array_equal(state.data, apply_sketch(zeroed, spec).data)


@pytest.mark.parametrize("family", ["countsketch", "osnap", "srht"])
def test_merge_rejects_overlapping_rows(family):
    a = np.random.default_rng(24).standard_normal((10, 16))
    spec = SketchSpec(family, eps=0.5, d=16, seed=3, rows_override=64 if family == "srht" else None)
    s1 = consume_rows(SketchState(spec, 100), a, 0)
    s2 = consume_rows(SketchState(spec, 100), a, 0)
    with pytest.raises(IncompatibleSketchError):
        merge(s1, s2)


@pytest.mark.parametrize(
    "first, second",
    [
        ((0, 2048), (1024, 2048)),  # a leaf inside a held node
        ((0, 1024), (0, 2048)),  # a node over a held leaf
        ((0, 1500), (1400, 1600)),  # rows of a partly held leaf
        ((0, 2048), (2047, 2049)),  # a partly held leaf against a held node
    ],
)
def test_merge_rejects_overlapping_tree_nodes(first, second):
    a = np.random.default_rng(25).standard_normal((3000, 4))
    spec = SketchSpec("countsketch", eps=0.5, d=4, seed=3, rows_override=64)  # leaves of 1024 rows
    s1 = consume_rows(SketchState(spec, 3000), a[first[0] : first[1]], first[0])
    s2 = consume_rows(SketchState(spec, 3000), a[second[0] : second[1]], second[0])
    with pytest.raises(IncompatibleSketchError):
        merge(s1, s2)
    with pytest.raises(IncompatibleSketchError):
        merge(s2, s1)


def test_consume_rejects_rows_already_held():
    a = np.random.default_rng(26).standard_normal((3000, 4))
    spec = SketchSpec("osnap", eps=0.5, d=4, seed=3)
    state = consume_rows(SketchState(spec, 3000), a[:1500], 0)
    for lo, hi in ((10, 11), (1499, 1501), (0, 3000)):
        with pytest.raises(IncompatibleSketchError):
            consume_rows(state, a[lo:hi], lo)
    # a rejected block changes nothing, even where its first leaves were free
    tail = consume_rows(SketchState(spec, 3000), a[2048:], 2048)
    with pytest.raises(IncompatibleSketchError):
        consume_rows(tail, a, 0)
    assert tail.rows_consumed == 952
    consume_rows(tail, a[:2048], 0)
    assert np.array_equal(tail.data, apply_sketch(a, spec).data)


@pytest.mark.parametrize("family", ["countsketch", "osnap", "srht"])
def test_consume_rows_refuses_a_non_finite_block_and_keeps_the_state(family):
    # the streaming entry point checks each block itself: the block is
    # refused at its own call, before any of its rows is placed
    a = np.random.default_rng(27).standard_normal((3000, 4))
    spec = SketchSpec(family, eps=0.5, d=4, seed=4)
    state = consume_rows(SketchState(spec, 3000), a[:1500], 0)  # a leaf and part of the next
    held = (state.rows_consumed, state.message_bytes, state.data.tobytes())
    for bad in (np.nan, np.inf, -np.inf):
        for row in (0, 500, 999):
            block = a[1500:2500].copy()
            block[row, 1] = bad
            with pytest.raises(FormatError, match="^row block contains non-finite entries$"):
                consume_rows(state, block, 1500)
            assert (state.rows_consumed, state.message_bytes, state.data.tobytes()) == held
    consume_rows(state, a[1500:], 1500)
    assert np.array_equal(state.data, apply_sketch(a, spec).data)


@pytest.mark.parametrize(
    "family, override, d, n, lo, hi",
    [
        ("countsketch", 64, 4, 5000, 1, 4999),  # ragged ends, five leaves
        ("countsketch", 1024, 32, 13 * 1024 + 5, 300, 12 * 1024 + 7),  # thirteen leaves
        ("osnap", None, 64, 20000, 0, 20000),  # s = 6, aligned start
        ("osnap", None, 16, 3000, 700, 2100),  # a range inside few leaves
        ("srht", 2048, 16, 3 * 2048 + 700, 300, 3 * 2048 + 700),  # 8 x 16 x 16 factors, a short last leaf
    ],
)
def test_tree_state_peak_within_its_capacity_check(family, override, d, n, lo, hi, monkeypatch):
    spec = SketchSpec(family, eps=0.5, d=d, seed=5, rows_override=override)
    assert_peak_within_capacity_check(spec, np.random.default_rng(n).standard_normal((n, d)), lo, hi, monkeypatch)


@pytest.mark.parametrize("s", [4, 16])
def test_osnap_kernel_peak_within_its_capacity_check(s, monkeypatch):
    # d = 2, so the figure is mostly the leaf kernel's s arrays per row
    spec = SketchSpec("osnap", eps=0.5, d=2, osnap_s=s, seed=5, rows_override=64)
    assert_peak_within_capacity_check(spec, np.random.default_rng(s).standard_normal((5000, 2)), 0, 5000, monkeypatch)


def assert_peak_within_capacity_check(spec, a, lo, hi, monkeypatch):
    """A state over ``a``'s rows is refused one byte under its figure, and
    consuming rows lo..hi at the figure peaks within it."""
    n = a.shape[0]
    need = 8 * _tree_state_elements(spec, n)
    monkeypatch.setenv("LVSK_MEM_CAP", str(need - 1))
    with pytest.raises(CapacityError):
        SketchState(spec, n)
    monkeypatch.setenv("LVSK_MEM_CAP", str(need))
    tracemalloc.start()
    try:
        consume_rows(SketchState(spec, n), a[lo:hi], lo).data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need


@pytest.mark.parametrize("family", ["countsketch", "osnap", "srht"])
def test_a_range_that_starts_mid_tree_holds_two_nodes_on_a_level(family):
    # the premise of the figure's two nodes per level: leaves of 1024 rows,
    # eight leaves; rows 1024..7167 are leaves 1 to 6
    spec = SketchSpec(family, eps=0.5, d=4, seed=3, rows_override=64)
    a = np.random.default_rng(45).standard_normal((8192, 4))
    state = consume_rows(SketchState(spec, 8192), a[1024:7168], 1024)
    assert sorted(state._nodes) == [(0, 1), (0, 6), (1, 1), (1, 2)]


# ---------------------------------------------------------------------------
# Walsh-Hadamard transform and SRHT


def fwht(x) -> np.ndarray:
    """Butterfly fast Walsh-Hadamard transform along axis 0, out of place and
    unnormalized: the oracle for the sampled-rows transform of the package.

    Length must be a power of two; applying it twice multiplies by the length.
    """
    arr = np.array(x, dtype=np.float64)
    was_vector = arr.ndim == 1
    if was_vector:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DimensionMismatchError(f"fwht input must be 1-D or 2-D, got ndim={arr.ndim}")
    m = arr.shape[0]
    if m < 1 or m & (m - 1):
        raise ConfigurationError(f"fwht length must be a power of two, got {m}")
    h = 1
    while h < m:
        view = arr.reshape(m // (2 * h), 2, h, arr.shape[1])
        tmp = view[:, 0] - view[:, 1]
        view[:, 0] += view[:, 1]
        view[:, 1] = tmp
        h *= 2
    return arr[:, 0] if was_vector else arr


def test_fwht_impulse():
    assert np.array_equal(fwht([1.0, 0.0, 0.0, 0.0]), [1.0, 1.0, 1.0, 1.0])


def test_fwht_involution():
    assert np.array_equal(fwht([1.0, 1.0, 1.0, 1.0]), [4.0, 0.0, 0.0, 0.0])
    rng = np.random.default_rng(11)
    x = rng.standard_normal(64)
    assert np.allclose(fwht(fwht(x)), 64 * x, atol=1e-9)


def test_fwht_matches_hadamard_matrix():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((16, 3))
    h = scipy.linalg.hadamard(16).astype(float)
    assert np.allclose(fwht(x), h @ x, atol=1e-10)


def test_fwht_rejects_non_power_of_two():
    with pytest.raises(ConfigurationError):
        fwht(np.ones(6))


def test_srht_matches_explicit_matrix_oracle():
    # direct multiplication with an explicitly built S, using scipy's Hadamard
    rng = np.random.default_rng(13)
    a = rng.standard_normal((64, 8))
    spec = SketchSpec("srht", eps=0.5, d=8, seed=17, rows_override=32)
    state = apply_sketch(a, spec)
    m = 64
    h = scipy.linalg.hadamard(m).astype(float)
    signs, sample = srht_draws(spec, 64)
    d_signs = np.diag(signs)
    p = np.zeros((32, m))
    p[np.arange(32), sample] = 1.0
    s_explicit = math.sqrt(m / 32) * p @ (h / math.sqrt(m)) @ d_signs
    assert np.allclose(state.data, s_explicit @ a, atol=1e-10)
    # the diagnostic dense path agrees too
    assert np.allclose(sketch_matrix(spec, 64), s_explicit, atol=1e-12)


@pytest.mark.parametrize(
    "n, d, leaf, k",
    [
        (64, 5, 8, 24),  # eight whole leaves of 8 x 1 x 1, power-of-two n
        (1000, 3, 16, 100),  # many leaves of 8 x 1 x 2, the last one of one 8-row block
        (5, 4, 16, 6),  # n below one 8-row block: one zero-padded block, m < L
        (100, 2, 4, 128),  # k = m, every row kept; L = 4 below a = 8
        (777, 3, 32, 1),  # k = 1, leaves of 8 x 2 x 2, the last one short of whole blocks
        (300, 1, 8, 64),  # d = 1
        (50, 3, 1, 20),  # leaf height 1: the kernel only flips signs and negates leaves
    ],
)
def test_sampled_hadamard_matches_butterfly_and_scipy(n, d, leaf, k):
    # the leaf kernel on small leaves, where some factors are 1 x 1, summed
    # over the leaves
    rng = np.random.default_rng(n + d + leaf + k)
    m = 1 << (n - 1).bit_length()
    x = rng.standard_normal((n, d))
    signs = 2.0 * rng.integers(0, 2, m) - 1.0
    sample = np.sort(rng.choice(m, size=k, replace=False))
    transform = _leaf_transform(sample, leaf, 1.0)
    got = sum(
        _sampled_hadamard(x[lo : lo + leaf], signs[lo : min(lo + leaf, n)], lo // leaf, transform)
        for lo in range(0, n, leaf)
    )
    padded = np.zeros((m, d))
    padded[:n] = x
    flipped = signs[:, None] * padded
    np.testing.assert_allclose(got, fwht(flipped)[sample], rtol=1e-12, atol=1e-12)
    h = scipy.linalg.hadamard(m).astype(float)
    np.testing.assert_allclose(got, (h @ flipped)[sample], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "leaf, factors",
    [(1, (1, 1, 1)), (4, (4, 1, 1)), (16, (8, 1, 2)), (32, (8, 2, 2)), (1024, (8, 8, 16)), (2048, (8, 16, 16))]
    + [(4096, (8, 16, 32)), (8192, (8, 32, 32)), (16384, (8, 32, 64))],
)
def test_srht_factors_split_the_leaf(leaf, factors):
    assert _srht_factors(leaf) == factors


def assert_leaf_kernels_sum_to_the_butterfly(n, d, leaf, k, seed):
    """The leaf kernel over leaves of ``leaf`` rows, summed, equals the
    butterfly transform's sampled rows; returns the sample."""
    rng = np.random.default_rng(seed)
    m = _next_pow2(n)
    x = rng.standard_normal((n, d))
    signs = 2.0 * rng.integers(0, 2, m) - 1.0
    sample = rng.choice(m, size=k, replace=False)
    transform = _leaf_transform(sample, leaf, 1.0)
    got = sum(
        _sampled_hadamard(x[lo : lo + leaf], signs[lo : min(lo + leaf, n)], lo // leaf, transform)
        for lo in range(0, n, leaf)
    )
    padded = np.zeros((m, d))
    padded[:n] = x
    np.testing.assert_allclose(got, fwht(signs[:, None] * padded)[sample], rtol=1e-12, atol=1e-12)
    return sample


@pytest.mark.parametrize(
    "n, d, leaf, k",
    [
        (5 * 32 + 3, 3, 32, 32),  # k = L; leaves 1-5 share bits with p1; last leaf of 3 rows, one 16-row block
        (4 * 128, 64, 128, 128),  # k = L, whole leaves only
        (7 * 64 + 40, 1, 64, 200),  # k > L; last leaf of three 16-row blocks, the last one partial
        (6 * 64 + 64, 3, 64, 20),  # k < L, every leaf whole
        (50, 64, 128, 64),  # n < L, k = m < L
        (50, 1, 128, 7),  # n < L, k < m
    ]
    # every default leaf height, k = L, the last of three leaves short of whole blocks
    + [(2 * leaf + leaf // 2 + 3, 2, leaf, leaf) for leaf in (1024, 2048, 4096, 8192, 16384)],
)
def test_leaf_kernels_negate_by_the_high_bits_of_each_leaf(n, d, leaf, k):
    sample = assert_leaf_kernels_sum_to_the_butterfly(n, d, leaf, k, seed=n + d + k)
    high, leaves = sample >> (leaf.bit_length() - 1), -(-n // leaf)
    negated = [int((np.bitwise_count(high & j) & 1).sum()) for j in range(leaves)]
    # the leaf's sign is exercised: no row flips on leaf 0, some do on a later
    # leaf whenever there is one
    assert negated[0] == 0 and (leaves == 1 or any(negated))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_leaf_kernels_sum_to_the_butterfly_rows(data):
    leaf = 1 << data.draw(st.integers(0, 7), label="log2 L")
    n = data.draw(st.integers(1, 6 * leaf), label="n")
    m = _next_pow2(n)
    k = data.draw(st.sampled_from([min(leaf, m), m]) | st.integers(1, m), label="k")
    d = data.draw(st.sampled_from([1, 3, 64]), label="d")
    assert_leaf_kernels_sum_to_the_butterfly(n, d, leaf, k, data.draw(st.integers(0, 2**32 - 1)))


def test_srht_streamed_and_merged_equals_bulk_at_k_equal_to_the_leaf():
    # k = L = 2048, as the benchmarks run SRHT; 1000-row chunks in two
    # halves that split leaf 1, the last leaf short of whole 128-row blocks
    n, d, k = 5000, 8, 2048
    a = np.random.default_rng(61).standard_normal((n, d))
    spec = SketchSpec("srht", eps=0.5, d=d, seed=62, rows_override=k)
    halves = []
    for lo, hi in ((0, 2600), (2600, n)):
        halves.append(SketchState(spec, n))
        for start in range(lo, hi, 1000):
            consume_rows(halves[-1], a[start : min(start + 1000, hi)], start)
    assert np.array_equal(merge(*halves).data, apply_sketch(a, spec).data)


@pytest.mark.parametrize(
    "n, d, k",
    [
        (1000, 6, 256),  # several row blocks, non-power-of-two n
        (100, 3, 128),  # k = m
        (100, 3, 1),  # k = 1
        (513, 1, 64),  # d = 1
        (1, 2, 1),  # a single row
        (2, 3, 2),  # m = 2: the sample starts two draws into a counter step
        (3, 2, 4),  # m = 4
        (5, 2, 3),  # m = 8: the sample starts at the second counter step
        (5000, 3, 64),  # five leaves, each drawing its signs from its first row
        (1025, 2, 8),  # a last leaf of one row, zero-padded to a whole leaf
    ],
)
def test_srht_state_matches_butterfly(n, d, k):
    rng = np.random.default_rng(n * d + k)
    a = rng.standard_normal((n, d))
    spec = SketchSpec("srht", eps=0.5, d=d, seed=n + k, rows_override=k)
    state = apply_sketch(a, spec)
    assert state.data.shape == (k, d)
    padded = np.zeros((_next_pow2(n), d))
    padded[:n] = a
    signs, sample = srht_draws(spec, n)
    butterfly = fwht(signs[:, None] * padded)[sample] / math.sqrt(k)
    np.testing.assert_allclose(state.data, butterfly, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(state.data, sketch_matrix(spec, n) @ a, rtol=1e-12, atol=1e-12)


def test_srht_update_after_read_recomputes():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((90, 4))
    spec = SketchSpec("srht", eps=0.5, d=4, seed=7, rows_override=32)
    state = consume_rows(SketchState(spec, 90), a[:40], 0)
    first = state.data.copy()
    consume_rows(state, a[40:], 40)
    assert not np.array_equal(state.data, first)
    assert np.array_equal(state.data, apply_sketch(a, spec).data)


def test_srht_pads_to_power_of_two():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((100, 8))  # pads to 128
    spec = SketchSpec("srht", eps=0.5, d=8, seed=19, rows_override=64)
    state = apply_sketch(a, spec)
    assert state.data.shape == (64, 8)
    # zero-padding means appending explicit zero rows changes nothing
    padded = np.vstack([a, np.zeros((28, 8))])
    direct = sketch_matrix(spec, 100) @ a
    assert np.allclose(state.data, direct, atol=1e-10)
    assert padded.shape[0] == 128


def test_srht_embedding_norm_preservation():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((64, 8))
    spec = SketchSpec("srht", eps=0.5, d=8, seed=23, rows_override=32)
    sa = apply_sketch(a, spec).data
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(8)
        x /= np.linalg.norm(x)
        ratio = np.sum((sa @ x) ** 2) / np.sum((a @ x) ** 2)
        worst = max(worst, abs(ratio - 1.0))
    # empirically calibrated for this tiny regime; frozen after inspection
    assert worst < 0.75


def test_srht_streaming_matches_bulk():
    rng = np.random.default_rng(16)
    a = rng.standard_normal((48, 8))
    spec = SketchSpec("srht", eps=0.5, d=8, seed=29, rows_override=16)
    bulk = apply_sketch(a, spec)
    streamed = SketchState(spec, 48)
    for i, row in enumerate(a):
        consume_rows(streamed, row[None, :], i)
    assert np.array_equal(bulk.data, streamed.data)


def test_srht_rejects_rows_it_already_holds():
    a = np.random.default_rng(28).standard_normal((8, 4))
    spec = SketchSpec("srht", eps=0.5, d=4, seed=31, rows_override=4)
    state = consume_rows(SketchState(spec, 8), a, 0)
    before = state.data.copy()
    with pytest.raises(IncompatibleSketchError):
        consume_rows(state, 2.0 * a, 0)
    assert state.rows_consumed == 8
    assert np.array_equal(state.data, before)
    # a block that overlaps only in part is rejected whole
    head = consume_rows(SketchState(spec, 8), a[:5], 0)
    with pytest.raises(IncompatibleSketchError):
        consume_rows(head, a[3:], 3)
    assert head.rows_consumed == 5
    consume_rows(head, a[5:], 5)
    assert np.array_equal(head.data, before)


def test_srht_merge_rejects_overlapping_rows():
    a = np.random.default_rng(29).standard_normal((8, 4))
    spec = SketchSpec("srht", eps=0.5, d=4, seed=31, rows_override=4)
    s1 = consume_rows(SketchState(spec, 8), a[:5], 0)
    s2 = consume_rows(SketchState(spec, 8), a[2:5], 2)
    for left, right in ((s1, s2), (s2, s1)):
        with pytest.raises(IncompatibleSketchError):
            merge(left, right)
    tail = consume_rows(SketchState(spec, 8), a[5:], 5)
    both = merge(s1, tail)
    assert both.rows_consumed == 8
    assert np.array_equal(both.data, apply_sketch(a, spec).data)
    with pytest.raises(IncompatibleSketchError):
        consume_rows(both, a[7:], 7)


@pytest.mark.parametrize(
    "n, d, k",
    [
        (3000, 16, 256),
        (5000, 4, 1024),
        (1 << 14, 8, 1 << 14),
        # d = 64, the paper's regime, where a leaf's rows outweigh its +-1
        # factors (8 x 8 x 16 at L = 1024)
        (4096, 64, 256),
        # d = 1, where the draws, a leaf's signs and numpy's buffers set the peak
        (2000, 1, 2048),
        (1500, 1, 100),
        (3000, 1, 64),
        # m = 512 < L = 1024: the kernel's two buffers are L x d all the same
        (300, 64, 64),
        # a last leaf of one row, zero-padded to a whole leaf
        (1025, 16, 256),
    ],
)
def test_srht_state_peak_within_its_capacity_check(n, d, k, monkeypatch):
    spec = SketchSpec("srht", eps=0.5, d=d, seed=5, rows_override=k)
    assert_peak_within_capacity_check(spec, np.random.default_rng(n).standard_normal((n, d)), 0, n, monkeypatch)


@pytest.mark.parametrize("n, d, k", [(1 << 14, 8, 1 << 14), (1 << 14, 256, 1 << 13)])
def test_srht_figure_covers_the_per_call_workspace(n, d, k, monkeypatch):
    # k = L: the leaf kernel makes two L x d buffers for each leaf it reduces
    # (two leaves at d = 256) and frees them with it; the figure covers them,
    # and the state keeps none of them once the call returns
    spec = SketchSpec("srht", eps=0.5, d=d, seed=5, rows_override=k)
    a = np.random.default_rng(47).standard_normal((n, d))
    assert_peak_within_capacity_check(spec, a, 0, n, monkeypatch)
    workspace = 2 * 8 * _leaf_rows(spec) * d
    tracemalloc.start()
    try:
        state = consume_rows(SketchState(spec, n), a, 0)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak >= workspace
    assert held < state.message_bytes + workspace // 2


def test_srht_state_does_not_grow_with_the_stream(monkeypatch):
    # one sign per row would take 8 GiB here; the state keeps the tree and a leaf's draws
    monkeypatch.setenv("LVSK_MEM_CAP", str(4 << 20))
    n = 1 << 30
    spec = SketchSpec("srht", eps=0.5, d=4, seed=3, rows_override=64)
    a = np.random.default_rng(44).standard_normal((3000, 4))
    state = consume_rows(SketchState(spec, n), a, n - 3000)
    assert state.rows_consumed == 3000
    assert sorted(state._nodes) == [(1, (n >> 10) // 2 - 1)] and list(state._pending) == [(n >> 10) - 3]
    assert np.isfinite(state.data).all() and state.data.any()


def test_srht_k_must_fit_padded_rows():
    with pytest.raises(ConfigurationError):
        SketchState(SketchSpec("srht", eps=0.5, d=8, rows_override=64), 10)


def test_srht_transform_buffer_respects_memory_cap(monkeypatch):
    monkeypatch.setenv("LVSK_MEM_CAP", "1000000")
    with pytest.raises(CapacityError):
        SketchState(SketchSpec("srht", eps=0.5, d=64, rows_override=16), 100_000)


# ---------------------------------------------------------------------------
# Subspace embedding (small smoke; the full regime lives in the acceptance suite)


def test_embedding_smoke():
    a = gen_synthetic(SyntheticSpec(n=2048, d=8, rank=8, seed=31))
    rng = np.random.default_rng(31)
    x = rng.standard_normal((8, 100))
    x /= np.linalg.norm(x, axis=0)
    for fam in ("countsketch", "osnap"):
        spec = SketchSpec(fam, eps=0.5, d=8, seed=37)
        sa = apply_sketch(a, spec).data
        num = np.sum((sa @ x) ** 2, axis=0)
        den = np.sum((a @ x) ** 2, axis=0)
        assert np.abs(num / den - 1.0).max() <= 0.5


def test_smallest_singular_value_survives():
    # the smallest nonzero singular value of SA stays within (1 +- eps) of A's
    a = gen_synthetic(SyntheticSpec(n=2048, d=8, rank=8, seed=41))
    sv_a = np.linalg.svd(a, compute_uv=False)
    for fam in ("countsketch", "osnap"):
        spec = SketchSpec(fam, eps=0.5, d=8, seed=43)
        sv_s = np.linalg.svd(apply_sketch(a, spec).data, compute_uv=False)
        assert abs(sv_s[-1] / sv_a[-1] - 1.0) <= 0.5


# ---------------------------------------------------------------------------
# Serialization


def test_state_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    a = rng.standard_normal((120, 16))
    for fam in ("countsketch", "osnap", "srht"):
        override = 64 if fam == "srht" else None
        spec = SketchSpec(fam, eps=0.5, d=16, seed=47, rows_override=override)
        state = apply_sketch(a, spec)
        path = tmp_path / f"{fam}.bin"
        save_state(state, path)
        back = load_state(path)
        assert back.spec == spec
        assert back.rows_consumed == 120
        assert back.k == state.k
        assert np.array_equal(back.data, state.data)
        with pytest.raises(ConfigurationError, match="empty sketch state"):
            save_state(SketchState(spec, 120), tmp_path / "empty.bin")


def test_save_state_refuses_a_data_path_that_is_its_own_sidecar(tmp_path):
    spec = SketchSpec("countsketch", eps=0.5, d=4, seed=3, rows_override=16)
    state = apply_sketch(np.random.default_rng(18).standard_normal((50, 4)), spec)
    with pytest.raises(ConfigurationError, match="sidecar would overwrite the payload"):
        save_state(state, tmp_path / "state.json")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("family", ["countsketch", "osnap", "srht"])
def test_loaded_state_merges_like_the_saved_one(tmp_path, family):
    # leaves of 1024 rows; s1 holds part of leaves 0 and 1, s2 the rest of
    # leaf 0, two row ranges of leaf 1 and part of leaf 2
    a = adversarial_rows(18, 3000, d=4)
    spec = SketchSpec(family, eps=0.5, d=4, seed=53, rows_override=small_k(family, 3000))
    s1 = consume_rows(consume_rows(SketchState(spec, 3000), a[:300], 0), a[1500:1700], 1500)
    s2 = consume_rows(consume_rows(SketchState(spec, 3000), a[300:1500], 300), a[1700:2600], 1700)
    save_state(s2, tmp_path / "s2.bin")
    ranges = json.loads((tmp_path / "s2.json").read_text())["rows"]
    assert ranges == [[300, 1024], [1024, 1500], [1700, 2048], [2048, 2600]]
    merged, loaded = merge(s1, s2), merge(s1, load_state(tmp_path / "s2.bin"))
    assert loaded.rows_consumed == merged.rows_consumed == 2600
    assert np.array_equal(loaded.data, merged.data)
    zeroed = a.copy()
    zeroed[2600:] = 0.0
    assert np.array_equal(merged.data, apply_sketch(zeroed, spec).data)


def test_load_state_allocates_no_row_buffer(tmp_path, monkeypatch):
    # a buffer of the 100000 x 8 rows would take 6.4 MB
    a = np.random.default_rng(27).standard_normal((100_000, 8))
    spec = SketchSpec("srht", eps=0.5, d=8, seed=5, rows_override=64)
    state = apply_sketch(a, spec)
    save_state(state, tmp_path / "srht.bin")
    monkeypatch.setenv("LVSK_MEM_CAP", "2000000")
    back = load_state(tmp_path / "srht.bin")
    assert back.rows_consumed == 100_000
    assert np.array_equal(back.data, state.data)


@pytest.mark.parametrize("family", ["countsketch", "osnap", "srht"])
def test_saved_state_is_its_message_and_round_trips(tmp_path, family):
    # leaves of 1024 rows: rows 300..2499 are part of leaf 0, leaf 1 and part of leaf 2
    a = adversarial_rows(30, 3000, d=4)
    spec = SketchSpec(family, eps=0.5, d=4, seed=5, rows_override=small_k(family, 3000))
    bulk = apply_sketch(a, spec)
    part = consume_rows(SketchState(spec, 3000), a[300:2500], 300)
    save_state(part, tmp_path / "part.bin")
    assert load_matrix(tmp_path / "part.bin").nbytes == part.message_bytes
    back = load_state(tmp_path / "part.bin")
    assert back.rows_consumed == 2200 and back.message_bytes == part.message_bytes
    assert np.array_equal(back.data, part.data)
    for lo, hi in ((299, 301), (1500, 1501), (2499, 2501)):
        with pytest.raises(IncompatibleSketchError):
            consume_rows(back, a[lo:hi], lo)
    rest = consume_rows(consume_rows(SketchState(spec, 3000), a[:300], 0), a[2500:], 2500)
    assert np.array_equal(merge(back, rest).data, bulk.data)
    assert np.array_equal(merge(rest, back).data, bulk.data)
    consume_rows(consume_rows(back, a[2500:], 2500), a[:300], 0)
    assert np.array_equal(back.data, bulk.data)


@pytest.mark.parametrize("family", ["countsketch", "osnap", "srht"])
@pytest.mark.parametrize("key", ["k", "s", "leaf_rows"])
def test_load_state_rejects_a_sidecar_whose_k_or_s_was_edited(tmp_path, family, key):
    # a state saved under another leaf rule (leaf_rows other than the spec's,
    # or not recorded) would be absorbed into a tree of another height
    a = np.random.default_rng(37).standard_normal((300, 8))
    spec = SketchSpec(family, eps=0.5, d=8, seed=9, rows_override=64 if family == "srht" else None)
    path, meta_path = tmp_path / "s.bin", tmp_path / "s.json"
    save_state(apply_sketch(a, spec), path)
    meta = json.loads(meta_path.read_text())
    message = {name: meta.pop(name) for name in ("n_rows", "nodes", "rows")}
    assert meta == spec.to_json_dict()
    meta_path.write_text(json.dumps(meta | message | {key: meta[key] + 1}))
    with pytest.raises(FormatError, match="but its spec gives"):
        load_state(path)
    del meta[key]
    meta_path.write_text(json.dumps(meta | message))
    with pytest.raises(FormatError, match="malformed sketch sidecar"):
        load_state(path)


def test_absorbed_nodes_do_not_keep_the_message_rows_alive(tmp_path):
    # leaves of 1024 rows: s2's message is the node of leaf 1 plus rows 2048..2500
    a = np.random.default_rng(41).standard_normal((4096, 4))
    spec = cs_spec(d=4, rows_override=64)
    s1 = consume_rows(SketchState(spec, 4096), a[:1024], 0)
    s2 = consume_rows(SketchState(spec, 4096), a[1024:2500], 1024)
    save_state(s2, tmp_path / "s2.bin")
    loaded = load_state(tmp_path / "s2.bin")
    assert list(loaded._nodes) == [(0, 1)] and list(loaded._pending) == [2]
    node = loaded._nodes[(0, 1)]
    assert node.base is not None and node.base.nbytes == node.nbytes
    both = merge(s1, loaded)
    assert list(both._nodes) == [(1, 0)] and list(both._pending) == [2]
    assert both._nodes[(1, 0)].base is None
    assert np.array_equal(both.data, apply_sketch(np.where(np.arange(4096)[:, None] < 2500, a, 0.0), spec).data)
    # a message of nodes only is absorbed without a copy
    s3 = consume_rows(SketchState(spec, 4096), a[1024:2048], 1024)
    save_state(s3, tmp_path / "s3.bin")
    assert load_state(tmp_path / "s3.bin")._nodes[(0, 1)].base is not None


def message_bytes(state):
    keys, ranges, payload = state._message()
    return json.dumps([keys, ranges]).encode() + payload.tobytes()


@pytest.mark.parametrize("spec", [cs_spec(d=8, rows_override=1024), SketchSpec(**OSNAP_S3 | {"d": 8})])
def test_merge_leaves_both_inputs_messages_unchanged(spec):
    # leaves of 4096 (CountSketch, k = 1024) or 2048 rows (OSNAP, k = 355):
    # s1 holds leaf 0 and runs of leaves 1 and 2, s2 the rest of leaf 1 and
    # runs of leaf 2; the merge completes leaf 1, and the merged state is then
    # fed the rest of leaf 2 and read
    leaf = _leaf_rows(spec)
    n = 3 * leaf
    a = adversarial_rows(52, n, d=8)
    s1 = consume_rows(SketchState(spec, n), a[: leaf + 100], 0)
    consume_rows(s1, a[2 * leaf + 10 : 2 * leaf + 20], 2 * leaf + 10)
    s2 = consume_rows(SketchState(spec, n), a[leaf + 100 : 2 * leaf + 10], leaf + 100)
    consume_rows(s2, a[2 * leaf + 20 : 2 * leaf + 30], 2 * leaf + 20)
    before = message_bytes(s1), message_bytes(s2)
    for left, right in ((s1, s2), (s2, s1)):
        both = merge(left, right)
        assert list(both._pending) == [2]
        consume_rows(both, a[2 * leaf + 30 :], 2 * leaf + 30)
        assert np.array_equal(both.data, apply_sketch(a, spec).data)
        assert (message_bytes(s1), message_bytes(s2)) == before


@pytest.mark.parametrize("spec", [cs_spec(d=64, rows_override=1024), SketchSpec(**OSNAP_S3 | {"d": 64})])
def test_merge_allocates_no_copy_of_either_sides_runs(spec):
    # leaves of 4096 (CountSketch, k = 1024) or 2048 rows (OSNAP, k = 355)
    leaf, d = _leaf_rows(spec), 64
    a = np.random.default_rng(53).standard_normal((2 * leaf, d))

    def merge_peak(first, second):
        s1 = consume_rows(SketchState(spec, 2 * leaf), a[first[0] : first[1]], first[0])
        s2 = consume_rows(SketchState(spec, 2 * leaf), a[second[0] : second[1]], second[0])
        tracemalloc.start()
        try:
            both = merge(s1, s2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return both, peak

    # quarters of leaf 0 that leave it partly held: the merge shares both
    # runs, and allocates far less than one of them
    run_bytes = 8 * (leaf // 4) * d
    both, peak = merge_peak((0, leaf // 4), (leaf // 2, 3 * leaf // 4))
    assert peak < run_bytes // 8 and both._pending[0].held == leaf // 2
    # halves of leaf 0: the merge assembles the leaf once, beside the leaf
    # kernel's working set and its k x d node, and keeps neither run
    both, peak = merge_peak((0, leaf // 2), (leaf // 2, leaf))
    assert peak <= 8 * (leaf * d + (3 * spec.s + 4) * leaf + both.k * d) + (64 << 10)
    assert list(both._nodes) == [(0, 0)] and not both._pending


@pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5])
@pytest.mark.parametrize("family, s", [("countsketch", None), ("osnap", 1), ("osnap", 8)])
def test_hash_keys_are_splitmix64(seed, family, s):
    # splitmix64 with Python ints, from state seed ^ tag * G
    m64, golden = (1 << 64) - 1, 0x9E3779B97F4A7C15
    state = (seed ^ {"countsketch": 0x6353, "osnap": 0x6F53}[family] * golden) & m64
    keys = []
    for _ in range(3 * (s or 1)):
        state = (state + golden) & m64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & m64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & m64
        keys.append(z ^ (z >> 31))
    st_ = SketchState(SketchSpec(family, eps=0.5, d=16, osnap_s=s, seed=seed), 100)
    n = len(keys) // 3
    assert st_._hash_a == [key | 1 for key in keys[:n]]
    assert (st_._hash_b, st_._sign_keys) == (keys[n : 2 * n], keys[2 * n :])


@pytest.mark.parametrize(
    "nodes, rows, extra",
    [
        ([[1, 0], [0, 1]], [[2100, 2200]], 0),  # a leaf inside a node
        ([[1, 0], [0, 5]], [[2100, 2200]], 0),  # a leaf past the last one
        ([[1, 0], [4, 0]], [[2100, 2200]], 0),  # a level above the root
        ([[1, 0]], [[2100, 3100]], 0),  # a row range across two leaves
        ([[1, 0]], [[2200, 2100]], 0),  # an empty row range
        ([[1, 0]], [[2000, 2048]], 0),  # rows under a node
        ([[1, 0]], [[2100, 2200], [2150, 2160]], 0),  # overlapping row ranges
        ([[1, 0]], [[2100, 2200]], -1),  # one payload row short
        ([[1, 0]], [[2100, 2200]], 1),  # one payload row over
        ([[1.0, 0]], [[2100, 2200]], 0),  # not an integer
    ],
)
def test_load_state_rejects_a_malformed_sidecar(tmp_path, nodes, rows, extra):
    # k = 64: five leaves of 1024 rows, a tree of height 3
    a = np.random.default_rng(31).standard_normal((5000, 4))
    spec = SketchSpec("countsketch", eps=0.5, d=4, seed=3, rows_override=64)
    state = consume_rows(consume_rows(SketchState(spec, 5000), a[:2048], 0), a[2100:2200], 2100)
    path, meta_path = tmp_path / "s.bin", tmp_path / "s.json"
    save_state(state, path)
    meta = json.loads(meta_path.read_text())
    assert (meta["nodes"], meta["rows"]) == ([[1, 0]], [[2100, 2200]])
    assert np.array_equal(load_state(path).data, state.data)
    meta.update(nodes=nodes, rows=rows)
    meta_path.write_text(json.dumps(meta))
    held = sum(max(0, hi - lo) for lo, hi in rows)
    save_matrix(np.ones((64 * len(nodes) + held + extra, 4)), path)
    with pytest.raises(FormatError):
        load_state(path)


@pytest.mark.parametrize(
    "edit",
    [{"n_rows": 3000.0}, {"d": 4.0}, {"rows_override": 64.0}, {"osnap_s": 2}],
    ids=["n_rows-float", "d-float", "rows_override-float", "osnap_s-for-countsketch"],
)
def test_load_state_refuses_a_mistyped_field(tmp_path, edit):
    # rows 0..1499: the node of leaf 0 and a row range of leaf 1
    a = np.random.default_rng(47).standard_normal((3000, 4))
    path, meta_path = tmp_path / "s.bin", tmp_path / "s.json"
    save_state(consume_rows(SketchState(cs_spec(d=4, rows_override=64), 3000), a[:1500], 0), path)
    meta = json.loads(meta_path.read_text())
    meta_path.write_text(json.dumps(meta | edit))
    with pytest.raises(FormatError, match="malformed sketch sidecar"):
        load_state(path)
