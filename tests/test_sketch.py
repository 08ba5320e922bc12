import json
import math
import tracemalloc

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
    _next_pow2,
    _sampled_hadamard,
    _sign_hash,
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


# ---------------------------------------------------------------------------
# Column structure of the implicit matrix


def sketch_matrix(spec: SketchSpec, n_rows: int) -> np.ndarray:
    """Materialize S as a dense k x n matrix from the state's hash keys, signs
    and sample: the oracle for the streaming products of the package."""
    state = SketchState(spec, n_rows)
    idx = np.arange(n_rows, dtype=np.uint64)
    cols = np.arange(n_rows)
    if spec.family == "srht":
        # overall scale sqrt(m/k)/sqrt(m)
        signs_h = _hadamard(state._sample, cols)
        return signs_h * state._signs[None, :n_rows] / math.sqrt(state.k)
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


@pytest.mark.parametrize("spec", [cs_spec(rows_override=64), SketchSpec("osnap", eps=0.5, d=16, osnap_s=3, seed=5)])
def test_tree_matches_row_order_loop_per_leaf(spec):
    # the definition, bit for bit: per leaf of 1024 rows, every bucket adds its
    # signed rows in row order, then the leaf is scaled; the root is leaf 0 + leaf 1
    a = adversarial_rows(28, 1500, d=16)
    state = SketchState(spec, 1500)
    leaves = []
    for lo, hi in ((0, 1024), (1024, 1500)):
        acc = np.zeros((state.k, 16))
        for i in range(lo, hi):
            idx = np.array([i], dtype=np.uint64)
            for j in range(spec.s):
                b = _bucket_hash(idx, state._hash_a[j], state._hash_b[j], state._block_sizes[j])[0]
                acc[state._block_offsets[j] + b] += _sign_hash(idx, state._sign_keys[j])[0] * a[i]
        leaves.append(acc * state._scale if spec.s > 1 else acc)
    assert np.array_equal(apply_sketch(a, spec).data, leaves[0] + leaves[1])


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


@pytest.mark.parametrize(
    "family, override, d, n, lo, hi",
    [
        ("countsketch", 64, 4, 5000, 1, 4999),  # ragged ends, five leaves
        ("countsketch", 1024, 32, 13 * 1024 + 5, 300, 12 * 1024 + 7),  # thirteen leaves
        ("osnap", None, 64, 20000, 0, 20000),  # s = 6, aligned start
        ("osnap", None, 16, 3000, 700, 2100),  # a range inside few leaves
    ],
)
def test_tree_state_peak_within_its_capacity_check(family, override, d, n, lo, hi, monkeypatch):
    spec = SketchSpec(family, eps=0.5, d=d, seed=5, rows_override=override)
    a = np.random.default_rng(n).standard_normal((n, d))
    need = 8 * _tree_state_elements(spec, n)
    monkeypatch.setenv("LVSK_MEM_CAP", str(need - 1))
    with pytest.raises(CapacityError):
        SketchState(spec, n)
    monkeypatch.setenv("LVSK_MEM_CAP", str(need))
    tracemalloc.start()
    try:
        consume_rows(SketchState(spec, n), a[lo:hi], lo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need


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
    d_signs = np.diag(state._signs)
    p = np.zeros((32, m))
    p[np.arange(32), state._sample] = 1.0
    s_explicit = math.sqrt(m / 32) * p @ (h / math.sqrt(m)) @ d_signs
    assert np.allclose(state.data, s_explicit @ a, atol=1e-10)
    # the diagnostic dense path agrees too
    assert np.allclose(sketch_matrix(spec, 64), s_explicit, atol=1e-12)


@pytest.mark.parametrize(
    "n, d, block, k",
    [
        (64, 5, 8, 24),  # eight full row blocks, power-of-two n
        (1000, 3, 16, 100),  # many blocks, the last one partial
        (5, 4, 16, 6),  # n below the block height: one zero-padded block
        (100, 2, 4, 128),  # k = m, every row kept
        (777, 3, 32, 1),  # k = 1
        (300, 1, 8, 64),  # d = 1
        (50, 3, 1, 20),  # block height 1: step 1 is the identity
    ],
)
def test_sampled_hadamard_matches_butterfly_and_scipy(n, d, block, k):
    # the leaf kernel on leaves of four blocks, summed over the leaves
    rng = np.random.default_rng(n + d + block + k)
    m = 1 << (n - 1).bit_length()
    x = rng.standard_normal((n, d))
    signs = 2.0 * rng.integers(0, 2, m) - 1.0
    sample = np.sort(rng.choice(m, size=k, replace=False))
    sample = sample[np.argsort(sample % block, kind="stable")]  # grouped by low index, as a state holds it
    leaf = 4 * block
    got = sum(
        _sampled_hadamard(x[lo : lo + leaf], signs[lo : lo + leaf], sample, block, lo, 1.0)
        for lo in range(0, n, leaf)
    )
    padded = np.zeros((m, d))
    padded[:n] = x
    flipped = signs[:, None] * padded
    np.testing.assert_allclose(got, fwht(flipped)[sample], rtol=1e-12, atol=1e-12)
    h = scipy.linalg.hadamard(m).astype(float)
    np.testing.assert_allclose(got, (h @ flipped)[sample], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "n, d, k",
    [
        (1000, 6, 256),  # several row blocks, non-power-of-two n
        (100, 3, 128),  # k = m
        (100, 3, 1),  # k = 1
        (513, 1, 64),  # d = 1
        (1, 2, 1),  # a single row
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
    butterfly = fwht(state._signs[:, None] * padded)[state._sample] / math.sqrt(k)
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


@pytest.mark.parametrize("n, d, k", [(3000, 16, 256), (5000, 4, 1024), (1 << 14, 8, 1 << 14)])
def test_srht_state_peak_within_its_capacity_check(n, d, k, monkeypatch):
    spec = SketchSpec("srht", eps=0.5, d=d, seed=5, rows_override=k)
    a = np.random.default_rng(n).standard_normal((n, d))
    need = 8 * _tree_state_elements(spec, n)
    monkeypatch.setenv("LVSK_MEM_CAP", str(need - 1))
    with pytest.raises(CapacityError):
        SketchState(spec, n)
    monkeypatch.setenv("LVSK_MEM_CAP", str(need))
    tracemalloc.start()
    try:
        consume_rows(SketchState(spec, n), a, 0).data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need


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
@pytest.mark.parametrize("key", ["k", "s"])
def test_load_state_rejects_a_sidecar_whose_k_or_s_was_edited(tmp_path, family, key):
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


def test_absorbed_nodes_do_not_keep_the_message_rows_alive():
    # leaves of 1024 rows: s2's message is the node of leaf 1 plus rows 2048..2500
    a = np.random.default_rng(41).standard_normal((4096, 4))
    spec = cs_spec(d=4, rows_override=64)
    s1 = consume_rows(SketchState(spec, 4096), a[:1024], 0)
    s2 = consume_rows(SketchState(spec, 4096), a[1024:2500], 1024)
    both = merge(s1, s2)
    assert list(both._nodes) == [(1, 0)] and list(both._pending) == [2]
    assert both._nodes[(1, 0)].base is None
    assert np.array_equal(both.data, apply_sketch(np.where(np.arange(4096)[:, None] < 2500, a, 0.0), spec).data)
    # a message of nodes only is absorbed without a copy
    s3 = consume_rows(SketchState(spec, 4096), a[1024:2048], 1024)
    assert merge(s1, s3)._nodes[(1, 0)].base is not None


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
