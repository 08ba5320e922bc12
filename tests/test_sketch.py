import math

import numpy as np
import pytest
import scipy.linalg

from levsketch import (
    SketchSpec,
    SketchState,
    SyntheticSpec,
    apply_sketch,
    consume_rows,
    gen_synthetic,
    load_state,
    merge,
    partition_rows,
    save_state,
    sketch_matrix,
    sketch_rows,
    srht_apply,
    stream_update,
)
from levsketch.errors import (
    ConfigurationError,
    DimensionMismatchError,
    IncompatibleSketchError,
    UnsupportedFamilyError,
)
from levsketch.sketch import _sampled_hadamard


def cs_spec(**kw):
    base = dict(family="countsketch", eps=0.5, d=16, seed=1)
    base.update(kw)
    return SketchSpec(**base)


# ---------------------------------------------------------------------------
# Row-count sizing


def test_rows_countsketch_example():
    assert sketch_rows(SketchSpec("countsketch", eps=0.5, d=16, sizing_c=1.0)) == 1024


def test_rows_osnap_example():
    # ceil(16 / 0.25 * ln 16) = ceil(177.445...) = 178
    assert sketch_rows(SketchSpec("osnap", eps=0.5, d=16, sizing_c=1.0)) == 178


def test_rows_srht_power_of_two():
    k = sketch_rows(SketchSpec("srht", eps=0.5, d=16, sizing_c=1.0))
    assert k == 256
    assert k & (k - 1) == 0


def test_rows_override_wins():
    for fam in ("countsketch", "osnap", "srht"):
        assert sketch_rows(SketchSpec(fam, eps=0.5, d=16, rows_override=64)) == 64


def test_rows_scale_with_constant():
    base = sketch_rows(SketchSpec("countsketch", eps=0.5, d=16, sizing_c=1.0))
    assert sketch_rows(SketchSpec("countsketch", eps=0.5, d=16, sizing_c=2.0)) == 2 * base


def test_spec_validation():
    with pytest.raises(UnsupportedFamilyError):
        SketchSpec("gaussian", eps=0.5, d=4)
    with pytest.raises(ConfigurationError):
        SketchSpec("countsketch", eps=1.5, d=4)
    with pytest.raises(ConfigurationError):
        SketchSpec("countsketch", eps=0.5, d=0)
    with pytest.raises(ConfigurationError):
        SketchSpec("osnap", eps=0.5, d=4, osnap_s=0)


# ---------------------------------------------------------------------------
# Column structure of the implicit matrix


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
    stream_update(state, 7, e1)
    delta = state.data - before
    changed = np.flatnonzero(np.any(delta != 0, axis=1))
    assert changed.size == 1
    assert np.allclose(np.abs(delta[changed[0]]), e1)


def test_osnap_single_row_touches_s_buckets():
    spec = SketchSpec("osnap", eps=0.5, d=16, osnap_s=2, seed=3)
    state = SketchState(spec, 50)
    e1 = np.zeros(16)
    e1[0] = 1.0
    stream_update(state, 7, e1)
    delta = state.data
    changed = np.flatnonzero(np.any(delta != 0, axis=1))
    assert changed.size <= 2
    for row in changed:
        assert np.allclose(np.abs(delta[row]), e1 / math.sqrt(2))


def test_stream_update_validates():
    state = SketchState(cs_spec(), 10)
    with pytest.raises(DimensionMismatchError):
        stream_update(state, 0, np.zeros(7))
    with pytest.raises(DimensionMismatchError):
        stream_update(state, 10, np.zeros(16))


def test_consume_rows_matches_stream_update():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((60, 16))
    spec = cs_spec()
    bulk = apply_sketch(a, spec)
    single = SketchState(spec, 60)
    for i, row in enumerate(a):
        stream_update(single, i, row)
    diff = np.linalg.norm(bulk.data - single.data)
    assert diff <= 1e-10 * max(1.0, np.linalg.norm(bulk.data))
    assert bulk.rows_consumed == single.rows_consumed == 60


def test_row_order_independence():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((80, 16))
    spec = SketchSpec("osnap", eps=0.5, d=16, seed=11)
    natural = SketchState(spec, 80)
    for i in range(80):
        stream_update(natural, i, a[i])
    permuted = SketchState(spec, 80)
    for i in rng.permutation(80):
        stream_update(permuted, int(i), a[i])
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
    state = srht_apply(spec, a)
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
    rng = np.random.default_rng(n + d + block + k)
    m = 1 << (n - 1).bit_length()
    x = rng.standard_normal((n, d))
    signs = 2.0 * rng.integers(0, 2, m) - 1.0
    sample = np.sort(rng.choice(m, size=k, replace=False))
    got = _sampled_hadamard(x, signs, sample, block)
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
    padded = np.zeros((state._m, d))
    padded[:n] = a
    butterfly = fwht(state._signs[:, None] * padded)[state._sample] / math.sqrt(k)
    np.testing.assert_allclose(state.data, butterfly, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(state.data, sketch_matrix(spec, n) @ a, rtol=1e-12, atol=1e-12)


def test_srht_row_buffer_is_unpadded():
    state = SketchState(SketchSpec("srht", eps=0.5, d=4, seed=3, rows_override=16), 100)
    assert state._rows.shape == (100, 4)


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
    state = srht_apply(spec, a)
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
    sa = srht_apply(spec, a).data
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
    bulk = srht_apply(spec, a)
    streamed = SketchState(spec, 48)
    for i, row in enumerate(a):
        stream_update(streamed, i, row)
    assert np.array_equal(bulk.data, streamed.data)


def test_srht_k_must_fit_padded_rows():
    with pytest.raises(ConfigurationError):
        SketchState(SketchSpec("srht", eps=0.5, d=8, rows_override=64), 10)


def test_srht_transform_buffer_respects_memory_cap():
    from levsketch.errors import CapacityError

    with pytest.raises(CapacityError):
        SketchState(SketchSpec("srht", eps=0.5, d=64, rows_override=16), 100_000, mem_cap=1_000_000)


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


def test_loaded_countsketch_state_still_merges(tmp_path):
    rng = np.random.default_rng(18)
    a = rng.standard_normal((60, 16))
    spec = cs_spec(seed=53)
    serial = apply_sketch(a, spec)
    s1 = consume_rows(SketchState(spec, 60), a[:30], 0)
    save_state(s1, tmp_path / "s1.bin")
    s1_loaded = load_state(tmp_path / "s1.bin")
    s2 = consume_rows(SketchState(spec, 60), a[30:], 30)
    merged = merge(s1_loaded, s2)
    assert np.allclose(merged.data, serial.data, atol=1e-12)
