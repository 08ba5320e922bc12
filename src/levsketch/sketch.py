"""Streaming subspace-embedding sketches: CountSketch, OSNAP, SRHT.

The product ``S @ A`` is accumulated without materializing ``S``. CountSketch
hashes each input row to one bucket with a random sign; OSNAP splits the
sketch rows into ``s`` blocks and hashes each input row into every block with
independent signs, scaled by ``1/sqrt(s)``; SRHT is sign-flip, Walsh-Hadamard
transform of order m (the next power of two at or above the row count, the
input being implicitly zero-padded), then uniform subsampling of k of the m
rows.

An SRHT state buffers its n x d input rows and transforms them lazily, on the
first read of ``.data`` after an update. Only the k sampled rows of
``H_m D A`` are computed, through the Sylvester split ``H_m = H_{m/B} (x) H_B``
with B a power of two near sqrt(k): one batched GEMM applies the dense +-1
matrix ``H_B`` to every B-row block of ``D A``, then each sampled row
``p = p1*B + p2`` is row ``p1`` of ``H_{m/B}`` times the block-transformed rows
at low index ``p2``, one GEMM per distinct ``p2``. That is n*B*d + k*(n/B)*d
work against m*log2(m)*d for a full transform.

Bucket accumulation is compensated (TwoSum carries kept alongside the sums),
which makes the accumulated product insensitive to how the input rows were
partitioned: merging per-partition states reproduces the serial state
bit-for-bit in practice. Plain float64 accumulation does not survive
re-association and would break the distributed-equals-serial contract.

Hashing is seed-keyed multiply-shift for bucket choice and the low bit of a
keyed splitmix64-style mix for signs; both are cheap pairwise-independent
families, and everything derives deterministically from ``SketchSpec.seed``.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ensure_capacity
from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    FormatError,
    IncompatibleSketchError,
    UnsupportedFamilyError,
)
from .matrix import as_matrix, load_matrix, save_matrix

COUNTSKETCH = "countsketch"
OSNAP = "osnap"
SRHT = "srht"
FAMILIES = (COUNTSKETCH, OSNAP, SRHT)

# Sizing constants in front of the theoretical row counts. The OSNAP constant
# is 2: at 1 the row count is too small to hold the target distortion on the
# reference test regime (4096 x 10, eps = 0.5).
DEFAULT_SIZING = {COUNTSKETCH: 1.0, OSNAP: 2.0, SRHT: 1.0}

_M64 = (1 << 64) - 1
_HASH_STREAM = {COUNTSKETCH: 0x6353, OSNAP: 0x6F53, SRHT: 0x7253}
_SRHT_SAMPLE_STREAM = 0x5348

# Target size of a per-chunk temporary (hash contributions, sign-flipped SRHT
# row blocks), in float64 elements (16 MiB).
_CHUNK_ELEMENTS = 1 << 21


@dataclass(frozen=True)
class SketchSpec:
    """Sketch family, distortion target and seed; the row count is derived.

    ``osnap_s`` is the nonzeros-per-column for OSNAP (default
    ``ceil(log2 d)``); ``sizing_c`` scales the derived row count (family
    default if None); ``rows_override`` pins the row count outright.
    """

    family: str
    eps: float
    d: int
    osnap_s: int | None = None
    seed: int = 0
    rows_override: int | None = None
    sizing_c: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedFamilyError(f"unknown sketch family {self.family!r}; expected one of {FAMILIES}")
        if not 0 < self.eps < 1:
            raise ConfigurationError(f"eps must be in (0, 1), got {self.eps}")
        if self.d < 1:
            raise ConfigurationError(f"d must be at least 1, got {self.d}")
        if self.osnap_s is not None and self.osnap_s < 1:
            raise ConfigurationError(f"osnap_s must be at least 1, got {self.osnap_s}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")
        if self.rows_override is not None and self.rows_override < 1:
            raise ConfigurationError(f"rows_override must be at least 1, got {self.rows_override}")
        if self.sizing_c is not None and self.sizing_c <= 0:
            raise ConfigurationError(f"sizing_c must be positive, got {self.sizing_c}")

    @property
    def c(self) -> float:
        return DEFAULT_SIZING[self.family] if self.sizing_c is None else self.sizing_c

    @property
    def s(self) -> int:
        """Nonzeros per column (1 except for OSNAP)."""
        if self.family != OSNAP:
            return 1
        if self.osnap_s is not None:
            return self.osnap_s
        return max(1, math.ceil(math.log2(self.d)))


def _next_pow2(v: int) -> int:
    p = 1
    while p < v:
        p <<= 1
    return p


def sketch_rows(spec: SketchSpec) -> int:
    """Sketch row count k from the family's theoretical sizing rule.

    CountSketch: ``ceil(c * (d/eps)^2)``. OSNAP: ``ceil(c * d/eps^2 * ln d)``.
    SRHT: the smallest power of two at least ``c * d/eps^2 * ln d``.
    ``rows_override`` wins when set.
    """
    if spec.rows_override is not None:
        return spec.rows_override
    if spec.family == COUNTSKETCH:
        return max(1, math.ceil(spec.c * (spec.d / spec.eps) ** 2))
    target = spec.c * (spec.d / spec.eps**2) * math.log(spec.d)
    if spec.family == OSNAP:
        return max(spec.s, math.ceil(target))
    return _next_pow2(max(1, math.ceil(target)))


# ---------------------------------------------------------------------------
# Hashing


def _splitmix_stream(seed: int, tag: int):
    state = (seed ^ (tag * 0x9E3779B97F4A7C15)) & _M64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        yield (z ^ (z >> 31)) & _M64


def _mix64(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _bucket_hash(idx: np.ndarray, a: int, b: int, size: int) -> np.ndarray:
    """Multiply-shift: map row indices to [0, size) via the top 32 bits."""
    v = np.uint64(a) * idx + np.uint64(b)
    return (((v >> np.uint64(32)) * np.uint64(size)) >> np.uint64(32)).astype(np.int64)


def _sign_hash(idx: np.ndarray, key: int) -> np.ndarray:
    """Random signs from the low bit of a keyed 64-bit mix."""
    return 1.0 - 2.0 * (_mix64(idx ^ np.uint64(key)) & np.uint64(1)).astype(np.float64)


# ---------------------------------------------------------------------------
# Compensated accumulation


def _two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _scatter_add(hi: np.ndarray, lo: np.ndarray, buckets: np.ndarray, contribs: np.ndarray) -> None:
    """Add ``contribs[t]`` into bucket row ``buckets[t]``, in index order ``t``
    for contributions sharing a bucket, carrying compensation terms."""
    order = np.argsort(buckets, kind="stable")
    sorted_b = buckets[order]
    starts = np.flatnonzero(np.r_[True, sorted_b[1:] != sorted_b[:-1]])
    lengths = np.diff(np.r_[starts, sorted_b.size])
    depth = 0
    while True:
        live = lengths > depth
        if not live.any():
            return
        sel = starts[live] + depth
        rows = order[sel]
        tgt = sorted_b[sel]
        s, e = _two_sum(hi[tgt], contribs[rows])
        hi[tgt] = s
        lo[tgt] += e
        depth += 1


# ---------------------------------------------------------------------------
# Sketch state


class SketchState:
    """Accumulator for ``S @ A`` over a stream of globally indexed rows.

    Single-writer: parallelism is one state per row partition plus
    :func:`merge`, never concurrent updates to one state.
    """

    def __init__(self, spec: SketchSpec, n_rows: int, mem_cap: int | None = None):
        if n_rows < 1:
            raise ConfigurationError(f"n_rows must be at least 1, got {n_rows}")
        self.spec = spec
        self.d = spec.d
        self.k = sketch_rows(spec)
        self.n_rows = n_rows
        self.rows_consumed = 0
        if spec.family == SRHT:
            self._m = _next_pow2(n_rows)
            if self.k > self._m:
                raise ConfigurationError(
                    f"SRHT needs k <= padded row count: k={self.k}, padded rows={self._m}"
                )
            self._block = _srht_block_rows(self.k, self._m)
            ensure_capacity(
                8 * (n_rows * self.d + _srht_transform_elements(n_rows, self.d, self.k, self._m, self._block)),
                "SRHT row buffer and transform",
                mem_cap,
            )
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence([_SRHT_SAMPLE_STREAM, spec.seed]))
            )
            self._signs = (2.0 * rng.integers(0, 2, self._m) - 1.0).astype(np.float64)
            self._sample = np.sort(rng.choice(self._m, size=self.k, replace=False))
            self._rows = np.zeros((n_rows, self.d))
            self._cache = None
        else:
            s = spec.s
            if self.k < s:
                raise ConfigurationError(f"sketch rows k={self.k} below nonzeros per column s={s}")
            ensure_capacity(2 * 8 * self.k * self.d, "sketch accumulator", mem_cap)
            base, rem = divmod(self.k, s)
            self._block_sizes = [base + (1 if j < rem else 0) for j in range(s)]
            self._block_offsets = np.concatenate([[0], np.cumsum(self._block_sizes[:-1])]).astype(np.int64)
            keys = _splitmix_stream(spec.seed, _HASH_STREAM[spec.family])
            self._hash_a = [next(keys) | 1 for _ in range(s)]
            self._hash_b = [next(keys) for _ in range(s)]
            self._sign_keys = [next(keys) for _ in range(s)]
            self._scale = 1.0 / math.sqrt(s)
            self._acc_hi = np.zeros((self.k, self.d))
            self._acc_lo = np.zeros((self.k, self.d))

    @property
    def payload_bytes(self) -> int:
        """Size of the accumulated product if shipped as float64, k*d*8."""
        return 8 * self.k * self.d

    @property
    def data(self) -> np.ndarray:
        """The accumulated ``S @ A`` (k x d), materialized as float64."""
        if self.spec.family == SRHT:
            if self._cache is None:
                if self._rows is None:
                    raise ConfigurationError("SRHT state was deserialized without its row buffer")
                self._cache = _sampled_hadamard(self._rows, self._signs, self._sample, self._block)
                self._cache /= math.sqrt(self.k)
            return self._cache
        return self._acc_hi + self._acc_lo

    def _update_hashed(self, idx: np.ndarray, block: np.ndarray) -> None:
        for j in range(self.spec.s):
            buckets = self._block_offsets[j] + _bucket_hash(
                idx, self._hash_a[j], self._hash_b[j], self._block_sizes[j]
            )
            signs = _sign_hash(idx, self._sign_keys[j])
            _scatter_add(self._acc_hi, self._acc_lo, buckets, (signs * self._scale)[:, None] * block)


def stream_update(state: SketchState, row_index: int, row) -> SketchState:
    """Consume one globally indexed row. Each global index must be consumed at
    most once; only the count is tracked, duplicates are the caller's bug."""
    row = np.asarray(row, dtype=np.float64)
    if row.shape != (state.d,):
        raise DimensionMismatchError(f"row has shape {row.shape}, expected ({state.d},)")
    if not 0 <= row_index < state.n_rows:
        raise DimensionMismatchError(f"row index {row_index} outside [0, {state.n_rows})")
    if state.spec.family == SRHT:
        if state._rows is None:
            raise ConfigurationError("deserialized SRHT states are read-only")
        state._rows[row_index] = row
        state._cache = None
    else:
        idx = np.array([row_index], dtype=np.uint64)
        state._update_hashed(idx, row[None, :])
    state.rows_consumed += 1
    return state


def consume_rows(state: SketchState, rows, start_index: int) -> SketchState:
    """Consume a contiguous block of rows whose global indices start at
    ``start_index``. Equivalent to repeated :func:`stream_update`, vectorized."""
    rows = as_matrix(rows, "row block")
    if rows.shape[1] != state.d:
        raise DimensionMismatchError(f"row block has {rows.shape[1]} columns, expected {state.d}")
    n_block = rows.shape[0]
    if start_index < 0 or start_index + n_block > state.n_rows:
        raise DimensionMismatchError(
            f"rows [{start_index}, {start_index + n_block}) outside [0, {state.n_rows})"
        )
    if state.spec.family == SRHT:
        if state._rows is None:
            raise ConfigurationError("deserialized SRHT states are read-only")
        state._rows[start_index : start_index + n_block] = rows
        state._cache = None
    else:
        chunk = max(1, _CHUNK_ELEMENTS // state.d)
        for lo in range(0, n_block, chunk):
            hi = min(lo + chunk, n_block)
            idx = np.arange(start_index + lo, start_index + hi, dtype=np.uint64)
            state._update_hashed(idx, rows[lo:hi])
    state.rows_consumed += n_block
    return state


def apply_sketch(a, spec: SketchSpec, mem_cap: int | None = None) -> SketchState:
    """Sketch an entire matrix: fresh state, all rows consumed in order."""
    a = as_matrix(a)
    state = SketchState(spec, a.shape[0], mem_cap=mem_cap)
    return consume_rows(state, a, 0)


def srht_apply(spec: SketchSpec, a, mem_cap: int | None = None) -> SketchState:
    """Apply an SRHT sketch to a whole matrix and materialize the result."""
    if spec.family != SRHT:
        raise UnsupportedFamilyError(f"srht_apply requires an SRHT spec, got {spec.family!r}")
    state = apply_sketch(a, spec, mem_cap=mem_cap)
    _ = state.data  # materialize eagerly; later reads are cached
    return state


def merge(s1: SketchState, s2: SketchState) -> SketchState:
    """Sum two states built from disjoint row sets of the same stream.

    Linearity of the sketch makes this the state that would have been produced
    by consuming both row sets in one pass.
    """
    if s1.spec != s2.spec or s1.n_rows != s2.n_rows:
        raise IncompatibleSketchError(
            f"cannot merge sketches with different specs: {s1.spec} / {s2.spec} "
            f"over {s1.n_rows} / {s2.n_rows} rows"
        )
    if s1.rows_consumed + s2.rows_consumed > s1.n_rows:
        raise IncompatibleSketchError(
            "merged states would cover more rows than the stream holds; inputs must be disjoint"
        )
    out = SketchState(s1.spec, s1.n_rows)
    if s1.spec.family == SRHT:
        if s1._rows is None or s2._rows is None:
            raise IncompatibleSketchError("deserialized SRHT states cannot be merged")
        out._rows = s1._rows + s2._rows
        out._cache = None
    else:
        s, e = _two_sum(s1._acc_hi, s2._acc_hi)
        out._acc_hi = s
        out._acc_lo = s1._acc_lo + s2._acc_lo + e
    out.rows_consumed = s1.rows_consumed + s2.rows_consumed
    return out


# ---------------------------------------------------------------------------
# Sampled rows of the Walsh-Hadamard transform


def _hadamard(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries ``(-1)^popcount(r & c)`` of the Sylvester Hadamard matrix at the
    given row and column indices."""
    parity = np.bitwise_count(rows[:, None] & cols[None, :])
    parity &= np.uint8(1)
    return 1.0 - 2.0 * parity


def _srht_block_rows(k: int, m: int) -> int:
    """Block height B of the split ``H_m = H_{m/B} (x) H_B``: the power of two
    at or above sqrt(k), which balances the n*B*d block transform against the
    k*(n/B)*d sampled-row products."""
    return min(m, _next_pow2(math.ceil(math.sqrt(k))))


def _srht_transform_elements(n: int, d: int, k: int, m: int, block: int) -> int:
    """Float64 elements :func:`_sampled_hadamard` holds at its peak: the
    block-transformed rows, one chunk of sign-flipped rows, the k sampled rows,
    and the +-1 factor (plus one temporary of its size) of the largest possible
    group of samples sharing a low index."""
    n_blocks = -(-n // block)
    chunk = max(1, _CHUNK_ELEMENTS // (block * d)) * block * d
    return n_blocks * block * d + chunk + k * d + 2 * min(k, m // block) * n_blocks


def _sampled_hadamard(x: np.ndarray, signs: np.ndarray, sample: np.ndarray, block: int) -> np.ndarray:
    """Rows ``sample`` of ``H_m @ diag(signs) @ x``, x implicitly zero-padded to
    m rows, computed through ``H_m = H_{m/B} (x) H_B`` with B = ``block``."""
    n, d = x.shape
    n_blocks = -(-n // block)
    local = np.arange(block)
    h_block = _hadamard(local, local)
    # Step 1: H_B times every B-row block of D x, one batched GEMM per chunk of
    # blocks. Only the last, partial block is zero-filled.
    transformed = np.empty((n_blocks, block, d))
    per_chunk = max(1, _CHUNK_ELEMENTS // (block * d))
    flipped = np.empty((per_chunk * block, d))
    for b0 in range(0, n_blocks, per_chunk):
        b1 = min(b0 + per_chunk, n_blocks)
        r0, r1 = b0 * block, min(b1 * block, n)
        height = (b1 - b0) * block
        np.multiply(signs[r0:r1, None], x[r0:r1], out=flipped[: r1 - r0])
        flipped[r1 - r0 : height] = 0.0
        np.matmul(h_block, flipped[:height].reshape(b1 - b0, block, d), out=transformed[b0:b1])
    # Step 2: sampled row p = p1*B + p2 is H_{m/B}[p1, :n_blocks] times the
    # transformed rows at low index p2, one GEMM per distinct p2.
    low = sample & (block - 1)
    high = sample >> (block.bit_length() - 1)
    out = np.empty((sample.size, d))
    blocks = np.arange(n_blocks)
    order = np.argsort(low, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(low[order])) + 1):
        out[group] = _hadamard(high[group], blocks) @ transformed[:, low[group[0]]]
    return out


# ---------------------------------------------------------------------------
# Explicit sketch matrix (diagnostic/testing path; never used by the pipeline)


def sketch_matrix(spec: SketchSpec, n_rows: int, mem_cap: int | None = None) -> np.ndarray:
    """Materialize S as a dense k x n matrix for direct-multiplication checks."""
    state = SketchState(spec, n_rows, mem_cap=mem_cap)
    ensure_capacity(8 * state.k * n_rows, "explicit sketch matrix", mem_cap)
    idx = np.arange(n_rows, dtype=np.uint64)
    cols = np.arange(n_rows)
    if spec.family == SRHT:
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


# ---------------------------------------------------------------------------
# Serialization: matrix binary payload + JSON sidecar


def save_state(state: SketchState, data_path, meta_path=None) -> None:
    """Write the materialized k x d product plus a JSON spec sidecar."""
    data_path = Path(data_path)
    meta_path = Path(meta_path) if meta_path is not None else data_path.with_suffix(".json")
    save_matrix(state.data, data_path, "binary")
    meta = {
        "family": state.spec.family,
        "k": state.k,
        "d": state.d,
        "s": state.spec.s,
        "seed": state.spec.seed,
        "eps": state.spec.eps,
        "rows_consumed": state.rows_consumed,
        "n_rows": state.n_rows,
        "rows_override": state.spec.rows_override,
        "sizing_c": state.spec.sizing_c,
        "osnap_s": state.spec.osnap_s,
    }
    with open(meta_path, "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


def load_state(data_path, meta_path=None) -> SketchState:
    """Reconstruct a state from :func:`save_state` output.

    The compensation carries are folded into the payload on save, so a loaded
    state is bit-identical in value; SRHT states lose their row buffer and can
    no longer be updated or merged.
    """
    data_path = Path(data_path)
    meta_path = Path(meta_path) if meta_path is not None else data_path.with_suffix(".json")
    with open(meta_path) as f:
        meta = json.load(f)
    spec = SketchSpec(
        family=meta["family"],
        eps=meta["eps"],
        d=meta["d"],
        osnap_s=meta["osnap_s"],
        seed=meta["seed"],
        rows_override=meta["rows_override"],
        sizing_c=meta["sizing_c"],
    )
    state = SketchState(spec, meta["n_rows"])
    data = load_matrix(data_path, "binary")
    if data.shape != (state.k, state.d):
        raise FormatError(
            f"{data_path}: payload shape {data.shape} does not match spec-derived ({state.k}, {state.d})"
        )
    if spec.family == SRHT:
        state._rows = None
        state._cache = data
    else:
        state._acc_hi = data.copy()
        state._acc_lo = np.zeros_like(data)
    state.rows_consumed = meta["rows_consumed"]
    return state
