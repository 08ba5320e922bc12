"""Streaming subspace-embedding sketches: CountSketch, OSNAP, SRHT.

The product ``S @ A`` is accumulated without materializing ``S``. CountSketch
hashes each input row to one bucket with a random sign; OSNAP splits the
sketch rows into ``s`` blocks and hashes each input row into every block with
independent signs, scaled by ``1/sqrt(s)``; SRHT is sign-flip, Walsh-Hadamard
transform of order m (the next power of two at or above the row count, the
input being implicitly zero-padded), then uniform subsampling of k of the m
rows.

An SRHT state buffers its n x d input rows, with a mask of the rows it holds,
and transforms them lazily, on the first read of ``.data`` after an update.
Only the k sampled rows of ``H_m D A`` are computed, through the Sylvester
split ``H_m = H_{m/B} (x) H_B`` with B a power of two near sqrt(k): one
batched GEMM applies the dense +-1 matrix ``H_B`` to every B-row block of
``D A``, then each sampled row ``p = p1*B + p2`` is row ``p1`` of ``H_{m/B}``
times the block-transformed rows at low index ``p2``, one GEMM per distinct
``p2``. That is n*B*d + k*(n/B)*d
work against m*log2(m)*d for a full transform.

CountSketch and OSNAP define ``S @ A`` as a fixed binary tree over globally
aligned leaves of L rows, L the power of two at or above max(k, 1024). A leaf
is reduced by one plain float64 kernel: every bucket sums its signed rows in
row-index order, then the leaf is scaled by ``1/sqrt(s)`` once. A tree node
(level, i) covers leaves [i*2^level, (i+1)*2^level); its value is left + right,
a child past the last leaf counting as absent. A state holds the complete
nodes it has (combined with a sibling as soon as both are present) plus the
raw rows of leaves it holds only in part, and :func:`merge` unions two
states. The tree fixes the value of any set of rows, so any row partition,
merge order or chunking of the stream gives the same bits, whatever the data.

Hashing is seed-keyed multiply-shift for bucket choice and the low bit of a
keyed splitmix64-style mix for signs; both are cheap pairwise-independent
families, and everything derives deterministically from ``SketchSpec.seed``.
"""

import copy
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

# Target size of one gathered, sign-flipped block of rows in the leaf kernel,
# in float64 elements (256 KiB): small enough that it is added to the
# accumulator while still in cache.
_GATHER_ELEMENTS = 1 << 15


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
# Block tree of the hashed families

# Floor of the leaf height, so that small sketches still reduce rows in blocks.
_MIN_LEAF_ROWS = 1024


def _leaf_rows(k: int) -> int:
    """Leaf height L of the block tree: the power of two at or above
    max(k, 1024), so a leaf's k x d accumulator costs no more than its rows."""
    return _next_pow2(max(k, _MIN_LEAF_ROWS))


def _tree_state_elements(n: int, k: int, d: int, s: int) -> int:
    """Float64 elements (an index entry counted as one) a hashed state holds at
    its peak while consuming a contiguous row range: the canonical nodes held
    (at most two per level below the root) plus two more k x d arrays (the
    leaf kernel's accumulator and its bucket-ordered copy, or a combination's
    inputs and sum), one gathered chunk, the kernel's index arrays, and a
    partial-leaf row buffer at each end of the range."""
    leaf = _leaf_rows(k)
    n_leaves = -(-n // leaf)
    height = min(leaf, n)
    nodes = (2 * (n_leaves - 1).bit_length() + 2) * k * d
    kernel = max(d, _GATHER_ELEMENTS) + 10 * s * height + 4 * k
    return nodes + kernel + min(2, n_leaves) * height * d


class SketchState:
    """Accumulator for ``S @ A`` over a stream of globally indexed rows.

    Single-writer: parallelism is one state per row partition plus
    :func:`merge`, never concurrent updates to one state.
    """

    def __init__(self, spec: SketchSpec, n_rows: int, mem_cap: int | None = None):
        self._describe(spec, n_rows)
        if spec.family == SRHT:
            transform = _srht_transform_elements(n_rows, self.d, self.k, self._m, self._block)
            ensure_capacity(
                8 * (n_rows * self.d + self._m + self.k + transform) + n_rows,
                "SRHT row buffer, signs, sample, held-row mask and transform",
                mem_cap,
            )
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence([_SRHT_SAMPLE_STREAM, spec.seed]))
            )
            self._signs = (2.0 * rng.integers(0, 2, self._m) - 1.0).astype(np.float64)
            self._sample = np.sort(rng.choice(self._m, size=self.k, replace=False))
            self._rows = np.zeros((n_rows, self.d))
            self._held = np.zeros(n_rows, dtype=bool)
        else:
            ensure_capacity(
                8 * _tree_state_elements(n_rows, self.k, self.d, spec.s), "sketch tree and leaf kernel", mem_cap
            )

    def _describe(self, spec: SketchSpec, n_rows: int) -> None:
        """Everything derived from the spec and the row count, with no row
        storage allocated: an empty hashed state, or an SRHT state without its
        sign and sample draws, row buffer and held-row mask."""
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
            self._signs = self._sample = self._rows = self._held = self._cache = None
            return
        s = spec.s
        if self.k < s:
            raise ConfigurationError(f"sketch rows k={self.k} below nonzeros per column s={s}")
        base, rem = divmod(self.k, s)
        self._block_sizes = [base + (1 if j < rem else 0) for j in range(s)]
        self._block_offsets = np.concatenate([[0], np.cumsum(self._block_sizes[:-1])]).astype(np.int64)
        keys = _splitmix_stream(spec.seed, _HASH_STREAM[spec.family])
        self._hash_a = [next(keys) | 1 for _ in range(s)]
        self._hash_b = [next(keys) for _ in range(s)]
        self._sign_keys = [next(keys) for _ in range(s)]
        self._scale = 1.0 / math.sqrt(s)
        self._leaf = _leaf_rows(self.k)
        self._n_leaves = -(-n_rows // self._leaf)
        self._top = (self._n_leaves - 1).bit_length()
        self._nodes = {}  # (level, i) -> k x d sum of the rows under the node
        self._pending = {}  # leaf -> (its rows, zero where absent; mask of rows present)
        self._loaded = None  # a deserialized k x d payload, added after the tree

    @property
    def message_bytes(self) -> int:
        """Bytes this state ships to a coordinator as float64: its canonical
        nodes and its rows of partly held leaves (the k x d product for SRHT
        and for a deserialized payload)."""
        if self.spec.family == SRHT:
            return 8 * self.k * self.d
        rows = sum(int(present.sum()) for _, present in self._pending.values())
        terms = len(self._nodes) + (self._loaded is not None)
        return 8 * (terms * self.k * self.d + rows * self.d)

    @property
    def data(self) -> np.ndarray:
        """The accumulated ``S @ A`` (k x d), materialized as float64. For the
        hashed families it is read-only and may be the state's own node."""
        if self.spec.family == SRHT:
            if self._cache is None:
                if self._rows is None:
                    raise ConfigurationError("SRHT state was deserialized without its row buffer")
                self._cache = _sampled_hadamard(self._rows, self._signs, self._sample, self._block)
                self._cache /= math.sqrt(self.k)
            return self._cache
        total = self._fold()
        if self._loaded is not None:
            total = self._loaded if total is None else total + self._loaded
        if total is None:
            total = np.zeros((self.k, self.d))
        view = total.view()
        view.flags.writeable = False
        return view

    def _leaf_span(self, leaf: int) -> tuple[int, int]:
        lo = leaf * self._leaf
        return lo, min(lo + self._leaf, self.n_rows)

    def _reduce(self, idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``S @ A`` over ``rows`` at the ascending global indices ``idx``, all
        in one leaf: each bucket sums its signed rows in index order, then the
        result is scaled by 1/sqrt(s).

        The s hash copies go through one stable sort by bucket, which gives
        every contribution its depth (its rank within its bucket). Buckets are
        laid out by decreasing count, so the buckets still live at depth t are
        a prefix of the accumulator and each depth is one gathered, sign-
        flipped block added to that prefix, in chunks of about
        ``_GATHER_ELEMENTS``.
        """
        m, d, k = idx.size, self.d, self.k
        buckets = np.empty((self.spec.s, m), dtype=np.int64)
        signs = np.empty((self.spec.s, m))
        for j in range(self.spec.s):
            buckets[j] = self._block_offsets[j] + _bucket_hash(
                idx, self._hash_a[j], self._hash_b[j], self._block_sizes[j]
            )
            signs[j] = _sign_hash(idx, self._sign_keys[j])
        buckets, signs = buckets.ravel(), signs.ravel()
        counts = np.bincount(buckets, minlength=k)
        order = np.argsort(buckets, kind="stable")
        depth = np.empty_like(order)
        depth[order] = np.arange(order.size) - (np.cumsum(counts) - counts)[buckets[order]]
        slot = np.empty(k, dtype=np.int64)
        slot[np.argsort(-counts, kind="stable")] = np.arange(k)
        live = k - np.cumsum(np.bincount(counts))[:-1]  # buckets with more than t contributions
        starts = np.cumsum(live) - live
        sequence = np.empty_like(order)
        sequence[starts[depth] + slot[buckets]] = np.arange(order.size)
        src, signs = sequence % m, signs[sequence]
        acc = np.zeros((k, d))
        step = max(1, _GATHER_ELEMENTS // d)
        for base, width in zip(starts, live):
            for p0 in range(0, width, step):
                p1 = min(width, p0 + step)
                picked = rows[src[base + p0 : base + p1]]
                picked *= signs[base + p0 : base + p1, None]
                acc[p0:p1] += picked
        acc = acc[slot]
        if self.spec.s > 1:
            acc *= self._scale
        return acc

    def _claim(self, level: int, i: int) -> None:
        """Raise if a node or partly held leaf of this state overlaps node
        (level, i)."""
        above = any((up, i >> (up - level)) in self._nodes for up in range(level, self._top + 1))
        below = any(lv < level and j >> (level - lv) == i for lv, j in self._nodes)
        if above or below or any(leaf >> level == i for leaf in self._pending):
            raise IncompatibleSketchError(f"rows under tree node ({level}, {i}) are already held")

    def _insert(self, level: int, i: int, value: np.ndarray) -> None:
        """Add a complete node, combining it with its sibling for as long as
        the sibling is held; a sibling past the last leaf is absent, so the
        node stands for its parent."""
        while level < self._top:
            sibling = i ^ 1
            if sibling << level < self._n_leaves:
                other = self._nodes.pop((level, sibling), None)
                if other is None:
                    break
                value = other + value if sibling < i else value + other
            level, i = level + 1, i >> 1
        self._nodes[(level, i)] = value

    def _claim_rows(self, leaf: int, window: slice, present=True) -> None:
        """Raise if a row of ``leaf`` in ``window`` (of those flagged in
        ``present``) is already held."""
        if leaf not in self._pending:
            self._claim(0, leaf)
        elif (self._pending[leaf][1][window] & present).any():
            raise IncompatibleSketchError(f"rows of leaf {leaf} are already held")

    def _fill(self, leaf: int, offset: int, rows: np.ndarray, present: np.ndarray | None = None) -> None:
        """Place rows of a leaf at row ``offset`` within it (only the rows
        flagged in ``present``, if given); reduce the leaf once it is whole."""
        window = slice(offset, offset + rows.shape[0])
        present = np.ones(rows.shape[0], dtype=bool) if present is None else present
        self._claim_rows(leaf, window, present)
        lo, hi = self._leaf_span(leaf)
        if leaf not in self._pending:
            self._pending[leaf] = (np.zeros((hi - lo, self.d)), np.zeros(hi - lo, dtype=bool))
        buffer, held = self._pending[leaf]
        buffer[window][present] = rows[present]
        held[window] |= present
        if held.all():
            del self._pending[leaf]
            self._insert(0, leaf, self._reduce(np.arange(lo, hi, dtype=np.uint64), buffer))

    def _fold(self) -> np.ndarray | None:
        """Tree sum of the held nodes and of each partly held leaf reduced over
        the rows present; None if the state holds no rows."""
        if (self._top, 0) in self._nodes:
            return self._nodes[(self._top, 0)]
        occupied = set()
        for level, i in [*self._nodes, *((0, leaf) for leaf in self._pending)]:
            for up in range(level, self._top + 1):
                occupied.add((up, i >> (up - level)))

        def value(level, i):
            if (level, i) in self._nodes:
                return self._nodes[(level, i)]
            if level == 0:
                buffer, held = self._pending[i]
                at = np.flatnonzero(held)
                return self._reduce((self._leaf_span(i)[0] + at).astype(np.uint64), buffer[at])
            parts = [value(level - 1, c) for c in (2 * i, 2 * i + 1) if (level - 1, c) in occupied]
            return parts[0] if len(parts) == 1 else parts[0] + parts[1]

        return value(self._top, 0) if occupied else None


def consume_rows(state: SketchState, rows, start_index: int) -> SketchState:
    """Consume a contiguous block of rows whose global indices start at
    ``start_index``; one row is the block ``row[None, :]``. Each global index
    must be consumed at most once: a row the state already holds raises
    IncompatibleSketchError, and a rejected block leaves the state unchanged."""
    return _consume(state, as_matrix(rows, "row block"), start_index)


def _consume(state: SketchState, rows: np.ndarray, start_index: int) -> SketchState:
    """:func:`consume_rows` on rows already validated by ``as_matrix``."""
    if rows.shape[1] != state.d:
        raise DimensionMismatchError(f"row block has {rows.shape[1]} columns, expected {state.d}")
    n_block = rows.shape[0]
    stop = start_index + n_block
    if start_index < 0 or stop > state.n_rows:
        raise DimensionMismatchError(f"rows [{start_index}, {stop}) outside [0, {state.n_rows})")
    if state.spec.family == SRHT:
        if state._rows is None:
            raise ConfigurationError("deserialized SRHT states are read-only")
        if state._held[start_index:stop].any():
            raise IncompatibleSketchError(f"rows in [{start_index}, {stop}) are already held")
        state._rows[start_index:stop] = rows
        state._held[start_index:stop] = True
        state._cache = None
    else:
        leaves = range(start_index // state._leaf, (stop - 1) // state._leaf + 1)
        for leaf in leaves:  # all checks first, so a rejected block changes nothing
            lo, hi = state._leaf_span(leaf)
            state._claim_rows(leaf, slice(max(lo, start_index) - lo, min(hi, stop) - lo))
        for leaf in leaves:
            lo, hi = state._leaf_span(leaf)
            part = rows[max(lo, start_index) - start_index : min(hi, stop) - start_index]
            if part.shape[0] == hi - lo:
                state._insert(0, leaf, state._reduce(np.arange(lo, hi, dtype=np.uint64), part))
            else:
                state._fill(leaf, max(lo, start_index) - lo, part)
    state.rows_consumed += n_block
    return state


def apply_sketch(a, spec: SketchSpec, mem_cap: int | None = None) -> SketchState:
    """Sketch an entire matrix: fresh state, all rows consumed in order."""
    a = as_matrix(a)
    state = SketchState(spec, a.shape[0], mem_cap=mem_cap)
    return _consume(state, a, 0)


def merge(s1: SketchState, s2: SketchState) -> SketchState:
    """Sum two states built from disjoint row sets of the same stream.

    Linearity of the sketch makes this the state that would have been produced
    by consuming both row sets in one pass, bit for bit: the hashed families
    hold the same tree nodes and partial leaves, SRHT the same row buffer.
    A row held by both inputs raises IncompatibleSketchError. The result is a
    copy of ``s1`` holding the union: it is not checked again against the
    process-wide memory cap (the inputs passed their own check), and SRHT's
    sign and sample draws are not repeated. Neither input is modified.
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
    out = copy.copy(s1)
    if s1.spec.family == SRHT:
        if s1._rows is None or s2._rows is None:
            raise IncompatibleSketchError("deserialized SRHT states cannot be merged")
        if (s1._held & s2._held).any():
            raise IncompatibleSketchError("both SRHT states hold some of the same rows")
        out._rows = s1._rows.copy()
        np.copyto(out._rows, s2._rows, where=s2._held[:, None])
        out._held = s1._held | s2._held
        out._cache = None
    else:
        out._nodes = dict(s1._nodes)
        out._pending = {leaf: (rows.copy(), held.copy()) for leaf, (rows, held) in s1._pending.items()}
        for (level, i), value in s2._nodes.items():
            out._claim(level, i)
            out._insert(level, i, value)
        for leaf, (rows, held) in s2._pending.items():
            out._fill(leaf, 0, rows, held)
        if s2._loaded is not None:
            out._loaded = s2._loaded if s1._loaded is None else s1._loaded + s2._loaded
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
    """Float64 elements (an index entry counted as one) :func:`_sampled_hadamard`
    holds at its peak: the block-transformed rows, one chunk of sign-flipped
    rows, the k sampled rows, the +-1 factor (plus one temporary of its size)
    of the largest possible group of samples sharing a low index, and the
    k-long index arrays that group the samples."""
    n_blocks = -(-n // block)
    chunk = max(1, _CHUNK_ELEMENTS // (block * d)) * block * d
    return n_blocks * block * d + chunk + k * d + 2 * min(k, m // block) * n_blocks + 5 * k


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

    The state is built from the spec without the constructor, so loading
    allocates nothing but the payload and checks no memory cap. A hashed
    payload is kept as one opaque term added after the tree sum: the loaded
    state equals the saved one in value, keeps consuming and merging, but no
    longer detects rows consumed twice. SRHT states lose their row buffer and
    can no longer be updated or merged.
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
    state = SketchState.__new__(SketchState)
    state._describe(spec, meta["n_rows"])
    data = load_matrix(data_path, "binary")
    if data.shape != (state.k, state.d):
        raise FormatError(
            f"{data_path}: payload shape {data.shape} does not match spec-derived ({state.k}, {state.d})"
        )
    if spec.family == SRHT:
        state._cache = data
    else:
        state._loaded = data
    state.rows_consumed = meta["rows_consumed"]
    return state
