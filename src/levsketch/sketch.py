"""Streaming subspace-embedding sketches: CountSketch, OSNAP, SRHT.

The product ``S @ A`` is accumulated without materializing ``S``. CountSketch
hashes each input row to one bucket with a random sign; OSNAP splits the
sketch rows into ``s`` blocks and hashes each input row into every block with
independent signs, scaled by ``1/sqrt(s)``; SRHT is sign-flip, Walsh-Hadamard
transform of order m (the next power of two at or above the row count, the
input being implicitly zero-padded), then uniform subsampling of k of the m
rows.

Every family defines ``S @ A`` as a fixed binary tree over globally aligned
leaves of L rows, L the power of two at or above max(k, 1024). A leaf is
reduced to a k x d node by its family's kernel:

- CountSketch and OSNAP: one plain float64 kernel; every bucket sums its
  signed rows in row-index order, then the leaf is scaled by ``1/sqrt(s)``.
- SRHT: the k sampled rows of ``H_m D``, restricted to the leaf's columns,
  times the leaf's rows, through the Sylvester split ``H_m = H_{m/B} (x) H_B``
  with B a power of two near sqrt(k) (B <= L, so a leaf holds whole B-row
  blocks). One batched GEMM applies the dense +-1 matrix ``H_B`` to every
  B-row block of ``D A``; then each sampled row ``p = p1*B + p2`` is row
  ``p1`` of ``H_{m/B}``, restricted to the leaf's blocks, times the
  block-transformed rows at low index ``p2``, one GEMM per distinct ``p2``.
  Over all leaves that is n*B*d + k*(n/B)*d work against m*log2(m)*d for a
  full transform.

A tree node (level, i) covers leaves [i*2^level, (i+1)*2^level); its value is
left + right, a child past the last leaf counting as absent. A state holds
the complete nodes it has (combined with a sibling as soon as both are
present) plus the raw rows of leaves it holds only in part, and :func:`merge`
unions two states. The tree fixes the value of any set of rows, so any row
partition, merge order or chunking of the stream gives the same bits,
whatever the data. A saved state is exactly that message: its nodes and its
rows of partly held leaves.

Hashing is seed-keyed multiply-shift for bucket choice and the low bit of a
keyed splitmix64-style mix for signs; both are cheap pairwise-independent
families, and everything derives deterministically from ``SketchSpec.seed``.
"""

import bisect
import copy
import json
import math
from dataclasses import asdict, dataclass, fields
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
from .matrix import as_matrix, load_matrix, save_matrix, write_json

COUNTSKETCH = "countsketch"
OSNAP = "osnap"
SRHT = "srht"
FAMILIES = (COUNTSKETCH, OSNAP, SRHT)

# Sizing constants in front of the theoretical row counts, fixed per family;
# eps is the one accuracy input. The OSNAP constant is 2: at 1 the row count
# is too small to hold the target distortion on the reference test regime
# (4096 x 10, eps = 0.5).
DEFAULT_SIZING = {COUNTSKETCH: 1.0, OSNAP: 2.0, SRHT: 1.0}

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64's increment
_HASH_STREAM = {COUNTSKETCH: 0x6353, OSNAP: 0x6F53}
_SRHT_SAMPLE_STREAM = 0x5348

# Target size of a leaf kernel's small temporaries (a gathered, sign-flipped
# block of rows; a block of SRHT's +-1 factor), in float64 elements
# (256 KiB): small enough to be used while still in cache.
_GATHER_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class SketchSpec:
    """Sketch family, distortion target and seed; the row count is derived.

    ``osnap_s`` is the nonzeros-per-column for OSNAP (default
    ``ceil(log2 d)``), and is refused for the other families;
    ``rows_override`` pins the row count outright.
    """

    family: str
    eps: float
    d: int
    osnap_s: int | None = None
    seed: int = 0
    rows_override: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedFamilyError(f"unknown sketch family {self.family!r}; expected one of {FAMILIES}")
        if not 0 < self.eps < 1:
            raise ConfigurationError(f"eps must be in (0, 1), got {self.eps}")
        if self.d < 1:
            raise ConfigurationError(f"d must be at least 1, got {self.d}")
        if self.osnap_s is not None and self.family != OSNAP:
            raise ConfigurationError(f"osnap_s applies to OSNAP only, not {self.family}")
        if self.osnap_s is not None and self.osnap_s < 1:
            raise ConfigurationError(f"osnap_s must be at least 1, got {self.osnap_s}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")
        if self.rows_override is not None and self.rows_override < 1:
            raise ConfigurationError(f"rows_override must be at least 1, got {self.rows_override}")

    @property
    def s(self) -> int:
        """Nonzeros per column (1 except for OSNAP)."""
        if self.family != OSNAP:
            return 1
        if self.osnap_s is not None:
            return self.osnap_s
        return max(1, math.ceil(math.log2(self.d)))

    def to_json_dict(self) -> dict:
        """The sketch as every sidecar records it: the spec's fields plus the
        derived row count ``k`` and nonzeros per column ``s``."""
        return asdict(self) | {"k": sketch_rows(self), "s": self.s}


def _next_pow2(v: int) -> int:
    p = 1
    while p < v:
        p <<= 1
    return p


def sketch_rows(spec: SketchSpec) -> int:
    """Sketch row count k from the family's theoretical sizing rule, with c
    the family's constant in ``DEFAULT_SIZING``.

    CountSketch: ``ceil(c * (d/eps)^2)``. OSNAP: ``ceil(c * d/eps^2 * ln d)``.
    SRHT: the smallest power of two at least ``c * d/eps^2 * ln d``.
    ``rows_override`` wins when set.
    """
    if spec.rows_override is not None:
        return spec.rows_override
    c = DEFAULT_SIZING[spec.family]
    if spec.family == COUNTSKETCH:
        return max(1, math.ceil(c * (spec.d / spec.eps) ** 2))
    target = c * (spec.d / spec.eps**2) * math.log(spec.d)
    if spec.family == OSNAP:
        return max(spec.s, math.ceil(target))
    return _next_pow2(max(1, math.ceil(target)))


# ---------------------------------------------------------------------------
# Hashing


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
# Block tree

# Floor of the leaf height, so that small sketches still reduce rows in blocks.
_MIN_LEAF_ROWS = 1024


def _leaf_rows(k: int) -> int:
    """Leaf height L of the block tree: the power of two at or above
    max(k, 1024), so a leaf's k x d node costs no more than its rows."""
    return _next_pow2(max(k, _MIN_LEAF_ROWS))


def _tree_state_elements(spec: SketchSpec, n: int) -> int:
    """Float64 elements (an index entry counted as one) a state over n rows
    holds at its peak while consuming a contiguous row range: the canonical
    nodes held (at most two per level below the root), two more k x d arrays
    (a leaf kernel's result and its working copy, or a combination's inputs
    and sum), a partial-leaf row buffer at each end of the range, and the
    leaf kernel's working set. For CountSketch and OSNAP that is one gathered
    chunk and the index arrays of the bucket sort; for SRHT, the m signs and
    k sample indices, the block-transformed rows of a leaf and one chunk of
    its sign-flipped rows, ``H_B``, one block of the +-1 factor with two
    temporaries of its size, and k-long index arrays."""
    k, d = sketch_rows(spec), spec.d
    leaf = _leaf_rows(k)
    n_leaves = -(-n // leaf)
    height = min(leaf, n)
    tree = (2 * (n_leaves - 1).bit_length() + 2) * k * d + min(2, n_leaves) * height * d
    if spec.family == SRHT:
        m = _next_pow2(n)
        block = _srht_block_rows(k, m)
        n_blocks = -(-height // block)
        factor_rows = min(k, max(_GATHER_ELEMENTS // n_blocks, m // block))
        flipped = max(block * d, _GATHER_ELEMENTS)
        return tree + m + 6 * k + n_blocks * block * d + flipped + block * block + 3 * factor_rows * n_blocks
    return tree + max(d, _GATHER_ELEMENTS) + 10 * spec.s * height + 4 * k


class SketchState:
    """Accumulator for ``S @ A`` over a stream of globally indexed rows.

    Single-writer: parallelism is one state per row partition plus
    :func:`merge`, never concurrent updates to one state.
    """

    def __init__(self, spec: SketchSpec, n_rows: int):
        if n_rows < 1:
            raise ConfigurationError(f"n_rows must be at least 1, got {n_rows}")
        self.spec = spec
        self.d = spec.d
        self.k = sketch_rows(spec)
        self.n_rows = n_rows
        self._leaf = _leaf_rows(self.k)
        self._n_leaves = -(-n_rows // self._leaf)
        self._top = (self._n_leaves - 1).bit_length()
        self._nodes = {}  # (level, i) -> k x d sum of the rows under the node
        self._pending = {}  # leaf -> (its rows, zero where absent; mask of rows present)
        ensure_capacity(8 * _tree_state_elements(spec, n_rows), "sketch tree and leaf kernel")
        if spec.family == SRHT:
            m = _next_pow2(n_rows)
            if self.k > m:
                raise ConfigurationError(f"SRHT needs k <= padded row count: k={self.k}, padded rows={m}")
            self._block = _srht_block_rows(self.k, m)
            self._scale = 1.0 / math.sqrt(self.k)
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence([_SRHT_SAMPLE_STREAM, spec.seed]))
            )
            self._signs = (2.0 * rng.integers(0, 2, m) - 1.0).astype(np.float64)
            sample = np.sort(rng.choice(m, size=self.k, replace=False))
            # grouped by low index, so that each group is one contiguous GEMM output
            self._sample = sample[np.argsort(sample & (self._block - 1), kind="stable")]
            return
        s = spec.s
        if self.k < s:
            raise ConfigurationError(f"sketch rows k={self.k} below nonzeros per column s={s}")
        base, rem = divmod(self.k, s)
        self._block_sizes = [base + (1 if j < rem else 0) for j in range(s)]
        self._block_offsets = np.concatenate([[0], np.cumsum(self._block_sizes[:-1])]).astype(np.int64)
        # splitmix64 from state x = seed ^ tag*G: key i (i = 1..3s) is _mix64(x + i*G)
        x = np.uint64((spec.seed ^ _HASH_STREAM[spec.family] * _GOLDEN) & _M64)
        keys = _mix64(x + np.arange(1, 3 * s + 1, dtype=np.uint64) * np.uint64(_GOLDEN)).tolist()
        self._hash_a = [key | 1 for key in keys[:s]]
        self._hash_b, self._sign_keys = keys[s : 2 * s], keys[2 * s :]
        self._scale = 1.0 / math.sqrt(s)

    @property
    def _partial_rows(self) -> int:
        """Rows held of partly held leaves."""
        return sum(int(held.sum()) for _, held in self._pending.values())

    @property
    def rows_consumed(self) -> int:
        """Rows this state holds: those under its complete nodes plus its rows
        of partly held leaves."""
        n, leaf = self.n_rows, self._leaf
        spans = sum(min(n, ((i + 1) << level) * leaf) - (i << level) * leaf for level, i in self._nodes)
        return spans + self._partial_rows

    @property
    def message_bytes(self) -> int:
        """Bytes this state ships to a coordinator as float64, and the data
        bytes :func:`save_state` writes: its canonical nodes and its rows of
        partly held leaves."""
        return 8 * (len(self._nodes) * self.k + self._partial_rows) * self.d

    @property
    def data(self) -> np.ndarray:
        """The accumulated ``S @ A`` (k x d), materialized as float64. It is
        read-only and may be the state's own node."""
        total = self._fold()
        if total is None:
            total = np.zeros((self.k, self.d))
        view = total.view()
        view.flags.writeable = False
        return view

    def _leaf_span(self, leaf: int) -> tuple[int, int]:
        lo = leaf * self._leaf
        return lo, min(lo + self._leaf, self.n_rows)

    def _reduce(self, leaf: int, rows: np.ndarray) -> np.ndarray:
        """The k x d node of ``leaf`` from all its rows (zero where absent), by
        the family's leaf kernel."""
        if self.spec.family == SRHT:
            lo = leaf * self._leaf
            signs = self._signs[lo : lo + rows.shape[0]]
            return _sampled_hadamard(rows, signs, self._sample, self._block, lo, self._scale)
        return self._bucket_sums(leaf, rows)

    def _bucket_sums(self, leaf: int, rows: np.ndarray) -> np.ndarray:
        """CountSketch and OSNAP kernel: each bucket sums its signed rows in
        index order, then the result is scaled by 1/sqrt(s).

        The s hash copies go through one stable sort by bucket, which gives
        every contribution its depth (its rank within its bucket). Buckets are
        laid out by decreasing count, so the buckets still live at depth t are
        a prefix of the accumulator and each depth is one gathered, sign-
        flipped block added to that prefix, in chunks of about
        ``_GATHER_ELEMENTS``.
        """
        m, d, k = rows.shape[0], self.d, self.k
        lo = leaf * self._leaf
        idx = np.arange(lo, lo + m, dtype=np.uint64)
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
        node stands for its parent. The sums go into ``value`` in place, so
        the caller hands over an array it owns (float addition commutes, so
        left + right has the same bits either way)."""
        while level < self._top:
            sibling = i ^ 1
            if sibling << level < self._n_leaves:
                other = self._nodes.pop((level, sibling), None)
                if other is None:
                    break
                value += other
            level, i = level + 1, i >> 1
        self._nodes[(level, i)] = value

    def _claim_rows(self, leaf: int, window: slice) -> None:
        """Raise if a row of ``leaf`` in ``window`` is already held."""
        if leaf not in self._pending:
            self._claim(0, leaf)
        elif self._pending[leaf][1][window].any():
            raise IncompatibleSketchError(f"rows of leaf {leaf} are already held")

    def _fill(self, leaf: int, offset: int, rows: np.ndarray) -> None:
        """Place rows of a leaf at row ``offset`` within it; reduce the leaf
        once it is whole."""
        window = slice(offset, offset + rows.shape[0])
        self._claim_rows(leaf, window)
        if leaf not in self._pending:
            lo, hi = self._leaf_span(leaf)
            self._pending[leaf] = (np.zeros((hi - lo, self.d)), np.zeros(hi - lo, dtype=bool))
        buffer, held = self._pending[leaf]
        buffer[window] = rows
        held[window] = True
        if held.all():
            del self._pending[leaf]
            self._insert(0, leaf, self._reduce(leaf, buffer))

    def _fold(self) -> np.ndarray | None:
        """Tree sum of the held nodes and of each partly held leaf reduced with
        its absent rows as zeros, paired as :meth:`_insert` pairs; None if empty."""
        nodes = dict(self._nodes)
        for leaf, (rows, _) in self._pending.items():
            nodes[(0, leaf)] = self._reduce(leaf, rows)
        for level in range(self._top):
            for i in [i for lv, i in nodes if lv == level]:
                if (level, i) in nodes:  # else already added to its sibling
                    value, other = nodes.pop((level, i)), nodes.pop((level, i ^ 1), None)
                    nodes[(level + 1, i >> 1)] = value if other is None else value + other
        return nodes.get((self._top, 0))

    def _message(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]], np.ndarray]:
        """What this state ships: its node keys ``(level, i)`` in key order,
        the ``[lo, hi)`` ranges of its held rows of partly held leaves in row
        order, and a fresh payload of the nodes (k rows each) followed by
        those rows."""
        keys = sorted(self._nodes)
        parts, ranges = [self._nodes[key] for key in keys], []
        for leaf in sorted(self._pending):
            rows, held = self._pending[leaf]
            edges = np.flatnonzero(np.diff(held, prepend=False, append=False)).reshape(-1, 2).tolist()
            ranges += [(leaf * self._leaf + a, leaf * self._leaf + b) for a, b in edges]
            parts += [rows[a:b] for a, b in edges]
        return keys, ranges, np.concatenate(parts) if parts else np.empty((0, self.d))

    def _absorb(self, keys, ranges, payload: np.ndarray) -> None:
        """Add a message (see :meth:`_message`): claim and insert each node,
        then fill each row range. The payload is taken over: its nodes stay
        views of it unless it also carries rows, which no node may keep alive."""
        for j, (level, i) in enumerate(keys):
            self._claim(level, i)
            node = payload[j * self.k : (j + 1) * self.k]
            self._insert(level, i, node.copy() if ranges else node)
        at = len(keys) * self.k
        for lo, hi in ranges:
            self._fill(lo // self._leaf, lo % self._leaf, payload[at : at + hi - lo])
            at += hi - lo


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
    stop = start_index + rows.shape[0]
    if start_index < 0 or stop > state.n_rows:
        raise DimensionMismatchError(f"rows [{start_index}, {stop}) outside [0, {state.n_rows})")
    leaves = range(start_index // state._leaf, (stop - 1) // state._leaf + 1)
    for leaf in leaves:  # all checks first, so a rejected block changes nothing
        lo, hi = state._leaf_span(leaf)
        state._claim_rows(leaf, slice(max(lo, start_index) - lo, min(hi, stop) - lo))
    for leaf in leaves:
        lo, hi = state._leaf_span(leaf)
        part = rows[max(lo, start_index) - start_index : min(hi, stop) - start_index]
        if part.shape[0] == hi - lo:
            state._insert(0, leaf, state._reduce(leaf, part))
        else:
            state._fill(leaf, max(lo, start_index) - lo, part)
    return state


def apply_sketch(a, spec: SketchSpec) -> SketchState:
    """Sketch an entire matrix: fresh state, all rows consumed in order."""
    a = as_matrix(a)
    return _consume(SketchState(spec, a.shape[0]), a, 0)


def merge(s1: SketchState, s2: SketchState) -> SketchState:
    """Sum two states built from disjoint row sets of the same stream.

    The result is a copy of ``s1`` that absorbs the message of ``s2`` (the
    nodes and held row ranges :func:`save_state` writes) as :func:`load_state`
    does. Linearity of the sketch makes it the state that would have been
    produced by consuming both row sets in one pass, bit for bit. A row held
    by both inputs raises IncompatibleSketchError. It runs no memory-cap check
    (the inputs passed theirs), and SRHT's sign and sample draws are not
    repeated. Neither input is modified.
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
    out._nodes = dict(s1._nodes)
    out._pending = {leaf: (rows.copy(), held.copy()) for leaf, (rows, held) in s1._pending.items()}
    out._absorb(*s2._message())
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


def _sampled_hadamard(
    x: np.ndarray, signs: np.ndarray, sample: np.ndarray, block: int, start: int, scale: float
) -> np.ndarray:
    """``scale`` times rows ``sample`` of ``H_m @ diag(signs) @ X``, where X is
    zero but for the rows ``x`` from row ``start`` on (a multiple of
    B = ``block``) and ``signs`` are the signs of those rows: the SRHT leaf
    kernel. Computed through ``H_m = H_{m/B} (x) H_B``, with one GEMM per run
    of samples that share a low index."""
    h, d = x.shape
    n_blocks = -(-h // block)
    local = np.arange(block)
    # Step 1: H_B times every B-row block of D x, a chunk of about
    # _GATHER_ELEMENTS at a time, written block-transposed so that the rows
    # at one low index p2 form one contiguous operand. Only the last, partial
    # block is zero-filled.
    h_block = _hadamard(local, local)
    transformed = np.empty((block, n_blocks, d))
    per_chunk = max(1, _GATHER_ELEMENTS // (block * d))
    flipped = np.empty((per_chunk * block, d))
    for b0 in range(0, n_blocks, per_chunk):
        b1 = min(b0 + per_chunk, n_blocks)
        r0, r1 = b0 * block, min(b1 * block, h)
        np.multiply(signs[r0:r1, None], x[r0:r1], out=flipped[: r1 - r0])
        flipped[r1 - r0 : (b1 - b0) * block] = 0.0
        chunk = flipped[: (b1 - b0) * block].reshape(b1 - b0, block, d)
        np.matmul(h_block, chunk, out=transformed[:, b0:b1].transpose(1, 0, 2))
    # Step 2: sampled row p = p1*B + p2 is H_{m/B}[p1, blocks] times the
    # transformed rows at p2. The scaled +-1 factor is built for a run of
    # groups at a time, about _GATHER_ELEMENTS of it.
    low = sample & (block - 1)
    high = sample >> (block.bit_length() - 1)
    blocks = np.arange(start // block, start // block + n_blocks)
    cuts = [0, *(np.flatnonzero(np.diff(low)) + 1).tolist(), sample.size]
    per_factor = max(1, _GATHER_ELEMENTS // n_blocks)
    out = np.empty((sample.size, d))
    g = 0
    while g < len(cuts) - 1:
        end = max(g + 1, bisect.bisect_right(cuts, cuts[g] + per_factor) - 1)
        factor = _hadamard(high[cuts[g] : cuts[end]], blocks)
        factor *= scale
        for r0, r1 in zip(cuts[g:end], cuts[g + 1 : end + 1]):
            np.matmul(factor[r0 - cuts[g] : r1 - cuts[g]], transformed[low[r0]], out=out[r0:r1])
        g = end
    return out


# ---------------------------------------------------------------------------
# Serialization: matrix binary payload + JSON sidecar


def save_state(state: SketchState, data_path, meta_path=None) -> None:
    """Write the state's message: a matrix binary payload of its canonical
    nodes (k rows each, in key order) followed by its held rows of partly
    held leaves (in row order), ``message_bytes`` bytes of data, plus a JSON
    sidecar of the sketch record (:meth:`SketchSpec.to_json_dict`), the row
    count, the node keys ``[level, i]`` and the held row ranges ``[lo, hi)``.
    A state holding no rows has no message to save."""
    data_path = Path(data_path)
    meta_path = Path(meta_path) if meta_path is not None else data_path.with_suffix(".json")
    keys, ranges, payload = state._message()
    if not keys and not ranges:
        raise ConfigurationError("an empty sketch state has no message to save")
    save_matrix(payload, data_path, "binary")
    write_json(meta_path, state.spec.to_json_dict() | {"n_rows": state.n_rows, "nodes": keys, "rows": ranges})


def _integer_pairs(value, what: str) -> list[tuple[int, int]]:
    if not isinstance(value, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(type(v) is int for v in p) for p in value
    ):
        raise FormatError(f"{what} must be a list of integer pairs")
    return [tuple(p) for p in value]


def load_state(data_path, meta_path=None) -> SketchState:
    """Rebuild a state from :func:`save_state` output.

    The sidecar is checked as outside input: its ``k`` and ``s`` are the
    spec's, every node key lies inside the tree, no two keys or row ranges
    overlap, every range lies inside one leaf, and the payload holds k rows
    per node plus the held rows; a violation raises FormatError. The result
    is an ordinary state, built by the constructor (and checked against the
    memory cap): it consumes, merges and rejects rows it already holds like
    the saved one, bit for bit.
    """
    data_path = Path(data_path)
    meta_path = Path(meta_path) if meta_path is not None else data_path.with_suffix(".json")
    try:
        with open(meta_path) as f:
            meta = json.load(f)
        spec = SketchSpec(**{field.name: meta[field.name] for field in fields(SketchSpec)})
        k, s = sketch_rows(spec), spec.s
        if (meta["k"], meta["s"]) != (k, s):
            raise FormatError(f"{meta_path}: k={meta['k']}, s={meta['s']}, but its spec gives k={k}, s={s}")
        state = SketchState(spec, meta["n_rows"])
        keys = _integer_pairs(meta["nodes"], f"{meta_path}: nodes")
        ranges = _integer_pairs(meta["rows"], f"{meta_path}: rows")
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{meta_path}: malformed sketch sidecar: {exc!r}") from None
    n, leaf_rows = state.n_rows, state._leaf
    for level, i in keys:
        if not (0 <= level <= state._top and 0 <= i and i << level < state._n_leaves):
            raise FormatError(f"{meta_path}: node ({level}, {i}) lies outside the tree")
    for lo, hi in ranges:
        if not (0 <= lo < hi <= n and lo // leaf_rows == (hi - 1) // leaf_rows):
            raise FormatError(f"{meta_path}: row range [{lo}, {hi}) does not lie inside one leaf")
    data = load_matrix(data_path, "binary")
    expected = (len(keys) * state.k + sum(hi - lo for lo, hi in ranges), state.d)
    if data.shape != expected:
        raise FormatError(f"{data_path}: payload shape {data.shape} does not match the sidecar's {expected}")
    try:
        state._absorb(keys, ranges, data)
    except IncompatibleSketchError as exc:
        raise FormatError(f"{meta_path}: overlapping nodes or row ranges: {exc}") from None
    return state
