"""Streaming subspace-embedding sketches: CountSketch, OSNAP, SRHT.

The product ``S @ A`` is accumulated without materializing ``S``. CountSketch
hashes each input row to one bucket with a random sign; OSNAP splits the
sketch rows into ``s`` blocks and hashes each input row into every block with
independent signs, scaled by ``1/sqrt(s)``; SRHT is sign-flip, Walsh-Hadamard
transform of order m (the next power of two at or above the row count, the
input being implicitly zero-padded), then uniform subsampling of k of the m
rows.

Every family defines ``S @ A`` as a fixed binary tree over globally aligned
leaves of L rows: for CountSketch and OSNAP, L is the power of two at or
above max(4k, 1024), so a leaf's k x d node and its tree addition cost at
most a quarter of its rows; for SRHT, whose leaf transform work grows with
L, the power of two at or above max(k, 1024). A leaf is reduced to a k x d
node by its family's kernel:

- CountSketch and OSNAP: one sparse +-1 product (a k x L CSC matrix of the
  hashed signs times the leaf's rows); every bucket sums its signed rows in
  row-index order from zero, then the leaf is scaled by ``1/sqrt(s)``.
- SRHT: the k sampled rows of ``H_m D``, on the leaf's columns, times its
  rows. ``H_m[p, c] = (-1)^popcount(p & c)``, so on columns leaf*L + j,
  j < L, row p is row ``p mod L`` of ``H_L``, negated when
  ``popcount((p >> log2 L) & leaf)`` is odd: the kernel gathers them from
  the leaf's full transform, made through three Sylvester factors
  ``H_L = H_c (x) H_b (x) H_a``, one GEMM each, the signs folded into the
  first: a = 8, and b and c powers of two that split L/a evenly (8 x 16 x 16
  at L = 2048, 8 x 32 x 32 at L = 8192). That is n*(a + b + c)*d work in
  all, n rounded up to whole leaves (a short last leaf is zero-padded to L
  rows), against n*k*d for the sampled rows taken one by one and
  m*log2(m)*d for a butterfly.

A tree node (level, i) covers leaves [i*2^level, (i+1)*2^level); its value is
left + right, a child past the last leaf counting as absent. A state holds
the complete nodes it has (combined with a sibling as soon as both are
present) plus the raw rows of leaves it holds only in part, kept as runs of
consecutive rows. Rows enter a state one way, consumed, merged or loaded:
their range is claimed whole, then each whole leaf is reduced to a node and a
partly covered leaf's rows wait as a run until the leaf's runs cover it, when
the leaf is assembled once and reduced. No held node or run is written after
it is made, so :func:`merge` builds a state that shares both inputs' nodes
and runs and absorbs one input's message (its nodes and its rows of partly
held leaves, which is also what a saved state holds). The tree fixes the value
of any set of rows, so any row partition, merge order or chunking of the
stream gives the same bits, whatever the data.

Every draw derives from ``SketchSpec.seed``, and none is kept per row.
CountSketch and OSNAP hash the row index: keyed multiply-shift picks the
bucket, a keyed splitmix64 bit the sign. SRHT's sign of row r is draw r of one
Philox stream, drawn when r's leaf is reduced; the sample follows the m signs.
"""

import bisect
import copy
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
import scipy.sparse

from .config import _integer, ensure_capacity
from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    FormatError,
    IncompatibleSketchError,
    UnsupportedFamilyError,
)
from .matrix import as_matrix, load_matrix, philox, save_matrix, write_json

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
        if self.osnap_s is not None and self.family != OSNAP:
            raise ConfigurationError(f"osnap_s applies to OSNAP only, not {self.family}")
        for name, least in (("d", 1), ("osnap_s", 1), ("seed", 0), ("rows_override", 1)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _integer(getattr(self, name), name, least))

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
        derived row count ``k``, nonzeros per column ``s`` and leaf height
        ``leaf_rows`` of its block tree."""
        return asdict(self) | {"k": sketch_rows(self), "s": self.s, "leaf_rows": _leaf_rows(self)}


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


def _leaf_rows(spec: SketchSpec) -> int:
    """Leaf height L of the block tree. CountSketch and OSNAP: the power of
    two at or above max(4k, 1024), so a leaf's fresh k x d node and its tree
    addition, which together cost about as much as k rows, cost at most a
    quarter of its rows. SRHT: the power of two at or above max(k, 1024);
    its transform work per row grows with L, and taller leaves measured no
    faster."""
    k = sketch_rows(spec)
    return _next_pow2(max(k if spec.family == SRHT else 4 * k, _MIN_LEAF_ROWS))


def _leaf_pieces(spec: SketchSpec, lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` cut at leaf boundaries into at most ``max(parts, 1)``
    ranges holding about equal numbers of its leaves, to be sketched at once
    and merged in order, which gives the range's state bit for bit. Only
    OSNAP is cut: its leaf kernel (scipy's sparse product, on one thread
    without the GIL) does s > 1 multiply-adds per entry. At s = 1
    (CountSketch) the cut measured neutral, by medians over alternating
    process pairs of 0.236 -> 0.237 s at 2^16 x 256 and 0.083-0.110 ->
    0.095-0.111 s at 2^18 x 64; SRHT's GEMMs already use every BLAS thread."""
    leaf, parts = _leaf_rows(spec), parts if spec.s > 1 else 1
    first, count = lo // leaf, (hi - 1) // leaf - lo // leaf + 1
    inner = sorted({(first + count * i // parts) * leaf for i in range(1, parts)} - {first * leaf})
    bounds = [lo, *inner, hi]
    return list(zip(bounds[:-1], bounds[1:]))


def _tree_state_elements(spec: SketchSpec, n: int) -> int:
    """Float64 elements (an index entry counted as one) a state over n rows
    holds at its peak while consuming a contiguous row range: the canonical
    nodes held (at most two per level below the root), two more k x d arrays
    (a leaf kernel's result, or a combination's inputs and sum), the runs of
    a partly held leaf at each end of the range, one leaf assembled from its
    runs (once they cover it, or for :meth:`SketchState._fold`), and the
    leaf kernel's working set. For CountSketch and OSNAP that is, per leaf
    row, its index, its column pointer and scipy's int32 copy of it, and,
    per hash copy and row, its bucket id, sign and scipy's int32 copy of the
    bucket id (the hashing's temporaries, a few leaf-long arrays, fit in the
    same figure).
    For SRHT, the sample draw (``choice`` shuffles all m indices once k
    passes about m/50), its sort and the k-long gather and high-bit arrays;
    the factors ``H_a``, ``H_b`` and ``H_c``; a leaf's signs (zero-padded
    to L) and their draw, and its copy of ``H_a`` signed for each a-row
    block (a per row); the kernel's two L x d buffers, which live only while
    that leaf is reduced; the k-long mask of the rows it negates; and
    numpy's iterator buffers for a broadcast operation (``np.getbufsize()``
    elements for each of three operands). The node the kernel gathers is the
    first of the two k x d arrays above; it is made beside one of the
    buffers only."""
    k, d = sketch_rows(spec), spec.d
    leaf = _leaf_rows(spec)
    n_leaves = -(-n // leaf)
    height = min(leaf, n)
    tree = (2 * (n_leaves - 1).bit_length() + 2) * k * d + (min(2, n_leaves) + 1) * height * d
    if spec.family == SRHT:
        (a, b, c), m = _srht_factors(leaf), _next_pow2(n)
        draw = min(m, 50 * k) + 4 * k
        kernel = a * a + b * b + c * c + (3 + a) * leaf + 2 * leaf * d + 2 * k
        return tree + draw + kernel + 3 * np.getbufsize()
    return tree + (3 * spec.s + 4) * height


class _Runs:
    """The rows a state holds of one partly held leaf: runs of consecutive
    rows, sorted by their first row and disjoint. No run is written after it
    is made, so states may share them."""

    __slots__ = ("starts", "rows", "held")

    def __init__(self, starts=(), rows=(), held=0):
        self.starts, self.rows, self.held = list(starts), list(rows), held

    def copy(self) -> "_Runs":
        """A new list of the same runs, which it shares."""
        return _Runs(self.starts, self.rows, self.held)

    def overlaps(self, lo: int, hi: int) -> bool:
        """Whether a run holds a row in ``[lo, hi)``: of the runs that start
        below ``hi``, the last one ends last."""
        i = bisect.bisect_left(self.starts, hi)
        return i > 0 and self.starts[i - 1] + len(self.rows[i - 1]) > lo

    def add(self, start: int, rows: np.ndarray) -> None:
        i = bisect.bisect(self.starts, start)
        self.starts.insert(i, start)
        self.rows.insert(i, rows)
        self.held += rows.shape[0]

    def assemble(self, lo: int, height: int) -> np.ndarray:
        """The leaf's ``height`` rows from row ``lo`` on, zero where no run holds
        them, in a new array."""
        out = np.zeros((height, self.rows[0].shape[1]))
        for start, rows in zip(self.starts, self.rows):
            out[start - lo : start - lo + rows.shape[0]] = rows
        return out


class SketchState:
    """Accumulator for ``S @ A`` over a stream of globally indexed rows.

    Single-writer: parallelism is one state per row partition plus
    :func:`merge`, never concurrent updates to one state.
    """

    def __init__(self, spec: SketchSpec, n_rows: int):
        self.spec = spec
        self.d = spec.d
        self.k = sketch_rows(spec)
        self.n_rows = n_rows = _integer(n_rows, "n_rows", 1)
        self._leaf = _leaf_rows(spec)
        self._n_leaves = -(-n_rows // self._leaf)
        self._top = (self._n_leaves - 1).bit_length()
        self._nodes = {}  # (level, i) -> k x d sum of the rows under the node
        self._pending = {}  # leaf -> its _Runs
        m = _next_pow2(n_rows)
        if spec.family == SRHT and self.k > m:
            raise ConfigurationError(f"SRHT needs k <= padded row count: k={self.k}, padded rows={m}")
        ensure_capacity(8 * _tree_state_elements(spec, n_rows), "sketch tree and leaf kernel")
        if spec.family == SRHT:
            rng = _srht_draws(spec.seed, m - m % 8)
            rng.integers(0, 2, m % 8)  # the last signs, where m < 8 ends mid counter step
            sample = np.sort(rng.choice(m, size=self.k, replace=False))
            self._transform = _leaf_transform(sample, self._leaf, 1.0 / math.sqrt(self.k))
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
        return sum(runs.held for runs in self._pending.values())

    @property
    def rows_consumed(self) -> int:
        """Rows this state holds: those under its complete nodes plus its rows
        of partly held leaves."""
        spans = (self._span(level, i) for level, i in self._nodes)
        return sum(hi - lo for lo, hi in spans) + self._partial_rows

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

    def _span(self, level: int, i: int) -> tuple[int, int]:
        """Rows ``[lo, hi)`` under tree node (level, i)."""
        lo = (i << level) * self._leaf
        return lo, min(lo + (self._leaf << level), self.n_rows)

    def _reduce(self, leaf: int, rows: np.ndarray) -> np.ndarray:
        """The k x d node of ``leaf`` from all its rows (zero where absent), by
        the family's leaf kernel; SRHT's two buffers (see
        :func:`_sampled_hadamard`) live only while the leaf is reduced."""
        if self.spec.family == SRHT:
            signs = 2.0 * _srht_draws(self.spec.seed, leaf * self._leaf).integers(0, 2, rows.shape[0]) - 1.0
            return _sampled_hadamard(rows, signs, leaf, self._transform)
        return self._bucket_sums(leaf, rows)

    def _bucket_sums(self, leaf: int, rows: np.ndarray) -> np.ndarray:
        """CountSketch and OSNAP kernel: one sparse +-1 product, then the
        scale 1/sqrt(s).

        The leaf's m rows hash to an m x s layout of (bucket, sign) pairs,
        which is already the compressed-column form of the k x m matrix:
        column r holds row r's s pairs, in block order. scipy's
        ``csc_matvecs`` starts every output row at zero and walks the columns
        in order, adding ``sign * row`` into each of the row's buckets, so
        every bucket sums its signed rows in row order.
        """
        m, s = rows.shape[0], self.spec.s
        lo = leaf * self._leaf
        idx = np.arange(lo, lo + m, dtype=np.uint64)
        buckets = np.empty((m, s), dtype=np.int64)
        signs = np.empty((m, s))
        for j in range(s):
            buckets[:, j] = self._block_offsets[j] + _bucket_hash(
                idx, self._hash_a[j], self._hash_b[j], self._block_sizes[j]
            )
            signs[:, j] = _sign_hash(idx, self._sign_keys[j])
        indptr = np.arange(0, s * m + 1, s)
        acc = scipy.sparse.csc_array((signs.ravel(), buckets.ravel(), indptr), shape=(self.k, m)) @ rows
        if s > 1:
            acc *= self._scale
        return acc

    def _claim(self, lo: int, hi: int) -> None:
        """Raise if a node or a partly held leaf of this state holds a row in ``[lo, hi)``."""
        for level, i in self._nodes:
            a, b = self._span(level, i)
            if a < hi and lo < b:
                raise IncompatibleSketchError(f"rows under tree node ({level}, {i}) are already held")
        for leaf, runs in self._pending.items():
            if runs.overlaps(lo, hi):
                raise IncompatibleSketchError(f"rows of leaf {leaf} are already held")

    def _insert(self, level: int, i: int, value: np.ndarray, shared: bool = False) -> None:
        """Add a complete node, combining it with its sibling for as long as
        the sibling is held; a sibling past the last leaf is absent, so the
        node stands for its parent. A held node is only read. The sums go into
        ``value`` in place unless it is ``shared`` (another state's node):
        then the first sum is a new array (float addition commutes, so left +
        right has the same bits either way)."""
        while level < self._top:
            sibling = i ^ 1
            if sibling << level < self._n_leaves:
                other = self._nodes.pop((level, sibling), None)
                if other is None:
                    break
                if shared:
                    value, shared = value + other, False
                else:
                    value += other
            level, i = level + 1, i >> 1
        self._nodes[(level, i)] = value

    def _add(self, start: int, rows: np.ndarray, shared: bool = False) -> None:
        """Take rows ``[start, stop)``, stop = ``start + len(rows)``: claim
        them all first, so a rejected range changes nothing, then reduce and
        insert each whole leaf, and keep the rows of a partly covered leaf as
        a run (a copy, unless ``rows`` is ``shared``, another state's run,
        which is never written), assembling and reducing the leaf once its
        runs cover it."""
        stop = start + rows.shape[0]
        self._claim(start, stop)
        for leaf in range(start // self._leaf, (stop - 1) // self._leaf + 1):
            lo, hi = self._span(0, leaf)
            a, b = max(lo, start), min(hi, stop)
            part = rows[a - start : b - start]
            if b - a < hi - lo:
                runs = self._pending.setdefault(leaf, _Runs())
                runs.add(a, part if shared else part.copy())
                if runs.held < hi - lo:
                    continue
                part = self._pending.pop(leaf).assemble(lo, hi - lo)
            self._insert(0, leaf, self._reduce(leaf, part))

    def _fold(self) -> np.ndarray | None:
        """Tree sum of the held nodes and of each partly held leaf reduced with
        its absent rows as zeros, paired as :meth:`_insert` pairs; None if empty.
        The lowest node is summed with its sibling first: nothing lies below
        it, so a sibling not held has no rows, and the node stands for its
        parent."""
        nodes = dict(self._nodes)
        for leaf, runs in self._pending.items():
            lo, hi = self._span(0, leaf)
            nodes[(0, leaf)] = self._reduce(leaf, runs.assemble(lo, hi - lo))
        while len(nodes) > 1:
            level, i = min(nodes)
            value, other = nodes.pop((level, i)), nodes.pop((level, i ^ 1), None)
            nodes[(level + 1, i >> 1)] = value if other is None else value + other
        return next(iter(nodes.values()), None)

    def _runs(self) -> list[tuple[int, np.ndarray]]:
        """Its runs ``(first row, rows)`` of partly held leaves, in row order."""
        return [run for _, runs in sorted(self._pending.items()) for run in zip(runs.starts, runs.rows)]

    def _message(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]], np.ndarray]:
        """What this state ships: its node keys ``(level, i)`` in key order,
        the ``[lo, hi)`` ranges of its held rows of partly held leaves in row
        order (adjacent runs of one leaf joined), and a fresh payload of the
        nodes (k rows each) followed by those rows."""
        keys = sorted(self._nodes)
        parts, ranges = [self._nodes[key] for key in keys], []
        for start, rows in self._runs():
            stop = start + rows.shape[0]
            if ranges and ranges[-1][1] == start and ranges[-1][0] // self._leaf == start // self._leaf:
                ranges[-1] = (ranges[-1][0], stop)
            else:
                ranges.append((start, stop))
            parts.append(rows)
        return keys, ranges, np.concatenate(parts) if parts else np.empty((0, self.d))

    def _absorb(self, nodes, runs) -> None:
        """Add another state's message: claim the rows under each node
        ``((level, i), value)`` and insert it, then pass each run ``(first row,
        rows)`` to :meth:`_add`. The arrays are shared, never written (see
        :meth:`_insert` and :meth:`_add`)."""
        for (level, i), node in nodes:
            self._claim(*self._span(level, i))
            self._insert(level, i, node, shared=True)
        for start, rows in runs:
            self._add(start, rows, shared=True)


def consume_rows(state: SketchState, rows, start_index: int) -> SketchState:
    """Consume a contiguous block of rows whose global indices start at the
    integer ``start_index``; one row is the block ``row[None, :]``. Each global
    index must be consumed at most once: the block is claimed whole before any
    row is placed, so a row the state already holds raises
    IncompatibleSketchError and leaves the state unchanged."""
    return _consume(state, as_matrix(rows, "row block"), _integer(start_index, "start_index"))


def _consume(state: SketchState, rows: np.ndarray, start_index: int) -> SketchState:
    """:func:`consume_rows` on rows already validated by ``as_matrix``."""
    if rows.shape[1] != state.d:
        raise DimensionMismatchError(f"row block has {rows.shape[1]} columns, expected {state.d}")
    stop = start_index + rows.shape[0]
    if start_index < 0 or stop > state.n_rows:
        raise DimensionMismatchError(f"rows [{start_index}, {stop}) outside [0, {state.n_rows})")
    state._add(start_index, rows)
    return state


def apply_sketch(a, spec: SketchSpec) -> SketchState:
    """Sketch an entire matrix: fresh state, all rows consumed in order."""
    a = as_matrix(a)
    return _consume(SketchState(spec, a.shape[0]), a, 0)


def merge(s1: SketchState, s2: SketchState) -> SketchState:
    """Sum two states built from disjoint row sets of the same stream.

    The result holds ``s1``'s nodes and runs of rows and absorbs the message
    of ``s2`` (the nodes and held row runs :func:`save_state` writes) as
    :func:`load_state` does, sharing both inputs' arrays, which no state
    writes, rather than copying them. Linearity of the sketch makes it the
    state that would have been produced by consuming both row sets in one
    pass, bit for bit. A row held by both inputs raises
    IncompatibleSketchError. It runs no memory-cap check (the inputs passed
    theirs). Neither input is modified.
    """
    if s1.spec != s2.spec or s1.n_rows != s2.n_rows:
        raise IncompatibleSketchError(
            f"cannot merge sketches with different specs: {s1.spec} / {s2.spec} "
            f"over {s1.n_rows} / {s2.n_rows} rows"
        )
    out = copy.copy(s1)
    out._nodes = dict(s1._nodes)
    out._pending = {leaf: runs.copy() for leaf, runs in s1._pending.items()}
    out._absorb(s2._nodes.items(), s2._runs())
    return out


# ---------------------------------------------------------------------------
# Sampled rows of the Walsh-Hadamard transform


def _hadamard(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entries ``(-1)^popcount(r & c)`` of the Sylvester Hadamard matrix at the
    given row and column indices."""
    parity = np.bitwise_count(rows[:, None] & cols[None, :])
    parity &= np.uint8(1)
    return 1.0 - 2.0 * parity


def _srht_draws(seed: int, start: int) -> np.random.Generator:
    """SRHT's Philox stream from 32-bit draw ``start`` on, a multiple of 8: a counter
    step gives eight draws, and ``integers(0, 2)`` takes one per value, never rejecting."""
    return philox(_SRHT_SAMPLE_STREAM, seed, counter=start // 8)


def _srht_factors(leaf_rows: int) -> tuple[int, int, int]:
    """Sizes a, b, c of the split ``H_L = H_c (x) H_b (x) H_a`` for leaves of
    L = ``leaf_rows`` rows: a = 8 (L itself if smaller), and b and c the
    powers of two that split L/a evenly, c the larger when they cannot be
    equal. That is 8 x 16 x 16 at L = 2048 and 8 x 32 x 32 at L = 8192."""
    bits = leaf_rows.bit_length() - 1
    low = min(3, bits)
    mid = (bits - low) // 2
    return 1 << low, 1 << mid, 1 << (bits - low - mid)


def _leaf_transform(sample: np.ndarray, leaf_rows: int, scale: float) -> tuple:
    """What the SRHT leaf kernel needs of a sample of rows p of ``H_m``, for
    leaves of L = ``leaf_rows`` rows split as :func:`_srht_factors`: ``H_a``,
    ``H_b``, ``scale * H_c``, ``p mod L`` and ``p >> log2 L``."""
    a, b, c = _srht_factors(leaf_rows)
    return (
        _hadamard(np.arange(a), np.arange(a)),
        _hadamard(np.arange(b), np.arange(b)),
        _hadamard(np.arange(c), np.arange(c)) * scale,
        sample & (leaf_rows - 1),
        sample >> (leaf_rows.bit_length() - 1),
    )


def _sampled_hadamard(x: np.ndarray, signs: np.ndarray, leaf: int, transform: tuple) -> np.ndarray:
    """The SRHT leaf kernel: ``scale`` times the sampled rows of
    ``H_m @ diag(signs) @ X``, X zero but for the rows ``x`` of leaf
    ``leaf``, ``signs`` their signs, with ``transform`` from
    :func:`_leaf_transform`. A leaf of fewer than L rows (a short last leaf,
    or the whole input when m < L) is zero-padded to L rows, its signs with
    zeros. The signs are folded into ``H_a``: each a-row block of X is
    multiplied by ``H_a`` with its columns flipped by the block's signs, so a
    whole leaf's rows are read where they lie. The leaf's full transform is
    made in two L x d buffers, used in turn, which live only while this leaf
    is reduced."""
    h_a, h_b, h_c, gather, high = transform
    (h, d), a, b, c = x.shape, h_a.shape[0], h_b.shape[0], h_c.shape[0]
    height = a * b * c
    one, two = np.empty((height, d)), np.empty((height, d))
    if h < height:  # zero-padded to a whole leaf in the first buffer
        one[:h], one[h:] = x, 0.0
        x, signs = one, np.pad(signs, (0, height - h))
    # D x then H_a on every a-row block, H_b on every b-by-a block of that,
    # then scale * H_c across the a*b-row blocks
    signed_h_a = np.einsum("ij,qj->qij", h_a, signs.reshape(-1, a))
    np.matmul(signed_h_a, x.reshape(-1, a, d), out=two.reshape(-1, a, d))
    del signed_h_a, x  # x may be the first buffer
    np.matmul(h_b, two.reshape(-1, b, a * d), out=one.reshape(-1, b, a * d))
    np.matmul(h_c, one.reshape(c, -1), out=two.reshape(c, -1))
    del one  # so that the node is gathered beside one buffer only
    out = two[gather]
    np.negative(out, out=out, where=(np.bitwise_count(high & leaf) & 1).astype(bool)[:, None])
    return out


# ---------------------------------------------------------------------------
# Serialization: matrix binary payload + JSON sidecar


def save_state(state: SketchState, data_path) -> None:
    """Write the state's message: a matrix binary payload of its canonical
    nodes (k rows each, in key order) followed by its held rows of partly
    held leaves (in row order), ``message_bytes`` bytes of data, plus a JSON
    sidecar (``data_path`` with suffix ``.json``) of the sketch record
    (:meth:`SketchSpec.to_json_dict`), the row count, the node keys
    ``[level, i]`` and the held row ranges ``[lo, hi)``. A state holding no
    rows has no message to save, and a ``data_path`` that is its own sidecar
    path (suffix ``.json``) is refused before anything is written."""
    data_path = Path(data_path)
    meta_path = data_path.with_suffix(".json")
    if meta_path == data_path:
        raise ConfigurationError(f"{data_path}: the sketch sidecar would overwrite the payload")
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


def load_state(data_path) -> SketchState:
    """Rebuild a state from :func:`save_state` output.

    The sidecar is checked as outside input: its fields build a spec and a
    state, its ``k``, ``s`` and ``leaf_rows`` are the spec's (so a state saved
    under another leaf rule is refused), every node key lies inside the
    tree, no two keys or row ranges overlap, every range lies inside one leaf,
    and the payload holds k rows per node plus the held rows; a violation
    raises FormatError. The result is an ordinary state, built by the
    constructor (and checked against the memory cap): it consumes, merges and
    rejects rows it already holds like the saved one, bit for bit.
    """
    data_path = Path(data_path)
    meta_path = data_path.with_suffix(".json")
    try:
        with open(meta_path) as f:
            meta = json.load(f)
        spec = SketchSpec(**{field.name: meta[field.name] for field in fields(SketchSpec)})
        derived = {"k": sketch_rows(spec), "s": spec.s, "leaf_rows": _leaf_rows(spec)}
        if any(meta[key] != value for key, value in derived.items()):
            saved, given = (", ".join(f"{key}={v[key]}" for key in derived) for v in (meta, derived))
            raise FormatError(f"{meta_path}: {saved}, but its spec gives {given}")
        state = SketchState(spec, meta["n_rows"])
        keys = _integer_pairs(meta["nodes"], f"{meta_path}: nodes")
        ranges = _integer_pairs(meta["rows"], f"{meta_path}: rows")
    except (KeyError, TypeError, ValueError, ConfigurationError, UnsupportedFamilyError) as exc:
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
    at = len(keys) * state.k
    head = data[:at].copy() if ranges else data[:at]  # so that no node keeps the rows alive
    nodes = [(key, head[j * state.k : (j + 1) * state.k]) for j, key in enumerate(keys)]
    runs = []
    for lo, hi in ranges:
        runs.append((lo, data[at : at + hi - lo]))
        at += hi - lo
    try:
        state._absorb(nodes, runs)
    except IncompatibleSketchError as exc:
        raise FormatError(f"{meta_path}: overlapping nodes or row ranges: {exc}") from None
    return state
