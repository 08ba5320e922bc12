"""Per-epoch training-data orderings driven by leverage scores.

Scores are normalized into a sampling distribution, then one of four policies
turns the distribution into an epoch ordering: ``dec`` (deterministic sort by
decreasing probability), ``dec_swr`` (i.i.d. draws with replacement, may
duplicate high-score points and drop low-score ones), ``dec_swor`` (weighted
sampling without replacement), and the ``shuffle`` baseline. Stochastic
policies are keyed by (seed, epoch): epochs differ but are reproducible.

Weighted sampling without replacement uses the exponential-keys race (key =
Exp(1)/p_i, sort ascending), which matches the successive-renormalization law
in one O(n log n) pass.

The draws are defined here, not by numpy's sampling internals. ``dec_swr``
normalizes the cumulative sum of p by its last entry and draws n Philox
uniforms u in [0, 1); each u gives the first index whose normalized cumulative
sum exceeds u. ``dec`` and ``dec_swor`` sort their keys (-p_i, and
Exp(1)/p_i) ascending and break ties by ascending index; zero-probability
items, keyed -0.0 and +inf, come last. These are the plans of
``Generator.choice`` and a stable argsort, bit for bit, but computed faster:
``dec_swr`` looks each chunk of uniforms up in sorted order, and the sorts use
numpy's unstable sort, then order each run of tied keys by index.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import _integer, ensure_capacity
from .errors import ConfigurationError, DegenerateInputError
from .matrix import philox, write_json

SHUFFLE = "shuffle"
DEC = "dec"
DEC_SWR = "dec_swr"
DEC_SWOR = "dec_swor"
POLICY_KINDS = (SHUFFLE, DEC, DEC_SWR, DEC_SWOR)

_ORDER_STREAM = 0x4F52

# save_plan encodes this many indices at a time, so its working set stays
# under 1 MiB whatever the plan's length.
_PLAN_CHUNK = 1 << 14
# make_plan looks up dec_swr's uniforms, and finds and orders tied keys, this
# many at a time, so their temporaries add at most 24 bytes an item of one
# chunk to a plan's working set. Chunks of 2^12 to 2^16 ran as fast at 2^18.
_DRAW_CHUNK = 1 << 14


@dataclass(frozen=True)
class OrderingPolicy:
    kind: str
    seed: int = 0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ConfigurationError(f"unknown ordering policy {self.kind!r}; expected one of {POLICY_KINDS}")
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))


@dataclass
class OrderingPlan:
    epoch: int
    indices: np.ndarray
    policy: OrderingPolicy


def _weights(w, name: str) -> np.ndarray:
    """``w`` as a float64 array, if it is non-empty, 1-D, finite and nonnegative."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise DegenerateInputError(f"{name} must be a non-empty 1-D array, got shape {w.shape}")
    if not 0 <= w.min() <= w.max() < np.inf:  # NaN fails too
        raise DegenerateInputError(f"{name} must be finite and nonnegative")
    return w


def scores_to_distribution(scores) -> np.ndarray:
    """Normalize nonnegative scores into sampling probabilities."""
    scores = _weights(scores, "scores")
    total = scores.sum()
    if total <= 0:
        raise DegenerateInputError("all scores are zero; no sampling distribution exists")
    return scores / total


def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` from numpy's faster unstable sort:
    every run of equal keys is put in ascending index order afterwards, -0.0
    and +0.0 being equal and NaNs, which sort last, equal to each other.

    Overwrites ``keys``. Beside the n indices it holds a mask of n bytes,
    which items tie with the one before them in sorted order, and chunk
    temporaries of at most 24 bytes an item of a chunk.
    """
    indices = np.argsort(keys)
    n = indices.size
    tied = np.zeros(n, dtype=bool)
    for start in range(1, n, _DRAW_CHUNK):
        k = keys[indices[start - 1 : start + _DRAW_CHUNK]]
        tied[start : start + _DRAW_CHUNK] = (k[1:] == k[:-1]) | np.isnan(k[:-1])
    if not tied.any():
        return indices

    def chunks():
        """Each chunk's slice, which of its items belong to a run of ties and
        which of those open a run."""
        for start in range(0, n, _DRAW_CHUNK):
            t = tied[start : start + _DRAW_CHUNK]
            member = t.copy()
            after = tied[start + 1 : start + _DRAW_CHUNK + 1]
            member[: after.size] |= after
            yield slice(start, start + t.size), member, member & ~t

    # A tied item's sort key is its run's number times n plus its index, so
    # one sort of these keys orders every run by index. There are at most n/2
    # runs, so the keys stay exact in int64 while n < 3e9. They are held in
    # the buffer of ``keys``, which is no longer needed.
    tie_keys = keys.view(np.int64)
    size = runs = 0
    for chunk, member, opens in chunks():
        key = np.cumsum(opens)
        key += runs
        runs = int(key[-1])
        key *= n
        key += indices[chunk]
        key = key[member]
        tie_keys[size : size + key.size] = key
        size += key.size
    tie_keys = tie_keys[:size]
    tie_keys.sort()
    tie_keys %= n
    size = 0
    for chunk, member, _ in chunks():
        count = np.count_nonzero(member)
        indices[chunk][member] = tie_keys[size : size + count]
        size += count
    return indices


def make_plan(p, policy: OrderingPolicy, epoch: int = 0) -> OrderingPlan:
    """Build one epoch's ordering from a probability vector.

    ``dec`` sorts by strictly decreasing probability with ties broken by
    ascending index and is identical across epochs. ``dec_swr`` draws n
    i.i.d. samples from p. ``dec_swor`` and ``shuffle`` emit permutations;
    zero-probability items never appear in ``dec_swr`` output and come last
    under ``dec`` and ``dec_swor``.

    Needs 32 bytes per item under the memory cap, plus 24 bytes per item of
    one chunk of at most ``_DRAW_CHUNK`` items. ``dec_swr`` holds the most:
    p, its cumulative sum, the uniform draws and the drawn indices, all
    float64 or int64, and for one chunk the order of its uniforms, the sorted
    uniforms and their lookups. ``dec`` and ``dec_swor`` hold p, the keys and
    their order (24 bytes per item), the n-byte tie mask of the sort and its
    chunk temporaries.
    """
    p = _weights(p, "probabilities")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise DegenerateInputError(f"probabilities sum to {p.sum()}, not 1")
    epoch = _integer(epoch, "epoch", 0)
    n = p.size
    ensure_capacity(32 * n + 24 * min(n, _DRAW_CHUNK), f"ordering plan over {n} items")
    if policy.kind == DEC:
        indices = _stable_argsort(-p)
    elif policy.kind == SHUFFLE:
        indices = philox(_ORDER_STREAM, policy.seed, epoch).permutation(n)
    elif policy.kind == DEC_SWR:
        # Generator.choice's inverse CDF, each chunk of uniforms looked up in
        # sorted order
        cdf = p.cumsum()
        cdf /= cdf[-1]
        uniforms = philox(_ORDER_STREAM, policy.seed, epoch).random(n)
        indices = np.empty(n, dtype=np.int64)
        for start in range(0, n, _DRAW_CHUNK):
            chunk = uniforms[start : start + _DRAW_CHUNK]
            order = chunk.argsort()
            indices[start : start + _DRAW_CHUNK][order] = cdf.searchsorted(chunk[order], side="right")
    else:  # DEC_SWOR: exponential-keys race
        keys = philox(_ORDER_STREAM, policy.seed, epoch).exponential(size=n)
        with np.errstate(divide="ignore", invalid="ignore"):
            keys /= p
        indices = _stable_argsort(keys)
    return OrderingPlan(epoch=epoch, indices=indices.astype(np.int64, copy=False), policy=policy)


def _decimal_lines(q: np.ndarray) -> np.ndarray:
    """The bytes of nonnegative int64 values in ASCII decimal, each followed
    by a newline: a table with a row per value, its digits right-aligned
    behind zero bytes and a newline last, read without the zero bytes."""
    width = len(str(int(q.max())))
    table = np.zeros((q.size, width + 1), dtype=np.uint8)
    table[:, width] = ord("\n")
    for column in range(width - 1, -1, -1):
        rest = q // 10
        digit = q - 10 * rest + ord("0")
        if column < width - 1:
            digit[q == 0] = 0  # a leading position
        table[:, column] = digit
        q = rest
    return table[table != 0]


def save_plan(plan: OrderingPlan, path) -> None:
    """One index per line in ASCII decimal, with a final newline; the hand-off
    format for external training loops."""
    indices = np.asarray(plan.indices, dtype=np.int64)
    if indices.ndim != 1 or indices.size == 0 or indices.min() < 0:
        raise DegenerateInputError("a plan's indices must be a non-empty 1-D array of nonnegative integers")
    with open(Path(path), "wb") as f:
        for start in range(0, indices.size, _PLAN_CHUNK):
            f.write(_decimal_lines(indices[start : start + _PLAN_CHUNK]))


def save_manifest(plans: list[OrderingPlan], files: list[str], batch_size: int, path, extra: dict | None = None) -> None:
    """The JSON manifest of an ordering run: policy, seed and n from the
    first plan (every epoch shares them), one epoch per file in ``files``."""
    manifest = {
        "policy": plans[0].policy.kind,
        "seed": plans[0].policy.seed,
        "epochs": len(files),
        "n": int(plans[0].indices.size),
        "batch_size": batch_size,
        "epoch_files": files,
    }
    if extra:
        manifest.update(extra)
    write_json(path, manifest)
