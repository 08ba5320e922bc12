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
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


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


def make_plan(p, policy: OrderingPolicy, epoch: int = 0) -> OrderingPlan:
    """Build one epoch's ordering from a probability vector.

    ``dec`` sorts by strictly decreasing probability with ties broken by
    ascending index and is identical across epochs. ``dec_swr`` draws n
    i.i.d. samples from p. ``dec_swor`` and ``shuffle`` emit permutations;
    zero-probability items never appear in ``dec_swr`` output but sort/sample
    last under the permutation policies.

    Needs 32 bytes per item under the memory cap: p as float64, and the
    cumulative sum, uniform draw and drawn indices that ``dec_swr`` holds at
    once, the most of any policy.
    """
    p = _weights(p, "probabilities")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise DegenerateInputError(f"probabilities sum to {p.sum()}, not 1")
    epoch = _integer(epoch, "epoch", 0)
    n = p.size
    ensure_capacity(32 * n, f"ordering plan over {n} items")
    if policy.kind == DEC:
        indices = np.argsort(-p, kind="stable")
    elif policy.kind == SHUFFLE:
        indices = philox(_ORDER_STREAM, policy.seed, epoch).permutation(n)
    elif policy.kind == DEC_SWR:
        indices = philox(_ORDER_STREAM, policy.seed, epoch).choice(n, size=n, replace=True, p=p)
    else:  # DEC_SWOR: exponential-keys race
        keys = philox(_ORDER_STREAM, policy.seed, epoch).exponential(size=n)
        with np.errstate(divide="ignore", invalid="ignore"):
            keys /= p
        indices = np.argsort(keys, kind="stable")
    return OrderingPlan(epoch=epoch, indices=indices.astype(np.int64, copy=False), policy=policy)


def emit_batches(plan: OrderingPlan, batch_size: int) -> list[np.ndarray]:
    """Contiguous mini-batches of the plan; the final batch may be short."""
    batch_size = _integer(batch_size, "batch_size", 1)
    idx = plan.indices
    return [idx[i : i + batch_size] for i in range(0, idx.size, batch_size)]


def _decimal_lines(q: np.ndarray) -> np.ndarray:
    """The bytes of nonnegative int64 values in ASCII decimal, each followed
    by a newline."""
    width = np.ones(q.size, dtype=np.int64)
    top = q.max()
    for power in _POWERS_OF_TEN:
        if power > top:
            break
        width += q >= power
    ends = np.cumsum(width + 1)
    buf = np.empty(int(ends[-1]), dtype=np.uint8)
    buf[ends - 1] = ord("\n")
    pos = ends - 2  # each value's last digit; digits are written right to left
    for _ in range(int(width.max())):
        q, digit = np.divmod(q, 10)
        digit += ord("0")
        buf[pos] = digit
        more = q > 0
        if not more.all():
            q, pos = q[more], pos[more]
        pos -= 1
    return buf


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
