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

from .errors import ConfigurationError, DegenerateInputError
from .matrix import write_json

SHUFFLE = "shuffle"
DEC = "dec"
DEC_SWR = "dec_swr"
DEC_SWOR = "dec_swor"
POLICY_KINDS = (SHUFFLE, DEC, DEC_SWR, DEC_SWOR)

_ORDER_STREAM = 0x4F52


@dataclass(frozen=True)
class OrderingPolicy:
    kind: str
    seed: int = 0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ConfigurationError(f"unknown ordering policy {self.kind!r}; expected one of {POLICY_KINDS}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class OrderingPlan:
    epoch: int
    indices: np.ndarray
    policy: OrderingPolicy


def scores_to_distribution(scores) -> np.ndarray:
    """Normalize nonnegative scores into sampling probabilities."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise DegenerateInputError(f"scores must be a non-empty 1-D array, got shape {scores.shape}")
    if not np.isfinite(scores).all():
        raise DegenerateInputError("scores contain non-finite values")
    if (scores < 0).any():
        raise DegenerateInputError("scores must be nonnegative")
    total = scores.sum()
    if total <= 0:
        raise DegenerateInputError("all scores are zero; no sampling distribution exists")
    return scores / total


def _epoch_rng(policy: OrderingPolicy, epoch: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([_ORDER_STREAM, policy.seed, epoch]))
    )


def make_plan(p, policy: OrderingPolicy, epoch: int = 0) -> OrderingPlan:
    """Build one epoch's ordering from a probability vector.

    ``dec`` sorts by strictly decreasing probability with ties broken by
    ascending index and is identical across epochs. ``dec_swr`` draws n
    i.i.d. samples from p. ``dec_swor`` and ``shuffle`` emit permutations;
    zero-probability items never appear in ``dec_swr`` output but sort/sample
    last under the permutation policies.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise DegenerateInputError(f"need a non-empty 1-D distribution, got shape {p.shape}")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise DegenerateInputError(f"probabilities sum to {p.sum()}, not 1")
    if epoch < 0:
        raise ConfigurationError(f"epoch must be nonnegative, got {epoch}")
    n = p.size
    if policy.kind == DEC:
        indices = np.argsort(-p, kind="stable")
    elif policy.kind == SHUFFLE:
        indices = _epoch_rng(policy, epoch).permutation(n)
    elif policy.kind == DEC_SWR:
        indices = _epoch_rng(policy, epoch).choice(n, size=n, replace=True, p=p)
    else:  # DEC_SWOR: exponential-keys race
        rng = _epoch_rng(policy, epoch)
        with np.errstate(divide="ignore", invalid="ignore"):
            keys = rng.exponential(size=n) / p
        indices = np.argsort(keys, kind="stable")
    return OrderingPlan(epoch=epoch, indices=indices.astype(np.int64), policy=policy)


def emit_batches(plan: OrderingPlan, batch_size: int) -> list[np.ndarray]:
    """Contiguous mini-batches of the plan; the final batch may be short."""
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be at least 1, got {batch_size}")
    idx = plan.indices
    return [idx[i : i + batch_size] for i in range(0, idx.size, batch_size)]


def save_plan(plan: OrderingPlan, path) -> None:
    """One index per line; the hand-off format for external training loops."""
    with open(Path(path), "w") as f:
        f.write("\n".join(str(int(i)) for i in plan.indices))
        f.write("\n")


def save_manifest(plans: list[OrderingPlan], files: list[str], batch_size: int, path, extra: dict | None = None) -> None:
    manifest = {
        "policy": plans[0].policy.kind,
        "seed": plans[0].policy.seed,
        "epochs": len(plans),
        "n": int(plans[0].indices.size),
        "batch_size": batch_size,
        "epoch_files": files,
    }
    if extra:
        manifest.update(extra)
    write_json(path, manifest)
