"""Leverage scores for large dense matrices via randomized sketching.

Exact scores come from one Cholesky QR pass preconditioned by a small
internal CountSketch and checked against the matrix itself (falling back to
the SVD of the matrix's own R factor when the sketch missed a direction);
approximate scores come from the SVD of a much smaller sketched product built
in a streaming row model (CountSketch, OSNAP, or SRHT), optionally with small
singular components truncated before basis inversion so rank-deficient and
noise-corrupted data stay accurate.
A coordinator-model simulation distributes the sketching across row
partitions, and an ordering generator turns scores into per-epoch curriculum
orderings for training loops.
"""

__version__ = "0.1.0"

from . import errors
from .leverage import (
    LeverageResult,
    leverage_exact,
    leverage_oracle,
    leverage_sketched,
    leverage_sketched_trunc,
    load_scores,
    partition_rows,
    run_distributed,
    save_scores,
)
from .matrix import (
    SyntheticSpec,
    as_matrix,
    gen_synthetic,
    load_matrix,
    save_matrix,
)
from .order import (
    OrderingPlan,
    OrderingPolicy,
    make_plan,
    scores_to_distribution,
)
from .sketch import (
    SketchSpec,
    SketchState,
    apply_sketch,
    consume_rows,
    load_state,
    merge,
    save_state,
    sketch_rows,
)
from .svd import SvdResult, right_svd, singular_values, thin_svd, truncate

__all__ = [
    "LeverageResult",
    "OrderingPlan",
    "OrderingPolicy",
    "SketchSpec",
    "SketchState",
    "SvdResult",
    "SyntheticSpec",
    "__version__",
    "apply_sketch",
    "as_matrix",
    "consume_rows",
    "errors",
    "gen_synthetic",
    "leverage_exact",
    "leverage_oracle",
    "leverage_sketched",
    "leverage_sketched_trunc",
    "load_matrix",
    "load_scores",
    "load_state",
    "make_plan",
    "merge",
    "partition_rows",
    "right_svd",
    "run_distributed",
    "save_matrix",
    "save_scores",
    "save_state",
    "scores_to_distribution",
    "singular_values",
    "sketch_rows",
    "thin_svd",
    "truncate",
]
