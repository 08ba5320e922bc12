"""Command-line front end: gen, leverage, order, bench, figure.

Every command is deterministic given --seed and records seed, versions and
the full flag set in a JSON metadata sidecar. Exit codes: 0 success, 1
runtime/numeric failure, 2 usage error. A key=value config file can seed any
flag's default; explicit flags win.
"""

import argparse
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, config
from .errors import CapacityError, ConfigurationError, LevsketchError
from .leverage import (
    leverage_exact,
    leverage_oracle,
    leverage_sketched,
    leverage_sketched_trunc,
    load_scores,
    run_distributed,
    save_scores,
)
from .matrix import (
    GENERATOR_NAME,
    SyntheticSpec,
    format_float,
    gen_synthetic,
    load_matrix,
    save_matrix,
    text_lines,
    write_json,
)
from .order import OrderingPolicy, emit_batches, make_plan, save_manifest, save_plan, scores_to_distribution
from .sketch import FAMILIES, SketchSpec
from .svd import singular_values

_FIGURE_DEFAULTS = {
    # kind: (n, d, rank as a function of d, noise)
    "rank-full": (4096, 10, lambda d: d, 0.0),
    "rank-half": (4096, 10, lambda d: d // 2, 0.0),
    "trunc-fix": (4096, 10, lambda d: d // 2, 0.0),
    "spectrum": (2048, 200, lambda d: d // 4, 1e-3),
}


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(prog="levsketch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {}

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("--config", type=str, default=None, help="key=value file seeding flag defaults")
        p.add_argument("--mem-cap", type=int, default=None, help="memory cap in bytes (overrides LVSK_MEM_CAP)")

    p = subs["gen"] = sub.add_parser("gen", help="generate a synthetic low-rank(+noise) matrix")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--rank", type=int, default=None, help="column rank (default d)")
    p.add_argument("--noise", type=float, default=0.0, help="additive Gaussian noise sigma")
    p.add_argument("--out", type=str, required=True)
    p.add_argument("--format", choices=["binary", "csv"], default=None, help="default: by extension")

    p = subs["leverage"] = sub.add_parser("leverage", help="compute leverage scores")
    common(p)
    p.add_argument("--in", dest="infile", type=str, required=True, help="matrix file, binary or CSV")
    p.add_argument("--header", action="store_true", help="CSV input has one header line")
    p.add_argument("--method", choices=["exact", "oracle", "sketch", "sketch-trunc"], default="exact")
    p.add_argument("--sketch", choices=list(FAMILIES), default="countsketch")
    p.add_argument("--eps", type=float, default=0.5, help="sketch distortion target")
    p.add_argument("--sv-tol", type=float, default=1e-3, help="relative singular-value cutoff (sketch-trunc)")
    p.add_argument("--osnap-s", type=int, default=None, help="OSNAP nonzeros per column")
    p.add_argument("--rows-override", type=int, default=None, help="pin the sketch row count")
    p.add_argument("--workers", type=int, default=1, help="row partitions for the coordinator model")
    p.add_argument("--threads", type=int, default=None, help="cap on concurrent worker tasks")
    p.add_argument("--out", type=str, required=True, help="scores CSV (JSON sidecar alongside)")

    p = subs["order"] = sub.add_parser("order", help="emit per-epoch data orderings from scores")
    common(p)
    p.add_argument("--scores", type=str, required=True)
    p.add_argument("--policy", choices=["shuffle", "dec", "dec-swr", "dec-swor"], required=True)
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--batch", type=int, default=1, help="mini-batch size recorded in the manifest")
    p.add_argument("--out-dir", type=str, default=".")
    p.add_argument("--prefix", type=str, default="order_")

    p = subs["bench"] = sub.add_parser("bench", help="timing harness over a synthetic grid")
    common(p)
    p.add_argument("--log2-n", type=str, default="10,14", help="comma-separated exponents of the row counts")
    p.add_argument("--d", type=int, default=16)
    p.add_argument("--rank", type=int, default=None, help="column rank of the synthetic data (default d)")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--methods", type=str, default="exact,countsketch,osnap", help="comma-separated")
    p.add_argument("--eps", type=str, default="0.5", help="comma-separated distortion targets")
    p.add_argument("--sv-tol", type=float, default=1e-3)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--out", type=str, required=True, help="raw timings CSV; medians in *_summary.csv")

    p = subs["figure"] = sub.add_parser("figure", help="scatter/curve data for the reference scenarios")
    common(p)
    p.add_argument("--kind", choices=list(_FIGURE_DEFAULTS), required=True)
    p.add_argument("--sketch", choices=list(FAMILIES), default="countsketch")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--sv-tol", type=float, default=1e-3)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--out", type=str, required=True)

    return parser, subs


# ---------------------------------------------------------------------------
# Config file support


# Flags that take no value: a config value of 1, true, yes or on sets them,
# one of 0, false, no or off leaves them unset.
_SWITCHES = {"header"}


def _load_config(path: str) -> list[str]:
    """The flags a key=value config file stands for, as command-line tokens:
    ``--key=value``, or ``--key`` for a switch set by a true value."""
    tokens = []
    for lineno, line in enumerate(text_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise LevsketchError(f"{path}: line {lineno} is not key=value")
        key, _, value = line.partition("=")
        key, value = key.strip().replace("_", "-"), value.strip().strip("\"'")
        if key not in _SWITCHES:
            tokens.append(f"--{key}={value}")
        elif value.lower() in ("1", "true", "yes", "on"):
            tokens.append(f"--{key}")
        elif value.lower() not in ("0", "false", "no", "off"):
            raise LevsketchError(f"{path}: line {lineno}: {key}={value} is neither true nor false")
    return tokens


def _peek_config(argv: list[str]) -> str | None:
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if tok.startswith("--config="):
            return tok.split("=", 1)[1]
    return None


# ---------------------------------------------------------------------------
# Shared helpers


def _metadata(args, command: str) -> dict:
    flags = {k: v for k, v in sorted(vars(args).items()) if k not in ("command", "config")}
    return {
        "command": command,
        "seed": getattr(args, "seed", None),
        "flags": flags,
        "generator": GENERATOR_NAME,
        "versions": {
            "levsketch": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }


def _sketch_spec(args, d: int) -> SketchSpec:
    return SketchSpec(
        family=args.sketch,
        eps=args.eps,
        d=d,
        osnap_s=getattr(args, "osnap_s", None),
        seed=args.seed,
        rows_override=getattr(args, "rows_override", None),
    )


# ---------------------------------------------------------------------------
# Commands


def cmd_gen(args) -> int:
    rank = args.d if args.rank is None else args.rank
    spec = SyntheticSpec(n=args.n, d=args.d, rank=rank, noise_sigma=args.noise, seed=args.seed)
    a = gen_synthetic(spec)
    fmt = args.format or ("csv" if Path(args.out).suffix.lower() == ".csv" else "binary")
    save_matrix(a, args.out, fmt)
    meta = _metadata(args, "gen")
    meta["matrix"] = {"n": spec.n, "d": spec.d, "rank": spec.rank, "noise_sigma": spec.noise_sigma, "format": fmt}
    write_json(Path(str(args.out) + ".json"), meta)
    return 0


def cmd_leverage(args) -> int:
    a = load_matrix(args.infile, header=args.header)
    report = None
    t0 = time.perf_counter()
    if args.method == "exact":
        result = leverage_exact(a)
    elif args.method == "oracle":
        result = leverage_oracle(a)
    else:
        sv_tol = args.sv_tol if args.method == "sketch-trunc" else None
        result, report = run_distributed(
            a, _sketch_spec(args, a.shape[1]), args.workers, sv_tol, max_threads=args.threads
        )
    result.wall_time_s = time.perf_counter() - t0

    extra = _metadata(args, "leverage")
    if report is not None:
        report_path = Path(str(args.out) + ".report.json")
        write_json(report_path, report.to_json_dict())
        extra["report_file"] = str(report_path)
    save_scores(result, args.out, extra_meta=extra)
    return 0


def cmd_order(args) -> int:
    if args.epochs < 1:
        raise ConfigurationError(f"--epochs must be at least 1, got {args.epochs}")
    scores = load_scores(args.scores)
    p = scores_to_distribution(scores)
    policy = OrderingPolicy(kind=args.policy.replace("-", "_"), seed=args.seed)
    plans = [make_plan(p, policy, epoch) for epoch in range(args.epochs)]
    extra = _metadata(args, "order")
    extra["batches_per_epoch"] = len(emit_batches(plans[0], args.batch))  # checks --batch before any write
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = [f"{args.prefix}epoch_{plan.epoch:04d}.txt" for plan in plans]
    for plan, name in zip(plans, files):
        save_plan(plan, out_dir / name)
    save_manifest(plans, files, args.batch, out_dir / f"{args.prefix}manifest.json", extra=extra)
    return 0


def _bench_cell(a, method: str, eps: float, sv_tol: float, seed: int) -> float:
    """One timed score computation; data generation and I/O stay outside."""
    t0 = time.perf_counter()
    if method == "exact":
        leverage_exact(a)
    else:
        spec = SketchSpec(family=method, eps=eps, d=a.shape[1], seed=seed)
        leverage_sketched_trunc(a, spec, sv_tol)
    return time.perf_counter() - t0


def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise ConfigurationError(f"--repeats must be at least 1, got {args.repeats}")
    exponents = [int(v) for v in args.log2_n.split(",") if v]
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    eps_grid = [float(v) for v in args.eps.split(",") if v]
    for flag, grid in (("--log2-n", exponents), ("--methods", methods), ("--eps", eps_grid)):
        if not grid:
            raise ConfigurationError(f"{flag} names no value, so the grid is empty")
    for m in methods:
        if m != "exact" and m not in FAMILIES:
            raise LevsketchError(f"unknown bench method {m!r}")

    def timings(a, method: str, eps: float) -> list[float] | None:
        """The cell's timed repeats, after one untimed run that keeps first-call
        costs out of them; None if the cell does not fit under the memory cap."""
        if a is None:
            return None
        try:
            _bench_cell(a, method, eps, args.sv_tol, args.seed)
            return [_bench_cell(a, method, eps, args.sv_tol, args.seed) for _ in range(args.repeats)]
        except CapacityError:
            return None

    rows = []
    for k_exp in exponents:
        n = 2**k_exp
        rank = args.rank if args.rank is not None else args.d
        try:
            a = gen_synthetic(SyntheticSpec(n=n, d=args.d, rank=rank, noise_sigma=args.noise, seed=args.seed))
        except CapacityError:
            a = None
        # exact has no sketch knobs; one cell per eps keeps the schema uniform
        for method in methods:
            for eps in eps_grid:
                seconds = timings(a, method, eps)
                for rep in range(args.repeats):
                    if seconds is None:
                        rows.append((n, args.d, method, eps, rep, "", "skipped"))
                    else:
                        rows.append((n, args.d, method, eps, rep, format_float(seconds[rep]), "ok"))
    out = Path(args.out)
    with open(out, "w") as f:
        f.write("n,d,method,eps,repeat,seconds,status\n")
        for row in rows:
            f.write(",".join(str(v) for v in row) + "\n")
    summary = {}
    for n, d, method, eps, _rep, seconds, status in rows:
        if status == "ok":
            summary.setdefault((n, d, method, eps), []).append(float(seconds))
    summary_path = out.with_name(out.stem + "_summary" + out.suffix)
    with open(summary_path, "w") as f:
        f.write("n,d,method,eps,median_seconds\n")
        for (n, d, method, eps), xs in sorted(summary.items()):
            f.write(f"{n},{d},{method},{eps},{format_float(statistics.median(xs))}\n")
    meta = _metadata(args, "bench")
    meta["summary_file"] = str(summary_path)
    write_json(Path(str(out) + ".json"), meta)
    return 0


def cmd_figure(args) -> int:
    n_default, d_default, rank_of_d, noise = _FIGURE_DEFAULTS[args.kind]
    n = n_default if args.n is None else args.n
    d = d_default if args.d is None else args.d
    rank = max(1, rank_of_d(d))
    a = gen_synthetic(SyntheticSpec(n=n, d=d, rank=rank, noise_sigma=noise, seed=args.seed))
    out = Path(args.out)
    meta = _metadata(args, "figure")
    meta["scenario"] = {"n": n, "d": d, "rank": rank, "noise_sigma": noise}
    if args.kind == "spectrum":
        sv = singular_values(a)
        with open(out, "w") as f:
            f.write("component,sigma\n")
            for j, v in enumerate(sv):
                f.write(f"{j},{format_float(v)}\n")
        write_json(Path(str(out) + ".json"), meta)
        return 0
    spec = _sketch_spec(args, d)
    exact = leverage_exact(a)
    if args.kind == "trunc-fix":
        approx = leverage_sketched_trunc(a, spec, args.sv_tol)
    else:
        approx = leverage_sketched(a, spec)
    with open(out, "w") as f:
        f.write("true_score,approx_score\n")
        for t, s in zip(exact.scores, approx.scores):
            f.write(f"{format_float(t)},{format_float(s)}\n")
    write_json(Path(str(out) + ".json"), meta)
    return 0


_DISPATCH = {
    "gen": cmd_gen,
    "leverage": cmd_leverage,
    "order": cmd_order,
    "bench": cmd_bench,
    "figure": cmd_figure,
}


def main(argv=None) -> int:
    """Run one command. Its --mem-cap is the process's memory cap for the
    duration of the call (see :func:`levsketch.config.mem_cap`)."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subs = build_parser()
    command = argv[0] if argv and argv[0] in subs else None
    outer_cap = config._command_cap
    try:
        cfg_path = _peek_config(argv)
        preset = _load_config(cfg_path) if cfg_path is not None and command is not None else []
        # the config's flags go first, so that explicit flags after them win
        args, extra = parser.parse_known_args(argv[:1] + preset + argv[1:])
        unknown = [token for token in extra if token in preset]
        if unknown:
            raise LevsketchError(f"config keys do not match any flag: {unknown}")
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        if args.mem_cap is not None:
            config._command_cap = args.mem_cap
            config.mem_cap()  # validate early
        return _DISPATCH[args.command](args)
    except (LevsketchError, OSError, np.linalg.LinAlgError) as exc:
        print(f"levsketch {command or '?'}: error: {exc}", file=sys.stderr)
        return 1
    finally:
        config._command_cap = outer_cap


if __name__ == "__main__":
    sys.exit(main())
