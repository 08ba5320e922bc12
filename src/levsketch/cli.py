"""Command-line front end: gen, leverage, order, bench, figure.

Every command is deterministic given --seed and records seed, versions and
the full flag set in a JSON metadata sidecar. Exit codes: 0 success, 1
runtime/numeric failure, 2 usage error. A key=value config file can seed any
flag's default; explicit flags win.
"""

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, config
from .errors import CapacityError, LevsketchError
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
    detect_format,
    format_float,
    gen_synthetic,
    load_matrix,
    save_matrix,
    singular_values,
)
from .order import OrderingPolicy, emit_batches, make_plan, save_manifest, save_plan, scores_to_distribution
from .sketch import FAMILIES, SketchSpec

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
    p.add_argument("--in", dest="infile", type=str, required=True)
    p.add_argument("--format", choices=["binary", "csv"], default=None)
    p.add_argument("--header", action="store_true", help="CSV input has one header line")
    p.add_argument("--method", choices=["exact", "oracle", "sketch", "sketch-trunc"], default="exact")
    p.add_argument("--sketch", choices=list(FAMILIES), default="countsketch")
    p.add_argument("--eps", type=float, default=0.5, help="sketch distortion target")
    p.add_argument("--sv-tol", type=float, default=1e-3, help="relative singular-value cutoff (sketch-trunc)")
    p.add_argument("--osnap-s", type=int, default=None, help="OSNAP nonzeros per column")
    p.add_argument("--sketch-c", type=float, default=None, help="sizing constant in front of the row-count rule")
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
    p.add_argument("--sketch-c", type=str, default=None, help="comma-separated sizing constants to sweep")
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


# Flags that take no value: a config value of 1, true, yes or on sets them.
_SWITCHES = {"header"}


def _load_config(path: str) -> list[str]:
    """The flags a key=value config file stands for, as command-line tokens:
    ``--key=value``, or ``--key`` for a switch set by a true value."""
    tokens = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
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


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _sketch_spec(args, d: int) -> SketchSpec:
    return SketchSpec(
        family=args.sketch,
        eps=args.eps,
        d=d,
        osnap_s=getattr(args, "osnap_s", None),
        seed=args.seed,
        rows_override=getattr(args, "rows_override", None),
        sizing_c=getattr(args, "sketch_c", None),
    )


# ---------------------------------------------------------------------------
# Commands


def cmd_gen(args) -> int:
    rank = args.d if args.rank is None else args.rank
    spec = SyntheticSpec(n=args.n, d=args.d, rank=rank, noise_sigma=args.noise, seed=args.seed)
    a = gen_synthetic(spec)
    fmt = args.format or detect_format(args.out)
    save_matrix(a, args.out, fmt)
    meta = _metadata(args, "gen")
    meta["matrix"] = {"n": spec.n, "d": spec.d, "rank": spec.rank, "noise_sigma": spec.noise_sigma, "format": fmt}
    _write_json(Path(str(args.out) + ".json"), meta)
    return 0


def cmd_leverage(args) -> int:
    a = load_matrix(args.infile, args.format, header=args.header)
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
    if report is not None and args.workers > 1:
        report_path = Path(str(args.out) + ".report.json")
        _write_json(report_path, report.to_json_dict())
        extra["report_file"] = str(report_path)
    save_scores(result, args.out, extra_meta=extra)
    return 0


def cmd_order(args) -> int:
    scores = load_scores(args.scores)
    p = scores_to_distribution(scores)
    policy = OrderingPolicy(kind=args.policy.replace("-", "_"), seed=args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    plans, files = [], []
    for epoch in range(args.epochs):
        plan = make_plan(p, policy, epoch)
        path = out_dir / f"{args.prefix}epoch_{epoch:04d}.txt"
        save_plan(plan, path)
        plans.append(plan)
        files.append(path.name)
    extra = _metadata(args, "order")
    if plans:
        extra["batches_per_epoch"] = len(emit_batches(plans[0], args.batch))
    manifest = out_dir / f"{args.prefix}manifest.json"
    save_manifest(plans, files, args.batch, manifest, extra=extra)
    return 0


def _bench_cell(a, method: str, eps: float, sv_tol: float, sketch_c, seed: int) -> float:
    """One timed score computation; data generation and I/O stay outside."""
    t0 = time.perf_counter()
    if method == "exact":
        leverage_exact(a)
    else:
        spec = SketchSpec(family=method, eps=eps, d=a.shape[1], seed=seed, sizing_c=sketch_c)
        leverage_sketched_trunc(a, spec, sv_tol)
    return time.perf_counter() - t0


def cmd_bench(args) -> int:
    exponents = [int(v) for v in args.log2_n.split(",") if v]
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    eps_grid = [float(v) for v in args.eps.split(",") if v]
    c_grid = [float(v) for v in args.sketch_c.split(",") if v] if args.sketch_c else [None]
    for m in methods:
        if m != "exact" and m not in FAMILIES:
            raise LevsketchError(f"unknown bench method {m!r}")

    def cells(method):
        # exact has no sketch knobs; one cell per eps keeps the schema uniform
        return [(eps, None) for eps in eps_grid] if method == "exact" else [
            (eps, c) for eps in eps_grid for c in c_grid
        ]

    rows = []
    for k_exp in exponents:
        n = 2**k_exp
        rank = args.rank if args.rank is not None else args.d
        try:
            a = gen_synthetic(SyntheticSpec(n=n, d=args.d, rank=rank, noise_sigma=args.noise, seed=args.seed))
        except CapacityError:
            a = None
        for method in methods:
            for eps, c in cells(method):
                c_label = "" if c is None else format_float(c)
                for rep in range(args.repeats):
                    if a is None:
                        rows.append((n, args.d, method, eps, c_label, rep, "", "skipped"))
                        continue
                    try:
                        seconds = _bench_cell(a, method, eps, args.sv_tol, c, args.seed)
                        rows.append((n, args.d, method, eps, c_label, rep, format_float(seconds), "ok"))
                    except CapacityError:
                        rows.append((n, args.d, method, eps, c_label, rep, "", "skipped"))
    out = Path(args.out)
    with open(out, "w") as f:
        f.write("n,d,method,eps,sketch_c,repeat,seconds,status\n")
        for row in rows:
            f.write(",".join(str(v) for v in row) + "\n")
    summary = {}
    for n, d, method, eps, c_label, _rep, seconds, status in rows:
        if status == "ok":
            summary.setdefault((n, d, method, eps, c_label), []).append(float(seconds))
    summary_path = out.with_name(out.stem + "_summary" + out.suffix)
    with open(summary_path, "w") as f:
        f.write("n,d,method,eps,sketch_c,median_seconds\n")
        for (n, d, method, eps, c_label), xs in sorted(summary.items()):
            f.write(f"{n},{d},{method},{eps},{c_label},{format_float(statistics.median(xs))}\n")
    meta = _metadata(args, "bench")
    meta["summary_file"] = str(summary_path)
    _write_json(Path(str(out) + ".json"), meta)
    return 0


def cmd_figure(args) -> int:
    n_default, d_default, rank_of_d, noise = _FIGURE_DEFAULTS[args.kind]
    n = args.n or n_default
    d = args.d or d_default
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
        _write_json(Path(str(out) + ".json"), meta)
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
    _write_json(Path(str(out) + ".json"), meta)
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
    except (LevsketchError, OSError) as exc:
        print(f"levsketch {command or '?'}: error: {exc}", file=sys.stderr)
        return 1
    finally:
        config._command_cap = outer_cap


if __name__ == "__main__":
    sys.exit(main())
