"""levsketch benchmark: time to leverage scores, per method, on three workloads.

Run from the root of a checkout; nothing needs building or installing:

    python3 perfbench/run.py --workload dense-d256 --seed 1 --seconds 20 --trace 0

Workloads: dense-d256 and lowrank-d64-cli (see perfbench/METRICS.md).
With ``--trace 0`` the jobs repeat at least three times and until ``--seconds``
have passed, and every end-to-end metric is the median over the repeats
(set-up runs three times). With ``--trace 1`` an untraced, a traced and another untraced repeat run,
followed by each job's public stages called one by one; the result holds the per-layer
metrics and ``trace.overhead_s``. ``--smoke`` runs the same jobs at toy size.

Human-readable lines come first, including the machine record; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full record, spans included,
is written to ``.perfbench_work/results/``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def import_package():
    """Import levsketch from this checkout's ``src``, and from nowhere else."""
    init = SRC / "levsketch" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from the root of a levsketch checkout")
    sys.path.insert(0, str(SRC))
    import levsketch

    if Path(levsketch.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported levsketch from {levsketch.__file__}, not from {SRC}")
    return levsketch


def parse_args(argv):
    from jobs import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of an untraced run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="toy-size inputs, for the smoke test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def measure(lv, args, work: Path) -> dict:
    import jobs
    from spans import NullTracer, Tracer

    wl = (jobs.SMOKE if args.smoke else jobs.WORKLOADS)[args.workload]
    nproc = len(os.sched_getaffinity(0))
    run = jobs.Run(lv, wl, args.seed, work, nproc)
    tracer = Tracer() if args.trace else NullTracer()
    setups = [run.setup(tracer) for _ in range(jobs.SETUPS)]
    run.reference(tracer)

    samples: dict[str, list[float]] = {}
    counts_seen = []
    t_start = time.perf_counter()
    if args.trace:
        # The first repeat of a process runs slow, so it only warms up; the
        # overhead compares the traced repeat with the untraced one after it.
        per_repeat = []
        for tr in (NullTracer(), tracer, NullTracer()):
            times, counts = run.repeat(tr)
            per_repeat.append(times)
            counts_seen.append(counts)
        _, traced, untraced = per_repeat
        probe = run.probes(tracer)
        run.check_stream_against_bulk(probe["bulk"], jobs.FAMILIES)
    else:
        while len(counts_seen) < jobs.MIN_REPEATS or time.perf_counter() - t_start < args.seconds:
            times, counts = run.repeat(NullTracer())
            counts_seen.append(counts)
            for name, values in times.items():
                samples.setdefault(name, []).extend(values)
        # One family per untraced run, rotating with the seed: the bulk sketch
        # costs as much as the streamed one.
        run.check_stream_against_bulk({}, [jobs.FAMILIES[args.seed % len(jobs.FAMILIES)]])
    measured_s = time.perf_counter() - t_start

    repeat_problems = [] if all(c == counts_seen[0] for c in counts_seen) else ["exact counts differ between repeats"]
    run.tally.record("counts-repeat", repeat_problems)
    digest = jobs.source_digest(SRC, Path(__file__).resolve().parent)
    stored = WORK / "counts" / f"{wl.name}-seed{args.seed}{'-smoke' if args.smoke else ''}-{digest}.json"
    run.tally.record("counts-across-runs", compare_or_store(stored, counts_seen[0], run.tally.failed == 0))

    # ``metrics`` are the ones BENCHMARK.json lists, which every workload has;
    # ``reported`` are printed and saved too but exist on one workload only.
    if args.trace:
        layer, extra = jobs.per_layer(run, tracer, counts_seen[-1], probe, traced, untraced)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
        reported = {name: {"value": v, "unit": u} for name, (v, u) in extra.items()}
        sample_counts = {name: 1 for name in [*metrics, *reported]}
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        sample_counts = {"setup_s": len(setups)}
        for name, values in samples.items():
            metrics[name] = {"value": statistics.median(values), "unit": "s"}
            sample_counts[name] = len(values)
        metrics["score_err_max"] = {"value": counts_seen[0].get("score_err_max", 0.0), "unit": "ratio"}
        metrics["peak_rss_mib"] = {"value": jobs.peak_rss_mib(), "unit": "MiB"}
        sample_counts.update(score_err_max=1, peak_rss_mib=1)
        reported = {name: metrics.pop(name) for name in list(metrics) if name not in jobs.END_TO_END}
        metrics = {name: metrics[name] for name in jobs.END_TO_END}

    return {
        "workload": wl.name,
        "shape": {"n": wl.n, "d": wl.d, "rank": wl.rank, "noise": wl.noise, "countsketch_k": wl.countsketch_k},
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": jobs.machine_record(lv, args.seed),
        "measured_s": measured_s,
        "repeats": len(counts_seen),
        "samples": sample_counts,
        "raw": {"setup_s": setups, **samples},
        "metrics": metrics,
        "reported": reported,
        "counts": counts_seen[0],
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "failures": run.tally.failures,
        "spans": getattr(tracer, "spans", []),
    }


def compare_or_store(path: Path, counts: dict, store: bool) -> list[str]:
    """Exact counts must equal those an earlier run of the same code and seed
    stored; the first clean run stores them."""
    if path.is_file():
        before = json.loads(path.read_text())
        differ = sorted(k for k in set(before) | set(counts) if before.get(k) != counts.get(k))
        return [f"exact counts differ from an earlier run: {differ}"] if differ else []
    if store:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(counts, sort_keys=True))
        os.replace(tmp, path)
    return []


def report(result: dict) -> None:
    print(
        f"perfbench {result['workload']} seed={result['machine']['seed']} trace={result['trace']}"
        f" smoke={result['smoke']}: {result['repeats']} repeat(s), {result['measured_s']:.1f} s measured"
    )
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    for name, entry in [*result["metrics"].items(), *result["reported"].items()]:
        note = "" if name in result["metrics"] else "  (this workload only)"
        print(f"  {name:34s} {entry['value']:>16.6g} {entry['unit']:14s} n={result['samples'][name]}{note}")
    frac = result["failed"] / max(1, result["attempted"])
    print(f"ops attempted={result['attempted']} failed={result['failed']} ops_failed_frac={frac:g}")
    print("counts " + json.dumps(result["counts"], sort_keys=True))
    for line in result["failures"]:
        print(f"FAIL {line}")


def main(argv=None) -> int:
    lv = import_package()
    args = parse_args(argv)
    # Leave through ``finally`` on SIGTERM too, so the work directory goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = WORK / f"run-{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(lv, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = WORK / "results" / (
        f"{result['workload']}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True))
    report(result)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
