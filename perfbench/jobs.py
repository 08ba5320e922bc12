"""Workloads, jobs and correctness checks of the levsketch benchmark.

Every workload runs these jobs on its own input, so every end-to-end metric
in BENCHMARK.json is measured on every workload:

- ``exact``: ``leverage_exact``.
- ``countsketch``, ``osnap``, ``srht``: serial ``leverage_sketched_trunc``.
- ``curriculum``: ``cli.main(["order", ...])`` for ``dec-swor`` and
  ``dec-swr`` from a scores CSV.
- ``stream``: for each family, 1000-row blocks through ``consume_rows`` into
  two range-owning states, then ``merge``, ``.data``, ``thin_svd`` and
  ``truncate``.

Only ``lowrank-d64-cli`` also runs ``coordinator``:
``cli.main(["leverage", ..., "--workers", "8"])`` from the binary input file
to the scores CSV the curriculum reads; elsewhere that CSV is the serial
CountSketch result written by ``save_scores``. At d=256 the coordinator's
scores are not bit-equal to the serial ones (see METRICS.md), so dense-d256
runs no coordinator, and coordinator_s is reported but not listed in
BENCHMARK.json.

All timing is done here, around calls into the package's public functions.
Every job is one operation; it fails if it raises, exits non-zero or its
output fails a check.
"""

import json
import os
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

EPS = 0.5
SV_TOL = 1e-3
BAND = 2 * EPS  # criteria 4 and 6 of the acceptance suite
SCORE_FLOOR = 1e-6  # reference scores below this are outside the band check, as there
FAMILIES = ("countsketch", "osnap", "srht")
SETUPS = 3
MIN_REPEATS = 3  # the first repeat runs slow; a median of three leaves it out
CURRICULUM_PASSES = 2  # the shortest and noisiest job gets two samples a repeat
STREAM_BLOCK = 1000
WORKERS = 8
EPOCHS = 3
BATCH = 256
POLICIES = ("dec_swor", "dec_swr")
WARM_ROWS = 4096

END_TO_END = {
    # name: unit
    "setup_s": "s",
    "exact_s": "s",
    "countsketch_s": "s",
    "osnap_s": "s",
    "srht_s": "s",
    "curriculum_s": "s",
    "stream_s": "s",
    "score_err_max": "ratio",
    "peak_rss_mib": "MiB",
}


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    rank: int
    noise: float
    # CountSketch k where the sizing rule (d/eps)^2 exceeds n; None keeps the rule.
    countsketch_k: int | None = None
    coordinator: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-d256", 2**16, 256, 256, 0.0, countsketch_k=16384),
        Workload("lowrank-d64-cli", 2**18, 64, 32, 1e-3, coordinator=True),
    )
}

# Same jobs at toy size, for the smoke test: every metric appears in seconds.
SMOKE = {
    "dense-d256": replace(WORKLOADS["dense-d256"], n=2**12, d=32, rank=32, countsketch_k=1024),
    "lowrank-d64-cli": replace(WORKLOADS["lowrank-d64-cli"], n=2**12, d=16, rank=8),
}


class Tally:
    """Operations attempted and failed, with a line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{op}: {p}" for p in problems)


def rel_errors(approx: np.ndarray, truth: np.ndarray) -> np.ndarray:
    mask = truth >= SCORE_FLOOR
    return np.abs(approx[mask] - truth[mask]) / truth[mask]


def state_bytes(family: str, k: int, d: int, n: int) -> int:
    """Bytes a sketch state holds, computed from shapes: the hi/lo
    accumulators of the hashed families, or SRHT's zero-padded row buffer plus
    its sampled rows."""
    if family == "srht":
        m = 1 << max(0, (n - 1).bit_length())
        return 8 * (m + k) * d
    return 2 * 8 * k * d


def _read_plan(path: Path) -> np.ndarray:
    return np.array(path.read_text().split(), dtype=np.int64)


class Run:
    """One benchmark process: a workload, a seed, inputs and results."""

    def __init__(self, lv, wl: Workload, seed: int, work: Path, nproc: int):
        from levsketch import cli, order

        self.lv, self.cli, self.order = lv, cli, order
        self.wl, self.seed, self.work, self.nproc = wl, seed, work, nproc
        self.tally = Tally()
        self.bin_path = work / "input.bin"
        self.specs = {
            fam: lv.SketchSpec(
                fam,
                eps=EPS,
                d=wl.d,
                seed=seed,
                rows_override=wl.countsketch_k if fam == "countsketch" else None,
            )
            for fam in FAMILIES
        }
        self.a = None
        self.ref = None
        self.csv_path = work / "scores.csv"
        self.first_stream: dict[str, np.ndarray] = {}
        self.details: dict = {}
        self.serial_cs = None

    def _op(self, tr, times: dict, metric: str, op: str, fn):
        """Time ``fn`` under a job span and add the seconds to
        ``times[metric]``; a raise is a failed operation."""
        t0 = time.perf_counter()
        try:
            with tr.span(f"job.{op}"):
                out, problems = fn(), []
        except Exception:
            traceback.print_exc()
            out, problems = None, ["raised (traceback on stderr)"]
        times.setdefault(metric, []).append(time.perf_counter() - t0)
        return out, problems

    # -- set-up ---------------------------------------------------------

    def setup(self, tr) -> float:
        """Generate the input, write it to the binary file and warm up."""
        lv, wl = self.lv, self.wl
        self.a = None
        t0 = time.perf_counter()
        with tr.span("matrix.gen"):
            a = lv.gen_synthetic(lv.SyntheticSpec(wl.n, wl.d, wl.rank, wl.noise, self.seed))
        with tr.span("matrix.save"):
            lv.save_matrix(a, self.bin_path, "binary")
        with tr.span("warmup"):
            self._warm_up(a[:WARM_ROWS])
        self.a = a
        return time.perf_counter() - t0

    def _warm_up(self, a) -> None:
        """Touch every public call once at toy size, so thread pools and lazy
        initialisation are ready before anything is timed."""
        lv = self.lv
        lv.leverage_exact(a)
        for fam in FAMILIES:
            spec = lv.SketchSpec(fam, eps=EPS, d=a.shape[1], seed=self.seed, rows_override=256)
            lv.leverage_sketched_trunc(a, spec, SV_TOL)
        spec = lv.SketchSpec("countsketch", eps=EPS, d=a.shape[1], seed=self.seed, rows_override=256)
        lv.run_distributed(a, spec, WORKERS, SV_TOL, max_threads=self.nproc)

    def reference(self, tr) -> None:
        """Exact scores truncated at sv_tol, the reference for every band check."""
        lv = self.lv
        with tr.span("svd.exact"):
            svd = lv.thin_svd(self.a)
        kept = lv.truncate(svd, SV_TOL)
        self.ref = np.einsum("ij,ij->i", kept.u, kept.u)

    # -- one repeat of every job -----------------------------------------

    def repeat(self, tr) -> tuple[dict, dict]:
        """Run every job once, the curriculum twice. Returns the seconds of
        each end-to-end metric's samples, and the exact counts."""
        times, counts = {}, {"matrix.load_bytes": self.bin_path.stat().st_size}
        self._exact(tr, times)
        serial = self._serial(tr, times, counts)
        self.serial_cs = serial.get("countsketch")
        if self.wl.coordinator:
            csv_ok = self._coordinator(tr, times, counts)
        else:
            csv_ok = self._save_serial_scores()
        if csv_ok:
            counts["leverage.scores_bytes"] = self.csv_path.stat().st_size
        for _ in range(CURRICULUM_PASSES):
            self._curriculum(tr, times, counts, csv_ok)
        self._stream(tr, times, counts)
        return times, counts

    def _exact(self, tr, times) -> None:
        res, problems = self._op(tr, times, "exact_s", "exact", lambda: self.lv.leverage_exact(self.a))
        if res is not None:
            s = res.scores
            # Drineas et al. (JMLR 2012): exact scores lie in [0, 1] and sum to the rank.
            if abs(float(s.sum()) - res.effective_rank) > 1e-6 * res.effective_rank:
                problems.append(f"sum of scores {s.sum():.9g} != rank {res.effective_rank}")
            if s.min() < 0 or s.max() > 1 + 1e-9:
                problems.append(f"scores outside [0, 1]: [{s.min():.3g}, {s.max():.3g}]")
        self.tally.record("exact", problems)

    def _serial(self, tr, times, counts) -> dict:
        lv, out = self.lv, {}
        for fam in FAMILIES:
            spec = self.specs[fam]
            res, problems = self._op(
                tr, times, f"{fam}_s", fam, lambda: lv.leverage_sketched_trunc(self.a, spec, SV_TOL)
            )
            counts[f"sketch.{fam}.k"] = lv.sketch_rows(spec)
            counts[f"sketch.{fam}.state_bytes"] = state_bytes(fam, lv.sketch_rows(spec), self.wl.d, self.wl.n)
            if res is not None:
                err = float(rel_errors(res.scores, self.ref).max())
                if not err <= BAND:
                    problems.append(f"max relative score error {err:.4g} outside the {BAND} band")
                counts[f"leverage.{fam}.max_rel_err"] = err
                counts[f"svd.{fam}.rank_kept"] = res.effective_rank
                self.details[f"leverage.{fam}.sum_minus_rank"] = float(res.scores.sum()) - res.effective_rank
                out[fam] = res
            self.tally.record(fam, problems)
        errs = [counts.get(f"leverage.{fam}.max_rel_err") for fam in FAMILIES]
        if None not in errs:
            counts["score_err_max"] = max(errs)
        return out

    def _save_serial_scores(self) -> bool:
        """Write the serial CountSketch scores as the curriculum's input CSV."""
        problems = []
        if self.serial_cs is None:
            problems.append("no serial CountSketch scores")
        else:
            self.lv.save_scores(self.serial_cs, self.csv_path)
            if not np.array_equal(self.lv.load_scores(self.csv_path), self.serial_cs.scores):
                problems.append("scores read back from the CSV differ from the ones saved")
        self.tally.record("save-scores", problems)
        return not problems

    def _coordinator(self, tr, times, counts) -> bool:
        csv_path = self.csv_path
        argv = [
            "leverage", "--in", str(self.bin_path), "--method", "sketch-trunc",
            "--sketch", "countsketch", "--eps", str(EPS), "--sv-tol", str(SV_TOL),
            "--workers", str(WORKERS), "--threads", str(self.nproc),
            "--seed", str(self.seed), "--out", str(csv_path),
        ]  # fmt: skip
        if self.wl.countsketch_k is not None:
            argv += ["--rows-override", str(self.wl.countsketch_k)]
        code, problems = self._op(tr, times, "coordinator_s", "coordinator", lambda: self.cli.main(argv))
        if code is not None:
            if code != 0:
                problems.append(f"exit code {code}")
            else:
                scores = self.lv.load_scores(csv_path)
                if self.serial_cs is None or not np.array_equal(scores, self.serial_cs.scores):
                    problems.append("scores read back from the CSV differ from serial leverage_sketched_trunc")
                report = json.loads(Path(f"{csv_path}.report.json").read_text())
                json.loads(Path(f"{csv_path}.json").read_text())
                counts["dist.bytes_communicated"] = report["bytes_communicated"]
                self.details["dist.report"] = report
        self.tally.record("coordinator", problems)
        return not problems

    def _curriculum(self, tr, times, counts, csv_ok: bool) -> None:
        csv_path = self.csv_path

        def both_orders():
            codes = {}
            for kind in POLICIES:
                argv = [
                    "order", "--scores", str(csv_path), "--policy", kind.replace("_", "-"),
                    "--seed", str(self.seed), "--epochs", str(EPOCHS), "--batch", str(BATCH),
                    "--out-dir", str(self.work / kind),
                ]  # fmt: skip
                with tr.span(f"cli.order.{kind}"):
                    codes[kind] = self.cli.main(argv)
            return codes

        if not csv_ok:
            times.setdefault("curriculum_s", []).append(0.0)
            self.tally.record("curriculum", ["no scores CSV to order"])
            return
        codes, problems = self._op(tr, times, "curriculum_s", "curriculum", both_orders)
        if codes is not None:
            n, plan_bytes = self.wl.n, 0
            for kind, code in codes.items():
                if code != 0:
                    problems.append(f"{kind}: exit code {code}")
                    continue
                out_dir = self.work / kind
                manifest = json.loads((out_dir / "order_manifest.json").read_text())
                if len(manifest["epoch_files"]) != EPOCHS:
                    problems.append(f"{kind}: manifest lists {len(manifest['epoch_files'])} epochs")
                for name in manifest["epoch_files"]:
                    path = out_dir / name
                    plan_bytes += path.stat().st_size
                    idx = _read_plan(path)
                    if kind == "dec_swor":
                        if not np.array_equal(np.sort(idx), np.arange(n)):
                            problems.append(f"{name}: dec-swor plan is not a permutation of range({n})")
                    elif idx.size != n or idx.min() < 0 or idx.max() >= n:
                        problems.append(f"{name}: dec-swr plan has {idx.size} indices or one outside range({n})")
            counts["order.plan_bytes"] = plan_bytes
        self.tally.record("curriculum", problems)

    def _stream(self, tr, times, counts) -> None:
        lv, a, n = self.lv, self.a, self.wl.n
        merged = {}

        def stream_all():
            half = n // 2
            for fam in FAMILIES:
                spec = self.specs[fam]
                with tr.span(f"stream.{fam}"):
                    owners = []
                    for lo, hi in ((0, half), (half, n)):
                        owners.append(lv.SketchState(spec, n))
                        for start in range(lo, hi, STREAM_BLOCK):
                            with tr.span("sketch.stream.consume"):
                                lv.consume_rows(owners[-1], a[start : min(start + STREAM_BLOCK, hi)], start)
                    with tr.span("sketch.merge"):
                        both = lv.merge(*owners)
                    del owners
                    with tr.span("sketch.stream.materialize"):
                        data = both.data
                    del both
                    with tr.span("svd.stream"):
                        rank = lv.truncate(lv.thin_svd(data), SV_TOL).rank
                merged[fam] = (data, rank)

        _, problems = self._op(tr, times, "stream_s", "stream", stream_all)
        for fam, (data, rank) in merged.items():
            counts[f"svd.stream.{fam}.rank_kept"] = rank
            if fam not in self.first_stream:
                self.first_stream[fam] = data
            elif not np.array_equal(data, self.first_stream[fam]):
                problems.append(f"{fam}: streamed sketch differs between repeats")
        self.tally.record("stream", problems)

    def check_stream_against_bulk(self, bulk: dict, families) -> None:
        """The streamed-and-merged sketch of each of ``families`` must equal
        bulk ``apply_sketch`` bit for bit; ``bulk`` maps family to a bulk
        ``.data`` already at hand."""
        for fam in families:
            data = bulk.get(fam)
            if data is None:
                data = self.lv.apply_sketch(self.a, self.specs[fam]).data
            streamed = self.first_stream.get(fam)
            ok = streamed is not None and np.array_equal(streamed, data)
            self.tally.record(f"stream-vs-bulk {fam}", [] if ok else ["streamed-and-merged sketch != apply_sketch"])

    # -- traced decomposition of the jobs into their public stages ------

    def probes(self, tr) -> dict:
        """Call each job's public stages one by one under their own spans.

        Returns the bulk sketches and the per-family truncated ranks.
        """
        lv, order = self.lv, self.order
        bulk, kept = {}, {}
        for fam in FAMILIES:
            with tr.span(f"probe.{fam}"):
                with tr.span(f"sketch.{fam}.consume"):
                    state = lv.apply_sketch(self.a, self.specs[fam])
                with tr.span(f"sketch.{fam}.materialize"):
                    bulk[fam] = state.data
                with tr.span(f"svd.sketch.{fam}"):
                    svd = lv.thin_svd(bulk[fam])
                with tr.span(f"svd.truncate.{fam}"):
                    kept[fam] = lv.truncate(svd, SV_TOL).rank
            del state, svd

        # The coordinator CLI command is load, run_distributed, save_scores;
        # elsewhere the input file is loaded and the serial scores saved.
        probe_dir = self.work / "probe"
        probe_dir.mkdir(exist_ok=True)
        with tr.span("probe.coordinator"):
            with tr.span("matrix.load"):
                a2 = lv.load_matrix(self.bin_path, "binary")
            res = self.serial_cs
            if self.wl.coordinator:
                with tr.span("dist.run"):
                    res, _ = lv.run_distributed(
                        a2, self.specs["countsketch"], WORKERS, SV_TOL, max_threads=self.nproc
                    )
            with tr.span("leverage.save_scores"):
                lv.save_scores(res, probe_dir / "scores.csv")
        del a2, res

        for kind in POLICIES:
            with tr.span(f"probe.order.{kind}"):
                with tr.span("leverage.load_scores"):
                    scores = lv.load_scores(self.csv_path)
                with tr.span("order.distribution"):
                    p = lv.scores_to_distribution(scores)
                plans, files = [], []
                for epoch in range(EPOCHS):
                    with tr.span(f"order.{kind}.plan"):
                        plan = lv.make_plan(p, lv.OrderingPolicy(kind, self.seed), epoch)
                    name = f"{kind}_{epoch:04d}.txt"
                    with tr.span("order.save_plan"):
                        order.save_plan(plan, probe_dir / name)
                    plans.append(plan)
                    files.append(name)
                with tr.span("order.save_manifest"):
                    order.save_manifest(plans, files, BATCH, probe_dir / f"{kind}_manifest.json")
        return {"bulk": bulk, "kept": kept}


def per_layer(run: Run, tr, counts: dict, probe: dict, traced_times: dict, untraced_times: dict):
    """Per-layer metrics of the traced repeat, as name -> (value, unit).

    Returns the metrics every workload has (those in BENCHMARK.json) and the
    ``dist`` and ``cli.leverage`` ones only the coordinator workload has.
    """
    wl = run.wl
    m = {}
    for fam in FAMILIES:
        consume = tr.total(f"sketch.{fam}.consume")
        materialize = tr.total(f"sketch.{fam}.materialize")
        svd_s, trunc_s = tr.total(f"svd.sketch.{fam}"), tr.total(f"svd.truncate.{fam}")
        m[f"sketch.{fam}.consume_s"] = (consume, "s")
        m[f"sketch.{fam}.rows_per_s"] = (wl.n / consume, "rows/s")
        m[f"sketch.{fam}.k"] = (counts[f"sketch.{fam}.k"], "count")
        m[f"sketch.{fam}.state_bytes"] = (counts[f"sketch.{fam}.state_bytes"], "bytes_computed")
        m[f"sketch.{fam}.materialize_s"] = (materialize, "s")
        # Derived: the job's time minus the public stages it is made of.
        m[f"leverage.{fam}.score_s"] = (tr.total(f"job.{fam}") - consume - materialize - svd_s - trunc_s, "s")
        m[f"leverage.{fam}.max_rel_err"] = (counts[f"leverage.{fam}.max_rel_err"], "ratio")
        m[f"leverage.{fam}.sum_minus_rank"] = (run.details[f"leverage.{fam}.sum_minus_rank"], "score")
    m["sketch.merge_s"] = (tr.total("sketch.merge"), "s")
    m["sketch.merge_calls"] = (tr.count("sketch.merge"), "count")
    calls = tr.count("sketch.stream.consume")
    m["sketch.stream.calls"] = (calls, "count")
    m["sketch.stream.call_us"] = (1e6 * tr.total("sketch.stream.consume") / calls, "us")

    m["svd.exact_s"] = (tr.total("svd.exact"), "s")
    m["svd.sketch_s"] = (sum(tr.total(f"svd.sketch.{fam}") for fam in FAMILIES), "s")
    m["svd.truncate_s"] = (sum(tr.total(f"svd.truncate.{fam}") for fam in FAMILIES), "s")
    kept = min(probe["kept"].values())
    m["svd.rank_kept"] = (kept, "count")
    m["svd.rank_dropped"] = (wl.d - kept, "count")

    m["leverage.score_s"] = (sum(m[f"leverage.{fam}.score_s"][0] for fam in FAMILIES), "s")
    m["leverage.save_scores_s"] = (tr.total("leverage.save_scores"), "s")
    m["leverage.load_scores_s"] = (tr.total("leverage.load_scores"), "s")
    m["leverage.scores_bytes"] = (counts["leverage.scores_bytes"], "bytes")

    gen = sorted(tr.durations("matrix.gen"))
    m["matrix.gen_s"] = (gen[len(gen) // 2], "s")
    m["matrix.load_s"] = (tr.total("matrix.load"), "s")
    m["matrix.load_bytes"] = (counts["matrix.load_bytes"], "bytes")

    for kind in POLICIES:
        m[f"order.{kind}.plan_s"] = (tr.total(f"order.{kind}.plan"), "s")
    m["order.save_plan_s"] = (tr.total("order.save_plan"), "s")
    m["order.plan_bytes"] = (counts["order.plan_bytes"], "bytes")

    # One probe pass stands for one curriculum pass of the traced repeat.
    cli_order = sum(tr.total(f"cli.order.{kind}") for kind in POLICIES) / CURRICULUM_PASSES
    probe_order = sum(tr.total(f"probe.order.{kind}") for kind in POLICIES)
    m["cli.order.self_s"] = (cli_order - probe_order, "s")
    overhead = sum(map(sum, traced_times.values())) - sum(map(sum, untraced_times.values()))
    m["trace.overhead_s"] = (overhead, "s")

    extra = {}
    if run.wl.coordinator:
        report = run.details["dist.report"]
        worker_s = report["per_worker_times_s"]
        mean = sum(worker_s) / len(worker_s)
        extra["dist.worker_s.max"] = (max(worker_s), "s")
        extra["dist.worker_s.mean"] = (mean, "s")
        extra["dist.imbalance"] = (max(worker_s) / mean, "ratio")
        extra["dist.merge_s"] = (report["merge_time_s"], "s")
        extra["dist.svd_s"] = (report["svd_time_s"], "s")
        extra["dist.score_s"] = (report["score_time_s"], "s")
        extra["dist.bytes_communicated"] = (counts["dist.bytes_communicated"], "bytes_computed")
        extra["cli.leverage.self_s"] = (tr.total("job.coordinator") - tr.total("probe.coordinator"), "s")
    return m, extra


def peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_digest(*dirs: Path) -> str:
    """Hash of the Python sources under ``dirs`` (the package and this
    benchmark), so stored exact counts are only compared against runs of the
    same code."""
    import hashlib

    h = hashlib.sha256()
    for root in dirs:
        for path in sorted(root.rglob("*.py")):
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_record(lv, seed: int) -> dict:
    import platform

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "llc_bytes": _llc_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": _blas_threads()},
        "levsketch": lv.__version__,
        "seed": seed,
    }


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _llc_bytes() -> int | None:
    """Size of the highest-level cache of CPU 0, from sysfs."""
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        if best is None or level > best[0]:
            best = (level, value)
    return None if best is None else best[1]


def _blas_threads() -> int | None:
    """OpenBLAS's current thread count, asked of the library numpy loaded."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.split()[-1]}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None
