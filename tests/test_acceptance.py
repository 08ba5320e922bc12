"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The timing-trend test
(criterion 9) runs a desk-scale benchmark and takes a few minutes; everything
else finishes in seconds.
"""

import json
import time

import numpy as np
import pytest

from levsketch import (
    OrderingPolicy,
    SketchSpec,
    SyntheticSpec,
    apply_sketch,
    gen_synthetic,
    leverage_exact,
    leverage_oracle,
    leverage_sketched,
    leverage_sketched_trunc,
    make_plan,
    run_distributed,
    scores_to_distribution,
    thin_svd,
    truncate,
)
from levsketch.cli import main as cli_main

EPS = 0.5
BAND = 2 * EPS


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _rel_errors(approx: np.ndarray, truth: np.ndarray, floor: float = 1e-6) -> np.ndarray:
    mask = truth >= floor
    return np.abs(approx[mask] - truth[mask]) / truth[mask]


# ---------------------------------------------------------------------------
# 1. Oracle equivalence


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(20, 501))
        d = int(rng.integers(2, 21))
        rank = int(rng.integers(1, d + 1))  # mixes full-rank and rank-deficient
        a = gen_synthetic(SyntheticSpec(n=n, d=d, rank=rank, seed=trial))
        ex = leverage_exact(a)
        orc = leverage_oracle(a)
        assert ex.effective_rank == orc.effective_rank
        worst = max(worst, float(np.abs(ex.scores - orc.scores).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30
    _report(
        "criterion 1 (exact == oracle on 50 matrices)",
        ok,
        f"worst per-score diff {worst:.3e} (tol 1e-8), {elapsed:.1f}s (< 30s)",
    )


# ---------------------------------------------------------------------------
# 2 & 3. Subspace embedding and singular-value preservation, shared sweep


@pytest.fixture(scope="module")
def embedding_sweep():
    t0 = time.perf_counter()
    a = gen_synthetic(SyntheticSpec(n=4096, d=10, rank=10, seed=11))
    sv_a = np.linalg.svd(a, compute_uv=False)
    xrng = np.random.Generator(np.random.Philox(np.random.SeedSequence([99, 0])))
    x = xrng.standard_normal((10, 200))
    x /= np.linalg.norm(x, axis=0)
    den = np.sum((a @ x) ** 2, axis=0)
    out = {"countsketch": [], "osnap": []}
    for family in out:
        for seed in range(20):
            sa = apply_sketch(a, SketchSpec(family, eps=EPS, d=10, seed=seed)).data
            distortion = float(np.abs(np.sum((sa @ x) ** 2, axis=0) / den - 1.0).max())
            sv_err = float(np.abs(np.linalg.svd(sa, compute_uv=False) / sv_a - 1.0).max())
            out[family].append((distortion, sv_err))
    return out, time.perf_counter() - t0


def test_criterion_2_subspace_embedding(embedding_sweep):
    sweep, elapsed = embedding_sweep
    details = []
    ok = elapsed < 60
    for family, rows in sweep.items():
        good = sum(1 for dist, _ in rows if dist <= EPS)
        ok = ok and good >= 19
        details.append(f"{family} {good}/20 seeds with distortion <= {EPS}")
    _report("criterion 2 (subspace embedding at default k)", ok, "; ".join(details) + f", {elapsed:.1f}s (< 60s)")


def test_criterion_3_singular_value_preservation(embedding_sweep):
    sweep, elapsed = embedding_sweep
    details = []
    ok = elapsed < 60
    for family, rows in sweep.items():
        good = sum(1 for _, sv_err in rows if sv_err <= EPS)
        ok = ok and good >= 19
        details.append(f"{family} {good}/20 seeds with max sv ratio error <= {EPS}")
    _report("criterion 3 (singular values preserved)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 4-6. Figure reproductions as properties


def test_criterion_4_full_rank_band():
    a = gen_synthetic(SyntheticSpec(n=4096, d=10, rank=10, seed=11))
    truth = leverage_exact(a).scores
    details = []
    ok = True
    for family in ("countsketch", "srht"):
        res = leverage_sketched(a, SketchSpec(family, eps=EPS, d=10, seed=5))
        worst = float(_rel_errors(res.scores, truth).max())
        ok = ok and worst <= BAND
        details.append(f"{family} max rel err {worst:.3f}")
    _report("criterion 4 (full rank: scores within 2*eps)", ok, "; ".join(details) + f" (band {BAND})")


def test_criterion_5_rank_deficient_failure():
    a = gen_synthetic(SyntheticSpec(n=4096, d=10, rank=5, seed=11))
    truth = leverage_exact(a).scores
    res = leverage_sketched(a, SketchSpec("countsketch", eps=EPS, d=10, seed=5))
    worst = float(_rel_errors(res.scores, truth).max())
    ok = worst > BAND
    _report(
        "criterion 5 (rank d/2: uncorrected method breaks the band)",
        ok,
        f"countsketch max rel err {worst:.2f} > {BAND}",
    )


def test_criterion_6_truncation_restores_band():
    details = []
    ok = True
    # rank d/2 input, as in the uncorrected failure case
    a_half = gen_synthetic(SyntheticSpec(n=4096, d=10, rank=5, seed=11))
    truth_half = leverage_exact(a_half).scores
    # low rank plus high-dimensional noise
    a_noise = gen_synthetic(SyntheticSpec(n=2048, d=200, rank=50, noise_sigma=1e-3, seed=11))
    svd_noise = thin_svd(a_noise)
    for sv_tol in (1e-2, 1e-3):
        res = leverage_sketched_trunc(a_half, SketchSpec("countsketch", eps=EPS, d=10, seed=5), sv_tol)
        worst = float(_rel_errors(res.scores, truth_half).max())
        ok = ok and worst <= BAND and res.effective_rank == 5
        details.append(f"rank-5 sv_tol={sv_tol}: r'={res.effective_rank}, max rel {worst:.3f}")

        base = truncate(svd_noise, sv_tol)
        truth_noise = np.einsum("ij,ij->i", base.u, base.u)
        res = leverage_sketched_trunc(a_noise, SketchSpec("osnap", eps=EPS, d=200, seed=5), sv_tol)
        worst = float(_rel_errors(res.scores, truth_noise).max())
        ok = ok and worst <= BAND and res.effective_rank == 50
        details.append(f"rank-50+noise sv_tol={sv_tol}: r'={res.effective_rank}, max rel {worst:.3f}")
    _report("criterion 6 (truncation restores the 2*eps band)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 7. Distributed equals serial


def test_criterion_7_distributed_bit_equals_serial():
    t0 = time.perf_counter()
    mismatches = 0
    runs = 0
    for seed in range(5):
        a = gen_synthetic(SyntheticSpec(n=1000, d=16, rank=16, seed=100 + seed))
        for family in ("countsketch", "osnap"):
            spec = SketchSpec(family, eps=EPS, d=16, seed=seed)
            serial = leverage_sketched_trunc(a, spec, 1e-3)
            for workers in (1, 2, 4, 8):
                res, _ = run_distributed(a, spec, workers, 1e-3)
                runs += 1
                if not np.array_equal(serial.scores, res.scores):
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10
    _report(
        "criterion 7 (distributed == serial bit-for-bit)",
        ok,
        f"{runs - mismatches}/{runs} runs identical across w in {{1,2,4,8}}, 5 seeds, {elapsed:.1f}s (< 10s)",
    )


# ---------------------------------------------------------------------------
# 8. Ordering properties


def test_criterion_8_ordering_properties():
    details = []
    ok = True

    # permutation / multiset invariants at n=1000
    rng = np.random.default_rng(7)
    scores = rng.random(1000)
    p = scores_to_distribution(scores)
    for kind in ("shuffle", "dec", "dec_swor"):
        plan = make_plan(p, OrderingPolicy(kind, seed=1), epoch=0)
        ok = ok and sorted(plan.indices.tolist()) == list(range(1000))
    swr = make_plan(p, OrderingPolicy("dec_swr", seed=1), epoch=0)
    ok = ok and swr.indices.shape == (1000,) and swr.indices.min() >= 0 and swr.indices.max() < 1000
    details.append("permutation/multiset invariants hold at n=1000")

    # dec_swor first-draw law, 100k trials against 3-sigma binomial bounds
    p5 = scores_to_distribution(np.array([5.0, 3.0, 1.0, 0.5, 0.5]))
    trials = 100_000
    counts = np.zeros(5)
    policy = OrderingPolicy("dec_swor", seed=2)
    for epoch in range(trials):
        counts[make_plan(p5, policy, epoch).indices[0]] += 1
    freq = counts / trials
    sigma = np.sqrt(p5 * (1 - p5) / trials)
    devs = np.abs(freq - p5) / sigma
    ok = ok and bool((devs <= 3).all())
    details.append(f"first-draw max deviation {devs.max():.2f} sigma (<= 3)")

    # scaling all scores leaves every plan unchanged
    for kind in ("shuffle", "dec", "dec_swr", "dec_swor"):
        policy = OrderingPolicy(kind, seed=3)
        base = make_plan(scores_to_distribution(scores), policy, epoch=4).indices
        scaled = make_plan(scores_to_distribution(273.5 * scores), policy, epoch=4).indices
        ok = ok and np.array_equal(base, scaled)
    details.append("plans invariant under score scaling")

    _report("criterion 8 (ordering properties)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 9. Timing trend


def test_criterion_9_timing_trend(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "bench.csv"
    code = cli_main([
        "bench", "--log2-n", "14,18", "--d", "256", "--methods", "exact,osnap",
        "--eps", "0.5", "--sv-tol", "1e-3", "--repeats", "2", "--seed", "1",
        "--out", str(out),
    ])
    assert code == 0
    medians = {}
    summary = (tmp_path / "bench_summary.csv").read_text().strip().split("\n")[1:]
    for line in summary:
        n, d, method, eps, med = line.split(",")
        medians[(int(n), method)] = float(med)
    ratio_14 = medians[(2**14, "osnap")] / medians[(2**14, "exact")]
    ratio_18 = medians[(2**18, "osnap")] / medians[(2**18, "exact")]
    elapsed = time.perf_counter() - t0
    ok = ratio_18 < ratio_14 and elapsed < 600
    _report(
        "criterion 9 (sketch/svd time ratio falls as n grows)",
        ok,
        f"ratio at 2^14 = {ratio_14:.2f}, at 2^18 = {ratio_18:.2f}, {elapsed:.0f}s (< 600s)",
    )


# ---------------------------------------------------------------------------
# 10. Determinism of the pipeline


_VOLATILE_KEYS = {"wall_time_s", "per_worker_times_s", "merge_time_s", "svd_time_s", "score_time_s"}


def _strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: _strip_volatile(v) for k, v in obj.items() if k not in _VOLATILE_KEYS}
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


def _run_pipeline(base, monkeypatch):
    # identical flags both runs: operate on relative paths from inside `base`
    base.mkdir()
    monkeypatch.chdir(base)
    assert cli_main(["gen", "--n", "300", "--d", "12", "--rank", "12", "--seed", "5", "--out", "a.bin"]) == 0
    assert cli_main([
        "leverage", "--in", "a.bin", "--method", "sketch-trunc", "--sketch", "countsketch",
        "--eps", "0.5", "--sv-tol", "1e-3", "--workers", "2", "--seed", "5", "--out", "scores.csv",
    ]) == 0
    assert cli_main([
        "order", "--scores", "scores.csv", "--policy", "dec-swr", "--seed", "5",
        "--epochs", "2", "--batch", "16", "--out-dir", "plans",
    ]) == 0
    assert cli_main([
        "figure", "--kind", "rank-full", "--n", "256", "--d", "8", "--seed", "5",
        "--out", "fig.csv",
    ]) == 0


def test_criterion_10_pipeline_determinism(tmp_path, monkeypatch):
    _run_pipeline(tmp_path / "run1", monkeypatch)
    _run_pipeline(tmp_path / "run2", monkeypatch)
    files = sorted(p.relative_to(tmp_path / "run1") for p in (tmp_path / "run1").rglob("*") if p.is_file())
    compared = 0
    ok = True
    for rel in files:
        f1, f2 = tmp_path / "run1" / rel, tmp_path / "run2" / rel
        if rel.suffix == ".json":
            # timing fields are measurements, not results; everything else must match
            j1 = _strip_volatile(json.loads(f1.read_text()))
            j2 = _strip_volatile(json.loads(f2.read_text()))
            ok = ok and j1 == j2
        else:
            ok = ok and f1.read_bytes() == f2.read_bytes()
        compared += 1
    _report(
        "criterion 10 (same seed, same flags, identical outputs)",
        ok and compared >= 8,
        f"{compared} output files compared across two runs (timing metadata excluded)",
    )
