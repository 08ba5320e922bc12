import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from levsketch import (
    OrderingPolicy,
    SketchSpec,
    SyntheticSpec,
    config,
    gen_synthetic,
    leverage_exact,
    leverage_sketched,
    load_matrix,
    load_scores,
    make_plan,
    run_distributed,
    scores_to_distribution,
    singular_values,
)
from levsketch.cli import main
from levsketch.leverage import _load_scores_bytes
from levsketch.order import save_plan
from levsketch.sketch import FAMILIES


def run(argv):
    return main(argv)


def test_gen_writes_matrix_and_metadata(tmp_path):
    out = tmp_path / "a.bin"
    assert run(["gen", "--n", "50", "--d", "6", "--rank", "3", "--seed", "9", "--out", str(out)]) == 0
    m = load_matrix(out)
    assert m.shape == (50, 6)
    meta = json.loads((tmp_path / "a.bin.json").read_text())
    assert meta["command"] == "gen"
    assert meta["seed"] == 9
    assert meta["generator"] == "philox4x64"
    assert meta["flags"]["rank"] == 3
    assert set(meta["versions"]) == {"levsketch", "numpy", "python", "scipy"}


def test_leverage_exact_pipeline(tmp_path):
    mat = tmp_path / "a.bin"
    out = tmp_path / "l.csv"
    run(["gen", "--n", "40", "--d", "5", "--out", str(mat)])
    assert run(["leverage", "--in", str(mat), "--method", "exact", "--out", str(out)]) == 0
    scores = load_scores(out)
    assert scores.shape == (40,)
    meta = json.loads((tmp_path / "l.csv.json").read_text())
    assert meta["method"] == "exact"
    assert meta["sketch"] is None  # exact has no sketch
    assert meta["effective_rank"] == 5
    assert meta["wall_time_s"] is not None


def test_leverage_sidecar_records_the_exact_preconditioner(tmp_path):
    tall, square = tmp_path / "tall.bin", tmp_path / "square.bin"
    run(["gen", "--n", "40", "--d", "5", "--out", str(tall)])
    run(["gen", "--n", "20", "--d", "5", "--out", str(square)])
    metas = {}
    for name, mat, method in (("tall", tall, "exact"), ("square", square, "exact"), ("trunc", tall, "sketch-trunc")):
        out = tmp_path / f"{name}.csv"
        assert run(["leverage", "--in", str(mat), "--method", method, "--out", str(out)]) == 0
        metas[name] = json.loads((tmp_path / f"{name}.csv.json").read_text())
    # n > 4d: the internal CountSketch of 4d rows, as its sketch record
    assert metas["tall"]["preconditioner"] == SketchSpec("countsketch", 0.5, 5, rows_override=20).to_json_dict()
    assert metas["tall"]["preconditioner"]["k"] == 20
    assert metas["tall"]["sketch"] is None
    # n <= 4d: A is its own sketch; the sketched methods have none
    assert metas["square"]["preconditioner"] is None
    assert metas["trunc"]["preconditioner"] is None


def test_leverage_sketch_trunc_distributed(tmp_path):
    mat = tmp_path / "a.bin"
    run(["gen", "--n", "200", "--d", "8", "--out", str(mat)])
    out = tmp_path / "l.csv"
    code = run([
        "leverage", "--in", str(mat), "--method", "sketch-trunc", "--sketch", "osnap",
        "--eps", "0.5", "--sv-tol", "1e-3", "--workers", "4", "--out", str(out),
    ])
    assert code == 0
    report = json.loads((tmp_path / "l.csv.report.json").read_text())
    assert report["workers"] == 4
    # all 200 rows lie in one partly held leaf, so the workers ship them raw
    assert report["bytes_communicated"] == 200 * 8 * 8
    serial_out = tmp_path / "serial.csv"
    run([
        "leverage", "--in", str(mat), "--method", "sketch-trunc", "--sketch", "osnap",
        "--eps", "0.5", "--sv-tol", "1e-3", "--workers", "1", "--out", str(serial_out),
    ])
    assert load_scores(out).tolist() == load_scores(serial_out).tolist()


def test_report_file_is_the_library_report(tmp_path):
    mat = tmp_path / "a.bin"
    run(["gen", "--n", "3000", "--d", "8", "--seed", "4", "--out", str(mat)])
    out = tmp_path / "l.csv"
    code = run([
        "leverage", "--in", str(mat), "--method", "sketch-trunc", "--sv-tol", "1e-3",
        "--workers", "3", "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    written = json.loads((tmp_path / "l.csv.report.json").read_text())
    expected = run_distributed(load_matrix(mat), SketchSpec("countsketch", 0.5, 8, seed=2), 3, 1e-3)[0].report
    assert set(written) == set(expected) == {
        "workers", "per_worker_times_s", "merge_time_s", "svd_route", "svd_time_s",
        "score_time_s", "bytes_communicated", "per_worker_rows", "sketch",
    }  # fmt: skip
    timings = {"per_worker_times_s", "merge_time_s", "svd_time_s", "score_time_s"}
    assert {k: v for k, v in written.items() if k not in timings} == {
        k: v for k, v in expected.items() if k not in timings
    }
    assert len(written["per_worker_times_s"]) == 3


def test_leverage_sketch_workers_match_serial_bytes(tmp_path):
    mat = tmp_path / "a.bin"
    run(["gen", "--n", "200", "--d", "8", "--seed", "3", "--out", str(mat)])
    for w in (1, 3):
        code = run([
            "leverage", "--in", str(mat), "--method", "sketch", "--workers", str(w),
            "--out", str(tmp_path / f"w{w}.csv"),
        ])
        assert code == 0
    assert (tmp_path / "w3.csv").read_bytes() == (tmp_path / "w1.csv").read_bytes()
    for w in (1, 3):
        report = json.loads((tmp_path / f"w{w}.csv.report.json").read_text())
        assert report["workers"] == w
    meta = json.loads((tmp_path / "w3.csv.json").read_text())
    assert meta["method"] == "sketch"
    assert meta["sv_tol"] is None


def test_leverage_csv_input_with_header(tmp_path):
    src = tmp_path / "a.csv"
    src.write_text("x,y\n1,0\n0,1\n1,1\n")
    out = tmp_path / "l.csv"
    assert run(["leverage", "--in", str(src), "--header", "--method", "oracle", "--out", str(out)]) == 0
    assert load_scores(out).shape == (3,)


def test_leverage_reads_the_format_from_the_file(tmp_path):
    mat = tmp_path / "a.csv"  # a binary matrix named *.csv
    assert run(["gen", "--n", "40", "--d", "4", "--format", "binary", "--out", str(mat)]) == 0
    assert run(["leverage", "--in", str(mat), "--method", "exact", "--out", str(tmp_path / "l.csv")]) == 0
    with pytest.raises(SystemExit) as exc:
        run(["leverage", "--in", str(mat), "--format", "binary", "--out", str(tmp_path / "m.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--in", "--config"])
def test_a_file_that_is_not_utf8_exits_1(tmp_path, capsys, flag):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"1,2\n\xff\xfe,3\n")
    out = tmp_path / "l.csv"
    argv = ["leverage", "--in", str(bad), "--method", "exact", "--out", str(out)]
    if flag == "--config":
        mat = tmp_path / "a.bin"
        assert run(["gen", "--n", "40", "--d", "4", "--out", str(mat)]) == 0
        argv[2] = str(mat)
        argv += ["--config", str(bad)]
    assert run(argv) == 1
    assert "levsketch leverage: error:" in capsys.readouterr().err
    assert not out.exists()


def test_sidecars_record_the_sketch_as_its_spec_does(tmp_path):
    mat = tmp_path / "a.bin"
    assert run(["gen", "--n", "300", "--d", "8", "--seed", "2", "--out", str(mat)]) == 0
    for family in FAMILIES:
        out = tmp_path / f"{family}.csv"
        argv = ["leverage", "--in", str(mat), "--method", "sketch-trunc", "--sketch", family,
                "--workers", "2", "--seed", "5", "--out", str(out)]
        assert run(argv) == 0
        record = SketchSpec(family, eps=0.5, d=8, seed=5).to_json_dict()
        assert json.loads(Path(f"{out}.json").read_text())["sketch"] == record
        assert json.loads(Path(f"{out}.report.json").read_text())["sketch"] == record


def test_order_pipeline(tmp_path):
    mat = tmp_path / "a.bin"
    scores = tmp_path / "l.csv"
    run(["gen", "--n", "30", "--d", "4", "--out", str(mat)])
    run(["leverage", "--in", str(mat), "--method", "exact", "--out", str(scores)])
    code = run([
        "order", "--scores", str(scores), "--policy", "dec-swor", "--seed", "3",
        "--epochs", "2", "--batch", "8", "--out-dir", str(tmp_path / "plans"),
    ])
    assert code == 0
    manifest = json.loads((tmp_path / "plans" / "order_manifest.json").read_text())
    assert manifest["epochs"] == 2
    assert manifest["policy"] == "dec_swor"
    assert manifest["batch_size"] == 8
    for name in manifest["epoch_files"]:
        lines = (tmp_path / "plans" / name).read_text().split()
        assert sorted(int(v) for v in lines) == list(range(30))


@pytest.mark.parametrize("policy", ["shuffle", "dec", "dec-swr", "dec-swor"])
def test_order_epoch_files_hold_make_plan(tmp_path, policy):
    mat, scores, out = tmp_path / "a.bin", tmp_path / "l.csv", tmp_path / "plans"
    assert run(["gen", "--n", "300", "--d", "4", "--seed", "2", "--out", str(mat)]) == 0
    assert run(["leverage", "--in", str(mat), "--out", str(scores)]) == 0
    argv = ["order", "--scores", str(scores), "--policy", policy, "--seed", "4",
            "--epochs", "3", "--batch", "64", "--out-dir", str(out)]
    assert run(argv) == 0
    manifest = json.loads((out / "order_manifest.json").read_text())
    assert manifest["batches_per_epoch"] == 5
    p = scores_to_distribution(load_scores(scores))
    for epoch, name in enumerate(manifest["epoch_files"]):
        plan = make_plan(p, OrderingPolicy(policy.replace("-", "_"), seed=4), epoch)
        text = (out / name).read_text()
        assert text.endswith("\n")
        assert np.array_equal(np.array(text.split("\n")[:-1], dtype=np.int64), plan.indices)


def test_order_holds_one_plan_at_a_time(tmp_path):
    # 200 epochs of 4096 indices: the peak stays within the cap that the
    # scores file and one plan (32 bytes an item) need, not 200 plans' 6.5 MB
    mat, scores, out = tmp_path / "a.bin", tmp_path / "l.csv", tmp_path / "plans"
    assert run(["gen", "--n", "4096", "--d", "4", "--seed", "2", "--out", str(mat)]) == 0
    assert run(["leverage", "--in", str(mat), "--out", str(scores)]) == 0
    need = max(_load_scores_bytes(scores.stat().st_size), 32 * 4096)
    argv = ["order", "--scores", str(scores), "--policy", "shuffle", "--seed", "4", "--epochs", "200",
            "--batch", "64", "--mem-cap", str(need), "--out-dir", str(out)]
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need
    manifest = json.loads((out / "order_manifest.json").read_text())
    files = [f"order_epoch_{epoch:04d}.txt" for epoch in range(200)]
    fields = {"policy": "shuffle", "seed": 4, "epochs": 200, "n": 4096, "batch_size": 64,
              "batches_per_epoch": 64, "epoch_files": files}
    assert {key: manifest[key] for key in fields} == fields
    p = scores_to_distribution(load_scores(scores))
    for epoch in (0, 1, 199):
        save_plan(make_plan(p, OrderingPolicy("shuffle", seed=4), epoch), tmp_path / "ref.txt")
        assert (out / files[epoch]).read_bytes() == (tmp_path / "ref.txt").read_bytes()


def test_unknown_method_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["leverage", "--in", "x.bin", "--method", "magic", "--out", "y.csv"])
    assert exc.value.code == 2


def test_missing_input_exits_1(tmp_path):
    code = run(["leverage", "--in", str(tmp_path / "nope.bin"), "--method", "exact", "--out", str(tmp_path / "l.csv")])
    assert code == 1


def test_runtime_error_exits_1(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    code = run(["leverage", "--in", str(bad), "--method", "exact", "--out", str(tmp_path / "l.csv")])
    assert code == 1


def write_raw_matrix(a, path):
    """``a`` in the binary matrix format, non-finite entries included, which
    save_matrix refuses to write."""
    path.write_bytes(struct.pack("<4sIQQ", b"LVSK", 1, *a.shape) + a.astype("<f8").tobytes())


def assert_refused_as_non_finite(tmp_path, capsys, argv):
    """``leverage`` with ``argv`` exits 1 with one error line, and writes nothing."""
    files = set(tmp_path.iterdir())
    assert run(["leverage", *argv, "--out", str(tmp_path / "l.csv")]) == 1
    assert capsys.readouterr().err == "levsketch leverage: error: matrix contains non-finite entries\n"
    assert set(tmp_path.iterdir()) == files


@pytest.mark.parametrize("workers", [1, 3, 8])
@pytest.mark.parametrize("family", FAMILIES)
def test_leverage_refuses_a_non_finite_input_and_writes_nothing(tmp_path, capsys, family, workers):
    # rows in the first leaf, a leaf cut by worker boundaries, a middle leaf
    # and the short last leaf; the file is read unchecked, and the entry is
    # caught from the sketch
    a = gen_synthetic(SyntheticSpec(n=3372, d=4, rank=4, seed=70))
    mat = tmp_path / "a.bin"
    for bad in (np.nan, np.inf, -np.inf):
        for row in (0, 1130, 2600, 3371):
            b = a.copy()
            b[row, 1] = bad
            write_raw_matrix(b, mat)
            argv = ["--in", str(mat), "--method", "sketch-trunc", "--sketch", family, "--workers", str(workers)]
            assert_refused_as_non_finite(tmp_path, capsys, argv)


def test_leverage_exact_and_oracle_refuse_a_non_finite_input_and_write_nothing(tmp_path, capsys):
    # exact at 3372 rows through its refused preconditioner, and at 16 rows
    # (n <= 4d) with A its own sketch; the oracle checks A itself
    mat = tmp_path / "a.bin"
    for n, rows in ((3372, (0, 1130, 3371)), (16, (0, 15))):
        a = gen_synthetic(SyntheticSpec(n=n, d=4, rank=4, seed=71))
        for bad in (np.nan, np.inf, -np.inf):
            for row in rows:
                b = a.copy()
                b[row, 3] = bad
                write_raw_matrix(b, mat)
                for method in ("exact", "oracle") if n == 16 else ("exact",):
                    assert_refused_as_non_finite(tmp_path, capsys, ["--in", str(mat), "--method", method])


def test_leverage_refuses_a_finite_input_whose_sketch_svd_overflows(tmp_path, capsys):
    # finite entries whose sketch is finite, but whose sketch's sigma_1
    # overflows when the Gram route scales it back: refused, not scored as
    # zeros at rank 0
    a = gen_synthetic(SyntheticSpec(n=3372, d=4, rank=4, seed=1))[:14] * 1e300
    a[:, 0] = 1e308
    mat = tmp_path / "a.bin"
    write_raw_matrix(a, mat)
    argv = ["--in", str(mat), "--method", "sketch-trunc", "--sketch", "countsketch", "--seed", "2"]
    assert_refused_as_non_finite(tmp_path, capsys, argv)


def test_linear_algebra_failure_exits_1(tmp_path, monkeypatch, capsys):
    mat = tmp_path / "a.bin"
    assert run(["gen", "--n", "40", "--d", "5", "--out", str(mat)]) == 0

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    out = tmp_path / "l.csv"
    assert run(["leverage", "--in", str(mat), "--method", "exact", "--out", str(out)]) == 1
    assert "levsketch leverage: error: Matrix is not positive definite" in capsys.readouterr().err
    assert not out.exists()


def test_bench_smoke_single_cell(tmp_path):
    import time

    out = tmp_path / "bench.csv"
    t0 = time.perf_counter()
    code = run([
        "bench", "--log2-n", "10", "--d", "16", "--methods", "exact,countsketch",
        "--eps", "0.5", "--repeats", "3", "--out", str(out),
    ])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 5.0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,d,method,eps,repeat,seconds,status"
    assert len(lines) == 1 + 2 * 3  # two methods x three repeats
    assert all(line.endswith("ok") for line in lines[1:])
    summary = (tmp_path / "bench_summary.csv").read_text().strip().split("\n")
    assert summary[0] == "n,d,method,eps,median_seconds"
    assert len(summary) == 3


def test_bench_sweeps_eps(tmp_path):
    out = tmp_path / "bench.csv"
    code = run([
        "bench", "--log2-n", "8", "--d", "8", "--methods", "exact,countsketch",
        "--eps", "0.5,0.9", "--repeats", "1", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")[1:]
    cells = sorted(tuple(line.split(",")[2:4]) for line in lines)
    assert cells == [("countsketch", "0.5"), ("countsketch", "0.9"), ("exact", "0.5"), ("exact", "0.9")]


def test_bench_runs_each_cell_once_untimed(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr("levsketch.cli._bench_cell", lambda a, method, *rest: calls.append(method) or 1.0)
    out = tmp_path / "bench.csv"
    code = run([
        "bench", "--log2-n", "6", "--d", "4", "--methods", "exact,osnap",
        "--repeats", "2", "--out", str(out),
    ])
    assert code == 0
    assert calls == ["exact"] * 3 + ["osnap"] * 3
    assert len(out.read_text().strip().split("\n")) == 1 + 2 * 2


def test_bench_writes_each_timing_and_its_median_to_the_last_bit(tmp_path, monkeypatch):
    # each cell's first call is the untimed one; four timed repeats per cell
    timed = iter([9.0, 0.1, 0.2, 0.4, 0.7, 9.0, 2.0**-40, 5e-324, 1 / 3, 7.000000000000001])
    monkeypatch.setattr("levsketch.cli._bench_cell", lambda *args: next(timed))
    out = tmp_path / "bench.csv"
    code = run([
        "bench", "--log2-n", "6", "--d", "4", "--methods", "osnap",
        "--eps", "0.5,0.25", "--repeats", "4", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text() == (
        "n,d,method,eps,repeat,seconds,status\n"
        "64,4,osnap,0.5,0,0.10000000000000001,ok\n"
        "64,4,osnap,0.5,1,0.20000000000000001,ok\n"
        "64,4,osnap,0.5,2,0.40000000000000002,ok\n"
        "64,4,osnap,0.5,3,0.69999999999999996,ok\n"
        "64,4,osnap,0.25,0,9.0949470177292824e-13,ok\n"
        "64,4,osnap,0.25,1,4.9406564584124654e-324,ok\n"
        "64,4,osnap,0.25,2,0.33333333333333331,ok\n"
        "64,4,osnap,0.25,3,7.0000000000000009,ok\n"
    )
    # one median per cell, sorted by cell: (2^-40 + 1/3) / 2 at eps 0.25 and
    # (0.2 + 0.4) / 2 at eps 0.5
    assert (tmp_path / "bench_summary.csv").read_text() == (
        "n,d,method,eps,median_seconds\n"
        "64,4,osnap,0.25,0.1666666666671214\n"
        "64,4,osnap,0.5,0.30000000000000004\n"
    )


def test_bench_capacity_cells_skipped(tmp_path):
    out = tmp_path / "bench.csv"
    # exact at 16 x 64 (rank 16) needs 80000 bytes for the R-factor SVD and
    # 20736 for the basis and one 16-row score block; the 65536 x 64 input
    # alone needs more than 33 MB
    code = run([
        "bench", "--log2-n", "4,16", "--d", "64", "--methods", "exact",
        "--repeats", "1", "--mem-cap", "200000", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")[1:]
    statuses = {line.split(",")[0]: line.split(",")[-1] for line in lines}
    assert statuses["16"] == "ok"
    assert statuses["65536"] == "skipped"


def test_figure_kinds(tmp_path):
    for kind, n, d in (("rank-full", 256, 6), ("rank-half", 256, 6), ("trunc-fix", 256, 6)):
        out = tmp_path / f"{kind}.csv"
        code = run(["figure", "--kind", kind, "--n", str(n), "--d", str(d), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "true_score,approx_score"
        assert len(lines) == 1 + n
    a = gen_synthetic(SyntheticSpec(n=256, d=6, rank=6))
    exact, approx = leverage_exact(a).scores, leverage_sketched(a, SketchSpec("countsketch", eps=0.5, d=6)).scores
    lines = ["%.17g,%.17g" % pair for pair in zip(exact.tolist(), approx.tolist())]
    assert (tmp_path / "rank-full.csv").read_text() == "\n".join(["true_score,approx_score", *lines, ""])
    out = tmp_path / "spectrum.csv"
    assert run(["figure", "--kind", "spectrum", "--n", "128", "--d", "64", "--out", str(out)]) == 0
    sigma = singular_values(gen_synthetic(SyntheticSpec(n=128, d=64, rank=16, noise_sigma=1e-3)))
    lines = ["%d,%.17g" % pair for pair in enumerate(sigma.tolist())]
    assert out.read_text() == "\n".join(["component,sigma", *lines, ""])


def test_figure_spectrum_is_under_the_memory_cap(tmp_path, capsys):
    # 128 x 64 at rank 16: generating it needs 163840 bytes, its R-factor
    # SVD 590336
    argv = ["figure", "--kind", "spectrum", "--n", "128", "--d", "64", "--out", str(tmp_path / "s.csv")]
    assert run(argv + ["--mem-cap", "300000"]) == 1
    assert "R-factor SVD of a 128x64 matrix needs 590336 bytes" in capsys.readouterr().err
    assert run(argv + ["--mem-cap", "590336"]) == 0


def _figure_band_fractions(path, band=1.0, floor=1e-6):
    pairs = np.loadtxt(path, delimiter=",", skiprows=1)
    truth, approx = pairs[:, 0], pairs[:, 1]
    mask = truth >= floor
    rel = np.abs(approx[mask] - truth[mask]) / truth[mask]
    return float((rel <= band).mean())


def test_figure_bands(tmp_path):
    # full rank: at least 95% of points inside the relative 2*eps band
    full = tmp_path / "full.csv"
    run(["figure", "--kind", "rank-full", "--seed", "3", "--out", str(full)])
    assert _figure_band_fractions(full) >= 0.95
    # rank d/2: the band breaks without truncation
    half = tmp_path / "half.csv"
    run(["figure", "--kind", "rank-half", "--seed", "3", "--out", str(half)])
    assert _figure_band_fractions(half) < 1.0
    # and truncation restores it
    fixed = tmp_path / "fixed.csv"
    run(["figure", "--kind", "trunc-fix", "--seed", "3", "--out", str(fixed)])
    assert _figure_band_fractions(fixed) >= 0.95


def test_config_file_seeds_defaults_but_flags_win(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("# defaults for gen\nn=25\nd=4\nout=%s\nseed=5\n" % (tmp_path / "cfg_out.bin"))
    assert run(["gen", "--config", str(cfg), "--seed", "6"]) == 0
    meta = json.loads((tmp_path / "cfg_out.bin.json").read_text())
    assert meta["flags"]["n"] == 25
    assert meta["seed"] == 6  # explicit flag beat the config value
    with_cfg = load_matrix(tmp_path / "cfg_out.bin")
    assert with_cfg.shape == (25, 4)
    assert run(["gen", f"--config={cfg}"]) == 0  # the joined form of the flag
    assert json.loads((tmp_path / "cfg_out.bin.json").read_text())["seed"] == 5


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg"
    for text in ("frobnicate=1\n", "n 4\n"):  # a key that is no flag; a line with no =
        cfg.write_text(text)
        assert run(["gen", "--config", str(cfg), "--n", "4", "--d", "2", "--out", str(tmp_path / "x.bin")]) == 1
        assert not (tmp_path / "x.bin").exists()


def test_sizing_constant_is_not_an_input(tmp_path):
    mat = tmp_path / "a.bin"
    assert run(["gen", "--n", "40", "--d", "4", "--out", str(mat)]) == 0
    base = ["leverage", "--in", str(mat), "--method", "sketch-trunc", "--out", str(tmp_path / "l.csv")]
    with pytest.raises(SystemExit) as exc:
        run(base + ["--sketch-c", "2"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg"
    cfg.write_text("sketch_c=2\n")
    assert run(base + ["--config", str(cfg)]) == 1
    assert not (tmp_path / "l.csv").exists()
    assert run(base) == 0
    meta = json.loads((tmp_path / "l.csv.json").read_text())
    assert meta["sketch"]["eps"] == 0.5
    assert "sizing_c" not in meta["sketch"]


def test_osnap_s_on_another_family_exits_1(tmp_path, capsys):
    mat = tmp_path / "a.bin"
    assert run(["gen", "--n", "40", "--d", "4", "--out", str(mat)]) == 0
    code = run([
        "leverage", "--in", str(mat), "--method", "sketch-trunc", "--sketch", "countsketch",
        "--osnap-s", "4", "--out", str(tmp_path / "l.csv"),
    ])
    assert code == 1
    assert "osnap_s applies to OSNAP only" in capsys.readouterr().err
    assert not (tmp_path / "l.csv").exists()


def test_deterministic_outputs_across_runs(tmp_path):
    args_a = ["gen", "--n", "64", "--d", "6", "--seed", "42", "--out"]
    run(args_a + [str(tmp_path / "a1.bin")])
    run(args_a + [str(tmp_path / "a2.bin")])
    assert (tmp_path / "a1.bin").read_bytes() == (tmp_path / "a2.bin").read_bytes()
    lev = ["leverage", "--in", str(tmp_path / "a1.bin"), "--method", "sketch-trunc",
           "--sketch", "countsketch", "--seed", "7", "--out"]
    run(lev + [str(tmp_path / "l1.csv")])
    run(lev + [str(tmp_path / "l2.csv")])
    assert (tmp_path / "l1.csv").read_bytes() == (tmp_path / "l2.csv").read_bytes()


def test_leverage_mem_cap_covers_the_load_and_the_exact_method(tmp_path):
    mat = tmp_path / "a.bin"
    assert run(["gen", "--n", "2000", "--d", "16", "--out", str(mat)]) == 0
    base = ["leverage", "--in", str(mat), "--method", "exact", "--out", str(tmp_path / "l.csv")]
    # 1000 bytes cannot hold the 256000-byte input; 300000 holds it but not the R-factor SVD
    assert run(base + ["--mem-cap", "1000"]) == 1
    assert run(base + ["--mem-cap", "300000"]) == 1
    assert not (tmp_path / "l.csv").exists()
    assert run(base) == 0


def test_leverage_mem_cap_reaches_the_worker_threads(tmp_path, capsys):
    mat = tmp_path / "a.bin"
    assert run(["gen", "--n", "20000", "--d", "64", "--out", str(mat)]) == 0
    argv = ["leverage", "--in", str(mat), "--method", "sketch-trunc", "--workers", "2",
            "--mem-cap", "12000000", "--out", str(tmp_path / "l.csv")]
    # the 10240000-byte input fits; each worker's sketch state does not
    assert run(argv) == 1
    assert "sketch tree and leaf kernel needs 38377216 bytes" in capsys.readouterr().err


@pytest.mark.parametrize("env", [None, "123456789"])
@pytest.mark.parametrize("n, code", [(10, 0), (1000, 1)])
def test_main_restores_the_memory_cap(tmp_path, monkeypatch, env, n, code):
    if env is None:
        monkeypatch.delenv("LVSK_MEM_CAP", raising=False)
    else:
        monkeypatch.setenv("LVSK_MEM_CAP", env)
    before = config.mem_cap()
    cfg = tmp_path / "cfg"
    cfg.write_text("mem-cap=5000\n")
    gen = ["gen", "--n", str(n), "--d", "10", "--out", str(tmp_path / "a.bin")]
    # 10 x 10 doubles fit in 5000 bytes; 1000 x 10 do not
    assert run(gen + ["--mem-cap", "5000"]) == code
    assert config.mem_cap() == before
    assert run(gen + ["--config", str(cfg)]) == code
    assert config.mem_cap() == before


def test_config_sets_a_switch(tmp_path):
    src = tmp_path / "a.csv"
    src.write_text("x,y\n1,0\n0,1\n1,1\n")
    cfg = tmp_path / "cfg"
    cfg.write_text(f"in={src}\nheader=yes\nmethod=exact\n")
    out = tmp_path / "l.csv"
    assert run(["leverage", "--config", str(cfg), "--out", str(out)]) == 0
    assert load_scores(out).shape == (3,)
    meta = json.loads((tmp_path / "l.csv.json").read_text())
    assert meta["flags"]["header"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["leverage", "--in", "{mat}", "--method", "sketch", "--workers", "2", "--threads", "0", "--out", "{out}"],
        ["leverage", "--in", "{mat}", "--method", "sketch", "--workers", "2", "--threads", "-3", "--out", "{out}"],
        ["leverage", "--in", "{mat}", "--method", "exact", "--workers", "0", "--out", "{out}"],
        ["leverage", "--in", "{mat}", "--method", "exact", "--threads", "0", "--out", "{out}"],
        ["leverage", "--in", "{mat}", "--method", "oracle", "--workers", "0", "--out", "{out}"],
        ["leverage", "--in", "{mat}", "--method", "oracle", "--threads", "0", "--out", "{out}"],
        ["leverage", "--in", "{mat}", "--config", "{cfg}", "--out", "{out}"],  # header=maybe
        ["figure", "--kind", "rank-full", "--n", "0", "--out", "{out}"],
        ["figure", "--kind", "rank-full", "--d", "0", "--out", "{out}"],
        ["bench", "--repeats", "0", "--out", "{out}"],
        ["order", "--scores", "{scores}", "--policy", "dec", "--epochs", "0", "--out-dir", "{out}"],
        ["order", "--scores", "{scores}", "--policy", "dec", "--batch", "0", "--out-dir", "{out}"],
        ["bench", "--methods", ",", "--out", "{out}"],
        ["bench", "--log2-n", "", "--out", "{out}"],
        ["bench", "--eps", "", "--out", "{out}"],
        ["bench", "--methods", "exact,gaussian", "--out", "{out}"],
        ["gen", "--n", "40", "--d", "4", "--seed", "-1", "--out", "{out}"],
        ["gen", "--n", "40", "--d", "4", "--noise", "nan", "--out", "{out}"],
        ["gen", "--n", "40", "--d", "4", "--noise", "inf", "--out", "{out}"],
        ["figure", "--kind", "rank-full", "--n", "64", "--seed", "-1", "--out", "{out}"],
        ["figure", "--kind", "spectrum", "--n", "64", "--d", "8", "--seed", "-1", "--out", "{out}"],
        ["bench", "--log2-n", "6", "--d", "4", "--methods", "exact", "--seed", "-1", "--out", "{out}"],
        ["leverage", "--in", "{mat}", "--method", "exact", "--seed", "-1", "--out", "{out}"],
        ["leverage", "--in", "{mat}", "--method", "oracle", "--seed", "-1", "--out", "{out}"],
        ["leverage", "--in", "{mat}", "--method", "sketch-trunc", "--seed", "-1", "--out", "{out}"],
        ["order", "--scores", "{scores}", "--policy", "shuffle", "--seed", "-1", "--out-dir", "{out}"],
        ["order", "--scores", "{scores}", "--policy", "dec", "--seed", "-1", "--out-dir", "{out}"],
        ["bench", "--log2-n", "6,x", "--out", "{out}"],
        ["bench", "--log2-n", "6.5", "--out", "{out}"],
        ["bench", "--eps", "0.5,abc", "--out", "{out}"],
        ["leverage", "--in", "{mat}", "--method", "sketch-trunc", "--sv-tol", "1.5", "--out", "{out}"],
        ["leverage", "--in", "{mat}", "--method", "sketch-trunc", "--sv-tol", "nan", "--out", "{out}"],
    ],
)
def test_out_of_range_counts_exit_1(tmp_path, capsys, argv):
    paths = {name: tmp_path / name for name in ("mat", "scores", "cfg", "out")}
    assert run(["gen", "--n", "40", "--d", "4", "--out", str(paths["mat"])]) == 0
    assert run(["leverage", "--in", str(paths["mat"]), "--out", str(paths["scores"])]) == 0
    paths["cfg"].write_text("header=maybe\n")
    capsys.readouterr()
    assert run([token.format(**paths) for token in argv]) == 1
    assert not paths["out"].exists()
    err = capsys.readouterr().err
    assert err.startswith(f"levsketch {argv[0]}: error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "grid, message",
    [
        (["--eps", "2"], "--eps must be in (0, 1), got 2.0"),
        (["--eps", "0.5,nan"], "--eps must be in (0, 1), got nan"),
        (["--log2-n", "6,6"], "--log2-n names 6 more than once"),
        (["--methods", "exact,osnap,exact"], "--methods names 'exact' more than once"),
        (["--eps", "0.5,0.50"], "--eps names 0.5 more than once"),
        (["--log2-n", "6,-1"], "--log2-n must be an integer of at least 0, got -1"),
    ],
)
def test_bench_grid_errors_name_the_flag(tmp_path, capsys, grid, message):
    out = tmp_path / "bench.csv"
    assert run(["bench", "--d", "4", "--methods", "exact", "--repeats", "1", *grid, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"levsketch bench: error: {message}\n"
    assert not out.exists()
