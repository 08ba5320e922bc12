import json
from pathlib import Path

import numpy as np
import pytest

from levsketch import SketchSpec, config, load_matrix, load_scores
from levsketch.cli import main
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
    assert "numpy" in meta["versions"]


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
    out = tmp_path / "spectrum.csv"
    assert run(["figure", "--kind", "spectrum", "--n", "128", "--d", "64", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "component,sigma"
    assert len(lines) == 1 + 64


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


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("frobnicate=1\n")
    assert run(["gen", "--config", str(cfg), "--n", "4", "--d", "2", "--out", str(tmp_path / "x.bin")]) == 1


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
    assert "sketch tree and leaf kernel needs 52428800 bytes" in capsys.readouterr().err


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
        ["leverage", "--in", "{mat}", "--config", "{cfg}", "--out", "{out}"],  # header=maybe
        ["figure", "--kind", "rank-full", "--n", "0", "--out", "{out}"],
        ["figure", "--kind", "rank-full", "--d", "0", "--out", "{out}"],
        ["bench", "--repeats", "0", "--out", "{out}"],
        ["order", "--scores", "{scores}", "--policy", "dec", "--epochs", "0", "--out-dir", "{out}"],
        ["order", "--scores", "{scores}", "--policy", "dec", "--batch", "0", "--out-dir", "{out}"],
        ["bench", "--methods", ",", "--out", "{out}"],
        ["bench", "--log2-n", "", "--out", "{out}"],
        ["bench", "--eps", "", "--out", "{out}"],
    ],
)
def test_out_of_range_counts_exit_1(tmp_path, argv):
    paths = {name: tmp_path / name for name in ("mat", "scores", "cfg", "out")}
    assert run(["gen", "--n", "40", "--d", "4", "--out", str(paths["mat"])]) == 0
    assert run(["leverage", "--in", str(paths["mat"]), "--out", str(paths["scores"])]) == 0
    paths["cfg"].write_text("header=maybe\n")
    assert run([token.format(**paths) for token in argv]) == 1
    assert not paths["out"].exists()
