import json
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from volterra_fbm import cli, fbm, report, solver, verify
from volterra_fbm.cli import ExperimentConfig, emit_report, main, run_experiment
from volterra_fbm.grid import _stack_size


def read_bytes_tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_emit_report_validations(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], tmp_path / "x.csv")
    emit_report([{"a": 1.5, "b": "x"}], tmp_path / "y.csv")
    assert (tmp_path / "y.csv").read_text() == "a,b\n1.5,x\n"
    # around the writer's block size: every row once, in order, each cell
    # by the per-cell rule (floats %.17g, anything else str)
    rng = np.random.default_rng(5)
    for rows in (report._CSV_ROWS - 1, report._CSV_ROWS, report._CSV_ROWS + 1):
        x = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, size=rows)
        x[::7], x[1::11], x[2::13] = np.nan, -0.0, -np.inf
        records = [{"k": k, "x": float(v), "y": float(k), "tag": f"r{k % 3}"} for k, v in enumerate(x)]
        emit_report(records, tmp_path / f"z{rows}.csv")
        want = "".join(
            ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in r.values()) + "\n"
            for r in records
        )
        assert (tmp_path / f"z{rows}.csv").read_bytes() == ("k,x,y,tag\n" + want).encode()


def test_solve_outputs_and_worker_determinism(tmp_path):
    base = ["solve", "--coeffs", "smooth-volterra", "--n", "96", "--H", "0.75",
            "--alpha", "0.3", "--paths", "2", "--seed", "7"]
    assert main(base + ["--out", str(tmp_path / "a"), "--workers", "1"]) == 0
    assert main(base + ["--out", str(tmp_path / "b"), "--workers", "3"]) == 0
    ta, tb = read_bytes_tree(tmp_path / "a"), read_bytes_tree(tmp_path / "b")
    assert set(ta) == set(tb)
    for k in ta:
        assert ta[k] == tb[k], f"output {k} differs across worker counts"
    meta = json.loads((tmp_path / "a" / "solution_00000.json").read_text())
    assert meta["converged"] is True
    assert len(meta["distances"]) == meta["iterations"]
    header = (tmp_path / "a" / "solution_00000.csv").read_text().splitlines()[0]
    assert header == "t,x1"


def test_sample_outputs_audit(tmp_path):
    code = main(["sample", "--n", "8", "--H", "0.75", "--paths", "4000",
                 "--seed", "42", "--out", str(tmp_path / "s")])
    assert code == 0
    audit = (tmp_path / "s" / "covariance_audit.csv").read_text().splitlines()
    assert audit[0] == "i,j,analytic,empirical,stderr,z"
    zs = [float(line.split(",")[-1]) for line in audit[1:]]
    assert max(zs) <= 4.0
    assert (tmp_path / "s" / "path_00000.csv").exists()
    # every line of every file ends in LF alone
    assert not [p for p, data in read_bytes_tree(tmp_path / "s").items() if b"\r" in data]


def test_sample_memory_stays_near_its_tables(tmp_path):
    # the audit streams its CSV and works on the lower triangle: beyond
    # the n x n sums and covariance tables and the triangle's columns, no
    # n x n table and no per-entry line string is held (4.8 tables at
    # n = 512; full-table stderr and z took 6.5, the whole file's lines 28)
    n = 512
    args = ["sample", "--n", str(n), "--paths", "4", "--emit-paths", "0", "--seed", "1"]
    args += ["--out", str(tmp_path)]
    main(args)  # warm-up: imports and the cached circulant eigenvalues
    tracemalloc.start()
    try:
        main(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * n * n, peak / (8 * n * n)


def test_sample_repeat_byte_identical(tmp_path):
    args = ["sample", "--n", "8", "--H", "0.6", "--paths", "500", "--seed", "1"]
    main(args + ["--out", str(tmp_path / "one"), "--workers", "1"])
    main(args + ["--out", str(tmp_path / "two"), "--workers", "4"])
    t1, t2 = read_bytes_tree(tmp_path / "one"), read_bytes_tree(tmp_path / "two")
    assert t1 == t2


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 96\nH = 0.75\nalpha = 0.3\ncoeffs = smooth-volterra\n"
                   "paths = 1\nseed = 5  # inline comment\n")
    out1 = tmp_path / "o1"
    assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
    # flags win over the config file
    out2 = tmp_path / "o2"
    assert main(["solve", "--config", str(cfg), "--seed", "6", "--out", str(out2)]) == 0
    a = (out1 / "solution_00000.csv").read_bytes()
    b = (out2 / "solution_00000.csv").read_bytes()
    assert a != b


def test_bad_config_line(tmp_path, capsys):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("n 96\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.strip() == "error: bad config line 'n 96'"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_config_file_is_usage_error(tmp_path, capsys, kind):
    path = tmp_path / "nope.txt"
    if kind == "directory":
        path.mkdir()
    reason = "No such file or directory" if kind == "missing" else "Is a directory"
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.strip() == f"error: cannot read config file {str(path)!r}: {reason}"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("subcommand", ["solve", "moments", "convergence"])
def test_m_mismatch_is_usage_error_before_sampling(tmp_path, capsys, monkeypatch, subcommand):
    def no_sampling(*args):
        raise AssertionError("a driver was sampled")

    monkeypatch.setattr(cli, "_sample_drivers", no_sampling)
    argv = [subcommand, "--coeffs", "smooth-volterra", "--m", "2", "--n", "16",
            "--out", str(tmp_path / "x")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.strip() == ("error: coefficient set 'smooth-volterra' has driver dimension m=1, "
                           "but --m is 2")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("via_config", [False, True])
def test_unknown_coeffs_is_usage_error(tmp_path, capsys, via_config):
    argv = ["solve", "--n", "16", "--out", str(tmp_path / "x")]
    if via_config:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("coeffs = nope\n")
        argv += ["--config", str(cfg)]
    else:
        argv += ["--coeffs", "nope"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown coefficient set 'nope'")
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("via_config", [False, True])
def test_unknown_sampler_is_usage_error(tmp_path, capsys, monkeypatch, via_config):
    def no_sampling(*args):
        raise AssertionError("a driver was sampled")

    monkeypatch.setattr(cli, "_sample_drivers", no_sampling)
    argv = ["sample", "--n", "8", "--paths", "2", "--out", str(tmp_path / "x")]
    if via_config:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("sampler = choleski\n")
        argv += ["--config", str(cfg)]
    else:
        argv += ["--sampler", "choleski"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: unknown sampler 'choleski'\n"
    assert captured.out == ""
    assert not (tmp_path / "x").exists()



def test_non_numeric_flag_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--n", "abc", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --n: invalid int value: 'abc'" in err
    assert "Traceback" not in err


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 96\nbogus = 1\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.strip() == "error: unknown config key 'bogus'"
    assert not (tmp_path / "x").exists()


def test_config_keys_are_the_flag_names(tmp_path, capsys):
    # the attribute spelling of a flag is not a config key
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = 16\nmax_iter = 5\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.strip() == "error: unknown config key 'max_iter'"
    assert not (tmp_path / "x").exists()
    # every setting has exactly one flag
    attrs = [attr for attr, _ in cli._FLAGS.values()]
    assert sorted(attrs) == sorted(f.name for f in fields(ExperimentConfig) if f.name != "subcommand")


def test_bad_config_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = abc\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.strip() == "error: config key 'n': invalid value 'abc'"


@pytest.mark.parametrize("argv, message", [
    (["moments", "--paths", "0"], "error: --paths must be positive, got 0"),
    (["verify", "--cases", "0"], "error: --cases must be positive, got 0"),
    (["sample", "--paths", "0"], "error: --paths must be positive, got 0"),
    (["sample", "--m", "0"], "error: --m must be positive, got 0"),
    (["verify", "--families", "lemmas,bogus"], "error: unknown verification family 'bogus'"),
], ids=["moments-paths-0", "verify-cases-0", "sample-paths-0", "sample-m-0", "verify-unknown-family"])
def test_bad_count_or_family_is_usage_error(tmp_path, capsys, monkeypatch, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("a driver was sampled or a check ran")

    monkeypatch.setattr(cli, "_sample_drivers", no_work)
    monkeypatch.setattr(verify, "check_sigma_lemmas", no_work)
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv, message", [
    (["moments", "--workers", "0"], "error: --workers must be positive, got 0"),
    (["solve", "--workers", "-2"], "error: --workers must be positive, got -2"),
    (["verify", "--families", ","], "error: --families selects no verification family"),
], ids=["moments-workers-0", "solve-workers-negative", "verify-no-family"])
def test_no_workers_or_no_family_is_usage_error(tmp_path, capsys, monkeypatch, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("a driver was sampled or a check ran")

    monkeypatch.setattr(cli, "_sample_drivers", no_work)
    monkeypatch.setattr(cli, "run_suite", no_work)
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv, message", [
    (["solve", "--lambda", "nan"], "error: weight lambda must be finite, got nan"),
    (["solve", "--x0", "nan"], "error: initial state must be finite, got [nan]"),
    (["solve", "--tol", "nan"], "error: tolerance must be positive, got nan"),
    (["solve", "--max-iter", "-1"], "error: max_iter must be non-negative, got -1"),
    (["solve", "--T", "inf"], "error: horizon must be positive and finite, got T=inf"),
    (["sample", "--T", "nan"], "error: horizon must be positive and finite, got T=nan"),
    (["solve", "--seed", "-1"], "error: --seed must be non-negative, got -1"),
    (["sample", "--emit-paths", "-3"], "error: --emit-paths must be non-negative, got -3"),
], ids=["solve-lambda-nan", "solve-x0-nan", "solve-tol-nan", "solve-max-iter-negative",
        "solve-T-inf", "sample-T-nan", "solve-seed-negative", "sample-emit-paths-negative"])
def test_nan_and_negative_settings_are_usage_errors(tmp_path, capsys, argv, message):
    # a usage error before any output; accepted, a NaN weight gives a
    # "converged" record of NaN distances, a NaN horizon a NaN covariance
    # audit, and a negative --emit-paths writes no path as if it were 0
    assert main(argv + ["--n", "16", "--out", str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert captured.out == ""
    assert not (tmp_path / "x").exists()


# the flags each subcommand reads, spelled out here rather than read
# from cli; sample takes --workers without reading it
READS = {
    "sample": "H T n m paths seed sampler emit-paths out workers",
    "solve": "H alpha lambda T n m coeffs paths seed tol max-iter workers out x0 sampler",
    "moments": "H alpha lambda T n m coeffs paths seed tol max-iter workers out x0 sampler",
    "convergence": "H alpha lambda T n m coeffs seed tol max-iter out x0 sampler",
    "verify": "cases families seed out",
}
UNREAD = [(cmd, flag) for cmd, reads in READS.items() for flag in cli._FLAGS
          if flag not in reads.split()]


def test_subcommands_accept_57_of_90_settings():
    assert len(cli._FLAGS) * len(READS) == 90
    assert sum(len(reads.split()) for reads in READS.values()) == 57
    assert len(UNREAD) == 33


@pytest.mark.parametrize("subcommand, flag", UNREAD, ids=[f"{c}-{f}" for c, f in UNREAD])
def test_unread_flag_or_config_key_is_usage_error(tmp_path, capsys, subcommand, flag):
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        main([subcommand, f"--{flag}", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{flag} 1" in capsys.readouterr().err
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{flag} = 1\n")
    assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: unknown config key {flag!r}\n"
    assert not out.exists()


SOLVE_FLAGS = ["--H", "0.7", "--alpha", "0.35", "--lambda", "64", "--T", "0.5", "--n", "16",
               "--m", "1", "--coeffs", "bounded-growth", "--seed", "4", "--tol", "1e-9",
               "--max-iter", "40", "--x0", "0.5", "--sampler", "cholesky"]
EVERY_FLAG = {
    "sample": ["--H", "0.7", "--T", "0.5", "--n", "8", "--m", "2", "--paths", "300",
               "--seed", "4", "--sampler", "cholesky", "--emit-paths", "1", "--workers", "2"],
    "solve": SOLVE_FLAGS + ["--paths", "2", "--workers", "2"],
    "moments": SOLVE_FLAGS + ["--paths", "3", "--workers", "2"],
    "convergence": SOLVE_FLAGS,
    "verify": ["--cases", "2", "--families", "aux", "--seed", "4"],
}


@pytest.mark.parametrize("subcommand", READS)
def test_every_read_flag_reaches_the_run(tmp_path, monkeypatch, subcommand):
    runs = []
    real = cli.run_experiment

    def recording(cfg):
        runs.append(cfg)
        return real(cfg)

    monkeypatch.setattr(cli, "run_experiment", recording)
    argv = EVERY_FLAG[subcommand] + ["--out", str(tmp_path / "x")]
    assert sorted(argv[::2]) == sorted(f"--{flag}" for flag in READS[subcommand].split())
    assert main([subcommand] + argv) == 0
    for flag, value in zip(argv[::2], argv[1::2]):
        attr, cast = cli._FLAGS[flag[2:]]
        assert getattr(runs[0], attr) == cast(value), flag
    assert any((tmp_path / "x").iterdir())


def test_infeasible_solve_names_constraint(tmp_path, capsys):
    # alpha outside the admissible window: diagnostic + exit status 2
    code = main(["solve", "--coeffs", "smooth-volterra", "--H", "0.75",
                 "--alpha", "0.2", "--n", "96", "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "alpha in (1-H, 1/2)" in err


def test_lambda_overrides_a_failed_weight_selection(tmp_path, capsys):
    # no weight on the ladder contracts here; --lambda runs the solve anyway
    argv = ["solve", "--coeffs", "bounded-growth", "--H", "0.51", "--alpha", "0.495", "--n", "64"]
    assert main(argv + ["--out", str(tmp_path / "x")]) == 1
    assert "no weight up to 2^64 yields a 1/2-contraction" in capsys.readouterr().err
    assert main(argv + ["--lambda", "64", "--out", str(tmp_path / "y")]) == 0
    meta = json.loads((tmp_path / "y" / "solution_00000.json").read_text())
    assert meta["converged"] and meta["lambda"] == 64.0
    # the stdout line names the rescue; a selected weight's line has no note
    assert "lambda=64 (override: no weight on the ladder contracts)\n" in capsys.readouterr().out
    argv[argv.index("0.51")], argv[argv.index("0.495")] = "0.75", "0.3"
    assert main(argv + ["--lambda", "64", "--out", str(tmp_path / "z")]) == 0
    assert capsys.readouterr().out.endswith("lambda=64\n")


def test_verify_subcommand_small(tmp_path):
    code = main(["verify", "--cases", "15", "--seed", "3",
                 "--families", "lebesgue,aux", "--out", str(tmp_path / "v")])
    assert code == 0
    for fam in ("lebesgue", "aux"):
        payload = json.loads((tmp_path / "v" / f"verify_{fam}.json").read_text())
        assert payload["passed"] is True
        assert payload["checks"]


def test_moments_schema(tmp_path):
    code = main(["moments", "--coeffs", "bounded-growth", "--n", "96", "--H", "0.75",
                 "--alpha", "0.3", "--paths", "12", "--seed", "3",
                 "--out", str(tmp_path / "m")])
    assert code == 0
    lines = (tmp_path / "m" / "moments.csv").read_text().splitlines()
    assert lines[0] == "p,estimate,ci_lo,ci_hi,paths"
    assert len(lines) == 4
    for line in lines[1:]:
        p, est, lo, hi, paths = line.split(",")
        assert float(lo) <= float(est) <= float(hi)
        assert int(paths) == 12


def test_moments_reads_no_holder_estimate(tmp_path, monkeypatch):
    # the estimate is computed when read, and moments never reads it
    def refuse(f):
        raise AssertionError("holder_exponent_estimate called")

    monkeypatch.setattr(solver, "holder_exponent_estimate", refuse)
    code = main(["moments", "--coeffs", "bounded-growth", "--n", "64", "--paths", "2",
                 "--seed", "3", "--out", str(tmp_path / "m")])
    assert code == 0
    assert (tmp_path / "m" / "moments.csv").is_file()


def test_convergence_schema(tmp_path):
    code = main(["convergence", "--coeffs", "smooth-volterra", "--n", "256",
                 "--H", "0.75", "--alpha", "0.3", "--seed", "5",
                 "--out", str(tmp_path / "c")])
    assert code == 0
    lines = (tmp_path / "c" / "convergence.csv").read_text().splitlines()
    assert lines[0] == "n,picard_euler_sup,order,iterations"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [64, 128, 256]
    # agreement tightens with refinement
    sups = [float(r[1]) for r in rows]
    assert sups[2] < sups[0]


def test_convergence_zero_gap_has_no_order(tmp_path):
    # constant sigma, zero drift: Picard and Euler agree exactly on every
    # grid, so no ratio of gaps exists
    code = main(["convergence", "--coeffs", "constant-sigma", "--n", "64",
                 "--out", str(tmp_path / "c")])
    assert code == 0
    lines = (tmp_path / "c" / "convergence.csv").read_text().splitlines()
    assert lines[0] == "n,picard_euler_sup,order,iterations"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [16, 32, 64]
    assert [float(r[1]) for r in rows] == [0.0, 0.0, 0.0]
    assert all(np.isnan(float(r[2])) for r in rows)


def test_run_experiment_unknown_subcommand():
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(subcommand="noop"))


GOLDEN = Path(__file__).parent / "golden"


def test_verify_matches_golden(tmp_path, capsys):
    # five verify JSON files and stdout of a small run, byte for byte
    # (recorded with numpy 2.4 on x86-64)
    want = GOLDEN / "verify_cases12_seed3"
    code = main(["verify", "--cases", "12", "--seed", "3", "--out", str(tmp_path / "v")])
    assert code == 0
    assert capsys.readouterr().out == (want / "stdout.txt").read_text()
    got = read_bytes_tree(tmp_path / "v")
    assert got == {p: b for p, b in read_bytes_tree(want).items() if p.suffix == ".json"}


def test_sample_audit_matches_golden(tmp_path, capsys):
    want = GOLDEN / "sample_n8"
    code = main(["sample", "--n", "8", "--paths", "400", "--m", "2", "--H", "0.7",
                 "--seed", "5", "--emit-paths", "0", "--out", str(tmp_path / "s")])
    assert code == 0
    assert capsys.readouterr().out == (want / "stdout.txt").read_text()
    audit = Path("covariance_audit.csv")
    assert read_bytes_tree(tmp_path / "s") == {audit: (want / audit).read_bytes()}


def test_solve_matches_golden(tmp_path, capsys):
    # solution CSV and JSON files and stdout of a 3-path solve, byte for
    # byte (recorded with numpy 2.4 on x86-64, one task per path)
    want = GOLDEN / "solve_n64_seed11"
    code = main(["solve", "--n", "64", "--paths", "3", "--seed", "11", "--out", str(tmp_path / "o")])
    assert code == 0
    assert capsys.readouterr().out == (want / "stdout.txt").read_text()
    got = read_bytes_tree(tmp_path / "o")
    assert got == {p: b for p, b in read_bytes_tree(want).items() if p.name != "stdout.txt"}


def test_moments_matches_golden(tmp_path, capsys):
    want = GOLDEN / "moments_n32_seed5"
    code = main(["moments", "--coeffs", "bounded-growth", "--n", "32", "--paths", "16",
                 "--workers", "2", "--seed", "5", "--out", str(tmp_path / "m")])
    assert code == 0
    assert capsys.readouterr().out == (want / "stdout.txt").read_text()
    csv = Path("moments.csv")
    assert read_bytes_tree(tmp_path / "m") == {csv: (want / csv).read_bytes()}


def test_batches_are_contiguous_and_sized_from_n():
    assert cli._batches(256, 6) == [range(lo, min(lo + 6, 256)) for lo in range(0, 256, 6)]
    assert cli._batches(4, 1) == [range(0, 1), range(1, 2), range(2, 3), range(3, 4)]
    assert cli._batches(0, 9) == []
    # solves: 27 paths per batch at n = 96, 2 at n = 361, one from n = 362
    assert [_stack_size(n) for n in (96, 361, 362)] == [27, 2, 1]
    # draws: one Davies-Harte block, 2n normals a path
    assert fbm._draw_block_rows(8) == fbm._DRAW_NORMALS // 16
    assert fbm._draw_block_rows(fbm._DRAW_NORMALS) == 1


def test_sample_draws_one_block_per_batch(tmp_path, monkeypatch):
    batches = []
    real = cli._sample_drivers

    def counting(cfg, grid, paths):
        batches.append(paths)
        return real(cfg, grid, paths)

    monkeypatch.setattr(cli, "_sample_drivers", counting)
    monkeypatch.setattr(fbm, "_DRAW_NORMALS", 2 * 8 * 150)
    assert main(["sample", "--n", "8", "--paths", "400", "--workers", "2", "--seed", "5",
                 "--emit-paths", "0", "--out", str(tmp_path / "s")]) == 0
    assert batches == [range(0, 150), range(150, 300), range(300, 400)]


def test_pool_takes_one_task_per_batch(tmp_path, monkeypatch):
    # n = 32: 240 paths per batch, so 500 paths make three tasks
    tasks = []
    real = cli._sample_drivers

    def counting(cfg, grid, paths):
        tasks.append(paths)
        return real(cfg, grid, paths)

    monkeypatch.setattr(cli, "_sample_drivers", counting)
    assert main(["moments", "--coeffs", "bounded-growth", "--n", "32", "--paths", "500",
                 "--workers", "2", "--seed", "5", "--out", str(tmp_path / "m")]) == 0
    assert sorted(tasks, key=lambda r: r.start) == [range(0, 240), range(240, 480), range(480, 500)]


def test_unconverged_moments_exit_1_after_writing(tmp_path, capsys):
    # one iteration leaves both paths unconverged; solve exits 1 on that
    args = ["--max-iter", "1", "--paths", "2", "--n", "16"]
    assert main(["solve", *args, "--out", str(tmp_path / "s")]) == 1
    capsys.readouterr()
    assert main(["moments", *args, "--out", str(tmp_path / "m")]) == 1
    assert len((tmp_path / "m" / "moments.csv").read_text().splitlines()) == 4
    assert "moments: 2 of 2 paths did not converge" in capsys.readouterr().out
