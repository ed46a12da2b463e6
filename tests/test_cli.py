import json
from pathlib import Path

import pytest

from volterra_fbm import cli, fbm
from volterra_fbm.cli import ExperimentConfig, emit_report, main, run_experiment


def read_bytes_tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_emit_report_validations(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], "csv", tmp_path / "x.csv")
    emit_report([{"a": 1.5, "b": "x"}], "csv", tmp_path / "y.csv")
    assert (tmp_path / "y.csv").read_text() == "a,b\n1.5,x\n"
    with pytest.raises(ValueError):
        emit_report([{"a": 1}], "yaml", tmp_path / "z")


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


def test_bad_config_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n = abc\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.strip() == "error: config key 'n': invalid value 'abc'"


def test_infeasible_solve_names_constraint(tmp_path, capsys):
    # alpha outside the admissible window: diagnostic + exit status 2
    code = main(["solve", "--coeffs", "smooth-volterra", "--H", "0.75",
                 "--alpha", "0.2", "--n", "96", "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "alpha in (1-H, 1/2)" in err


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
    # solves: 6 paths per batch at n = 96, 2 at n = 180, one from n = 181
    assert [cli._SOLVE_ENTRIES // (n + 1) ** 2 for n in (96, 180, 181)] == [6, 2, 1]
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
    # n = 32: 60 paths per batch, so 130 paths make three tasks
    tasks = []
    real = cli._sample_drivers

    def counting(cfg, grid, paths):
        tasks.append(paths)
        return real(cfg, grid, paths)

    monkeypatch.setattr(cli, "_sample_drivers", counting)
    assert main(["moments", "--coeffs", "bounded-growth", "--n", "32", "--paths", "130",
                 "--workers", "2", "--seed", "5", "--out", str(tmp_path / "m")]) == 0
    assert sorted(tasks, key=lambda r: r.start) == [range(0, 60), range(60, 120), range(120, 130)]
