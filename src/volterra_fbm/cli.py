"""Batch experiment driver.

Subcommands: sample (driver paths + covariance audit), solve (per-path
solution CSV/JSON), verify (inequality suite, JSON reports), moments
(empirical moment table with bootstrap intervals), convergence
(Picard-vs-Euler refinement table).  A flat key = value config file can
preload any flag; explicit flags win.  All outputs are byte-stable
functions of (config, seed) regardless of the worker count.

solve and moments split the paths into fixed contiguous batches, sized
from n alone; --workers threads run over the batches.  sample draws its
batches on the calling thread.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coeffs import CoefficientSet, builtin_coefficients
from .errors import AdmissibilityError, CatalogError, VolterraError
from .fbm import DriverPath, Seed, _covariance_matrix, _draw_block_rows, _sampler
from .grid import build_grid
from .norms import HolderParams, w_alpha_infty_norm
from .solver import euler_solve, picard_solve, picard_solve_batch
from .verify import SuiteConfig, run_suite

__all__ = ["ExperimentConfig", "run_experiment", "emit_report", "main"]


@dataclass
class ExperimentConfig:
    subcommand: str = "verify"
    H: float = 0.75
    alpha: float = 0.3
    lam: float | None = None
    T: float = 1.0
    n: int = 256
    m: int = 1
    coeffs: str = "smooth-volterra"
    paths: int = 1
    seed: int = 1
    tol: float = 1e-8
    max_iter: int = 60
    workers: int = 1
    out_dir: str = "out"
    x0: float = 1.0
    sampler: str = "davies-harte"
    cases: int = 1000
    families: str = "lebesgue,stieltjes,lemmas,aux,hypotheses"
    emit_paths: int = 16


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def emit_report(records: list[dict], fmt: str, out_path: Path) -> None:
    """Write records with stable field order and full precision."""
    if not records:
        raise ValueError("no records to emit")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        out_path.write_text(json.dumps(records, sort_keys=True, indent=1) + "\n")
        return
    if fmt == "csv":
        keys = list(records[0].keys())
        lines = [",".join(keys)]
        for r in records:
            lines.append(",".join(_fmt(r[k]) if isinstance(r[k], float) else str(r[k]) for k in keys))
        out_path.write_text("\n".join(lines) + "\n")
        return
    raise ValueError(f"unknown format {fmt!r}")


# entries of the (n+1)^2 two-time tables in one batch of solves: 6 paths
# at n = 96, one from n = 181
_SOLVE_ENTRIES = 2 ** 16


def _batches(paths: int, size: int) -> list[range]:
    """Contiguous batches of size path indices (the last one shorter)."""
    return [range(lo, min(lo + size, paths)) for lo in range(0, paths, size)]


def _sample_drivers(cfg: ExperimentConfig, grid, paths) -> np.ndarray:
    """Driver values of the given path indices, shape (P, n+1, m)."""
    return _sampler(cfg.sampler)(grid, cfg.H, cfg.m, Seed(cfg.seed), paths)


def _cmd_sample(cfg: ExperimentConfig, out: Path) -> int:
    grid = build_grid(cfg.T, cfg.n)
    sums = np.zeros((cfg.n, cfg.n))
    # one Davies-Harte block per batch, on this thread: the audit's outer
    # products take most of the time, and a pool over batches did not pay
    for batch in _batches(cfg.paths, _draw_block_rows(cfg.n)):
        for p, values in zip(batch, _sample_drivers(cfg, grid, batch)):
            for c in range(cfg.m):
                v = values[1:, c]
                sums += np.outer(v, v)
            if p < cfg.emit_paths:
                out.mkdir(parents=True, exist_ok=True)
                DriverPath(grid, values, hurst=cfg.H).to_csv(out / f"path_{p:05d}.csv")
    count = cfg.paths * cfg.m
    emp = sums / count
    ana = _covariance_matrix(grid.nodes[1:], cfg.H)
    se = np.sqrt((np.outer(np.diag(ana), np.diag(ana)) + ana ** 2) / count)
    # lower triangle in row-major order, one line per entry, floats as
    # emit_report writes them
    i, j = np.tril_indices(cfg.n)
    z = np.abs(emp[i, j] - ana[i, j]) / se[i, j]
    worst = float(z.max())
    cols = (i + 1, j + 1, ana[i, j], emp[i, j], se[i, j], z)
    lines = ["i,j,analytic,empirical,stderr,z"]
    lines += map("%d,%d,%.17g,%.17g,%.17g,%.17g".__mod__, zip(*(c.tolist() for c in cols)))
    out.mkdir(parents=True, exist_ok=True)
    (out / "covariance_audit.csv").write_text("\n".join(lines) + "\n")
    print(f"sample: {cfg.paths} paths, covariance max |z| = {worst:.3f}")
    return 0 if worst <= 4.0 else 1


def _coefficients(cfg: ExperimentConfig) -> CoefficientSet:
    """The catalog entry, checked against --m before any driver is
    sampled."""
    cs = builtin_coefficients(cfg.coeffs)
    if cs.m != cfg.m:
        raise CatalogError(
            f"coefficient set {cfg.coeffs!r} has driver dimension m={cs.m}, but --m is {cfg.m}"
        )
    return cs


def _solve_all(cfg: ExperimentConfig, cs: CoefficientSet) -> list:
    """One SolutionRecord per path: a picard_solve_batch per batch."""
    grid = build_grid(cfg.T, cfg.n)
    params = HolderParams(H=cfg.H, alpha=cfg.alpha, T=cfg.T)

    def solve(paths):
        drivers = [DriverPath(grid, v, hurst=cfg.H) for v in _sample_drivers(cfg, grid, paths)]
        return picard_solve_batch(
            cs, np.full(cs.d, cfg.x0), drivers, params, tol=cfg.tol, max_iter=cfg.max_iter,
            lambda_override=cfg.lam,
        )

    # one task per batch; the batches never depend on --workers
    batches = _batches(cfg.paths, max(1, _SOLVE_ENTRIES // (cfg.n + 1) ** 2))
    with ThreadPoolExecutor(max_workers=max(cfg.workers, 1)) as ex:
        return [rec for recs in ex.map(solve, batches) for rec in recs]


def _write_solution(rec, grid, out: Path, p: int) -> None:
    rows = []
    for i, t in enumerate(grid.nodes):
        row = {"t": float(t)}
        for k in range(rec.x.values.shape[1]):
            row[f"x{k + 1}"] = float(rec.x.values[i, k])
        rows.append(row)
    emit_report(rows, "csv", out / f"solution_{p:05d}.csv")
    (out / f"solution_{p:05d}.json").write_text(rec.metadata_json() + "\n")


def _cmd_solve(cfg: ExperimentConfig, out: Path) -> int:
    cs = _coefficients(cfg)
    grid = build_grid(cfg.T, cfg.n)
    status = 0
    for p, rec in enumerate(_solve_all(cfg, cs)):
        _write_solution(rec, grid, out, p)
        if not rec.converged:
            status = 1
        print(
            f"solve path {p}: iterations={rec.iterations} converged={rec.converged} "
            f"lambda={rec.lambda_used:g}"
        )
    return status


def _cmd_verify(cfg: ExperimentConfig, out: Path) -> int:
    families = tuple(f.strip() for f in cfg.families.split(",") if f.strip())
    suite = SuiteConfig(
        families=families,
        estimate_cases=cfg.cases,
        lemma_tuples=max(cfg.cases * 100, 10000),
        hypothesis_samples=max(cfg.cases * 100, 10000),
        seed=cfg.seed,
    )
    results = run_suite(suite)
    ok = True
    out.mkdir(parents=True, exist_ok=True)
    for fam, reports in results.items():
        payload = {
            "family": fam,
            "passed": all(r.passed for r in reports),
            "checks": [r.to_dict() for r in reports],
        }
        (out / f"verify_{fam}.json").write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        for r in reports:
            print(f"[{fam}] {r.name}: max_ratio={r.max_ratio:.4f} slack={r.slack_allowed:.3f} "
                  f"{'PASS' if r.passed else 'FAIL'}")
            ok = ok and r.passed
    return 0 if ok else 1


def _cmd_moments(cfg: ExperimentConfig, out: Path) -> int:
    cs = _coefficients(cfg)
    norms = np.array([w_alpha_infty_norm(r.x, cfg.alpha).value for r in _solve_all(cfg, cs)])
    # dedicated bootstrap stream, disjoint from the path streams
    boot_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0xB007,)))
    rows = []
    for p_ord in (1, 2, 4):
        vals = norms ** p_ord
        est = float(np.mean(vals))
        # 1000 resamples in blocks of 100: the draws and means of one
        # (1000, paths) index table, in a tenth of its memory
        boots = np.concatenate([
            np.mean(vals[boot_rng.integers(0, len(vals), size=(100, len(vals)))], axis=1)
            for _ in range(10)
        ])
        lo, hi = np.quantile(boots, (0.025, 0.975))
        rows.append({"p": p_ord, "estimate": est, "ci_lo": float(lo),
                     "ci_hi": float(hi), "paths": len(vals)})
        print(f"moments p={p_ord}: {est:.6g} [{lo:.6g}, {hi:.6g}]")
    emit_report(rows, "csv", out / "moments.csv")
    return 0


def _cmd_convergence(cfg: ExperimentConfig, out: Path) -> int:
    if cfg.n % 4 != 0:
        raise ValueError("convergence study needs n divisible by 4")
    grid_fine = build_grid(cfg.T, cfg.n)
    cs = _coefficients(cfg)
    params = HolderParams(H=cfg.H, alpha=cfg.alpha, T=cfg.T)
    fine = DriverPath(grid_fine, _sample_drivers(cfg, grid_fine, range(1))[0], hurst=cfg.H)
    rows = []
    prev = None
    for n_sub in (cfg.n // 4, cfg.n // 2, cfg.n):
        step = cfg.n // n_sub
        g_sub = DriverPath(build_grid(cfg.T, n_sub), fine.values[::step].copy(), hurst=cfg.H)
        x0 = np.full(cs.d, cfg.x0)
        rec = picard_solve(cs, x0, g_sub, params, tol=cfg.tol, max_iter=cfg.max_iter,
                           lambda_override=cfg.lam)
        eul = euler_solve(cs, x0, g_sub)
        gap = float(np.max(np.abs(rec.x.values - eul.values)))
        order = float("nan") if prev is None else float(np.log2(prev / gap))
        rows.append({"n": n_sub, "picard_euler_sup": gap, "order": order,
                     "iterations": rec.iterations})
        print(f"convergence n={n_sub}: sup gap {gap:.3e} order {order:.2f}")
        prev = gap
    emit_report(rows, "csv", out / "convergence.csv")
    return 0


_COMMANDS = {
    "sample": _cmd_sample, "solve": _cmd_solve, "verify": _cmd_verify,
    "moments": _cmd_moments, "convergence": _cmd_convergence,
}


def run_experiment(cfg: ExperimentConfig) -> int:
    """Dispatch a subcommand; returns the process exit status."""
    if cfg.subcommand not in _COMMANDS:
        raise ValueError(f"unknown subcommand {cfg.subcommand!r}")
    try:
        # an unknown sampler is a usage error before any draw or output
        _sampler(cfg.sampler)
        return _COMMANDS[cfg.subcommand](cfg, Path(cfg.out_dir))
    except (AdmissibilityError, CatalogError, ValueError) as exc:
        # bad parameters, an unknown catalog entry included, exit 2 like
        # usage errors; constraint violations name the condition
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VolterraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _load_config_file(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line {raw.strip()!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        out[key] = val
    return out


_FLAG_NAMES = {
    "H": "H", "alpha": "alpha", "lambda": "lam", "T": "T", "n": "n", "m": "m",
    "coeffs": "coeffs", "paths": "paths", "seed": "seed", "tol": "tol",
    "max-iter": "max_iter", "workers": "workers", "out": "out_dir", "x0": "x0",
    "sampler": "sampler", "cases": "cases", "families": "families",
    "emit-paths": "emit_paths",
}
_CASTS = {
    "H": float, "alpha": float, "lam": float, "T": float, "n": int, "m": int,
    "coeffs": str, "paths": int, "seed": int, "tol": float,
    "max_iter": int, "workers": int, "out_dir": str, "x0": float,
    "sampler": str, "cases": int, "families": str, "emit_paths": int,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="volterra-fbm",
        description="Pathwise Volterra solver and estimate-verification suite",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        for flag, attr in _FLAG_NAMES.items():
            p.add_argument(f"--{flag}", dest=attr, default=None, type=_CASTS[attr])
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = ExperimentConfig(subcommand=args.subcommand)
    if args.config:
        try:
            entries = _load_config_file(args.config)
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"error: cannot read config file {args.config!r}: {reason}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for key, val in entries.items():
            attr = _FLAG_NAMES.get(key, key)
            if attr not in _CASTS:
                print(f"error: unknown config key {key!r}", file=sys.stderr)
                return 2
            try:
                setattr(cfg, attr, _CASTS[attr](val))
            except ValueError:
                print(f"error: config key {key!r}: invalid value {val!r}", file=sys.stderr)
                return 2
    for attr in _CASTS:
        val = getattr(args, attr, None)
        if val is not None:
            setattr(cfg, attr, val)
    return run_experiment(cfg)


if __name__ == "__main__":
    sys.exit(main())
