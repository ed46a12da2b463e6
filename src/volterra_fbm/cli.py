"""Batch experiment driver.

Subcommands: sample (driver paths + covariance audit), solve (per-path
solution CSV/JSON), verify (inequality suite, JSON reports), moments
(empirical moment table with bootstrap intervals), convergence
(Picard-vs-Euler refinement table).  Each subcommand accepts only the
flags it reads; a flat key = value config file can preload any of them,
and explicit flags win.  All outputs are byte-stable functions of
(config, seed) regardless of the worker count.

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
from .fbm import DriverPath, Seed, _draw_block_rows, _sampler, fbm_covariance
from .grid import _stack_size, build_grid
from .norms import HolderParams, w_alpha_infty_norms
from .report import write_csv
from .solver import euler_solve, picard_solve, picard_solve_batch
from .verify import FAMILIES, SuiteConfig, run_suite

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
    families: str = ",".join(FAMILIES)
    emit_paths: int = 16


def emit_report(records: list[dict], out_path: Path) -> None:
    """Write records as CSV with stable field order and full precision."""
    if not records:
        raise ValueError("no records to emit")
    keys = list(records[0])
    write_csv(out_path, keys, [[r[k] for r in records] for k in keys])


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
                DriverPath(grid, values).to_csv(out / f"path_{p:05d}.csv")
    count = cfg.paths * cfg.m
    # lower triangle in row-major order, one line per entry; no n x n
    # table is formed past sums and the covariance
    i, j = np.tril_indices(cfg.n)
    emp = sums[i, j] / count
    del sums
    ana = fbm_covariance(grid.nodes[None, 1:], grid.nodes[1:, None], cfg.H)
    var = ana.diagonal().copy()
    ana = ana[i, j]
    se = np.sqrt((var[i] * var[j] + ana ** 2) / count)
    z = np.abs(emp - ana) / se
    worst = float(z.max())
    write_csv(out / "covariance_audit.csv", ["i", "j", "analytic", "empirical", "stderr", "z"],
              [i + 1, j + 1, ana, emp, se, z])
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
        drivers = [DriverPath(grid, v) for v in _sample_drivers(cfg, grid, paths)]
        return picard_solve_batch(
            cs, np.full(cs.d, cfg.x0), drivers, params, tol=cfg.tol, max_iter=cfg.max_iter,
            lambda_override=cfg.lam,
        )

    # one task per batch; the batches never depend on --workers
    batches = _batches(cfg.paths, _stack_size(cfg.n))
    with ThreadPoolExecutor(max_workers=cfg.workers) as ex:
        return [rec for recs in ex.map(solve, batches) for rec in recs]


def _write_solution(rec, grid, out: Path, p: int) -> None:
    x = rec.x.values
    write_csv(out / f"solution_{p:05d}.csv", ["t"] + [f"x{k + 1}" for k in range(x.shape[1])],
              [grid.nodes, *x.T])
    (out / f"solution_{p:05d}.json").write_text(rec.metadata_json() + "\n")


def _cmd_solve(cfg: ExperimentConfig, out: Path) -> int:
    cs = _coefficients(cfg)
    grid = build_grid(cfg.T, cfg.n)
    status = 0
    for p, rec in enumerate(_solve_all(cfg, cs)):
        _write_solution(rec, grid, out, p)
        if not rec.converged:
            status = 1
        # a path whose weight selection failed ran at the --lambda override
        rescued = " (override: no weight on the ladder contracts)" if np.isinf(rec.lambda_selected) else ""
        print(
            f"solve path {p}: iterations={rec.iterations} converged={rec.converged} "
            f"lambda={rec.lambda_used:g}{rescued}"
        )
    return status


def _cmd_verify(cfg: ExperimentConfig, out: Path) -> int:
    families = tuple(f.strip() for f in cfg.families.split(",") if f.strip())
    if not families:
        raise CatalogError("--families selects no verification family")
    suite = SuiteConfig(
        families=families,
        estimate_cases=cfg.cases,
        samples=max(cfg.cases * 100, 10000),
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
    records = _solve_all(cfg, cs)
    norms = np.array([rep.value for rep in w_alpha_infty_norms([r.x for r in records], cfg.alpha)])
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
    emit_report(rows, out / "moments.csv")
    unconverged = sum(not r.converged for r in records)
    if unconverged:
        print(f"moments: {unconverged} of {len(records)} paths did not converge")
    return 1 if unconverged else 0


def _cmd_convergence(cfg: ExperimentConfig, out: Path) -> int:
    if cfg.n % 4 != 0:
        raise ValueError("convergence study needs n divisible by 4")
    grid_fine = build_grid(cfg.T, cfg.n)
    cs = _coefficients(cfg)
    params = HolderParams(H=cfg.H, alpha=cfg.alpha, T=cfg.T)
    fine = DriverPath(grid_fine, _sample_drivers(cfg, grid_fine, range(1))[0])
    rows = []
    prev = None
    for n_sub in (cfg.n // 4, cfg.n // 2, cfg.n):
        step = cfg.n // n_sub
        g_sub = DriverPath(build_grid(cfg.T, n_sub), fine.values[::step].copy())
        x0 = np.full(cs.d, cfg.x0)
        rec = picard_solve(cs, x0, g_sub, params, tol=cfg.tol, max_iter=cfg.max_iter,
                           lambda_override=cfg.lam)
        eul = euler_solve(cs, x0, g_sub)
        gap = float(np.max(np.abs(rec.x.values - eul.values)))
        # no order without a previous grid or against a zero gap
        order = float(np.log2(prev / gap)) if prev and gap else float("nan")
        rows.append({"n": n_sub, "picard_euler_sup": gap, "order": order,
                     "iterations": rec.iterations})
        print(f"convergence n={n_sub}: sup gap {gap:.3e} order {order:.2f}")
        prev = gap
    emit_report(rows, out / "convergence.csv")
    return 0


# --flag: (ExperimentConfig attribute, value type); a config file key
# is the flag name
_FLAGS = {
    "H": ("H", float), "alpha": ("alpha", float), "lambda": ("lam", float), "T": ("T", float),
    "n": ("n", int), "m": ("m", int), "coeffs": ("coeffs", str), "paths": ("paths", int),
    "seed": ("seed", int), "tol": ("tol", float), "max-iter": ("max_iter", int),
    "workers": ("workers", int), "out": ("out_dir", str), "x0": ("x0", float),
    "sampler": ("sampler", str), "cases": ("cases", int), "families": ("families", str),
    "emit-paths": ("emit_paths", int),
}

_DRIVER_FLAGS = ("H", "T", "n", "m", "seed", "sampler", "out")
_SOLVE_FLAGS = _DRIVER_FLAGS + ("alpha", "lambda", "coeffs", "tol", "max-iter", "x0")

# subcommand: (runner, the flags it reads); a subcommand accepts no other
# flag or config key.  sample keeps --workers, which it does not read, so
# that one command line runs sample and solve at any worker count
_COMMANDS = {
    "sample": (_cmd_sample, _DRIVER_FLAGS + ("paths", "emit-paths", "workers")),
    "solve": (_cmd_solve, _SOLVE_FLAGS + ("paths", "workers")),
    "verify": (_cmd_verify, ("cases", "families", "seed", "out")),
    "moments": (_cmd_moments, _SOLVE_FLAGS + ("paths", "workers")),
    "convergence": (_cmd_convergence, _SOLVE_FLAGS),
}


def run_experiment(cfg: ExperimentConfig) -> int:
    """Dispatch a subcommand; returns the process exit status."""
    if cfg.subcommand not in _COMMANDS:
        raise ValueError(f"unknown subcommand {cfg.subcommand!r}")
    try:
        # an unknown sampler or a count below its least value is a usage
        # error before any draw or output
        _sampler(cfg.sampler)
        for flag, least in (("paths", 1), ("cases", 1), ("m", 1), ("workers", 1),
                            ("seed", 0), ("emit-paths", 0)):
            value = getattr(cfg, _FLAGS[flag][0])
            if value < least:
                raise ValueError(f"--{flag} must be {('non-negative', 'positive')[least]}, got {value}")
        return _COMMANDS[cfg.subcommand][0](cfg, Path(cfg.out_dir))
    except (AdmissibilityError, CatalogError, ValueError) as exc:
        # bad parameters, an unknown catalog entry included, exit 2 like
        # usage errors; constraint violations name the condition
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VolterraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _read_config(path: str, flags: tuple[str, ...]) -> dict:
    """{ExperimentConfig attribute: value} from flat key = value lines
    whose keys are among flags; '#' starts a comment.  An unreadable
    file, a bad line, an unknown key or a bad value raises ValueError."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path!r}: {exc.strerror or exc}") from None
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line {raw.strip()!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in flags:
            raise ValueError(f"unknown config key {key!r}")
        attr, cast = _FLAGS[key]
        try:
            out[attr] = cast(val)
        except ValueError:
            raise ValueError(f"config key {key!r}: invalid value {val!r}") from None
    return out


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="volterra-fbm",
        description="Pathwise Volterra solver and estimate-verification suite",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        for flag in flags:
            attr, cast = _FLAGS[flag]
            # an absent flag sets no attribute
            p.add_argument(f"--{flag}", dest=attr, default=argparse.SUPPRESS, type=cast)
    return ap


def main(argv=None) -> int:
    given = vars(_build_parser().parse_args(argv))
    name, config = given.pop("subcommand"), given.pop("config")
    try:
        settings = _read_config(config, _COMMANDS[name][1]) if config else {}
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    settings.update(given)  # flags win over the config file
    return run_experiment(ExperimentConfig(subcommand=name, **settings))


if __name__ == "__main__":
    sys.exit(main())
