"""The benchmark's four workloads.

Each workload builds its inputs from the seed (``setup``), runs one
closed-loop operation (``op``, the timed part) and checks the outputs
of a whole run (``check``, untimed).  Every call into the package goes
through a module attribute (``vf.solver.picard_solve``), so the tracer's
wrappers see the benchmark's own calls as well as the package's.

Why these four: the package's cost is O(n^2) two-time tables.
``solve-large`` has tables past the L2 cache and exercises the drift,
diffusion and norm layers once per Picard iteration; ``ensemble-small``
has tiny tables, so per-call overhead, the capacity functional and
driver sampling dominate, and drift is bypassed (b = 0);
``verify-suite`` makes thousands of n = 64 norm and quadrature calls;
``crosscheck-frac`` is the only workload that reaches the fractional
derivative route (``young_frac``), which the other three bypass.

Correctness bounds are set per size from the seed commit's behaviour
(README.md, "Correctness checks"): about twice the worst value seen over
the seeds measured there.  Where reference/<workload>.json holds a
fingerprint recorded at the seed commit for the size and seed, the
outputs must also match it.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import volterra_fbm as vf
import volterra_fbm.cli  # the package's __init__ does not import the CLI

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def table_bytes(n: int) -> int:
    """Computed size of one (n+1)^2 float64 two-time table."""
    return 8 * (n + 1) ** 2


@dataclass
class Outcome:
    """What one operation returns to the runner."""

    ok: bool
    value: object = None
    # work units the operation completed (Picard iterations, paths)
    units: int = 1


class SolveLarge:
    """``picard_solve`` on smooth-volterra, n = 2048, H = 0.75,
    alpha = 0.3, tol = 1e-8, on one Davies-Harte driver per seed."""

    name = "solve-large"
    root = "op"
    unit = "Picard iteration"

    def __init__(self, tiny: bool):
        # bound on sup|picard - euler| / sup|euler|; Euler's error grows
        # as the grid coarsens
        self.n, self.euler_gap_max = (64, 2e-2) if tiny else (2048, 1e-3)

    def setup(self, seed: int, out_dir: Path):
        self.key = f"n={self.n},seed={seed}"
        grid = vf.build_grid(1.0, self.n)
        cs = vf.builtin_coefficients("smooth-volterra")
        params = vf.HolderParams(H=0.75, alpha=0.3, T=1.0)
        driver = vf.fbm.sample_davies_harte(grid, 0.75, cs.m, vf.Seed(seed), 0)
        return cs, np.full(cs.d, 1.0), driver, params

    def op(self, inputs) -> Outcome:
        cs, x0, driver, params = inputs
        rec = vf.solver.picard_solve(cs, x0, driver, params, tol=1e-8)
        return Outcome(rec.converged, rec, units=rec.iterations)

    def fingerprint(self, inputs, outcome: Outcome) -> dict:
        x = outcome.value.x.values
        return {"iterations": outcome.value.iterations,
                "x_sup_end_mean": [float(np.max(np.abs(x))), float(x[-1, 0]), float(np.mean(x))]}

    def same(self, recorded: dict, current: dict) -> bool:
        return (recorded["iterations"] == current["iterations"]
                and close(recorded["x_sup_end_mean"], current["x_sup_end_mean"]))

    def check(self, inputs, outcomes) -> tuple[bool, dict]:
        cs, x0, driver, _params = inputs
        first = outcomes[0].value.x.values
        repeat = all(np.array_equal(o.value.x.values, first) for o in outcomes)
        euler = vf.solver.euler_solve(cs, x0, driver).values
        gap = float(np.max(np.abs(first - euler)) / np.max(np.abs(euler)))
        matches = matches_recorded(self, self.fingerprint(inputs, outcomes[0]))
        ok = repeat and gap <= self.euler_gap_max and matches is not False
        return ok, {"repeats_identical": repeat, "euler_rel_gap": gap,
                    "euler_rel_gap_max": self.euler_gap_max, "matches_recorded": matches}


class CliWorkload:
    """One ``volterra-fbm`` subcommand run in-process through
    ``volterra_fbm.cli.main``; its stdout is captured, not printed."""

    root = "cli"

    def setup(self, seed: int, out_dir: Path):
        return self.argv(seed, out_dir), out_dir

    def run_cli(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return vf.cli.main(argv)


class EnsembleSmall(CliWorkload):
    """``volterra-fbm moments --coeffs bounded-growth --n 96 --paths 256
    --workers 2``."""

    name = "ensemble-small"
    unit = "path"

    def __init__(self, tiny: bool):
        self.n, self.paths = (16, 8) if tiny else (96, 256)

    def argv(self, seed, out_dir):
        self.key = f"n={self.n},paths={self.paths},seed={seed}"
        return ["moments", "--coeffs", "bounded-growth", "--n", str(self.n),
                "--paths", str(self.paths), "--workers", "2",
                "--seed", str(seed), "--out", str(out_dir)]

    def op(self, inputs) -> Outcome:
        argv, out_dir = inputs
        code = self.run_cli(argv)
        text = (out_dir / "moments.csv").read_text() if code == 0 else ""
        return Outcome(code == 0, text, units=self.paths)

    def fingerprint(self, inputs, outcome: Outcome) -> str:
        return outcome.value

    def same(self, recorded: str, current: str) -> bool:
        # the CLI promises byte-stable outputs for a fixed config and seed
        return recorded == current

    def check(self, inputs, outcomes) -> tuple[bool, dict]:
        text = outcomes[0].value
        repeat = all(o.value == text for o in outcomes)
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        p, est, lo, hi, paths = (np.array(col, dtype=float) for col in zip(*rows))
        sane = bool(list(p) == [1.0, 2.0, 4.0] and bool(np.all(np.isfinite(est)))
                and bool(np.all((lo <= est) & (est <= hi)))
                and bool(np.all(paths == self.paths))
                # Jensen: E X^4 >= (E X^2)^2 >= (E X)^4 for X >= 0
                and est[2] >= est[1] ** 2 >= est[0] ** 4)
        matches = matches_recorded(self, text)
        ok = repeat and sane and matches is not False
        return ok, {"repeats_identical": repeat, "sane": sane, "matches_recorded": matches}


class VerifySuite(CliWorkload):
    """``volterra-fbm verify --cases 200`` over all five families."""

    name = "verify-suite"
    unit = "verify run"
    families = ("lebesgue", "stieltjes", "lemmas", "aux", "hypotheses")

    def __init__(self, tiny: bool):
        self.cases = 2 if tiny else 200
        self.n = vf.SuiteConfig().grid_n

    def argv(self, seed, out_dir):
        return ["verify", "--cases", str(self.cases), "--seed", str(seed),
                "--out", str(out_dir)]

    def op(self, inputs) -> Outcome:
        argv, out_dir = inputs
        code = self.run_cli(argv)
        failed = []
        for fam in self.families:
            payload = json.loads((out_dir / f"verify_{fam}.json").read_text())
            failed += [f"{fam}/{c['name']}" for c in payload["checks"] if not c["passed"]]
        return Outcome(code == 0 and not failed, failed)

    def check(self, inputs, outcomes) -> tuple[bool, dict]:
        failed = sorted({f for o in outcomes for f in o.value})
        return not failed, {"failed_checks": failed}


class CrosscheckFrac:
    """``young_frac`` at n = 1024, alpha = 0.2 on the kernel
    f(t, s) = g(s) of a Davies-Harte driver g (H = 0.75); the pathwise
    closed form int_0^t g dg = (g(t)^2 - g(0)^2) / 2 is the reference."""

    name = "crosscheck-frac"
    root = "op"
    unit = "young_frac call"

    def __init__(self, tiny: bool):
        # bounds on sup|young_frac - g^2/2| / sup|g^2/2| and on
        # sup|young_frac - young_rs| / sup|young_rs|
        self.n, self.rel_err_max, self.rs_gap_max = (32, 1.2, 0.4) if tiny else (1024, 0.6, 0.2)

    def setup(self, seed: int, out_dir: Path):
        self.key = f"n={self.n},seed={seed}"
        grid = vf.build_grid(1.0, self.n)
        g = vf.fbm.sample_davies_harte(grid, 0.75, 1, vf.Seed(seed), 0)
        rows = np.broadcast_to(g.values[None, :, 0], (self.n + 1, self.n + 1)).copy()
        return vf.BivariateKernelValues(grid, rows), g

    def op(self, inputs) -> Outcome:
        kernel, g = inputs
        vals = vf.integrals.young_frac(kernel, g, 0.2).values.values[:, 0]
        return Outcome(bool(np.all(np.isfinite(vals))), vals)

    def fingerprint(self, inputs, outcome: Outcome) -> dict:
        kernel, g = inputs
        vals = outcome.value
        closed = (g.values[:, 0] ** 2 - g.values[0, 0] ** 2) / 2.0
        rs = vf.integrals.young_rs(kernel, g).values.values[:, 0]
        return {"frac_rel_err": float(np.max(np.abs(vals - closed)) / np.max(np.abs(closed))),
                "frac_rs_rel_gap": float(np.max(np.abs(vals - rs)) / np.max(np.abs(rs))),
                "sup_end": [float(np.max(np.abs(vals))), float(vals[-1])]}

    def same(self, recorded: dict, current: dict) -> bool:
        return close([recorded["frac_rel_err"], recorded["frac_rs_rel_gap"]] + recorded["sup_end"],
                     [current["frac_rel_err"], current["frac_rs_rel_gap"]] + current["sup_end"])

    def check(self, inputs, outcomes) -> tuple[bool, dict]:
        first = outcomes[0].value
        repeat = all(np.array_equal(o.value, first) for o in outcomes)
        fp = self.fingerprint(inputs, outcomes[0])
        matches = matches_recorded(self, fp)
        ok = (repeat and fp["frac_rel_err"] <= self.rel_err_max
              and fp["frac_rs_rel_gap"] <= self.rs_gap_max and matches is not False)
        return ok, {"repeats_identical": repeat,
                    "frac_rel_err": fp["frac_rel_err"], "frac_rel_err_max": self.rel_err_max,
                    "frac_rs_rel_gap": fp["frac_rs_rel_gap"], "frac_rs_rel_gap_max": self.rs_gap_max,
                    "matches_recorded": matches}


WORKLOADS = {w.name: w for w in (SolveLarge, EnsembleSmall, VerifySuite, CrosscheckFrac)}


# Relative tolerance against recorded values.  A new summation order (an
# FFT quadrature, one norm aggregate per iterate) moves these results by
# round-off, far below it; a defect moves them by more.
RECORDED_RTOL = 1e-7


def close(recorded: list[float], current: list[float]) -> bool:
    return bool(np.allclose(current, recorded, rtol=RECORDED_RTOL, atol=0.0))


def recorded(name: str) -> dict:
    """Fingerprints recorded at the seed commit for workload ``name``,
    keyed by size and seed (record_references.py writes them)."""
    path = REFERENCE_DIR / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def matches_recorded(w, fingerprint):
    """True or False against the recorded fingerprint of this size and
    seed, or "not recorded" when there is none."""
    ref = recorded(w.name).get(w.key)
    return "not recorded" if ref is None else w.same(ref, fingerprint)


def clean(out_dir: Path) -> None:
    shutil.rmtree(out_dir, ignore_errors=True)
