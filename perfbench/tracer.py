"""Span tracer that wraps the package's layer functions from outside.

Each traced function is replaced, at every module binding that holds
it, by a wrapper that records a span (id, parent id, name, start, end,
iterations).  Spans are kept in memory and aggregated into per-layer
self time and call counts when the run ends; nothing under ``src/``
knows about the tracer.

Span stacks are per thread.  A span opened on a thread whose stack is
empty (a worker thread of the CLI's pool) takes the current root span
as its parent, so a root's self time is its wall time minus the union
of its children's intervals, whichever thread ran them.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

# (module, function) pairs named after the package's modules; each is
# reported as <module>.<function>.self_s and .calls
LAYER_FUNCTIONS = (
    ("fbm", "sample_davies_harte"),
    ("fraccalc", "lambda_alpha"),
    ("fraccalc", "weyl_bracket_matrix"),
    ("fraccalc", "left_frac_derivative_all"),
    ("grid", "row_singular_integrals"),
    ("grid", "power_cell_weights"),
    ("norms", "w_alpha_lambda_norm"),
    ("norms", "w_alpha_infty_norm"),
    ("norms", "delta_functional"),
    ("norms", "holder_norm"),
    ("norms", "w_1malpha_norm"),
    ("integrals", "drift_term"),
    ("integrals", "diffusion_term"),
    ("integrals", "young_rs"),
    ("integrals", "young_frac"),
    ("coeffs", "verify_hypotheses"),
    ("solver", "picard_solve"),
    ("solver", "select_lambda"),
    ("solver", "total_lambda_alpha"),
    ("verify", "check_lebesgue_estimates"),
    ("verify", "check_rs_estimates"),
    ("verify", "check_sigma_lemmas"),
    ("verify", "check_aux_inequalities"),
)

PACKAGE = "volterra_fbm"


class Tracer:
    """Install with :meth:`installed`; open one root per operation with
    :meth:`root`; read the aggregate with :meth:`summary`."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_id = 0
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root_id
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            # list.append and next(count) are single atomic steps under
            # the interpreter lock, so worker threads need no lock here.
            # iterations is SolutionRecord.iterations, 0 for other layers
            self.spans.append((sid, parent, name, t0, t1, getattr(result, "iterations", 0)))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer function at each package binding that holds
        it; restore the originals on exit.  A function missing from its
        module is recorded in ``absent`` instead of failing the run."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        self.absent = []
        for mod_name, fn_name in LAYER_FUNCTIONS:
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            fn = getattr(home, fn_name, None) if home is not None else None
            if not callable(fn):
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, fn in reversed(self._patches):
                setattr(mod, attr, fn)
            self._patches.clear()

    @contextmanager
    def root(self, name: str):
        """Span around one operation; the parent of every span opened
        on a thread with an empty stack while it is open."""
        sid = next(self._ids)
        stack = self._stack()
        self._root_id = sid
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self._root_id = 0
            self.spans.append((sid, 0, name, t0, t1, 0))

    def summary(self) -> dict[str, dict[str, float]]:
        """{name: {"self_s", "calls", "iterations"}} summed over spans.

        Self time is the span's duration minus the measure of the union
        of its direct children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for sid, parent, _name, t0, t1, _it in self.spans:
            children.setdefault(parent, []).append((t0, t1))
        out: dict[str, dict[str, float]] = {}
        for sid, _parent, name, t0, t1, iters in self.spans:
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            agg = out.setdefault(name, {"self_s": 0.0, "calls": 0, "iterations": 0})
            agg["self_s"] += (t1 - t0) - covered
            agg["calls"] += 1
            agg["iterations"] += iters
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, parent, name, t0, t1, iters in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "iterations": iters}) + "\n")
