"""Uniform time grids, sampled functions and product quadrature for
weakly singular power kernels.

Every integral in this package has the form of a power kernel
``(t - s)**-theta`` (or its left-sided mirror ``(s - a)**-theta``)
against a function known at the grid nodes.  The quadrature used
throughout replaces the integrand by its piecewise-linear interpolant
and integrates each cell against the kernel in closed form, so it is
exact for piecewise-linear data and keeps its order on kernels with
``theta`` up to 2 provided the integrand vanishes at the singular
endpoint (increment-type integrands).  For ``theta >= 1`` every rule
checks that it does, refusing a non-finite endpoint value too
(SingularityError), and the singular cell's near node gets weight 0,
so no rule treats that node apart.

One integral over k cells takes ``right_singular_integral`` (singular
at the right end) or its mirror ``left_singular_integral``;
``prefix_singular_integrals`` gives every prefix of one left-singular
integral.

On a uniform grid the node weights depend only on the gap i - j
between the node and the singular endpoint, so a whole row rule is one
Toeplitz matrix of gap weights.  Three routes share it:

- ``row_singular_integrals``: any (n+1)^2 table of integrands, O(n^2);
  the rule for general tables and the oracle of the other two.
- ``abs_increment_row_integrals_many``: the integrands |v_i - v_j|^p of
  several samples, each (n_k+1, d_k) with its own power, or stacks
  (S, n_k+1, d_k) of samples sharing one, O(n^2 d) per sample without
  building the table; bit-identical to ``row_singular_integrals`` on
  each table.  ``abs_increment_row_integrals`` is its one-sample case.
- ``increment_row_integrals``: the signed integrands v_i - v_j of
  scalar samples stacked as rows, one FFT convolution for all rows,
  O(n log n) per row; equal to the direct rule up to round-off.

The first two are one kernel, ``_blocked_row_rule``: rows in the blocks
of ``_row_blocks``, each block cut at its last row's column (the weights
beyond are zero), one weight copy per block for all samples, one einsum
per block and entry, a sample or a stack.  One path takes blocks of 64
rows (the last one up to 127); a stack of P paths takes fewer rows, in
multiples of 32, so that P x rows x columns stays within 2^16 entries
where 32 rows allow it.  A Picard step of a batch passes two stacks (its
paths' gaps and iterates), the verify suite's double integrals dozens
of single samples.

Sups over node pairs s < t (Weyl bracket, Lambda_alpha, driver and Holder
norms) take ``_pair_blocks``: increments and left-singular tail integrals
of a stack of samples by (sample, row, gap), in the same row blocks, a
stack's in multiples of 8 rows.

``power_cell_weights`` keeps one read-only weight table per power-of-two
size and (h, theta); a shorter row's weights are a bit-exact prefix of a
longer row's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SingularityError

__all__ = [
    "TimeGrid",
    "GridFunction",
    "BivariateKernelValues",
    "build_grid",
    "power_cell_weights",
    "gap_weights",
    "row_singular_integrals",
    "abs_increment_row_integrals",
    "abs_increment_row_integrals_many",
    "increment_row_integrals",
    "prefix_singular_integrals",
    "left_singular_integral",
    "right_singular_integral",
]

# |phi(endpoint)| above this (relative to the integrand scale) with
# theta >= 1 is a non-integrable singularity, not rounding noise.
_ENDPOINT_ATOL = 1e-12

# rows per block of one path's row rules and pair tables (_row_blocks).  A
# block of r rows computes about r^2 / 2 entries above the diagonal that no
# rule reads, so 64 rows waste a quarter of what 256 did; at n = 2048 a
# block of weights, integrands or pair increments is 1 MB, inside a 2 MB L2
_ROW_CHUNK = 64

# entries P x rows x columns of one block of a stack of P paths
# (_row_blocks): 0.5 MB of doubles, the size of a six-path block at n = 96
_BLOCK_ENTRIES = 2 ** 16

# a stack's blocks shrink in multiples of this many rows where an einsum
# reduces along the row (_blocked_row_rule explains why 32 keeps the bits)
_LANE_ROWS = 32

# the pair tables (_pair_blocks) are elementwise or a cumsum along the row,
# neutral to any cut: a stack's blocks shrink in multiples of 8 rows there
_PAIR_ROWS = 8

# node-pair entries S (n+1)^2 of one stack of S paths (_stack_size), for
# a CLI solve batch and a stacked norm pass alike: 27 paths at n = 96, 3
# at n = 256, one from n = 362.  The stack's blocks keep to _BLOCK_ENTRIES
_STACK_ENTRIES = 2 ** 18


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into n cells, nodes t_i = i*T/n."""

    n: int
    T: float
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError(f"horizon must be positive and finite, got T={self.T}")
        if self.n < 2:
            raise ValueError(f"need at least 2 cells, got n={self.n}")
        object.__setattr__(self, "nodes", np.linspace(0.0, self.T, self.n + 1))

    @property
    def h(self) -> float:
        return self.T / self.n


def build_grid(T: float, n: int) -> TimeGrid:
    """Uniform grid on [0, T] with n cells."""
    return TimeGrid(n=int(n), T=float(T))


@dataclass(frozen=True)
class GridFunction:
    """d-dimensional function sampled at the grid nodes; values has
    shape (n+1, d)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.shape[0] != self.grid.n + 1:
            raise ValueError(
                f"expected {self.grid.n + 1} node values, got {v.shape[0]}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("grid function values must be finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(cls, grid: TimeGrid, fn) -> "GridFunction":
        vals = np.asarray([np.atleast_1d(fn(t)) for t in grid.nodes], dtype=float)
        return cls(grid, vals)

    def pointwise_norm(self) -> np.ndarray:
        """Euclidean magnitude per node, shape (n+1,)."""
        return np.linalg.norm(self.values, axis=1)

    def sup_norm(self) -> float:
        return float(self.pointwise_norm().max())


@dataclass(frozen=True)
class BivariateKernelValues:
    """Kernel f(t_i, t_j) tabulated on the lower triangle j <= i.

    values has shape (n+1, n+1) plus optional trailing value dimensions
    (d,) or (d, m); entries above the diagonal are ignored by every
    consumer and are zeroed on construction.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        n1 = self.grid.n + 1
        if v.shape[0] != n1 or v.shape[1] != n1:
            raise ValueError(f"expected leading shape ({n1}, {n1}), got {v.shape}")
        tri = np.tril(np.ones((n1, n1), dtype=bool))
        v = np.where(tri.reshape(tri.shape + (1,) * (v.ndim - 2)), v, 0.0)
        if not np.all(np.isfinite(v)):
            raise ValueError("kernel values must be finite on the lower triangle")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(cls, grid: TimeGrid, fn) -> "BivariateKernelValues":
        """Tabulate fn(t, s) for s <= t; fn must broadcast over numpy
        arrays of (t, s)."""
        t = grid.nodes[:, None]
        s = grid.nodes[None, :]
        # clip keeps evaluations inside the physical domain s <= t; the
        # strict upper triangle is zeroed afterwards anyway
        vals = np.asarray(fn(t, np.minimum(s, t)), dtype=float)
        return cls(grid, vals)


def _power_cell_table(n_cells: int, h: float, theta: float):
    g = np.arange(n_cells + 1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if theta == 1.0:
            p0 = np.log(g + 1.0) - np.log(g)
        else:
            p0 = h ** (1.0 - theta) * ((g + 1.0) ** (1.0 - theta) - g ** (1.0 - theta)) / (1.0 - theta)
        p1 = h ** (2.0 - theta) * ((g + 1.0) ** (2.0 - theta) - g ** (2.0 - theta)) / (2.0 - theta)
        a = (p1 - g * h * p0) / h
    # g=0 with theta >= 1: p0 = inf.  The far weight reduces to the finite
    # first moment; the near node holds a value every rule requires to
    # vanish (_check_increment_endpoint), so its weight 0 loses nothing
    a[0] = h ** (1.0 - theta) / (2.0 - theta)
    b = p0 - a
    if theta >= 1.0:
        b[0] = 0.0
    a.flags.writeable = False
    b.flags.writeable = False
    return a, b


# a run uses a handful of tables, the verify suite's random alphas new
# ones per case
_power_cell_tables = functools.lru_cache(maxsize=32)(_power_cell_table)


def power_cell_weights(n_cells: int, h: float, theta: float):
    """Node weights for product integration against u**-theta on a
    uniform grid, indexed by cell distance ("gap") from the singularity.

    The cell at gap g spans u in [g*h, (g+1)*h].  Returns (A, B) where
    A[g] multiplies the integrand value at the cell node farther from
    the singularity and B[g] the nearer one.  A has length n_cells,
    B length n_cells + 1 (B[n_cells] is needed by row corrections).
    For theta >= 1, B[0] is 0: the nearer node of the singular cell
    holds the integrand's value at the singularity, which every rule
    requires to vanish.  Every weight is finite.

    Every weight is a function of (g, h, theta) alone, so the weights
    of a shorter row are a bit-exact prefix of a longer row's.  One
    table per (h, theta) and power of two above n_cells serves every
    shorter row; A and B are read-only views into it.
    """
    if not 0.0 <= theta < 2.0:
        raise ValueError(f"kernel exponent must lie in [0, 2), got {theta}")
    a, b = _power_cell_tables(1 << int(n_cells).bit_length(), float(h), float(theta))
    return a[:n_cells], b[: n_cells + 1]


def _check_increment_endpoint(endpoint_vals: np.ndarray, phi: np.ndarray, theta: float):
    """For theta >= 1, the integrand phi must vanish at the singular
    endpoint up to _ENDPOINT_ATOL of its scale; a NaN or infinite
    endpoint value is refused too.  This check is what makes the
    endpoint's zero weight in power_cell_weights exact.  A NaN elsewhere
    in phi is not its business: it propagates into the integral."""
    if theta < 1.0:
        return
    scale = float(np.max(np.abs(phi))) if phi.size else 0.0
    tol = _ENDPOINT_ATOL * max(scale, 1.0)
    worst = float(np.max(np.abs(endpoint_vals))) if np.size(endpoint_vals) else 0.0
    if not np.isfinite(worst) or worst > tol:
        raise SingularityError(
            f"kernel exponent {theta} >= 1 needs an integrand vanishing at the "
            f"singular endpoint; endpoint magnitude {worst:.3e}"
        )


def right_singular_integral(values: np.ndarray, h: float, theta: float):
    """integral over [t - k*h, t] of (t - s)**-theta * phi(s) ds for phi
    sampled at the k+1 nodes, shape (k+1,) or (k+1, d); singularity at
    the right endpoint.  Returns a scalar, or shape (d,).

    The mirror of left_singular_integral: exact for piecewise-linear
    phi.  For theta >= 1 requires values[-1] == 0 (SingularityError
    otherwise).  A single node (k = 0) is an empty integral.
    """
    phi = np.asarray(values, dtype=float)
    k = phi.shape[0] - 1
    if k < 1:
        return np.zeros(phi.shape[1:])[()]
    a, b = power_cell_weights(k, h, theta)
    _check_increment_endpoint(phi[-1], phi, theta)
    a, b = (w.reshape(w.shape + (1,) * (phi.ndim - 1)) for w in (a, b))
    # cell m at gap g = k-m-1: far node phi[m], near node phi[m+1]
    far = phi[:-1][::-1]
    near = phi[1:][::-1]
    return (a * far + b[:k] * near).sum(axis=0)


def left_singular_integral(values: np.ndarray, h: float, theta: float) -> float:
    """integral over [a, a + k*h] of (s - a)**-theta * phi(s) ds for phi
    sampled at the k+1 nodes; singularity at the left endpoint.

    The product rule of right_singular_integral, mirrored: cell
    distances are symmetric.  For theta >= 1 requires values[0] == 0.
    """
    phi = np.asarray(values, dtype=float)
    k = phi.shape[0] - 1
    if k < 1:
        return 0.0
    a, b = power_cell_weights(k, h, theta)
    _check_increment_endpoint(phi[0], phi, theta)
    near = phi[:-1]
    far = phi[1:]
    return float(np.dot(a, far)) + float(np.dot(b[:k], near))


def prefix_singular_integrals(values: np.ndarray, h: float, theta: float) -> np.ndarray:
    """All prefix integrals I_i = integral_0^{t_i} s**-theta * phi(s) ds
    for a fixed integrand phi (left singularity at s = 0 shared by all
    prefixes).  Returns shape (n+1,) + value dims."""
    phi = np.asarray(values, dtype=float)
    n = phi.shape[0] - 1
    a, b = power_cell_weights(n, h, theta)
    _check_increment_endpoint(phi[0], phi, theta)
    shape_tail = (1,) * (phi.ndim - 1)
    contrib = a.reshape((n,) + shape_tail) * phi[1:] + b[:n].reshape((n,) + shape_tail) * phi[:-1]
    out = np.zeros_like(phi)
    np.cumsum(contrib, axis=0, out=out[1:])
    return out


def gap_weights(n_cells: int, h: float, theta: float):
    """Combined node weights of the right-sided row rule, by gap.

    Returns (c, b) with b from power_cell_weights.  c[g] (g = 1..n_cells)
    weighs the node at gap g from the singular node: the far part of
    cell g-1 plus the near part of cell g.  c[0] = b[0] weighs the
    singular node itself (0 for theta >= 1, where the integrand must
    vanish).  The first node of a row at gap i has no cell beyond it,
    so row rules subtract b[i] times its value.
    """
    a, b = power_cell_weights(n_cells, h, theta)
    c = np.empty(n_cells + 1)
    c[0] = b[0]
    c[1:] = a + b[1:]
    return c, b


def _toeplitz_block(c: np.ndarray) -> np.ndarray:
    """Zero-copy (n+1, n+1) view W with W[i, j] = c[i - j] for j <= i
    and 0 above the diagonal: row i is the window of
    concat(c[::-1], zeros(n+1)) starting at n - i."""
    n1 = c.shape[0]
    padded = np.concatenate([c[::-1], np.zeros(n1)])
    return sliding_window_view(padded, n1)[n1 - 1 :: -1]


def row_singular_integrals(rows: np.ndarray, h: float, theta: float) -> np.ndarray:
    """Per-row singular integrals against the right-sided kernel.

    rows[i, j] samples the integrand of row i at node s_j (j <= i; the
    strict upper triangle is never read, so a non-finite entry there
    changes nothing).  Returns out[i] =
    integral_0^{t_i} (t_i - s)**-theta * rows[i](s) ds for every i.

    For theta >= 1 the integrands must vanish on the diagonal, rows[i, i]
    == 0 (increment-type integrands; SingularityError otherwise).

    The rule for general tables, and the oracle of the two increment
    routes.  Cost O(n^2) on top of the caller's table, through the same
    blocked kernel as abs_increment_row_integrals, which is what makes
    the two bit-identical.
    """
    # a row block spans columns past its first rows' diagonals, where a
    # zero weight times a non-finite entry would be NaN
    m = np.tril(np.asarray(rows, dtype=float))
    n = m.shape[0] - 1
    _check_increment_endpoint(np.diagonal(m), m, theta)
    return _blocked_row_rule(h, theta, [(n + 1,)], lambda k, lo, hi: m[lo:hi, :hi])[0]


def abs_increment_row_integrals(
    values: np.ndarray, h: float, theta: float, power: float = 1.0
) -> np.ndarray:
    """out[i] = integral_0^{t_i} (t_i - s)**-theta * |v(t_i) - v(s)|**power ds
    for every i, for a sample v of shape (n+1,) or (n+1, d) (Euclidean
    norm over the d components).  The one-sample case of
    abs_increment_row_integrals_many."""
    return abs_increment_row_integrals_many([(values, power)], h, theta)[0]


def abs_increment_row_integrals_many(samples, h: float, theta: float) -> list[np.ndarray]:
    """abs_increment_row_integrals of each (values, power) in samples, in
    one pass: the gap weights and each block's weight copy serve every
    sample.  Each values is one sample, (length,) or (length, d), with a
    (length,) result, or a stack of S samples of one length, (S, length,
    d), with an (S, length) result.  Entries may differ in length,
    dimension and power; each sample's result is bit for bit its own
    one-sample call, stacked or not.  A stack is one entry of the pass,
    a list of samples one entry per sample.

    Fused form of row_singular_integrals on the table
    rows[i, j] = |v_i - v_j|**power, without building that table:

        out[i] = sum_{j<=i} c[i-j] |v_i - v_j|**p - b[i] |v_i - v_0|**p.

    The increments of a block go to one buffer shared by all entries, a
    stack's in one call: |v_i - v_j| for d = 1 (equal to the table's
    sqrt((v_i - v_j)**2) unless that square under- or overflows),
    sqrt(add.reduce(d*d, axis=-1)) for d > 1, then the power in place.
    Cost O(n^2 d) time per sample.  Memory: one block of the largest
    entry, 64 (n+1) d doubles for one sample; a stack of S takes blocks
    of at most 2^16 d doubles, or of 32 rows, 32 (n+1) d S, where even
    those hold more (_row_blocks).  The diagonal is zero by
    construction, so theta >= 1 needs no endpoint check.
    """
    vs, powers = [], []
    for values, power in samples:
        v = np.asarray(values, dtype=float)
        vs.append(v[:, None] if v.ndim == 1 else v)
        powers.append(power)
    shapes = [v.shape[:-1] for v in vs]
    n = max(shape[-1] for shape in shapes) - 1
    # one block of increments for the widest entry (S d columns per node),
    # in _blocked_row_rule's blocks
    rows = max((hi - lo for lo, hi in _row_blocks(1, n + 1, _stack_paths(shapes))), default=0)
    buf = np.empty(rows * (n + 1) * max(v.size // v.shape[-2] for v in vs))

    def increments(k, lo, hi):
        v = vs[k]
        if v.shape[-1] == 1:
            m = np.ndarray(v.shape[:-2] + (hi - lo, hi), buffer=buf)
            np.subtract(v[..., lo:hi, :], v[..., None, :hi, 0], out=m)
            np.abs(m, out=m)
        else:
            d = np.ndarray(v.shape[:-2] + (hi - lo, hi, v.shape[-1]), buffer=buf)
            np.subtract(v[..., lo:hi, None, :], v[..., None, :hi, :], out=d)
            np.multiply(d, d, out=d)
            m = np.add.reduce(d, axis=-1)
            np.sqrt(m, out=m)
        if powers[k] != 1.0:
            m **= powers[k]
        return m

    return _blocked_row_rule(h, theta, shapes, increments)


def _row_blocks(start: int, stop: int, paths: int = 1, unit: int = _LANE_ROWS) -> list[tuple[int, int]]:
    """Row blocks (lo, hi) covering start <= i < stop, each row up to stop
    columns wide, for a stack of that many paths.  One path takes
    _ROW_CHUNK rows a block; a stack takes fewer where paths x rows x
    stop would pass _BLOCK_ENTRIES, in multiples of unit and at least
    unit rows (a rule that reduces along the row by einsum needs the
    default, _LANE_ROWS; the pair tables pass a finer one).  The last
    block also takes a remainder shorter than the block: a block of its
    own would cost one more call per sample for less work than it saves
    (a 33-row second block at n = 96 slowed the CLI's two-thread batches
    of paths by a fifth, against one 97-row block).  An empty range has
    no block."""
    rows = _ROW_CHUNK
    if paths > 1:
        rows = min(rows, max(unit, _BLOCK_ENTRIES // (paths * stop) // unit * unit))
    count = max(1, (stop - start) // rows)
    edges = [start + k * rows for k in range(count)] + [stop]
    return list(zip(edges[:-1], edges[1:])) if stop > start else []


def _part_paths(stop: int) -> int:
    """Paths of a stack whose _LANE_ROWS-row blocks of stop columns keep to
    _BLOCK_ENTRIES, at least one: a rule that cannot shrink its blocks
    further takes a larger stack in parts of this many paths."""
    return max(1, _BLOCK_ENTRIES // (_LANE_ROWS * stop))


def _stack_paths(shapes) -> int:
    """Paths of the largest stack among entries shaped (length,) for one
    sample or (S, length) for a stack of S."""
    return max((shape[0] for shape in shapes if len(shape) == 2), default=1)


def _stack_size(n: int) -> int:
    """Paths of one stack on n cells: _STACK_ENTRIES // (n+1)^2, at least one."""
    return max(1, _STACK_ENTRIES // (n + 1) ** 2)


def _blocked_row_rule(h: float, theta: float, shapes, block_of) -> list[np.ndarray]:
    """The row rule of several entries, each one sample or a stack of S
    samples of one length, shapes[k] = (length,) or (S, length):
    out_k[..., i] = sum_{j<=i} W[i, j] rows_k[..., i, j] - b[i]
    rows_k[..., i, 0] for every row i (row 0 is an empty integral), in
    the row blocks of _row_blocks for the largest stack.
    block_of(k, lo, hi) returns rows_k[..., lo:hi, :hi]: a block stops
    at its last row's column, past which every weight is zero.  The gap weights and each block's weight
    copy are made once for all entries; one einsum and one b-correction
    per block serve a whole entry, a stack's S samples included.
    Returns one array of shapes[k] per entry.

    The einsum's rounding depends on the row length, so an entry keeps
    its own length: appending zero columns changes the last bit of some
    sums.  It does not depend on the stack: each sample's sums are those
    of its own one-sample entry (tests/test_stacks.py).  Cutting a block
    at column hi does not move bits either; tests/test_row_kernel.py pins
    the outputs of the full-width rule.  Blocks start at rows 1 + r k,
    r being 64 for one path and a multiple of 32 for a stack, so every
    block but the last (which ends at the full width) is one past a
    multiple of 32 columns wide, and 32 is a multiple of the einsum's
    vector loop (4 x 8 doubles on AVX-512): every nonzero term
    of a row keeps its lane in any block, the zero columns of a wider
    block add +0.0, and the last kept column, alone past the vector loop,
    holds only the last row's diagonal term.  tests/test_block_neutrality.py
    compares blocks of 32 to 256 rows; 50 rows move bits.
    """
    n = max(shape[-1] for shape in shapes) - 1
    c, b = gap_weights(n, h, theta)
    weights = _toeplitz_block(c)
    blocks = _row_blocks(1, n + 1, _stack_paths(shapes))
    wbuf = np.empty(max((hi - lo for lo, hi in blocks), default=0) * (n + 1))
    outs = [np.zeros(shape) for shape in shapes]
    for lo, hi in blocks:
        w = wbuf[: (hi - lo) * hi].reshape(hi - lo, hi)
        np.copyto(w, weights[lo:hi, :hi])
        for k, out in enumerate(outs):
            top = min(hi, out.shape[-1])
            if top <= lo:
                continue
            block = block_of(k, lo, top)
            seg = out[..., lo:top]
            np.einsum("ij,...ij->...i", w[: top - lo, :top], block, out=seg)
            # node j=0 carries only the far weight of cell 0
            seg -= b[lo:top] * block[..., 0]
    return outs


def increment_row_integrals(values: np.ndarray, h: float, theta: float) -> np.ndarray:
    """out[..., i] = integral_0^{t_i} (t_i - s)**-theta * (v(t_i) - v(s)) ds
    for every i, for scalar samples v stacked along the leading axes:
    values (..., n+1), one sample per row.

    Same rule as row_singular_integrals on the signed increment rows
    rows[i, j] = v[i] - v[j], without building them.  The weights depend
    only on the gap i - j, so with w = v - v[0] (increments do not see
    the shift, and w[0] = 0 drops the first-node correction's v[0]):

        out[i] = w[i] * (sum_{1<=g<=i} c[g] - b[i]) - sum_{j<i} c[i-j] w[j].

    The last sum is a causal convolution, computed for all rows by one
    real FFT along the last axis, zero-padded to a power of two >= 2n + 1,
    so the cost is O(n log n) per row instead of O(n^2).  The summation
    order differs from the direct rule; the two agree to 1e-12 of the
    row scale max|w| * sum(c).  Entry i of a row sees its entries j <= i
    only, up to that round-off.
    """
    v = np.asarray(values, dtype=float)
    n = v.shape[-1] - 1
    c, b = gap_weights(n, h, theta)
    w = v - v[..., :1]
    size = 1 << (2 * n).bit_length()
    conv = np.fft.irfft(np.fft.rfft(c, size) * np.fft.rfft(w, size), size)
    out = np.zeros_like(w)
    # index 0 is an empty integral: left at 0, not at the FFT's round-off
    out[..., 1:] = w[..., 1:] * (np.cumsum(c)[1:] - b[1:]) - conv[..., 1 : n + 1]
    return out


def _gap_powers(k: int, h: float, exponent: float) -> np.ndarray:
    """(g*h)**exponent for the gaps g = 1..k of the node-pair tables, by
    numpy's array power: every consumer of a pair's gap power takes it
    from here, so they agree to the bit (Python's scalar ** rounds
    differently for a few percent of gaps)."""
    return (np.arange(1, k + 1) * h) ** exponent


def _pair_blocks(values, h: float, lo: int, hi: int, theta: float | None = None, signed: bool = True):
    """Node-pair tables of P samples stacked as values (P, n+1) or
    (P, n+1, d), rows lo <= a < hi, in the row blocks (a0, a1) of _row_blocks:
    yields (a0, dv, tail) with dv[p, a - a0, k - 1] = v_p[a] - v_p[a + k]
    for k = 1..n - a0 (NaN past t_n; the sign of the Weyl integrand,
    zeros included), shape (P, rows, n - a0[, d]), and, given theta (scalar
    samples only), tail[p, a - a0, k - 1] = int_{t_a}^{t_{a+k}} psi(y)
    (y - t_a)**-theta dy, psi = v_p[a] - v_p(y) (signed) or
    |v_p(y) - v_p[a]|: the one-row product rule's terms, summed by a
    sequential cumsum along k, so bit for bit that rule.  Every operation
    is elementwise or runs along k, so a sample's blocks are bit for bit
    those of its own one-sample stack (P = 1).  dv and tail live in two
    buffers that every block reuses: callers may overwrite them, and are
    done with a block when they draw the next."""
    v = np.asarray(values, dtype=float)
    n = v.shape[1] - 1
    # a block of r <= hi - lo rows reads its last window up to r - 1 nodes past t_n
    pad = np.concatenate([v, np.full((v.shape[0], hi - lo) + v.shape[2:], np.nan)], axis=1)
    blocks = _row_blocks(lo, hi, len(v), _PAIR_ROWS)
    size = v[:, 0].size * max(((a1 - a0) * (n - a0) for a0, a1 in blocks), default=0)
    dv_buf, tail_buf = np.empty(size), np.empty(size if theta is not None else 0)
    for a0, a1 in blocks:
        k = n - a0
        # the windows of v after rows a0..a1-1; for d > 1 the window axis goes before d
        ahead = np.moveaxis(sliding_window_view(pad, k, axis=1)[:, a0 + 1 : a1 + 1], -1, 2)
        dv = np.ndarray((len(v), a1 - a0) + ahead.shape[2:], buffer=dv_buf)
        np.subtract(v[:, a0:a1, None], ahead, out=dv)
        tail = None
        if theta is not None:
            a_w, b_w = power_cell_weights(k, h, theta)
            psi = dv if signed else np.abs(dv)
            tail = np.multiply(a_w, psi, out=np.ndarray(dv.shape, buffer=tail_buf))
            tail[..., 1:] += b_w[1:k] * psi[..., :-1]
            np.cumsum(tail, axis=-1, out=tail)
        yield a0, dv, tail
