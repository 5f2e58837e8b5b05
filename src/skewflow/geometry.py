"""Discrete codimension-two immersions on uniform periodic grids.

Supported cases: closed curves in R^3 (m = 1) and tori in R^4 (m = 2).
One code path serves both: the kernels loop over the grid axes and the
axis pairs i <= j, and only ``_closed_forms`` (det g, min_sv and the
cofactors of g, which hold for m <= 2) branches on the dimension.  All
derivatives are second-order centered differences with periodic
wraparound, so every downstream residual inherits a single O(h^2)
convergence theory.  Per-node quantities are stored component-first: the
structural axes lead and the grid axes trail, e.g. tangent frames have
shape (m, n) + sizes, so one node's slice is the (m, n) frame of the
pointwise Grassmann API.  Only node positions keep the sizes + (n,) layout
of ``Immersion.F``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import DegenerateImmersionError, UnsupportedCaseError
from .exterior import wedge_field
# project_field and tangent_basis_field are re-exported for the benchmark tracer, which looks them up here
from .grassmann import project_field, rho_field, tangent_basis_field

TWO_PI = 2.0 * np.pi
RANK_TOL = 1e-6  # smallest admissible singular value of the tangent map
MAX_MODE = 1  # highest mode of the perturbed tori: their coarsest grids are already asymptotic
SLAB_NODES = 4096  # the most grid nodes of one slab of the flow operator or of a residual, at 16 rows or more


def _whole(value, what: str) -> int:  # an integer, numpy's too, or a float with no fractional part; not a bool
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if integer or (isinstance(value, (float, np.floating)) and value.is_integer()):
        return int(value)
    raise ValueError(f"{what} must be a whole number, got {value!r}")


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic parameter grid in one or two directions."""

    sizes: tuple[int, ...]
    periods: tuple[float, ...] | None = None

    def __post_init__(self):
        sizes = tuple(_whole(s, "a grid size") for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) not in (1, 2):
            raise UnsupportedCaseError(f"grids must be 1- or 2-dimensional, got {len(sizes)} axes")
        for s in sizes:
            if s < 8 or s % 2:
                raise ValueError(f"grid sizes must be even and >= 8, got {s}")
        periods = self.periods
        if periods is None:
            periods = (TWO_PI,) * len(sizes)
        periods = tuple(float(p) for p in periods)
        if len(periods) != len(sizes) or not all(0.0 < p < np.inf for p in periods):
            raise ValueError("need one finite positive period per grid axis")
        object.__setattr__(self, "periods", periods)

    @property
    def m(self) -> int:
        return len(self.sizes)

    @cached_property
    def spacings(self) -> tuple[float, ...]:
        """Node spacings, computed once per grid: the velocity reads them on every call."""
        return tuple(p / s for p, s in zip(self.periods, self.sizes))

    def axes(self) -> list[np.ndarray]:
        return [h * np.arange(s) for h, s in zip(self.spacings, self.sizes)]

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*self.axes(), indexing="ij"))

    def cell_measure(self) -> float:
        return float(np.prod(self.spacings))


@dataclass
class Immersion:
    """Node positions F of a map from the parameter grid into R^(m+2)."""

    grid: PeriodicGrid
    F: np.ndarray

    def __post_init__(self):
        self.F = np.asarray(self.F, dtype=float)
        n = self.grid.m + 2
        if self.F.shape != self.grid.sizes + (n,):
            raise ValueError(
                f"positions must have shape {self.grid.sizes + (n,)}, got {self.F.shape}"
            )

    @property
    def n(self) -> int:
        return self.F.shape[-1]


def periodic_difference(values: np.ndarray, axis: int, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """out[k] = values[k + hi] - values[k + lo] along a periodic axis, for offsets
    in {-1, 0, 1}: elementwise the subtraction of two ``np.roll``s, with no copy."""
    src, dst = np.moveaxis(values, axis, 0), np.moveaxis(out, axis, 0)
    size = len(src)
    np.subtract(src[1 + hi : size - 1 + hi], src[1 + lo : size - 1 + lo], out=dst[1:-1])
    for k in (0, size - 1):
        np.subtract(src[(k + hi) % size], src[(k + lo) % size], out=dst[k, ...])  # a view, also in 1-D
    return out


def diff1(values: np.ndarray, grid: PeriodicGrid, direction: int, out: np.ndarray | None = None) -> np.ndarray:
    """Centered first difference along a grid direction (a trailing axis), periodic."""
    axis = values.ndim - grid.m + direction
    out = periodic_difference(values, axis, -1, 1, np.empty_like(values) if out is None else out)
    out /= 2.0 * grid.spacings[direction]
    return out


def diff2(values: np.ndarray, grid: PeriodicGrid, dir_a: int, dir_b: int) -> np.ndarray:
    """Centered second difference; 3-point when dir_a == dir_b, otherwise the
    4-point corner stencil, computed as two centered first differences."""
    if dir_a != dir_b:
        return diff1(diff1(values, grid, dir_a), grid, dir_b)
    h = grid.spacings[dir_a]
    axis = values.ndim - grid.m + dir_a
    return (
        np.roll(values, -1, axis=axis) - 2.0 * values + np.roll(values, 1, axis=axis)
    ) / (h * h)


# ---------------------------------------------------------------------------
# frames


def _locate(flat_index: int, sizes: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(int(i) for i in np.unravel_index(flat_index, sizes))


def _check_rank(min_sv: np.ndarray, sizes: tuple[int, ...], time: float | None) -> None:
    """Raise, naming the node and any time, unless every tangent singular value is finite and >= RANK_TOL."""
    if min_sv.min() >= RANK_TOL and min_sv.max() < np.inf:  # False on NaN and on +inf
        return
    finite, when = np.isfinite(min_sv), "" if time is None else f" at t = {time:.6g}"
    if not np.all(finite):
        bad = _locate(int(np.argmax(~finite)), sizes)
        raise DegenerateImmersionError(
            f"tangent data is non-finite at node {bad}{when}", node=bad, time=time
        )
    bad = _locate(int(np.argmin(min_sv)), sizes)
    raise DegenerateImmersionError(
        f"tangent map is degenerate at node {bad}{when} "
        f"(min singular value {np.min(min_sv):.3e})",
        node=bad,
        time=time,
    )


def _closed_forms(g: np.ndarray, sizes: tuple[int, ...]):
    """The closed forms of m <= 2, the one place that branches on the dimension.

    For the metric's storage g, (m, m, *sizes): det g's storage (g_00's own
    when m = 1); the cofactors, (i, j, minor, sign) per pair i <= j, last
    pair first, with g^{ij} = sign minor / det g; and ``det_and_sv2(min_sv, gap,
    tmp)``, which writes det g, and min_sv^2 into min_sv (the smallest
    eigenvalue of g, clipped at 0), with gap and tmp as scratch.
    """
    if len(g) == 1:  # det g is g_00, its one cofactor the empty minor 1
        return g[0, 0], [(0, 0, 1.0, 1.0)], lambda min_sv, gap, tmp: np.maximum(g[0, 0], 0.0, out=min_sv)
    det_g = np.empty(sizes)

    def det_and_sv2(min_sv, gap, tmp):
        np.multiply(g[0, 0], g[1, 1], out=det_g)
        np.multiply(g[0, 1], g[0, 1], out=tmp)  # leaves g01^2 in tmp
        np.subtract(det_g, tmp, out=det_g)
        # trace/2 - sqrt(((g00 - g11)/2)^2 + g01^2)
        np.add(g[0, 0], g[1, 1], out=min_sv)
        min_sv *= 0.5
        np.subtract(g[0, 0], g[1, 1], out=gap)
        gap *= 0.5
        np.power(gap, 2, out=gap)
        gap += tmp
        np.sqrt(np.maximum(gap, 0.0, out=gap), out=gap)
        min_sv -= gap
        return np.maximum(min_sv, 0.0, out=min_sv)

    return det_g, [(1, 1, g[0, 0], 1.0), (0, 1, g[0, 1], -1.0), (0, 0, g[1, 1], 1.0)], det_and_sv2


class _Stencils:
    """The grid-sized buffers of the metric block, component-first.

    ``pad`` holds positions (n, *sizes) with one ghost cell on each side of
    every grid axis, which ``_fill_pad`` alone writes: ``core`` is its first
    axis whole, inside the other axes' ghost cells, and ``ghosts`` pairs
    those cells with their periodic sources, axis by axis so that the
    corners come out right.  ``center``, ``plus[i]`` and ``minus[i]`` view it
    shifted along axis i, ``corners[i, j]`` along both axes of a pair i < j
    (++, +-, -+, --).  ``pairs`` lists the pairs i <= j, the diagonal ones
    first.  The tangents ``t`` (m, n, *sizes), the metric ``g`` (m, m, *sizes),
    ``det_g`` and ``min_sv`` receive the block, whose closed forms also give
    ``cofactors``; ``prod``, ``gap`` and ``tmp`` are scratch.
    """

    def __init__(self, grid):
        m, sizes = grid.m, grid.sizes
        pad = self.pad = np.empty((m + 2,) + tuple(s + 2 for s in sizes))
        unit = np.eye(m, dtype=int)

        def shifted(by):  # by[i] is the shift along axis i
            return pad[(slice(None),) + tuple(slice(1 + b, s + 1 + b) for s, b in zip(sizes, by))]

        self.center, self.core = shifted([0] * m), pad[(slice(None),) * 2 + (slice(1, -1),) * (m - 1)]
        self.plus, self.minus = [shifted(u) for u in unit], [shifted(-u) for u in unit]
        self.pairs = [(i, i) for i in range(m)] + list(combinations(range(m), 2))
        self.corners = {(i, j): tuple(shifted(a * unit[i] + b * unit[j]) for a in (1, -1) for b in (1, -1))
                        for i, j in combinations(range(m), 2)}
        self.ghosts = []
        for axis in range(2, m + 1):
            lead, rest = (slice(None),) * axis, (slice(1, -1),) * (m - axis)
            self.ghosts += [(pad[lead + (0,) + rest], pad[lead + (-2,) + rest])]
            self.ghosts += [(pad[lead + (-1,) + rest], pad[lead + (1,) + rest])]
        self.t, self.g = np.empty((m, m + 2) + sizes), np.empty((m, m) + sizes)
        self.det_g, self.cofactors, self.det_and_sv2 = _closed_forms(self.g, sizes)
        self.min_sv, self.gap, self.tmp = (np.empty(sizes) for _ in range(3))
        self.prod = np.empty((m + 2,) + sizes)


def _slab_bounds(grid: PeriodicGrid) -> list[tuple[int, int]]:
    """(start, stop) of the slabs of ``grid``'s first axis, the flow operator's and the residuals':
    even, as equal as can be, of at most SLAB_NODES nodes or 16 rows, whichever is more."""
    rows, *row = grid.sizes
    count = -(-rows // (2 * max(SLAB_NODES // (2 * math.prod(row)), 8)))
    bounds = [2 * (k * rows // (2 * count)) for k in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def _slab_grid(grid: PeriodicGrid, rows: int) -> PeriodicGrid:
    """The grid of ``rows`` rows of the first axis of ``grid``, at the whole grid's spacings."""
    _, *sizes = grid.sizes
    slab = replace(grid, sizes=(rows, *sizes))
    vars(slab)["spacings"] = grid.spacings  # the whole grid's, as are its periods
    return slab


def _fill_pad(f: np.ndarray, ws: _Stencils, start: int = 0) -> None:
    """Rows start - 1 to start + height of the whole grid's positions f (n, N, ...), wrapping, into
    the first axis of the pad of a grid ``height`` rows tall, ghost rows included: at most three
    runs of whole rows.  Then the other axes' ghost cells, periodically.  The whole grid is start 0."""
    rows, size, done = ws.core, f.shape[1], 0
    first, total = (start - 1) % size, rows.shape[1]
    while done < total:  # each run after the first starts at row 0
        count = min(total - done, size - first)
        np.copyto(rows[:, done : done + count], f[:, first : first + count])
        done, first = done + count, 0
    for ghost, source in ws.ghosts:
        np.copyto(ghost, source)


def _second_difference(ws: _Stencils, h: tuple[float, ...], i: int, j: int, out: np.ndarray) -> np.ndarray:
    """out = D_ij x of the padded positions, 3-point if i == j and by the corner
    stencil if not: the second differences of the flow operator and GeometryCache."""
    if i == j:
        np.multiply(ws.center, -2.0, out=out)
        out += ws.plus[i]
        out += ws.minus[i]
        out /= h[i] * h[i]
    else:
        pp, pm, mp, mm = ws.corners[i, j]
        np.subtract(pp, pm, out=out)
        out -= mp
        out += mm
        out /= 4.0 * h[i] * h[j]
    return out


def _metric_block(f: np.ndarray, grid: PeriodicGrid, time: float | None, ws: _Stencils, start: int = 0) -> None:
    """Tangents, metric, det g and min_sv into ``ws`` of ``grid``'s rows from ``start`` on of positions f (n, N, ...).

    The flow operator and GeometryCache both start here.  Raises
    DegenerateImmersionError, naming the node and ``time``, unless every
    tangent singular value is finite and >= RANK_TOL.
    """
    h, t, g = grid.spacings, ws.t, ws.g
    _fill_pad(f, ws, start)
    for i, (p, q, ti) in enumerate(zip(ws.plus, ws.minus, t)):
        np.subtract(p, q, out=ti)
        ti /= 2.0 * h[i]
    for i, j in ws.pairs:
        np.multiply(t[i], t[j], out=ws.prod)
        g[j, i] = np.add.reduce(ws.prod, axis=0, out=g[i, j])
    np.sqrt(ws.det_and_sv2(ws.min_sv, ws.gap, ws.tmp), out=ws.min_sv)
    _check_rank(ws.min_sv, grid.sizes, time)


def tangent_data(t: np.ndarray) -> np.ndarray:
    """Orthonormal tangent frame from coordinate tangents t, shape (m, n, *sizes).

    Gram-Schmidt in fixed direction order, so e_1 is the unit first tangent.
    """
    e = np.empty_like(t)
    for i, u in enumerate(t):
        for l in range(i):
            u = u - np.einsum("n...,n...->...", u, e[l]) * e[l]
        e[i] = u / np.linalg.norm(u, axis=0)
    return e


def normal_completion(e: np.ndarray) -> np.ndarray:
    """Oriented orthonormal basis (nu_1, J nu_1) of the normal plane, (2, n) + sizes.

    nu_1 is the unit normal part of the ambient axis with the smallest
    tangential part (ties go to the lowest axis index).  The n tangential
    parts add up to m, so that axis keeps a normal part of norm at least
    sqrt(1 - m/n) >= 1/sqrt(2).  In codimension two J fixes the rest of the
    oriented frame: nu_2 = J nu_1 (see ``quarter_turn``).
    """
    axis = np.argmin(np.sum(e * e, axis=0), axis=0)  # per node
    v = np.eye(e.shape[1])[:, axis]
    v = v - np.einsum("i...,in...->n...", np.einsum("in...,n...->i...", e, v), e)
    nu = np.empty((2,) + v.shape)
    np.divide(v, np.linalg.norm(v, axis=0), out=nu[0])
    quarter_turn(nu[0], rho_field(e), out=nu[1])
    return nu


class GeometryCache:
    """The geometry of one immersion, each quantity computed on first use.

    Array fields are component-first, shape (structural axes) + sizes.
    Construction runs the flow velocity's metric block: the coordinate
    tangents ``t`` (m, n), the metric ``g`` (m, m), ``det_g`` and ``min_sv``,
    the smallest singular value of the tangent map; it raises
    DegenerateImmersionError, naming the node and ``time``, when ``min_sv``
    drops below RANK_TOL anywhere.  The rest are cached properties: ``g_inv``
    (m, m) from the cofactors of g, the orthonormal frames ``e`` (m, n) and
    ``nu`` (k, n), ``R`` (m, m) with e_i = sum_l R[i, l] d_l F, the plane
    field ``rho`` (C(n, m)), the second fundamental form ``A`` (k, m, m) =
    <D_ij F, nu_a>, unprojected as nu is normal, the mean curvature vector
    ``H`` (n) = (g^{ij} D_ij F)^perp, projected once, both from the flow
    operator's second differences D_ij F, ``grad_H_perp`` (m, n), the normal
    part of dH, and ``volume``, sum sqrt(det g) dA.  Immutable by convention.

    Given ``rows``, a range of the first axis (wrapping), it is the geometry
    of those rows alone, on a grid of their sizes at the whole grid's
    spacings, with the true rows beyond as ghost cells, all loaded straight
    from ``imm.F``: each field is the whole grid's bit for bit, but for
    ``grad_H_perp``, a difference of H, in its first and last rows.
    """

    def __init__(self, imm: Immersion, time: float | None = None, rows: range | None = None):
        self.grid, self.rows = imm.grid if rows is None else _slab_grid(imm.grid, len(rows)), rows
        ws = _Stencils(self.grid)
        _metric_block(np.moveaxis(imm.F, -1, 0), self.grid, time, ws, 0 if rows is None else rows.start)
        del ws.prod, ws.gap, ws.tmp  # the block's scratch, not kept alive with the cache
        self._stencils, self.f = ws, ws.center  # the positions, (n, *sizes)
        self.t, self.g, self.det_g, self.min_sv = ws.t, ws.g, ws.det_g, ws.min_sv

    @cached_property
    def sqrt_det_g(self) -> np.ndarray:
        return np.sqrt(self.det_g)

    @property
    def volume(self) -> float:
        return float(np.sum(self.sqrt_det_g) * self.grid.cell_measure())

    @cached_property
    def g_inv(self) -> np.ndarray:
        cofactors = np.empty_like(self.g)
        for i, j, minor, sign in self._stencils.cofactors:
            cofactors[j, i] = np.multiply(minor, sign, out=cofactors[i, j])
        return cofactors / self.det_g

    @cached_property
    def e(self) -> np.ndarray:
        return tangent_data(self.t)

    @cached_property
    def R(self) -> np.ndarray:
        return np.einsum("il...,lj...->ij...", np.einsum("in...,ln...->il...", self.e, self.t), self.g_inv)

    @cached_property
    def nu(self) -> np.ndarray:
        return normal_completion(self.e)

    @cached_property
    def rho(self) -> np.ndarray:
        return rho_field(self.e)

    @cached_property
    def A(self) -> np.ndarray:
        A, d = np.empty((len(self.nu),) + self.g.shape), np.empty(self.f.shape)
        for i, j in self._stencils.pairs:
            _second_difference(self._stencils, self.grid.spacings, i, j, d)
            A[:, j, i] = np.einsum("n...,an...->a...", d, self.nu, out=A[:, i, j])
        return A

    @cached_property
    def H(self) -> np.ndarray:
        H, d, e = np.zeros(self.f.shape), np.empty(self.f.shape), self.e
        for i, j in np.ndindex(self.grid.m, self.grid.m):  # row by row: the bits of H depend on the order
            if i <= j:  # (1, 0) takes the D_01 of (0, 1), just before it
                _second_difference(self._stencils, self.grid.spacings, i, j, d)
            H += self.g_inv[i, j] * d
        H -= np.einsum("l...,ln...->n...", np.einsum("n...,ln...->l...", H, e), e)
        return H

    @cached_property
    def grad_H_perp(self) -> np.ndarray:
        m, e = self.grid.m, self.e
        dH = np.empty((m,) + self.f.shape)
        for i in range(m):
            diff1(self.H, self.grid, i, out=dH[i])
        dH -= np.einsum("il...,ln...->in...", np.einsum("in...,ln...->il...", dH, e), e)
        return dH


def fundamental_forms(imm: Immersion, time: float | None = None) -> GeometryCache:
    """The geometry of an immersion; raises at once if its tangent map is degenerate."""
    return GeometryCache(imm, time)


def volume(imm: Immersion, time: float | None = None) -> float:
    """Total length (m = 1) or area (m = 2) of the discrete immersion; its rank check names ``time``."""
    return fundamental_forms(imm, time).volume


# ---------------------------------------------------------------------------
# quarter-turns of normal fields


def quarter_turn(w: np.ndarray, xi: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """J w = *(w ^ xi), the Hodge star of a wedge, for n = m + 2.

    Takes a vector field w, (n, ...), and an m-vector field xi, (C(n, m),
    ...), component-first.  For xi = t_1 ^ ... ^ t_m, <J w, u> = det(t_1,
    ..., t_m, w, u): J kills the tangent vectors and turns the normal part
    of w by a quarter, times |xi|, so a unit xi gives the quarter turn.  The
    star of an (n - 1)-vector reverses the lexicographic order and flips the
    sign of every other component.  ``out`` receives J w and ``scratch`` is
    one field of one component's shape for ``wedge_field``; both are
    allocated when not given.
    """
    n = len(w)
    m = n - 2
    if out is None:
        out = np.empty((n,) + np.broadcast_shapes(w.shape[1:], xi.shape[1:]))
    wedge_field(w, xi, 1, m, n, out=out[::-1], scratch=scratch)
    flipped = out[(n + m) % 2 :: 2]
    np.negative(flipped, out=flipped)
    return out


def rotate_normal_field(e: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Positive quarter-turn of the normal part of w, without a normal frame.

    Defined by <Jw, u> = det(e_1, ..., e_m, w, u) for a frame field e,
    (m, n, ...), and a vector field w, (n, ...); smooth wherever the
    tangent frame is, which matters when differentiating rotated fields.
    """
    m, n = e.shape[:2]
    if n != m + 2:
        raise UnsupportedCaseError(f"normal rotation fields need codimension two, got (m, n) = {(m, n)}")
    return quarter_turn(w, rho_field(e))


# ---------------------------------------------------------------------------
# benchmark geometries


def make_circle(radius: float, size: int) -> Immersion:
    grid = PeriodicGrid((size,))
    x = grid.axes()[0]
    F = np.stack([radius * np.cos(x), radius * np.sin(x), np.zeros_like(x)], axis=-1)
    return Immersion(grid=grid, F=F)


def _waves(grid: PeriodicGrid) -> tuple[np.ndarray, ...]:
    """cos x, sin x, cos y, sin y on the axes of a 2-D grid, shaped to broadcast."""
    x, y = grid.axes()
    return np.cos(x)[:, None], np.sin(x)[:, None], np.cos(y), np.sin(y)


def make_product_torus(a: float, b: float, size1: int, size2: int | None = None) -> Immersion:
    grid = PeriodicGrid((size1, size1 if size2 is None else size2))
    cx, sx, cy, sy = _waves(grid)
    F = np.stack(np.broadcast_arrays(a * cx, a * sx, b * cy, b * sy), axis=-1)
    return Immersion(grid=grid, F=F)


def _trig_polynomial(rng: np.random.Generator, grid: PeriodicGrid) -> np.ndarray:
    """Seeded trig polynomial of modes <= MAX_MODE, sum(|coeff|) = 1, on a 2-D grid.

    Coefficients are drawn once per call, independent of the grid, so the
    same seed refines the same smooth function under grid refinement.
    """
    coeffs = rng.standard_normal((MAX_MODE + 1, MAX_MODE + 1, 4))
    coeffs /= np.sum(np.abs(coeffs))
    x, y = grid.axes()
    out = np.zeros(grid.sizes)
    for p in range(MAX_MODE + 1):
        cpx, spx = np.cos(p * x)[:, None], np.sin(p * x)[:, None]
        for q in range(MAX_MODE + 1):
            cqy, sqy = np.cos(q * y), np.sin(q * y)
            cc, cs, sc, ss = coeffs[p, q]
            out += cc * cpx * cqy + cs * cpx * sqy + sc * spx * cqy + ss * spx * sqy
    return out


def make_perturbed_torus(
    a: float, b: float, eps: float, seed: int, size1: int, size2: int | None = None
) -> Immersion:
    """Product torus displaced by eps times a fixed smooth normal field."""
    grid = PeriodicGrid((size1, size1 if size2 is None else size2))
    rng = np.random.default_rng(seed)
    phi1 = _trig_polynomial(rng, grid)
    phi2 = _trig_polynomial(rng, grid)
    cx, sx, cy, sy = _waves(grid)
    F = np.stack(
        [a * cx + eps * (phi1 * cx), a * sx + eps * (phi1 * sx),
         b * cy + eps * (phi2 * cy), b * sy + eps * (phi2 * sy)],
        axis=-1,
    )
    return Immersion(grid=grid, F=F)


# the geometry families of the CLI and of the convergence problems: kind ->
# (builder, the keys it reads in argument order, grid axes); the builder takes
# the keys' values, then one size per axis.  Every key is a float but "seed"
FAMILIES = {
    "circle": (make_circle, ("r",), 1),
    "product_torus": (make_product_torus, ("a", "b"), 2),
    "perturbed_torus": (make_perturbed_torus, ("a", "b", "eps", "seed"), 2),
}


def make_perturbed_circle(r: float, eps: float, seed: int, size: int) -> Immersion:
    """Circle displaced by eps times fixed smooth radial and vertical fields."""
    grid = PeriodicGrid((size,))
    x = grid.axes()[0]
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((2, 3))
    coeffs /= np.sum(np.abs(coeffs), axis=1, keepdims=True)
    waves = np.stack([np.ones_like(x), np.cos(x), np.sin(x)], axis=-1)
    phi, chi = waves @ coeffs[0], waves @ coeffs[1]
    radial = np.stack([np.cos(x), np.sin(x), np.zeros_like(x)], axis=-1)
    vertical = np.zeros_like(radial)
    vertical[:, 2] = 1.0
    F = r * radial + eps * (phi[:, None] * radial + chi[:, None] * vertical)
    return Immersion(grid=grid, F=F)


def load_immersion_csv(path, sizes, periods=None) -> Immersion:
    """Node positions from CSV (columns x1..xn, rows in row-major grid order)."""
    grid = PeriodicGrid(tuple(sizes), periods)
    n = grid.m + 2
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"CSV {path} holds no rows")
    data = []
    for r, row in enumerate(rows, 1):
        try:
            values = [float(v) for v in row]
        except ValueError:
            if r == 1:
                continue  # header row
            raise ValueError(f"CSV {path} row {r} is not numeric: {row}") from None
        if len(values) != n:
            raise ValueError(f"CSV {path} row {r} holds {len(values)} values, expected {n}: {row}")
        if not all(map(math.isfinite, values)):
            raise ValueError(f"CSV {path} row {r} holds a non-finite coordinate: {row}")
        data.append(values)
    data = np.array(data).reshape(-1, n)
    if data.shape != (int(np.prod(grid.sizes)), n):
        raise ValueError(
            f"CSV holds {data.shape} values, expected {(int(np.prod(grid.sizes)), n)} "
            f"for grid {grid.sizes}"
        )
    return Immersion(grid=grid, F=data.reshape(grid.sizes + (n,)))


def save_immersion_csv(imm: Immersion, path):
    n = imm.n
    flat = imm.F.reshape(-1, n)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(n)])
        writer.writerows(flat.tolist())
