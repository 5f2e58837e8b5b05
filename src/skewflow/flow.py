"""Time integration of the skew mean curvature flow and its dissipative twin.

The skew flow moves every point along the quarter-turned mean curvature
vector; the plain mean curvature flow drops the rotation.  Both velocities
are purely normal, so the parametrization stays non-degenerate for short
times and degeneracy is treated as a hard error rather than remeshed.

Explicit stepping of this dispersive system is stiff.  RK4 is stable up to
``explicit_step_bound`` = 2.78 / lambda_max, with lambda_max bounded from the
operator's frozen coefficients (about 0.7 h^2 min g_00 on curves; on tori
the two axes add and it is smaller).  The "IMEX" scheme lifts the limit on
curves and tori alike.

The velocity is linear in the second differences once the geometry is
frozen: L X = M (g^{ij} D_ij X) is the flow operator, frozen by
``_coefficients`` and applied by ``_apply``, and L_F F is the velocity at F.
A Crank-Nicolson step with L frozen at the midpoint is second order in time
and not bound by h^2 (the small-scale decomposition of Hou, Lowengrub and
Shelley, JCP 114, 1994).  A run's first step finds that midpoint by a
predictor solve; every later step extrapolates it from the two last states
and solves once (the linearly implicit two-step Crank-Nicolson scheme of
Akrivis, Crouzeix and Makridakis, Numer. Math. 82, 1999).  Each solve is a
matrix-free GMRES on normal fields, preconditioned in Fourier space with the
mean-metric Laplacian: J^2 = -1 turns (I - sL)(I + sL) into I + s^2 Delta^2
there.  L runs slab by slab, as in RK4, on buffers allocated once per run: a
step allocates no grid-sized array.

One flow operator serves curves and tori and every scheme, in two
functions that run the same lines in either dimension, over the tangent
legs and the axis pairs i <= j: ``_coefficients`` freezes it at some
positions, starting with the metric block that GeometryCache runs too, and
``_apply`` maps the positions in its padded buffer to M (g^{ij} D_ij x),
with D_ij the second differences that GeometryCache takes too and M the
quarter turn J w = *(w ^ xi) of ``geometry.quarter_turn`` with the unit
tangent m-vector xi, or the normal projection -J^2.  The velocity and RK4
freeze at each stage's positions and apply once; IMEX freezes once per step
(twice in a run's first step, which has no earlier state to extrapolate
from) and applies once per Krylov vector.  ``run`` keeps the positions
component-first, (n, *sizes), and gives the stepper one workspace of
preallocated buffers.  A step writes out of place, into the buffer that
the step before read unless a recorded state holds it, so only a recorded
step allocates a grid-sized array; its ``Immersion.F`` is a node-last view
of that buffer.  ``step`` and ``velocity`` allocate a workspace per call.

Every scheme runs the operator on slab-sized workspaces, slab by slab along the
first grid axis (``_by_slabs``), on the residuals' cut of ``geometry.SLAB_NODES``
nodes a slab, as do the rank checks of the states that ``run`` and ``step`` return.
A slab loads its rows and the ghost rows beyond its ends straight from the whole
grid's positions (``geometry._fill_pad``), so every output is the one-slab one bit
for bit.  Only RK4's stage vectors are whole-grid, and of IMEX's frozen operator
the c_ij and xi, kept across applies, whose grid means set its preconditioner.
"""

from __future__ import annotations

import math
from copy import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateImmersionError, KrylovBreakdownError
from .exterior import wedge_field
from .geometry import Immersion, _fill_pad, _metric_block, _second_difference, _slab_bounds, _slab_grid, _Stencils, _whole, quarter_turn

FLOW_KINDS = ("SMCF", "MCF")
SCHEMES = ("RK4", "IMEX")
# RK4's stability interval reaches 2.828 on the imaginary axis and 2.785 on the
# negative real one (Hairer and Wanner, Solving ODEs II, IV.2): below both
RK4_LIMIT = 2.78
KRYLOV_DIM = 3  # Krylov basis vectors per GMRES cycle (the restart length)
KRYLOV_MAX_ITER = 40  # GMRES iterations per solve before the step counts as a breakdown
KRYLOV_RTOL = 1e-12  # residual target, relative to the positions' norm


@dataclass(frozen=True)
class FlowConfig:
    flow_kind: str = "SMCF"
    dt: float = 1e-4
    t_end: float = 0.1
    scheme: str = "RK4"
    output_every: int = 1

    def __post_init__(self):
        if self.flow_kind not in FLOW_KINDS:
            raise ValueError(f"flow_kind must be one of {FLOW_KINDS}, got {self.flow_kind!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if isinstance(self.dt, (bool, np.bool_)) or not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if isinstance(self.t_end, (bool, np.bool_)) or not (np.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end must be finite and nonnegative, got {self.t_end}")
        if _whole(self.output_every, "output_every") < 1:
            raise ValueError("output_every must be >= 1")


@dataclass(frozen=True)
class FlowState:
    t: float
    immersion: Immersion


@dataclass
class Trajectory:
    states: list[FlowState] = field(default_factory=list)

    def __post_init__(self):
        ts = [s.t for s in self.states]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("trajectory timestamps must be strictly increasing")
        grids = {s.immersion.grid for s in self.states}
        if len(grids) > 1:
            raise ValueError("trajectory mixes different grids")

    def __len__(self):
        return len(self.states)

    def __getitem__(self, i) -> FlowState:
        return self.states[i]

    @property
    def grid(self):
        return self.states[0].immersion.grid


def stable_dt(imm: Immersion, factor: float = 0.1) -> float:
    """Parabolic-type step bound factor * min(h)^2."""
    return factor * min(imm.grid.spacings) ** 2


def _pair_slots(pairs, slots) -> dict:
    """{(i, j): slot} over the axis pairs i <= j: the c_ij take the slots in the pairs' lexicographic order."""
    return dict(zip(sorted(pairs), slots))


class _Operator(_Stencils):
    """The metric block's buffers plus those of the flow operator, on a grid
    or on a slab of one (see ``_Slabs``), allocated once per run.

    ``_coefficients`` overwrites the metric block's buffers.  ``terms`` lists
    the (i, j, c_ij) of c_ij D_ij over the pairs i <= j, in the order
    ``_apply`` sums them.  ``_keep_in`` puts the c_ij, by ``_pair_slots``, and
    ``xi``, the unit tangent m-vector, in g's first slots and a buffer of its
    own, or where IMEX gives.  ``coefficients`` holds (c_ij, minor, factor)
    in the cofactors' order, last slot first, so no entry of g is overwritten
    before its last read.  The tangents are dead after xi, so the last leg's
    storage holds ``w``, the sum c_ij D_ij x; ``prod`` and ``tmp`` are scratch.
    """

    def __init__(self, grid, kind):
        super().__init__(grid)
        m, sizes = grid.m, grid.sizes
        self.grid, self.kind = grid, kind
        # xi = t_0 ^ ... ^ t_{m-1}, folded from the first leg: one wedge on tori, none on curves
        self.head, self.legs, self.w = self.t[0], list(enumerate(self.t[1:], 1)), self.t[-1]
        self._keep_in(self.g.reshape((-1,) + sizes), np.empty((math.comb(m + 2, m),) + sizes))

    def _keep_in(self, slots, xi) -> _Operator:
        slots = _pair_slots(self.pairs, slots)
        self.terms = [(i, j, slots[i, j]) for i, j in self.pairs]
        self.coefficients = [(slots[i, j], minor, sign if i == j else 2.0 * sign) for i, j, minor, sign in self.cofactors]
        self.xi = xi
        return self


def _coefficients(f: np.ndarray, time: float | None, ws: _Operator, start: int = 0) -> None:
    """Freeze the flow operator at its grid's rows from ``start`` on of positions f (n, N, ...).

    Runs the metric block, which fills the padded buffer with those rows, then keeps
    the unit xi = t_0 ^ ... ^ t_{m-1} / sqrt(det g) and c_ij = g^{ij},
    doubled off the diagonal, from the cofactors of g (``_closed_forms``).
    """
    _metric_block(f, ws.grid, time, ws, start)
    xi = ws.head
    for p, leg in ws.legs:
        xi = wedge_field(xi, leg, p, 1, len(f), out=ws.xi, scratch=ws.tmp)
    np.divide(xi, np.sqrt(ws.det_g, out=ws.gap), out=ws.xi)
    for c, minor, factor in ws.coefficients:
        np.divide(minor, ws.det_g, out=c)
        if factor != 1.0:  # off the diagonal: the cofactor's sign, doubled
            c *= factor


def _normal_part(v: np.ndarray, out: np.ndarray, middle: np.ndarray, ws: _Operator) -> np.ndarray:
    """out = P_N v = -J(J v), through the vector field ``middle``."""
    quarter_turn(v, ws.xi, middle, ws.tmp)
    quarter_turn(middle, ws.xi, out, ws.tmp)
    return np.negative(out, out=out)


def _apply(ws: _Operator, out: np.ndarray) -> np.ndarray:
    """out = M (c_ij D_ij x) for the positions x that the padded buffer holds.

    With x the frozen positions this is the flow velocity.  The sum
    c_ij D_ij x = g^{ij} D_ij x, term by term in the order of ``ws.terms``,
    is the mean curvature vector when x = F.  M is the quarter turn
    J w = *(w ^ xi) for the skew flow and the normal projection P_N = -J^2
    for the mean curvature flow.  A call allocates no grid-sized array.
    """
    h, w, d = ws.grid.spacings, ws.w, ws.prod
    (i, j, c), *rest = ws.terms
    np.multiply(_second_difference(ws, h, i, j, d), c, out=w)
    for i, j, c in rest:
        _second_difference(ws, h, i, j, d)
        d *= c
        w += d
    if ws.kind == "SMCF":
        return quarter_turn(w, ws.xi, out, ws.tmp)
    return _normal_part(w, out, d, ws)


class _Slabs:
    """The flow operator's workspace, allocated once per run: the ``_Operator``
    of each distinct slab height of the grid's first axis.

    The slabs are ``geometry._slab_bounds``'s, the residuals' cut too, listed
    as (rows, operator) in ``slabs``.  ``_by_slabs`` loads each operator with its
    rows and the rows just beyond them, wrapping, from the whole grid's positions.
    """

    def __init__(self, grid, kind):
        bounds = _slab_bounds(grid)
        operators = {height: _Operator(_slab_grid(grid, height), kind) for height in {b - a for a, b in bounds}}
        self.grid, self.slabs = grid, [(slice(start, stop), operators[stop - start]) for start, stop in bounds]


def _by_slabs(f: np.ndarray, time: float | None, ops: _Slabs):
    """Freeze each slab's operator at its rows of positions f (n, *sizes); yields (rows, operator).

    Each node's arithmetic is the whole grid's: a slab reads the positions one
    row beyond its ends, its ghost cells, and computes nothing twice.  When a
    slab fails the rank check, the whole grid's check of f names the node.
    """
    try:
        for rows, ws in ops.slabs:
            _coefficients(f, time, ws, rows.start)
            yield rows, ws
    except DegenerateImmersionError:
        _metric_block(f, ops.grid, time, _Stencils(ops.grid))
        raise


def _velocity(f: np.ndarray, time: float | None, ops: _Slabs, out: np.ndarray) -> np.ndarray:
    """out = the flow velocity at positions f, both (n, *sizes), slab by slab."""
    for rows, ws in _by_slabs(f, time, ops):
        _apply(ws, out[:, rows])
    return out


def explicit_step_bound(imm: Immersion) -> float:
    """RK4_LIMIT / lambda_max, the largest stable RK4 step of either flow at imm.

    lambda_max bounds the spectral radius of the operator frozen at imm: the
    nodewise maximum of the sum of 4 c_ii/h_i^2 and |c_ij|/(h_i h_j), the
    largest modulus of the frozen symbol of c_ij D_ij.  J and P_N do not
    enlarge it.  Raises DegenerateImmersionError where the metric block does.
    The maximum is taken slab by slab.
    """
    h, lam_max = imm.grid.spacings, 0.0
    for _, ws in _by_slabs(np.moveaxis(imm.F, -1, 0), None, _Slabs(imm.grid, "SMCF")):
        lam = sum(4.0 * c / (h[i] * h[i]) if i == j else np.abs(c) / (h[i] * h[j]) for i, j, c in ws.terms)
        lam_max = max(lam_max, float(np.max(lam)))
    return RK4_LIMIT / lam_max


def velocity(imm: Immersion, kind: str = "SMCF") -> np.ndarray:
    """Flow velocity per node, sizes + (n,): quarter-turned mean curvature
    (skew) or plain H.
    """
    if kind not in FLOW_KINDS:
        raise ValueError(f"unknown flow kind {kind!r}")
    out = np.empty((imm.n,) + imm.grid.sizes)
    return np.moveaxis(_velocity(np.moveaxis(imm.F, -1, 0), None, _Slabs(imm.grid, kind), out), 0, -1)


def _advance(f: np.ndarray, t: float, dt: float, ops: _Slabs, k, stage, out) -> None:
    """One classical RK4 step of the flow from positions f into ``out``, which is not f.

    Each stage freezes the operator at its positions and applies it once,
    slab by slab, into ``k``.  The arithmetic is that of F + (dt/6)(k1 + 2 k2 + 2 k3 + k4)
    with the stages F + 0.5 dt k1, F + 0.5 dt k2 and F + dt k3, with the
    buffers ``k``, ``stage`` and the running sum ``out``, f added last.
    """
    np.copyto(out, _velocity(f, t, ops, k))
    for c, weight in ((0.5 * dt, 2.0), (0.5 * dt, 2.0), (dt, 1.0)):
        np.multiply(k, c, out=stage)
        stage += f
        _velocity(stage, t + c, ops, k)
        if weight == 1.0:
            out += k
        else:
            out += np.multiply(k, weight, out=stage)
    out *= dt / 6.0
    out += f


class _Imex:
    """Workspace of the IMEX step, allocated once per run: the frozen operator's
    whole-grid ``c``, one contiguous field per c_ij (``terms``), and ``xi``, whose
    rows each slab of ``ops`` (``_Slabs``) keeps; ``gain``, the preconditioner's
    1/d(k) per Fourier mode, the iterate ``x``, ``z`` and the Krylov ``basis`` of the
    solver and the FFT's ``spectrum``.  ``prev`` is the positions before the last step,
    held by reference, and ``dt_prev`` that step's size; None before a run's first step.
    """

    def __init__(self, grid, kind):
        m, sizes = grid.m, grid.sizes
        self.grid, self.kind = grid, kind
        self.c, self.xi = np.empty((math.comb(m + 1, 2),) + sizes), np.empty((math.comb(m + 2, m),) + sizes)
        self.ops = _Slabs(grid, kind)
        self.terms = [(i, j, c) for (i, j), c in _pair_slots(self.ops.slabs[0][1].pairs, self.c).items()]
        # each slab's operator shares its height's buffers but keeps its c_ij and xi in its rows of those
        self.ops.slabs = [(rows, copy(op)._keep_in(self.c[:, rows], self.xi[:, rows])) for rows, op in self.ops.slabs]
        vec = (m + 2,) + sizes
        self.x, self.z, self.prev, self.dt_prev = np.empty(vec), np.empty(vec), None, None
        self.basis = np.empty((KRYLOV_DIM + 1,) + vec)
        half = sizes[:-1] + (sizes[-1] // 2 + 1,)
        self.spectrum = np.empty(half, dtype=complex)
        self.gain = np.empty(half)
        # symbols of D_i (over i) and D_ii per axis, shaped to broadcast over the spectrum
        self.first, self.second = [], []
        freqs = [np.fft.fftfreq(size) for size in sizes[:-1]] + [np.fft.rfftfreq(sizes[-1])]
        for axis, (freq, h) in enumerate(zip(freqs, grid.spacings)):
            kh = (2.0 * np.pi * freq).reshape([-1 if a == axis else 1 for a in range(m)])
            self.first.append(np.sin(kh) / h)
            self.second.append((2.0 * np.cos(kh) - 2.0) / (h * h))


def _freeze(f: np.ndarray, time: float, s: float, ws: _Imex) -> None:
    """Freeze the operator and the preconditioner at positions f.

    The operator is frozen slab by slab; the preconditioner's symbol is that
    of the Laplacian with the whole grid's mean coefficients c_ij.
    """
    for _ in _by_slabs(f, time, ws.ops):
        pass
    lam, symbols = ws.gain, []
    for i, j, c in sorted(ws.terms, key=lambda t: t[0] == t[1]):  # off-diagonal first: the order moves the solves
        mean = float(np.mean(c))
        symbols.append((ws.second[i], mean) if i == j else (ws.first[i], -mean * ws.first[j]))
    np.multiply(*symbols[0], out=lam)
    for a, b in symbols[1:]:
        lam += a * b
    # 1/d with d = 1 + s^2 lambda^2 (skew flow) or 1 - s lambda (mean curvature flow)
    if ws.kind == "SMCF":
        lam *= s
        lam *= lam
    else:
        lam *= -s
    lam += 1.0
    np.reciprocal(lam, out=lam)


def _frozen(x: np.ndarray, out: np.ndarray, ws: _Imex) -> np.ndarray:
    """out = L x, the flow operator frozen by ``_freeze`` applied to x, slab by slab."""
    for rows, op in ws.ops.slabs:
        _fill_pad(x, op, rows.start)
        _apply(op, out[:, rows])
    return out


def _project(v: np.ndarray, ws: _Imex) -> np.ndarray:
    """v = P_N v = -J(J v) in place, slab by slab."""
    for rows, op in ws.ops.slabs:
        _normal_part(v[:, rows], v[:, rows], op.prod, op)
    return v


def _precondition(v: np.ndarray, out: np.ndarray, ws: _Imex) -> np.ndarray:
    """out = Q v = P_N F^-1 [F(v) / d(k)]: v divided by the symbol d mode by
    mode, then projected on the normal planes with P_N = -J^2."""
    m, spectrum = ws.grid.m, ws.spectrum
    for comp, into in zip(v, out):
        np.fft.rfft(comp, out=spectrum)
        for axis in range(m - 1):
            np.fft.fft(spectrum, axis=axis, out=spectrum)
        spectrum *= ws.gain
        for axis in range(m - 1):
            np.fft.ifft(spectrum, axis=axis, out=spectrum)
        np.fft.irfft(spectrum, n=ws.grid.sizes[-1], out=into)
    return _project(out, ws)


def _inverse(v: np.ndarray, out: np.ndarray, scratch: np.ndarray, s: float, ws: _Imex) -> np.ndarray:
    """out = P^-1 v, the approximate inverse of I - sL on normal fields:
    (I + sL) Q v for the skew flow, where (I - sL)(I + sL) = I - s^2 L^2 and
    L^2 ~ -Delta^2 on normal fields because J^2 = -1; Q v for the mean
    curvature flow."""
    if ws.kind == "MCF":
        return _precondition(v, out, ws)
    _precondition(v, scratch, ws)
    _frozen(scratch, out, ws)
    out *= s
    out += scratch
    return out


def _solve(f: np.ndarray, s: float, time: float, ws: _Imex) -> int:
    """Solve (I - sL) x = (I + sL) f for ws.x, from the guess in ws.x.

    L maps into the normal planes, so the tangential part of x is that of f.
    The guess is given that part and every correction is normal: restarted
    GMRES (Saad and Schultz, SISC 7, 1986) with the right preconditioner
    P^-1 then works on normal fields only, where P^-1 is close to the
    inverse.  It stops when the residual is at most KRYLOV_RTOL |f|.
    Returns the iteration count; raises KrylovBreakdownError, carrying
    ``time``, after KRYLOV_MAX_ITER iterations or on a non-finite residual.
    """
    x, z, V = ws.x, ws.z, ws.basis
    # x = f + P_N (x - f)
    np.subtract(x, f, out=z)
    np.add(f, _project(z, ws), out=x)
    tol = KRYLOV_RTOL * np.linalg.norm(f)
    iterations = 0
    while True:
        # r = (I + sL) f - (I - sL) x = f - x + sL(f + x)
        r = _frozen(np.add(f, x, out=z), V[0], ws)
        r *= s
        r += f
        r -= x
        beta = np.linalg.norm(r)
        if not math.isfinite(beta):
            raise KrylovBreakdownError(f"IMEX solve produced a non-finite residual near t = {time:.6f}", time=time)
        if beta <= tol:
            return iterations
        r /= beta
        # Arnoldi with modified Gram-Schmidt.  Givens rotations keep the
        # Hessenberg columns triangular (R) and |beta e_1 - H y| = |g[-1]|; they
        # run on Python floats, since a first LAPACK call alone adds 1 MiB of RSS.
        R, g, rotations = [], [beta], []
        for k in range(KRYLOV_DIM):
            if iterations >= KRYLOV_MAX_ITER:
                raise KrylovBreakdownError(
                    f"IMEX solve did not converge in {KRYLOV_MAX_ITER} GMRES iterations near t = {time:.6f}",
                    time=time,
                )
            iterations += 1
            nxt = V[k + 1]
            _inverse(V[k], z, nxt, s, ws)
            # nxt = (I - sL) z
            _frozen(z, nxt, ws)
            nxt *= -s
            nxt += z
            col = []
            for vi in V[: k + 1]:
                col.append(float(np.dot(vi.reshape(-1), nxt.reshape(-1))))
                nxt -= np.multiply(vi, col[-1], out=z)
            norm_next = np.linalg.norm(nxt)
            for i, (cs, sn) in enumerate(rotations):
                col[i], col[i + 1] = cs * col[i] + sn * col[i + 1], cs * col[i + 1] - sn * col[i]
            rk = math.hypot(col[k], norm_next)
            cs, sn = col[k] / rk, norm_next / rk
            rotations.append((cs, sn))
            col[k] = rk
            R.append(col)
            g.append(-sn * g[k])
            g[k] *= cs
            converged = abs(g[-1]) <= tol
            if converged or norm_next == 0.0:
                break
            nxt /= norm_next
        # x += P^-1 V y with R y = g, by back substitution
        y = [0.0] * len(R)
        for i in reversed(range(len(R))):
            y[i] = (g[i] - sum(R[l][i] * y[l] for l in range(i + 1, len(R)))) / R[i][i]
        np.multiply(V[0], y[0], out=z)
        for vi, yi in zip(V[1 : len(y)], y[1:]):
            vi *= yi
            z += vi
        x += _inverse(z, V[0], V[1], s, ws)
        if converged:
            return iterations


def _imex_step(f: np.ndarray, t: float, dt: float, ws: _Imex, out: np.ndarray) -> None:
    """One linearly implicit Crank-Nicolson step from f into ``out``, which is not f.

    Solves (I - s L) Y = (I + s L) f with s = dt/2 and L frozen near the
    midpoint.  With r = dt / dt_prev and p the positions before the last
    step, L is frozen once at f + (r/2)(f - p), from the guess f + r(f - p).
    A run's first step has no p: it solves with L frozen at f (predictor f*,
    from the guess f), then at (f + f*)/2 (from the guess f*).  f is the next
    step's p, not copied: that step reads p before it writes its ``out``, which may be f.
    """
    s, x, mid = 0.5 * dt, ws.x, ws.basis[0]
    if ws.dt_prev is None:
        _freeze(f, t, s, ws)
        np.copyto(x, f)
        _solve(f, s, t, ws)
        np.add(f, x, out=mid)
        mid *= 0.5
    else:
        r = dt / ws.dt_prev
        np.subtract(f, ws.prev, out=x)
        np.multiply(x, 0.5 * r, out=mid)
        mid += f
        x *= r
        x += f
    _freeze(mid, t + s, s, ws)
    _solve(f, s, t + s, ws)
    np.copyto(out, x)
    ws.prev, ws.dt_prev = f, dt


def _stepper(grid, config: FlowConfig):
    """``(ops, advance)``: the scheme's operator slabs and ``advance(f, t, dt, out)``,
    one step of component-first positions f into ``out``, which is not f, by
    ``_advance`` (RK4) or ``_imex_step``; ``_by_slabs`` on ``ops`` rank-checks a state.

    Each scheme keeps one workspace over all the steps of the returned
    function; f is only read.  IMEX holds f as the next step's history, which that
    step reads before it writes its ``out``: ``out`` may be the f of the step before.
    """
    if config.scheme == "IMEX":
        ws = _Imex(grid, config.flow_kind)
        return ws.ops, lambda f, t, dt, out: _imex_step(f, t, dt, ws, out)
    k, stage = (np.empty((grid.m + 2,) + grid.sizes) for _ in range(2))
    ops = _Slabs(grid, config.flow_kind)
    return ops, lambda f, t, dt, out: _advance(f, t, dt, ops, k, stage, out)


def step(state: FlowState, config: FlowConfig, dt: float | None = None) -> FlowState:
    """One step on node positions: classical RK4 or IMEX.

    A call keeps no history, so its IMEX step is the starting step of a run
    (predictor and corrector); ``run`` takes the one-solve step after it.
    The state it returns is rank-checked on the stepper's own slabs, as ``run``'s last is.
    """
    dt = config.dt if dt is None else dt
    imm = state.immersion
    out = np.empty((imm.n,) + imm.grid.sizes)
    ops, advance = _stepper(imm.grid, config)
    advance(np.moveaxis(imm.F, -1, 0), state.t, dt, out)
    for _ in _by_slabs(out, state.t + dt, ops):
        pass
    return FlowState(t=state.t + dt, immersion=Immersion(grid=imm.grid, F=np.moveaxis(out, 0, -1)))


def _end_tolerance(dt: float, t_end: float) -> float:
    """How far short of t_end a run stops stepping: 1e-12, or half of dt or t_end when less."""
    return min(1e-12, 0.5 * dt, 0.5 * t_end)


def run(imm: Immersion, config: FlowConfig) -> Trajectory:
    """Integrate to t_end, recording every ``output_every``-th state (and the last).

    The final step is shortened when t_end is not a step multiple, so the
    last state lands exactly on t_end; no stage freezes there, so the stepper's
    slabs freeze once more to rank-check it.  The input is copied once, component-first;
    each step writes into the buffer that the step before read unless a state
    holds it, and a state's ``Immersion.F`` is a node-last view of its buffer.
    """
    (ops, advance), end = _stepper(imm.grid, config), config.t_end - _end_tolerance(config.dt, config.t_end)
    f, spare, held = np.moveaxis(imm.F, -1, 0).copy(), None, False
    states, t, steps_done = [FlowState(t=0.0, immersion=imm)], 0.0, 0
    while t < end:
        dt = min(config.dt, config.t_end - t)
        out = np.empty(f.shape) if spare is None else spare
        advance(f, t, dt, out)
        f, spare = out, None if held else f
        t, steps_done = t + dt, steps_done + 1
        if held := steps_done % config.output_every == 0 or t >= end:
            states.append(FlowState(t=t, immersion=Immersion(grid=imm.grid, F=np.moveaxis(f, 0, -1))))
    for _ in _by_slabs(f, t, ops):
        pass
    return Trajectory(states=states)


def fitted_torus_radii(imm: Immersion) -> tuple[float, float, float]:
    """Mean radii of the two coordinate circles and the worst node deviation."""
    F = imm.F
    ra = np.hypot(F[..., 0], F[..., 1])
    rb = np.hypot(F[..., 2], F[..., 3])
    a, b = float(np.mean(ra)), float(np.mean(rb))
    dev = max(float(np.max(np.abs(ra - a))), float(np.max(np.abs(rb - b))))
    return a, b, dev


def product_torus_ode_oracle(
    a0: float, b0: float, t_end: float, dt: float, s: float = 1.0, output_every: int = 1
):
    """Radii of the skew flow on exact product tori, in closed form.

    The reduction a' = -s/b, b' = s/a keeps a*b = a0*b0 fixed, so
    a = a0 exp(-s t/(a0 b0)) and b = b0 exp(s t/(a0 b0)).  Returns (t, a, b)
    sample arrays, with samples dt * output_every apart from t = 0 and the
    last one at t_end.  Raises ValueError where a radius is not a finite positive
    number (a bool is not) or ``FlowConfig`` refuses the step, the horizon or ``output_every``.
    """
    if not all(0.0 < r < np.inf and not isinstance(r, (bool, np.bool_)) for r in (a0, b0)):
        raise ValueError(f"radii must be finite and positive, got {a0!r} and {b0!r}")
    FlowConfig(dt=dt, t_end=t_end, output_every=output_every)
    t = np.append(np.arange(0.0, t_end - _end_tolerance(dt, t_end), dt * output_every), t_end)
    rate = s * t / (a0 * b0)
    return t, a0 * np.exp(-rate), b0 * np.exp(rate)
