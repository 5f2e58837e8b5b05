"""Time integration of the skew mean curvature flow and its dissipative twin.

The skew flow moves every point along the quarter-turned mean curvature
vector; the plain mean curvature flow drops the rotation.  Both velocities
are purely normal, so the parametrization stays non-degenerate for short
times and degeneracy is treated as a hard error rather than remeshed.

Explicit stepping of this dispersive system is stiff.  RK4 is stable up to
``explicit_step_bound`` = 2.78 / lambda_max, with lambda_max bounded from the
operator's frozen coefficients (about 0.7 h^2 min g_00 on curves; on tori
the two axes add and it is smaller).  The "IMEX" scheme (``imex``) lifts the
limit on curves and tori alike.

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

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import DegenerateImmersionError
from .exterior import wedge_field
from .geometry import Immersion, _metric_block, _second_difference, _slab_bounds, _slab_grid, _Stencils, _whole, quarter_turn

FLOW_KINDS = ("SMCF", "MCF")
SCHEMES = ("RK4", "IMEX")
# RK4's stability interval reaches 2.828 on the imaginary axis and 2.785 on the
# negative real one (Hairer and Wanner, Solving ODEs II, IV.2): below both
RK4_LIMIT = 2.78


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
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not (np.isfinite(self.t_end) and self.t_end >= 0):
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


class _Operator(_Stencils):
    """The metric block's buffers plus those of the flow operator, on a grid
    or on a slab of one (see ``_Slabs``), allocated once per run.

    ``_coefficients`` overwrites the metric block's buffers.  ``terms`` lists
    the (i, j, c_ij) of c_ij D_ij over the pairs i <= j, in the order
    ``_apply`` sums them.  ``_keep_in`` puts the c_ij, in the pairs' lexicographic
    order, and ``xi``, the unit tangent m-vector, in g's first slots and a buffer
    of its own, or where IMEX gives.  ``coefficients`` holds (c_ij, minor, factor)
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
        self._keep_in(self.g.reshape((-1,) + sizes), np.empty((comb(m + 2, m),) + sizes))

    def _keep_in(self, slots, xi) -> _Operator:
        slots = dict(zip(sorted(self.pairs), slots))
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


def _stepper(grid, config: FlowConfig):
    """``(ops, advance)``: the scheme's operator slabs and ``advance(f, t, dt, out)``,
    one step of component-first positions f into ``out``, which is not f, by
    ``_advance`` (RK4) or ``imex._imex_step``; ``_by_slabs`` on ``ops`` rank-checks a state.

    Each scheme keeps one workspace over all the steps of the returned
    function; f is only read.  IMEX holds f as the next step's history, which that
    step reads before it writes its ``out``: ``out`` may be the f of the step before.
    """
    if config.scheme == "IMEX":
        # imported here: runs that take no IMEX step do not load the solver
        from .imex import _Imex, _imex_step

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
    last one at t_end.
    """
    if a0 <= 0 or b0 <= 0:
        raise ValueError("radii must be positive")
    t = np.append(np.arange(0.0, t_end - _end_tolerance(dt, t_end), dt * output_every), t_end)
    rate = s * t / (a0 * b0)
    return t, a0 * np.exp(-rate), b0 * np.exp(rate)
