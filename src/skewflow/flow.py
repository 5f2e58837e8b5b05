"""Time integration of the skew mean curvature flow and its dissipative twin.

The skew flow moves every point along the quarter-turned mean curvature
vector; the plain mean curvature flow drops the rotation.  Both velocities
are purely normal, so the parametrization stays non-degenerate for short
times and degeneracy is treated as a hard error rather than remeshed.

Explicit stepping of this dispersive system is stiff: with "RK4" or "Euler"
stay at or below dt = 0.1 h^2 (see ``stable_dt``) unless you know the
spectrum better.  The "IMEX" scheme (``imex``) lifts that limit on curves
and tori alike; caller-supplied velocities have no IMEX step.

One velocity kernel, ``_velocity``, serves curves and tori; it starts with
the metric block that GeometryCache and the IMEX step run too.  ``run``
keeps the positions component-first, (n, *sizes), and gives the stepper one
workspace of preallocated buffers, so a step allocates no grid-sized array;
recorded states are copied out in the layout of ``Immersion.F``.  ``step``
and ``velocity`` allocate a workspace per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateImmersionError
from .geometry import Immersion, _dot, _metric_block, _minor, _Stencils, generalized_cross

FLOW_KINDS = ("SMCF", "MCF")
SCHEMES = ("RK4", "Euler", "IMEX")


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
        if self.output_every < 1:
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


class _Workspace(_Stencils):
    """The metric block's buffers plus those of explicit stepping: ``d2`` (D_00
    becomes w), the MCF coefficients ``c``, the cross product's scratch
    ``cross`` (metric fields dead by then) and the stepper's ``k``, ``stage``
    and ``acc``; allocated once per run."""

    def __init__(self, grid):
        super().__init__(grid)
        m, sizes = grid.m, grid.sizes
        shape = (m + 2,) + sizes
        self.d2 = np.empty((m,) + shape)
        self.c = np.empty((m,) + sizes)
        self.cross = (self.tmp,) if m == 1 else (self.tmp, self.gap, self.min_sv, *self.g.reshape((4,) + sizes))
        self.k, self.stage, self.acc = (np.empty(shape) for _ in range(3))


def _velocity(f: np.ndarray, grid, kind: str, time: float | None, ws: _Workspace, out: np.ndarray) -> np.ndarray:
    """Flow velocity at node positions f into ``out``, for curves and tori alike.

    With w = g^{ij} D_ij F, the skew velocity is J w = (t_0 x ... x t_{m-1} x w)
    / sqrt(det g), where x is the generalized cross product with the
    coordinate tangents t_i: J kills tangent vectors, so no orthonormal
    frame and no normal projection are needed.  The mean curvature flow
    takes the normal part w - t_i g^{ij} <t_j, w>.  f and out are in
    component-first layout (n, *sizes).  The metric block (shared with
    GeometryCache) fills the padded buffer and the tangents and metric, and
    each further intermediate is written into ``ws``: a call allocates no
    grid-sized array.  This is the hot loop of every explicit flow run.
    """
    m = grid.m
    h = grid.spacings
    _metric_block(f, grid, time, ws)
    t, g, det_g, tmp, prod = ws.t, ws.g, ws.det_g, ws.tmp, ws.prod
    two_f = np.multiply(f, 2.0, out=prod)
    for i, d2 in enumerate(ws.d2):
        np.subtract(ws.plus[i], two_f, out=d2)
        d2 += ws.minus[i]
        d2 /= h[i] * h[i]
    w = ws.d2[0]  # w overwrites D_00
    if m == 1:
        w /= g[0, 0]
        if kind == "MCF":
            p0 = _dot(t[0], w, ws.c[0], prod)
            p0 /= g[0, 0]
            return np.subtract(w, np.multiply(t[0], p0, out=prod), out=out)
    else:
        g00, g01, g11 = g[0, 0], g[0, 1], g[1, 1]
        # cross difference D_01 as the periodic centered difference of t_0 along axis 1
        t0, d01 = t[0], prod
        np.subtract(t0[..., 2:], t0[..., :-2], out=d01[..., 1:-1])
        np.subtract(t0[..., :1], t0[..., -2:-1], out=d01[..., -1:])
        np.subtract(t0[..., 1:2], t0[..., -1:], out=d01[..., :1])
        d01 /= 2.0 * h[1]
        # w = (g11 D_00 - 2 g01 D_01 + g00 D_11) / det g
        w *= g11
        d01 *= np.multiply(g01, 2.0, out=tmp)
        w -= d01
        d11 = ws.d2[1]
        d11 *= g00
        w += d11
        w /= det_g
        if kind == "MCF":
            c0, c1 = ws.c
            p0, p1 = _dot(t[0], w, ws.min_sv, prod), _dot(t[1], w, ws.gap, prod)
            _minor(c0, g11, p0, g01, p1, tmp)
            c0 /= det_g
            _minor(c1, g00, p1, g01, p0, tmp)
            c1 /= det_g
            np.subtract(w, np.multiply(t[0], c0, out=prod), out=out)
            out -= np.multiply(t[1], c1, out=prod)
            return out
    sqrt_det_g = np.sqrt(det_g, out=det_g)
    generalized_cross(*t, w, out=out, scratch=ws.cross)
    out /= sqrt_det_g
    return out


def velocity(imm, kind: str = "SMCF", time: float | None = None) -> np.ndarray:
    """Flow velocity per node: quarter-turned mean curvature (skew) or plain H.

    Accepts an immersion or a flow state.
    """
    if isinstance(imm, FlowState):
        time = imm.t if time is None else time
        imm = imm.immersion
    if kind not in FLOW_KINDS:
        raise ValueError(f"unknown flow kind {kind!r}")
    out = np.empty((imm.n,) + imm.grid.sizes)
    _velocity(np.moveaxis(imm.F, -1, 0), imm.grid, kind, time, _Workspace(imm.grid), out)
    return np.moveaxis(out, 0, -1)


def _check_scheme(config: FlowConfig, velocity_fn) -> None:
    if config.scheme == "IMEX" and velocity_fn is not None:
        raise ValueError("scheme 'IMEX' freezes the package's own velocity and cannot use a velocity_fn")


def _advance(f: np.ndarray, t: float, dt: float, vf, scheme: str, k, stage, acc) -> None:
    """One classical RK4 or forward Euler step of f, in place.

    ``vf(f, t, out)`` writes the right-hand side into ``out``.  The
    arithmetic is that of F + (dt/6)(k1 + 2 k2 + 2 k3 + k4) with the stages
    F + 0.5 dt k1, F + 0.5 dt k2 and F + dt k3 (or of F + dt k1 for Euler),
    with the buffers ``k``, ``stage`` and the running sum ``acc``.
    """
    vf(f, t, k)
    if scheme == "Euler":
        k *= dt
        f += k
        return
    np.copyto(acc, k)
    for c, weight in ((0.5 * dt, 2.0), (0.5 * dt, 2.0), (dt, 1.0)):
        np.multiply(k, c, out=stage)
        stage += f
        vf(stage, t + c, k)
        if weight == 1.0:
            acc += k
        else:
            acc += np.multiply(k, weight, out=stage)
    acc *= dt / 6.0
    f += acc


def _stepper(grid, config: FlowConfig, velocity_fn):
    """``advance(f, t, dt)``: one step of component-first positions f, in place.

    Each scheme keeps one workspace over all the steps of the returned
    function; a caller's ``velocity_fn(F, t)`` sees and returns positions in
    the (*sizes, n) layout of ``Immersion.F``.
    """
    if config.scheme == "IMEX":
        # imported here: runs that take no IMEX step do not load the solver
        from .imex import _Imex, _imex_step

        ws = _Imex(grid, config.flow_kind)
        return lambda f, t, dt: _imex_step(f, t, dt, ws)
    ws = _Workspace(grid)
    if velocity_fn is None:

        def vf(f, t, out):
            _velocity(f, grid, config.flow_kind, t, ws, out)

    else:

        def vf(f, t, out):
            out[...] = np.moveaxis(velocity_fn(np.moveaxis(f, 0, -1).copy(), t), -1, 0)

    return lambda f, t, dt: _advance(f, t, dt, vf, config.scheme, ws.k, ws.stage, ws.acc)


def step(state: FlowState, config: FlowConfig, velocity_fn=None, dt: float | None = None) -> FlowState:
    """One step on node positions: classical RK4, forward Euler or IMEX.

    Raises ``ValueError`` when IMEX is asked for with a velocity_fn.
    """
    dt = config.dt if dt is None else dt
    imm = state.immersion
    _check_scheme(config, velocity_fn)
    f = np.moveaxis(imm.F, -1, 0).copy()
    _stepper(imm.grid, config, velocity_fn)(f, state.t, dt)
    return FlowState(t=state.t + dt, immersion=Immersion(grid=imm.grid, F=np.moveaxis(f, 0, -1).copy()))


def run(imm: Immersion, config: FlowConfig, velocity_fn=None) -> Trajectory:
    """Integrate to t_end, recording every ``output_every``-th state (and the last).

    The final step is shortened when t_end is not a step multiple, so the
    last state lands exactly on t_end.  IMEX with a velocity_fn raises
    ``ValueError`` before the first step.  The positions stay in
    component-first layout (n, *sizes) between steps and are copied out for
    the recorded states only.
    """
    _check_scheme(config, velocity_fn)
    advance = _stepper(imm.grid, config, velocity_fn)
    f = np.moveaxis(imm.F, -1, 0).copy()
    states = [FlowState(t=0.0, immersion=imm)]
    t, steps_done = 0.0, 0
    while t < config.t_end - 1e-12:
        dt = min(config.dt, config.t_end - t)
        advance(f, t, dt)
        t += dt
        steps_done += 1
        if steps_done % config.output_every == 0 or t >= config.t_end - 1e-12:
            states.append(FlowState(t=t, immersion=Immersion(grid=imm.grid, F=np.moveaxis(f, 0, -1).copy())))
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
    """Reduced radius dynamics of the skew flow on exact product tori.

    Integrates a' = -s/b, b' = s/a with classical RK4; the product a*b is a
    conserved quantity of the exact reduction.  Returns (t, a, b) sample
    arrays.  Raises if a radius crosses zero before t_end.
    """
    if a0 <= 0 or b0 <= 0:
        raise ValueError("radii must be positive")

    def rhs(y, t, out):
        out[0], out[1] = -s / y[1], s / y[0]

    y = np.array([a0, b0], dtype=float)
    buffers = np.empty((3, 2))
    t = 0.0
    ts, a_s, b_s = [0.0], [a0], [b0]
    n_step = 0
    while t < t_end - 1e-12:
        h = min(dt, t_end - t)
        _advance(y, t, h, rhs, "RK4", *buffers)
        t += h
        n_step += 1
        if np.any(y <= 0) or not np.all(np.isfinite(y)):
            raise DegenerateImmersionError(
                f"torus radius reached zero near t = {t:.6f}", time=t
            )
        if n_step % output_every == 0 or t >= t_end - 1e-12:
            ts.append(t)
            a_s.append(float(y[0]))
            b_s.append(float(y[1]))
    return np.array(ts), np.array(a_s), np.array(b_s)
