"""Time integration of the skew mean curvature flow and its dissipative twin.

The skew flow moves every point along the quarter-turned mean curvature
vector; the plain mean curvature flow drops the rotation.  Both velocities
are purely normal, so the parametrization stays non-degenerate for short
times and degeneracy is treated as a hard error rather than remeshed.

Explicit stepping of this dispersive system is stiff: with "RK4" or "Euler"
stay at or below dt = 0.1 h^2 (see ``stable_dt``) unless you know the
spectrum better.  For curves the "IMEX" scheme lifts that limit: the
velocity is linear in the second differences, V = C(F) (D2 F) with per-node
3x3 coefficients C, and a Crank-Nicolson step that freezes C (predictor at
F, corrector at the midpoint) is second order in time and not limited by
the h^2 bound (the small-scale decomposition of Hou, Lowengrub and Shelley,
JCP 114, 1994).  Tori and caller-supplied velocities have no IMEX step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateImmersionError
from .geometry import Immersion, _check_rank, generalized_cross, tangent_data

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


def _velocity(F: np.ndarray, grid, kind: str, time: float | None) -> np.ndarray:
    """Flow velocity at node positions F, for curves and tori alike.

    With w = g^{ij} D_ij F, the skew velocity is J w = (t_0 x ... x t_{m-1} x w)
    / sqrt(det g), where x is the generalized cross product with the
    coordinate tangents t_i: J kills tangent vectors, so no orthonormal
    frame and no normal projection are needed.  The mean curvature flow
    takes the normal part w - t_i g^{ij} <t_j, w>.  Components sit on axis
    0 so each stencil works on contiguous grids, and one set of rolls of F
    serves the tangents and the second differences.  This is the hot loop
    of every explicit flow run.
    """
    m = grid.m
    h = grid.spacings
    f = np.ascontiguousarray(np.moveaxis(F, -1, 0))  # (n, *sizes)
    plus = [np.roll(f, -1, axis=i + 1) for i in range(m)]
    minus = [np.roll(f, 1, axis=i + 1) for i in range(m)]
    t = [(p - q) / (2.0 * hi) for p, q, hi in zip(plus, minus, h)]
    d2 = [(p - 2.0 * f + q) / (hi * hi) for p, q, hi in zip(plus, minus, h)]
    g00 = np.sum(t[0] * t[0], axis=0)
    if m == 1:
        det_g = g00
        _check_rank(np.sqrt(np.maximum(g00, 0.0)), grid.sizes, time)
        w = d2[0] / g00
        if kind == "MCF":
            return np.moveaxis(w - t[0] * (np.sum(t[0] * w, axis=0) / g00), 0, -1)
    else:
        g01, g11 = np.sum(t[0] * t[1], axis=0), np.sum(t[1] * t[1], axis=0)
        det_g = g00 * g11 - g01 * g01
        half = 0.5 * (g00 + g11)
        gap = np.sqrt(np.maximum((0.5 * (g00 - g11)) ** 2 + g01 * g01, 0.0))
        _check_rank(np.sqrt(np.maximum(half - gap, 0.0)), grid.sizes, time)
        # cross difference D_01 as the centered difference of t_0 along axis 1
        d01 = (np.roll(t[0], -1, axis=2) - np.roll(t[0], 1, axis=2)) / (2.0 * h[1])
        w = (g11 * d2[0] - 2.0 * g01 * d01 + g00 * d2[1]) / det_g
        if kind == "MCF":
            p0, p1 = np.sum(t[0] * w, axis=0), np.sum(t[1] * w, axis=0)
            c0 = (g11 * p0 - g01 * p1) / det_g
            c1 = (g00 * p1 - g01 * p0) / det_g
            return np.moveaxis(w - t[0] * c0 - t[1] * c1, 0, -1)
    return np.moveaxis(generalized_cross(*t, w) / np.sqrt(det_g), 0, -1)


def velocity(imm, kind: str = "SMCF", time: float | None = None) -> np.ndarray:
    """Flow velocity per node: quarter-turned mean curvature (skew) or plain H.

    Accepts an immersion or a flow state.
    """
    if isinstance(imm, FlowState):
        time = imm.t if time is None else time
        imm = imm.immersion
    if kind not in FLOW_KINDS:
        raise ValueError(f"unknown flow kind {kind!r}")
    return _velocity(imm.F, imm.grid, kind, time)


def _curve_coefficients(F: np.ndarray, grid, kind: str, time: float | None) -> np.ndarray:
    """Per-node 3x3 matrices C with curve velocity V = C (D2 F).

    With unit tangent T and g^{00} = 1/|F_u|^2: C = g^{00} [T]_x for the
    skew flow (the cross product kills the tangential part of D2 F) and
    C = g^{00} (I - T T^T) for the mean curvature flow.
    """
    _, e, _, g_inv, _, _, _ = tangent_data(Immersion(grid=grid, F=F), time=time)
    T = e[:, 0, :]
    if kind == "MCF":
        C = np.eye(3) - T[:, :, None] * T[:, None, :]
    else:
        C = np.zeros(T.shape + (3,))
        C[:, 0, 1], C[:, 0, 2] = -T[:, 2], T[:, 1]
        C[:, 1, 0], C[:, 1, 2] = T[:, 2], -T[:, 0]
        C[:, 2, 0], C[:, 2, 1] = -T[:, 1], T[:, 0]
    return g_inv[:, 0, :, None] * C


def _imex_step(F: np.ndarray, grid, kind: str, t: float, dt: float) -> np.ndarray:
    """Linearly implicit Crank-Nicolson step of a curve with frozen coefficients.

    Solves (I - dt/2 C D2) F_new = (I + dt/2 C D2) F twice: with C taken at F
    (predictor F*), then with C taken at (F + F*)/2.  The system is periodic
    block-tridiagonal with 3x3 blocks, factored by a sparse LU.
    """
    from scipy.sparse import bsr_matrix
    from scipy.sparse.linalg import splu

    size = grid.sizes[0]
    # block row i of dt/2 C D2: C_i times (1, -2, 1) dt/(2 h^2) at block columns i-1, i, i+1
    cols = ((np.arange(size)[:, None] + np.array([-1, 0, 1])) % size).ravel()
    rows = np.arange(0, 3 * size + 1, 3)
    weights = np.array([1.0, -2.0, 1.0])[:, None, None] * (0.5 * dt / grid.spacings[0] ** 2)
    x = F.ravel()

    def solve(C):
        blocks = -weights * C[:, None]
        blocks[:, 1] += np.eye(3)
        lhs = bsr_matrix((blocks.reshape(-1, 3, 3), cols, rows), shape=(3 * size, 3 * size))
        # (I + dt/2 C D2) F = 2F - lhs F
        return splu(lhs.tocsc()).solve(2.0 * x - lhs @ x).reshape(F.shape)

    F_pred = solve(_curve_coefficients(F, grid, kind, t))
    return solve(_curve_coefficients(0.5 * (F + F_pred), grid, kind, t + 0.5 * dt))


def _check_scheme(grid, config: FlowConfig, velocity_fn) -> None:
    if config.scheme != "IMEX":
        return
    if grid.m != 1:
        raise ValueError("scheme 'IMEX' supports curves only (m = 1), got a grid with m = 2")
    if velocity_fn is not None:
        raise ValueError(
            "scheme 'IMEX' freezes the package's own curve velocity and cannot use a velocity_fn"
        )


def step(state: FlowState, config: FlowConfig, velocity_fn=None, dt: float | None = None) -> FlowState:
    """One step on node positions: classical RK4, forward Euler or, for curves, IMEX.

    Raises ``ValueError`` when IMEX is asked for on a torus or with a velocity_fn.
    """
    dt = config.dt if dt is None else dt
    imm = state.immersion
    _check_scheme(imm.grid, config, velocity_fn)
    vf = velocity_fn or (lambda F, t: _velocity(F, imm.grid, config.flow_kind, t))
    F, t = imm.F, state.t
    if config.scheme == "IMEX":
        F_new = _imex_step(F, imm.grid, config.flow_kind, t, dt)
    elif config.scheme == "Euler":
        F_new = F + dt * vf(F, t)
    else:
        k1 = vf(F, t)
        k2 = vf(F + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = vf(F + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = vf(F + dt * k3, t + dt)
        F_new = F + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return FlowState(t=t + dt, immersion=Immersion(grid=imm.grid, F=F_new))


def run(imm: Immersion, config: FlowConfig, velocity_fn=None) -> Trajectory:
    """Integrate to t_end, recording every ``output_every``-th state (and the last).

    The final step is shortened when t_end is not a step multiple, so the
    last state lands exactly on t_end.  A scheme the immersion cannot use
    raises ``ValueError`` before the first step.
    """
    _check_scheme(imm.grid, config, velocity_fn)
    state = FlowState(t=0.0, immersion=imm)
    states = [state]
    steps_done = 0
    while state.t < config.t_end - 1e-12:
        dt = min(config.dt, config.t_end - state.t)
        state = step(state, config, velocity_fn=velocity_fn, dt=dt)
        steps_done += 1
        if steps_done % config.output_every == 0 or state.t >= config.t_end - 1e-12:
            states.append(state)
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

    def rhs(y):
        return np.array([-s / y[1], s / y[0]])

    y = np.array([a0, b0], dtype=float)
    t = 0.0
    ts, a_s, b_s = [0.0], [a0], [b0]
    n_step = 0
    while t < t_end - 1e-12:
        h = min(dt, t_end - t)
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
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
