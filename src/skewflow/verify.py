"""Residual checks relating the flow, its Gauss map and the tangent-plane algebra.

The central identity under test: along the skew flow, the time derivative of
the per-node tangent plane equals the complex structure applied to the
tension field of the plane field.  Every residual here is built from
second-order stencils, so smooth benchmark families should show observed
convergence order about 2; orders are always measured, never asserted from
theory alone.

Finite differences of Grassmann-valued data are projected to the tangent
space at the center point before any comparison, which removes the normal
chord component coherently from both sides of each identity.
"""

from __future__ import annotations

import csv
import json
import time as _time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .exterior import inner
from .flow import FlowConfig, Trajectory, run, stable_dt
from .geometry import (
    GeometryCache,
    PeriodicGrid,
    diff1,
    fundamental_forms,
    make_perturbed_torus,
    make_product_torus,
    quarter_turn,
)
from .grassmann import (
    frame_curve,
    jtilde_coeffs,
    project_field,
    project_to_tangent,
    psi,
    random_adapted_frame,
    tangent_basis,
    tangent_basis_field,
)

RESIDUAL_FLOOR = 1e-13


@dataclass
class Report:
    """Named residual field with max and volume-weighted L2 norms."""

    name: str
    field: np.ndarray
    norms: dict
    grid_sizes: tuple[int, ...]
    dt: float | None = None
    metadata: dict = dc_field(default_factory=dict)


@dataclass
class ConvergenceTable:
    """(resolution, h, norm) rows and the least-squares slope of log norm vs log h."""

    name: str
    rows: list
    observed_order: float | None
    monotone: bool
    below_floor: bool
    metadata: dict = dc_field(default_factory=dict)


def _weighted_norms(residual: np.ndarray, cache: GeometryCache) -> dict:
    cell = cache.grid.cell_measure()
    l2 = float(np.sqrt(np.sum(residual**2 * cache.sqrt_det_g) * cell))
    return {"max": float(np.max(residual)), "l2": l2}


def _frobenius(coeffs: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(coeffs**2, axis=(0, 1)))


# ---------------------------------------------------------------------------
# the two sides of the flow identity


def laplace_beltrami(values: np.ndarray, cache: GeometryCache) -> np.ndarray:
    """Componentwise (1/sqrt g) d_i(sqrt g g^{ij} d_j values), centered stencils.

    Diagonal fluxes are evaluated at half nodes (conservative compact form,
    coefficients averaged), which keeps the dominant part of the operator on
    the 3-point stencil; composing two centered first differences instead
    would quadruple the truncation constant and visibly delay the asymptotic
    range on coarse grids.  Off-diagonal fluxes keep the plain centered form.
    """
    grid = cache.grid
    m = grid.m
    w = cache.sqrt_det_g * cache.g_inv
    out = np.zeros_like(values)
    for i in range(m):
        h = grid.spacings[i]
        axis = values.ndim - m + i
        wi = w[i, i]
        w_plus = 0.5 * (wi + np.roll(wi, -1, axis=i))
        w_minus = 0.5 * (wi + np.roll(wi, 1, axis=i))
        out += (
            w_plus * (np.roll(values, -1, axis=axis) - values)
            - w_minus * (values - np.roll(values, 1, axis=axis))
        ) / (h * h)
        for j in range(m):
            if j != i:
                out += diff1(w[i, j] * diff1(values, grid, j), grid, i)
    return out / cache.sqrt_det_g


def _rho_from(cache: GeometryCache, rho: GeometryCache | None = None) -> np.ndarray:
    if rho is None:
        return cache.rho
    if rho.grid != cache.grid:
        raise ValueError(
            f"plane field lives on grid {rho.grid.sizes}, cache on {cache.grid.sizes}"
        )
    return rho.rho


def tension(cache: GeometryCache, rho=None) -> np.ndarray:
    """Tension field of the plane field, as tangent coefficients (m, k, *sizes).

    For maps into a submanifold of a linear space this is the tangential
    projection of the componentwise Laplace-Beltrami of the embedding.  The
    plane field defaults to the one generated by the cache's own frames.
    """
    lap = laplace_beltrami(_rho_from(cache, rho), cache)
    return project_field(cache.e, cache.nu, lap)


def dt_rho_analytic(cache: GeometryCache, apply_rotation: bool = True) -> np.ndarray:
    """Closed-form time derivative of the plane field, (m, k, *sizes) coefficients.

    Skew flow: the quarter-turned normal gradient of the mean curvature along
    each frame direction; plain mean curvature flow drops the rotation.
    """
    w = np.einsum("il...,ln...->in...", cache.R, cache.grad_H_perp)  # along each e_i
    if apply_rotation:
        w = np.stack([quarter_turn(wi, cache.rho) for wi in w])
    return np.einsum("in...,an...->ia...", w, cache.nu)


def dt_rho_numeric(traj: Trajectory, index: int, cache: GeometryCache | None = None) -> np.ndarray:
    """Centered time difference of the plane field, projected at the middle time."""
    if index <= 0 or index >= len(traj) - 1:
        raise ValueError(f"index {index} needs both neighbors in a trajectory of length {len(traj)}")
    prev_state, mid_state, next_state = traj[index - 1], traj[index], traj[index + 1]
    if cache is None:
        cache = fundamental_forms(mid_state.immersion)
    rho_prev = fundamental_forms(prev_state.immersion).rho
    rho_next = fundamental_forms(next_state.immersion).rho
    chord = (rho_next - rho_prev) / (next_state.t - prev_state.t)
    return project_field(cache.e, cache.nu, chord)


# ---------------------------------------------------------------------------
# residual reports


def residual_theorem1(traj: Trajectory, index: int, use_jtilde: bool = True, metadata: dict | None = None) -> Report:
    """Flow identity residual at one trajectory index.

    Primary field: |numeric time derivative - (rotated) tension|.  The
    closed-form time derivative is evaluated as well, both against the right
    side and against the numeric left side, so the intermediate identity the
    proof chains through is monitored at the same order.
    """
    mid = traj[index]
    cache = fundamental_forms(mid.immersion)
    lhs_num = dt_rho_numeric(traj, index, cache)
    rhs = tension(cache)
    if use_jtilde:
        rhs = jtilde_coeffs(rhs)
    lhs_ana = dt_rho_analytic(cache, apply_rotation=use_jtilde)
    primary = _frobenius(lhs_num - rhs)
    norms = _weighted_norms(primary, cache)
    norms["max_analytic"] = float(np.max(_frobenius(lhs_ana - rhs)))
    norms["max_lhs_agreement"] = float(np.max(_frobenius(lhs_num - lhs_ana)))
    meta = {"flow_kind": "SMCF" if use_jtilde else "MCF", "t": mid.t}
    meta.update(metadata or {})
    return Report(
        name="theorem1" if use_jtilde else "theorem1_mcf",
        field=primary,
        norms=norms,
        grid_sizes=traj.grid.sizes,
        dt=traj[index + 1].t - traj[index].t,
        metadata=meta,
    )


def residual_codazzi(cache: GeometryCache, rho=None, metadata: dict | None = None) -> Report:
    """Tension of the plane field against the normal gradient of H."""
    lhs = tension(cache, rho)
    rhs = dt_rho_analytic(cache, apply_rotation=False)
    primary = _frobenius(lhs - rhs)
    return Report(
        name="codazzi",
        field=primary,
        norms=_weighted_norms(primary, cache),
        grid_sizes=cache.grid.sizes,
        metadata=metadata or {},
    )


def residual_identify(cache: GeometryCache, rho=None, metadata: dict | None = None) -> Report:
    """Differential of the plane field against the second fundamental form.

    Both sides are expressed on unit-speed frame directions: coefficients of
    the projected directional derivatives of the plane field versus the
    frame-contracted second fundamental form.
    """
    grid = cache.grid
    m = grid.m
    rho_coeffs = _rho_from(cache, rho)
    drho = np.stack([diff1(rho_coeffs, grid, l) for l in range(m)])  # (l, C, *sizes)
    d_unit = np.einsum("il...,lc...->ic...", cache.R, drho)
    basis = tangent_basis_field(cache.e, cache.nu)
    lhs = np.einsum("jac...,ic...->ija...", basis, d_unit)  # (i, j, alpha, *sizes)
    rhs = np.einsum("il...,alp...,jp...->ija...", cache.R, cache.A, cache.R)
    primary = np.max(np.abs(lhs - rhs), axis=(0, 1, 2))
    return Report(
        name="identify",
        field=primary,
        norms=_weighted_norms(primary, cache),
        grid_sizes=grid.sizes,
        metadata=metadata or {},
    )


# ---------------------------------------------------------------------------
# frame-bundle identities by finite differences


def connection_residual(frame_fn, h: float) -> float:
    """Max mismatch between the two sides of the connection identity at step h.

    Left side: tensor-product covariant derivative of each frame leg pair,
    mapped into tangent coefficients.  Right side: projected centered
    difference of the corresponding tangent basis multivectors.
    """
    f0 = frame_fn(0.0)
    fp, fm = frame_fn(h), frame_fn(-h)
    de = (fp.e - fm.e) / (2.0 * h)
    dnu = (fp.nu - fm.nu) / (2.0 * h)
    basis_p = tangent_basis(fp)
    basis_m = tangent_basis(fm)
    worst = 0.0
    for i in range(f0.m):
        for alpha in range(f0.k):
            lhs = np.zeros((f0.m, f0.k))
            for j in range(f0.m):
                lhs[j, alpha] += float(np.dot(de[i], f0.e[j]))
            for beta in range(f0.k):
                lhs[i, beta] += float(np.dot(dnu[alpha], f0.nu[beta]))
            d_basis = (basis_p[i][alpha] - basis_m[i][alpha]) / (2.0 * h)
            rhs = project_to_tangent(f0, d_basis)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def kahler_residual(frame_fn, h: float, coeffs: np.ndarray) -> float:
    """Commutation of the complex structure with the projected derivative."""
    f0 = frame_fn(0.0)
    fp, fm = frame_fn(h), frame_fn(-h)
    section_p, section_m = psi(fp, coeffs), psi(fm, coeffs)
    rotated = jtilde_coeffs(coeffs)
    rotated_p, rotated_m = psi(fp, rotated), psi(fm, rotated)
    lhs = project_to_tangent(f0, (rotated_p - rotated_m) / (2.0 * h))
    rhs = jtilde_coeffs(project_to_tangent(f0, (section_p - section_m) / (2.0 * h)))
    return float(np.max(np.abs(lhs - rhs)))


def isometry_max_error(seed: int, m: int, n: int, trials: int = 1000) -> float:
    """Worst |g(psi c, psi d) - <c, d>_F| over seeded random frames and pairs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        frame = random_adapted_frame(rng, m, n)
        c = rng.standard_normal((m, n - m))
        d = rng.standard_normal((m, n - m))
        lhs = inner(psi(frame, c), psi(frame, d))
        worst = max(worst, abs(lhs - float(np.sum(c * d))))
    return worst


def theorem2_suite(seed: int, h_list, m: int = 2, n: int = 4, trials: int = 1000) -> ConvergenceTable:
    """Isometry (exact) plus connection preservation (finite differences).

    The isometry part has no step size; its worst error is stored in the
    table metadata.  The connection part is sampled along a seeded smooth
    frame curve at every h in h_list, which needs at least two distinct,
    finite, positive steps.
    """
    try:
        hs = [float(h) for h in h_list]
    except TypeError as exc:
        raise ValueError(f"h_list must be a list of step sizes, got {h_list!r}") from exc
    if len(hs) < 2 or len(set(hs)) < len(hs) or not all(0.0 < h < np.inf for h in hs):
        raise ValueError(f"h_list needs at least two distinct finite positive steps, got {hs}")
    curve = frame_curve(seed, m, n)
    norms = [connection_residual(curve, h) for h in hs]
    order, monotone, below = fit_order(hs, norms)
    return ConvergenceTable(
        name="theorem2",
        rows=[{"resolution": h, "h": h, "norm": r} for h, r in zip(hs, norms)],
        observed_order=order,
        monotone=monotone,
        below_floor=below,
        metadata={
            "seed": seed,
            "m": m,
            "n": n,
            "isometry_max": isometry_max_error(seed, m, n, trials),
            "isometry_trials": trials,
        },
    )


# ---------------------------------------------------------------------------
# convergence studies


def fit_order(hs, norms, floor: float = RESIDUAL_FLOOR):
    """Least-squares slope of log norm against log h.

    Returns (order, monotone, below_floor); no order is fitted when any
    residual sits at the floor, and a non-monotone sequence is flagged so the
    caller can mark the fit unreliable.
    """
    norms = [float(v) for v in norms]
    if any(v <= floor for v in norms):
        return None, True, True
    monotone = all(b < a for a, b in zip(norms, norms[1:]))
    slope = float(np.polyfit(np.log(hs), np.log(norms), 1)[0])
    return slope, monotone, False


def _problem_theorem1(size, a=1.0, b=0.6, eps=0.05, seed=7, flow_kind="SMCF", dt_factor=0.1):
    imm = make_perturbed_torus(a, b, eps, seed, size)
    dt = stable_dt(imm, dt_factor)
    config = FlowConfig(flow_kind=flow_kind, dt=dt, t_end=2 * dt, output_every=1)
    traj = run(imm, config)
    return residual_theorem1(
        traj, 1, use_jtilde=(flow_kind == "SMCF"),
        metadata={"geometry": "perturbed_torus", "a": a, "b": b, "eps": eps, "seed": seed},
    )


def _problem_codazzi(size, a=1.0, b=0.6, eps=0.05, seed=7, **_):
    cache = fundamental_forms(make_perturbed_torus(a, b, eps, seed, size))
    return residual_codazzi(cache, metadata={"geometry": "perturbed_torus", "a": a, "b": b, "eps": eps, "seed": seed})


def _problem_identify(size, a=1.0, b=0.6, **_):
    cache = fundamental_forms(make_product_torus(a, b, size))
    return residual_identify(cache, metadata={"geometry": "product_torus", "a": a, "b": b})


def _problem_diff1(size, **_):
    """Trivial stencil benchmark: centered difference of sin on a circle grid."""
    grid = PeriodicGrid((size,))
    x = grid.axes()[0]
    err = np.abs(diff1(np.sin(x), grid, 0) - np.cos(x))
    return Report(
        name="diff1",
        field=err,
        norms={"max": float(np.max(err)), "l2": float(np.sqrt(np.mean(err**2) * 2 * np.pi))},
        grid_sizes=grid.sizes,
    )


def _problem_frozen(size, **_):
    """Identically-zero residual: time variation of a trajectory that does not move."""
    imm = make_product_torus(1.0, 0.6, size)
    dt = stable_dt(imm)
    config = FlowConfig(dt=dt, t_end=2 * dt, output_every=1)
    traj = run(imm, config, velocity_fn=lambda F, t: np.zeros_like(F))
    coeffs = dt_rho_numeric(traj, 1)
    err = _frobenius(coeffs)
    return Report(
        name="frozen",
        field=err,
        norms={"max": float(np.max(err)), "l2": float(np.sqrt(np.mean(err**2)))},
        grid_sizes=traj.grid.sizes,
    )


PROBLEMS = {
    "theorem1": _problem_theorem1,
    "theorem1_mcf": lambda size, **kw: _problem_theorem1(size, flow_kind="MCF", **kw),
    "codazzi": _problem_codazzi,
    "identify": _problem_identify,
    "diff1": _problem_diff1,
    "frozen": _problem_frozen,
}


def convergence_study(problem, resolutions, norm_key: str = "max", map_fn=map, **problem_kwargs) -> ConvergenceTable:
    """Run a named (or callable) residual problem across resolutions and fit the order.

    Time steps inside flow-based problems are slaved to h^2 via their
    dt_factor, so one observed order summarizes both discretizations.  The
    resolution jobs are independent and run through ``map_fn`` (e.g. an
    executor's ``map``), which must yield results in input order.
    """
    resolutions = [int(r) for r in resolutions]
    if len(resolutions) < 2:
        raise ValueError("need at least two resolutions")
    if len(set(resolutions)) < len(resolutions):
        raise ValueError(f"resolutions must be distinct, got {resolutions}")
    runner = PROBLEMS[problem] if isinstance(problem, str) else problem
    rows = []
    for size, report in zip(resolutions, map_fn(lambda size: runner(size, **problem_kwargs), resolutions)):
        h = 2.0 * np.pi / size
        rows.append({"resolution": size, "h": h, "norm": float(report.norms[norm_key])})
    order, monotone, below = fit_order([r["h"] for r in rows], [r["norm"] for r in rows])
    name = problem if isinstance(problem, str) else getattr(problem, "__name__", "custom")
    return ConvergenceTable(
        name=f"{name}:{norm_key}" if norm_key != "max" else name,
        rows=rows,
        observed_order=order,
        monotone=monotone,
        below_floor=below,
        metadata={"norm_key": norm_key, **{k: v for k, v in problem_kwargs.items()}},
    )


# ---------------------------------------------------------------------------
# serialization


def report_to_dict(report: Report) -> dict:
    return {
        "name": report.name,
        "params": {
            "grid_sizes": list(report.grid_sizes),
            "dt": report.dt,
            **report.metadata,
        },
        "norms": report.norms,
    }


def table_to_dict(table: ConvergenceTable) -> dict:
    return {
        "name": table.name,
        "params": table.metadata,
        "rows": table.rows,
        "observed_order": table.observed_order,
        "monotone": table.monotone,
        "below_floor": table.below_floor,
    }


def save_json(payload: dict, path, timestamp: bool = True):
    doc = dict(payload)
    if timestamp:
        doc["generated_at"] = _time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def save_residual_csv(report: Report, path):
    """Per-node residual field; one row per node with its grid multi-index.

    The bytes are those of ``csv.writer`` (CRLF rows of ints and float
    reprs), written one grid row at a time.
    """
    field = np.asarray(report.field, dtype=float)
    if field.ndim not in (1, 2):
        raise ValueError("residual fields are 1- or 2-dimensional")
    with open(path, "w", newline="") as fh:
        if field.ndim == 1:
            fh.write("i,residual\r\n")
            fh.writelines(f"{i},{v!r}\r\n" for i, v in enumerate(field.tolist()))
            return
        fh.write("i,j,residual\r\n")
        for i, row in enumerate(field):
            fh.writelines(f"{i},{j},{v!r}\r\n" for j, v in enumerate(row.tolist()))


def save_table_csv(table: ConvergenceTable, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["resolution", "h", "norm"])
        for row in table.rows:
            writer.writerow([row["resolution"], repr(row["h"]), repr(row["norm"])])
