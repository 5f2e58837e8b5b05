"""Residual checks relating the flow, its Gauss map and the tangent-plane algebra.

The central identity under test: along the skew flow, the time derivative of
the per-node tangent plane equals the complex structure applied to the
tension field of the plane field.  Every residual here is built from
second-order stencils, so smooth benchmark families should show observed
convergence order about 2; orders are always measured, never asserted from
theory alone.

Finite differences of Grassmann-valued data are projected to the tangent
space at the center point before any comparison, which removes the normal
chord component coherently from both sides of each identity.  Every residual
builds its geometry slab by slab, on the flow operator's cut (``geometry.SLAB_NODES``).
"""

from __future__ import annotations

import csv
import functools
import json
import time as _time
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .errors import DegenerateImmersionError
from .flow import FlowConfig, Trajectory, run, stable_dt
from .geometry import FAMILIES, GeometryCache, Immersion, PeriodicGrid, _slab_bounds, diff1, fundamental_forms, periodic_difference, quarter_turn
from .grassmann import (
    check_frames,
    frame_curve,
    jtilde_coeffs,
    oriented_q,
    project_field,
    tangent_basis_field,
)

RESIDUAL_FLOOR = 1e-13
HALO = 1  # rows on each side of a slab whose geometry it computes and drops


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


def _weighted_norms(residual: np.ndarray, sqrt_det_g: np.ndarray, grid: PeriodicGrid) -> dict:
    cell = grid.cell_measure()
    l2 = float(np.sqrt(np.sum(residual**2 * sqrt_det_g) * cell))
    return {"max": float(np.max(residual)), "l2": l2}


def _by_slabs(imm: Immersion, evaluate, *neighbours: Immersion) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """The first field that ``evaluate(cache)`` returns on each slab's ``GeometryCache(imm, rows=...)``
    and its sqrt(det g), assembled into fields of the whole grid, and the max of each further field.

    The slabs are the flow operator's (``geometry._slab_bounds``).  On a cut grid a slab's range
    holds its own rows and HALO more on each side, whose values are dropped: with the true
    neighbours beyond as ghost rows, it reads the two rows of positions that a difference of a
    second difference needs, so the fields and maxima are the whole grid's bit for bit; one slab
    wraps onto itself, with no halo.  When a slab fails the rank check, the whole grid's checks
    of ``imm``, then of each of ``neighbours`` (immersions that ``evaluate`` reads), name the node.
    """
    bounds = _slab_bounds(imm.grid)
    halo = HALO if bounds[1:] else 0  # on a grid cut in more than one slab
    primary, sqrt_det_g, maxima = np.empty(imm.grid.sizes), np.empty(imm.grid.sizes), -np.inf
    try:
        for start, stop in bounds:
            own = slice(halo, halo + stop - start)
            cache = GeometryCache(imm, rows=range(start - halo, stop + halo))
            first, *rest = evaluate(cache)
            primary[start:stop], sqrt_det_g[start:stop] = first[own], cache.sqrt_det_g[own]
            del cache  # not kept alive while the next slab's geometry is built
            maxima = np.maximum(maxima, [np.max(part[own]) for part in rest])  # keeps a NaN, as np.max does
    except DegenerateImmersionError:
        for state in (imm, *neighbours):
            fundamental_forms(state)
        raise
    return primary, sqrt_det_g, [float(value) for value in maxima]


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
    a, b = np.empty_like(values), np.empty_like(values)  # scratch, reused by every term
    for i in range(m):
        h = grid.spacings[i]
        axis = values.ndim - m + i
        wi = w[i, i]
        w_plus = 0.5 * (wi + np.roll(wi, -1, axis=i))
        w_minus = 0.5 * (wi + np.roll(wi, 1, axis=i))
        # (w_plus (v[k+1] - v[k]) - w_minus (v[k] - v[k-1])) / h^2
        np.multiply(w_plus, periodic_difference(values, axis, 0, 1, a), out=a)
        np.multiply(w_minus, periodic_difference(values, axis, -1, 0, b), out=b)
        a -= b
        a /= h * h
        out += a
        for j in range(m):
            if j != i:
                np.multiply(w[i, j], diff1(values, grid, j, out=a), out=a)
                out += diff1(a, grid, i, out=b)
    out /= cache.sqrt_det_g
    return out


def tension(cache: GeometryCache) -> np.ndarray:
    """Tension field of the plane field, as tangent coefficients (m, k, *sizes).

    For maps into a submanifold of a linear space this is the tangential
    projection of the componentwise Laplace-Beltrami of the embedding.
    """
    lap = laplace_beltrami(cache.rho, cache)
    return project_field(cache.e, cache.nu, lap)


def dt_rho_analytic(cache: GeometryCache, apply_rotation: bool = True) -> np.ndarray:
    """Closed-form time derivative of the plane field, (m, k, *sizes) coefficients.

    Skew flow: the quarter-turned normal gradient of the mean curvature along
    each frame direction; plain mean curvature flow drops the rotation.
    """
    m, nu = cache.grid.m, cache.nu
    out = np.empty((m, len(nu)) + cache.grid.sizes)
    for i in range(m):
        w = np.einsum("l...,ln...->n...", cache.R[i], cache.grad_H_perp)  # along e_i
        if apply_rotation:
            w = quarter_turn(w, cache.rho)
        np.einsum("n...,an...->a...", w, nu, out=out[i])
    return out


def _neighbours(traj: Trajectory, index: int):
    """The states at ``index - 1``, ``index`` and ``index + 1``; ValueError unless both neighbours exist."""
    if index <= 0 or index >= len(traj) - 1:
        raise ValueError(f"index {index} needs both neighbors in a trajectory of length {len(traj)}")
    return traj[index - 1], traj[index], traj[index + 1]


def dt_rho_numeric(traj: Trajectory, index: int, cache: GeometryCache | None = None) -> np.ndarray:
    """Centered time difference of the plane field, projected at the middle time, on the
    rows of ``cache``; the chord is formed in place in the later neighbour's plane field,
    whose geometry is dropped."""
    prev_state, mid_state, next_state = _neighbours(traj, index)
    if cache is None:
        cache = fundamental_forms(mid_state.immersion)
    chord = GeometryCache(next_state.immersion, rows=cache.rows).rho
    chord -= GeometryCache(prev_state.immersion, rows=cache.rows).rho
    chord /= next_state.t - prev_state.t
    return project_field(cache.e, cache.nu, chord)


# ---------------------------------------------------------------------------
# residual reports


def residual_theorem1(traj: Trajectory, index: int, use_jtilde: bool = True, metadata: dict | None = None) -> Report:
    """Flow identity residual at one trajectory index, slab by slab (``_by_slabs``).

    Primary field: |numeric time derivative - (rotated) tension|.  The
    closed-form time derivative is evaluated as well, both against the right
    side and against the numeric left side, so the intermediate identity the
    proof chains through is monitored at the same order.  When a slab fails
    the rank check, the whole grid's checks of the middle, later and earlier
    states name the node.
    """
    prev_state, mid, next_state = _neighbours(traj, index)

    def evaluate(cache):
        lhs_num = dt_rho_numeric(traj, index, cache)
        rhs = tension(cache)
        if use_jtilde:
            rhs = jtilde_coeffs(rhs)
        lhs_ana = dt_rho_analytic(cache, apply_rotation=use_jtilde)
        return _frobenius(lhs_num - rhs), _frobenius(lhs_ana - rhs), _frobenius(lhs_num - lhs_ana)

    primary, sqrt_det_g, maxima = _by_slabs(mid.immersion, evaluate, next_state.immersion, prev_state.immersion)
    norms = _weighted_norms(primary, sqrt_det_g, traj.grid)
    norms["max_analytic"], norms["max_lhs_agreement"] = maxima
    meta = {"flow_kind": "SMCF" if use_jtilde else "MCF", "t": mid.t}
    meta.update(metadata or {})
    name = "theorem1" if use_jtilde else "theorem1_mcf"
    return Report(name, primary, norms, traj.grid.sizes, dt=next_state.t - mid.t, metadata=meta)


# the flow of each Gauss-map law: Theorem 1's skew flow, and MCF for its twin d(rho)/dt = tau(rho)
THEOREM1_FLOWS = {"theorem1": "SMCF", "theorem1_mcf": "MCF"}


def theorem1_residual(imm, config: FlowConfig | None = None, metadata: dict | None = None, *, name="theorem1") -> Report:
    """The residual of ``name`` along its flow, which replaces ``config``'s, with every step
    recorded; it sits at the middle state between two full steps, never before a shortened
    last one.  Unset, ``config`` is two steps of ``stable_dt`` under RK4."""
    if config is None:
        dt = stable_dt(imm)
        config = FlowConfig(dt=dt, t_end=2 * dt)
    if config.t_end < 2 * config.dt:
        raise ValueError(
            f"flow.t_end = {config.t_end!r} is below 2 * flow.dt = {2 * config.dt!r}: {name} needs two full steps"
        )
    traj = run(imm, replace(config, flow_kind=THEOREM1_FLOWS[name], output_every=1))
    mid = len(traj) // 2
    if traj[mid + 1].t - traj[mid].t < (1.0 - 1e-9) * config.dt:
        mid -= 1
    return residual_theorem1(traj, mid, use_jtilde=(name == "theorem1"), metadata=metadata)


def _slab_report(name: str, imm: Immersion, field, metadata: dict | None) -> Report:
    """The report of the per-node residual ``field(geometry)`` on imm, by slabs."""
    primary, sqrt_det_g, _ = _by_slabs(imm, lambda cache: (field(cache),))
    return Report(name, primary, _weighted_norms(primary, sqrt_det_g, imm.grid), imm.grid.sizes, metadata=metadata or {})


def _codazzi_field(cache: GeometryCache) -> np.ndarray:
    return _frobenius(tension(cache) - dt_rho_analytic(cache, apply_rotation=False))


def residual_codazzi(imm: Immersion, flow=None, metadata: dict | None = None) -> Report:
    """Tension of the plane field against the normal gradient of H, slab by slab; reads no ``flow``."""
    return _slab_report("codazzi", imm, _codazzi_field, metadata)


def _identify_field(cache: GeometryCache) -> np.ndarray:
    grid = cache.grid
    rhs = np.einsum("il...,alp...,jp...->ija...", cache.R, cache.A, cache.R)
    drho = np.empty((grid.m,) + cache.rho.shape)  # (l, C, *sizes)
    for l in range(grid.m):
        diff1(cache.rho, grid, l, out=drho[l])
    d_unit = np.einsum("il...,lc...->ic...", cache.R, drho)
    lhs = np.einsum("jac...,ic...->ija...", tangent_basis_field(cache.e, cache.nu), d_unit)  # (i, j, alpha, *sizes)
    lhs -= rhs
    return np.max(np.abs(lhs, out=lhs), axis=(0, 1, 2))


def residual_identify(imm: Immersion, flow=None, metadata: dict | None = None) -> Report:
    """Differential of the plane field against the second fundamental form, slab by slab; reads no ``flow``.

    Both sides are expressed on unit-speed frame directions: coefficients of
    the projected directional derivatives of the plane field versus the
    frame-contracted second fundamental form.
    """
    return _slab_report("identify", imm, _identify_field, metadata)


# ---------------------------------------------------------------------------
# frame-bundle identities by finite differences


def _check_step(h) -> None:
    if not 0.0 < h < np.inf:  # False on NaN as well
        raise ValueError(f"the step h must be finite and positive, got {h!r}")


def connection_residual(frame_fn, h: float) -> float:
    """Max mismatch between the two sides of the connection identity at step h.

    Left side: tensor-product covariant derivative of each frame leg pair,
    mapped into tangent coefficients.  Right side: projected centered
    difference of the corresponding tangent basis multivectors, all (i, alpha)
    entries at once.
    """
    _check_step(h)
    f0 = frame_fn(0.0)
    fp, fm = frame_fn(h), frame_fn(-h)
    de = (fp.e - fm.e) / (2.0 * h)
    dnu = (fp.nu - fm.nu) / (2.0 * h)
    d_basis = (tangent_basis_field(fp.e, fp.nu) - tangent_basis_field(fm.e, fm.nu)) / (2.0 * h)
    rhs = project_field(f0.e, f0.nu, np.moveaxis(d_basis, 2, 0))  # (j, beta, i, alpha)
    lhs = np.zeros_like(rhs)
    for i, alpha in np.ndindex(f0.m, f0.k):
        lhs[:, alpha, i, alpha] += [float(np.dot(de[i], e)) for e in f0.e]
        lhs[i, :, i, alpha] += [float(np.dot(dnu[alpha], nu)) for nu in f0.nu]
    return float(np.max(np.abs(lhs - rhs)))


def kahler_residual(frame_fn, h: float, coeffs: np.ndarray) -> float:
    """Commutation of the complex structure with the projected derivative."""
    _check_step(h)
    f0 = frame_fn(0.0)
    fp, fm = frame_fn(h), frame_fn(-h)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (f0.m, f0.k):
        raise ValueError(f"expected coefficient shape {(f0.m, f0.k)}, got {coeffs.shape}")
    basis_p, basis_m = tangent_basis_field(fp.e, fp.nu), tangent_basis_field(fm.e, fm.nu)
    section, rotated = (
        (np.einsum("ik,ikc->c", c, basis_p) - np.einsum("ik,ikc->c", c, basis_m)) / (2.0 * h)
        for c in (coeffs, jtilde_coeffs(coeffs))
    )
    lhs = project_field(f0.e, f0.nu, rotated)
    rhs = jtilde_coeffs(project_field(f0.e, f0.nu, section))
    return float(np.max(np.abs(lhs - rhs)))


def isometry_max_error(seed: int, m: int, n: int, trials: int = 1000) -> float:
    """Worst |g(psi c, psi d) - <c, d>_F| over seeded random frames and pairs.

    One field computation, the trials on the trailing axis.  Each trial draws,
    in order, the n x n Gaussian matrix of its frame (``oriented_q``), then c,
    then d, (m, n - m) each, as a loop over ``random_adapted_frame``, ``psi``
    and ``inner`` would; the value is bitwise that loop's.
    """
    if trials < 1:
        raise ValueError(f"the isometry check needs at least one trial, got {trials}")
    k = n - m
    draws = np.random.default_rng(seed).standard_normal((trials, n * n + 2 * m * k))
    q = oriented_q(draws[:, : n * n].reshape(trials, n, n))
    check_frames(np.swapaxes(q, 1, 2))
    basis = tangent_basis_field(q.T[:m], q.T[m:])  # q.T[i] is column i of every Q; basis is (m, k, C, trials)
    c, d = np.moveaxis(draws[:, n * n :].reshape(trials, 2, m, k), 1, 0)
    psi_c, psi_d = (np.einsum("tik,ikct->tc", x, basis) for x in (c, d))
    return float(np.max(np.abs(np.vecdot(psi_c, psi_d) - np.sum((c * d).reshape(trials, m * k), axis=1))))


def theorem2_suite(seed: int, h_list, trials: int = 1000) -> ConvergenceTable:
    """Isometry (exact) plus connection preservation (finite differences), for
    2-planes in R^4.

    The isometry part has no step size; its worst error over ``trials`` >= 1
    frames is stored in the table metadata.  The connection part is sampled
    along a seeded smooth frame curve at every h in h_list, which needs at
    least two distinct, finite, positive steps.
    """
    m, n = 2, 4
    try:
        hs = [float(h) for h in h_list]
    except TypeError as exc:
        raise ValueError(f"h_list must be a list of step sizes, got {h_list!r}") from exc
    except OverflowError:
        raise ValueError("h_list holds a step too large for a float") from None
    if len(hs) < 2 or len(set(hs)) < len(hs) or not all(0.0 < h < np.inf for h in hs):
        raise ValueError(f"h_list needs at least two distinct finite positive steps, got {hs}")
    isometry = isometry_max_error(seed, m, n, trials)
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
            "isometry_max": isometry,
            "isometry_trials": trials,
        },
    )


# ---------------------------------------------------------------------------
# convergence studies


def fit_order(hs, norms):
    """Least-squares slope of log norm against log h.

    Returns (order, monotone, below_floor); no order is fitted when any
    residual sits at ``RESIDUAL_FLOOR``, and a non-monotone sequence is
    flagged so the caller can mark the fit unreliable.
    """
    norms = [float(v) for v in norms]
    if any(v <= RESIDUAL_FLOOR for v in norms):
        return None, True, True
    monotone = all(b < a for a, b in zip(norms, norms[1:]))
    slope = float(np.polyfit(np.log(hs), np.log(norms), 1)[0])
    return slope, monotone, False


# name -> (geometry family, residual(imm, flow=None, metadata=None) of the immersion that
# geometry.FAMILIES builds): the one table that verify and converge run a name through;
# flow is the FlowConfig of a theorem1 name, and codazzi and identify read none
PROBLEMS = {
    "theorem1": ("perturbed_torus", theorem1_residual),
    "theorem1_mcf": ("perturbed_torus", functools.partial(theorem1_residual, name="theorem1_mcf")),
    "codazzi": ("perturbed_torus", residual_codazzi),
    "identify": ("product_torus", residual_identify),
}
FAMILY_DEFAULTS = {"a": 1.0, "b": 0.6, "eps": 0.05, "seed": 7}  # the values of the family keys left unset


def convergence_study(problem, resolutions, norm_key: str = "max", **problem_kwargs) -> ConvergenceTable:
    """Run a named (or callable) residual problem across resolutions and fit the order.

    A named problem builds its geometry family (``PROBLEMS``) from the keys
    of ``geometry.FAMILIES`` passed as keywords, each unset one at its
    ``FAMILY_DEFAULTS`` value; a keyword that the family does not read raises
    ``TypeError`` before any resolution runs, and a size that ``PeriodicGrid``
    refuses (odd, or below 8) raises ``ValueError``.  A callable is called as
    ``problem(size, **problem_kwargs)``.  The table's metadata records the
    norm key and the keywords passed, not the defaults.

    Time steps inside flow-based problems are ``stable_dt`` = 0.1 h^2.  At
    that step the residuals are all space error: on a 48^2 perturbed torus
    under RK4, the theorem1 residual at t = 0.02 is the same to 4 digits
    for every dt from 4e-3 to 5e-4.  So the observed order is that of the
    stencils alone and says nothing of the time discretization.
    """
    resolutions = [int(r) for r in resolutions]
    if len(resolutions) < 2:
        raise ValueError("need at least two resolutions")
    if len(set(resolutions)) < len(resolutions):
        raise ValueError(f"resolutions must be distinct, got {resolutions}")
    for size in resolutions:  # the grid's own check of each size, before any residual runs
        PeriodicGrid((size,))
    if isinstance(problem, str):
        family, residual = PROBLEMS[problem]
        builder, keys, axes = FAMILIES[family]
        unread = [key for key in problem_kwargs if key not in keys]
        if unread:
            raise TypeError(f"convergence problem {problem!r} does not read {unread}")
        values = [problem_kwargs.get(key, FAMILY_DEFAULTS[key]) for key in keys]
        runner = lambda size: residual(builder(*values, *[size] * axes))
    else:
        runner = functools.partial(problem, **problem_kwargs)
    rows = []
    for size in resolutions:
        report = runner(size)
        rows.append({"resolution": size, "h": 2.0 * np.pi / size, "norm": float(report.norms[norm_key])})
    order, monotone, below = fit_order([r["h"] for r in rows], [r["norm"] for r in rows])
    name = problem if isinstance(problem, str) else getattr(problem, "__name__", "custom")
    return ConvergenceTable(
        name=f"{name}:{norm_key}" if norm_key != "max" else name,
        rows=rows,
        observed_order=order,
        monotone=monotone,
        below_floor=below,
        metadata={"norm_key": norm_key, **problem_kwargs},
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
    reprs), written one grid row at a time, for any number of grid axes.
    """
    field = np.asarray(report.field, dtype=float)
    labels = [[f"{i}," for i in range(size)] for size in field.shape[:-1]]  # "i," per index of a leading axis
    with open(path, "w", newline="") as fh:
        fh.write("".join(f"{chr(ord('i') + axis)}," for axis in range(field.ndim)) + "residual\r\n")
        for row in np.ndindex(field.shape[:-1]):
            head = "".join(labels[axis][i] for axis, i in enumerate(row))
            fh.writelines(f"{head}{j},{v!r}\r\n" for j, v in enumerate(field[row].tolist()))


def save_table_csv(table: ConvergenceTable, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["resolution", "h", "norm"])
        for row in table.rows:
            writer.writerow([row["resolution"], repr(row["h"]), repr(row["norm"])])
