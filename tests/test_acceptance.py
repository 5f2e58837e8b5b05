"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them inline).

Criterion 5 pins dt = 1e-3 on a 256-node circle.  That step size exceeds the
imaginary-axis stability bound of classical RK4 for the dispersive velocity
(dt * 4/h^2 = 6.6 > 2*sqrt(2)), so an explicit run degenerates near
t = 0.05.  The criterion is about the translating circle at those
parameters, not about RK4, so it runs the linearly implicit "IMEX"
scheme, which has no such bound.  That RK4 far past its bound aborts with a
located, timed error is checked in
tests/test_flow.py::test_unstable_step_aborts_with_location.
"""

import math

import numpy as np

from skewflow import (
    FlowConfig,
    fitted_torus_radii,
    fundamental_forms,
    isometry_max_error,
    jtilde_coeffs,
    make_circle,
    make_product_torus,
    product_torus_ode_oracle,
    psi,
    random_adapted_frame,
    run,
    stable_dt,
    theorem2_suite,
    volume,
)
from skewflow.errors import DegenerateImmersionError
from skewflow.verify import convergence_study


def _criterion(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_isometry():
    worst = 0.0
    for m, n in [(2, 4), (1, 3)]:
        worst = max(worst, isometry_max_error(seed=101, m=m, n=n, trials=1000))
    _criterion(1, worst <= 1e-12, f"isometry max error {worst:.3e} over 1000 frames in G(2,2) and G(1,2)")


def test_criterion_02_connection_preservation():
    table = theorem2_suite(seed=102, h_list=[1e-2, 1e-3, 1e-4])
    order = table.observed_order
    ok = order is not None and order >= 0.9 and table.monotone
    rows = ", ".join(f"h={r['h']:.0e}: {r['norm']:.3e}" for r in table.rows)
    _criterion(2, ok, f"connection residual order {order:.3f} ({rows})")


def test_criterion_03_sphere_identification():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        frame = random_adapted_frame(rng, 1, 3)
        c = rng.standard_normal((1, 2))
        v = psi(frame, c).coeffs
        jv = psi(frame, jtilde_coeffs(c)).coeffs
        worst = max(worst, float(np.max(np.abs(jv - np.cross(frame.e[0], v)))))
    _criterion(3, worst <= 1e-12, f"complex structure vs cross product, max error {worst:.3e}")


def test_criterion_04_identify_convergence():
    table = convergence_study("identify", [32, 64], a=1.0, b=0.6)
    order = table.observed_order
    ok = order is not None and order >= 1.9
    _criterion(4, ok, f"plane-field differential vs second fundamental form, order {order:.3f}")


def test_criterion_05_translating_circle_stated_parameters():
    imm = make_circle(1.0, 256)
    cfg = FlowConfig(flow_kind="SMCF", dt=1e-3, t_end=0.5, scheme="IMEX", output_every=100)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            traj = run(imm, cfg)
    except DegenerateImmersionError as exc:
        detail = (
            f"IMEX run degenerated at t={exc.time:.3f} (node {exc.node}); the linearly implicit "
            "step has no dt ~ h^2 stability bound, so this is a fault of the scheme"
        )
        _criterion(5, False, detail)
        return
    F = traj[-1].immersion.F
    displacement = float(np.mean(F[:, 2]))
    radius_drift = float(np.max(np.abs(np.hypot(F[:, 0], F[:, 1]) - 1.0)))
    rho0 = fundamental_forms(traj[0].immersion).rho
    gauss_var = max(
        float(np.max(np.abs(fundamental_forms(s.immersion).rho - rho0))) for s in traj.states
    )
    ok = abs(displacement - 0.5) <= 5e-4 and radius_drift <= 1e-8 and gauss_var <= 1e-6
    _criterion(
        5, ok,
        f"displacement {displacement:.6f} (target 0.5 +- 5e-4), radius drift {radius_drift:.2e}, "
        f"tangent-field variation {gauss_var:.2e}",
    )


def test_criterion_06_product_torus_reduction():
    size, T = 176, 0.2
    imm = make_product_torus(1.0, 1.0, size)
    steps = math.ceil(T / stable_dt(imm, 0.3))
    cfg = FlowConfig(flow_kind="SMCF", dt=T / steps, t_end=T, output_every=max(1, steps // 5))
    traj = run(imm, cfg)
    radii_err = ab_drift = 0.0
    for state in traj.states[1:]:
        _, a_oracle, b_oracle = product_torus_ode_oracle(1.0, 1.0, state.t, 1e-4)
        a_fit, b_fit, _ = fitted_torus_radii(state.immersion)
        radii_err = max(radii_err, abs(a_fit - a_oracle[-1]), abs(b_fit - b_oracle[-1]))
        ab_drift = max(ab_drift, abs(a_fit * b_fit - 1.0))
    volumes = [volume(s.immersion) for s in traj.states]
    area_drift = max(abs(v - volumes[0]) / volumes[0] for v in volumes)

    mcf_imm = make_product_torus(1.0, 1.0, 64)
    dt = stable_dt(mcf_imm, 0.2)
    mcf = run(mcf_imm, FlowConfig(flow_kind="MCF", dt=dt, t_end=30 * dt, output_every=6))
    mcf_volumes = [volume(s.immersion) for s in mcf.states]
    mcf_decreasing = all(b < a for a, b in zip(mcf_volumes, mcf_volumes[1:]))

    ok = radii_err <= 1e-4 and ab_drift <= 1e-6 and area_drift <= 1e-6 and mcf_decreasing
    _criterion(
        6, ok,
        f"radii vs reduced dynamics {radii_err:.2e} (<=1e-4), a*b drift {ab_drift:.2e}, "
        f"area drift {area_drift:.2e}, heat-flow area strictly decreasing: {mcf_decreasing}",
    )


def test_criterion_06_product_torus_reduction_imex():
    # criterion 06's torus, end time and tolerances, with IMEX steps of about 0.11 h
    size, T, steps = 176, 0.2, 50
    assert steps <= 52  # a tenth of the 524 RK4 steps, or fewer
    imm = make_product_torus(1.0, 1.0, size)
    traj = run(imm, FlowConfig(flow_kind="SMCF", dt=T / steps, t_end=T, scheme="IMEX", output_every=10))
    radii_err = ab_drift = 0.0
    for state in traj.states[1:]:
        _, a_oracle, b_oracle = product_torus_ode_oracle(1.0, 1.0, state.t, 1e-4)
        a_fit, b_fit, _ = fitted_torus_radii(state.immersion)
        radii_err = max(radii_err, abs(a_fit - a_oracle[-1]), abs(b_fit - b_oracle[-1]))
        ab_drift = max(ab_drift, abs(a_fit * b_fit - 1.0))
    volumes = [volume(s.immersion) for s in traj.states]
    area_drift = max(abs(v - volumes[0]) / volumes[0] for v in volumes)
    ok = radii_err <= 1e-4 and ab_drift <= 1e-6 and area_drift <= 1e-6
    _criterion(
        6, ok,
        f"IMEX, {steps} steps: radii vs reduced dynamics {radii_err:.2e} (<=1e-4), "
        f"a*b drift {ab_drift:.2e}, area drift {area_drift:.2e}",
    )


def test_criterion_07_main_identity_convergence():
    table = convergence_study("theorem1", [16, 32, 64], a=1.0, b=0.6, eps=0.05, seed=7)
    agreement = convergence_study(
        "theorem1", [16, 32, 64], a=1.0, b=0.6, eps=0.05, seed=7, norm_key="max_lhs_agreement"
    )
    ok = (
        table.observed_order is not None and table.observed_order >= 1.9 and table.monotone
        and agreement.observed_order is not None and agreement.observed_order >= 1.9
    )
    _criterion(
        7, ok,
        f"skew-flow identity residual order {table.observed_order:.3f}, "
        f"time-derivative formulations agree at order {agreement.observed_order:.3f}",
    )


def test_criterion_08_codazzi_convergence():
    table = convergence_study("codazzi", [16, 32, 64], a=1.0, b=0.6, eps=0.05, seed=7)
    ok = table.observed_order is not None and table.observed_order >= 1.9 and table.monotone
    _criterion(8, ok, f"tension vs normal gradient of H, order {table.observed_order:.3f}")


def test_criterion_09_heat_flow_analog_convergence():
    table = convergence_study("theorem1_mcf", [16, 32, 64], a=1.0, b=0.6, eps=0.05, seed=7)
    ok = table.observed_order is not None and table.observed_order >= 1.9 and table.monotone
    _criterion(9, ok, f"heat-flow identity residual order {table.observed_order:.3f}")


def test_criterion_10_determinism():
    runs = [convergence_study("codazzi", [16, 32], a=1.0, b=0.6, eps=0.05, seed=7) for _ in range(2)]
    same_tables = (
        [r["norm"] for r in runs[0].rows] == [r["norm"] for r in runs[1].rows]
        and runs[0].observed_order == runs[1].observed_order
    )
    suites = [theorem2_suite(seed=44, h_list=[1e-2, 1e-3]) for _ in range(2)]
    same_suites = (
        [r["norm"] for r in suites[0].rows] == [r["norm"] for r in suites[1].rows]
        and suites[0].metadata["isometry_max"] == suites[1].metadata["isometry_max"]
    )
    ok = same_tables and same_suites
    _criterion(10, ok, "repeated seeded runs reproduce norms exactly")
