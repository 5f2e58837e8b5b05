import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from skewflow import (
    AdaptedFrame,
    FlowConfig,
    FlowState,
    Immersion,
    Trajectory,
    explicit_step_bound,
    fitted_torus_radii,
    flow,
    fundamental_forms,
    make_circle,
    make_perturbed_circle,
    make_perturbed_torus,
    make_product_torus,
    normal_rotate,
    product_torus_ode_oracle,
    run,
    stable_dt,
    step,
    velocity,
    volume,
)
from skewflow.errors import DegenerateImmersionError

from conftest import traced_peak


def stencil_factor(size):
    # centered second difference of a frequency-1 circle: 2(1-cos h)/h^2 / sinc(h)^2
    h = 2 * np.pi / size
    return 2.0 / (1.0 + np.cos(h))


def radial_fields(imm):
    x, y = imm.grid.meshgrid()
    r1 = np.stack([np.cos(x), np.sin(x), 0 * x, 0 * x], axis=-1)
    r2 = np.stack([0 * x, 0 * x, np.cos(y), np.sin(y)], axis=-1)
    return r1, r2


def test_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(dt=0.0)
    with pytest.raises(ValueError):
        FlowConfig(flow_kind="bogus")
    with pytest.raises(ValueError):
        FlowConfig(scheme="RK2")
    with pytest.raises(ValueError):
        FlowConfig(output_every=0)
    # booleans too: FlowConfig(dt=True, t_end=False) was built and stored the two booleans
    for field in ("dt", "t_end"):
        for bad in (math.nan, math.inf, True, False, np.True_, np.False_):
            with pytest.raises(ValueError, match=f"^{field} must be finite"):  # the field first, as cli's flow.{exc} reads
                FlowConfig(**{field: bad})
    # a run recorded the steps whose count modulo 1.5 is 0, steps 3 and 6 of 6;
    # True was stored as output_every
    for every in (1.5, math.inf, math.nan, True, np.True_):
        with pytest.raises(ValueError, match="whole number"):
            FlowConfig(dt=0.01, t_end=0.06, output_every=every)
    assert FlowConfig(output_every=np.int64(2)).output_every == FlowConfig(output_every=2.0).output_every == 2


def test_velocity_circle_is_binormal_curvature():
    for r, size in [(1.0, 64), (2.0, 128)]:
        imm = make_circle(r, size)
        v = velocity(imm, "SMCF")
        expect = np.array([0.0, 0.0, stencil_factor(size) / r])
        assert np.max(np.abs(v - expect)) < 1e-12  # constant over nodes, exact form
        h = imm.grid.spacings[0]
        assert np.max(np.abs(v - np.array([0, 0, 1.0 / r]))) < h * h  # analytic k*b


def test_velocity_flat_patch_interior_zero():
    from skewflow import PeriodicGrid

    grid = PeriodicGrid((16, 16))
    x, y = grid.meshgrid()
    imm = Immersion(grid=grid, F=np.stack([x, y, 0 * x, 0 * x], axis=-1))
    for kind in ("SMCF", "MCF"):
        v = velocity(imm, kind)
        assert np.max(np.abs(v[2:-2, 2:-2])) < 1e-12


def test_velocity_product_torus_sign_convention():
    a, b = 1.0, 0.6
    imm = make_product_torus(a, b, 48)
    v = velocity(imm, "SMCF")
    r1, r2 = radial_fields(imm)
    h = imm.grid.spacings[0]
    assert np.max(np.abs(v - (-(1.0 / b) * r1 + (1.0 / a) * r2))) < 2 * h * h
    kappa = stencil_factor(48)
    assert np.max(np.abs(v - (-(kappa / b) * r1 + (kappa / a) * r2))) < 1e-12


def test_velocity_matches_frame_rotation_of_H():
    # reference: J applied node by node in the adapted frame to H from the fundamental forms
    for imm in (make_perturbed_torus(1.0, 0.7, 0.05, 3, 16), make_perturbed_circle(1.0, 0.2, 3, 64)):
        cache = fundamental_forms(imm)
        v = velocity(imm, "SMCF")
        for node in np.ndindex(imm.grid.sizes):
            at = (..., *node)
            expect = normal_rotate(AdaptedFrame(cache.e[at], cache.nu[at]), cache.H[at])
            assert np.max(np.abs(v[node] - expect)) < 1e-12
        assert np.max(np.abs(velocity(imm, "MCF") - np.moveaxis(cache.H, 0, -1))) < 1e-12


def test_velocity_degenerate_torus_reports_node():
    imm = make_product_torus(1.0, 0.5, 16)
    F = imm.F.copy()
    F[3, :, :] = F[2, :, :]  # duplicate a grid line; stays finite but rank-deficient
    F[4, :, :] = F[2, :, :]
    with pytest.raises(DegenerateImmersionError) as err:
        velocity(Immersion(grid=imm.grid, F=F), "SMCF")
    assert err.value.node is not None
    assert err.value.node[0] == 3


def test_velocity_is_normal():
    imm = make_perturbed_torus(1.0, 0.6, 0.05, 7, 24)
    cache = fundamental_forms(imm)
    for kind in ("SMCF", "MCF"):
        v = velocity(imm, kind)
        tang = np.einsum("in...,n...->i...", cache.e, np.moveaxis(v, -1, 0))
        scale = np.linalg.norm(v, axis=-1) + 1e-30
        assert np.max(np.abs(tang) / scale) < 1e-10


def test_run_output_cadence_and_invariants():
    imm = make_product_torus(1.0, 1.0, 16)
    cfg = FlowConfig(dt=1e-3, t_end=1e-2, output_every=3)
    traj = run(imm, cfg)
    ts = [s.t for s in traj.states]
    assert ts[0] == 0.0
    assert ts[-1] == pytest.approx(1e-2)
    assert all(b > a for a, b in zip(ts, ts[1:]))
    with pytest.raises(ValueError):
        Trajectory(states=[traj[1], traj[0]])


def test_translating_circle_stable_dt():
    # exact solution: rigid translation along the binormal with speed
    # stencil_factor/r; radius and tangent field are preserved
    size, T = 128, 0.1
    imm = make_circle(1.0, size)
    dt = stable_dt(imm)  # 0.1 h^2
    steps = math.ceil(T / dt)
    cfg = FlowConfig(flow_kind="SMCF", dt=T / steps, t_end=T, scheme="RK4", output_every=10**9)
    traj = run(imm, cfg)
    F = traj[-1].immersion.F
    expect_z = T * stencil_factor(size)
    assert abs(float(np.mean(F[:, 2])) - expect_z) < 1e-10
    assert np.max(np.abs(np.hypot(F[:, 0], F[:, 1]) - 1.0)) < 1e-10
    assert np.max(np.abs(F[:, 2] - expect_z)) < 1e-10  # stays planar


def test_unstable_step_aborts_with_location():
    # far above the dispersive stability bound the high modes blow up and the
    # degeneracy detector must fire with a located, timed error
    imm = make_circle(1.0, 64)
    cfg = FlowConfig(flow_kind="SMCF", dt=5e-2, t_end=5.0, scheme="RK4")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DegenerateImmersionError) as err:
            run(imm, cfg)
    assert err.value.time is not None
    assert err.value.time < 5.0


def test_unstable_torus_step_aborts_with_location():
    # the torus counterpart: dt is about 30 times the RK4 bound of a 16^2 grid
    imm = make_product_torus(1.0, 1.0, 16)
    cfg = FlowConfig(flow_kind="SMCF", dt=0.5, t_end=50.0, scheme="RK4")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DegenerateImmersionError) as err:
            run(imm, cfg)
    assert err.value.time is not None and err.value.time < cfg.t_end
    assert err.value.node is not None and len(err.value.node) == 2


def test_run_rank_checks_the_state_it_ends_on():
    # RK4 at 24 times its step bound: every stage is sound, but the last step writes a
    # degenerate state, which no stage freezes at; run used to return it
    imm = make_perturbed_torus(1.0, 0.6, 0.05, 7, 128)
    cfg = FlowConfig(dt=0.01, t_end=0.05, scheme="RK4")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DegenerateImmersionError) as err:
            run(imm, cfg)
    assert "tangent map is degenerate at node (34, 14) at t = 0.05 " in str(err.value), str(err.value)
    assert err.value.node == (34, 14) and err.value.time == pytest.approx(0.05)


def test_step_rank_checks_the_state_it_returns():
    # the same repro one step call at a time: the fifth call returned the degenerate state
    imm = make_perturbed_torus(1.0, 0.6, 0.05, 7, 128)
    cfg, state = FlowConfig(dt=0.01, scheme="RK4"), FlowState(0.0, imm)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(4):
            state = step(state, cfg)
        with pytest.raises(DegenerateImmersionError) as err:
            step(state, cfg)
    assert "tangent map is degenerate at node (34, 14) at t = 0.05 " in str(err.value), str(err.value)
    assert err.value.node == (34, 14) and err.value.time == pytest.approx(0.05)


def test_explicit_step_bound_closed_forms():
    # curves: lambda_max = 4 / (h^2 g_00), g_00 = (r sin(h) / h)^2 by the centered difference
    r, size = 0.3, 64
    h = 2 * np.pi / size
    assert explicit_step_bound(make_circle(r, size)) == pytest.approx(2.78 * (r * np.sin(h)) ** 2 / 4, rel=1e-12)
    # product torus: c01 = 0, c00 = 1 / g00 and c11 = 1 / g11
    a, b, n0, n1 = 1.0, 0.6, 32, 16
    h0, h1 = 2 * np.pi / n0, 2 * np.pi / n1
    lam = 4 / (a * np.sin(h0)) ** 2 + 4 / (b * np.sin(h1)) ** 2
    assert explicit_step_bound(make_product_torus(a, b, n0, n1)) == pytest.approx(2.78 / lam, rel=1e-12)


def test_rk4_step_bound_is_tight_on_a_perturbed_curve():
    imm = make_perturbed_circle(1.0, 0.2, 1, 256)
    bound = explicit_step_bound(imm)
    t_end = 60 * 0.9 * bound

    def last(dt):
        return run(imm, FlowConfig(dt=dt, t_end=t_end, output_every=10**9))[-1].immersion.F

    reference = last(0.05 * bound)
    assert np.max(np.abs(last(0.9 * bound) - reference)) <= 1e-12
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            off = float(np.max(np.abs(last(1.3 * bound) - reference)))
        except DegenerateImmersionError:
            off = np.inf
    assert not off <= 1.0


def _run_by_steps(imm, cfg, advance):
    """The states ``run`` records, from repeated calls of ``advance(state, dt)``."""
    state, states, steps_done = FlowState(t=0.0, immersion=imm), [], 0
    states.append(state)
    while state.t < cfg.t_end - 1e-12:
        state = advance(state, min(cfg.dt, cfg.t_end - state.t))
        steps_done += 1
        if steps_done % cfg.output_every == 0 or state.t >= cfg.t_end - 1e-12:
            states.append(state)
    return states


def _one_stepper(imm, cfg):
    """``advance(state, dt)`` by one ``flow._stepper``, kept over all the steps as ``run`` keeps it."""
    _, stepper = flow._stepper(imm.grid, cfg)

    def advance(state, dt):
        out = np.empty((imm.n,) + imm.grid.sizes)
        stepper(np.moveaxis(state.immersion.F, -1, 0).copy(), state.t, dt, out)
        return FlowState(t=state.t + dt, immersion=Immersion(grid=imm.grid, F=np.moveaxis(out, 0, -1).copy()))

    return advance


@pytest.mark.parametrize("scheme", ["RK4", "IMEX"])
@pytest.mark.parametrize("kind", ["SMCF", "MCF"])
def test_run_equals_repeated_step_bitwise(scheme, kind):
    for imm in (make_perturbed_circle(1.0, 0.2, 3, 32), make_perturbed_torus(1.0, 0.7, 0.05, 3, 16)):
        dt = stable_dt(imm)
        # t_end is no step multiple, so the last step is shortened
        cfg = FlowConfig(flow_kind=kind, dt=dt, t_end=7.4 * dt, scheme=scheme, output_every=3)
        # step keeps no history, so it takes IMEX's starting step every time:
        # an IMEX run equals repeated step calls over one step only
        by_step = cfg if scheme == "RK4" else FlowConfig(flow_kind=kind, dt=dt, t_end=dt, scheme=scheme)
        checks = [(cfg, _one_stepper(imm, cfg)), (by_step, lambda state, dt: step(state, by_step, dt=dt))]
        for c, advance in checks:
            traj, states = run(imm, c), _run_by_steps(imm, c, advance)
            assert [s.t for s in traj.states] == [s.t for s in states]
            assert traj[-1].t == c.t_end
            for got, want in zip(traj.states, states):
                assert np.array_equal(got.immersion.F, want.immersion.F)


@pytest.mark.parametrize("kind", ["SMCF", "MCF"])
def test_run_velocity_fn_adapter_and_state_buffers(kind):
    for imm in (make_perturbed_torus(1.0, 0.7, 0.05, 3, 16), make_perturbed_circle(1.0, 0.2, 3, 32)):
        F0 = imm.F.copy()
        cfg = FlowConfig(flow_kind=kind, dt=stable_dt(imm), t_end=5.5 * stable_dt(imm), output_every=2)
        own = run(imm, cfg)
        assert np.array_equal(imm.F, F0)
        assert len(own) == 4
        assert not np.array_equal(own[-1].immersion.F, F0)
        arrays = [s.immersion.F for s in own.states]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


def test_imex_frozen_operator_matches_velocity():
    from skewflow.flow import _freeze, _frozen, _Imex

    for imm in (
        make_perturbed_circle(1.0, 0.2, 3, 256),
        make_perturbed_torus(1.0, 0.7, 0.05, 3, 32),
        make_product_torus(1.0, 0.6, 24, 16),
    ):
        f = np.moveaxis(imm.F, -1, 0).copy()
        for kind in ("SMCF", "MCF"):
            ws = _Imex(imm.grid, kind)
            _freeze(f, 0.0, 1e-3, ws)
            frozen = np.moveaxis(_frozen(f, np.empty_like(f), ws), 0, -1)
            assert np.max(np.abs(frozen - velocity(imm, kind))) < 1e-13


@pytest.mark.parametrize("scheme, dt", [("RK4", 1e-7), ("IMEX", 1e-3)])
def test_steps_allocate_no_grid_sized_array(scheme, dt):
    from skewflow.flow import _stepper

    # numpy reports its allocations to tracemalloc; one grid field here is 512 KiB
    for imm in (make_perturbed_circle(1.0, 0.2, 3, 65536), make_perturbed_torus(1.0, 0.7, 0.05, 3, 256)):
        for kind in ("SMCF", "MCF"):
            _, advance = _stepper(imm.grid, FlowConfig(flow_kind=kind, dt=dt, scheme=scheme))
            f = np.moveaxis(imm.F, -1, 0).copy()
            g = np.empty_like(f)
            advance(f, 0.0, dt, g)
            # out of place, into the two buffers in turn as a run passes them: a full
            # step, then a shorter one, by which IMEX extrapolates at the step ratio r = 0.3
            peak = traced_peak(lambda: (advance(g, dt, dt, f), advance(f, 2 * dt, 0.3 * dt, g)))
            assert peak < 8 * 65536 // 2, (imm.grid.sizes, kind, peak)


def test_imex_run_holds_its_history_by_reference():
    # 256^2 peaks in grid fields, with tracemalloc: 67.9 with the positions before each
    # step copied into a buffer of the workspace, 63.9 holding the array that step read,
    # 44.4 with the operator slab by slab (16 slabs), keeping only the c_ij and xi whole-grid
    size = 256
    imm = make_perturbed_torus(1.0, 0.6, 0.05, 7, size)
    config = FlowConfig(dt=1e-3, t_end=3e-3, scheme="IMEX", output_every=3)
    run(imm, config)  # the wedge tables are cached on first use
    fields = traced_peak(lambda: run(imm, config)) / (8 * size * size)
    assert fields < 46, fields


def test_steps_below_the_end_tolerance_are_all_taken():
    # a run stops up to 1e-12 short of t_end, which at steps of 1e-13 swallowed all five
    traj = run(make_circle(1.0, 64), FlowConfig(dt=1e-13, t_end=5e-13))
    ts, _, _ = product_torus_ode_oracle(1.0, 0.6, 5e-13, 1e-13)
    assert len(traj) == len(ts) == 6 and traj[-1].t == ts[-1] == 5e-13
    assert [state.t for state in traj.states] == pytest.approx(ts, rel=1e-9, abs=0)


def test_imex_second_order_in_time():
    # RK4 at T/1000 is stable here and its error is far below the IMEX errors
    T = 0.05
    torus = make_perturbed_torus(1.0, 0.7, 0.05, 3, 32)
    cases = [(make_perturbed_circle(1.0, 0.2, 3, 64), "SMCF", (2e-3, 1e-3, 5e-4, 2.5e-4))]
    cases += [(torus, kind, (T / 8, T / 16, T / 32)) for kind in ("SMCF", "MCF")]
    for imm, kind, dts in cases:
        ref = run(imm, FlowConfig(flow_kind=kind, dt=T / 1000, t_end=T, output_every=10**9))[-1].immersion.F
        errs = []
        for dt in dts:
            cfg = FlowConfig(flow_kind=kind, dt=dt, t_end=T, scheme="IMEX", output_every=10**9)
            errs.append(np.max(np.abs(run(imm, cfg)[-1].immersion.F - ref)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.9), (imm.grid.sizes, kind, orders)


def test_imex_second_order_in_time_with_a_shortened_last_step():
    # T / dt = 7.4, 14.8 and 29.6 (18.6 ... 74.4 on the curve): every run ends
    # with a step shorter than the one before it
    T = 0.05
    torus = make_perturbed_torus(1.0, 0.7, 0.05, 3, 32)
    cases = [(make_perturbed_circle(1.0, 0.2, 3, 64), "SMCF", [T / (18.6 * 2**k) for k in range(3)])]
    cases += [(torus, kind, [T / (7.4 * 2**k) for k in range(3)]) for kind in ("SMCF", "MCF")]
    for imm, kind, dts in cases:
        ref = run(imm, FlowConfig(flow_kind=kind, dt=T / 1000, t_end=T, output_every=10**9))[-1].immersion.F
        errs = []
        for dt in dts:
            cfg = FlowConfig(flow_kind=kind, dt=dt, t_end=T, scheme="IMEX", output_every=10**9)
            errs.append(np.max(np.abs(run(imm, cfg)[-1].immersion.F - ref)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.9), (imm.grid.sizes, kind, orders)


def test_krylov_cap_is_a_located_breakdown(monkeypatch):
    from skewflow.errors import KrylovBreakdownError

    monkeypatch.setattr(flow, "KRYLOV_MAX_ITER", 1)
    imm = make_perturbed_torus(1.0, 0.7, 0.05, 3, 32)
    cfg = FlowConfig(flow_kind="MCF", dt=0.05, t_end=0.2, scheme="IMEX")
    with pytest.raises(KrylovBreakdownError) as err:
        run(imm, cfg)
    assert isinstance(err.value, DegenerateImmersionError)
    assert err.value.time == 0.0


def test_import_does_not_load_scipy():
    import skewflow

    src = str(Path(skewflow.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import skewflow; assert 'scipy' not in sys.modules\n"
        "from skewflow import FlowConfig, make_circle, make_product_torus, run\n"
        "cfg = FlowConfig(dt=1e-3, t_end=2e-3, scheme='IMEX')\n"
        "run(make_circle(1.0, 32), cfg); run(make_product_torus(1.0, 0.5, 16), cfg)\n"
        "assert 'scipy' not in sys.modules\n"
        # nothing in the CLI needs an executor, whose import costs every run start-up memory
        "import skewflow.cli; assert 'concurrent.futures' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_product_torus_stays_product_form():
    imm = make_product_torus(1.0, 1.0, 32)
    dt = stable_dt(imm, 0.2)
    cfg = FlowConfig(flow_kind="SMCF", dt=dt, t_end=50 * dt, output_every=10)
    traj = run(imm, cfg)
    a_fit, b_fit, dev = fitted_torus_radii(traj[-1].immersion)
    assert dev < 1e-10
    assert a_fit * b_fit == pytest.approx(1.0, abs=1e-10)


def test_ode_oracle_symmetric_closed_form():
    # with equal radii the product is conserved, so a' = -a: a(t) = e^{-t}
    ts, a, b = product_torus_ode_oracle(1.0, 1.0, 0.25, 1e-4)
    assert a[-1] == pytest.approx(0.7788007830714049, abs=1e-10)  # e^{-1/4}
    assert b[-1] == pytest.approx(1.2840254166877414, abs=1e-10)  # e^{+1/4}


def test_ode_oracle_conserves_product():
    ts, a, b = product_torus_ode_oracle(1.3, 0.8, 0.2, 1e-4, output_every=100)
    assert np.max(np.abs(a * b - 1.3 * 0.8)) < 1e-10


def test_ode_oracle_sign_flip_reverses():
    ts, a, b = product_torus_ode_oracle(1.0, 0.9, 0.15, 1e-4)
    ts2, a2, b2 = product_torus_ode_oracle(a[-1], b[-1], 0.15, 1e-4, s=-1.0)
    assert a2[-1] == pytest.approx(1.0, abs=1e-10)
    assert b2[-1] == pytest.approx(0.9, abs=1e-10)


def test_ode_oracle_rejects_bad_radii():
    with pytest.raises(ValueError):
        product_torus_ode_oracle(-1.0, 1.0, 0.1, 1e-3)


@pytest.mark.parametrize(
    "t_end, dt, output_every, match",
    [
        # a negative step or horizon gave the one sample t = [0.1] or [-0.1]
        (0.1, -1e-3, 1, "dt must be"),
        (-0.1, 1e-3, 1, "t_end must be"),
        # and a zero step or output_every a bare ZeroDivisionError
        (0.1, 0.0, 1, "dt must be"),
        (0.1, 1e-3, 0, "output_every must be"),
        (0.1, 1e-3, 1.5, "whole number"),
        (math.nan, 1e-3, 1, "t_end must be"),
    ],
)
def test_ode_oracle_rejects_what_a_run_rejects(t_end, dt, output_every, match):
    with pytest.raises(ValueError, match=match):
        FlowConfig(dt=dt, t_end=t_end, output_every=output_every)
    with pytest.raises(ValueError, match=match):
        product_torus_ode_oracle(1.0, 1.0, t_end, dt, output_every=output_every)


@pytest.mark.parametrize("a0, b0", [(math.nan, 1.0), (1.0, math.inf), (0.0, 1.0), (1.0, -0.5), (True, 1.0), (1.0, np.True_)])
def test_ode_oracle_requires_finite_positive_radii(a0, b0):
    # a NaN radius gave all-NaN samples, an infinite one a = inf at every sample, and True ran as 1
    with pytest.raises(ValueError, match="radii must be finite and positive"):
        product_torus_ode_oracle(a0, b0, 0.1, 0.05)


@pytest.mark.parametrize("a0, b0, s, output_every", [(1.3, 0.8, 1.0, 100), (1.0, 0.9, -1.0, 1)])
def test_ode_oracle_samples_the_closed_form(a0, b0, s, output_every):
    t_end, dt = 0.2, 1e-4
    ts, a, b = product_torus_ode_oracle(a0, b0, t_end, dt, s=s, output_every=output_every)
    np.testing.assert_allclose(a, a0 * np.exp(-s * ts / (a0 * b0)), rtol=1e-15, atol=0)
    np.testing.assert_allclose(b, b0 * np.exp(s * ts / (a0 * b0)), rtol=1e-15, atol=0)
    assert ts[0] == 0.0 and ts[-1] == t_end
    assert len(ts) == round(t_end / (dt * output_every)) + 1
    assert np.max(np.abs(np.diff(ts) - dt * output_every)) < 1e-15


def test_ode_oracle_does_not_step_the_flow(monkeypatch):
    # the reference must not share the integrator that it checks
    def refuse(*args):
        raise AssertionError("the oracle called the RK4 step")

    monkeypatch.setattr(flow, "_advance", refuse)
    _, a, b = product_torus_ode_oracle(1.0, 1.0, 0.25, 1e-4)
    assert a[-1] == pytest.approx(np.exp(-0.25), rel=1e-15)


def test_pde_radii_track_ode_oracle():
    size, T = 64, 0.05
    imm = make_product_torus(1.0, 1.0, size)
    dt = stable_dt(imm, 0.2)
    steps = math.ceil(T / dt)
    cfg = FlowConfig(flow_kind="SMCF", dt=T / steps, t_end=T, output_every=10**9)
    traj = run(imm, cfg)
    _, a_o, b_o = product_torus_ode_oracle(1.0, 1.0, T, 1e-5)
    a_fit, b_fit, _ = fitted_torus_radii(traj[-1].immersion)
    h = imm.grid.spacings[0]
    # discrepancy is the stencil factor kappa - 1 ~ h^2/4 integrated over [0, T]
    bound = 2.0 * T * (stencil_factor(size) - 1.0)
    assert abs(a_fit - a_o[-1]) < bound
    assert abs(b_fit - b_o[-1]) < bound
    assert bound < 3e-4


def test_volume_conserved_under_skew_flow_unit_time():
    # the shrinking radius tightens the stability bound, hence the small factor
    imm = make_product_torus(1.0, 1.0, 24)
    dt = stable_dt(imm, 0.05)
    steps = math.ceil(1.0 / dt)
    cfg = FlowConfig(flow_kind="SMCF", dt=1.0 / steps, t_end=1.0, output_every=10**9)
    traj = run(imm, cfg)
    v0, v1 = volume(traj[0].immersion), volume(traj[-1].immersion)
    assert abs(v1 - v0) / v0 < 1e-6


def test_volume_conserved_on_perturbed_torus():
    imm = make_perturbed_torus(1.0, 0.8, 0.05, 7, 32)
    dt = stable_dt(imm, 0.1)
    T = 0.05
    steps = math.ceil(T / dt)
    cfg = FlowConfig(flow_kind="SMCF", dt=T / steps, t_end=T, output_every=10**9)
    traj = run(imm, cfg)
    v0, v1 = volume(traj[0].immersion), volume(traj[-1].immersion)
    h = imm.grid.spacings[0]
    # C fitted once on this benchmark and frozen (measured drift is 2e-6 h^2)
    assert abs(v1 - v0) / v0 <= max(1e-6, 1e-5 * (h * h + cfg.dt**4))


def test_mcf_volume_strictly_decreases():
    imm = make_perturbed_torus(1.0, 0.8, 0.05, 7, 24)
    dt = stable_dt(imm, 0.1)
    cfg = FlowConfig(flow_kind="MCF", dt=dt, t_end=30 * dt, output_every=6)
    traj = run(imm, cfg)
    volumes = [volume(s.immersion) for s in traj.states]
    assert all(b < a for a, b in zip(volumes, volumes[1:]))
