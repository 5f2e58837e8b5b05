"""Product tori stay product tori under the skew flow while their two radii
exchange: a' = -1/b, b' = 1/a, so the product a*b (hence the area) is
conserved.  The dissipative counterpart shrinks both radii and loses area.

Run:  python3 demos/04_torus_radii_exchange.py
"""

import math

from skewflow import (
    FlowConfig,
    fitted_torus_radii,
    make_product_torus,
    product_torus_ode_oracle,
    run,
    stable_dt,
    volume,
)

size, T = 96, 0.2
imm = make_product_torus(1.0, 1.0, size)
steps = math.ceil(T / stable_dt(imm, 0.3))
cfg = FlowConfig(flow_kind="SMCF", dt=T / steps, t_end=T, output_every=max(1, steps // 6))
print(f"skew flow on a {size}x{size} torus, dt={cfg.dt:.2e}, {steps} RK4 steps")
traj = run(imm, cfg)

# "exact": the reduced radii in closed form, a = e^-t and b = e^t from a = b = 1
print("\n   t        a(grid)     a(exact)       b(grid)     b(exact)      area drift")
area0 = volume(traj[0].immersion)
for state in traj.states:
    a_fit, b_fit, dev = fitted_torus_radii(state.immersion)
    _, a_x, b_x = product_torus_ode_oracle(1.0, 1.0, state.t, T)  # the last sample is at state.t
    drift = abs(volume(state.immersion) - area0) / area0
    print(f"  {state.t:5.3f}   {a_fit:9.6f}   {a_x[-1]:9.6f}    {b_fit:9.6f}   {b_x[-1]:9.6f}    {drift:9.2e}")
a_fit, b_fit, dev = fitted_torus_radii(traj[-1].immersion)
print(f"\nproduct form deviation after the run: {dev:.2e} (stays an exact product torus)")
print(f"a*b at the end: {a_fit * b_fit:.12f} (conserved)")

print("\nsame torus under the dissipative flow:")
dt = stable_dt(imm, 0.2)
mcf = run(imm, FlowConfig(flow_kind="MCF", dt=dt, t_end=60 * dt, output_every=12))
for state in mcf.states:
    a_fit, b_fit, _ = fitted_torus_radii(state.immersion)
    print(f"  t={state.t:7.5f}  a={a_fit:.6f}  b={b_fit:.6f}  area={volume(state.immersion):.6f}")
print("area strictly decreases, as it must for the gradient flow of area.")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    t_o, a_o, b_o = product_torus_ode_oracle(1.0, 1.0, T, 1e-3)
    ts = [s.t for s in traj.states]
    a_s = [fitted_torus_radii(s.immersion)[0] for s in traj.states]
    b_s = [fitted_torus_radii(s.immersion)[1] for s in traj.states]
    fig, ax = plt.subplots(figsize=(5, 3.5))
    ax.plot(t_o, a_o, "k-", lw=1, label="closed form")
    ax.plot(t_o, b_o, "k-", lw=1)
    ax.plot(ts, a_s, "o", ms=4, label="grid radii a")
    ax.plot(ts, b_s, "s", ms=4, label="grid radii b")
    ax.set_xlabel("t")
    ax.set_ylabel("radius")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demos_torus_radii.png", dpi=120)
    print("\nwrote demos_torus_radii.png")
except ImportError:
    print("\n(matplotlib not installed; skipping the figure)")
