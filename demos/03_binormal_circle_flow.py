"""A circular vortex filament translates along its binormal at speed equal to
its curvature.  The skew flow of a unit circle reproduces that motion: every
node moves perpendicular to the circle plane, the radius is preserved to
machine precision, and the tangent field never changes.

Run:  python3 demos/03_binormal_circle_flow.py
"""

import math

import numpy as np

from skewflow import FlowConfig, explicit_step_bound, fundamental_forms, make_circle, run, velocity

size, radius, T = 128, 1.0, 0.25
imm = make_circle(radius, size)

v = velocity(imm, "SMCF")
print("velocity of the unit circle (first node):", np.round(v[0], 6))
print("spread across nodes: %.2e (rigid vertical translation)" % np.max(np.abs(v - v[0])))

dt = 0.5 * explicit_step_bound(imm)  # RK4 is stable up to 2.78 / lambda_max, about 0.7 r^2 h^2
steps = math.ceil(T / dt)
cfg = FlowConfig(flow_kind="SMCF", dt=T / steps, t_end=T, output_every=max(1, steps // 8))
print(f"\nintegrating to T={T} with dt={cfg.dt:.2e} ({steps} RK4 steps)")
traj = run(imm, cfg)

h = imm.grid.spacings[0]
stencil = 2.0 / (1.0 + np.cos(h))  # discrete curvature of the sampled circle
print("\n   t        height       radius drift   tangent-field drift")
rho0 = fundamental_forms(traj[0].immersion).rho
for state in traj.states:
    F = state.immersion.F
    height = float(np.mean(F[:, 2]))
    drift = float(np.max(np.abs(np.hypot(F[:, 0], F[:, 1]) - radius)))
    gdrift = float(np.max(np.abs(fundamental_forms(state.immersion).rho - rho0)))
    print(f"  {state.t:5.3f}   {height:10.6f}   {drift:12.2e}   {gdrift:12.2e}")

print(f"\npredicted height at T: curvature x T = {stencil / radius * T:.6f}")
print("the binormal speed equals the curvature 1/r, here with the O(h^2)")
print("stencil factor %.6f of the sampled circle." % stencil)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig = plt.figure(figsize=(5, 4))
    ax = fig.add_subplot(projection="3d")
    for state in traj.states:
        F = state.immersion.F
        ax.plot(F[:, 0], F[:, 1], F[:, 2], lw=1)
    ax.set_title("circle translating along its binormal")
    fig.savefig("demos_circle_flow.png", dpi=120)
    print("\nwrote demos_circle_flow.png")
except ImportError:
    print("\n(matplotlib not installed; skipping the figure)")
