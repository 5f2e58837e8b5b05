"""The linearly implicit (IMEX) step of the flows, for curves and tori.

The velocity is linear in the second differences once the geometry is
frozen: L X = M (g^{ij} D_ij X) is the flow operator of ``flow``, frozen by
``_coefficients`` and applied by ``_apply``, and L_F F is the velocity at
F.  This module holds the solver only.  A Crank-Nicolson step with L frozen
at the midpoint is second order in time and not bound by h^2 (the
small-scale decomposition of Hou, Lowengrub and Shelley, JCP 114, 1994).
A run's first step finds that midpoint by a predictor solve; every later
step extrapolates it from the two last states and solves once (the
linearly implicit two-step Crank-Nicolson scheme of Akrivis, Crouzeix and
Makridakis, Numer. Math. 82, 1999).
Each solve is a matrix-free GMRES on normal fields, preconditioned in
Fourier space with the mean-metric Laplacian: J^2 = -1 turns
(I - sL)(I + sL) into I + s^2 Delta^2 there.  L runs slab by slab, as in RK4,
on buffers allocated once per run: a step allocates no grid-sized array.
"""

from __future__ import annotations

import math
from copy import copy

import numpy as np

from .errors import KrylovBreakdownError
from .flow import _apply, _by_slabs, _normal_part, _Slabs
from .geometry import _fill_pad

KRYLOV_DIM = 3  # Krylov basis vectors per GMRES cycle (the restart length)
KRYLOV_MAX_ITER = 40  # GMRES iterations per solve before the step counts as a breakdown
KRYLOV_RTOL = 1e-12  # residual target, relative to the positions' norm


class _Imex:
    """Workspace of the IMEX step, allocated once per run: the frozen operator's
    whole-grid ``c``, one contiguous field per c_ij (``terms``), and ``xi``, whose
    rows each slab of ``ops`` (``flow._Slabs``) keeps; ``gain``, the preconditioner's
    1/d(k) per Fourier mode, the iterate ``x``, ``z`` and the Krylov ``basis`` of the
    solver and the FFT's ``spectrum``.  ``prev`` is the positions before the last step,
    held by reference, and ``dt_prev`` that step's size; None before a run's first step.
    """

    def __init__(self, grid, kind):
        m, sizes = grid.m, grid.sizes
        self.grid, self.kind, pairs = grid, kind, [(i, j) for i in range(m) for j in range(i, m)]
        self.c, self.xi = np.empty((len(pairs),) + sizes), np.empty((math.comb(m + 2, m),) + sizes)
        self.terms, self.ops = [(i, j, c) for (i, j), c in zip(pairs, self.c)], _Slabs(grid, kind)
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
