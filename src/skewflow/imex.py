"""The linearly implicit (IMEX) step of the flows, for curves and tori.

The velocity is linear in the second differences once the geometry is
frozen: L X = M (c00 D00 X + c01 D01 X + c11 D11 X), with the scaled inverse
metric c00 = g11/det g, c01 = -2 g01/det g, c11 = g00/det g (c00 = 1/g00
for curves) and M = J, the quarter turn of the normal planes, for the skew
flow, or M = P_N = -J^2 for the mean curvature flow; L_F F is the velocity
at F.  A Crank-Nicolson step with L frozen at F (predictor), then at the
midpoint (corrector), is second order in time and not bound by h^2 (the
small-scale decomposition of Hou, Lowengrub and Shelley, JCP 114, 1994).
Each solve is a matrix-free GMRES on normal fields, preconditioned in
Fourier space with the mean-metric Laplacian: J^2 = -1 turns
(I - sL)(I + sL) into I + s^2 Delta^2 there.  One workspace per run holds
every grid-sized buffer, so a step allocates none.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .errors import KrylovBreakdownError
from .geometry import _metric_block, _minor, _Stencils

# J[c, d] = det(t_0, ..., t_{m-1}, e_d, e_c) / sqrt(det g) for the pairs c < d
# (itertools.combinations order): the sign and the index set of the minor of
# (t_0, ..., t_{m-1}) that the entry equals, for n = 3 and n = 4
_TURN = {
    3: ((-1.0, (2,)), (1.0, (1,)), (-1.0, (0,))),
    4: ((-1.0, (2, 3)), (1.0, (1, 3)), (-1.0, (1, 2)), (-1.0, (0, 3)), (1.0, (0, 2)), (-1.0, (0, 1))),
}
KRYLOV_DIM = 3  # Krylov basis vectors per GMRES cycle (the restart length)
KRYLOV_MAX_ITER = 40  # GMRES iterations per solve before the step counts as a breakdown
KRYLOV_RTOL = 1e-12  # residual target, relative to the positions' norm


class _Imex(_Stencils):
    """Workspace of the IMEX step, allocated once per run.

    A freeze runs the metric block and then overwrites its buffers: the
    scaled coefficients ``coef`` (c00, c01, c11; c00 alone for curves) take
    the place of g, the quarter turn's upper entries ``j`` (one per pair
    c < d) that of the tangents, and ``prod`` and ``tmp`` become scratch of
    the frozen operator.  ``gain`` is the preconditioner's 1/d(k) per Fourier
    mode; ``w``, the iterate ``x``, ``z`` and the Krylov ``basis``
    are the solver's, ``spectrum`` the FFT's.
    """

    def __init__(self, grid, kind):
        super().__init__(grid)
        m, sizes = grid.m, grid.sizes
        n = m + 2
        vec = (n,) + sizes
        self.grid, self.kind = grid, kind
        self.coef = self.g.reshape((-1,) + sizes)[: 2 * m - 1]
        self.j = self.t.reshape((-1,) + sizes)[: len(_TURN[n])]
        self.w, self.x, self.z = (np.empty(vec) for _ in range(3))
        self.basis = np.empty((KRYLOV_DIM + 1,) + vec)
        half = sizes[:-1] + (sizes[-1] // 2 + 1,)
        self.spectrum = np.empty(half, dtype=complex)
        self.gain = np.empty(half)
        # symbols of D_i (over i) and D_ii per axis, shaped to broadcast over the spectrum
        self.first, self.second = [], []
        for axis, (size, h) in enumerate(zip(sizes, grid.spacings)):
            freq = np.fft.rfftfreq(size) if axis == m - 1 else np.fft.fftfreq(size)
            kh = (2.0 * np.pi * freq).reshape([-1 if a == axis else 1 for a in range(m)])
            self.first.append(np.sin(kh) / h)
            self.second.append((2.0 * np.cos(kh) - 2.0) / (h * h))
        if m == 2:
            pad = self.pad
            self.corners = (pad[:, 2:, 2:], pad[:, 2:, :-2], pad[:, :-2, 2:], pad[:, :-2, :-2])


def _turn(j, v, out, tmp):
    """out = J v for the antisymmetric matrix field J with upper entries j."""
    out.fill(0.0)
    for p, (c, d) in enumerate(combinations(range(len(v)), 2)):
        out[c] += np.multiply(j[p], v[d], out=tmp)
        out[d] -= np.multiply(j[p], v[c], out=tmp)
    return out


def _freeze(f: np.ndarray, time: float, s: float, ws: _Imex) -> None:
    """Freeze the operator and the preconditioner of positions f.

    The metric block at f gives c00 = g11/det g, c01 = -2 g01/det g and
    c11 = g00/det g (c00 = 1/g00 for curves) and J from the unit m-vector
    t_0 ^ ... ^ t_{m-1} / sqrt(det g).  The preconditioner's symbol is that
    of the Laplacian with the mean coefficients.
    """
    grid = ws.grid
    m = grid.m
    _metric_block(f, grid, time, ws)
    t, g, det_g, c = ws.t, ws.g, ws.det_g, ws.coef
    sqrt_det_g = np.sqrt(det_g, out=ws.gap)
    # the entries of J go through w and z, since they replace the tangents
    entries = [*ws.w, *ws.z]
    for jp, (sign, comp) in zip(entries, _TURN[m + 2]):
        if m == 1:
            np.multiply(t[0, comp[0]], sign, out=jp)
        else:
            a, b = comp
            _minor(jp, t[0, a], t[1, b], t[0, b], t[1, a], ws.tmp)
            jp *= sign
        jp /= sqrt_det_g
    for jp, entry in zip(ws.j, entries):
        np.copyto(jp, entry)
    # c is g's storage: c11 goes to the free g10 first, then c00 over g00
    if m == 1:
        np.reciprocal(g[0, 0], out=c[0])
    else:
        np.divide(g[0, 0], det_g, out=c[2])
        np.divide(g[1, 1], det_g, out=c[0])
        c[1] *= -2.0
        c[1] /= det_g
    mean = [float(np.mean(ci)) for ci in c]
    lam = ws.gain
    if m == 1:
        np.multiply(ws.second[0], mean[0], out=lam)
    else:
        np.multiply(ws.first[0], -mean[1] * ws.first[1], out=lam)
        lam += mean[0] * ws.second[0]
        lam += mean[2] * ws.second[1]
    # 1/d with d = 1 + s^2 lambda^2 (skew flow) or 1 - s lambda (mean curvature flow)
    if ws.kind == "SMCF":
        lam *= s
        lam *= lam
    else:
        lam *= -s
    lam += 1.0
    np.reciprocal(lam, out=lam)


def _frozen(x: np.ndarray, out: np.ndarray, ws: _Imex) -> np.ndarray:
    """out = L x = M (c00 D00 x + c01 D01 x + c11 D11 x) with M = J or -J^2."""
    grid = ws.grid
    h = grid.spacings
    np.copyto(ws.center, x)
    for ghost, source in ws.ghosts:
        np.copyto(ghost, source)
    w, d, c = ws.w, ws.prod, ws.coef
    for i in range(grid.m):
        np.multiply(ws.center, -2.0, out=d)
        d += ws.plus[i]
        d += ws.minus[i]
        d /= h[i] * h[i]
        if i == 0:
            np.multiply(d, c[0], out=w)
        else:
            d *= c[2]
            w += d
    if grid.m == 2:
        pp, pm, mp, mm = ws.corners
        np.subtract(pp, pm, out=d)
        d -= mp
        d += mm
        d /= 4.0 * h[0] * h[1]
        d *= c[1]
        w += d
    if ws.kind == "SMCF":
        return _turn(ws.j, w, out, ws.tmp)
    _turn(ws.j, w, d, ws.tmp)
    _turn(ws.j, d, out, ws.tmp)
    return np.negative(out, out=out)


def _precondition(v: np.ndarray, out: np.ndarray, ws: _Imex) -> np.ndarray:
    """out = Q v = P_N F^-1 [F(v) / d(k)]: v divided by the symbol d mode by
    mode, then projected on the normal planes with P_N = -J^2."""
    m, spectrum, filtered = ws.grid.m, ws.spectrum, ws.w
    for comp, into in zip(v, filtered):
        np.fft.rfft(comp, out=spectrum)
        for axis in range(m - 1):
            np.fft.fft(spectrum, axis=axis, out=spectrum)
        spectrum *= ws.gain
        for axis in range(m - 1):
            np.fft.ifft(spectrum, axis=axis, out=spectrum)
        np.fft.irfft(spectrum, n=ws.grid.sizes[-1], out=into)
    _turn(ws.j, _turn(ws.j, filtered, ws.prod, ws.tmp), out, ws.tmp)
    return np.negative(out, out=out)


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


def _norm(v: np.ndarray) -> float:
    flat = v.reshape(-1)
    return math.sqrt(np.dot(flat, flat))


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
    _turn(ws.j, _turn(ws.j, z, ws.w, ws.tmp), ws.prod, ws.tmp)
    np.subtract(f, ws.prod, out=x)
    tol = KRYLOV_RTOL * _norm(f)
    iterations = 0
    while True:
        # r = (I + sL) f - (I - sL) x = f - x + sL(f + x)
        r = _frozen(np.add(f, x, out=z), V[0], ws)
        r *= s
        r += f
        r -= x
        beta = _norm(r)
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
            norm_next = _norm(nxt)
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


def _imex_step(f: np.ndarray, t: float, dt: float, ws: _Imex) -> None:
    """One linearly implicit Crank-Nicolson step of f, in place.

    Solves (I - s L) Y = (I + s L) f with s = dt/2 twice: with L frozen at f
    (predictor f*, from the guess f), then with L frozen at (f + f*)/2 (from
    the guess f*).
    """
    s = 0.5 * dt
    _freeze(f, t, s, ws)
    np.copyto(ws.x, f)
    _solve(f, s, t, ws)
    mid = np.add(f, ws.x, out=ws.basis[0])
    mid *= 0.5
    _freeze(mid, t + s, s, ws)
    _solve(f, s, t + s, ws)
    np.copyto(f, ws.x)
