"""A fixed piece of reference work that measures how fast the host runs.

On a shared host the same code runs up to 1.8 times slower in busy spells
that last from seconds to many minutes, with CPU time slowing as much as
wall time.  The benchmark therefore runs ``reference_work`` in its own
process after every child it times, and reports the times of a run at the
speed the host had when ``REFERENCE_S`` was measured: each raw time is
multiplied by ``run_scale``, the reference time over the median time the
reference work took during the run.

The work has two parts, timed apart: ``grid``, numpy stencils on a
176 x 176 grid of 3-vectors, and ``calls``, 1000 small numpy calls on 3 x 3
arrays.  Each workload names the parts whose kind of cost matches its own
(``workloads.REFERENCE_PARTS``): the torus workloads are scaled by ``grid``
alone, curve-flow and frame-algebra, which also make many small calls, by
both.  The work is part of the benchmark, not of skewflow, so a change to
the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median seconds of each part of ``reference_work()`` on the host that fixed
# the benchmark's scale (2-vCPU Xeon at 2.1 GHz, KVM guest)
REFERENCE_S = {"grid": 0.045, "calls": 0.047}

_GRID = np.random.default_rng(0).standard_normal((176, 176, 3))
_SMALL = np.random.default_rng(1).standard_normal((1000, 3, 3))


def _field_velocity(F: np.ndarray, h: float) -> np.ndarray:
    up, down = np.roll(F, -1, axis=0), np.roll(F, 1, axis=0)
    left, right = np.roll(F, -1, axis=1), np.roll(F, 1, axis=1)
    du, dv = (up - down) / (2.0 * h), (left - right) / (2.0 * h)
    lap = (up + down + left + right - 4.0 * F) / (h * h)
    normal = np.cross(du, dv)
    normal /= np.sqrt(np.einsum("...i,...i->...", normal, normal))[..., None]
    return np.cross(normal, lap)


def reference_work() -> dict[str, float]:
    """Seconds taken by each part of the fixed reference work."""
    start = time.perf_counter()
    F = _GRID
    for _ in range(5):
        F = F + 1e-6 * _field_velocity(F, 0.035)
    grid_end = time.perf_counter()
    acc = 0.0
    for m in _SMALL:
        acc += float(np.linalg.det(m)) + float(np.linalg.norm(np.cross(m[0], m[1])))
    calls_end = time.perf_counter()
    if not (np.isfinite(acc) and np.isfinite(F).all()):
        raise RuntimeError("reference work gave a non-finite result")
    return {"grid": grid_end - start, "calls": calls_end - grid_end}


def run_scale(samples: list[dict[str, float]], parts: tuple[str, ...]) -> float:
    """Factor that brings the times of a run to the reference speed.

    ``samples`` are the run's ``reference_work()`` results and ``parts`` the
    parts whose kind of cost matches the workload's.
    """
    taken = statistics.median(sum(s[p] for p in parts) for s in samples)
    return sum(REFERENCE_S[p] for p in parts) / taken
