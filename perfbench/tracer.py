"""Outside-in per-function tracer for the skewflow package.

The tracer wraps each public function named in ``LAYERS`` and patches every
``skewflow`` module namespace that holds the original object, so calls made
through ``from .geometry import tangent_data`` are seen as well as calls made
inside the defining module.  Each call is a span; a function's self time is
the sum of its spans minus the parts covered by traced child spans.  Spans
are aggregated per function as they close, so memory stays flat over the
10^4-10^5 calls of a flow run.  ``remove`` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "skewflow"

# module -> public functions traced in it (the writers live in ``verify``)
LAYERS = {
    "exterior": ("wedge_vectors", "wedge", "inner"),
    "grassmann": ("random_adapted_frame", "psi", "tangent_basis", "project_to_tangent"),
    "geometry": (
        "diff1", "diff2", "tangent_data", "rotate_normal_field",
        "normal_completion", "fundamental_forms", "rho_field", "project_field",
        "tangent_basis_field", "load_immersion_csv", "make_perturbed_torus",
    ),
    "flow": ("run", "step", "fitted_torus_radii"),
    "verify": (
        "convergence_study", "residual_theorem1", "residual_codazzi", "tension",
        "laplace_beltrami", "dt_rho_numeric", "dt_rho_analytic", "theorem2_suite",
        "isometry_max_error", "connection_residual",
        "save_json", "save_residual_csv", "save_table_csv",
    ),
    "cli": ("load_config", "build_immersion", "task_simulate", "task_verify", "task_converge"),
}


class Tracer:
    """Call counts, self time and inclusive time per traced function."""

    def __init__(self):
        # name -> [calls, self_s, inclusive_s, grid nodes stepped (flow.step only)]
        self.stats = {f"{mod}.{fn}": [0, 0.0, 0.0, 0] for mod, fns in LAYERS.items() for fn in fns}
        self._stack = []
        self._patched = []

    def install(self):
        for mod_name in LAYERS:
            importlib.import_module(f"{PACKAGE}.{mod_name}")
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod_name}.{fn}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._patched.append((ns, attr, original))

    def remove(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        record = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        counts_nodes = name == "flow.step"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_nodes:  # step(state, ...): the nodes of the state's grid
                record[3] += args[0].immersion.F[..., 0].size
            covered = [0.0]  # time spent in traced children of this span
            stack.append(covered)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                record[0] += 1
                record[1] += span - covered[0]
                record[2] += span
                if stack:
                    stack[-1][0] += span

        return traced
