"""Per-layer tracing for the benchmark, done entirely from outside ratdyn.

`Tracer` replaces each public layer function with a timing wrapper in every
``ratdyn`` module that bound the name (``from .polys import factor_int_poly``
gives ``ratdyn.spectra`` its own binding, which is wrapped too), and puts
the originals back on exit.  Private helpers are never wrapped: their cost
shows as self time of their public caller.

Spans nest per thread.  ``<span>.s`` is inclusive time (a recursive call
inside a span of the same name is not counted twice), ``<span>.self_s``
excludes the wrapped callees and ``<span>.calls`` counts calls.  Counters
are taken from arguments and return values at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

import numpy as np
from ratdyn.polys import pdeg

# layer -> public functions wrapped under "<layer>.<name>"
LAYERS = {
    "periodic": (
        "compose_hom",
        "dynatomic_numerator",
        "periodic_points",
        "group_cycles",
        "infinity_exact_period",
    ),
    "roots": ("aberth_ratio", "batched_roots", "solve_poly", "newton_polish"),
    "spectra": (
        "multiplier_factors",
        "multiplier_element",
        "minimal_polynomial",
        "membership",
    ),
    "polys": ("factor_int_poly", "isquarefree", "idivexact", "pexactdiv"),
    "exceptional": ("classify", "orbifold_signature"),
    "ergodic": (
        "backward_orbit_sample",
        "lyapunov",
        "periodic_cloud",
        "weak_convergence_report",
    ),
    "sphere": ("postcritical_truncation", "RationalMap.spherical_norm_xy"),
    "homoclinic": ("find_seed", "exponent_sequence", "convergence_report"),
    "cli": ("run",),
}

# every per-layer metric the traced run reports, with its unit
PER_LAYER = (
    ("periodic.compose_hom.s", "s"),
    ("periodic.compose_hom.calls", "count"),
    ("periodic.dynatomic_numerator.self_s", "s"),
    ("periodic.periodic_points.s", "s"),
    ("periodic.periodic_points.self_s", "s"),
    ("periodic.periodic_points.points", "count"),
    ("periodic.group_cycles.s", "s"),
    ("roots.aberth_ratio.s", "s"),
    ("roots.aberth_ratio.calls", "count"),
    ("roots.aberth_ratio.ratio_evals", "count"),
    ("roots.aberth_ratio.ratio_points", "count"),
    ("roots.aberth_ratio.starts", "count"),
    ("roots.aberth_ratio.converged_frac", "fraction"),
    ("roots.batched_roots.s", "s"),
    ("roots.batched_roots.rows", "count"),
    ("roots.solve_poly.s", "s"),
    ("roots.solve_poly.calls", "count"),
    ("roots.newton_polish.s", "s"),
    ("spectra.multiplier_factors.s", "s"),
    ("spectra.multiplier_factors.calls", "count"),
    ("spectra.multiplier_factors.self_s", "s"),
    ("spectra.multiplier_element.s", "s"),
    ("spectra.minimal_polynomial.s", "s"),
    ("spectra.membership.s", "s"),
    ("spectra.points_total", "count"),
    ("spectra.generic_route_points", "count"),
    ("spectra.fast_path_share", "fraction"),
    ("polys.factor_int_poly.s", "s"),
    ("polys.factor_int_poly.calls", "count"),
    ("polys.factor_int_poly.in_degree", "count"),
    ("polys.isquarefree.s", "s"),
    ("polys.idivexact.s", "s"),
    ("polys.pexactdiv.s", "s"),
    ("exceptional.classify.s", "s"),
    ("exceptional.orbifold_signature.s", "s"),
    ("ergodic.backward_orbit_sample.s", "s"),
    ("ergodic.backward_orbit_sample.points", "count"),
    ("ergodic.lyapunov.s", "s"),
    ("ergodic.periodic_cloud.s", "s"),
    ("ergodic.weak_convergence_report.s", "s"),
    ("sphere.postcritical_truncation.s", "s"),
    ("sphere.spherical_norm_xy.s", "s"),
    ("homoclinic.find_seed.s", "s"),
    ("homoclinic.exponent_sequence.s", "s"),
    ("homoclinic.exponent_sequence.entries", "count"),
    ("homoclinic.convergence_report.s", "s"),
    ("cli.run.s", "s"),
    ("cli.run.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.report_bytes", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "fraction"),
)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    """Context manager: wraps the layer functions while active and
    accumulates span times and counters in `stats`."""

    def __init__(self):
        self.stats: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- accumulation ---------------------------------------------------

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.stats[key] += value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            state = before(tracer, args, kwargs) if before else None
            if state is not None and "args" in state:
                args, kwargs = state["args"], state["kwargs"]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                outermost = all(f[0] != name for f in stack)
                with tracer._lock:
                    tracer.stats[name + ".calls"] += 1
                    tracer.stats[name + ".self_s"] += dt - frame[1]
                    if outermost:
                        tracer.stats[name + ".s"] += dt
            if after:
                after(tracer, parent[0] if parent else None, args, kwargs, result, state)
            return result

        return traced

    # -- patching -------------------------------------------------------

    def __enter__(self):
        homes = {layer: importlib.import_module("ratdyn." + layer) for layer in LAYERS}
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "ratdyn" or k.startswith("ratdyn."))
        ]
        for layer, names in LAYERS.items():
            home = homes[layer]
            for attr in names:
                if "." in attr:  # a method: patch the class attribute
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    self._patch(cls, meth, self._wrap(f"{layer}.{meth}", orig))
                    continue
                orig = getattr(home, attr)
                wrapped = self._wrap(f"{layer}.{attr}", orig)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, key, wrapped)
        return self

    def _patch(self, owner, key, new) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, new)

    def __exit__(self, *exc):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()
        return False

    # -- report ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric except the trace.* overhead pair."""
        st = self.stats
        out = {}
        for name, _unit in PER_LAYER:
            if not name.startswith("trace."):
                out[name] = float(st.get(name, 0.0))
        total = st.get("spectra.points_total", 0.0)
        fast = total - st.get("spectra.generic_route_points", 0.0) - st.get(
            "spectra.infinity_points", 0.0
        )
        out["spectra.fast_path_share"] = fast / total if total else 0.0
        starts = st.get("roots.aberth_ratio.starts", 0.0)
        out["roots.aberth_ratio.converged_frac"] = (
            st.get("roots.aberth_ratio.converged", 0.0) / starts if starts else 0.0
        )
        out["cli.self_s"] = float(st.get("cli.run.self_s", 0.0))
        return out


# -- counters taken at the span boundaries ----------------------------------


def _aberth_before(tr, args, kwargs):
    ratio_fn = _arg(args, kwargs, 0, "ratio_fn")

    def counted(z):
        tr.add("roots.aberth_ratio.ratio_evals", 1)
        tr.add("roots.aberth_ratio.ratio_points", np.size(z))
        return ratio_fn(z)

    if "ratio_fn" in kwargs:
        kwargs = dict(kwargs, ratio_fn=counted)
    else:
        args = (counted,) + tuple(args[1:])
    return {"args": args, "kwargs": kwargs}


def _aberth_after(tr, parent, args, kwargs, result, state):
    converged = np.asarray(result[1])
    tr.add("roots.aberth_ratio.starts", converged.size)
    tr.add("roots.aberth_ratio.converged", int(converged.sum()))


def _factor_after(tr, parent, args, kwargs, result, state):
    deg = pdeg(_arg(args, kwargs, 0, "p"))
    tr.add("polys.factor_int_poly.in_degree", deg)
    if parent == "spectra.multiplier_factors":
        tr.add("spectra.generic_route_points", deg)


def _infinity_after(tr, parent, args, kwargs, result, state):
    # multiplier_factors appends the Infinity cycle exactly, outside both routes
    if parent == "spectra.multiplier_factors" and result[0] == _arg(args, kwargs, 1, "n_cap"):
        tr.add("spectra.infinity_points", 1)


def _cli_before(tr, args, kwargs):
    out = kwargs.get("out")
    return {"out": out, "start": len(out.getvalue()) if hasattr(out, "getvalue") else 0}


def _cli_after(tr, parent, args, kwargs, result, state):
    out = state["out"]
    if hasattr(out, "getvalue"):
        tr.add("cli.report_bytes", len(out.getvalue().encode()) - state["start"])


_BEFORE = {
    "roots.aberth_ratio": _aberth_before,
    "cli.run": _cli_before,
}

_AFTER = {
    "periodic.periodic_points": lambda tr, parent, a, kw, r, s: tr.add(
        "periodic.periodic_points.points", len(r[0])
    ),
    "periodic.infinity_exact_period": _infinity_after,
    "roots.aberth_ratio": _aberth_after,
    "roots.batched_roots": lambda tr, parent, a, kw, r, s: tr.add(
        "roots.batched_roots.rows", np.shape(_arg(a, kw, 0, "coeffs"))[0]
    ),
    "spectra.multiplier_factors": lambda tr, parent, a, kw, r, s: tr.add(
        "spectra.points_total", r.point_count
    ),
    "polys.factor_int_poly": _factor_after,
    "ergodic.backward_orbit_sample": lambda tr, parent, a, kw, r, s: tr.add(
        "ergodic.backward_orbit_sample.points", r.count
    ),
    "homoclinic.exponent_sequence": lambda tr, parent, a, kw, r, s: tr.add(
        "homoclinic.exponent_sequence.entries", len(r.entries)
    ),
    "cli.run": _cli_after,
}
