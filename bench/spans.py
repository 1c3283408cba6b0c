"""Span tracing installed from outside conemix, and the per-layer metrics.

:func:`install` rebinds every public conemix function at each module
attribute that refers to it (``classify`` and ``cones`` import ``linalg``
names directly, so rebinding ``linalg`` alone would miss their calls),
wraps the cone classes' constructors and membership queries, and wraps the
``numpy.linalg`` entry points and ``numpy.kron`` that conemix calls.  A span
is ``[name, start, end, parent, op, size]``; spans are recorded only while
an op is active, kept in memory, and reduced to metrics when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("linalg", "cones", "maps", "classify", "dynamics", "cli")
CONE_CLASSES = ("Orthant", "Psd", "Polyhedral", "TensorCone")
QUERIES = ("contains", "interior_contains", "dual_contains",
           "interior_dual_contains")

NAME, START, END, PARENT, OP, SIZE = range(6)


def _n3(args, kwargs, result):
    """m * n * min(m, n) of the matrix argument (n^3 when square)."""
    shape = np.shape(args[0])[-2:]
    return shape[0] * shape[1] * min(shape) if len(shape) == 2 else 0


def _rows(args, kwargs, result):
    return len(args[0])


def _nbytes(args, kwargs, result):
    return int(result.nbytes)


def _steps(args, kwargs, result):
    return len(result.iterates) - 1


def _flags(args, kwargs, result):
    flags = result.hypothesis_flags
    return (sum(f.startswith("route-disagreement") for f in flags),
            sum(f.startswith("tolerance-marginal") for f in flags))


def _rays(args, kwargs, result):
    return len(args[0].exact_dual_generators())


#: what each span's ``size`` field records, by span name
SIZES = {
    "linalg.exact_rank": _rows,
    "numpy.eigvals": _n3,
    "numpy.svd": _n3,
    "numpy.kron": _nbytes,
    "dynamics.power_trajectory": _steps,
    "dynamics.cesaro_trajectory": _steps,
    "dynamics.decoupling_trace": _steps,
    "classify.classify": _flags,
    "cones.Polyhedral": _rays,
}


class Tracer:
    """In-memory span recorder; ``op`` is the id of the running op or None."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self._patches = []

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        size = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if size is not None:
                span[SIZE] = size(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        modules = [importlib.import_module("conemix")] + [
            importlib.import_module(f"conemix.{layer}") for layer in LAYERS]
        wrapped = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value) \
                        or not value.__module__.startswith("conemix."):
                    continue
                if value not in wrapped:
                    layer = value.__module__.rsplit(".", 1)[1]
                    wrapped[value] = self.wrap(value,
                                               f"{layer}.{value.__name__}")
                self._patch(mod, attr, wrapped[value])
        cones = importlib.import_module("conemix.cones")
        for cls_name in CONE_CLASSES:
            cls = getattr(cones, cls_name)
            for query in QUERIES:
                if query in vars(cls):
                    self._patch(cls, query, self.wrap(
                        vars(cls)[query], f"cones.{cls_name}.{query}"))
        for cls_name in ("Polyhedral", "TensorCone"):
            cls = getattr(cones, cls_name)
            self._patch(cls, "__init__",
                        self.wrap(cls.__init__, f"cones.{cls_name}"))
        for fn in ("eigvals", "eig", "svd"):
            self._patch(np.linalg, fn,
                        self.wrap(getattr(np.linalg, fn), f"numpy.{fn}"))
        self._patch(np, "kron", self.wrap(np.kron, "numpy.kron"))
        norm = np.linalg.norm
        norm2 = self.wrap(norm, "numpy.norm2")

        @functools.wraps(norm)
        def norm_wrapper(x, ord=None, *args, **kwargs):
            target = norm2 if ord == 2 else norm
            return target(x, ord, *args, **kwargs)

        self._patch(np.linalg, "norm", norm_wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span[START]
        for kid in sorted(kids, key=lambda s: s[START]):
            lo = max(kid[START], reach)
            hi = min(kid[END], span[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span[END] - span[START] - covered)
    return out


def _outermost(spans, member):
    """Indices of spans in a group that have no ancestor in the group."""
    out = []
    for i, span in enumerate(spans):
        if not member(span[NAME]):
            continue
        parent = span[PARENT]
        while parent >= 0 and not member(spans[parent][NAME]):
            parent = spans[parent][PARENT]
        if parent < 0:
            out.append(i)
    return out


def _is_query(name):
    return name.startswith("cones.") and name.rsplit(".", 1)[1] in QUERIES


GROUPS = {
    "cones.query": _is_query,
    "maps.construct": lambda n: n in ("maps.from_stochastic",
                                      "maps.from_matrix", "maps.from_kraus"),
    "dynamics.trajectory": lambda n: n in ("dynamics.power_trajectory",
                                           "dynamics.cesaro_trajectory",
                                           "dynamics.decoupling_trace"),
}

#: (metric, statistic) per span name or group; ``calls`` counts outermost
#: spans, ``s`` sums their inclusive seconds, ``self_s`` sums self time
SPAN_METRICS = [
    ("linalg.exact_rank", ("calls", "self_s")),
    ("linalg.exact_matmul", ("calls", "self_s")),
    ("linalg.exact_power", ("calls", "self_s")),
    ("linalg.exact_kron", ("calls", "self_s")),
    ("linalg.multiplicities", ("calls", "s")),
    ("linalg.exact_kernel_basis", ("calls", "self_s")),
    ("linalg.spectral_radius", ("calls", "s")),
    ("numpy.eigvals", ("calls", "s")),
    ("numpy.eig", ("calls", "s")),
    ("numpy.svd", ("calls", "s")),
    ("numpy.norm2", ("calls", "s")),
    ("cones.Polyhedral", ("calls", "s")),
    ("cones.TensorCone", ("calls", "s")),
    ("cones.query", ("calls", "s")),
    ("maps.construct", ("s",)),
    ("maps.is_positive", ("calls", "s")),
    ("maps.is_dup", ("calls",)),
    ("maps.adjoint", ("s",)),
    ("classify.ergodic_routes", ("s",)),
    ("classify.mixing_routes", ("s",)),
    ("classify.irreducible_routes", ("s",)),
    ("classify.primitive_routes", ("s",)),
    ("classify.classify", ("self_s",)),
    ("dynamics.trajectory", ("s",)),
    ("dynamics.u_norm", ("calls", "s")),
    ("cli.load_problem", ("s",)),
    ("cli.report_to_dict", ("s",)),
    ("cli.main", ("self_s",)),
]


def layer_metrics(spans) -> dict:
    """Per-layer metrics from a finished run's spans (values only)."""
    selfs = self_times(spans)
    out = {}
    for key, stats in SPAN_METRICS:
        member = GROUPS.get(key, key.__eq__)
        top = _outermost(spans, member)
        everyone = [i for i, s in enumerate(spans) if member(s[NAME])]
        for stat in stats:
            if stat == "calls":
                value = len(top)
            elif stat == "s":
                value = sum(spans[i][END] - spans[i][START] for i in top)
            else:
                value = sum(selfs[i] for i in everyone)
            out[f"{key}.{stat}"] = value

    def sizes(name):
        return [s[SIZE] for s in spans
                if s[NAME] == name and s[SIZE] is not None]

    out["linalg.exact_rank.max_rows"] = max(sizes("linalg.exact_rank"),
                                            default=0)
    out["numpy.eigvals.n3"] = sum(sizes("numpy.eigvals"))
    out["numpy.svd.n3"] = sum(sizes("numpy.svd"))
    out["numpy.kron.bytes"] = sum(sizes("numpy.kron"))
    out["linalg.multiplicities.report_s"] = sum(
        s[END] - s[START] for s in spans
        if s[NAME] == "linalg.multiplicities" and s[PARENT] >= 0
        and spans[s[PARENT]][NAME] == "classify.classify")
    flags = sizes("classify.classify")
    out["classify.flags.route_disagreement"] = sum(f[0] for f in flags)
    out["classify.flags.tolerance_marginal"] = sum(f[1] for f in flags)
    out["dynamics.trajectory.steps"] = sum(
        s[SIZE] for s in spans
        if GROUPS["dynamics.trajectory"](s[NAME]) and s[SIZE] is not None)
    rays = sum(sizes("cones.Polyhedral"))
    kernels = sum(1 for i in range(len(spans))
                  if spans[i][NAME] == "linalg.exact_kernel_basis"
                  and _under_cone_constructor(spans, i))
    out["cones.dual_rays"] = rays
    out["cones.kernels_per_ray"] = kernels / rays if rays else 0.0
    return out


def _under_cone_constructor(spans, i):
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in ("cones.Polyhedral", "cones.TensorCone"):
            return True
        parent = spans[parent][PARENT]
    return False


_STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s"}

#: every per-layer metric with its unit; the last seven are computed by
#: the worker rather than from spans
PER_LAYER = {f"{key}.{stat}": _STAT_UNITS[stat]
             for key, stats in SPAN_METRICS for stat in stats}
PER_LAYER.update({
    "linalg.exact_rank.max_rows": "rows",
    "numpy.eigvals.n3": "n3",
    "numpy.svd.n3": "n3",
    "numpy.kron.bytes": "bytes",
    "linalg.multiplicities.report_s": "s",
    "classify.flags.route_disagreement": "count",
    "classify.flags.tolerance_marginal": "count",
    "dynamics.trajectory.steps": "count",
    "cones.dual_rays": "count",
    "cones.kernels_per_ray": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.ops": "count",
    "cli.import_s": "s",
    "cones.build_p50_s": "s",
    "cli.simulate_steps_per_s": "1/s",
})
