"""Command-line interface: classify / simulate / graph.

Problem files are JSON documents with a ``cone`` and a ``map``:

* cones: ``{"type": "orthant", "dim": d}``, ``{"type": "psd", "hdim": h}``,
  ``{"type": "polyhedral", "generators": [[...], ...]}``,
  ``{"type": "tensor", "left": {...}, "right": {...}}``;
* maps: ``{"type": "matrix", "data": [[...]]}``,
  ``{"type": "stochastic", "data": [[...]]}`` (cone defaults to the
  orthant), ``{"type": "kraus", "ops": [{"re": [[...]], "im": [[...]]},
  ...]}`` (cone defaults to the PSD cone);
* optional ``"unit"`` (raw matrices only), ``"mode"``
  (``"rational"``/``"float"``), and ``"tolerances"``
  (``eps_rank``/``eps_cluster``/``eps_interior``).

Every numeric array (map data, Kraus ``re``/``im``, generators, unit) is
read by one parser.  Rationals are written as strings like ``"1/2"``; the
mode defaults to rational exactly when no float literal appears in the map
or the unit, and a number a float cannot hold is refused.  The environment
variable ``CONEMIX_TOL`` overrides all three tolerances at once.

Exit codes: 0 success; 2 schema or input errors, and simulations of a map
with zero spectral radius; 3 classification of a map that is not
cone-positive (the report is still emitted); 4 a simulation whose
unit-normalization vanished.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import fields
from fractions import Fraction

import numpy as np

from . import __version__
from .cones import (
    Cone,
    DimensionMismatchError,
    InvalidUnitError,
    Orthant,
    Polyhedral,
    Psd,
    TensorCone,
    UnsupportedConeOperation,
)
from .classify import (
    _cycle_gcd,
    classify,
    digraph_of,
    strongly_connected,
)
from .dynamics import (
    BipartiteLayout,
    NormalizationVanishedError,
    cesaro_trajectory,
    decoupling_trace,
    power_trajectory,
)
from .linalg import (
    FLOAT,
    RATIONAL,
    ScalarMode,
    ZeroSpectralRadiusError,
    as_exact,
)
from .maps import (
    ColumnSumViolationError,
    DynMap,
    NegativeEntryError,
    from_kraus,
    from_matrix,
    from_stochastic,
)

__all__ = ["main", "load_problem", "problem_to_dict", "report_to_dict",
           "SchemaError"]


class SchemaError(ValueError):
    """The problem file does not match the expected schema."""


# ---------------------------------------------------------------------------
# problem parsing
# ---------------------------------------------------------------------------

def _parse_scalar(value, where, rational):
    """A number as a Fraction in rational mode, else as a float; a number a
    float cannot hold is refused (exact maps keep a float copy too), a
    decimal string by ``as_exact`` before its exponent is expanded."""
    if isinstance(value, bool):
        raise SchemaError(f"{where}: booleans are not numbers")
    if isinstance(value, float):
        if rational:
            raise SchemaError(
                f"{where}: float literal {value!r} in rational mode; write "
                "it as a string like \"1/2\"")
        return value
    if isinstance(value, str):
        try:
            exact = as_exact([value])
        except ValueError as err:  # a decimal a float cannot hold
            raise SchemaError(f"{where}: {err}")
        if exact is None:
            raise SchemaError(f"{where}: bad rational literal {value!r}")
        value = exact[0]
    elif not isinstance(value, int):
        raise SchemaError(
            f"{where}: expected a number, got {type(value).__name__}")
    try:
        approx = float(value)
    except OverflowError:
        raise SchemaError(f"{where}: number too large for a float")
    return Fraction(value) if rational else approx


def _has_float(node) -> bool:
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, float):
            return True
        if isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    return False


def _parse_array(data, where, rational, ndim=2):
    """A nonempty vector (``ndim`` 1) or matrix (``ndim`` 2) of numbers:
    (nested) lists of Fractions in rational mode, else a float array."""
    if not isinstance(data, list) or not data:
        raise SchemaError(f"{where}: expected a nonempty list of "
                          + ("rows" if ndim == 2 else "numbers"))
    parsed = [_parse_array(v, f"{where}[{i}]", rational, 1) if ndim == 2
              else _parse_scalar(v, f"{where}[{i}]", rational)
              for i, v in enumerate(data)]
    return parsed if rational else np.array(parsed, dtype=float)


def _parse_cone(spec, where="cone") -> Cone:
    if not isinstance(spec, dict) or "type" not in spec:
        raise SchemaError(f"{where}: expected an object with a \"type\" key")
    kind = spec["type"]
    if kind in ("orthant", "psd"):
        key, cls = ("dim", Orthant) if kind == "orthant" else ("hdim", Psd)
        if key not in spec:
            raise SchemaError(f"{where}: {kind} requires \"{key}\"")
        size = spec[key]
        if not isinstance(size, int) or isinstance(size, bool):
            raise SchemaError(f"{where}.{key}: expected an integer, got "
                              f"{json.dumps(size)}")
        try:
            return cls(size)
        except ValueError as err:
            raise SchemaError(f"{where}.{key}: {err}")
    if kind == "polyhedral":
        gens = _parse_array(spec.get("generators"), f"{where}.generators",
                            True)
        try:
            return Polyhedral(gens)
        except ValueError as err:
            raise SchemaError(f"{where}: {err}")
    if kind == "tensor":
        if "left" not in spec or "right" not in spec:
            raise SchemaError(f"{where}: tensor requires \"left\" and \"right\"")
        left = _parse_cone(spec["left"], f"{where}.left")
        right = _parse_cone(spec["right"], f"{where}.right")
        try:
            return TensorCone(left, right)
        except ValueError as err:
            raise SchemaError(f"{where}: {err}")
    raise SchemaError(f"{where}: unknown cone type {kind!r}")


def _parse_kraus_op(op, where):
    if not isinstance(op, dict) or "re" not in op:
        raise SchemaError(f"{where}: expected an object with \"re\" (and "
                          "optionally \"im\")")
    re = _parse_array(op["re"], f"{where}.re", False)
    if "im" in op:
        im = _parse_array(op["im"], f"{where}.im", False)
        if im.shape != re.shape:
            raise SchemaError(f"{where}: re/im shapes differ")
    else:
        im = np.zeros_like(re)
    return re + 1j * im


def _tolerance(value, where) -> float:
    try:
        tol = float(value)
    except (TypeError, ValueError):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    if not (math.isfinite(tol) and tol > 0):
        raise SchemaError(f"{where}: must be positive and finite, got "
                          f"{value!r}")
    return tol


def _parse_tolerances(doc):
    eps = {f.name: f.default for f in fields(ScalarMode)
           if f.name.startswith("eps_")}
    env = os.environ.get("CONEMIX_TOL")
    if env:
        eps = dict.fromkeys(eps, _tolerance(env, "CONEMIX_TOL"))
    tols = doc.get("tolerances", {})
    if not isinstance(tols, dict):
        raise SchemaError("tolerances: expected an object")
    for key, value in tols.items():
        if key not in eps:
            raise SchemaError(f"tolerances: unknown key {key!r}")
        eps[key] = _tolerance(value, f"tolerances.{key}")
    return eps


def load_problem(path, forced_mode=None):
    """Parse a problem file into (DynMap, ScalarMode)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise SchemaError(f"cannot read {path}: {err}")
    except json.JSONDecodeError as err:
        raise SchemaError(
            f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: "
            f"{err.msg}")
    except (ValueError, RecursionError) as err:
        # an integer past Python's digit limit, or nesting past its stack
        raise SchemaError(f"{path}: unreadable JSON: {err}")
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")
    if "map" not in doc:
        raise SchemaError(f"{path}: missing \"map\"")

    eps = _parse_tolerances(doc)

    map_spec = doc["map"]
    if not isinstance(map_spec, dict) or "type" not in map_spec:
        raise SchemaError("map: expected an object with a \"type\" key")
    kind = map_spec["type"]

    mode_name = forced_mode or doc.get("mode")
    if mode_name is None:
        rational = kind != "kraus" and not _has_float(map_spec) \
            and not _has_float(doc.get("unit", []))
    elif mode_name in (RATIONAL, FLOAT):
        rational = mode_name == RATIONAL
        if rational and kind == "kraus":
            raise SchemaError("kraus maps have no exact rational form")
    else:
        raise SchemaError(f"mode: expected \"rational\" or \"float\", got "
                          f"{mode_name!r}")
    mode = ScalarMode(RATIONAL if rational else FLOAT, **eps)

    cone = _parse_cone(doc["cone"]) if "cone" in doc else None
    unit = doc.get("unit")

    try:
        if kind == "stochastic":
            if "data" not in map_spec:
                raise SchemaError("map: stochastic requires \"data\"")
            if unit is not None:
                raise SchemaError("map: stochastic maps fix the all-ones "
                                  "unit; remove \"unit\"")
            dyn = from_stochastic(_parse_array(map_spec["data"], "map.data",
                                               rational))
            if cone is not None and cone != dyn.cone:
                raise SchemaError("cone: stochastic maps live on the orthant "
                                  "of matching dimension")
        elif kind == "kraus":
            if "ops" not in map_spec or not isinstance(map_spec["ops"], list) \
                    or not map_spec["ops"]:
                raise SchemaError("map: kraus requires a nonempty \"ops\" list")
            ops = [_parse_kraus_op(op, f"map.ops[{i}]")
                   for i, op in enumerate(map_spec["ops"])]
            if unit is not None:
                raise SchemaError("map: kraus maps fix the identity unit; "
                                  "remove \"unit\"")
            dyn = from_kraus(ops)
            if cone is not None and cone != dyn.cone:
                raise SchemaError("cone: kraus maps live on the PSD cone of "
                                  "matching dimension")
        elif kind == "matrix":
            if "data" not in map_spec:
                raise SchemaError("map: matrix requires \"data\"")
            if cone is None:
                raise SchemaError("cone: required for raw matrix maps")
            data = _parse_array(map_spec["data"], "map.data", rational)
            if unit is not None:
                unit = _parse_array(unit, "unit", rational, ndim=1)
            dyn = from_matrix(data, cone, unit, mode)
        else:
            raise SchemaError(f"map: unknown type {kind!r}")
    except (NegativeEntryError, ColumnSumViolationError,
            DimensionMismatchError, InvalidUnitError,
            UnsupportedConeOperation) as err:
        raise SchemaError(f"{type(err).__name__}: {err}")
    except ValueError as err:
        raise SchemaError(str(err))
    return dyn, mode


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _scalar_to_json(v):
    if isinstance(v, Fraction):
        return int(v) if v == int(v) else str(v)
    return float(v)


def _cone_to_dict(cone: Cone):
    if isinstance(cone, Orthant):
        return {"type": "orthant", "dim": cone.dim}
    if isinstance(cone, Psd):
        return {"type": "psd", "hdim": cone.h}
    if isinstance(cone, Polyhedral):
        return {"type": "polyhedral",
                "generators": [[_scalar_to_json(v) for v in g]
                               for g in cone.exact_extremal_generators()]}
    if isinstance(cone, TensorCone):
        return {"type": "tensor", "left": _cone_to_dict(cone.left),
                "right": _cone_to_dict(cone.right)}
    raise SchemaError(f"cannot serialize {cone!r}")


def problem_to_dict(dyn: DynMap, mode: ScalarMode):
    """Inverse of :func:`load_problem`, up to generator minimization."""
    doc = {"cone": _cone_to_dict(dyn.cone)}
    if dyn.provenance == "stochastic":
        rows = dyn.exact if dyn.exact is not None else dyn.matrix
        doc["map"] = {"type": "stochastic",
                      "data": [[_scalar_to_json(v) for v in row]
                               for row in rows]}
        del doc["cone"]
    elif dyn.provenance == "kraus":
        doc["map"] = {"type": "kraus",
                      "ops": [{"re": k.real.tolist(), "im": k.imag.tolist()}
                              for k in dyn.kraus_ops]}
        del doc["cone"]
    else:
        rows = dyn.exact if dyn.exact is not None else dyn.matrix
        doc["map"] = {"type": "matrix",
                      "data": [[_scalar_to_json(v) for v in row]
                               for row in rows]}
    doc["mode"] = mode.kind
    return doc


def _vec_or_null(v):
    return None if v is None else [float(x) for x in v]


def _pair_or_null(p):
    return None if p is None else {"geometric": p.geometric,
                                   "algebraic": p.algebraic}


def report_to_dict(report, mode: ScalarMode, timings=None):
    return {
        "tool": {"name": "conemix", "version": __version__},
        "mode": mode.kind,
        "r": report.r,
        "ergodic": report.ergodic,
        "mixing": report.mixing,
        "irreducible": report.irreducible,
        "primitive": report.primitive,
        "dup": report.dup,
        "positivity": {"value": report.positivity.value,
                       "certificate": report.positivity.certificate},
        "multiplicity_r": _pair_or_null(report.multiplicity_r),
        "multiplicity_r2_kron": _pair_or_null(report.multiplicity_r2_kron),
        "stationary": _vec_or_null(report.stationary),
        "dual_stationary": _vec_or_null(report.dual_stationary),
        "pairing": report.pairing,
        "gap_ratio": report.gap_ratio,
        "criteria_fired": list(report.criteria_fired),
        "hypothesis_flags": list(report.hypothesis_flags),
        "timings": timings or {},
    }


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_classify(args) -> int:
    dyn, mode = load_problem(args.input, args.mode)
    start = time.perf_counter()
    report = classify(dyn, mode)
    elapsed = time.perf_counter() - start
    doc = report_to_dict(report, mode,
                         timings={"classify_seconds": elapsed})
    text = json.dumps(doc, indent=2) + "\n"
    if args.json:
        with open(args.json, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 3 if report.positivity.value == "no" else 0


def _uniform_state(cone: Cone) -> np.ndarray:
    if isinstance(cone, Psd):
        return cone.default_unit() / cone.h
    if isinstance(cone, TensorCone):
        return np.kron(_uniform_state(cone.left), _uniform_state(cone.right))
    x = np.sum(cone.extremal_generators(), axis=0)
    return x / float(cone.default_unit() @ x)


def _parse_init(arg, cone: Cone):
    if arg == "uniform":
        return _uniform_state(cone)
    vec = np.array([_parse_scalar(part, f"--init[{i}]", False)
                    for i, part in enumerate(arg.split(","))], dtype=float)
    if len(vec) != cone.dim:
        raise SchemaError(f"--init: expected {cone.dim} components, got "
                          f"{len(vec)}")
    return vec


def _cmd_simulate(args) -> int:
    dyn, mode = load_problem(args.input, None)
    x = _parse_init(args.init, dyn.cone)
    try:
        if not dyn.cone.contains(x, mode):
            raise SchemaError("--init: vector is not in the cone")
    except UnsupportedConeOperation:
        pass

    if args.mode == "cesaro":
        record = cesaro_trajectory(dyn, x, args.steps)
    elif args.mode == "power":
        record = power_trajectory(dyn, x, args.steps)
    else:
        if not isinstance(dyn.cone, TensorCone):
            raise SchemaError("--mode decouple requires a tensor cone")
        layout = BipartiteLayout.of(dyn.cone)
        record = decoupling_trace(dyn, x, layout, args.steps,
                                  tol=args.decouple_tol)

    if record.mode == "decoupling":
        header = "step,distance"
        lines = [f"{i},{_fmt(v)}" for i, v in enumerate(record.iterates)]
    else:
        header = "step," + ",".join(f"x{i}" for i in range(dyn.dim))
        lines = [f"{i}," + ",".join(_fmt(v) for v in vec)
                 for i, vec in enumerate(record.iterates)]
    csv_text = header + "\n" + "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)

    verdict = record.verdict
    parts = [f"verdict={verdict.status.capitalize()}"]
    if verdict.at_step is not None:
        parts.append(f"step={verdict.at_step}")
    if verdict.limit is not None:
        if np.isscalar(verdict.limit):
            parts.append(f"limit={_fmt(verdict.limit)}")
        else:
            parts.append("limit=" + ",".join(_fmt(v) for v in verdict.limit))
    if verdict.growth is not None:
        parts.append(f"growth={_fmt(verdict.growth)}")
    sys.stdout.write(" ".join(parts) + "\n")
    return 0


def _cmd_graph(args) -> int:
    dyn, mode = load_problem(args.input, None)
    if not isinstance(dyn.cone, Orthant):
        raise SchemaError("graph requires a classical (orthant-cone) map")
    g = digraph_of(dyn, mode)
    sc = strongly_connected(g)
    # the period of a strongly connected digraph; undefined without cycles
    per = str(_cycle_gcd(g) or "undefined") if sc else "undefined"
    lines = ["digraph map {"]
    lines.append(f"  // strongly_connected: {'true' if sc else 'false'}"
                 + ("" if sc else " (not strongly connected)"))
    lines.append(f"  // period: {per}")
    for u in range(g.n):
        for v in g.succ[u]:
            lines.append(f"  {u} -> {v};")
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if args.dot:
        with open(args.dot, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="conemix",
        description="Classify cone-preserving linear maps and simulate "
                    "their asymptotics.")
    parser.add_argument("--version", action="version",
                        version=f"conemix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a map")
    p_classify.add_argument("input", help="problem file (JSON)")
    p_classify.add_argument("--json", metavar="OUT",
                            help="write the report to a file instead of "
                                 "standard output")
    p_classify.add_argument("--mode", choices=[RATIONAL, FLOAT],
                            help="force the arithmetic mode")
    p_classify.set_defaults(func=_cmd_classify)

    p_simulate = sub.add_parser("simulate", help="simulate a trajectory")
    p_simulate.add_argument("input", help="problem file (JSON)")
    p_simulate.add_argument("--init", required=True,
                            help="initial vector (comma-separated) or "
                                 "\"uniform\"")
    p_simulate.add_argument("--steps", type=int, default=1000)
    p_simulate.add_argument("--mode", choices=["cesaro", "power", "decouple"],
                            default="power")
    p_simulate.add_argument("--csv", metavar="OUT",
                            help="write the trajectory CSV to a file")
    p_simulate.add_argument("--decouple-tol", type=float, default=1e-10,
                            help="decoupling convergence tolerance")
    p_simulate.set_defaults(func=_cmd_simulate)

    p_graph = sub.add_parser("graph", help="emit the transition digraph")
    p_graph.add_argument("input", help="problem file (JSON)")
    p_graph.add_argument("--dot", metavar="OUT",
                         help="write the DOT digraph to a file")
    p_graph.set_defaults(func=_cmd_graph)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, ZeroSpectralRadiusError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NormalizationVanishedError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
