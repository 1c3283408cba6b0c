"""The benchmark's workloads: seeded inputs, what one op runs, and its checks.

Op ``i`` of a workload runs slot ``i % len(cycle)`` of a fixed cycle of
(kind, size) slots, on raw input drawn from ``default_rng([seed, 0, i])``.
The cycle fixes the size mix, so every seed runs the same mix; the seed
only changes the matrices.  Each op builds a fresh map from its raw input
(``classify`` caches results on the map object) and then calls the public
conemix API.  An op's ``check`` compares its outputs with :mod:`oracle`
verdicts or with facts the input was built to have, and returns one
message per discrepancy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracle


@dataclass(frozen=True)
class Slot:
    kind: str
    size: int

    @property
    def label(self):
        return f"{self.kind}:{self.size}"


@dataclass
class Op:
    """One unit of timed work: ``run()`` is timed, ``check(out)`` is not."""

    label: str
    run: Callable[[], dict]
    check: Callable[[dict], list]


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple
    #: (kind, size) slots classified once before timing starts
    warmup: tuple
    subprocess_ops: bool = False
    make: Callable = field(default=None, repr=False)

    def op(self, seed, index, env=None) -> Op:
        rng = np.random.default_rng([seed, 0, index])
        return self.make(rng, self.cycle[index % len(self.cycle)], env)

    def warmup_ops(self, seed, env=None) -> list:
        return [self.make(np.random.default_rng([seed, 1, k]), slot, env)
                for k, slot in enumerate(self.warmup)]


# ---------------------------------------------------------------------------
# stochastic chains
# ---------------------------------------------------------------------------

def _base_cycle(succ, states):
    for a, b in zip(states, states[1:] + states[:1]):
        succ[a].add(b)


def chain_pattern(rng, d, kind) -> list:
    """Successor sets of a random transition digraph of the given kind.

    ``random``: each state has ceil(d / 2) random successors (a fixed edge
    count keeps the cost of an op steady across seeds); ``periodic``: a
    Hamiltonian cycle plus
    edges that respect a cyclic class structure; ``transient``: one closed
    class with a self-loop plus transient states that lead into it;
    ``transient-periodic``: the same with the closed class a bare cycle;
    ``multi``: two closed classes plus transient states.
    """
    succ = [set() for _ in range(d)]
    perm = [int(v) for v in rng.permutation(d)]
    if kind == "random":
        for j in range(d):
            succ[j] = {int(i) for i in rng.choice(d, size=(d + 1) // 2,
                                                  replace=False)}
        return succ
    if kind == "periodic":
        p = next(q for q in range(2, d + 1) if d % q == 0)
        _base_cycle(succ, perm)
        for k, u in enumerate(perm):
            for m, v in enumerate(perm):
                if m % p == (k + 1) % p and rng.random() < 0.5:
                    succ[u].add(v)
        return succ
    closed_sizes = {"transient": [max(2, d // 2)],
                    "transient-periodic": [max(2, d // 2)],
                    "multi": [max(1, d // 3), max(1, d // 3)]}[kind]
    start = 0
    closed = []
    for size in closed_sizes:
        members = perm[start:start + size]
        start += size
        _base_cycle(succ, members)
        if kind != "transient-periodic":
            for u in members:
                succ[u] |= {v for v in members if rng.random() < 0.4}
            succ[members[0]].add(members[0])
        closed.extend(members)
    reachable = list(closed)
    for t in perm[start:]:
        succ[t].add(reachable[int(rng.integers(len(reachable)))])
        succ[t] |= {v for v in range(d) if v not in closed
                    and rng.random() < 0.3}
        reachable.append(t)
    return succ


def chain_exact(rng, d, kind) -> list:
    """Column-stochastic rows of Fractions with small-integer weights.

    A column with k successors gets a random composition of 2k into k
    positive weights, so its denominator is always 2k: the seed moves the
    weights without moving the size of the exact arithmetic.
    """
    succ = chain_pattern(rng, d, kind)
    rows = [[Fraction(0)] * d for _ in range(d)]
    for j in range(d):
        targets = sorted(succ[j])
        k = len(targets)
        cuts = sorted(int(c) for c in rng.choice(np.arange(1, 2 * k), size=k - 1,
                                                 replace=False))
        for i, lo, hi in zip(targets, [0] + cuts, cuts + [2 * k]):
            rows[i][j] = Fraction(hi - lo, 2 * k)
    return rows


def chain_float(rng, d, kind) -> np.ndarray:
    succ = chain_pattern(rng, d, kind)
    m = np.zeros((d, d))
    for j in range(d):
        idx = sorted(succ[j])
        m[idx, j] = rng.uniform(0.1, 1.0, size=len(idx))
        m[:, j] /= m[:, j].sum()
    return m


def random_channel(rng, h, n) -> list:
    """n Kraus operators of a random trace-preserving channel on h x h."""
    ops = rng.standard_normal((n, h, h)) + 1j * rng.standard_normal((n, h, h))
    total = sum(k.conj().T @ k for k in ops)
    w, v = np.linalg.eigh(total)
    inv_root = v @ np.diag(w ** -0.5) @ v.conj().T
    return [k @ inv_root for k in ops]


def _verdicts_check(expected, labels):
    def check(out):
        problems = []
        for label, got in zip(labels, out["verdicts"]):
            problems += oracle.mismatches(expected, got, label)
        return problems
    return check


# ---------------------------------------------------------------------------
# exact-chains and float-spectra
# ---------------------------------------------------------------------------

def make_exact_chain(rng, slot, env=None) -> Op:
    from conemix import RATIONAL_MODE, Orthant, classify, from_matrix, \
        from_stochastic
    d = slot.size
    rows = chain_exact(rng, d, slot.kind)
    transposed = [list(col) for col in zip(*rows)]

    def run():
        a = classify(from_stochastic(rows), RATIONAL_MODE)
        b = classify(from_matrix(transposed, Orthant(d)), RATIONAL_MODE)
        return {"verdicts": [a.verdicts(), b.verdicts()]}

    return Op(slot.label, run, _verdicts_check(
        oracle.chain_verdicts(rows), ("map", "transpose")))


def make_float_spectrum(rng, slot, env=None) -> Op:
    from conemix import classify, from_kraus, from_stochastic
    if slot.kind == "kraus":
        h = slot.size
        ops = random_channel(rng, h, int(rng.integers(2, h * h + 1)))
        expected = oracle.PRIMITIVE

        def run():
            return {"verdicts": [classify(from_kraus(ops)).verdicts()]}
    else:
        m = chain_float(rng, slot.size, slot.kind)
        expected = oracle.chain_verdicts(m)

        def run():
            return {"verdicts": [classify(from_stochastic(m)).verdicts()]}

    return Op(slot.label, run, _verdicts_check(expected, ("map",)))


# ---------------------------------------------------------------------------
# polyhedral-cones
# ---------------------------------------------------------------------------

SQUARE_ROTATION = [[1, 0, 0], [0, 0, -1], [0, 1, 0]]

#: moment-curve points each cone dimension draws its generators from
CURVE_POINTS = {4: range(-5, 6), 5: range(-4, 5), 6: range(-3, 4)}


def curve_cone(rng, d, m):
    """Generators and dual vectors of a random cyclic-polytope cone.

    The generators are ``k * (1, t, ..., t^(d-1))`` at m distinct seeded
    integers t with seeded k in 1..3.  Every choice gives the same face
    lattice, so the seed moves coordinates but not the number of dual rays
    (which sets the cost of building the dual cone).  A vector h pairs with
    a generator as k * p(t) for the polynomial p with coefficients h, so
    ``e_0`` (p = 1, interior to the dual) and the coefficients of squared
    polynomials are dual vectors.
    """
    ts = sorted(int(t) for t in rng.choice(list(CURVE_POINTS[d]), size=m,
                                           replace=False))
    scales = [int(v) for v in rng.integers(1, 4, size=m)]
    gens = [[c * t ** k for k in range(d)] for c, t in zip(scales, ts)]
    duals = [[1] + [0] * (d - 1)]
    for _ in range(2):
        root = np.poly1d([1])
        for _ in range((d - 1) // 2):
            root = root * np.poly1d([1, -int(rng.integers(-3, 4))])
        square = (root * root).coeffs[::-1].astype(int).tolist()
        duals.append(square + [0] * (d - len(square)))
    return gens, duals


def square_cone(rng):
    """The square cone (k, +-1, +-1), with its interior dual vector e_0
    and its four facet normals."""
    k = int(rng.integers(1, 4))
    gens = [[k, 1, 1], [k, -1, 1], [k, -1, -1], [k, 1, -1]]
    return gens, [[1, 0, 0], [1, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1]]


def triangle_cone(rng):
    """A simplicial cone at height one, generators scaled by seeded
    integers, with e_0 and its three facet normals."""
    base = [[1, 0, 0], [1, 1, 0], [1, 0, 1]]
    scales = [int(v) for v in rng.integers(1, 4, size=3)]
    gens = [[c * v for v in g] for c, g in zip(scales, base)]
    return gens, [[1, 0, 0], [0, 0, 1], [0, 1, 0], [1, -1, -1]]


def generator_map(rng, gens, duals, dense, shift) -> list:
    """shift * I + sum w_ij g_i h_j^T with w_ij >= 0 (dense: all w_ij > 0).

    Each term sends the cone into the ray of g_i, so the sum is
    cone-positive.  When w is dense and h_0 is interior to the dual, every
    nonzero cone vector goes to a positive combination of all generators,
    which is interior, so the map is primitive.
    """
    d = len(gens[0])
    a = [[shift if i == j else 0 for j in range(d)] for i in range(d)]
    for g in gens:
        for h in duals:
            w = int(rng.integers(1, 4)) if dense or rng.random() < 0.2 else 0
            if w:
                for i in range(d):
                    for j in range(d):
                        a[i][j] += w * g[i] * h[j]
    return a


def _kron_vec(a, b):
    return [x * y for x in a for y in b]


#: generator count of the cyclic-polytope cone, by slot size d
CURVE_SIZES = {4: 8, 5: 7, 6: 7}


def make_polyhedral(rng, slot, env=None) -> Op:
    from conemix import (RATIONAL_MODE, BipartiteLayout, Polyhedral,
                         TensorCone, adjoint, classify, decoupling_trace,
                         from_matrix, u_norm)
    kind = slot.kind
    tensor = kind.startswith("tensor")
    shift = int(rng.integers(1, 3)) if kind.endswith("-id") else 0
    if tensor:
        tri, tri_duals = triangle_cone(rng)
        square, square_duals = square_cone(rng)
        gens = [_kron_vec(a, b) for a in tri for b in square]
        picks = rng.choice(len(tri_duals) * len(square_duals), size=4,
                           replace=False)
        duals = [_kron_vec(tri_duals[0], square_duals[0])] + [
            _kron_vec(tri_duals[p // len(square_duals)],
                      square_duals[p % len(square_duals)]) for p in picks]
    elif kind.startswith("rotation"):
        gens, duals = square_cone(rng)
    else:
        gens, duals = curve_cone(rng, slot.size, CURVE_SIZES[slot.size])
    if kind.startswith("rotation"):
        matrix = [[v + (shift if i == j else 0) for j, v in enumerate(row)]
                  for i, row in enumerate(SQUARE_ROTATION)]
        expected = oracle.PRIMITIVE if shift else oracle.ROTATION
    else:
        dense = "dense" in kind
        matrix = generator_map(rng, gens, duals, dense, shift)
        expected = oracle.PRIMITIVE if dense else None
    floats = np.array(matrix, dtype=float)
    weights = rng.integers(1, 4, size=len(gens))
    x = np.array(gens, dtype=float).T @ weights
    unit = np.eye(len(x))[0]

    def run():
        start = time.perf_counter()
        if tensor:
            cone = TensorCone(Polyhedral(tri), Polyhedral(square))
        else:
            cone = Polyhedral(gens)
        built = time.perf_counter() - start
        exact = from_matrix(matrix, cone)
        reports = [classify(exact, RATIONAL_MODE),
                   classify(from_matrix(floats, cone)),
                   classify(adjoint(exact), RATIONAL_MODE)]
        out = {"cone_build_s": built, "u_norm": u_norm(x, unit, cone),
               "verdicts": [r.verdicts() for r in reports]}
        if tensor:
            trace = decoupling_trace(from_matrix(floats, cone), x,
                                     BipartiteLayout(cone.left, cone.right),
                                     20)
            out["decoupling"] = list(trace.iterates)
        return out

    labels = ("exact", "float", "adjoint")

    def check(out):
        verdicts = out["verdicts"]
        if expected is not None:
            problems = _verdicts_check(expected, labels)(out)
        else:
            problems = [f"{label} disagrees with exact: {got}"
                        for label, got in zip(labels[1:], verdicts[1:])
                        if got != verdicts[0]]
        # x lies in the cone, so its u-norm is <e_0, x>
        if abs(out["u_norm"] - x[0]) > 1e-7 * x[0]:
            problems.append(f"u_norm {out['u_norm']} != {x[0]}")
        if tensor:
            dist = np.array(out["decoupling"])
            if dist.size < 2 or not np.all(np.isfinite(dist)) \
                    or np.any(dist < 0):
                problems.append("decoupling trace is not a finite "
                                "nonnegative sequence")
        return problems

    return Op(slot.label, run, check)


# ---------------------------------------------------------------------------
# cli-fixtures
# ---------------------------------------------------------------------------

#: verdicts of the committed non-stochastic fixtures, worked out by hand
FIXTURE_VERDICTS = {
    # fixed state |0><0| is unique but on the boundary
    "amplitude_damping_half": (True, True, False, False),
    # Jordan block at r = 1
    "deformation_half_sum": (False, False, False, False),
    "shear_2d": (False, False, False, False),
    # r = 2 is simple; its eigenvector (1, 0) is on the boundary
    "deformation_sum": (True, True, False, False),
    # fixes every diagonal state
    "dephasing_qubit": (False, False, False, False),
    # rho -> tr(rho) I / 2
    "depolarizing_qubit": (True, True, True, True),
    "identity_qubit_channel": (False, False, False, False),
    # S (x) I and S (x) S carry Jordan blocks at r = 1
    "shear_kron_identity": (False, False, False, False),
    "shear_kron_pair": (False, False, False, False),
    # r = 2 simple; right eigenvector (1, 1) interior, left (1, 0) boundary
    "triangular_mixing": (True, True, False, False),
    # maps the cone's nonzero vectors into its interior
    "wedge_squeeze": (True, True, True, True),
}

CYCLIC_STEPS = 5000


def _fixture_expectation(path):
    doc = json.loads(Path(path).read_text())
    if doc["map"]["type"] == "stochastic":
        rows = [[Fraction(v) for v in row] for row in doc["map"]["data"]]
        return oracle.chain_verdicts(rows)
    return dict(zip(oracle.VERDICTS, FIXTURE_VERDICTS[Path(path).stem]))


def write_problems(rng, work) -> dict:
    """Problem files generated from the seed, with their expectations."""
    work.mkdir(parents=True, exist_ok=True)
    out = {}

    def put(name, doc, expected=None):
        path = work / f"{name}.json"
        path.write_text(json.dumps(doc))
        out[name] = (str(path), expected)

    for d, kind in ((4, "random"), (6, "periodic")):
        rows = chain_exact(rng, d, kind)
        put(f"rational{d}", {"map": {"type": "stochastic", "data": [
            [str(v) for v in row] for row in rows]}},
            oracle.chain_verdicts(rows))
    m = chain_float(rng, 20, "random")
    put("float20", {"map": {"type": "stochastic", "data": m.tolist()}},
        oracle.chain_verdicts(m))
    ops = random_channel(rng, 3, int(rng.integers(2, 10)))
    put("kraus3", {"map": {"type": "kraus", "ops": [
        {"re": k.real.tolist(), "im": k.imag.tolist()} for k in ops]}},
        oracle.PRIMITIVE)
    perm = [int(v) for v in rng.permutation(32)]
    cyc = np.zeros((32, 32))
    for a, b in zip(perm, perm[1:] + perm[:1]):
        cyc[b, a] = 1.0
    put("cyclic32", {"map": {"type": "stochastic", "data": cyc.tolist()}},
        cyc)
    put("cyclic32_tensor", {
        "cone": {"type": "tensor", "left": {"type": "orthant", "dim": 4},
                 "right": {"type": "orthant", "dim": 8}},
        "map": {"type": "matrix", "data": cyc.tolist()}}, cyc)
    init = rng.uniform(0.5, 1.5, size=32)
    out["init"] = init / init.sum()
    pair = np.zeros(32)
    pair[[0, 9]] = 0.5  # (0, 0) and (1, 1): a correlated state
    out["pair"] = pair
    return out


def _fmt_vec(v):
    return ",".join(format(float(x), ".17g") for x in v)


def cli_cycle(root) -> tuple:
    fixtures = sorted(p.stem for p in (root / "fixtures").glob("*.json"))
    slots = [Slot(f"classify:{name}", 0) for name in fixtures]
    slots += [Slot(f"classify:{name}", 0) for name in
              ("rational4", "rational6", "float20", "kraus3")]
    slots += [Slot("power:cyclic32", CYCLIC_STEPS),
              Slot("cesaro:cyclic32", CYCLIC_STEPS),
              Slot("decouple:cyclic32_tensor", CYCLIC_STEPS),
              Slot("decouple:shear_kron_pair", 50),
              Slot("graph:swap_chain", 0), Slot("graph:rational6", 0)]
    return tuple(slots)


def run_cli(argv, env, cap):
    """(exit code, stdout, stderr) of one conemix invocation.

    With ``env`` set it is a fresh ``python -m conemix.cli`` process killed
    at ``cap`` seconds; without, ``conemix.cli.main`` runs in this process.
    """
    if env is not None:
        proc = subprocess.run([sys.executable, "-m", "conemix.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=cap)
        return proc.returncode, proc.stdout, proc.stderr
    import contextlib
    import io

    from conemix import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


class CliOps:
    """Builds cli-fixtures ops over one set of generated problem files."""

    def __init__(self, root, work, seed, cap):
        self.root = Path(root)
        self.work = Path(work)
        self.cap = cap
        self.problems = write_problems(np.random.default_rng([seed, 2]),
                                       self.work)

    def path(self, name):
        if name in self.problems:
            return self.problems[name][0]
        return str(self.root / "fixtures" / f"{name}.json")

    def __call__(self, rng, slot, env) -> Op:
        command, name = slot.kind.split(":")
        path = self.path(name)
        csv = str(self.work / f"{command}-{name}-{os.getpid()}.csv")
        if command == "classify":
            argv = ["classify", path]
        elif command == "graph":
            argv = ["graph", path]
        else:
            init = {"cyclic32": _fmt_vec(self.problems["init"]),
                    "cyclic32_tensor": _fmt_vec(self.problems["pair"])}
            argv = ["simulate", path, "--mode", command, "--steps",
                    str(slot.size), "--csv", csv,
                    f"--init={init.get(name, 'uniform')}"]
            if name == "shear_kron_pair":
                argv += ["--decouple-tol", "1e-6"]

        def run():
            code, out, err = run_cli(argv, env, self.cap)
            result = {"code": code, "stdout": out, "stderr": err}
            if command not in ("classify", "graph"):
                result["csv"] = Path(csv).read_text() if code == 0 else ""
                result["steps"] = max(0, result["csv"].count("\n") - 2)
            return result

        def check(out):
            if out["code"] != 0:
                return [f"exit code {out['code']}: {out['stderr'][-200:]}"]
            try:
                return getattr(self, f"check_{command}")(name, slot, out)
            except (ValueError, KeyError, IndexError) as err:
                return [f"malformed output: {err!r}"]

        return Op(slot.kind, run, check)

    def expected_verdicts(self, name):
        if name in self.problems:
            return self.problems[name][1]
        return _fixture_expectation(self.path(name))

    def check_classify(self, name, slot, out):
        doc = json.loads(out["stdout"])
        return oracle.mismatches(self.expected_verdicts(name), doc, name)

    def check_graph(self, name, slot, out):
        doc = json.loads(Path(self.path(name)).read_text())
        rows = [[Fraction(v) for v in row] for row in doc["map"]["data"]]
        succ = oracle.transition_digraph(rows)
        want = {f"  {u} -> {v};" for u in range(len(succ)) for v in succ[u]}
        lines = out["stdout"].splitlines()
        got = {line for line in lines if "->" in line}
        comps = oracle.components(succ)
        connected = len(comps) == 1
        period = str(oracle.class_period(succ, comps[0])) if connected \
            else "undefined"
        problems = [] if got == want else [f"{name}: edges differ"]
        if f"  // period: {period}" not in lines:
            problems.append(f"{name}: period line missing, want {period}")
        if not lines[1].startswith(
                f"  // strongly_connected: {str(connected).lower()}"):
            problems.append(f"{name}: strongly_connected line wrong")
        return problems

    def _simulate_lines(self, out):
        rows = out["csv"].splitlines()
        verdict = out["stdout"].strip().splitlines()[-1]
        return rows[0], [[float(v) for v in r.split(",")[1:]]
                         for r in rows[1:]], verdict

    def check_power(self, name, slot, out):
        return self._check_cyclic(name, slot, out, average=False)

    def check_cesaro(self, name, slot, out):
        return self._check_cyclic(name, slot, out, average=True)

    def _check_cyclic(self, name, slot, out, average):
        """The normalized iterates of a cyclic permutation just rotate the
        initial vector, so every row is known in closed form."""
        header, rows, verdict = self._simulate_lines(out)
        cyc = self.problems[name][1]
        problems = []
        if header != "step," + ",".join(f"x{i}" for i in range(32)):
            problems.append("bad CSV header")
        if len(rows) != slot.size + 1 or verdict != "verdict=Undecided":
            problems.append(f"{len(rows)} rows, {verdict!r}; want "
                            f"{slot.size + 1} rows, Undecided")
        v = self.problems["init"]
        total = np.zeros(32)
        for step in range(min(len(rows), 65)):
            total += v
            want = total / (step + 1) if average else v
            if not np.allclose(rows[step], want, rtol=1e-9, atol=1e-12):
                problems.append(f"row {step} differs from the closed form")
                break
            v = cyc @ v
        return problems

    def check_decouple(self, name, slot, out):
        header, rows, verdict = self._simulate_lines(out)
        dist = np.array([r[0] for r in rows])
        problems = [] if header == "step,distance" else ["bad CSV header"]
        if name == "shear_kron_pair":
            if not verdict.startswith("verdict=Converged"):
                problems.append(f"{verdict!r}, want Converged")
            return problems
        if len(rows) != slot.size + 1 \
                or not verdict.startswith("verdict=Undecided"):
            problems.append(f"{len(rows)} rows, {verdict!r}; want "
                            f"{slot.size + 1} rows, Undecided")
        # the correlated pair state is only permuted: its distance sequence
        # repeats with the cycle length and never decays to zero
        if len(dist) > 64 and not (np.allclose(dist[:32], dist[32:64])
                                   and dist[-32:].max() > 0.1):
            problems.append("decoupling distances are not periodic or "
                            "decay to zero")
        return problems


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

def _slots(*pairs):
    return tuple(Slot(kind, size) for kind, size in pairs)


WORKLOADS = {
    "exact-chains": Workload(
        "exact-chains",
        _slots(("random", 8), ("random", 4), ("periodic", 6), ("random", 5),
               ("transient", 7), ("multi", 4), ("transient-periodic", 4),
               ("random", 7), ("periodic", 4), ("random", 5), ("transient", 4),
               ("random", 7), ("random", 4), ("transient", 7), ("random", 5)),
        warmup=_slots(("random", 4), ("periodic", 4), ("multi", 4)),
        make=make_exact_chain),
    "float-spectra": Workload(
        "float-spectra",
        _slots(("random", 25), ("kraus", 3), ("random", 15), ("periodic", 15),
               ("kraus", 4), ("kraus", 3), ("random", 20), ("transient", 15),
               ("kraus", 3), ("multi", 15), ("kraus", 5), ("random", 15),
               ("kraus", 3), ("kraus", 4), ("transient-periodic", 15),
               ("periodic", 20), ("kraus", 3), ("random", 15), ("kraus", 4),
               ("multi", 20), ("kraus", 3), ("random", 15), ("kraus", 3),
               ("kraus", 3)),
        warmup=_slots(("random", 15), ("kraus", 3), ("kraus", 4)),
        make=make_float_spectrum),
    "polyhedral-cones": Workload(
        "polyhedral-cones",
        _slots(("dense", 4), ("tensor-dense", 9), ("rotation", 3),
               ("sparse", 4), ("rotation-id", 3), ("tensor-dense-id", 9),
               ("dense-id", 5), ("rotation", 3), ("tensor-dense", 9),
               ("dense-id", 4), ("rotation-id", 3), ("tensor-dense-id", 9),
               ("sparse", 6), ("rotation", 3), ("tensor-dense", 9),
               ("sparse-id", 4), ("rotation-id", 3), ("tensor-dense-id", 9),
               ("rotation", 3), ("rotation-id", 3)),
        warmup=_slots(("dense", 4), ("rotation", 3)),
        make=make_polyhedral),
}

NAMES = tuple(WORKLOADS) + ("cli-fixtures",)


def get(name, root, work, seed, cap) -> Workload:
    """The named workload; cli-fixtures first writes its problem files."""
    if name != "cli-fixtures":
        return WORKLOADS[name]
    cycle = cli_cycle(Path(root))
    return Workload(name, cycle,
                    warmup=(Slot("classify:four_state_chain", 0),),
                    subprocess_ops=True, make=CliOps(root, work, seed, cap))
