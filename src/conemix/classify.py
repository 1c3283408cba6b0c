"""Classification of cone-positive maps: ergodic, mixing, irreducible,
primitive.

Each verdict has independent routes that are cross-checked:

* ergodic -- algebraic multiplicity of the spectral radius (exact when the
  radius is rational), the fixed-space dimension (exact, for maps whose
  adjoint fixes the unit), and float eigenvalue clustering;
* mixing -- kernel of ``A (x) A - r^2 I`` (exact), geometric multiplicity
  of ``r^2`` on the Kronecker square (float, counted from the products of
  A's eigenvalues), and the spectral-gap condition computed from the full
  eigenvalue list;
* irreducible -- interior stationary pair (the definition); for maps
  whose positivity is ``yes``: on polyhedral and finite tensor cones, no
  invariant face but 0 and K, read off the face map of one integer sign
  pattern; for classical maps, strong connectivity of the transition
  digraph;
* primitive -- interior pair on top of mixing; for maps whose positivity
  is ``yes``: on polyhedral and finite tensor cones, every ray's face
  carried onto K by the same face map; for classical maps, Wielandt's
  boolean-power test on the map's pattern, and aperiodicity.

Irreducible and primitive have the interior pair alone on PSD cones and
for maps whose positivity is not ``yes``: the face map and the digraph
read only where the map sends the cone, which says nothing of a map that
leaves it.  Exact routes are authoritative when the map carries rational
data.  :func:`classify` builds each fact once per report and hands it to
the families that read it: the stationary pair and its interior test
(the cone's slack of each vector, compared at every probe tolerance),
the ergodic and mixing families, the face map, and the digraph routes
(one pattern, one digraph, one Tarjan run).
Disagreements between routes are never silently resolved; they are
recorded as flags on the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cones import UnsupportedConeOperation, is_classical, member
from .linalg import (
    FLOAT_MODE,
    MultiplicityPair,
    ScalarMode,
    ZeroSpectralRadiusError,
    chain_pair,
)
from .maps import DynMap, PositivityVerdict, _own_matrix, is_dup, is_positive

__all__ = [
    "Digraph",
    "ClassificationReport",
    "NotErgodicError",
    "NotStronglyConnectedError",
    "ZeroSpectralRadiusError",
    "digraph_of",
    "strongly_connected",
    "strongly_connected_components",
    "period",
    "stationary_pair",
    "is_ergodic",
    "is_mixing",
    "is_irreducible",
    "is_primitive",
    "ergodic_routes",
    "mixing_routes",
    "irreducible_routes",
    "primitive_routes",
    "classify",
]

class NotErgodicError(Exception):
    """No stationary pair exists; carries the multiplicity diagnostics."""

    def __init__(self, reason, x0=None, y0=None, pairing=None,
                 geometric=None):
        super().__init__(reason)
        self.reason = reason
        self.x0 = x0
        self.y0 = y0
        self.pairing = pairing
        self.geometric = geometric


class NotStronglyConnectedError(Exception):
    """The digraph is not strongly connected, so the period is undefined."""


# ---------------------------------------------------------------------------
# digraphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Digraph:
    """Successor-list digraph on vertices 0..n-1."""

    n: int
    succ: tuple

    def edges(self):
        return [(u, v) for u in range(self.n) for v in self.succ[u]]


def _pattern(a: DynMap, mode: ScalarMode) -> np.ndarray:
    """0/1 int64 matrix of the positive entries of a map: exact entries
    above 0, float ones above ``eps_interior`` times the largest modulus."""
    m = _own_matrix(a)
    cutoff = 0 if a.integer is not None else \
        mode.eps_interior * max(1.0, float(np.max(np.abs(m))))
    return (m > cutoff).astype(np.int64)


def _digraph(pattern: np.ndarray) -> Digraph:
    """Digraph of a 0/1 pattern: edge i -> j iff entry (j, i) is 1."""
    return Digraph(len(pattern), tuple(
        tuple(np.flatnonzero(col).tolist()) for col in pattern.T))


def digraph_of(m: DynMap, mode: ScalarMode = FLOAT_MODE) -> Digraph:
    """Digraph of a map: edge i -> j present iff entry (j, i) is positive."""
    return _digraph(_pattern(m, mode))


def strongly_connected_components(g: Digraph):
    """Tarjan's algorithm, iterative to spare the recursion limit."""
    index = [-1] * g.n
    low = [0] * g.n
    on_stack = [False] * g.n
    stack = []
    comps = []
    counter = 0
    for root in range(g.n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            succ = g.succ[v]
            while i < len(succ):
                w = succ[i]
                i += 1
                if index[w] == -1:
                    work.append((v, i))
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comps


def strongly_connected(g: Digraph) -> bool:
    """One strongly connected component covering all vertices?"""
    return len(strongly_connected_components(g)) == 1


def period(g: Digraph) -> int:
    """GCD of all cycle lengths of a strongly connected digraph."""
    if not strongly_connected(g):
        raise NotStronglyConnectedError("period requires strong connectivity")
    p = _cycle_gcd(g)
    if p == 0:
        raise NotStronglyConnectedError("graph has no cycles")
    return p


def _cycle_gcd(g: Digraph) -> int:
    """GCD of all cycle lengths of a digraph that the caller knows to be
    strongly connected, 0 when it has no cycles.

    Computed from a BFS layering: every edge (u, v) contributes
    ``|level(u) + 1 - level(v)|`` to the gcd (tree edges contribute 0,
    which gcd ignores).
    """
    level = [-1] * g.n
    level[0] = 0
    queue = [0]
    while queue:
        nxt = []
        for u in queue:
            for v in g.succ[u]:
                if level[v] == -1:
                    level[v] = level[u] + 1
                    nxt.append(v)
        queue = nxt
    p = 0
    for u in range(g.n):
        for v in g.succ[u]:
            p = math.gcd(p, abs(level[u] + 1 - level[v]))
    return p


def _wielandt_primitive(pattern: np.ndarray) -> bool:
    """Is some power of the pattern positive?  By Wielandt (1950) the
    ``((d-1)^2 + 1)``-th is when any is, and every later one stays so; the
    squarings reach an exponent at least that large."""
    power = pattern
    for _ in range(math.ceil(math.log2((len(pattern) - 1) ** 2 + 1))):
        power = np.minimum(power @ power, 1)
    return bool(power.all())


# ---------------------------------------------------------------------------
# stationary pair
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Stationary:
    """The stationary pair: ``x`` and ``y`` in the map's own arithmetic for
    the cone queries (at a verified rational radius, integer object arrays,
    positive multiples of the pair; floats otherwise), and the pair as
    floats, ``x0`` l1-normalized and ``<y0, x0> = 1``."""

    x: np.ndarray
    y: np.ndarray
    x0: np.ndarray
    y0: np.ndarray
    exact: bool


def _l1_floats(v: np.ndarray, exact: bool) -> np.ndarray:
    """v as floats, l1-normalized when it is an integer direction (a float
    Perron vector is normalized already).  Python's int division rounds
    correctly, like ``float`` of a Fraction."""
    return (v / np.sum(np.abs(v)) if exact else v).astype(float)


def _stationary(a: DynMap, mode: ScalarMode) -> _Stationary:
    """Perron vectors of the map and its adjoint (exact primitive integer
    vectors at a verified rational radius, else l1-normalized floats),
    each turned so its largest-modulus entry is positive, then signed into
    the cone (x0) or the dual cone (y0); x0 is l1-normalized and y0 scaled
    to ``<y0, x0> = 1``.  A float pairing up to 1e-9 counts as 0."""
    spec = a.spectrum
    spec.positive_r()
    exact = spec.r_exact is not None
    if exact:
        vecs = []
        for basis, what in ((spec.chain_r[0], "eigenvalue"),
                            (spec.left_kernel_r, "adjoint eigenvalue")):
            if len(basis) != 1:
                raise NotErgodicError(
                    f"{what} {spec.r_exact} has geometric multiplicity "
                    f"{len(basis)}", geometric=len(basis))
            vecs.append(np.array(basis[0], dtype=object))
    else:
        geom = spec.peak_pair(mode).geometric
        if geom != 1:  # 0 exactly when r is not an eigenvalue at all
            raise NotErgodicError(
                f"spectral radius has geometric multiplicity {geom}" if geom
                else "spectral radius is not an eigenvalue", geometric=geom)
        vecs = spec.perron_vectors
    cone = a.cone
    pair = []
    for v, member in zip(vecs, (cone.contains, cone.dual_contains)):
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        try:
            if not member(v, mode):
                if not member(-v, mode):
                    # report the primal vector whichever one failed
                    raise NotErgodicError(
                        "no sign of the Perron eigenvector lies in the cone",
                        x0=_l1_floats(pair[0] if pair else v, exact))
                v = -v
        except UnsupportedConeOperation:
            pass
        pair.append(v)
    x, y = pair
    pairing = y @ x
    if abs(pairing) <= (0 if exact else 1e-9):
        raise NotErgodicError(
            "stationary and dual stationary vectors are orthogonal",
            x0=_l1_floats(x, exact), y0=_l1_floats(y, exact),
            pairing=float(pairing), geometric=1)
    if not exact:
        return _Stationary(x, y / pairing, x, y / pairing, False)
    # y0 = y sum|x| / <y, x>, a negative multiple of y when <y, x> < 0
    norm = np.sum(np.abs(x))
    return _Stationary(x, y if pairing > 0 else -y, _l1_floats(x, True),
                       (y * norm / pairing).astype(float), True)


def stationary_pair(a: DynMap, mode: ScalarMode = FLOAT_MODE):
    """Perron eigenvectors (x0, y0) of the map and its adjoint, with
    x0 in the cone, y0 in the dual cone, and <y0, x0> = 1.

    Raises :class:`NotErgodicError` (with diagnostics) when the pairing
    vanishes or the radius is not geometrically simple, and
    :class:`ZeroSpectralRadiusError` when the radius is zero.
    """
    st = _stationary(a, mode)
    return st.x0, st.y0


# ---------------------------------------------------------------------------
# route evaluations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Route:
    """One criterion's verdict, with its arithmetic provenance."""

    value: bool
    exact: bool
    marginal: bool = False
    skipped: bool = False

    def __bool__(self):
        return self.value


def _margin_probe(predicate, mode: ScalarMode, exact: bool = False) -> Route:
    """Evaluate at the working tolerance and, in float, flag 10x
    sensitivity; an exact predicate is decided once and is never marginal.

    Predicates only compare numbers computed beforehand against the
    tolerances of the mode they are given.
    """
    mid = predicate(mode)
    if exact:
        return Route(mid, exact=True)
    marginal = predicate(mode.scaled(0.1)) != predicate(mode.scaled(10.0))
    return Route(mid, exact=False, marginal=marginal)


def ergodic_routes(a: DynMap, mode: ScalarMode = FLOAT_MODE) -> dict:
    """Every applicable ergodicity criterion, evaluated independently.

    Keys: ``algebraic-multiplicity`` (exact), ``fixed-space-dim`` (exact,
    only for maps whose adjoint fixes the unit), ``eigenvalue-cluster``
    (float).
    """
    spec = a.spectrum
    spec.positive_r()
    routes = {}
    if spec.r_exact is not None:
        pair = chain_pair(spec.chain_r)
        routes["algebraic-multiplicity"] = Route(pair.algebraic == 1, True)
        if is_dup(a):
            routes["fixed-space-dim"] = Route(pair.geometric == 1, True)
    routes["eigenvalue-cluster"] = _margin_probe(
        lambda m: spec.peak_pair(m).algebraic == 1, mode)
    return routes


def mixing_routes(a: DynMap, mode: ScalarMode = FLOAT_MODE) -> dict:
    """Every applicable mixing criterion, evaluated independently.

    Keys: ``kron-fixed-space-dim`` (exact kernel of the Kronecker square
    minus r^2), ``kron-geometric`` (float), ``spectral-gap`` (float oracle
    from the full eigenvalue list).  Like the exact route, which needs r
    verified as an eigenvalue, both float routes require r itself among
    the eigenvalues, not only an eigenvalue of modulus r.
    """
    spec = a.spectrum
    r = spec.positive_r()
    routes = {}
    if spec.r_exact is not None:
        routes["kron-fixed-space-dim"] = Route(
            spec.kron_r2_pair.geometric == 1, True)
    routes["kron-geometric"] = _margin_probe(
        lambda m: spec.peak_pair(m).algebraic >= 1
        and spec.kron_peak_pair(m).geometric == 1, mode)
    moduli = np.abs(spec.eigenvalues) / r
    routes["spectral-gap"] = _margin_probe(
        lambda m: spec.peak_pair(m).algebraic == 1
        and int(np.count_nonzero(moduli >= 1.0 - m.eps_cluster)) == 1, mode)
    return routes


def _stationary_or_error(a: DynMap, mode: ScalarMode):
    """``_stationary(a, mode)``, or the :class:`NotErgodicError` it raised."""
    try:
        return _stationary(a, mode)
    except NotErgodicError as err:
        return err


def _interior_pair(a: DynMap, pair, mode: ScalarMode) -> tuple:
    """The ``interior-pair`` route (its base verdict aside) and the dual
    slack of the stationary pair, for ``pair`` what
    ``_stationary_or_error`` returned.

    The cone's ``slack`` of x and ``dual_slack`` of y (see
    :meth:`~conemix.cones.Cone.slack`) are computed once and compared at
    each probe tolerance; a slack the cone cannot compute is None, and
    the route is then skipped.  Without a pair the route is False and the
    dual slack None."""
    if isinstance(pair, NotErgodicError):
        return Route(False, a.integer is not None), None
    slacks = []
    for query, v in ((a.cone.slack, pair.x), (a.cone.dual_slack, pair.y)):
        try:
            slacks.append(query(v, mode))
        except UnsupportedConeOperation:
            slacks.append(None)
    xs, ys = slacks
    if xs is None or ys is None:
        return Route(False, False, skipped=True), ys
    route = _margin_probe(lambda m: member(xs, m, interior=True)
                          and member(ys, m, interior=True), mode, pair.exact)
    return route, ys


def _face_verdicts(incidence: np.ndarray, moved: np.ndarray) -> tuple:
    """(irreducible, primitive) of a cone-positive map from its face map.

    ``incidence`` marks the dual rays (rows) that vanish on each extreme
    ray g (columns), its zero set ``Z(g)``, and ``moved`` those that do
    not vanish on its image Ag.  A face F is held as the set of extreme
    rays it contains, one boolean row; its zero set is the dual rays that
    vanish on all of them, and its rays are those on which its whole zero
    set vanishes.  A point of the relative interior of F is a positive
    combination of all its rays, so the face of its image is ``Phi(F)``,
    with zero set the intersection of ``Z(Ag)`` over the rays g of F.
    Irreducible: no face other than 0 and K has ``Phi(F) <= F``, so each
    ray's face, closed under ``F -> F v Phi(F)``, reaches K.  Primitive:
    ``Phi(K) = K`` and every ray's orbit under Phi reaches K; an orbit
    that returns to a face it left never does (Tam & Schneider, "On the
    core of a cone-preserving map", Trans. AMS 343, 1994)."""
    off = (~incidence).astype(np.int64)
    moved = moved.astype(np.int64)

    def rays(faces, nonzero):
        """Rays of the faces whose zero sets are the dual rays that vanish,
        by ``nonzero``, on every ray of each face."""
        zero = (faces.astype(np.int64) @ nonzero.T) == 0
        return (zero.astype(np.int64) @ off) == 0

    n = off.shape[1]
    faces = np.eye(n, dtype=bool)
    while True:
        grown = rays(faces, off | moved)
        if np.array_equal(grown, faces):
            break
        faces = grown
    irreducible = bool(faces.all())

    primitive = bool(rays(np.ones((1, n), dtype=bool), moved).all())
    history = [np.eye(n, dtype=bool)]
    while primitive and not history[-1].all():
        faces = rays(history[-1], moved)
        returned = np.any([(faces == old).all(axis=1) for old in history],
                          axis=0)
        primitive = not (returned & ~faces.all(axis=1)).any()
        history.append(faces)
    return irreducible, primitive


def _face_routes(a: DynMap, mode: ScalarMode, positive: bool) -> dict:
    """``irreducible`` and ``primitive`` family routes from the face map
    (``_face_verdicts``), for a map on a polyhedral or finite tensor cone
    that ``is_positive`` at ``mode`` (``positive``, the caller's verdict);
    empty otherwise.  The orthant has the digraph routes instead, the same
    lattice in coordinates.  Each distinct sign pattern of the tolerance
    probes is decided once."""
    if not positive or is_classical(a.cone):
        return {}
    try:
        images = a.ray_images
    except UnsupportedConeOperation:  # PSD cones
        return {}
    decided = {}

    def verdicts(m):
        moved = images.signs(m) != 0
        key = moved.tobytes()
        if key not in decided:
            decided[key] = _face_verdicts(images.incidence, moved)
        return decided[key]

    return {
        "irreducible": {"face-closure": _margin_probe(
            lambda m: verdicts(m)[0], mode, images.exact)},
        "primitive": {"face-orbit": _margin_probe(
            lambda m: verdicts(m)[1], mode, images.exact)},
    }


def _digraph_routes(a: DynMap, mode: ScalarMode, positive: bool) -> dict:
    """``irreducible`` and ``primitive`` family routes of a classical map
    that ``is_positive`` at ``mode`` (``positive``, the caller's verdict)
    from one pattern, one digraph and one Tarjan run; empty otherwise.
    The digraph reads only the positive entries, which, as the face map,
    say nothing of a map that leaves the cone."""
    if not positive or not is_classical(a.cone):
        return {}
    pattern = _pattern(a, mode)
    g = _digraph(pattern)
    connected = strongly_connected(g)
    exact = a.integer is not None
    return {
        "irreducible": {"digraph": Route(connected, exact)},
        "primitive": {
            "kron-digraph": Route(_wielandt_primitive(pattern), exact),
            "aperiodic": Route(connected and _cycle_gcd(g) == 1, exact)},
    }


def _pair_family(family: str, a: DynMap, base: bool,
                 interior: Route | None, *lattices: dict) -> dict:
    """The ``irreducible`` or ``primitive`` family from facts decided once:
    its base verdict (ergodic or mixing), the ``_interior_pair`` route,
    and the ``family`` routes of the ``_face_routes`` and
    ``_digraph_routes`` results."""
    routes = {"interior-pair": interior if base
              else Route(False, a.integer is not None)}
    for lattice in lattices:
        routes.update(lattice.get(family, {}))
    return routes


def _public_family(family: str, a: DynMap, mode: ScalarMode,
                   base_routes) -> dict:
    """``_pair_family`` for the public ``irreducible_routes`` and
    ``primitive_routes``, with its base verdict from ``base_routes``."""
    base = _resolve(base_routes(a, mode)).value
    interior = _interior_pair(a, _stationary_or_error(a, mode), mode)[0] \
        if base else None
    positive = is_positive(a, mode).value == "yes"
    return _pair_family(family, a, base, interior,
                        _face_routes(a, mode, positive),
                        _digraph_routes(a, mode, positive))


def irreducible_routes(a: DynMap, mode: ScalarMode = FLOAT_MODE) -> dict:
    """Every applicable irreducibility criterion, evaluated independently.

    Keys: ``interior-pair`` (the definition: ergodic with interior
    stationary pair), and for maps whose positivity is ``yes``:
    ``face-closure`` (polyhedral and finite tensor cones: no invariant
    face but 0 and K) and, for classical maps, ``digraph``.
    """
    return _public_family("irreducible", a, mode, ergodic_routes)


def primitive_routes(a: DynMap, mode: ScalarMode = FLOAT_MODE) -> dict:
    """Every applicable primitivity criterion, evaluated independently.

    Keys: ``interior-pair`` (the definition: mixing with interior
    stationary pair), and for maps whose positivity is ``yes``:
    ``face-orbit`` (polyhedral and finite tensor cones: every ray's face
    is carried onto K) and, for classical maps, ``kron-digraph``
    (Wielandt's power test, which for d >= 2 is strong connectivity of
    the Kronecker-square digraph) and ``aperiodic`` (irreducible with
    period one).
    """
    return _public_family("primitive", a, mode, mixing_routes)


def _resolve(routes: dict) -> Route:
    """Verdict with exact routes authoritative; insertion order breaks ties."""
    for route in routes.values():
        if route.exact:
            return route
    return next(iter(routes.values()))


def _route_flags(family: str, routes: dict) -> list:
    flags = []
    for name, route in routes.items():
        if route.skipped:
            flags.append(f"route-skipped:{family}:{name}")
        if route.marginal:
            flags.append(f"tolerance-marginal:{family}:{name}")
    if len({route.value for route in routes.values()}) > 1:
        detail = ",".join(f"{name}={route.value}"
                          for name, route in sorted(routes.items()))
        flags.append(f"route-disagreement:{family}:{detail}")
    return flags


def is_ergodic(a: DynMap, mode: ScalarMode = FLOAT_MODE) -> bool:
    """Do the time averages of the radius-normalized powers converge to a
    rank-one map?  Equivalent to the spectral radius being an algebraically
    simple eigenvalue."""
    return _resolve(ergodic_routes(a, mode)).value


def is_mixing(a: DynMap, mode: ScalarMode = FLOAT_MODE) -> bool:
    """Do the radius-normalized powers themselves converge?  Equivalent to
    the Kronecker square having a one-dimensional peak eigenspace."""
    return _resolve(mixing_routes(a, mode)).value


def is_irreducible(a: DynMap, mode: ScalarMode = FLOAT_MODE) -> bool:
    """Ergodic with a stationary pair interior to the cone and its dual."""
    return _resolve(irreducible_routes(a, mode)).value


def is_primitive(a: DynMap, mode: ScalarMode = FLOAT_MODE) -> bool:
    """Mixing with a stationary pair interior to the cone and its dual."""
    return _resolve(primitive_routes(a, mode)).value


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------

@dataclass
class ClassificationReport:
    """All verdicts, witnesses, and the criteria that produced them."""

    r: float
    ergodic: bool
    mixing: bool
    irreducible: bool
    primitive: bool
    dup: bool
    positivity: PositivityVerdict
    multiplicity_r: MultiplicityPair
    multiplicity_r2_kron: MultiplicityPair
    stationary: np.ndarray | None = None
    dual_stationary: np.ndarray | None = None
    pairing: float | None = None
    gap_ratio: float | None = None
    criteria_fired: list = field(default_factory=list)
    hypothesis_flags: list = field(default_factory=list)

    def verdicts(self) -> dict:
        return {"ergodic": self.ergodic, "mixing": self.mixing,
                "irreducible": self.irreducible, "primitive": self.primitive}


def classify(a: DynMap, mode: ScalarMode = FLOAT_MODE) -> ClassificationReport:
    """Run every applicable route, cross-check them, and assemble a report.

    Route disagreements and tolerance-marginal decisions become
    ``hypothesis_flags`` entries rather than being silently resolved, and
    the verdicts are forced onto the implication lattice
    (primitive => mixing and irreducible; mixing/irreducible => ergodic).
    """
    flags = []
    criteria = []
    pos = is_positive(a, mode)
    if pos.value == "no":
        flags.append(f"positivity-no: {pos.certificate}")
    elif pos.value == "unknown":
        flags.append("positivity-unknown")
    dup = is_dup(a)
    if not dup:
        flags.append("non-dup")

    spec = a.spectrum
    try:
        r = spec.positive_r()
    except ZeroSpectralRadiusError as err:
        flags.append(f"zero-spectral-radius: {err}")
        return ClassificationReport(
            r=0.0, ergodic=False, mixing=False, irreducible=False,
            primitive=False, dup=dup, positivity=pos,
            multiplicity_r=MultiplicityPair(0, 0),
            multiplicity_r2_kron=MultiplicityPair(0, 0),
            hypothesis_flags=flags)
    if a.integer is not None:
        flags.append("spectral-radius-computed-in-float")

    moduli = np.sort(np.abs(spec.eigenvalues))[::-1]
    gap_ratio = float(moduli[1] / r) if moduli.size > 1 else None
    if spec.r_exact is not None:
        # the verified radius, and its exact multiplicity over the float
        # moduli, which rounding can split
        mult_r, mult_r2 = chain_pair(spec.chain_r), spec.kron_r2_pair
        r = float(spec.r_exact)
        if mult_r.algebraic >= 2:
            gap_ratio = 1.0
    else:
        mult_r, mult_r2 = spec.peak_pair(mode), spec.kron_peak_pair(mode)

    ergodic_family = ergodic_routes(a, mode)
    mixing_family = mixing_routes(a, mode)
    pair = _stationary_or_error(a, mode)
    interior, dual_slack = _interior_pair(a, pair, mode)
    positive = pos.value == "yes"
    lattices = (_face_routes(a, mode, positive),
                _digraph_routes(a, mode, positive))
    families = {
        "ergodic": ergodic_family,
        "mixing": mixing_family,
        "irreducible": _pair_family(
            "irreducible", a, _resolve(ergodic_family).value, interior,
            *lattices),
        "primitive": _pair_family(
            "primitive", a, _resolve(mixing_family).value, interior,
            *lattices),
    }
    verdicts = {}
    for family, routes in families.items():
        verdicts[family] = _resolve(routes).value
        criteria.extend(f"{family}:{name}" for name in sorted(routes))
        flags.extend(_route_flags(family, routes))

    if isinstance(pair, NotErgodicError):
        stationary = None if pair.x0 is None else \
            np.asarray(pair.x0, dtype=float)
        dual_stationary = None if pair.y0 is None else \
            np.asarray(pair.y0, dtype=float)
        pairing = pair.pairing
        flags.append(f"no-stationary-pair: {pair.reason}")
    else:
        stationary, dual_stationary, pairing = pair.x0, pair.y0, 1.0
        if dual_slack is None:
            flags.append("dual-interior-undecidable")
        elif not member(dual_slack, mode, interior=True):
            flags.append("dual-stationary-on-boundary")

    ergodic = verdicts["ergodic"]
    mixing = verdicts["mixing"]
    irreducible = verdicts["irreducible"]
    primitive = verdicts["primitive"]
    # implication lattice: never report a stronger property without the
    # weaker ones it implies
    if mixing and not ergodic:
        flags.append("lattice-correction:mixing-without-ergodic")
        mixing = False
    if irreducible and not ergodic:
        flags.append("lattice-correction:irreducible-without-ergodic")
        irreducible = False
    if primitive and not (mixing and irreducible):
        flags.append("lattice-correction:primitive-needs-mixing-irreducible")
        primitive = False

    return ClassificationReport(
        r=r, ergodic=ergodic, mixing=mixing, irreducible=irreducible,
        primitive=primitive, dup=dup, positivity=pos,
        multiplicity_r=mult_r, multiplicity_r2_kron=mult_r2,
        stationary=stationary, dual_stationary=dual_stationary,
        pairing=pairing, gap_ratio=gap_ratio,
        criteria_fired=criteria,
        hypothesis_flags=list(dict.fromkeys(flags)))
