"""Shared random generators for the test corpora (all explicitly seeded),
and reference implementations that the fast routes are checked against."""

from fractions import Fraction
from itertools import product

import numpy as np

from conemix import FLOAT_MODE, RATIONAL_MODE, Digraph, MultiplicityPair, \
    NotErgodicError, NotStronglyConnectedError, Orthant, Polyhedral, \
    TensorCone, UnsupportedConeOperation, adjoint, from_kraus, from_matrix, \
    from_stochastic, strongly_connected, strongly_connected_components
from conemix.classify import Route, _margin_probe
from conemix.linalg import _kernel_chain, _shift, as_exact, chain_pair, \
    integer_form


def random_stochastic_exact(rng, d):
    """Column-stochastic matrix with a random zero pattern, rational entries.

    Every column keeps at least one nonzero entry; weights are small random
    integers normalized per column.
    """
    cols = []
    for _ in range(d):
        support = rng.random(d) < rng.uniform(0.3, 0.9)
        if not support.any():
            support[rng.integers(d)] = True
        weights = [int(rng.integers(1, 9)) if s else 0 for s in support]
        total = sum(weights)
        cols.append([Fraction(w, total) for w in weights])
    return [list(row) for row in zip(*cols)]


def to_float_rows(exact):
    return np.array([[float(v) for v in row] for row in exact])


def random_stochastic_map(rng, d, exact=True):
    m = random_stochastic_exact(rng, d)
    return from_stochastic(m if exact else to_float_rows(m))


def random_dense_stochastic(rng, d, floor=0.05):
    """Strictly positive column-stochastic matrix (hence primitive)."""
    m = rng.random((d, d)) + floor
    return from_stochastic(m / m.sum(axis=0))


def random_strongly_connected_digraph(rng, d):
    """A random cycle through all vertices plus random chords."""
    order = rng.permutation(d)
    edges = {(int(order[i]), int(order[(i + 1) % d])) for i in range(d)}
    extra = rng.uniform(0.0, 0.4)
    for u in range(d):
        for v in range(d):
            if rng.random() < extra:
                edges.add((u, v))
    succ = tuple(tuple(sorted(v for (a, v) in edges if a == u))
                 for u in range(d))
    return Digraph(d, succ)


def random_kraus_channel(rng, h, n_ops=None):
    """Trace-preserving channel from blocks of a Haar-ish random isometry."""
    n_ops = n_ops or h * h
    g = rng.standard_normal((n_ops * h, h)) + 1j * rng.standard_normal(
        (n_ops * h, h))
    q, _ = np.linalg.qr(g)
    return from_kraus([q[i * h:(i + 1) * h] for i in range(n_ops)])


def random_hermitian(rng, h):
    g = rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))
    return (g + g.conj().T) / 2


def random_density(rng, h):
    g = rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def cyclic_polytope_generators(rng, d, m):
    """Generators ``k * (1, t, ..., t^(d-1))`` at m distinct seeded integers
    t in [-5, 5], with seeded scales k in 1..3: a cyclic-polytope cone."""
    ts = sorted(int(t) for t in rng.choice(np.arange(-5, 6), size=m,
                                           replace=False))
    scales = [int(k) for k in rng.integers(1, 4, size=m)]
    return [[k * t ** i for i in range(d)] for k, t in zip(scales, ts)]


def seeded_polyhedral_cones(rng):
    """Cyclic-polytope cones for d = 4..6, the square cone, a triangle and
    triangle (x) square, keyed by name."""
    square = [[1, 1, 1], [1, -1, 1], [1, -1, -1], [1, 1, -1]]
    triangle = [[k * v for v in g] for k, g in zip(
        (int(k) for k in rng.integers(1, 4, size=3)),
        ([1, 0, 0], [1, 1, 0], [1, 0, 1]))]
    cones = {f"cyclic-{d}": Polyhedral(cyclic_polytope_generators(rng, d, m))
             for d, m in ((4, 8), (5, 7), (6, 7))}
    cones["square"] = Polyhedral(square)
    cones["triangle"] = Polyhedral(triangle)
    cones["triangle(x)square"] = TensorCone(Polyhedral(triangle),
                                            Polyhedral(square))
    return cones


def scaled_cone(rng, gens):
    """Polyhedral cone of the generators, each scaled by a seeded 1..3."""
    scales = (int(k) for k in rng.integers(1, 4, size=len(gens)))
    return Polyhedral([[k * v for v in g] for k, g in zip(scales, gens)])


def seeded_simplicial_pairs(rng):
    """(name, left, right) for every simplicial operand (triangle, wedge,
    an orthant of seeded size 2 or 3) with every partner (triangle,
    square, wedge, a cyclic-polytope cone with d = 4 and 5 generators),
    in both orders."""
    partners = {
        "triangle": lambda: scaled_cone(rng, [[1, 0, 0], [1, 1, 0],
                                              [1, 0, 1]]),
        "square": lambda: scaled_cone(rng, [[1, 1, 1], [1, -1, 1],
                                            [1, -1, -1], [1, 1, -1]]),
        "wedge": lambda: scaled_cone(rng, [[1, 1], [1, -1]]),
        "cyclic-4": lambda: Polyhedral(cyclic_polytope_generators(rng, 4, 5)),
    }
    simplicial = {"triangle": partners["triangle"],
                  "wedge": partners["wedge"],
                  "orthant": lambda: Orthant(int(rng.integers(2, 4)))}
    for s, make_s in simplicial.items():
        for p, make_p in partners.items():
            yield f"{s}(x){p}", make_s(), make_p()
            yield f"{p}(x){s}", make_p(), make_s()


def reference_tensor_inner(left, right):
    """The inner cone of ``TensorCone(left, right)`` by brute force: dual-ray
    enumeration over the products of the operands' extreme rays."""
    return Polyhedral([[a * b for a in g for b in h] for g, h in product(
        left.exact_extremal_generators(), right.exact_extremal_generators())])


CHAIN_KINDS = ("random", "periodic", "transient", "transient-periodic",
               "multi")


def random_chain(rng, d, kind):
    """Float column-stochastic matrix whose digraph has the given kind.

    ``random``: random supports; ``periodic``: a Hamiltonian cycle plus
    edges between consecutive cyclic classes, period the least divisor
    p >= 2 of d; ``transient``: one closed class with a self-loop plus
    transient states leading into it; ``transient-periodic``: the same with
    the closed class a bare cycle; ``multi``: two closed classes plus
    transient states.  ``adj[j, i]`` marks the edge i -> j.
    """
    perm = rng.permutation(d)
    adj = np.zeros((d, d), dtype=bool)
    if kind == "random":
        adj = rng.random((d, d)) < 0.5
        adj[perm, np.arange(d)] = True
    elif kind == "periodic":
        p = min(q for q in range(2, d + 1) if d % q == 0)
        cls = np.empty(d, dtype=int)
        cls[perm] = np.arange(d) % p
        adj = (cls[:, None] == (cls[None, :] + 1) % p) \
            & (rng.random((d, d)) < 0.5)
        adj[np.roll(perm, -1), perm] = True
    else:
        sizes = [max(1, d // 3)] * 2 if kind == "multi" else [max(2, d // 2)]
        start = 0
        for size in sizes:
            members = perm[start:start + size]
            start += size
            adj[np.roll(members, -1), members] = True
            if kind != "transient-periodic":
                adj[np.ix_(members, members)] |= rng.random((size, size)) < 0.4
                adj[members[0], members[0]] = True
        for k in range(start, d):
            adj[perm[rng.integers(k)], perm[k]] = True
            adj[perm[start:], perm[k]] |= rng.random(d - start) < 0.3
    m = adj * rng.uniform(0.1, 1.0, size=(d, d))
    return m / m.sum(axis=0)


def reference_kron_square(matrix):
    """Float multiplicities of r^2 on ``A (x) A`` as a function of the mode,
    from the eigenvalues and singular values of the full d^2 x d^2 square,
    each computed once."""
    r = float(np.max(np.abs(np.linalg.eigvals(matrix))))
    big = np.kron(matrix, matrix) / (r * r)
    ev = np.linalg.eigvals(big)
    big[np.diag_indices_from(big)] -= 1.0
    sv = np.linalg.svd(big, compute_uv=False)
    scale = (float(np.linalg.norm(matrix, 2)) / r) ** 2 + 1.0

    def pair(mode):
        algebraic = int(np.count_nonzero(np.abs(ev - 1.0) <= mode.eps_cluster))
        if algebraic == 0:
            return MultiplicityPair(0, 0)
        geometric = int(np.count_nonzero(
            sv <= mode.eps_rank * max(sv[0], scale)))
        return MultiplicityPair(max(1, min(geometric, algebraic)), algebraic)

    return pair


def random_exact_chain(rng, d, kind):
    """Exact column-stochastic rows with the digraph of ``random_chain``:
    weights 1 or 2 on its support, normalized per column."""
    support = random_chain(rng, d, kind) > 0
    weights = support * rng.integers(1, 3, size=(d, d))
    totals = weights.sum(axis=0)
    return [[Fraction(int(weights[i, j]), int(totals[j])) for j in range(d)]
            for i in range(d)]


def reference_kron_r2_pair(a):
    """Exact multiplicities of r^2 on ``A (x) A`` from the fraction-free
    kernel chain of the full d^2 x d^2 Fraction square; (0, 0) without a
    verified rational radius."""
    r = a.spectrum.r_exact
    if r is None:
        return MultiplicityPair(0, 0)
    # q^2 (N (x) N) - (p D)^2 I = (q D)^2 (A (x) A - r^2 I) for r = p/q
    n, d = a.integer
    return chain_pair(_kernel_chain(np.kron(n, n) * r.denominator ** 2,
                                    (r.numerator * d) ** 2))


def tensor_product_digraph(g, h):
    """Edge (u1,u2) -> (v1,v2) iff u1 -> v1 and u2 -> v2."""
    succ = []
    for u1 in range(g.n):
        for u2 in range(h.n):
            succ.append(tuple(v1 * h.n + v2
                              for v1 in g.succ[u1] for v2 in h.succ[u2]))
    return Digraph(g.n * h.n, tuple(succ))


def tensor_scc_count(g):
    """Number of strongly connected components of g (x) g.

    For a strongly connected g every vertex of the product lies on a cycle,
    and the count equals the period of g.
    """
    if not strongly_connected(g):
        raise NotStronglyConnectedError(
            "tensor SCC count requires strong connectivity")
    return len(strongly_connected_components(tensor_product_digraph(g, g)))


def reference_kron_digraph_connected(pattern):
    """Strong connectivity of g (x) g, for g the digraph of a 0/1 pattern
    (edge i -> j iff ``pattern[j, i]``), by Tarjan on the product."""
    d = len(pattern)
    g = Digraph(d, tuple(tuple(int(j) for j in np.nonzero(pattern[:, i])[0])
                         for i in range(d)))
    return strongly_connected(tensor_product_digraph(g, g))


def generator_map(rng, gens, duals):
    """I + sum w_ij g_i h_j^T with seeded w_ij in {0, 1, 2}: cone-positive."""
    d = len(gens[0])
    m = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for g in gens:
        for h in duals:
            w = int(rng.integers(0, 3))
            for i in range(d):
                for j in range(d):
                    m[i][j] += w * g[i] * h[j]
    return m


def route_corpus(seed=91):
    """Seeded (name, map) corpus for the stationary-pair and route checks:
    float chains of every kind for d = 3..25 with their scaled transposes;
    exact chains for d = 3..8 with their transposes and float twins;
    sign-mixed integer maps for d <= 4, exact and float; and cone-positive
    and sign-mixed maps on ``seeded_polyhedral_cones`` with their
    adjoints."""
    rng = np.random.default_rng(seed)
    for kind in CHAIN_KINDS:
        for d in range(3, 26):
            m = random_chain(rng, d, kind)
            yield f"float:{kind}:{d}", from_stochastic(m)
            yield f"float:{kind}:{d}:T", from_matrix(
                rng.uniform(0.5, 4.0) * m.T, Orthant(d))
    for d in range(3, 9):
        for k in range(3):
            rows = random_stochastic_exact(rng, d)
            transposed = [list(col) for col in zip(*rows)]
            yield f"exact:{d}:{k}", from_stochastic(rows)
            yield f"exact:{d}:{k}:T", from_matrix(transposed, Orthant(d))
            yield f"twin:{d}:{k}", from_stochastic(to_float_rows(rows))
            yield f"twin:{d}:{k}:T", from_matrix(to_float_rows(transposed),
                                                  Orthant(d))
    for d in range(1, 5):
        for k in range(40):
            rows = rng.integers(-3, 4, size=(d, d)).tolist()
            yield f"signed:{d}:{k}", from_matrix(rows, Orthant(d))
            yield f"signed:{d}:{k}:float", from_matrix(
                np.array(rows, dtype=float), Orthant(d))
    for name, cone in seeded_polyhedral_cones(rng).items():
        positive = generator_map(rng, cone.exact_extremal_generators(),
                                 cone.exact_dual_generators())
        mixed = rng.integers(-3, 4, size=(cone.dim, cone.dim)).tolist()
        for label, m in (("positive", positive), ("mixed", mixed)):
            for a in (from_matrix(m, cone),
                      from_matrix(to_float_rows(m), cone)):
                kind = "exact" if a.exact is not None else "float"
                yield f"{name}:{label}:{kind}", a
                yield f"{name}:{label}:{kind}:adjoint", adjoint(a)


# ---------------------------------------------------------------------------
# the four cone queries as Fraction dot products against the exact rays,
# and the float tolerance rule against their unit rows
# ---------------------------------------------------------------------------

CONE_QUERIES = ("contains", "interior_contains", "dual_contains",
                "interior_dual_contains")


def _query_answers(duals, gens, positive, nonnegative):
    return {"contains": all(nonnegative(v) for v in duals),
            "interior_contains": all(positive(v) for v in duals),
            "dual_contains": all(nonnegative(v) for v in gens),
            "interior_dual_contains": all(positive(v) for v in gens)}


def reference_cone_queries(cone, x):
    """The exact queries of a finite cone whose generators are all extreme
    rays, for a vector of Fractions: signs of the Fraction dot products with
    the exact dual rays and extreme rays."""
    def dots(rows):
        return [sum(a * b for a, b in zip(r, x)) for r in rows]
    return _query_answers(dots(cone.exact_dual_generators()),
                          dots(cone.exact_extremal_generators()),
                          lambda v: v > 0, lambda v: v >= 0)


def reference_float_cone_queries(cone, x, mode=FLOAT_MODE):
    """The same queries for the float copy of x: dot products with the unit
    rows of the rays, against a margin of ``eps_interior * |x|``."""
    xf = np.array([float(v) for v in x])
    margin = mode.eps_interior * np.linalg.norm(xf)

    def dots(rows):
        arr = np.array([[float(v) for v in r] for r in rows])
        return (arr / np.linalg.norm(arr, axis=1, keepdims=True)) @ xf
    return _query_answers(dots(cone.exact_dual_generators()),
                          dots(cone.exact_extremal_generators()),
                          lambda v: v > margin, lambda v: v >= -margin)


# ---------------------------------------------------------------------------
# the u-norm as the LP over the extreme rays that every polyhedral and
# finite tensor cone solved before cone vectors got the closed form <u, x>
# ---------------------------------------------------------------------------

def reference_u_norm_lp(x, u, cone):
    """max <x, y> over G y <= G u and -G y <= G u, for G the float extreme
    rays of the cone: the order-interval norm of x."""
    from scipy.optimize import linprog
    xf, uf = (np.array(v if e is None else e, dtype=float)
              for v, e in ((x, as_exact(x)), (u, as_exact(u))))
    gens = np.array(cone.extremal_generators())
    bound = gens @ uf
    res = linprog(c=-xf, A_ub=np.vstack([gens, -gens]),
                  b_ub=np.concatenate([bound, bound]),
                  bounds=[(None, None)] * len(xf), method="highs")
    assert res.success, res.message
    return float(-res.fun)


def dup_generator_map(rng, cone):
    """sum p_ij g_i h_j^T / <u, g_i> over the extreme rays g_i and the dual
    rays h_j, with seeded weights p_ij >= 0 that sum to 1 for each j: it
    maps every ray into the cone, and its adjoint fixes the default unit
    u = sum_j h_j."""
    gens = cone.exact_extremal_generators()
    duals = cone.exact_dual_generators()
    u = cone.exact_default_unit()
    d = cone.dim
    m = [[Fraction(0)] * d for _ in range(d)]
    for h in duals:
        weights = [int(w) for w in rng.integers(0, 4, size=len(gens))]
        weights[int(rng.integers(len(gens)))] += 1
        total = sum(weights)
        for w, g in zip(weights, gens):
            scale = Fraction(w, total) / sum(a * b for a, b in zip(u, g))
            for i in range(d):
                for j in range(d):
                    m[i][j] += scale * g[i] * h[j]
    return m


# ---------------------------------------------------------------------------
# the stationary pair and the float reachability route as they were built
# before the pair had one implementation in the map's own arithmetic
# ---------------------------------------------------------------------------

def _oriented(vec, member, mode):
    """vec or -vec, whichever the member test accepts (vec when the cone
    cannot answer); None if neither."""
    neg = -vec if isinstance(vec, np.ndarray) else [-v for v in vec]
    try:
        if member(vec, mode):
            return vec
        return neg if member(neg, mode) else None
    except UnsupportedConeOperation:
        return vec


def reference_stationary_exact(a):
    """Exact pair from the kernel bases at the verified rational radius:
    each vector turned so its largest-modulus entry is positive, then
    sign-tested in the cone (x0) and the dual cone (y0); x0 is
    l1-normalized and y0 scaled to <y0, x0> = 1.  Fraction lists."""
    spec = a.spectrum
    r = spec.r_exact
    vecs = []
    for basis, what in ((spec.chain_r[0], "eigenvalue"),
                        (spec.left_kernel_r, "adjoint eigenvalue")):
        if len(basis) != 1:
            raise NotErgodicError(
                f"{what} {r} has geometric multiplicity {len(basis)}",
                geometric=len(basis))
        v = [Fraction(x) for x in basis[0]]
        vecs.append([-x for x in v] if max(v, key=abs) < 0 else v)
    out = []
    for vec, member in zip(vecs, (a.cone.contains, a.cone.dual_contains)):
        turned = _oriented(vec, member, RATIONAL_MODE)
        if turned is None:
            raise NotErgodicError(
                "no sign of the Perron eigenvector lies in the cone",
                x0=np.array([float(v) for v in (out[0] if out else vec)]))
        out.append(turned)
    x0, y0 = out
    if sum(x * y for x, y in zip(x0, y0)) == 0:
        raise NotErgodicError(
            "stationary and dual stationary vectors are orthogonal",
            x0=np.array([float(v) for v in x0]),
            y0=np.array([float(v) for v in y0]), pairing=0.0, geometric=1)
    scale = sum(abs(v) for v in x0)
    x0 = [v / scale for v in x0]
    pairing = sum(x * y for x, y in zip(x0, y0))
    return x0, [v / pairing for v in y0]


def reference_stationary_float(a, mode=FLOAT_MODE):
    """Float pair from the l1-normalized Perron vectors of the map and its
    transpose, sign-tested like the exact pair; y0 scaled to
    <y0, x0> = 1, and |<y0, x0>| <= 1e-9 counts as orthogonal."""
    geom = a.spectrum.peak_pair(mode).geometric
    if geom != 1:
        raise NotErgodicError(
            f"spectral radius has geometric multiplicity {geom}" if geom
            else "spectral radius is not an eigenvalue", geometric=geom)
    out = []
    for v, member in zip(a.spectrum.perron_vectors,
                         (a.cone.contains, a.cone.dual_contains)):
        turned = _oriented(v, member, mode)
        if turned is None:
            raise NotErgodicError(
                "no sign of the Perron eigenvector lies in the cone",
                x0=out[0] if out else v)
        out.append(turned)
    x0, y0 = out
    pairing = float(y0 @ x0)
    if abs(pairing) <= 1e-9:
        raise NotErgodicError(
            "stationary and dual stationary vectors are orthogonal",
            x0=x0, y0=y0, pairing=pairing, geometric=1)
    return x0, y0 / pairing


def reference_interior_pair(a, mode=FLOAT_MODE):
    """The interior-pair route on an ergodic (or mixing) base verdict:
    exact membership of the exact pair, else a three-tolerance probe of
    the float pair; a cone that cannot answer gives a marginal False."""
    a.spectrum.positive_r()
    cone = a.cone
    try:
        if a.spectrum.r_exact is not None:
            x0, y0 = reference_stationary_exact(a)
            return Route(cone.interior_contains(x0, RATIONAL_MODE)
                         and cone.interior_dual_contains(y0, RATIONAL_MODE),
                         True)
        x0, y0 = reference_stationary_float(a, mode)
        return _margin_probe(
            lambda m: (cone.interior_contains(x0, m)
                       and cone.interior_dual_contains(y0, m)), mode)
    except NotErgodicError:
        return Route(False, a.exact is not None)
    except UnsupportedConeOperation:
        return Route(False, False, marginal=True)


def reference_reachability_float(a, gens, dual_gens, mode=FLOAT_MODE):
    """Float reachability with one matrix-vector product per generator per
    step: every (generator, dual generator) pair must pair strictly
    positively within d - 1 applications of the map."""
    duals_f = np.array([[float(v) for v in h] for h in dual_gens])
    traces = []
    for g in gens:
        v = np.array([float(x) for x in g])
        dots, norms = [], []
        for _ in range(a.dim):
            dots.append(duals_f @ v)
            norms.append([max(1e-300, float(np.linalg.norm(v)))])
            v = a.matrix @ v
        traces.append((np.array(dots), np.array(norms)))
    return _margin_probe(
        lambda m: all(bool(np.all(np.any(dots > m.eps_interior * norms,
                                         axis=0)))
                      for dots, norms in traces), mode)


def reference_generator_routes_exact(a, gens, dual_gens):
    """The exact binomial-power and reachability verdicts over Fractions,
    on A itself: ``(I + A)^(d-1) g`` interior for every generator g, and
    every (generator, dual generator) pair pairing positively within
    d - 1 applications of A."""
    own = np.array(a.exact, dtype=object)
    power = np.linalg.matrix_power(np.eye(a.dim, dtype=object) + own,
                                   a.dim - 1)
    binomial = all(a.cone.interior_contains(power @ np.array(g, dtype=object))
                   for g in gens)
    reachable = True
    for g in gens:
        v = np.array(g, dtype=object)
        hit = [False] * len(dual_gens)
        for _ in range(a.dim):
            hit = [was or sum(x * y for x, y in zip(h, v)) > 0
                   for was, h in zip(hit, dual_gens)]
            v = own @ v
        reachable = reachable and all(hit)
    return binomial, reachable


# ---------------------------------------------------------------------------
# the generator routes for irreducibility that the face-lattice routes
# replaced, kept as references
# ---------------------------------------------------------------------------

def _binomial_power_route(a, gens, mode):
    """(I + A)^(d-1) sends every extremal generator to the interior.  An
    exact map runs on integers: a positive multiple of I + A and of each
    generator moves no image across the cone's boundary."""
    if a.exact is None:
        step, gens = np.eye(a.dim) + a.matrix, np.array(gens, dtype=float)
    else:
        step = _shift(a.integer.N, -a.integer.D)
        gens = _integer_rows(gens)
    power = np.linalg.matrix_power(step, a.dim - 1)
    images = [power @ g for g in gens]
    return _margin_probe(
        lambda m: all(a.cone.interior_contains(x, m) for x in images),
        mode, a.exact is not None)


def _reachability_route(a, gens, dual_gens, mode):
    """Every (generator, dual generator) pair has a strictly positive
    pairing within d-1 applications of the map (support reachability).
    An exact map runs on integers, positive multiples of the map and of
    each generator and dual generator, which keep every pairing's sign."""
    d = a.dim
    if a.exact is not None:
        step = a.integer.N
        duals = _integer_rows(dual_gens)
        for v in _integer_rows(gens):
            hit = np.zeros(len(duals), dtype=bool)
            for _ in range(d):
                hit |= duals @ v > 0
                if hit.all():
                    break
                v = step @ v
            if not hit.all():
                return Route(False, True)
        return Route(True, True)

    duals_f = np.array(dual_gens, dtype=float)
    # pairings with the dual generators (step, dual, generator), and the
    # norm (step, 1, generator), of the first d images of all generators
    images = np.array(gens, dtype=float).T
    dots, norms = [], []
    for _ in range(d):
        dots.append(duals_f @ images)
        norms.append(np.maximum(1e-300, np.linalg.norm(images, axis=0)))
        images = a.matrix @ images
    dots, norms = np.array(dots), np.array(norms)[:, None, :]
    return _margin_probe(
        lambda m: bool(np.all(np.any(dots > m.eps_interior * norms,
                                     axis=0))), mode)


def _integer_rows(rows):
    """Each row of Fractions times its own least common denominator."""
    return np.array([integer_form(row).N for row in rows], dtype=object)


def generator_route_references(a, mode=FLOAT_MODE):
    """``binomial-power`` and ``reachability`` on a map whose cone has
    finite ray lists, read in the map's arithmetic: Fractions for an exact
    map, floats otherwise."""
    if a.exact is None:
        gens, duals = a.cone.extremal_generators(), a.cone.dual_generators()
    else:
        gens = a.cone.exact_extremal_generators()
        duals = a.cone.exact_dual_generators()
    return {"binomial-power": _binomial_power_route(a, gens, mode),
            "reachability": _reachability_route(a, gens, duals, mode)}


def seeded_face_route_maps(seed):
    """(name, map) for cone-positive maps on ``seeded_polyhedral_cones``:
    sparse and dense ``generator_map`` weights, with and without an
    identity shift, plus the square rotation and its shift; exact and
    float, each followed by its adjoint."""
    rng = np.random.default_rng(seed)
    rotation = [[1, 0, 0], [0, 0, -1], [0, 1, 0]]
    for name, cone in seeded_polyhedral_cones(rng).items():
        gens = cone.exact_extremal_generators()
        duals = cone.exact_dual_generators()
        mats = {}
        for k in range(3):
            # sum w_ij g_i h_j^T, a quarter of the weights w_ij nonzero
            w = rng.integers(1, 4, size=(len(gens), len(duals))) \
                * (rng.random((len(gens), len(duals))) < 0.25)
            m = np.array(gens, dtype=object).T @ w.astype(object) \
                @ np.array(duals, dtype=object)
            mats[f"sparse-{k}"] = m.tolist()
            mats[f"sparse-id-{k}"] = (m + np.eye(cone.dim, dtype=int)).tolist()
            mats[f"dense-{k}"] = generator_map(rng, gens, duals)
        if name == "square":
            mats["rotation"] = rotation
            mats["rotation-id"] = [[v + (i == j) for j, v in enumerate(row)]
                                   for i, row in enumerate(rotation)]
        for label, m in mats.items():
            for a in (from_matrix(m, cone), from_matrix(to_float_rows(m),
                                                        cone)):
                kind = "exact" if a.exact is not None else "float"
                yield f"{name}:{label}:{kind}", a
                yield f"{name}:{label}:{kind}:adjoint", adjoint(a)
