"""Shared random generators for the test corpora (all explicitly seeded),
and reference implementations that the fast routes are checked against."""

from fractions import Fraction

import numpy as np

from conemix import Digraph, MultiplicityPair, Polyhedral, TensorCone, \
    from_kraus, from_stochastic, strongly_connected, tensor_product_digraph


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


def reference_kron_peak_pair(matrix, mode):
    """Float multiplicities of r^2 on ``A (x) A``, from the eigenvalues and
    singular values of the full d^2 x d^2 square."""
    r = float(np.max(np.abs(np.linalg.eigvals(matrix))))
    big = np.kron(matrix, matrix) / (r * r)
    ev = np.linalg.eigvals(big)
    big[np.diag_indices_from(big)] -= 1.0
    sv = np.linalg.svd(big, compute_uv=False)
    algebraic = int(np.count_nonzero(np.abs(ev - 1.0) <= mode.eps_cluster))
    if algebraic == 0:
        return MultiplicityPair(0, 0)
    scale = (float(np.linalg.norm(matrix, 2)) / r) ** 2 + 1.0
    geometric = int(np.count_nonzero(sv <= mode.eps_rank * max(sv[0], scale)))
    return MultiplicityPair(max(1, min(geometric, algebraic)), algebraic)


def reference_kron_digraph_connected(pattern):
    """Strong connectivity of g (x) g, for g the digraph of a 0/1 pattern
    (edge i -> j iff ``pattern[j, i]``), by Tarjan on the product."""
    d = len(pattern)
    g = Digraph(d, tuple(tuple(int(j) for j in np.nonzero(pattern[:, i])[0])
                         for i in range(d)))
    return strongly_connected(tensor_product_digraph(g, g))
