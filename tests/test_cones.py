from fractions import Fraction
from functools import cache

import numpy as np
import pytest

import conemix.cones
from conemix import (
    DimensionMismatchError,
    FLOAT_MODE,
    HermBasis,
    InvalidUnitError,
    Orthant,
    Polyhedral,
    Psd,
    RATIONAL_MODE,
    TensorCone,
    UnsupportedConeOperation,
    adjoint,
    classify,
    from_matrix,
    is_positive,
    validate_unit,
)
from conemix.cli import report_to_dict
from conemix.linalg import _primitive, exact_rank, integer_form
from helpers import CONE_QUERIES, cyclic_polytope_generators, \
    generator_map, reference_cone_queries, reference_float_cone_queries, \
    reference_tensor_inner, route_corpus, scaled_cone, \
    seeded_polyhedral_cones, seeded_simplicial_pairs


def test_orthant_membership():
    cone = Orthant(2)
    assert cone.contains([1, 0])
    assert not cone.contains([-1, 1])
    assert not cone.interior_contains([1, 0])
    assert cone.interior_contains([1, 2])


def test_orthant_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        Orthant(2).contains([1, 2, 3])


def test_psd_membership():
    cone = Psd(2)
    vec = cone.basis.vec
    assert not cone.contains(vec(np.diag([1.0, -1.0])))
    assert cone.interior_contains(vec(np.eye(2)))
    assert cone.contains(vec(np.diag([1.0, 0.0])))
    assert not cone.interior_contains(vec(np.diag([1.0, 0.0])))


def test_herm_basis_orthonormal():
    for h in (1, 2, 3):
        basis = HermBasis(h)
        gram = np.array([[np.trace(a @ b).real for b in basis.mats]
                         for a in basis.mats])
        np.testing.assert_allclose(gram, np.eye(h * h), atol=1e-12)
        for m in basis.mats:
            np.testing.assert_allclose(m, m.conj().T, atol=1e-12)


def test_herm_basis_roundtrip():
    rng = np.random.default_rng(11)
    basis = HermBasis(3)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    herm = (g + g.conj().T) / 2
    np.testing.assert_allclose(basis.mat(basis.vec(herm)), herm, atol=1e-12)


def test_polyhedral_dual_membership():
    cone = Polyhedral([[1, 0], [1, 1]])
    assert cone.dual_contains([0, 1])
    assert not cone.dual_contains([-1, 2])


def test_polyhedral_membership_via_dual_rays():
    cone = Polyhedral([[1, 0], [1, 1]])
    assert cone.contains([2, 1])          # between the generators
    assert not cone.contains([0, 1])      # outside (above the steep ray)
    assert cone.interior_contains([3, 1])
    assert not cone.interior_contains([1, 1])  # on a generator ray


def test_polyhedral_exact_queries():
    cone = Polyhedral([[1, 0], [1, 1]])
    assert cone.contains([Fraction(1), Fraction(1)], RATIONAL_MODE)
    assert not cone.interior_contains([Fraction(1), Fraction(1)],
                                      RATIONAL_MODE)


SQUARE = [[1, 1, 1], [1, -1, 1], [1, -1, -1], [1, 1, -1]]
TRIANGLE = [[1, 0, 0], [1, 1, 0], [1, 0, 1]]


@cache
def _query_cones():
    """Cones whose generators are all extreme rays: the seeded polyhedral
    cones, scaled ones, one of non-integer Fraction generators, triangle
    (x) square tensor cones in both orders, and the duals of all."""
    rng = np.random.default_rng(21)
    cones = seeded_polyhedral_cones(rng)
    cones["scaled-square"] = scaled_cone(rng, SQUARE)
    cones["scaled-cyclic-5"] = scaled_cone(
        rng, cyclic_polytope_generators(rng, 5, 7))
    # rays over points of a parabola, with unequal denominators
    cones["fraction-parabola"] = Polyhedral(
        [[Fraction(1, 2), Fraction(t, 3), Fraction(t * t, 10 ** 20 + 1)]
         for t in (-2, -1, 0, 1, 3)])
    cones["fraction(x)triangle"] = TensorCone(
        cones["fraction-parabola"], scaled_cone(rng, TRIANGLE))
    cones["square(x)triangle"] = TensorCone(scaled_cone(rng, SQUARE),
                                            scaled_cone(rng, TRIANGLE))
    cones.update({f"{name}-dual": cone.dual()
                  for name, cone in list(cones.items())})
    return cones


def _query_vectors(cone, rng):
    """Exact vectors (Fraction lists) for the query checks, negated too:
    extreme rays and dual rays (a dot product exactly 0), each moved off
    its face by 10^-40 of the ray sum, scaled past 2^64, and random ones
    with denominators up to 10^40."""
    gens = cone.exact_extremal_generators()
    duals = cone.exact_dual_generators()
    tiny, big = Fraction(1, 10 ** 40), 2 ** 64 + 1
    vectors = []
    for rays in (gens, duals):
        center = [sum(col) for col in zip(*rays)]
        vectors.append(center)
        for ray in rays[:3]:
            vectors += [ray,
                        [v + tiny * c for v, c in zip(ray, center)],
                        [v - tiny * c for v, c in zip(ray, center)],
                        [big * v + c for v, c in zip(ray, center)],
                        [3 ** 50 * v - tiny * c for v, c in zip(ray, center)]]
    for _ in range(4):
        vectors.append([Fraction(int(rng.integers(-50, 51)),
                                 10 ** int(rng.integers(0, 41)))
                        for _ in range(cone.dim)])
        weights = [Fraction(int(rng.integers(0, 9)),
                            10 ** int(rng.integers(0, 41))) for _ in gens]
        vectors.append([sum(w * g[i] for w, g in zip(weights, gens))
                        for i in range(cone.dim)])
    return vectors + [[-v for v in x] for x in vectors]


@cache
def _query_cases():
    rng = np.random.default_rng(22)
    return {name: _query_vectors(cone, rng)
            for name, cone in _query_cones().items()}


@pytest.mark.parametrize("name", sorted(_query_cones()))
def test_exact_queries_match_fraction_reference(name):
    cone = _query_cones()[name]
    for x in _query_cases()[name]:
        want = reference_cone_queries(cone, x)
        floats = reference_float_cone_queries(cone, x)
        for query in CONE_QUERIES:
            ask = getattr(cone, query)
            assert ask(x) == want[query], (name, query, x)
            assert ask(np.array(x, dtype=object)) == want[query]
            assert ask([str(v) for v in x]) == want[query]
            assert ask(np.array(x, dtype=float)) == floats[query], \
                (name, query, x)
    # extreme rays lie on the boundary of the cone, dual rays on that of
    # the dual: a dot product is exactly 0
    for ray in cone.exact_extremal_generators():
        assert cone.contains(ray) and not cone.interior_contains(ray)
    for ray in cone.exact_dual_generators():
        assert cone.dual_contains(ray)
        assert not cone.interior_dual_contains(ray)


@pytest.fixture
def fraction_products(monkeypatch):
    """Names of the Fraction multiplications made while it is active."""
    calls = []
    for name in ("__mul__", "__rmul__"):
        def counting(a, b, _name=name, _original=getattr(Fraction, name)):
            calls.append(_name)
            return _original(a, b)
        monkeypatch.setattr(Fraction, name, counting)
    return calls


def test_exact_cone_queries_multiply_no_fractions(fraction_products):
    cases = _query_cases()
    rng = np.random.default_rng(23)
    maps = []
    for cone in seeded_polyhedral_cones(rng).values():
        positive = generator_map(rng, cone.exact_extremal_generators(),
                                 cone.exact_dual_generators())
        mixed = [[Fraction(int(v), 7) for v in row]
                 for row in rng.integers(-3, 4, size=(cone.dim, cone.dim))]
        maps += [from_matrix([[v / 3 for v in row] for row in positive],
                             cone), from_matrix(mixed, cone)]
    fraction_products.clear()
    for name, cone in _query_cones().items():
        for x in cases[name]:
            for query in CONE_QUERIES:
                getattr(cone, query)(x)
    verdicts = [is_positive(a).value for a in maps]
    assert fraction_products == []
    assert verdicts.count("yes") == len(maps) // 2
    # the count sees a Fraction dot product, so the empty one is not vacuous
    reference_cone_queries(cone, x)
    assert fraction_products


def test_extremal_generators():
    assert len(Orthant(3).extremal_generators()) == 3
    cone = Polyhedral([[1, 0], [0, 1], [1, 1]])
    extremal = {tuple(int(v) for v in g)
                for g in cone.exact_extremal_generators()}
    assert extremal == {(1, 0), (0, 1)}
    with pytest.raises(UnsupportedConeOperation):
        Psd(2).extremal_generators()


@cache
def _finite_cones():
    cones = {"orthant-3": Orthant(3),
             "orthant(x)orthant": TensorCone(Orthant(2), Orthant(3))}
    for name, cone in seeded_polyhedral_cones(
            np.random.default_rng(8)).items():
        cones[name] = cone
        if name.startswith("cyclic"):
            cones[f"{name}-dual"] = cone.dual()
    return cones


@pytest.mark.parametrize("name", [
    "orthant-3", "orthant(x)orthant", "cyclic-4", "cyclic-4-dual",
    "cyclic-5", "cyclic-5-dual", "cyclic-6", "cyclic-6-dual",
    "triangle(x)square", "psd", "psd(x)orthant"])
def test_float_facts_derive_from_exact_rays(name):
    if name.startswith("psd"):
        cone = Psd(2) if name == "psd" else TensorCone(Psd(2), Orthant(2))
        with pytest.raises(UnsupportedConeOperation):
            cone.extremal_generators()
        return
    cone = _finite_cones()[name]
    floats = [g.tolist() for g in cone.extremal_generators()]
    assert floats == [[float(v) for v in g]
                      for g in cone.exact_extremal_generators()]
    if not isinstance(cone, TensorCone):
        rays = [[float(v) for v in y] for y in cone.exact_dual_generators()]
        assert cone.default_unit().tolist() == \
            np.sum(rays, axis=0).tolist()


def test_polyhedral_rejects_unpointed():
    with pytest.raises(ValueError):
        Polyhedral([[1, 0], [-1, 0], [0, 1]])


def test_polyhedral_rejects_degenerate_span():
    with pytest.raises(ValueError):
        Polyhedral([[1, 0], [2, 0]])


def test_tensor_product_interior_rule():
    cone = TensorCone(Orthant(2), Orthant(2))
    assert not cone.interior_contains(np.kron([1.0, 1.0], [1.0, 0.0]))
    assert cone.interior_contains(np.kron([1.0, 1.0], [1.0, 2.0]))


def test_tensor_interior_matches_factor_rule():
    rng = np.random.default_rng(12)
    left = Polyhedral([[1, 0], [1, 2]])
    cone = TensorCone(left, Orthant(2))
    for _ in range(50):
        a = rng.standard_normal(2)
        b = rng.standard_normal(2)
        if abs(a @ a) < 1e-12 or abs(b @ b) < 1e-12:
            continue
        product_rule = (left.interior_contains(a)
                        and Orthant(2).interior_contains(b)) or (
            left.interior_contains(-a)
            and Orthant(2).interior_contains(-b))
        assert cone.interior_contains(np.kron(a, b)) == product_rule


def test_tensor_membership_and_dual():
    cone = TensorCone(Orthant(2), Orthant(2))
    rng = np.random.default_rng(13)
    for _ in range(40):
        # conic combination of products stays in the cone and passes the
        # dual test against products of dual generators
        coeffs = rng.random(3)
        vecs = [np.kron(rng.random(2), rng.random(2)) for _ in range(3)]
        x = sum(c * v for c, v in zip(coeffs, vecs))
        assert cone.contains(x)
        assert all(y @ x >= -1e-12 for y in cone.extremal_generators())


def test_minimal_tensor_members_pass_product_dual_test():
    # members of the minimal tensor cone pair nonnegatively with every
    # product of dual generators
    rng = np.random.default_rng(16)
    left = Polyhedral([[1, 0], [1, 1]])
    right = Orthant(2)
    cone = TensorCone(left, right)
    dual_products = [np.kron(y, e) for y in left.dual().extremal_generators()
                     for e in right.extremal_generators()]
    for _ in range(40):
        terms = []
        for _ in range(3):
            a = left.extremal_generators()[rng.integers(2)] * rng.random()
            a = a + rng.random() * left.extremal_generators()[rng.integers(2)]
            b = rng.random(2)
            terms.append(np.kron(a, b))
        x = np.sum(terms, axis=0)
        assert cone.contains(x)
        assert all(y @ x >= -1e-12 for y in dual_products)


def test_tensor_psd_supports_products_only():
    cone = TensorCone(Psd(2), Psd(2))
    vec = Psd(2).basis.vec
    inside = np.kron(vec(np.eye(2)), vec(np.diag([1.0, 2.0])))
    assert cone.interior_contains(inside)
    boundary = np.kron(vec(np.eye(2)), vec(np.diag([1.0, 0.0])))
    assert not cone.interior_contains(boundary)
    # (-a) (x) (-b) = a (x) b: the product queries accept either sign
    negated = np.kron(-vec(np.eye(2)), -vec(np.diag([1.0, 2.0])))
    assert cone.contains(negated)
    assert cone.interior_contains(negated)
    assert cone.interior_dual_contains(negated)
    with pytest.raises(UnsupportedConeOperation):
        cone.dual_contains(negated)
    correlated = (np.kron(vec(np.diag([1.0, 0.0])), vec(np.diag([1.0, 0.0])))
                  + np.kron(vec(np.diag([0.0, 1.0])), vec(np.diag([0.0, 1.0]))))
    with pytest.raises(UnsupportedConeOperation):
        cone.contains(correlated)
    with pytest.raises(UnsupportedConeOperation):
        cone.extremal_generators()


def test_interior_implies_membership():
    rng = np.random.default_rng(14)
    cones = [Orthant(3), Psd(2), Polyhedral([[1, 0], [1, 1], [0, 1]]),
             TensorCone(Orthant(2), Orthant(2))]
    for cone in cones:
        hits = 0
        for _ in range(200):
            x = rng.standard_normal(cone.dim)
            if cone.interior_contains(x):
                hits += 1
                assert cone.contains(x)
        if isinstance(cone, Orthant):
            assert hits > 0


def test_self_duality():
    rng = np.random.default_rng(15)
    for cone in (Orthant(4), Psd(2)):
        for _ in range(100):
            x = rng.standard_normal(cone.dim)
            assert cone.contains(x) == cone.dual_contains(x)


def test_default_units_are_interior_dual():
    cones = [Orthant(3), Psd(2), Polyhedral([[1, 0], [1, 1]]),
             TensorCone(Orthant(2), Orthant(2))]
    for cone in cones:
        u = cone.default_unit()
        assert cone.interior_dual_contains(u)
        validate_unit(cone, u)


def test_validate_unit_rejects_boundary():
    with pytest.raises(InvalidUnitError):
        validate_unit(Orthant(2), [1, 0])


def test_dual_rays_of_orthant_are_axes():
    cone = Polyhedral([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    rays = {tuple(int(v) for v in y) for y in cone.exact_dual_generators()}
    assert rays == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_dual_ray_enumeration_nontrivial():
    # square-based cone in R^3: 4 generators, 4 facets
    cone = Polyhedral([[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]])
    rays = cone.exact_dual_generators()
    assert len(rays) == 4
    for y in rays:
        dots = [sum(a * b for a, b in zip(y, g)) for g in cone._gens]
        assert all(v >= 0 for v in dots)
        assert sum(1 for v in dots if v == 0) == 2  # each facet holds 2 rays


def _primitive_row(row):
    """A row of Fractions scaled to a primitive integer list."""
    return _primitive(integer_form(row).N)


def _rays(rows):
    return {tuple(_primitive_row(row)) for row in rows}


def test_dual_matches_brute_force_enumeration():
    for name, cone in seeded_polyhedral_cones(np.random.default_rng(6)).items():
        # the reference: enumerate the dual rays of K* from scratch
        brute = Polyhedral(cone.exact_dual_generators())
        dual = cone.dual()
        assert dual.dim == cone.dim, name
        assert dual.exact_extremal_generators() == \
            brute.exact_extremal_generators(), name
        assert _rays(dual.exact_dual_generators()) == \
            _rays(brute.exact_dual_generators()), name
        assert len(dual.exact_dual_generators()) == \
            len(brute.exact_dual_generators()), name
        # dual() runs no rank: the rays it takes over span
        assert exact_rank(integer_form(dual.exact_dual_generators()).N) \
            == dual.dim, name
        double = dual.dual()
        assert [list(map(int, g)) for g in double.exact_extremal_generators()] \
            == [_primitive_row(g) for g in cone.exact_extremal_generators()], \
            name
        assert double.exact_dual_generators() == cone.exact_dual_generators(), \
            name


def test_self_dual_cones_return_themselves():
    for cone in (Orthant(3), Psd(2), TensorCone(Orthant(2), Orthant(3))):
        assert cone.dual() is cone


def test_psd_operands_have_no_finite_generators():
    for cone in (Psd(2), TensorCone(Psd(2), Orthant(2))):
        with pytest.raises(UnsupportedConeOperation):
            cone.exact_extremal_generators()
        with pytest.raises(UnsupportedConeOperation):
            cone.exact_dual_generators()
    with pytest.raises(UnsupportedConeOperation):
        TensorCone(Psd(2), Orthant(2)).dual()


def test_simplicial_tensor_cone_matches_enumeration():
    names = set()
    for name, left, right in seeded_simplicial_pairs(
            np.random.default_rng(12)):
        names.add(name)
        cone = TensorCone(left, right)
        brute = reference_tensor_inner(left, right)
        assert cone.exact_extremal_generators() == \
            brute.exact_extremal_generators(), name
        for ours, ref in ((cone, brute), (cone.dual(), brute.dual())):
            # the product path runs no rank: products of spanning sets span
            assert exact_rank(integer_form(ours.exact_dual_generators()).N) \
                == ours.dim, name
            for rays in ("exact_extremal_generators",
                         "exact_dual_generators"):
                mine, theirs = getattr(ours, rays)(), getattr(ref, rays)()
                assert _rays(mine) == _rays(theirs), (name, rays)
                assert len(mine) == len(theirs), (name, rays)
        assert cone.exact_default_unit() == brute.exact_default_unit(), name
        assert cone.default_unit().tolist() == \
            brute.default_unit().tolist(), name
    assert {"triangle(x)cyclic-4", "cyclic-4(x)orthant",
            "square(x)wedge"} <= names
    assert len(names) == 20


def _counted(monkeypatch, name):
    calls = []
    original = getattr(conemix.cones, name)

    def counting(m):
        calls.append(len(m))
        return original(m)

    monkeypatch.setattr(conemix.cones, name, counting)
    return calls


@pytest.fixture
def kernel_calls(monkeypatch):
    return _counted(monkeypatch, "exact_kernel_basis")


@pytest.fixture
def rank_calls(monkeypatch):
    return _counted(monkeypatch, "exact_rank")


def test_simplicial_tensor_cones_enumerate_nothing(kernel_calls, rank_calls):
    triangle = Polyhedral([[1, 0, 0], [1, 1, 0], [1, 0, 1]])
    square = Polyhedral([[1, 1, 1], [1, -1, 1], [1, -1, -1], [1, 1, -1]])
    wedge = Polyhedral([[1, 1], [1, -1]])
    # the operands enumerate their own dual rays
    kernel_calls.clear()
    rank_calls.clear()
    for left, right in ((triangle, square), (wedge, wedge)):
        TensorCone(left, right).dual()
    assert kernel_calls == []
    assert rank_calls == []
    # the brute-force build of the same cone does enumerate and rank, so
    # the counts above are not vacuous
    reference_tensor_inner(wedge, wedge)
    assert kernel_calls
    assert rank_calls


def test_only_non_simplicial_pairs_enumerate(monkeypatch):
    triangle = Polyhedral([[1, 0, 0], [1, 1, 0], [1, 0, 1]])
    square = Polyhedral([[1, 1, 1], [1, -1, 1], [1, -1, -1], [1, 1, -1]])
    monkeypatch.setattr(Polyhedral, "MAX_SUBSETS", 0)
    TensorCone(triangle, square)
    with pytest.raises(ValueError, match="dual-ray enumeration"):
        TensorCone(square, square)


def test_simplicial_tensor_reports_match_enumeration():
    checked, brute = 0, None
    for name, a in route_corpus():
        if not name.startswith("triangle(x)square") or \
                name.endswith(":adjoint"):
            continue
        brute = brute or reference_tensor_inner(a.cone.left, a.cone.right)
        twin = from_matrix(a.exact if a.exact is not None else a.matrix,
                           brute)
        for ours, ref in ((a, twin), (adjoint(a), adjoint(twin))):
            assert report_to_dict(classify(ours), FLOAT_MODE) == \
                report_to_dict(classify(ref), FLOAT_MODE), name
            checked += 1
    assert checked == 8


def test_polyhedral_tensor_cones_have_a_size_cap():
    triangle = Polyhedral([[1, 0, 0], [1, 1, 0], [1, 0, 1]])
    cap = TensorCone.MAX_POLYHEDRAL_DIM
    with pytest.raises(ValueError, match="exceeds the cap"):
        TensorCone(triangle, Orthant(cap // 3 + 1))
    # refused before the classical operand lists its 10^12 ray entries
    with pytest.raises(ValueError, match="exceeds the cap"):
        TensorCone(TensorCone(Orthant(1000), Orthant(1000)), triangle)
    # orthant (x) orthant and PSD operands form no polyhedral inner cone
    assert TensorCone(Orthant(cap), Orthant(cap)).dim == cap * cap
    assert TensorCone(Psd(2), Orthant(cap)).dim == 4 * cap
