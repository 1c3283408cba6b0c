import importlib
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conemix import (
    ColumnSumViolationError,
    Digraph,
    NotErgodicError,
    NotStronglyConnectedError,
    Orthant,
    Polyhedral,
    Psd,
    RATIONAL_MODE,
    TensorCone,
    ZeroSpectralRadiusError,
    adjoint,
    classify,
    digraph_of,
    from_kraus,
    from_matrix,
    from_stochastic,
    is_dup,
    is_ergodic,
    is_irreducible,
    is_mixing,
    is_positive,
    is_primitive,
    period,
    stationary_pair,
    strongly_connected,
)
from conemix.classify import irreducible_routes, mixing_routes, \
    primitive_routes
from conemix.cli import load_problem
from helpers import random_dense_stochastic, random_exact_chain, \
    random_kraus_channel, random_stochastic_map, route_corpus, \
    tensor_product_digraph, tensor_scc_count

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

CHAIN4 = [[0, 1, 0, 1], [Fraction(1, 2), 0, 0, 0],
          [Fraction(1, 2), 0, 0, 0], [0, 0, 1, 0]]


def shear():
    return from_matrix([[1, 1], [0, 1]], Orthant(2))


def lower_mixing():
    return from_matrix([[2, 0], [1, 1]], Orthant(2))


def swap_chain():
    return from_stochastic([[0, 1], [1, 0]])


def chain4():
    return from_stochastic(CHAIN4)


# ---------------------------------------------------------------------------
# stationary pairs
# ---------------------------------------------------------------------------

def test_stationary_pair_lower_triangular():
    x0, y0 = stationary_pair(lower_mixing())
    np.testing.assert_allclose(x0, [0.5, 0.5])
    np.testing.assert_allclose(y0, [2.0, 0.0])
    assert y0 @ x0 == pytest.approx(1.0)


def test_stationary_pair_shear_orthogonal():
    with pytest.raises(NotErgodicError) as info:
        stationary_pair(shear())
    err = info.value
    assert err.pairing == 0.0
    np.testing.assert_allclose(err.x0, [1.0, 0.0])
    np.testing.assert_allclose(err.y0, [0.0, 1.0])


def test_stationary_pair_swap_uniform():
    x0, y0 = stationary_pair(swap_chain())
    np.testing.assert_allclose(x0, [0.5, 0.5])
    np.testing.assert_allclose(y0, [1.0, 1.0])


TWIN_STATIONARY = [
    # the dual Perron vector (1, -1) leaves the cone; both report x0
    ([[1, Fraction(-1, 2)], [0, Fraction(1, 2)]], [1.0, 0.0], None),
    # no sign of the Perron vector (2, -1) lies in the cone: l1-normalized
    ([[1, -2], [-1, 0]], [2 / 3, -1 / 3], None),
    # an orthogonal pair, both l1-normalized
    ([[0, 0, 0], [Fraction(1, 2), 1, Fraction(-1, 2)], [1, 0, 1]],
     [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]),
]


def test_float_and_exact_twins_report_the_same_stationary():
    for m, stationary, dual in TWIN_STATIONARY:
        cone = Orthant(len(m))
        exact = classify(from_matrix(m, cone))
        floats = classify(from_matrix(np.array(m, dtype=float), cone))
        np.testing.assert_allclose(exact.stationary, stationary, atol=1e-15)
        np.testing.assert_allclose(floats.stationary, exact.stationary,
                                   atol=1e-12)
        if dual is None:
            assert exact.dual_stationary is floats.dual_stationary is None
        else:
            np.testing.assert_allclose(exact.dual_stationary, dual,
                                       atol=1e-15)
            np.testing.assert_allclose(floats.dual_stationary,
                                       exact.dual_stationary, atol=1e-12)


def test_stationary_pair_identity_multiplicity():
    with pytest.raises(NotErgodicError) as info:
        stationary_pair(from_stochastic([[1, 0], [0, 1]]))
    assert info.value.geometric == 2


def test_stationary_pair_zero_radius():
    with pytest.raises(ZeroSpectralRadiusError):
        stationary_pair(from_matrix([[0, 1], [0, 0]], Orthant(2)))


# ---------------------------------------------------------------------------
# the four verdicts on the named maps
# ---------------------------------------------------------------------------

def test_shear_is_nothing():
    a = shear()
    assert not is_ergodic(a)
    assert not is_mixing(a)
    assert not is_irreducible(a)
    assert not is_primitive(a)


def test_lower_triangular_is_mixing_not_irreducible():
    a = lower_mixing()
    assert is_ergodic(a)
    assert is_mixing(a)
    assert not is_irreducible(a)
    assert not is_primitive(a)


def test_swap_is_ergodic_not_mixing():
    a = swap_chain()
    assert is_ergodic(a)
    assert not is_mixing(a)
    assert is_irreducible(a)
    assert not is_primitive(a)


def test_swap_kron_kernel_dimension():
    from conemix import linalg
    a = swap_chain()
    n, d = a.integer
    shifted = linalg._shift(np.kron(n, n), d * d)
    assert 4 - linalg.exact_rank(shifted) == 2


def test_chain4_is_primitive():
    a = chain4()
    assert is_ergodic(a)
    assert is_mixing(a)
    assert is_irreducible(a)
    assert is_primitive(a)


def test_deformation_pair():
    full = from_matrix([[2, 1], [0, 1]], Orthant(2))
    assert is_mixing(full)
    halved = from_matrix([[1, 1], [0, 1]], Orthant(2))
    assert not is_ergodic(halved)


def test_identity_not_irreducible():
    a = from_stochastic([[1, 0], [0, 1]])
    assert not is_ergodic(a)
    assert not is_irreducible(a)


def test_zero_radius_raises():
    nil = from_matrix([[0, 1], [0, 0]], Orthant(2))
    with pytest.raises(ZeroSpectralRadiusError):
        is_ergodic(nil)


# ---------------------------------------------------------------------------
# digraph criteria
# ---------------------------------------------------------------------------

def test_digraph_edges_follow_columns():
    g = digraph_of(chain4())
    assert set(g.edges()) == {(0, 1), (0, 2), (1, 0), (2, 3), (3, 0)}


def test_digraph_routes_need_positivity_yes():
    # [[-1]] leaves the orthant; one vertex counts as strongly connected,
    # so a digraph route would call it irreducible against the interior
    # pair, which finds no stationary pair
    for m in ([[-1]], np.array([[-1.0]])):
        a = from_matrix(m, Orthant(1))
        report = classify(a)
        assert report.positivity.value == "no"
        assert [c for c in report.criteria_fired
                if c.startswith(("irreducible:", "primitive:"))] == \
            ["irreducible:interior-pair", "primitive:interior-pair"]
        assert not [f for f in report.hypothesis_flags
                    if f.startswith("route-disagreement")]
        assert not (report.irreducible or report.primitive)
        assert list(irreducible_routes(a)) == ["interior-pair"]
        assert list(primitive_routes(a)) == ["interior-pair"]
    assert "irreducible:digraph" in classify(chain4()).criteria_fired


def test_strongly_connected_examples():
    assert strongly_connected(digraph_of(chain4()))
    assert not strongly_connected(digraph_of(shear()))
    assert strongly_connected(Digraph(1, ((0,),)))


def test_period_examples():
    assert period(digraph_of(chain4())) == 1
    assert period(Digraph(2, ((1,), (0,)))) == 2
    assert period(Digraph(1, ((0,),))) == 1
    with pytest.raises(NotStronglyConnectedError):
        period(digraph_of(shear()))
    with pytest.raises(NotStronglyConnectedError):  # no cycles at all
        period(Digraph(1, ((),)))


def test_tensor_scc_count_examples():
    assert tensor_scc_count(digraph_of(chain4())) == 1
    assert tensor_scc_count(Digraph(2, ((1,), (0,)))) == 2
    cycle3 = Digraph(3, ((1,), (2,), (0,)))
    assert tensor_scc_count(cycle3) == 3
    with pytest.raises(NotStronglyConnectedError):
        tensor_scc_count(digraph_of(shear()))


def test_tensor_product_digraph_edges():
    g = Digraph(2, ((1,), (0,)))
    t = tensor_product_digraph(g, g)
    assert set(t.edges()) == {(0, 3), (3, 0), (1, 2), (2, 1)}


# ---------------------------------------------------------------------------
# full reports
# ---------------------------------------------------------------------------

def test_classify_shear_report():
    rep = classify(shear())
    assert rep.verdicts() == {"ergodic": False, "mixing": False,
                              "irreducible": False, "primitive": False}
    assert rep.multiplicity_r == (1, 2)
    assert rep.pairing == 0.0
    assert rep.r == pytest.approx(1.0)


def test_classify_lower_triangular_report():
    rep = classify(lower_mixing())
    assert rep.verdicts() == {"ergodic": True, "mixing": True,
                              "irreducible": False, "primitive": False}
    assert rep.r == pytest.approx(2.0, abs=1e-10)
    assert "dual-stationary-on-boundary" in rep.hypothesis_flags
    assert rep.gap_ratio == pytest.approx(0.5)


def test_exact_map_tests_its_dual_pair_in_exact_arithmetic():
    # the dual stationary vector is (1, d) up to scale: interior, but
    # nearer the boundary than the float tolerance
    d = Fraction(1, 10 ** 12)
    rows = [[1 - d, d / 2], [1, Fraction(1, 2)]]
    exact = classify(from_matrix(rows, Orthant(2)))
    twin = classify(from_matrix(np.array(rows, dtype=float), Orthant(2)))
    assert exact.verdicts() == dict.fromkeys(
        ("ergodic", "mixing", "irreducible", "primitive"), True)
    assert "dual-stationary-on-boundary" not in exact.hypothesis_flags
    assert twin.verdicts() == {"ergodic": True, "mixing": True,
                               "irreducible": False, "primitive": False}
    assert "dual-stationary-on-boundary" in twin.hypothesis_flags


def test_classify_depolarizing_channel():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]])
    z = np.diag([1.0, -1.0]).astype(complex)
    a = from_kraus([0.5 * np.eye(2), 0.5 * x, 0.5 * y, 0.5 * z])
    rep = classify(a)
    assert rep.verdicts() == {"ergodic": True, "mixing": True,
                              "irreducible": True, "primitive": True}
    # stationary state is proportional to the maximally mixed one
    state = a.cone.basis.mat(rep.stationary)
    np.testing.assert_allclose(state, np.eye(2) * state[0, 0], atol=1e-9)
    assert state[0, 0].real > 0


def test_classify_reports_positivity_violation():
    rep = classify(from_matrix([[1, -1], [0, 1]], Orthant(2)))
    assert rep.positivity.value == "no"
    assert any(f.startswith("positivity-no") for f in rep.hypothesis_flags)


def test_classify_nilpotent_map():
    # the second is the 6x6 shift conjugated by integer shears, whose
    # float radius is near 4e-3
    for rows in ([[0, 1], [0, 0]],
                 [[5, -7, 0, 4, -11, -8], [1, -4, 1, 1, 0, -1],
                  [2, -14, 9, -6, 13, 1], [2, -7, 2, 1, 0, -2],
                  [0, 4, -5, 6, -9, -2], [3, -10, 7, -6, 6, -2]]):
        rep = classify(from_matrix(rows, Orthant(len(rows))))
        assert rep.r == 0.0
        assert not any(rep.verdicts().values())
        assert "zero-spectral-radius: the map is nilpotent" in \
            rep.hypothesis_flags


def _shear_conjugated_shifts(rng, count):
    """Integer maps S N S^-1 for the shift N and unimodular shears S:
    nilpotent, with integer powers that float arithmetic computes exactly."""
    for k in range(count):
        d = 3 + k % 4
        p = np.eye(d, dtype=np.int64)
        for _ in range(3):
            i, j = rng.choice(d, size=2, replace=False)
            shear = np.eye(d, dtype=np.int64)
            shear[i, j] = rng.integers(-2, 3)
            p = p @ shear
        p_inv = np.rint(np.linalg.inv(p)).astype(np.int64)
        yield p @ np.eye(d, k=1, dtype=np.int64) @ p_inv


def test_float_nilpotent_maps_have_zero_radius():
    # LAPACK puts some of their float radii as high as 4e-3
    maps = [np.array([[-24, -64], [9, 24]]),
            np.array([[5, -7, 0, 4, -11, -8], [1, -4, 1, 1, 0, -1],
                      [2, -14, 9, -6, 13, 1], [2, -7, 2, 1, 0, -2],
                      [0, 4, -5, 6, -9, -2], [3, -10, 7, -6, 6, -2]])]
    maps += _shear_conjugated_shifts(np.random.default_rng(2024), 20)
    for m in maps:
        rep = classify(from_matrix(m.astype(float), Orthant(len(m))))
        assert rep.r == 0.0
        assert not any(rep.verdicts().values())
        assert "zero-spectral-radius: the map is nilpotent" in \
            rep.hypothesis_flags


@pytest.mark.parametrize("rows", [[[-1]], [[-2]], [[-2, 0], [0, 1]]],
                         ids=["minus-1", "minus-2", "diag-minus-2-1"])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_peak_other_than_r_is_not_mixing(rows, exact):
    # the only eigenvalue of modulus r is -r, so r^2 is a simple eigenvalue
    # of the Kronecker square although r is no eigenvalue at all
    data = rows if exact else np.array(rows, dtype=float)
    a = from_matrix(data, Orthant(len(rows)))
    routes = mixing_routes(a)
    assert not routes["kron-geometric"]
    assert not routes["spectral-gap"]
    rep = classify(a)
    assert not rep.ergodic and not rep.mixing
    assert not any(f.startswith("lattice-correction")
                   for f in rep.hypothesis_flags)


def test_classify_lattice_holds_on_random_corpus():
    rng = np.random.default_rng(31)
    for _ in range(40):
        d = int(rng.integers(2, 5))
        rep = classify(random_stochastic_map(rng, d))
        v = rep.verdicts()
        if v["primitive"]:
            assert v["mixing"] and v["irreducible"]
        if v["mixing"] or v["irreducible"]:
            assert v["ergodic"]
        assert not any(f.startswith("route-disagreement")
                       for f in rep.hypothesis_flags)


def test_adjoint_preserves_ergodicity_and_swaps_pair():
    rng = np.random.default_rng(32)
    checked = 0
    for _ in range(30):
        a = random_stochastic_map(rng, 3)
        if not is_ergodic(a):
            continue
        adj = adjoint(a)
        assert is_ergodic(adj)
        x0, y0 = stationary_pair(a)
        xa, ya = stationary_pair(adj)
        # the adjoint's stationary direction is the dual one of the map
        assert abs(abs(np.dot(xa, y0)) - np.linalg.norm(xa)
                   * np.linalg.norm(y0)) < 1e-8
        assert abs(abs(np.dot(ya, x0)) - np.linalg.norm(ya)
                   * np.linalg.norm(x0)) < 1e-8
        checked += 1
    assert checked >= 10


def test_deformation_preserves_irreducibility_and_primitivity():
    rng = np.random.default_rng(33)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        a = random_stochastic_map(rng, d)
        rep = classify(a)
        if not rep.irreducible:
            continue
        # split entrywise into two nonnegative parts, reweight positively
        mask = [[Fraction(int(rng.integers(1, 4)), 4) for _ in range(d)]
                for _ in range(d)]
        w1, w2 = Fraction(int(rng.integers(1, 5))), Fraction(
            int(rng.integers(1, 5)))
        part1 = [[a.exact[i][j] * mask[i][j] for j in range(d)]
                 for i in range(d)]
        part2 = [[a.exact[i][j] * (1 - mask[i][j]) for j in range(d)]
                 for i in range(d)]
        deformed = [[w1 * part1[i][j] + w2 * part2[i][j] for j in range(d)]
                    for i in range(d)]
        b = from_matrix(deformed, Orthant(d))
        assert is_irreducible(b)
        if rep.primitive:
            assert is_primitive(b)


def test_polyhedral_cone_routes_agree():
    cone = Polyhedral([[1, 0], [1, 1]])
    positive_def = from_matrix([[2, 1], [1, 1]], cone)
    for routes, face in ((irreducible_routes(positive_def), "face-closure"),
                         (primitive_routes(positive_def), "face-orbit")):
        assert set(routes) == {"interior-pair", face}
        assert all(r.value for r in routes.values())
        assert routes[face].exact
    assert is_irreducible(positive_def)
    assert is_primitive(positive_def)

    ident = from_matrix([[1, 0], [0, 1]], cone)
    for routes in (irreducible_routes(ident), primitive_routes(ident)):
        assert len(routes) == 2
        assert not any(r.value for r in routes.values())


def test_primitive_iff_tensor_square_irreducible_on_wedge():
    # the tensor-square characterization of primitivity, exercised on a
    # polyhedral cone where the product cone stays finitely generated
    wedge = Polyhedral([[1, 0], [1, 1]])
    tensor = TensorCone(wedge, wedge)
    cases = ([[2, 1], [1, 1]], [[1, 0], [0, 1]], [[3, 0], [1, 1]])
    for m in cases:
        a = from_matrix(m, wedge)
        exact = np.array(m, dtype=object)
        big = from_matrix(np.kron(exact, exact), tensor)
        assert is_primitive(a) == is_irreducible(big)
    # cone-dependence: this map is primitive on the wedge but its dual
    # Perron vector sits on the orthant's boundary
    assert is_primitive(from_matrix([[3, 0], [1, 1]], wedge))
    assert not is_primitive(from_matrix([[3, 0], [1, 1]], Orthant(2)))


def test_route_agreement_on_nonnegative_matrices():
    # irreducibility routes agree beyond stochastic matrices
    from fractions import Fraction as F
    rng = np.random.default_rng(36)
    for _ in range(60):
        d = int(rng.integers(2, 5))
        rows = [[F(int(rng.integers(0, 5)), int(rng.integers(1, 4)))
                 if rng.random() < 0.6 else F(0) for _ in range(d)]
                for _ in range(d)]
        if all(v == 0 for row in rows for v in row):
            continue
        a = from_matrix(rows, Orthant(d))
        try:
            routes = irreducible_routes(a)
        except ZeroSpectralRadiusError:
            continue
        assert len({r.value for r in routes.values()}) == 1, rows


def test_quantum_kron_of_mixing_channels_is_mixing():
    rng = np.random.default_rng(34)
    a = random_kraus_channel(rng, 2)
    b = random_kraus_channel(rng, 2)
    assert is_mixing(a) and is_mixing(b)
    cone = TensorCone(Psd(2), Psd(2))
    big = from_matrix(np.kron(a.matrix, b.matrix), cone)
    assert is_mixing(big)
    rep = classify(big)
    assert rep.mixing
    assert "positivity-unknown" in rep.hypothesis_flags


def test_interior_pair_that_cannot_run_is_skipped():
    # a PSD tensor cone decides interior membership of product vectors
    # only; the Perron vector of a dense random map is not one
    a = from_matrix(np.random.default_rng(3).random((16, 16)),
                    TensorCone(Psd(2), Psd(2)))
    route = irreducible_routes(a)["interior-pair"]
    assert (route.value, route.exact, route.marginal, route.skipped) == \
        (False, False, False, True)
    flags = classify(a).hypothesis_flags
    for family in ("irreducible", "primitive"):
        assert f"route-skipped:{family}:interior-pair" in flags
        assert f"tolerance-marginal:{family}:interior-pair" not in flags


def test_stationary_pair_eigen_residuals():
    rng = np.random.default_rng(37)
    checked = 0
    for _ in range(30):
        a = random_stochastic_map(rng, int(rng.integers(2, 5)))
        if not is_ergodic(a):
            continue
        x0, y0 = stationary_pair(a)
        r = classify(a).r
        assert np.linalg.norm(a.matrix @ x0 - r * x0) <= 1e-8
        assert np.linalg.norm(a.matrix.T @ y0 - r * y0) <= 1e-8
        assert y0 @ x0 == pytest.approx(1.0, abs=1e-10)
        checked += 1
    assert checked >= 10


def test_custom_unit_dup_map():
    # adjoint fixes the unit [2, 1]: a weighted conservation law
    a = from_matrix([["1/2", "1/4"], [1, "1/2"]], Orthant(2), unit=[2, 1])
    from conemix import is_dup
    assert is_dup(a)
    rep = classify(a)
    assert rep.r == pytest.approx(1.0, abs=1e-10)
    assert rep.ergodic and rep.mixing
    assert rep.dup


def test_dense_random_chains_are_primitive():
    rng = np.random.default_rng(35)
    for _ in range(10):
        a = random_dense_stochastic(rng, int(rng.integers(2, 6)))
        rep = classify(a)
        assert rep.primitive and rep.mixing and rep.irreducible and rep.ergodic


def test_mixing_routes_all_present_for_exact_dup():
    routes = mixing_routes(chain4())
    assert set(routes) == {"kron-fixed-space-dim", "kron-geometric",
                           "spectral-gap"}
    assert all(r.value for r in routes.values())


# ---------------------------------------------------------------------------
# a Jordan block at r that rounding splits past the snap window
# ---------------------------------------------------------------------------

#: maps on cyclic-polytope cones k (1, t, ..., t^(d-1)), given by their
#: (t, k) points, whose Jordan block at r LAPACK splits by about 1e-7 to
#: 1e-6 relative: the exact radius snap missed r, or snapped to a wrong
#: fraction, and the float routes counted one eigenvalue
SPLIT_PEAK_MAP = [[19, -12, 2, 0], [54, -35, 6, 0], [162, -108, 19, 0],
                  [486, -324, 54, 1]]
SPLIT_PEAK_CASES = [
    (SPLIT_PEAK_MAP, [(-5, 2), (-4, 1), (-3, 3), (-1, 1), (0, 3), (1, 2),
                      (2, 3), (3, 2)]),
    ([[83, 54, 9, 0], [-243, -160, -27, 0], [729, 486, 83, 0],
      [-2187, -1458, -243, 2]],
     [(-5, 3), (-4, 2), (-3, 3), (-2, 3), (1, 3), (2, 1), (3, 2), (4, 3)]),
    (SPLIT_PEAK_MAP, [(-4, 2), (-3, 2), (-2, 2), (0, 1), (1, 1), (3, 1),
                      (4, 2), (5, 3)]),
    ([[37, 36, 9, 0], [-72, -71, -18, 0], [144, 144, 37, 0],
      [-288, -288, -72, 1]],
     [(-4, 2), (-2, 3), (-1, 3), (1, 3), (2, 3), (3, 2), (4, 1), (5, 3)]),
    (SPLIT_PEAK_MAP, [(-4, 2), (-2, 2), (0, 3), (1, 1), (2, 1), (3, 2),
                      (4, 2), (5, 1)]),
    ([[1458, 0, -324, 0, 24, 0], [0, 0, 0, 0, -18, 0],
      [8748, 0, -1944, 0, 162, 0], [0, 0, 0, 0, -162, 0],
      [78732, 0, -17496, 0, 1458, 0], [0, 0, 0, 0, -1458, 0]],
     [(-3, 3), (-2, 1), (-1, 2), (0, 3), (1, 3), (2, 1), (3, 2)]),
    ([[60, 36, 6, 0], [-126, -72, -12, 0], [270, 144, 24, 0],
      [-594, -288, -48, 0]],
     [(-3, 3), (-2, 2), (-1, 1), (0, 2), (1, 3), (2, 1), (3, 3), (5, 1)]),
    (SPLIT_PEAK_MAP, [(-4, 3), (-3, 2), (-2, 3), (-1, 1), (0, 1), (3, 1),
                      (4, 3), (5, 3)]),
    (SPLIT_PEAK_MAP, [(-5, 2), (-3, 1), (-2, 3), (-1, 2), (0, 3), (2, 2),
                      (3, 1), (5, 3)]),
]


@pytest.mark.parametrize("matrix, points", SPLIT_PEAK_CASES)
def test_split_jordan_block_at_r_verdicts_agree(matrix, points):
    d = len(matrix)
    cone = Polyhedral([[k * t ** i for i in range(d)] for t, k in points])
    exact = from_matrix(matrix, cone)
    floats = from_matrix(np.array(matrix, dtype=float), cone)
    reports = [classify(exact, RATIONAL_MODE), classify(floats),
               classify(adjoint(exact), RATIONAL_MODE),
               classify(adjoint(floats))]
    assert exact.spectrum.r_exact is not None
    assert "ergodic:algebraic-multiplicity" in reports[0].criteria_fired
    assert all(r.verdicts() == reports[0].verdicts() for r in reports)
    for r in reports:
        assert not [f for f in r.hypothesis_flags
                    if f.startswith(("route-disagreement", "lattice"))]


def test_split_jordan_block_multiplicities():
    # eigenvalue 1 with one 2x2 Jordan block: algebraic 4, geometric 3;
    # LAPACK gives 1 +- 5.1e-7, 1, 1
    for m in (SPLIT_PEAK_MAP, np.array(SPLIT_PEAK_MAP, dtype=float)):
        a = from_matrix(m, Orthant(4))
        report = classify(a)
        assert report.multiplicity_r == (3, 4)
        assert report.multiplicity_r2_kron == (10, 16)
        assert not report.ergodic and not report.mixing
    assert from_matrix(SPLIT_PEAK_MAP, Orthant(4)).spectrum.r_exact == 1


def test_report_gives_the_verified_radius():
    # float radii 1 + 5.1e-7 (the split block) and 1 - 2e-16 (the chain);
    # both exact radii are 1, the block's of algebraic multiplicity 4, so
    # its second-largest modulus is 1 too
    split = classify(from_matrix(SPLIT_PEAK_MAP, Orthant(4)))
    assert (split.r, split.gap_ratio, split.multiplicity_r.algebraic) == \
        (1.0, 1.0, 4)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    chain = classify(from_stochastic([[half, half, 0], [half, 0, 3 * quarter],
                                      [0, half, quarter]]))
    assert chain.r == 1.0
    assert chain.multiplicity_r == (1, 1) and chain.gap_ratio < 1


# a simple r next to a distinct eigenvalue coupled to it: the rank profile
# at eps_rank reads one block of size 2, but the gap is wider than
# rounding can split a Jordan block of this norm, so r stays simple, in
# exact and float arithmetic alike
@pytest.mark.parametrize("gap, coupling", [
    (Fraction(1, 10 ** 6), 1), (Fraction(1, 10 ** 5), 1),
    (Fraction(1, 10 ** 4), 1), (Fraction(1, 10 ** 5), 100)])
def test_simple_peak_near_a_coupled_eigenvalue_is_not_split(gap, coupling):
    exact = [[1, coupling], [0, 1 - gap]]
    for m in (exact, np.array(exact, dtype=float)):
        a = from_matrix(m, Orthant(2))
        for report in (classify(a), classify(adjoint(a))):
            assert report.multiplicity_r == (1, 1)
            assert report.ergodic and report.mixing
            assert not [f for f in report.hypothesis_flags
                        if f.startswith(("route-disagreement", "lattice"))]


# ---------------------------------------------------------------------------
# classify decides each fact once
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make, digraph_facts, max_min_eig", [
    (chain4, 1, 0),
    (lambda: from_matrix([[2, 1], [1, 1]], Polyhedral([[1, 0], [1, 1]])),
     0, 0),
    (lambda: from_matrix(np.array([[2.0, 1.0], [1.0, 1.0]]),
                         Polyhedral([[1, 0], [1, 1]])), 0, 0),
    # the stationary pair's memberships, then one slack per vector
    (lambda: random_kraus_channel(np.random.default_rng(6), 3), 0, 4),
], ids=["chain", "wedge-exact", "wedge-float", "kraus"])
def test_classify_builds_each_fact_once(monkeypatch, make, digraph_facts,
                                        max_min_eig):
    cl = importlib.import_module("conemix.classify")
    a = make()
    calls = []
    for owner, name in ((cl, "_stationary"), (cl, "ergodic_routes"),
                        (cl, "mixing_routes"), (cl, "is_positive"),
                        (cl, "_pattern"),
                        (cl, "strongly_connected_components"),
                        (Psd, "_min_eig")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _fn=fn, _name=name:
                            calls.append(_name) or _fn(*args))
    report = classify(a)
    assert report.ergodic and report.primitive
    assert sorted(c for c in calls if c != "_min_eig") == sorted(
        ["_stationary", "ergodic_routes", "is_positive", "mixing_routes"]
        + ["_pattern", "strongly_connected_components"] * digraph_facts)
    assert calls.count("_min_eig") <= max_min_eig


# float maps near the clustering cutoff: eigenvalues 1 and 1 - 2e, so the
# eps_cluster = 1e-7 probes at 1e-8, 1e-7 and 1e-6 straddle the gap
NEAR_IDENTITY_FLAGS = {
    3e-8: (False, [
        "tolerance-marginal:ergodic:eigenvalue-cluster",
        "tolerance-marginal:mixing:spectral-gap",
        "route-disagreement:mixing:kron-geometric=True,spectral-gap=False",
        "route-disagreement:irreducible:digraph=True,interior-pair=False",
        "lattice-correction:mixing-without-ergodic",
        "lattice-correction:primitive-needs-mixing-irreducible"]),
    1e-9: (False, [
        "tolerance-marginal:mixing:kron-geometric",
        "route-disagreement:irreducible:digraph=True,interior-pair=False",
        "route-disagreement:primitive:aperiodic=True,interior-pair=False,"
        "kron-digraph=True",
        "no-stationary-pair: spectral radius has geometric multiplicity 2"]),
    2e-7: (True, ["tolerance-marginal:ergodic:eigenvalue-cluster",
                  "tolerance-marginal:mixing:spectral-gap"]),
    1e-3: (True, []),
}


@pytest.mark.parametrize("e", sorted(NEAR_IDENTITY_FLAGS))
def test_tolerance_marginal_flags_near_identity(e):
    verdict, flags = NEAR_IDENTITY_FLAGS[e]
    rep = classify(from_stochastic([[1 - e, e], [e, 1 - e]]))
    assert rep.verdicts() == dict.fromkeys(
        ("ergodic", "mixing", "irreducible", "primitive"), verdict)
    assert rep.hypothesis_flags == flags


# ---------------------------------------------------------------------------
# exact maps cut at 0, float maps at the float tolerance
# ---------------------------------------------------------------------------

TINY = Fraction(1, 10 ** 30)


def _stochastic_verdict(m):
    try:
        from_stochastic(m)
    except ColumnSumViolationError:
        return "column-sum-violation"
    return "stochastic"


def _radius_verdict(m):
    report = classify(from_matrix(m, Orthant(2)))
    if any(f.startswith("zero-spectral-radius")
           for f in report.hypothesis_flags):
        return "zero-spectral-radius"
    return f"r={report.r:.3g}"


# each exact map differs from its float twin only below the float
# tolerance, so a path that cut an exact map at that tolerance would give
# the float twin's answer
@pytest.mark.parametrize("m, probe, exact, inexact", [
    ([[1 - TINY, Fraction(1, 2)], [2 * TINY, Fraction(1, 2)]],
     _stochastic_verdict, "column-sum-violation", "stochastic"),
    ([[1, -TINY], [0, 1]],
     lambda m: is_positive(from_matrix(m, Orthant(2))).value, "no", "yes"),
    ([[1, TINY], [0, 1]],
     lambda m: digraph_of(from_matrix(m, Orthant(2))).edges(),
     [(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1)]),
    ([[1, 0], [TINY, 1]],
     lambda m: is_dup(from_matrix(m, Orthant(2), [1, 1])), False, True),
    ([[0, 1], [TINY, 0]], _radius_verdict, "r=1e-15",
     "zero-spectral-radius"),
], ids=["from-stochastic", "is-positive", "digraph", "is-dup", "nilpotent"])
def test_exact_maps_cut_at_zero(m, probe, exact, inexact):
    assert probe(m) == exact
    assert probe([[float(v) for v in row] for row in m]) == inexact


# ---------------------------------------------------------------------------
# exact maps are one integer matrix and one denominator
# ---------------------------------------------------------------------------

def test_classify_of_an_exact_chain_builds_fractions_independent_of_d(
        monkeypatch):
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(cls)
        return original(cls, *args, **kwargs)

    counts = []
    for d in (4, 8, 12):
        a = from_stochastic(random_exact_chain(np.random.default_rng(0), d,
                                               "random"))
        made.clear()
        monkeypatch.setattr(Fraction, "__new__", counting)
        classify(a, RATIONAL_MODE)
        monkeypatch.setattr(Fraction, "__new__", original)
        counts.append(len(made))
    assert counts[0] == counts[1] == counts[2]


#: c = p/q; 2^31 - 1 is the prime of the modular certificate, so it then
#: divides the map's denominator
SCALES = [Fraction(3), Fraction(3, 7), Fraction(5, 2 ** 31 - 1),
          Fraction(2, 10 ** 12 + 39)]


def _exact_maps():
    """The exact maps of ``route_corpus()`` and of the fixtures."""
    maps = [(name, a) for name, a in route_corpus() if a.integer is not None]
    for path in sorted(FIXTURES.glob("*.json")):
        dyn, _ = load_problem(str(path))
        if dyn.integer is not None:
            maps.append((path.stem, dyn))
    return maps


def _scale_free_flags(report) -> list:
    """The flags, less what a rescaling changes: ``non-dup`` and the
    ``fixed-space-dim`` route read whether the adjoint fixes the unit, two
    messages quote a value of the map, and a ``tolerance-marginal`` float
    route sits within 10x of its cutoff, where rounding the rescaled float
    matrix differently can move it across."""
    flags = []
    for f in report.hypothesis_flags:
        if f != "non-dup" and not f.startswith("tolerance-marginal:"):
            f = re.sub(r",?fixed-space-dim=\w+", "", f)
            flags.append(re.sub(r"= \S+ is negative|eigenvalue \S+ has", "",
                                f))
    return flags


def _same_vector(mine, base, exact):
    if mine is None or base is None:
        return mine is base
    return np.array_equal(mine, base) if exact else \
        np.allclose(mine, base, rtol=1e-9, atol=1e-12)


def test_exact_reports_are_blind_to_scale_and_denominator():
    for name, a in _exact_maps():
        bases = [(classify(b), b.spectrum.r_exact is not None)
                 for b in (a, adjoint(a))]
        for c in SCALES:
            scaled = from_matrix([[c * v for v in row] for row in a.exact],
                                 a.cone, a.unit_exact)
            for ours, (theirs, exact) in zip((scaled, adjoint(scaled)),
                                             bases):
                mine = classify(ours)
                where = f"{name} * {c}"
                assert (ours.spectrum.r_exact is not None) == exact, where
                assert mine.verdicts() == theirs.verdicts(), where
                assert mine.multiplicity_r == theirs.multiplicity_r, where
                assert mine.multiplicity_r2_kron == \
                    theirs.multiplicity_r2_kron, where
                assert _scale_free_flags(mine) == \
                    _scale_free_flags(theirs), where
                assert mine.r == pytest.approx(float(c) * theirs.r,
                                               rel=1e-9), where
                for v, w in ((mine.stationary, theirs.stationary),
                             (mine.dual_stationary, theirs.dual_stationary)):
                    assert _same_vector(v, w, exact), where
