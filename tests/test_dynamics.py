import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conemix import (
    BipartiteLayout,
    InvalidUnitError,
    NormalizationVanishedError,
    Orthant,
    Polyhedral,
    Psd,
    TensorCone,
    UnsupportedConeOperation,
    cesaro_trajectory,
    decoupling_distance,
    decoupling_trace,
    from_matrix,
    from_stochastic,
    power_trajectory,
    reduced_states,
    u_norm,
)
from helpers import random_dense_stochastic, random_hermitian, \
    random_kraus_channel, reference_cone_queries, reference_u_norm_lp, \
    seeded_polyhedral_cones

SHEAR = [[1, 1], [0, 1]]


def shear_map():
    return from_matrix(SHEAR, Orthant(2))


def lower_map():
    return from_matrix([[2, 0], [1, 1]], Orthant(2))


def orthant_layout():
    return BipartiteLayout(Orthant(2), Orthant(2))


# ---------------------------------------------------------------------------
# cesaro / power
# ---------------------------------------------------------------------------

def test_cesaro_identity_converges_immediately():
    a = from_stochastic([[1, 0], [0, 1]])
    rec = cesaro_trajectory(a, [0.3, 0.7], 100)
    assert rec.verdict.converged
    np.testing.assert_allclose(rec.verdict.limit, [0.3, 0.7])


def test_cesaro_lower_triangular_vanishing_limit():
    # oracle: plain 200-step loop, independent of the trajectory code
    m = np.array([[2.0, 0.0], [1.0, 1.0]]) / 2.0
    v = np.array([0.0, 1.0])
    acc = v.copy()
    for k in range(1, 200):
        v = m @ v
        acc += v
    oracle = acc / 200
    rec = cesaro_trajectory(lower_map(), [0, 1], 199)
    np.testing.assert_allclose(rec.iterates[-1], oracle, atol=1e-12)
    np.testing.assert_allclose(oracle, [0, 0], atol=2e-2)
    long = cesaro_trajectory(lower_map(), [0, 1], 3000, tol=1e-6)
    assert long.verdict.converged
    np.testing.assert_allclose(long.verdict.limit, [0, 0], atol=1e-2)


def test_cesaro_shear_diverges():
    rec = cesaro_trajectory(shear_map(), [0, 1], 1000)
    assert rec.verdict.diverged
    assert rec.verdict.at_step < 1000


def test_power_lower_triangular_limit():
    rec = power_trajectory(lower_map(), [1, 0], 200, tol=1e-8)
    assert rec.verdict.converged
    np.testing.assert_allclose(rec.verdict.limit, [1, 1], atol=1e-7)


def test_power_swap_oscillates():
    a = from_stochastic([[0, 1], [1, 0]])
    rec = power_trajectory(a, [1, 0], 100)
    assert rec.verdict.status == "undecided"


def test_power_identity_converges():
    a = from_stochastic([[1, 0], [0, 1]])
    rec = power_trajectory(a, [0.2, 0.8], 50)
    assert rec.verdict.converged
    np.testing.assert_allclose(rec.verdict.limit, [0.2, 0.8])


def test_power_limit_matches_stationary_projection():
    from conemix import stationary_pair
    rng = np.random.default_rng(41)
    for _ in range(10):
        a = random_dense_stochastic(rng, 3)
        x = rng.random(3)
        x0, y0 = stationary_pair(a)
        rec = power_trajectory(a, x, 2000, tol=1e-12)
        assert rec.verdict.converged
        np.testing.assert_allclose(rec.verdict.limit, (y0 @ x) * x0,
                                   atol=1e-8)


def test_cesaro_and_power_limits_agree():
    # the averages trail the powers at a 1/n rate, so compare loosely
    rng = np.random.default_rng(42)
    for _ in range(5):
        a = random_dense_stochastic(rng, 3)
        x = rng.random(3)
        power = power_trajectory(a, x, 2000, tol=1e-12)
        cesaro = cesaro_trajectory(a, x, 50000, tol=1e-8)
        assert power.verdict.converged and cesaro.verdict.converged
        np.testing.assert_allclose(cesaro.verdict.limit, power.verdict.limit,
                                   atol=1e-3)


# ---------------------------------------------------------------------------
# reduced states
# ---------------------------------------------------------------------------

def test_reduced_states_product():
    layout = orthant_layout()
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    p1, p2 = reduced_states(np.kron(e1, e2), layout)
    np.testing.assert_allclose(p1, e1)
    np.testing.assert_allclose(p2, e2)


def test_reduced_states_correlated():
    layout = orthant_layout()
    x = np.array([0.5, 0.0, 0.0, 0.5])  # perfectly correlated distribution
    p1, p2 = reduced_states(x, layout)
    np.testing.assert_allclose(p1, [0.5, 0.5])
    np.testing.assert_allclose(p2, [0.5, 0.5])


def test_reduced_states_are_partial_traces():
    rng = np.random.default_rng(43)
    basis2 = Psd(2).basis
    layout = BipartiteLayout(Psd(2), Psd(2))
    for _ in range(10):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        # coordinates over the product of the two Hermitian bases
        x = np.array([np.trace(np.kron(bi, bj) @ rho).real
                      for bi in basis2.mats for bj in basis2.mats])
        p1, p2 = reduced_states(x, layout)
        rho4 = rho.reshape(2, 2, 2, 2)
        tr2 = np.einsum("ikjk->ij", rho4)
        tr1 = np.einsum("kikj->ij", rho4)
        np.testing.assert_allclose(basis2.mat(p1), tr2, atol=1e-10)
        np.testing.assert_allclose(basis2.mat(p2), tr1, atol=1e-10)


def test_reduced_states_shape_check():
    with pytest.raises(ValueError):
        reduced_states(np.ones(3), orthant_layout())


# ---------------------------------------------------------------------------
# u-norm
# ---------------------------------------------------------------------------

def test_u_norm_zero():
    assert u_norm(np.zeros(2), [1, 1], Orthant(2)) == 0.0


def test_u_norm_orthant_box_formula():
    assert u_norm([1, -1], [1, 1], Orthant(2)) == pytest.approx(2.0)
    assert u_norm([3, -1], [2, 5], Orthant(2)) == pytest.approx(11.0)


def test_u_norm_orthant_matches_lp():
    # the same cone described by generators goes through the LP route
    rng = np.random.default_rng(44)
    lp_cone = Polyhedral([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for _ in range(20):
        x = rng.standard_normal(3)
        u = rng.random(3) + 0.5
        box = u_norm(x, u, Orthant(3))
        lp = u_norm(x, u, lp_cone)
        assert lp == pytest.approx(box, abs=1e-8)


def test_u_norm_psd_trace_norm():
    cone = Psd(2)
    vec = cone.basis.vec
    x = vec(np.diag([1.0, -1.0]))
    assert u_norm(x, vec(np.eye(2)), cone) == pytest.approx(2.0)
    # squeezed unit: ||U^(1/2) X U^(1/2)||_1 against a direct eigenvalue sum
    u_mat = np.diag([2.0, 0.5])
    rng = np.random.default_rng(45)
    for _ in range(10):
        herm = random_hermitian(rng, 2)
        root = np.diag(np.sqrt(np.diag(u_mat)))
        expected = np.sum(np.abs(np.linalg.eigvalsh(root @ herm @ root)))
        got = u_norm(vec(herm), vec(u_mat), cone)
        assert got == pytest.approx(expected, abs=1e-9)


def test_u_norm_tensor_of_orthants_is_weighted_l1():
    cone = TensorCone(Orthant(2), Orthant(2))
    u = cone.default_unit()
    x = np.array([1.0, -2.0, 0.5, 0.0])
    assert u_norm(x, u, cone) == pytest.approx(3.5)


def test_u_norm_wedge_frozen_values():
    # hand-checked LP values on the 45-degree wedge with unit [1, 0]:
    # feasible y satisfy |y1| <= 1 and |y1 + y2| <= 1
    wedge = Polyhedral([[1, 0], [1, 1]])
    u = wedge.default_unit()
    np.testing.assert_allclose(u, [1.0, 0.0])
    assert u_norm([1.0, 0.0], u, wedge) == pytest.approx(1.0, abs=1e-9)
    assert u_norm([0.0, 1.0], u, wedge) == pytest.approx(2.0, abs=1e-9)
    assert u_norm([1.0, -1.0], u, wedge) == pytest.approx(3.0, abs=1e-9)


def test_u_norm_axioms():
    rng = np.random.default_rng(46)
    for cone in (Orthant(3), Psd(2)):
        u = cone.default_unit()
        for _ in range(50):
            x = rng.standard_normal(cone.dim)
            y = rng.standard_normal(cone.dim)
            c = rng.standard_normal()
            nx = u_norm(x, u, cone)
            assert u_norm(c * x, u, cone) == pytest.approx(abs(c) * nx,
                                                           abs=1e-9)
            assert u_norm(x + y, u, cone) <= nx + u_norm(y, u, cone) + 1e-9
            if nx < 1e-12:
                np.testing.assert_allclose(x, 0, atol=1e-10)


def test_u_norm_rejects_boundary_unit():
    with pytest.raises(InvalidUnitError):
        u_norm([1.0, 1.0], [1.0, 0.0], Orthant(2))


def test_u_norm_contraction_small_corpus():
    rng = np.random.default_rng(47)
    for _ in range(30):
        a = random_dense_stochastic(rng, 4)
        x = rng.standard_normal(4)
        assert u_norm(a.matrix @ x, a.unit, a.cone) <= \
            u_norm(x, a.unit, a.cone) + 1e-12
    for _ in range(10):
        ch = random_kraus_channel(rng, 2)
        x = rng.standard_normal(4)
        assert u_norm(ch.matrix @ x, ch.unit, ch.cone) <= \
            u_norm(x, ch.unit, ch.cone) + 1e-12


def _u_norm_vectors(rng, cone):
    """(label, x) integer vectors of a finite cone: an interior point, a
    point on each of three facets, every extreme ray and 0; their
    negations; and seeded vectors outside +-K."""
    gens = [[int(v) for v in g] for g in cone.exact_extremal_generators()]
    inside = [("interior", [sum(int(w) * v for w, v in zip(
        rng.integers(1, 4, size=len(gens)), col)) for col in zip(*gens)])]
    for k, h in enumerate(cone.exact_dual_generators()[:3]):
        face = [g for g in gens if sum(a * b for a, b in zip(h, g)) == 0]
        inside.append((f"facet {k}", [sum(col) for col in zip(*face)]))
    inside += [(f"ray {k}", g) for k, g in enumerate(gens)]
    inside.append(("zero", [0] * cone.dim))
    out = inside + [(f"-{label}", [-v for v in x]) for label, x in inside]
    outside = []
    while len(outside) < 5:
        x = [int(v) for v in rng.integers(-6, 7, size=cone.dim)]
        exact = [Fraction(v) for v in x]
        if not reference_cone_queries(cone, exact)["contains"] and \
                not reference_cone_queries(cone, [-v for v in exact])[
                    "contains"]:
            outside.append((f"outside {len(outside)}", x))
    return out + outside


def _input_forms(x):
    """The integer vector x as ints, as Fractions (x / 3), as rational
    strings (x / 7) and as floats, with the factor that undoes the scale."""
    return (("ints", x, 1),
            ("fractions", [Fraction(v, 3) for v in x], 3),
            ("strings", [str(Fraction(v, 7)) for v in x], 7),
            ("floats", np.array(x, dtype=float), 1))


def _reference_cones():
    cones = seeded_polyhedral_cones(np.random.default_rng(240))
    # and the tensor cone in the other order, the simplicial operand right
    cones["square(x)triangle"] = TensorCone(cones["square"],
                                            cones["triangle"])
    return cones


@pytest.mark.parametrize("name", sorted(_reference_cones()))
def test_u_norm_matches_lp_reference(name):
    cone = _reference_cones()[name]
    rng = np.random.default_rng(241)
    exact_unit = cone.exact_default_unit()
    h0 = cone.exact_dual_generators()[0]
    # a second interior unit: the default one plus a dual ray
    other = [a + b for a, b in zip(exact_unit, h0)]
    units = (exact_unit, np.array(exact_unit, dtype=float), other)
    for label, x in _u_norm_vectors(rng, cone):
        for u in units:
            want = reference_u_norm_lp(x, u, cone)
            for form, given, scale in _input_forms(x):
                got = u_norm(given, u, cone) * scale
                assert got == pytest.approx(want, rel=1e-9), \
                    (name, label, form, list(u))


def test_u_norm_exact_cone_vector_is_exact_dot_product():
    # the closed form reads exact input exactly: strings included
    cone = Polyhedral([[3, 1, 1], [3, -1, 1], [3, -1, -1], [3, 1, -1]])
    # the default unit (4, 0, 0) plus the dual ray (1, 3, 0)
    u = [5, 3, 0]
    x = ["1/3", "1/9", "-1/9"]
    want = float(sum(a * Fraction(v) for a, v in zip(u, x)))
    # the float dot product rounds the thirds and lands one ulp off
    assert np.dot(u, [float(Fraction(v)) for v in x]) != want
    assert u_norm(x, u, cone) == want
    assert u_norm(["-1/3", "-1/9", "1/9"], u, cone) == want


SRC = Path(__file__).resolve().parent.parent / "src"
SQUARE = [[1, 1, 1], [1, -1, 1], [1, -1, -1], [1, 1, -1]]


def test_u_norm_psd_tensor_operands_still_raise():
    square = Polyhedral(SQUARE)
    psd = Psd(2)
    for cone in (TensorCone(psd, square), TensorCone(square, psd)):
        u = cone.default_unit()
        inside = cone.default_unit() / 4
        assert cone.contains(inside)
        rng = np.random.default_rng(242)
        for x in (inside, -inside, np.zeros(cone.dim),
                  rng.standard_normal(cone.dim)):
            with pytest.raises(UnsupportedConeOperation):
                u_norm(x, u, cone)


def _run_u_norm_probe(body):
    """Run ``body`` after building the square cone and triangle (x) square
    in a fresh interpreter; print its value and whether scipy.optimize
    got loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    probe = (
        "import sys\n"
        "from conemix import Polyhedral, TensorCone, u_norm\n"
        f"square = Polyhedral({SQUARE!r})\n"
        "tensor = TensorCone(Polyhedral([[1, 0, 0], [1, 1, 0], [1, 0, 1]]), "
        "square)\n"
        f"{body}\n"
        "print('scipy.optimize' in sys.modules, repr(value))\n")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded, value = out.split(None, 1)
    return eval(value), loaded == "True"


def test_u_norm_of_cone_vectors_leaves_scipy_optimize_unloaded():
    value, loaded = _run_u_norm_probe(
        "value = []\n"
        "for cone in (square, tensor):\n"
        "    x = [sum(c) for c in zip(*cone.exact_extremal_generators())]\n"
        "    value.append(u_norm([float(v) for v in x], "
        "cone.default_unit(), cone))\n"
        "    value.append(u_norm([-v for v in x], "
        "cone.exact_default_unit(), cone))")
    assert loaded is False
    # square: x = (4, 0, 0), u = (4, 0, 0); the tensor cone's unit is the
    # product of (1, 0, 0) and that one, and x sums 4 * 3 product rays
    assert value == [16.0, 16.0, 48.0, 48.0]


def test_u_norm_outside_the_cone_loads_scipy_and_solves_the_lp():
    value, loaded = _run_u_norm_probe(
        "value = u_norm([0.0, 1.0, 0.5], square.default_unit(), square)")
    assert loaded is True
    square = Polyhedral(SQUARE)
    assert value == reference_u_norm_lp([0.0, 1.0, 0.5],
                                        square.default_unit(), square)


# ---------------------------------------------------------------------------
# decoupling
# ---------------------------------------------------------------------------

def kron_map(m1, m2):
    big = np.kron(np.array(m1, float), np.array(m2, float))
    return from_matrix(big, TensorCone(Orthant(2), Orthant(2)))


def test_decoupling_shear_square_product_state():
    a = kron_map(SHEAR, SHEAR)
    rec = decoupling_trace(a, np.full(4, 0.25), orthant_layout(), 500,
                           tol=1e-6)
    assert rec.verdict.converged
    assert max(rec.iterates) < 1e-6  # product state stays product
    # the long-run state approaches the corner distribution
    state = np.linalg.matrix_power(a.matrix, 10 ** 7) @ np.full(4, 0.25)
    state /= state @ np.ones(4)
    np.testing.assert_allclose(state, [1, 0, 0, 0], atol=1e-6)
    assert decoupling_distance(state, orthant_layout()) < 1e-6


def test_decoupling_shear_times_identity():
    # the sheared factor collapses to its corner, the identity factor keeps
    # the renormalized marginal of the components the shear feeds on
    a = kron_map(SHEAR, np.eye(2))
    x = np.array([0.1, 0.3, 0.2, 0.4])
    rec = decoupling_trace(a, x, orthant_layout(), 200, tol=1e-3)
    assert rec.iterates[-1] < rec.iterates[1]  # distance is shrinking
    state = np.linalg.matrix_power(a.matrix, 10 ** 7) @ x
    state /= state @ np.ones(4)
    expected = np.kron([1.0, 0.0], [x[2], x[3]]) / (x[2] + x[3])
    np.testing.assert_allclose(state, expected, atol=1e-6)
    assert decoupling_distance(state, orthant_layout()) < 1e-6


def test_decoupling_swap_square_stays_correlated():
    swap = [[0, 1], [1, 0]]
    a = kron_map(swap, swap)
    x = np.array([0.5, 0.0, 0.0, 0.5])
    # hand oracle: the correlated state is fixed, distance is exactly 1/2
    rec = decoupling_trace(a, x, orthant_layout(), 20)
    assert rec.verdict.status == "undecided"
    np.testing.assert_allclose(rec.iterates, [0.5] * 21, atol=1e-12)


def test_decoupling_normalization_vanishes():
    # the kernel of this map meets the cone: e2 (x) e2 is annihilated
    m = np.diag([1.0, 1.0, 1.0, 0.0])
    a = from_matrix(m, TensorCone(Orthant(2), Orthant(2)))
    x = np.array([0.0, 0.0, 0.0, 1.0])
    with pytest.raises(NormalizationVanishedError):
        decoupling_trace(a, x, orthant_layout(), 10)


def test_decoupling_rejects_outside_vector():
    a = kron_map(SHEAR, SHEAR)
    with pytest.raises(ValueError):
        decoupling_trace(a, np.array([1.0, -1.0, 0.0, 0.0]),
                         orthant_layout(), 10)


def test_decoupling_mixing_map_vanishes_quickly():
    rng = np.random.default_rng(48)
    for _ in range(5):
        w = random_dense_stochastic(rng, 2)
        a = kron_map(w.matrix, w.matrix)
        x = rng.random(4)
        x /= x.sum()
        rec = decoupling_trace(a, x, orthant_layout(), 200, tol=1e-6)
        assert rec.verdict.converged


def test_decoupling_equivalence_with_mixing():
    # mixing maps decouple both the two-fold product and the one-sided
    # product within 200 steps; a periodic map keeps a correlated state
    # correlated forever
    rng = np.random.default_rng(50)
    layout3 = BipartiteLayout(Orthant(3), Orthant(3))
    cone3 = TensorCone(Orthant(3), Orthant(3))
    for _ in range(8):
        w = random_dense_stochastic(rng, 3)
        x = rng.random(9)
        x /= x.sum()
        for big in (np.kron(w.matrix, w.matrix), np.kron(w.matrix, np.eye(3))):
            rec = decoupling_trace(from_matrix(big, cone3), x, layout3, 200,
                                   tol=1e-6)
            assert rec.verdict.converged and rec.verdict.at_step <= 200

    cycle = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
    correlated = np.eye(3).reshape(-1) / 3.0
    rec = decoupling_trace(from_matrix(np.kron(cycle, cycle), cone3),
                           correlated, layout3, 100)
    assert rec.verdict.status == "undecided"
    assert min(rec.iterates) > 0.4


def test_decoupling_unit_independent_verdict():
    # replacing both units by other interior dual vectors must not change
    # whether the distance vanishes
    rng = np.random.default_rng(49)
    shear_sq = kron_map(SHEAR, SHEAR)
    swap = [[0, 1], [1, 0]]
    swap_sq = kron_map(swap, swap)
    correlated = np.array([0.5, 0.0, 0.0, 0.5])
    for _ in range(5):
        u1 = rng.random(2) + 0.5
        u2 = rng.random(2) + 0.5
        layout = BipartiteLayout(Orthant(2), Orthant(2), u1, u2)
        rec = decoupling_trace(shear_sq, np.full(4, 0.25), layout, 300,
                               tol=1e-6)
        assert rec.verdict.converged
        rec = decoupling_trace(swap_sq, correlated, layout, 50)
        assert rec.verdict.status == "undecided"
        assert min(rec.iterates) > 0.1


def test_layout_rejects_boundary_units():
    with pytest.raises(InvalidUnitError):
        BipartiteLayout(Orthant(2), Orthant(2), [1.0, 0.0], [1.0, 1.0])
