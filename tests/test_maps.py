from fractions import Fraction

import numpy as np
import pytest

from conemix import (
    FLOAT_MODE,
    RATIONAL_MODE,
    ColumnSumViolationError,
    DimensionMismatchError,
    NegativeEntryError,
    Orthant,
    Polyhedral,
    Psd,
    TensorCone,
    UnsupportedConeOperation,
    adjoint,
    choi_matrix,
    classify,
    from_kraus,
    from_matrix,
    from_stochastic,
    is_dup,
    is_positive,
)
from conemix.classify import irreducible_routes
from conemix.cli import report_to_dict
from helpers import generator_map, random_chain, random_hermitian, \
    random_kraus_channel, random_stochastic_map, seeded_polyhedral_cones

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)


def test_from_stochastic_swap():
    a = from_stochastic([[0, 1], [1, 0]])
    assert a.cone == Orthant(2)
    assert is_dup(a)
    assert a.exact is not None


def test_from_stochastic_chain():
    a = from_stochastic([[0, 1, 0, 1], ["1/2", 0, 0, 0],
                         ["1/2", 0, 0, 0], [0, 0, 1, 0]])
    assert is_dup(a)
    assert a.exact[1][0] == Fraction(1, 2)


def test_from_stochastic_column_sum_violation():
    with pytest.raises(ColumnSumViolationError):
        from_stochastic([[1, 1], [0, 1]])
    with pytest.raises(ColumnSumViolationError):
        from_stochastic(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_from_stochastic_negative_entry():
    with pytest.raises(NegativeEntryError):
        from_stochastic([[Fraction(3, 2), 0], [Fraction(-1, 2), 1]])
    with pytest.raises(NegativeEntryError):
        from_stochastic(np.array([[1.5, 0.0], [-0.5, 1.0]]))


def test_from_kraus_identity_channel():
    a = from_kraus([np.eye(2)])
    np.testing.assert_allclose(a.matrix, np.eye(4), atol=1e-12)
    assert a.cone == Psd(2)


def test_from_kraus_depolarizing_spectrum():
    ops = [0.5 * np.eye(2), 0.5 * X, 0.5 * Y, 0.5 * Z]
    a = from_kraus(ops)
    ev = np.sort(np.linalg.eigvals(a.matrix).real)
    np.testing.assert_allclose(ev, [0, 0, 0, 1], atol=1e-12)


def test_from_kraus_amplitude_damping_trace_preserving():
    gamma = 0.5
    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]])
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]])
    total = k0.conj().T @ k0 + k1.conj().T @ k1
    np.testing.assert_allclose(total, np.eye(2), atol=1e-12)
    a = from_kraus([k0, k1])
    assert is_dup(a)


def test_from_kraus_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        from_kraus([np.eye(2), np.eye(3)])


def _kraus_channels(seed):
    """Random trace-preserving channels for h = 2..6 with 1, 3 and h^2
    operators."""
    rng = np.random.default_rng(seed)
    for h in range(2, 7):
        for n_ops in (1, 3, h * h):
            yield h, random_kraus_channel(rng, h, n_ops), rng


def test_kraus_superoperator_matches_conjugation():
    for h, a, rng in _kraus_channels(21):
        basis = a.cone.basis
        for _ in range(5):
            rho = random_hermitian(rng, h)
            direct = sum(k @ rho @ k.conj().T for k in a.kraus_ops)
            via_matrix = basis.mat(a.matrix @ basis.vec(rho))
            np.testing.assert_allclose(via_matrix, direct, rtol=0,
                                       atol=1e-12)


def test_choi_matrix_matches_loop_reference():
    # Choi = sum_ij E_ij (x) A(E_ij), each block by conjugation
    for h, a, _ in _kraus_channels(41):
        reference = np.zeros((h * h, h * h), dtype=complex)
        for i in range(h):
            for j in range(h):
                e = np.zeros((h, h))
                e[i, j] = 1.0
                block = sum(k @ e @ k.conj().T for k in a.kraus_ops)
                reference[i * h:(i + 1) * h, j * h:(j + 1) * h] = block
        np.testing.assert_allclose(choi_matrix(a), reference, rtol=0,
                                   atol=1e-12)


def test_psd_cones_share_one_read_only_basis():
    basis = Psd(3).basis
    assert Psd(3).basis is basis and from_kraus([np.eye(3)]).cone.basis \
        is basis
    for array in (basis.mats, basis.flat):
        with pytest.raises(ValueError):
            array[0, 0] = 0


def test_adjoint_is_transpose():
    a = from_matrix([[1, 1], [0, 1]], Orthant(2))
    np.testing.assert_allclose(adjoint(a).matrix, [[1, 0], [1, 1]])
    np.testing.assert_allclose(adjoint(adjoint(a)).matrix, a.matrix)


def test_adjoint_of_stochastic_fixes_ones():
    rng = np.random.default_rng(22)
    for _ in range(10):
        a = random_stochastic_map(rng, 4)
        ones = np.ones(4)
        np.testing.assert_allclose(adjoint(a).matrix @ ones, ones, atol=1e-12)


def test_adjoint_polyhedral_swaps_cone():
    cone = Polyhedral([[1, 0], [1, 1]])
    a = from_matrix([[1, 0], [0, 1]], cone)
    dual_cone = adjoint(a).cone
    assert dual_cone.contains([0, 1])
    assert dual_cone.contains([1, -1])
    assert not dual_cone.contains([0, -1])


def test_is_dup_examples():
    assert is_dup(from_stochastic([[0, 1], [1, 0]]))
    a = from_matrix([[2, 0], [1, 1]], Orthant(2))
    assert not is_dup(a)


def test_is_positive_orthant():
    assert is_positive(from_matrix([[1, 1], [0, 1]], Orthant(2))).value == "yes"
    verdict = is_positive(from_matrix([[1, -1], [0, 1]], Orthant(2)))
    assert verdict.value == "no"
    assert "(0,1)" in verdict.certificate


def test_is_positive_polyhedral():
    cone = Polyhedral([[1, 0], [1, 1]])
    keeps = from_matrix([[1, 0], [0, 1]], cone)
    assert is_positive(keeps).value == "yes"
    # rotation by 90 degrees moves the cone off itself
    rotates = from_matrix([[0, -1], [1, 0]], cone)
    assert is_positive(rotates).value == "no"


def test_is_positive_tensor_is_exact_on_rational_maps():
    # a -1/10^13 entry is inside the float tolerance but not the cone
    rows = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    rows[0][3] = Fraction(-1, 10 ** 13)
    verdict = is_positive(from_matrix(rows, TensorCone(Orthant(2), Orthant(2))))
    assert verdict.value == "no"
    assert verdict.certificate == \
        "image of extremal generator 3 leaves the cone"


def test_tensor_cones_of_finite_operands_carry_an_exact_unit():
    # the rational identity with one entry nudged by 1e-12 fixes no unit,
    # decided exactly on the orthant and on the same orthant as a tensor
    nudged = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    nudged[0][0] += Fraction(1, 10 ** 12)
    for cone in (Orthant(4), TensorCone(Orthant(2), Orthant(2))):
        a = from_matrix(nudged, cone)
        assert a.unit_exact == [1, 1, 1, 1]
        assert not is_dup(a), cone
    # wedge (x) wedge: the exact product of the operands' exact units
    wedge = Polyhedral([[1, 0], [1, 1]])
    cone = TensorCone(wedge, wedge)
    assert wedge.exact_default_unit() == [1, 0]
    assert cone.exact_default_unit() == [1, 0, 0, 0]
    np.testing.assert_array_equal(cone.default_unit(), [1.0, 0.0, 0.0, 0.0])
    a = from_matrix(np.eye(4).astype(int).tolist(), cone)
    assert a.unit_exact == [1, 0, 0, 0]
    assert is_dup(a)


def test_exact_default_unit_is_refused_without_finite_rays():
    for cone in (Psd(2), TensorCone(Psd(2), Psd(2)),
                 TensorCone(Orthant(2), Psd(2))):
        with pytest.raises(UnsupportedConeOperation):
            cone.exact_default_unit()
        assert from_matrix(np.eye(cone.dim), cone).unit_exact is None


def test_float_default_units_are_the_exact_units():
    rng = np.random.default_rng(8)
    cones = list(seeded_polyhedral_cones(rng).values())
    cones += [Orthant(3), TensorCone(Orthant(2), Orthant(3))]
    for cone in cones:
        exact = cone.exact_default_unit()
        assert all(v.denominator == 1 for v in map(Fraction, exact))
        np.testing.assert_array_equal(cone.default_unit(),
                                      [float(v) for v in exact])


def test_is_positive_cptp_channel():
    rng = np.random.default_rng(23)
    a = random_kraus_channel(rng, 2)
    verdict = is_positive(a)
    assert verdict.value == "yes"
    assert "Choi" in verdict.certificate


def test_transpose_map_is_positive_but_not_cp():
    # superoperator of rho -> rho^T: flips the antisymmetric basis element
    basis = Psd(2).basis
    m = np.array([[np.trace(bi @ bj.T).real for bj in basis.mats]
                  for bi in basis.mats])
    a = from_matrix(m, Psd(2))
    choi = choi_matrix(a)
    assert np.linalg.eigvalsh(choi)[0] < -0.5  # genuinely non-CP
    verdict = is_positive(a)
    assert verdict.value == "unknown"
    assert "positive" in verdict.certificate


def test_adjoint_maps_dual_cone_samples():
    rng = np.random.default_rng(24)
    for _ in range(10):
        a = random_stochastic_map(rng, 3)
        assert is_positive(a).value == "yes"
        adj = adjoint(a)
        for _ in range(20):
            y = rng.random(3)  # dual-cone sample (orthant is self-dual)
            assert a.cone.dual_contains(adj.matrix @ y)


def test_dup_implies_unit_radius():
    rng = np.random.default_rng(25)
    for d in (2, 3, 4, 5):
        a = random_stochastic_map(rng, d)
        assert a.spectrum.r == pytest.approx(1.0, abs=1e-8)
    b = random_kraus_channel(rng, 3)
    assert b.spectrum.r == pytest.approx(1.0, abs=1e-8)


def test_stochastic_maps_preserve_total_probability():
    rng = np.random.default_rng(26)
    a = random_stochastic_map(rng, 4)
    for _ in range(10):
        x = rng.random(4)
        assert a.matrix @ x @ np.ones(4) == pytest.approx(x @ np.ones(4))


def test_from_matrix_rejects_nonsquare():
    with pytest.raises(DimensionMismatchError):
        from_matrix([[1, 2, 3], [4, 5, 6]], Orthant(2))


def test_from_matrix_object_array_of_fractions_is_exact():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 2), Fraction(2, 3)]]
    listed = from_matrix(rows, Orthant(2))
    boxed = from_matrix(np.array(rows, dtype=object), Orthant(2))
    assert boxed.exact == listed.exact == rows
    assert report_to_dict(classify(boxed), RATIONAL_MODE) == \
        report_to_dict(classify(listed), RATIONAL_MODE)


def test_rational_strings_are_exact_in_units_and_cone_queries():
    a = from_matrix([[1, 0], [0, 1]], Orthant(2), unit=["1/2", "0.25"])
    assert a.unit_exact == [Fraction(1, 2), Fraction(1, 4)]
    assert a.unit.tolist() == [0.5, 0.25]
    assert Orthant(2).contains(["0", "1/3"])
    assert not Orthant(2).interior_contains(["0", "1/3"])
    # 1e-20 outside the diamond's facet: only the exact test sees it
    square = Polyhedral([[1, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1]])
    outside = ["1", "1/2", "50000000000000000001/100000000000000000000"]
    assert not square.contains(outside)
    assert square.contains([float(Fraction(v)) for v in outside])


def test_from_stochastic_lists_no_orthant_rays(monkeypatch):
    # the all-ones units of an orthant need none of its d rays of length d,
    # neither for a stochastic map nor for a raw matrix without a unit
    calls = []
    rays = Orthant.exact_extremal_generators
    monkeypatch.setattr(Orthant, "exact_extremal_generators",
                        lambda self: calls.append(self.dim) or rays(self))
    from_stochastic([[Fraction(1, 2), 1], [Fraction(1, 2), 0]])
    from_stochastic(np.full((25, 25), 1 / 25))
    from_matrix(np.eye(25), Orthant(25))
    from_matrix([[1, 0], [0, 1]], Orthant(2))
    assert calls == []
    Orthant(3).exact_dual_generators()
    assert calls  # the guard is not vacuous
    # both units are still the sums of the dual rays
    for d in (1, 3, 25):
        cone, dual_rays = Orthant(d), rays(Orthant(d))
        assert cone.exact_default_unit() == [sum(c) for c in zip(*dual_rays)]
        np.testing.assert_array_equal(
            cone.default_unit(),
            np.sum([[float(v) for v in y] for y in dual_rays], axis=0))


def test_float_maps_on_orthants_list_no_exact_rays(monkeypatch):
    # classify on an orthant (and orthant (x) orthant) lists no exact rays:
    # positivity reads the matrix itself as the ray images, and classical
    # cones take the digraph routes instead of the face-lattice ones
    calls = []
    rays = Orthant.exact_extremal_generators
    monkeypatch.setattr(Orthant, "exact_extremal_generators",
                        lambda self: calls.append(self.dim) or rays(self))
    chain = from_stochastic(
        random_chain(np.random.default_rng(4), 20, "periodic"))
    tensor = from_matrix(np.full((4, 4), 0.25),
                         TensorCone(Orthant(2), Orthant(2)))
    exact = from_stochastic([[0, 1], [1, 0]])
    for a in (chain, tensor, exact):
        routes = irreducible_routes(a)
        assert "digraph" in routes and "face-closure" not in routes
        assert classify(a).positivity.value == "yes"
    assert calls == []
    Orthant(3).exact_dual_generators()
    assert calls  # the guard is not vacuous
    # a PSD cone has no face-lattice routes either
    channel = random_kraus_channel(np.random.default_rng(4), 2)
    assert "face-closure" not in irreducible_routes(channel)


@pytest.mark.parametrize("cone", [
    Polyhedral([[1, 0, 0], [1, 1, 0], [1, 0, 1]]),
    Polyhedral([[1, 1, 1], [1, -1, 1], [1, -1, -1], [1, 1, -1]]),
    TensorCone(Polyhedral([[1, 0], [1, 1]]),
               Polyhedral([[1, 1, 1], [1, -1, 1], [1, -1, -1], [1, 1, -1]])),
], ids=["triangle", "square", "wedge(x)square"])
def test_exact_positivity_is_one_sign_pattern(monkeypatch, cone):
    # an exact polyhedral map is decided on the signs of D A G^T: no cone
    # query runs per image of an extreme ray
    rng = np.random.default_rng(29)
    positive = generator_map(rng, cone.exact_extremal_generators(),
                             cone.exact_dual_generators())
    mixed = rng.integers(-3, 4, size=(cone.dim, cone.dim)).tolist()
    calls = []
    for cls in (Polyhedral, TensorCone):
        for query in ("contains", "interior_contains"):
            fn = getattr(cls, query)
            monkeypatch.setattr(cls, query, lambda self, *args, _fn=fn:
                                calls.append(1) or _fn(self, *args))
    verdicts = [is_positive(from_matrix(m, cone)) for m in (positive, mixed)]
    assert calls == []
    assert [v.value for v in verdicts] == ["yes", "no"]
    # the certificate names a ray whose image leaves the cone
    k = int(verdicts[1].certificate.split()[4])
    ray = cone.exact_extremal_generators()[k]
    image = np.array(mixed, dtype=object) @ np.array(ray, dtype=object)
    assert not cone.contains(image)
    assert calls  # the guard is not vacuous


def _transpose_on(a, cone):
    if a.exact is None:
        return from_matrix(a.matrix.T.copy(), cone)
    return from_matrix([list(c) for c in zip(*a.exact)], cone)


def test_adjoint_unit_is_interior_to_its_dual():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for name, cone in seeded_polyhedral_cones(rng).items():
            m = rng.integers(-3, 4, size=(cone.dim, cone.dim)).tolist()
            for a in (from_matrix(m, cone),
                      from_matrix(np.array(m, dtype=float), cone)):
                b = adjoint(a)
                assert b.cone.interior_dual_contains(b.unit), name
                if b.unit_exact is not None:
                    assert b.cone.interior_dual_contains(b.unit_exact), name


def test_adjoint_of_rank_one_projection_is_dup():
    # A = u_K h^T / <h, u_K> fixes u_K, the sum of K's extreme rays, which
    # is the default unit of the dual cone the adjoint acts on
    cone = Polyhedral([[1, t, t * t, t ** 3] for t in range(-2, 4)])
    u_k = [sum(col) for col in zip(*cone.exact_extremal_generators())]
    h = [sum(col) for col in zip(*cone.exact_dual_generators())]
    norm = sum(x * y for x, y in zip(h, u_k))
    a = from_matrix([[x * y / norm for y in h] for x in u_k], cone)
    assert classify(adjoint(a), RATIONAL_MODE).dup


def test_adjoint_reports_match_brute_force_dual():
    rng = np.random.default_rng(7)
    for name, cone in seeded_polyhedral_cones(rng).items():
        # the reference: K* and K** with their dual rays enumerated anew
        dual = Polyhedral(cone.exact_dual_generators())
        double = Polyhedral(dual.exact_dual_generators())
        positive = generator_map(rng, cone.exact_extremal_generators(),
                                  cone.exact_dual_generators())
        mixed = rng.integers(-3, 4, size=(cone.dim, cone.dim)).tolist()
        for m in (positive, mixed):
            for a, mode in ((from_matrix(m, cone), RATIONAL_MODE),
                            (from_matrix(np.array(m, dtype=float), cone),
                             FLOAT_MODE)):
                pairs = ((adjoint(a), _transpose_on(a, dual)),
                         (adjoint(adjoint(a)),
                          _transpose_on(_transpose_on(a, dual), double)))
                for ours, reference in pairs:
                    assert report_to_dict(classify(ours, mode), mode) == \
                        report_to_dict(classify(reference, mode), mode), name
