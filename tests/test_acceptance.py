"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the whole suite is expected to stay under a minute.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conemix import (
    BipartiteLayout,
    Orthant,
    Psd,
    TensorCone,
    cesaro_trajectory,
    classify,
    decoupling_distance,
    decoupling_trace,
    digraph_of,
    from_kraus,
    from_matrix,
    from_stochastic,
    is_dup,
    is_ergodic,
    is_mixing,
    is_positive,
    period,
    power_trajectory,
    stationary_pair,
    strongly_connected,
    u_norm,
)
from conemix.classify import (
    ergodic_routes,
    irreducible_routes,
    mixing_routes,
    primitive_routes,
)
from conemix.cli import main
from helpers import (
    dup_generator_map,
    random_dense_stochastic,
    random_kraus_channel,
    random_stochastic_exact,
    random_strongly_connected_digraph,
    seeded_polyhedral_cones,
    tensor_scc_count,
    to_float_rows,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SHEAR = [[1, 1], [0, 1]]


def ok(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def test_criterion_1_shear_reproduction():
    rep = classify(from_matrix(SHEAR, Orthant(2)))
    assert rep.ergodic is False
    assert rep.multiplicity_r.geometric == 1  # exact fixed-space dimension
    assert rep.multiplicity_r.algebraic == 2
    assert rep.pairing == 0.0
    rec = cesaro_trajectory(from_matrix(SHEAR, Orthant(2)), [0, 1], 1000)
    assert rec.verdict.diverged and rec.verdict.at_step <= 1000
    ok(1, "(non-convergent shear: kernel dim 1, orthogonal pair, diverged "
          f"at step {rec.verdict.at_step})")


def test_criterion_2_triangular_mixing():
    a = from_matrix([[2, 0], [1, 1]], Orthant(2))
    rep = classify(a)
    assert rep.r == pytest.approx(2.0, abs=1e-10)
    assert rep.mixing is True
    assert rep.irreducible is False
    x0, y0 = stationary_pair(a)
    assert x0[0] == pytest.approx(x0[1], abs=1e-12)   # proportional to [1,1]
    assert y0[1] == pytest.approx(0.0, abs=1e-12)     # proportional to [1,0]
    assert y0 @ x0 == pytest.approx(1.0, abs=1e-12)
    rec = power_trajectory(a, [1, 0], 200, tol=1e-8)
    assert rec.verdict.converged
    diffs = [float(np.linalg.norm(b - a_))
             for a_, b in zip(rec.iterates, rec.iterates[1:])]
    first_small = next(i + 1 for i, d in enumerate(diffs) if d < 1e-8)
    assert first_small <= 60
    ok(2, f"(r=2 mixing, boundary dual vector, power diff < 1e-8 at step "
          f"{first_small})")


def test_criterion_3_four_state_chain_routes_agree():
    a = from_stochastic([[0, 1, 0, 1], ["1/2", 0, 0, 0],
                         ["1/2", 0, 0, 0], [0, 0, 1, 0]])
    g = digraph_of(a)
    assert strongly_connected(g)
    assert period(g) == 1
    routes = primitive_routes(a)
    assert routes["aperiodic"].value is True
    assert routes["kron-digraph"].value is True
    assert routes["interior-pair"].value is True
    assert classify(a).primitive is True
    ok(3, "(4-state chain primitive; period and Kronecker-digraph routes "
          "agree)")


def test_criterion_4_deformation_counterexample_pair():
    summed = from_matrix([[2, 1], [0, 1]], Orthant(2))
    assert classify(summed).mixing is True
    halved = from_matrix([[1, 1], [0, 1]], Orthant(2))
    assert classify(halved).ergodic is False
    ok(4, "(sum of parts mixing, reweighted sum not ergodic)")


def test_criterion_5_decoupling_reproduction():
    layout = BipartiteLayout(Orthant(2), Orthant(2))
    shear = np.array(SHEAR, dtype=float)
    cone = TensorCone(Orthant(2), Orthant(2))

    pair = from_matrix(np.kron(shear, shear), cone)
    uniform = np.full(4, 0.25)
    rec = decoupling_trace(pair, uniform, layout, 500, tol=1e-6)
    assert rec.verdict.converged and rec.verdict.at_step <= 500
    assert min(rec.iterates) < 1e-6
    # limit state: the normalized long-run state reaches the corner
    state = np.linalg.matrix_power(pair.matrix, 10 ** 7) @ uniform
    state /= state @ np.ones(4)
    assert float(np.linalg.norm(state - np.array([1, 0, 0, 0]))) < 1e-6
    assert decoupling_distance(state, layout) < 1e-6

    half = from_matrix(np.kron(shear, np.eye(2)), cone)
    x = np.array([0.1, 0.3, 0.2, 0.4])  # weight on the sheared components
    state = np.linalg.matrix_power(half.matrix, 10 ** 7) @ x
    state /= state @ np.ones(4)
    expected = np.kron([1.0, 0.0], [x[2], x[3]]) / (x[2] + x[3])
    assert float(np.linalg.norm(state - expected)) < 1e-6
    assert decoupling_distance(state, layout) < 1e-6
    ok(5, "(shear square decouples to the corner; shear-times-identity "
          "keeps the untouched marginal)")


def _route_agreement(a, kron_cone):
    """The five agreement checks of criterion 6 for one map.

    Returns (verdicts, disagreements, marginal) where verdicts is the
    4-tuple used to compare float against exact runs.
    """
    disagreements = []
    marginal = False

    erg = ergodic_routes(a)
    if "fixed-space-dim" in erg and \
            erg["fixed-space-dim"].value != erg["algebraic-multiplicity"].value:
        disagreements.append("ergodic")
    mix = mixing_routes(a)
    mix_names = [n for n in ("kron-fixed-space-dim", "kron-geometric",
                             "spectral-gap") if n in mix]
    if len({mix[n].value for n in mix_names}) > 1:
        disagreements.append("mixing")
    irr = irreducible_routes(a)
    if len({r.value for r in irr.values()}) > 1:
        disagreements.append("irreducible")
    prim = primitive_routes(a)
    if len({r.value for r in prim.values()}) > 1:
        disagreements.append("primitive")
    if prim["kron-digraph"].value != prim["aperiodic"].value:
        disagreements.append("kron-digraph-vs-aperiodic")

    # tensor-square ergodicity must equal base-map mixing
    if a.exact is not None:
        exact = np.array(a.exact, dtype=object)
        big = from_matrix(np.kron(exact, exact), kron_cone)
    else:
        big = from_matrix(np.kron(a.matrix, a.matrix), kron_cone)
    if is_ergodic(big) != _resolve_value(mix):
        disagreements.append("kron-ergodic-vs-mixing")

    for routes in (erg, mix, irr, prim):
        if any(r.marginal for r in routes.values()):
            marginal = True
    verdicts = (_resolve_value(erg), _resolve_value(mix),
                _resolve_value(irr), _resolve_value(prim))
    return verdicts, disagreements, marginal


def _resolve_value(routes):
    for route in routes.values():
        if route.exact:
            return route.value
    return next(iter(routes.values())).value


def test_criterion_6_route_agreement_corpus():
    rng = np.random.default_rng(2024)
    total = 500
    float_flagged = 0
    for k in range(total):
        d = 3 if k % 2 == 0 else 4
        exact_rows = random_stochastic_exact(rng, d)
        kron_cone = TensorCone(Orthant(d), Orthant(d))

        a_exact = from_stochastic(exact_rows)
        verdicts_exact, disagreements, _ = _route_agreement(a_exact, kron_cone)
        assert not disagreements, \
            f"exact-mode disagreement on matrix {k}: {disagreements}"

        a_float = from_stochastic(to_float_rows(exact_rows))
        verdicts_float, disagreements_f, marginal = _route_agreement(
            a_float, kron_cone)
        if disagreements_f or marginal:
            float_flagged += 1
        else:
            assert verdicts_float == verdicts_exact, \
                f"unflagged float-mode mismatch on matrix {k}"
    assert float_flagged <= total * 0.01
    ok(6, f"(500 matrices, 0 exact disagreements, {float_flagged} "
          "float-flagged)")


def test_criterion_7_tensor_scc_equals_period():
    rng = np.random.default_rng(77)
    for _ in range(100):
        d = int(rng.integers(2, 9))
        g = random_strongly_connected_digraph(rng, d)
        assert tensor_scc_count(g) == period(g)
    ok(7, "(100 digraphs, tensor SCC count = period)")


def test_criterion_8_quantum_fixtures():
    ident = from_kraus([np.eye(2)])
    rep = classify(ident)
    assert rep.ergodic is False
    assert rep.multiplicity_r.geometric == 4  # full fixed space

    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]])
    z = np.diag([1.0, -1.0]).astype(complex)
    depol = from_kraus([0.5 * np.eye(2), 0.5 * x, 0.5 * y, 0.5 * z])
    assert classify(depol).primitive is True

    deph = from_kraus([np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * z])
    assert classify(deph).ergodic is False

    gamma = 0.5
    damp = from_kraus([np.array([[1, 0], [0, np.sqrt(1 - gamma)]]),
                       np.array([[0, np.sqrt(gamma)], [0, 0]])])
    rep = classify(damp)
    assert rep.mixing is True
    assert rep.primitive is False
    # the stationary state is rank-deficient: on the cone boundary
    cone = Psd(2)
    assert cone.contains(rep.stationary)
    assert not cone.interior_contains(rep.stationary)
    eigs = np.linalg.eigvalsh(cone.basis.mat(rep.stationary))
    assert eigs[0] == pytest.approx(0.0, abs=1e-9)
    ok(8, "(identity not ergodic, depolarizing primitive, dephasing not "
          "ergodic, damping mixing with boundary stationary state)")


def test_criterion_9_u_norm_contraction_and_axioms():
    rng = np.random.default_rng(99)
    pairs = []
    for _ in range(500):
        d = int(rng.integers(2, 7))
        a = random_dense_stochastic(rng, d)
        pairs.append((a, rng.standard_normal(d)))
    for _ in range(250):
        h = int(rng.integers(2, 4))
        a = random_kraus_channel(rng, h)
        pairs.append((a, rng.standard_normal(h * h)))
        pairs.append((a, rng.standard_normal(h * h)))
    assert len(pairs) == 1000
    for a, vec in pairs:
        before = u_norm(vec, a.unit, a.cone)
        after = u_norm(a.matrix @ vec, a.unit, a.cone)
        assert after <= before + 1e-12
        # axioms on the same corpus
        c = float(rng.standard_normal())
        assert u_norm(c * vec, a.unit, a.cone) == pytest.approx(
            abs(c) * before, abs=1e-9)
        other = rng.standard_normal(a.dim)
        assert u_norm(vec + other, a.unit, a.cone) <= \
            before + u_norm(other, a.unit, a.cone) + 1e-9
        if before < 1e-12:
            np.testing.assert_allclose(vec, 0.0, atol=1e-10)
    ok(9, "(1000 pairs: contraction, homogeneity, triangle inequality)")


def test_criterion_9_u_norm_axioms_on_polyhedral_and_tensor_cones():
    # dup positive maps on the seeded polyhedral cones (triangle (x) square
    # among them) and the square-cone rotation; the vectors cross between
    # the closed form <u, x> on +-K and the LP outside it
    rng = np.random.default_rng(909)
    cones = seeded_polyhedral_cones(rng)
    maps = [from_matrix([[1, 0, 0], [0, 0, -1], [0, 1, 0]], cones["square"])]
    for cone in cones.values():
        m = dup_generator_map(rng, cone)
        maps += [from_matrix(m, cone), from_matrix(to_float_rows(m), cone)]
    crossings = {"contraction": 0, "triangle": 0}

    def signed_member(v, cone):
        return cone.contains(v) or cone.contains(-v)

    checked = 0
    for a in maps:
        assert is_dup(a) and is_positive(a)
        gens = np.array(a.cone.extremal_generators())
        for _ in range(12):
            inside = rng.random(len(gens)) @ gens
            vec = inside + rng.uniform(0.0, 2.0) * np.linalg.norm(inside) \
                * rng.standard_normal(a.dim) / np.sqrt(a.dim)
            other = rng.choice([-1.0, 1.0]) * rng.random(len(gens)) @ gens
            for x, y in ((vec, other), (inside, vec), (-inside, other)):
                before = u_norm(x, a.unit, a.cone)
                image = a.matrix @ x
                after = u_norm(image, a.unit, a.cone)
                assert after <= before * (1 + 1e-9) + 1e-12
                crossings["contraction"] += \
                    signed_member(x, a.cone) != signed_member(image, a.cone)
                c = float(rng.standard_normal())
                assert u_norm(c * x, a.unit, a.cone) == pytest.approx(
                    abs(c) * before, rel=1e-9, abs=1e-12)
                total = u_norm(x + y, a.unit, a.cone)
                assert total <= (before + u_norm(y, a.unit, a.cone)) \
                    * (1 + 1e-9) + 1e-12
                crossings["triangle"] += len({
                    signed_member(v, a.cone) for v in (x, y, x + y)}) == 2
                checked += 1
    assert min(crossings.values()) > 0, crossings
    ok(9, f"({len(maps)} dup positive polyhedral and tensor maps, {checked} "
          f"vectors, crossings {crossings})")


def test_criterion_10_kron_of_mixing_pairs_is_mixing():
    rng = np.random.default_rng(1010)
    cone = TensorCone(Orthant(3), Orthant(3))
    for _ in range(100):
        a = random_dense_stochastic(rng, 3)
        b = random_dense_stochastic(rng, 3)
        assert is_mixing(a) and is_mixing(b)
        big = from_matrix(np.kron(a.matrix, b.matrix), cone)
        assert is_mixing(big)
    ok(10, "(100 mixing pairs, Kronecker product mixing)")


def test_criterion_11_deterministic_reports(capsys):
    for fixture in sorted(FIXTURES.glob("*.json")):
        outputs = []
        for _ in range(2):
            code = main(["classify", str(fixture)])
            assert code == 0
            doc = json.loads(capsys.readouterr().out)
            doc.pop("timings")
            outputs.append(json.dumps(doc))
        assert outputs[0] == outputs[1], f"nondeterministic: {fixture.name}"
    with capsys.disabled():
        ok(11, f"(byte-identical reports on {len(list(FIXTURES.glob('*.json')))} "
               "fixtures)")
