"""The Kronecker-square facts against full-square references.

``Spectrum.kron_peak_pair`` counts eigenvalues of ``A (x) A`` from the
products of A's and builds the d^2 x d^2 square only for its SVD when r^2
is repeated; the ``kron-digraph`` primitivity route is Wielandt's boolean
power test.  Both are checked here against the full-square eigenvalues and
SVD and against Tarjan on the product digraph (``tests/helpers.py``).
``Spectrum.kron_r2_pair`` certifies the exact pair modulo a prime and runs
the exact kernel chain of the square only when the certificate fails; it
is checked against that chain on every map.
"""

from fractions import Fraction

import numpy as np
import pytest

import conemix.linalg as la
from conemix import Orthant, Polyhedral, ZeroSpectralRadiusError, classify, \
    from_matrix, from_stochastic
from conemix.classify import _wielandt_primitive, primitive_routes
from conemix.linalg import FLOAT_MODE, MultiplicityPair
from helpers import (
    CHAIN_KINDS,
    random_chain,
    random_dense_stochastic,
    random_exact_chain,
    random_kraus_channel,
    random_stochastic_exact,
    reference_kron_digraph_connected,
    reference_kron_peak_pair,
    reference_kron_r2_pair,
    route_corpus,
)

SCALES = (0.1, 1.0, 10.0)


def float_chain_corpus():
    rng = np.random.default_rng(71)
    for kind in CHAIN_KINDS:
        for d in range(3, 13):
            for _ in range(2):
                m = random_chain(rng, d, kind)
                yield f"{kind}:{d}", from_stochastic(m)
                # scaled, so that r is not 1
                yield f"{kind}:{d}:T", from_matrix(
                    rng.uniform(0.5, 4.0) * m.T, Orthant(d))


def kraus_corpus():
    rng = np.random.default_rng(72)
    for h in (2, 3):
        for n_ops in range(1, h * h + 1):
            yield f"kraus:{h}:{n_ops}", random_kraus_channel(rng, h, n_ops)


def near_identity_corpus():
    # the chains of test_tolerance_marginal_flags_near_identity
    for e in (3e-8, 1e-9, 2e-7, 1e-3):
        yield f"near:{e}", from_stochastic([[1 - e, e], [e, 1 - e]])


def test_kron_peak_pair_matches_full_square():
    checked = 0
    for corpus in (float_chain_corpus, kraus_corpus, near_identity_corpus):
        for name, a in corpus():
            for factor in SCALES:
                mode = FLOAT_MODE.scaled(factor)
                assert a.spectrum.kron_peak_pair(mode) == \
                    reference_kron_peak_pair(a.matrix, mode), (name, factor)
                checked += 1
    assert checked >= 3 * (200 + 13 + 4)


def test_kron_digraph_route_matches_product_digraph():
    for name, a in float_chain_corpus():
        pattern = (a.matrix > 0).astype(np.int64)
        assert primitive_routes(a)["kron-digraph"].value == \
            reference_kron_digraph_connected(pattern), name


def test_wielandt_matches_product_digraph_on_random_patterns():
    rng = np.random.default_rng(73)
    seen = set()
    for _ in range(600):
        d = int(rng.integers(1, 8))
        pattern = (rng.random((d, d)) < rng.uniform(0.05, 0.8)) \
            .astype(np.int64)
        primitive = _wielandt_primitive(pattern)
        if d == 1:
            # one vertex is always strongly connected; Wielandt asks for
            # the loop
            assert primitive == bool(pattern[0, 0])
        else:
            assert primitive == reference_kron_digraph_connected(pattern), \
                pattern.tolist()
        seen.add((d > 1, primitive))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_wielandt_bound_is_sharp():
    # the Wielandt matrix: a d-cycle plus one chord, whose first positive
    # power is exactly (d-1)^2 + 1
    for d in range(2, 9):
        pattern = np.zeros((d, d), dtype=np.int64)
        pattern[np.arange(1, d), np.arange(d - 1)] = 1
        pattern[0, d - 1] = pattern[1, d - 1] = 1
        power = np.linalg.matrix_power(pattern, (d - 1) ** 2)
        assert not power.all()
        assert (power @ pattern).all()
        assert _wielandt_primitive(pattern)
        assert reference_kron_digraph_connected(pattern)


@pytest.fixture
def kron_calls(monkeypatch):
    calls = []
    kron = np.kron

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return kron(*args, **kwargs)

    monkeypatch.setattr(np, "kron", counting)
    return calls


def test_primitive_maps_build_no_kronecker_square(kron_calls):
    rng = np.random.default_rng(74)
    maps = [random_dense_stochastic(rng, 10), random_kraus_channel(rng, 3, 4)]
    kron_calls.clear()  # building the channel may use np.kron
    for a in maps:
        rep = classify(a)
        assert rep.mixing and rep.multiplicity_r2_kron == (1, 1)
        assert "_kron_shift_sv" not in vars(a.spectrum)
    assert kron_calls == []


def test_repeated_peak_still_runs_the_square_svd(kron_calls):
    # the swap chain has r^2 = 1 twice on its square: geometric needs the
    # SVD, so the guard above is not vacuous
    a = from_stochastic(np.array([[0.0, 1.0], [1.0, 0.0]]))
    rep = classify(a)
    assert rep.multiplicity_r2_kron == (2, 2)
    assert "_kron_shift_sv" in vars(a.spectrum)
    assert kron_calls == [(2, 2)]


# ---------------------------------------------------------------------------
# the exact pair: modular certificate, exact kernel chain as the fallback
# ---------------------------------------------------------------------------

@pytest.fixture
def chain_sizes(monkeypatch):
    """Row counts of the matrices ``_kernel_chain`` runs on."""
    sizes = []
    chain = la._kernel_chain

    def counting(m, lam):
        sizes.append(len(m))
        return chain(m, lam)

    monkeypatch.setattr(la, "_kernel_chain", counting)
    return sizes


def _pair_and_fallback(a, sizes):
    """kron_r2_pair of a fresh map, and whether it ran the chain of the
    d^2 x d^2 square."""
    sizes.clear()
    pair = a.spectrum.kron_r2_pair
    return pair, a.dim > 1 and a.dim ** 2 in sizes


def test_kron_r2_pair_matches_chain_on_route_corpus(chain_sizes):
    certified = fell_back = 0
    for name, a in route_corpus():
        if a.exact is None:
            continue
        try:
            a.spectrum.positive_r()
        except ZeroSpectralRadiusError:
            continue
        pair, fallback = _pair_and_fallback(a, chain_sizes)
        assert pair == reference_kron_r2_pair(a), name
        certified += a.spectrum.r_exact is not None and not fallback
        fell_back += fallback
    assert certified >= 60 and fell_back >= 2


def test_kron_r2_pair_matches_chain_on_exact_chains(chain_sizes):
    rng = np.random.default_rng(75)
    certified = fell_back = 0
    for kind in CHAIN_KINDS:
        for d in range(3, 10):
            rows = random_exact_chain(rng, d, kind)
            for a in (from_stochastic(rows),
                      from_matrix([list(c) for c in zip(*rows)], Orthant(d))):
                pair, fallback = _pair_and_fallback(a, chain_sizes)
                assert pair == reference_kron_r2_pair(a), (kind, d)
                certified += not fallback
                fell_back += fallback
    # the periodic chains of odd period have peripheral eigenvalues other
    # than +-r, so they fall back
    assert certified >= 50 and fell_back >= 6


SQUARE = Polyhedral([[1, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1]])
SEVENTHS = [[Fraction(3, 7), Fraction(1, 2)], [Fraction(4, 7), Fraction(1, 2)]]


@pytest.mark.parametrize("a, expected, prime", [
    (from_stochastic([[0, 0, 1], [1, 0, 0], [0, 1, 0]]), (3, 3), None),
    (from_matrix([[1, 0, 0], [0, 0, -1], [0, 1, 0]], SQUARE), (3, 3), None),
    (from_matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]], Orthant(3)), (5, 9),
     None),
    (from_matrix([[1, 0], [1, 1]], Orthant(2)), (2, 4), None),
    (from_matrix([[1, 0, 0], [0, -1, 1], [0, 0, -1]], Orthant(3)), (3, 5),
     None),
    (from_stochastic(SEVENTHS), (1, 1), 7),
], ids=["period-3-cycle", "square-rotation", "jordan-block-at-r", "shear",
        "jordan-block-at-minus-r", "prime-divides-denominator"])
def test_failed_certificates_fall_back_to_the_chain(monkeypatch, chain_sizes,
                                                    a, expected, prime):
    if prime is not None:
        monkeypatch.setattr(la, "_PRIME", prime)
    pair, fallback = _pair_and_fallback(a, chain_sizes)
    assert fallback
    assert pair == reference_kron_r2_pair(a) == MultiplicityPair(*expected)


@pytest.mark.parametrize("a, expected", [
    (from_stochastic([[0, 1], [1, 0]]), (2, 2)),  # -r is an eigenvalue
    (from_stochastic(SEVENTHS), (1, 1)),
    (from_matrix(np.diag([2, -2, 2, -2]).tolist(), Orthant(4)), (8, 8)),
], ids=["swap", "sevenths", "diag(2,-2,2,-2)"])
def test_certificate_holds_without_the_chain(chain_sizes, a, expected):
    pair, fallback = _pair_and_fallback(a, chain_sizes)
    assert not fallback
    assert pair == reference_kron_r2_pair(a) == MultiplicityPair(*expected)


@pytest.fixture
def echelon_rows(monkeypatch):
    """Row counts of the matrices the exact eliminator runs on."""
    rows = []
    echelon = la._echelon

    def counting(m):
        rows.append(len(m))
        return echelon(m)

    monkeypatch.setattr(la, "_echelon", counting)
    return rows


def test_certified_exact_chain_eliminates_no_square(echelon_rows):
    rng = np.random.default_rng(76)
    a = from_stochastic(random_stochastic_exact(rng, 7))
    rep = classify(a)
    assert rep.multiplicity_r2_kron == (1, 1)
    assert echelon_rows and max(echelon_rows) <= 7
    # the guard is not vacuous: a failed certificate eliminates the square
    echelon_rows.clear()
    classify(from_stochastic([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
    assert max(echelon_rows) == 9
