"""The Kronecker-square facts against full-square references.

``Spectrum.kron_peak_pair`` counts eigenvalues of ``A (x) A`` from the
products of A's and builds the d^2 x d^2 square only for its SVD when r^2
is repeated; the ``kron-digraph`` primitivity route is Wielandt's boolean
power test.  Both are checked here against the full-square eigenvalues and
SVD and against Tarjan on the product digraph (``tests/helpers.py``).
"""

import numpy as np
import pytest

from conemix import Orthant, classify, from_matrix, from_stochastic
from conemix.classify import _wielandt_primitive, primitive_routes
from conemix.linalg import FLOAT_MODE
from helpers import (
    CHAIN_KINDS,
    random_chain,
    random_dense_stochastic,
    random_kraus_channel,
    reference_kron_digraph_connected,
    reference_kron_peak_pair,
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
