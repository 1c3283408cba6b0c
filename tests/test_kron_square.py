"""The Kronecker-square facts against full-square references.

The float ``spectral-gap`` mixing route reads A's own peripheral spectrum
and never forms the d^2 x d^2 square; the ``kron-digraph`` primitivity
route is Wielandt's boolean power test.  Both are checked here against
the full-square eigenvalues and SVD and against Tarjan on the product
digraph (``tests/helpers.py``).
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
from conemix.classify import _wielandt_primitive, ergodic_routes, \
    mixing_routes, primitive_routes
from conemix.linalg import FLOAT_MODE, MultiplicityPair
from helpers import (
    CHAIN_KINDS,
    random_chain,
    random_dense_stochastic,
    random_exact_chain,
    random_kraus_channel,
    random_stochastic_exact,
    reference_kron_digraph_connected,
    reference_kron_r2_pair,
    reference_kron_square,
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


def larger_float_chain_corpus():
    rng = np.random.default_rng(77)
    for kind in ("periodic", "multi", "transient-periodic"):
        for d in range(13, 26, 2):
            m = random_chain(rng, d, kind)
            yield f"{kind}:{d}", from_stochastic(m)
            yield f"{kind}:{d}:T", from_matrix(
                rng.uniform(0.5, 4.0) * m.T, Orthant(d))


def unitary_channel_corpus():
    rng = np.random.default_rng(78)
    for h in (2, 3, 4):
        for k in range(2):
            yield f"unitary:{h}:{k}", random_kraus_channel(rng, h, 1)


def near_tie_corpus():
    # a near-identity pair beside a closed class of its own: three
    # eigenvalues within eps_cluster of r, one cluster of them
    for e in (3e-8, 1e-9, 2e-7, 5e-8):
        m = np.eye(3)
        m[:2, :2] = [[1 - e, e], [e, 1 - e]]
        yield f"near-tie:{e}", from_stochastic(m)


def test_spectral_gap_matches_full_square():
    # for a radius that is an eigenvalue, dim ker(A (x) A - r^2 I) = 1
    # exactly when r is algebraically simple and the only eigenvalue of
    # modulus r, so the spectral-gap route decides the paper's criterion.
    # (The near-identity chains are left out: their gaps lie within 0.1x
    # to 10x eps_cluster, where the two float counts can part, and
    # test_tolerance_marginal_flags_near_identity flags them.)
    checked = repeated = 0
    for corpus in (float_chain_corpus, kraus_corpus,
                   larger_float_chain_corpus, unitary_channel_corpus,
                   near_tie_corpus):
        for name, a in corpus():
            reference = reference_kron_square(a.matrix)
            ev = np.linalg.eigvals(a.matrix)
            offsets = np.abs(ev / np.max(np.abs(ev)) - 1.0)
            for factor in SCALES:
                mode = FLOAT_MODE.scaled(factor)
                pair = reference(mode)
                expected = pair.geometric == 1 and \
                    offsets.min() <= mode.eps_cluster
                assert mixing_routes(a, mode)["spectral-gap"].value == \
                    expected, (name, factor)
                repeated += pair.algebraic >= 2
                checked += 1
    assert checked == 3 * (200 + 13 + 42 + 6 + 4) and repeated >= 3 * 52


JORDAN_J2 = [[1, 1], [0, 1]]
JORDAN_J2_NEG = [[-1, 1], [0, -1]]


def _block_diag(*blocks):
    d = sum(len(b) for b in blocks)
    m = np.zeros((d, d), dtype=int)
    at = 0
    for b in blocks:
        m[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    return m.tolist()


@pytest.mark.parametrize("matrix, expected", [
    ([[1, 0], [1, 1]], (2, 4)),
    (_block_diag(JORDAN_J2, [[1]]), (5, 9)),
    (_block_diag(JORDAN_J2, [[1]], [[1]]), (10, 16)),
    (_block_diag([[1]], JORDAN_J2_NEG), (3, 5)),
    ([[1, 1, 0], [0, 1, 1], [0, 0, 1]], (3, 9)),
    (_block_diag(JORDAN_J2, JORDAN_J2_NEG), (4, 8)),
    (_block_diag([[2, 1], [0, 2]], [[-2, 1], [0, -2]], [[1]]), (4, 8)),
], ids=["shear", "J2(1)+1", "J2(1)+1+1", "1+J2(-1)", "J3(1)", "J2(1)+J2(-1)",
        "J2(2)+J2(-2)+1"])
def test_kron_peak_pair_counts_jordan_blocks(matrix, expected):
    # the exact pair at the peak r^2 of the Kronecker square:
    # J_p(lam) (x) J_q(mu) has min(p, q) blocks at lam mu.  Its float twin
    # reads not mixing at every probe, from A's eigenvalues alone.
    a = from_matrix(matrix, Orthant(len(matrix)))
    assert a.spectrum.kron_r2_pair == reference_kron_r2_pair(a) == expected
    floats = from_matrix(np.array(matrix, dtype=float), Orthant(len(matrix)))
    for factor in SCALES:
        mode = FLOAT_MODE.scaled(factor)
        assert not mixing_routes(floats, mode)["spectral-gap"], factor


def _conjugates(matrix, seed, count=40):
    rng = np.random.default_rng(seed)
    d = len(matrix)
    for _ in range(count):
        s = rng.standard_normal((d, d))
        yield from_matrix(s @ np.array(matrix, dtype=float) @ np.linalg.inv(s),
                          Orthant(d))


@pytest.mark.parametrize("matrix, expected", [
    ([[1, 0], [1, 1]], (2, 4)),
    (_block_diag(JORDAN_J2, [[1]]), (5, 9)),
    (_block_diag(JORDAN_J2, JORDAN_J2_NEG), (4, 8)),
], ids=["shear", "J2(1)+1", "J2(1)+J2(-1)"])
def test_kron_peak_pair_on_conjugated_jordan_blocks(matrix, expected):
    # rounding splits a conjugated Jordan block at r into eigenvalues about
    # 1e-8 apart, near eps_cluster.  The exact pair says not mixing (its
    # geometric count is 2 or more), and so does every float probe of a
    # conjugate, which never reads r as algebraically simple either.
    assert from_matrix(matrix, Orthant(len(matrix))).spectrum.kron_r2_pair \
        == expected
    assert expected[0] >= 2
    for a in _conjugates(matrix, 81, 60):
        for factor in SCALES:
            mode = FLOAT_MODE.scaled(factor)
            assert not ergodic_routes(a, mode)["eigenvalue-cluster"], factor
            assert not mixing_routes(a, mode)["spectral-gap"], factor


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 17: rounding splits this J3(1) by about 1e-4, past "
    "SPLIT_WINDOW, so both float routes read r as simple, with no flag"))
def test_widely_split_jordan_block_is_not_misread_silently():
    # eigenvalues 1.0001016 and 0.9999492 +- 8.8e-5 i
    a = list(_conjugates([[1, 1, 0], [0, 1, 1], [0, 0, 1]], 81, 60))[29]
    rep = classify(a)
    flagged = [f for f in rep.hypothesis_flags
               if f.split(":")[1:2] in (["ergodic"], ["mixing"])]
    assert not (rep.ergodic or rep.mixing) or flagged


@pytest.mark.parametrize("matrix", [
    [[1, 0], [1, 1]],
    _block_diag(JORDAN_J2, [[1]]),
    _block_diag([[1]], JORDAN_J2_NEG),
    [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
], ids=["shear", "J2(1)+1", "1+J2(-1)", "J3(1)"])
def test_conjugated_jordan_block_never_reads_as_mixing(matrix):
    # a split defective peak at r reads as two or more eigenvalues near r,
    # or one beside another of modulus r; either way, not mixing
    for a in _conjugates(matrix, 82):
        for factor in SCALES:
            mode = FLOAT_MODE.scaled(factor)
            assert not mixing_routes(a, mode)["spectral-gap"], factor


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


@pytest.fixture
def svd_rows(monkeypatch):
    """Row counts of the matrices ``np.linalg.svd`` runs on."""
    rows = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        rows.append(len(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return rows


def test_primitive_maps_build_no_kronecker_square(kron_calls):
    rng = np.random.default_rng(74)
    maps = [random_dense_stochastic(rng, 10), random_kraus_channel(rng, 3, 4)]
    kron_calls.clear()  # building the channel may use np.kron
    for a in maps:
        rep = classify(a)
        assert rep.mixing and rep.multiplicity_r2_kron is None
    assert kron_calls == []


@pytest.mark.parametrize("matrix", [
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    random_chain(np.random.default_rng(79), 20, "periodic"),
], ids=["swap", "period-3-cycle", "periodic-20"])
def test_repeated_peak_builds_no_kronecker_square(kron_calls, svd_rows,
                                                  matrix):
    # r^2 is a repeated eigenvalue of the square on all three, from -r or
    # a complex eigenvalue of modulus r; A's own moduli say so
    a = from_stochastic(np.array(matrix))
    rep = classify(a)
    assert not rep.mixing
    assert rep.multiplicity_r2_kron is None
    assert kron_calls == []
    assert max(svd_rows, default=0) <= a.dim


def test_svd_guard_sees_rank_profiles(svd_rows):
    # the guard above is not vacuous: a repeated eigenvalue at r (two
    # closed classes) takes the d x d SVD of A/r - I, and a Jordan block at
    # r that rounding split takes the d x d SVDs of its rank profile
    a = from_stochastic(random_chain(np.random.default_rng(80), 12, "multi"))
    assert classify(a).multiplicity_r.geometric >= 2
    assert max(svd_rows) == a.dim
    svd_rows.clear()
    b = next(_conjugates(JORDAN_J2, 81))
    assert classify(b).multiplicity_r == (1, 2)
    assert b.spectrum._split_sv and max(svd_rows) == b.dim


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
