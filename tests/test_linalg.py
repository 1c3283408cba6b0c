import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conemix import linalg as la

SHEAR = [[1, 1], [0, 1]]
LOWER = [[2, 0], [1, 1]]


def exact(m):
    return la.as_exact(m)


def integer(m):
    """The integer matrix N of ``m = N / D``."""
    return la.integer_form(m).N


def chain(m, lam):
    # q N - p D I = q D (m - lam I) for m = N / D and lam = p / q
    n, d = la.integer_form(m)
    lam = Fraction(lam)
    return la._kernel_chain(n * lam.denominator, lam.numerator * d)


def pair(m, lam):
    return la.chain_pair(chain(m, lam))


def degree(m, lam):
    return len(chain(m, lam))


def kernel_dim(m):
    return len(la.exact_kernel_basis(integer(m)))


# exact products are numpy's operators on object arrays of Fractions
def obj(m):
    return np.array(m, dtype=object)


def power(m, n):
    return np.linalg.matrix_power(obj(m), n).tolist()


IDENTITY_2 = exact([[1, 0], [0, 1]])


def test_kron_identity():
    assert np.kron(obj(IDENTITY_2), obj(IDENTITY_2)).tolist() == \
        exact(np.eye(4, dtype=int).tolist())


def test_kron_scalar():
    assert np.kron(obj(exact([[2]])), obj(exact([[3]]))).tolist() == \
        exact([[6]])


def test_kron_power_of_shear():
    # powers of the Kronecker square factor through powers of the base map
    a = obj(exact(SHEAR))
    for n in (1, 2, 5, 9):
        lhs = power(np.kron(a, a), n)
        an = obj(power(a, n))
        assert lhs == np.kron(an, an).tolist()
        expected = [[1, n, n, n * n], [0, 1, 0, n], [0, 0, 1, n], [0, 0, 0, 1]]
        assert lhs == exact(expected)


def _random_exact(rng, n):
    return [[Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
             for _ in range(n)] for _ in range(n)]


def test_kron_mixed_product_property():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, c = obj(_random_exact(rng, 3)), obj(_random_exact(rng, 3))
        b, d = obj(_random_exact(rng, 2)), obj(_random_exact(rng, 2))
        lhs = np.kron(a, b) @ np.kron(c, d)
        assert lhs.tolist() == np.kron(a @ c, b @ d).tolist()


def test_kron_acts_on_products():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, b = obj(_random_exact(rng, 3)), obj(_random_exact(rng, 4))
        x, y = _random_exact(rng, 3)[0], _random_exact(rng, 4)[0]
        xy = obj([u * v for u in x for v in y])
        ax, by = a @ obj(x), b @ obj(y)
        assert (np.kron(a, b) @ xy).tolist() == \
            [u * v for u in ax for v in by]


def test_kernel_dim_examples():
    assert kernel_dim(exact([[0] * 3] * 3)) == 3
    assert kernel_dim(IDENTITY_2) == 0
    assert kernel_dim(la._shift(integer(SHEAR), 1)) == 1


def test_kernel_dim_exact_matches_float():
    rng = np.random.default_rng(5)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        m = [[Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5)))
              for _ in range(d)] for _ in range(d)]
        if rng.random() < 0.5:
            # force a rank drop: make the last row a combination of others
            coeffs = [Fraction(int(rng.integers(-2, 3))) for _ in range(d - 1)]
            m[-1] = [sum(c * m[i][j] for i, c in enumerate(coeffs))
                     for j in range(d)]
        assert kernel_dim(m) == d - np.linalg.matrix_rank(
            np.array(m, dtype=float))


def test_kernel_basis_annihilates():
    m = [[Fraction(1), Fraction(2), Fraction(3)],
         [Fraction(2), Fraction(4), Fraction(6)],
         [Fraction(0), Fraction(1), Fraction(1)]]
    basis = la.exact_kernel_basis(integer(m))
    assert len(basis) == 1
    assert all(sum(r * v for r, v in zip(row, basis[0])) == 0 for row in m)


def radius(m):
    return la.Spectrum(np.asarray(m, dtype=float)).r


def test_spectral_radius_examples():
    assert radius(SHEAR) == pytest.approx(1.0)
    assert radius(LOWER) == pytest.approx(2.0)
    assert radius([[0]]) == 0.0


def test_spectral_radius_of_kron_multiplies():
    rng = np.random.default_rng(6)
    for _ in range(25):
        a = rng.standard_normal((int(rng.integers(2, 5)),) * 2)
        b = rng.standard_normal((int(rng.integers(2, 5)),) * 2)
        assert radius(np.kron(a, b)) == pytest.approx(
            radius(a) * radius(b), abs=1e-8)


def test_spectral_radius_of_transpose():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = rng.standard_normal((4, 4))
        assert radius(a.T) == pytest.approx(radius(a), abs=1e-10)


def test_multiplicities_jordan_block():
    assert pair(exact(SHEAR), 1) == (1, 2)
    assert la.Spectrum(np.array(SHEAR, float)).peak_pair(la.FLOAT_MODE) == \
        (1, 2)


def test_multiplicities_identity():
    assert pair(IDENTITY_2, 1) == (2, 2)


def test_multiplicities_distinct_eigenvalues():
    assert pair(exact(LOWER), 2) == (1, 1)
    assert pair(exact(LOWER), 1) == (1, 1)


def test_multiplicities_non_eigenvalue():
    assert pair(exact(LOWER), 3) == (0, 0)
    # r = 2 is not an eigenvalue; -2 is the only one
    assert la.Spectrum(np.array([[-2.0]])).peak_pair(la.FLOAT_MODE) == (0, 0)


def test_mat_power_examples():
    a = exact(SHEAR)
    assert power(a, 11) == exact([[1, 11], [0, 1]])
    assert power(a, 0) == IDENTITY_2
    half = [[Fraction(1), Fraction(0)], [Fraction(1, 2), Fraction(1, 2)]]
    for n in (1, 3, 6):
        expected = [[Fraction(1), Fraction(0)],
                    [1 - Fraction(1, 2 ** n), Fraction(1, 2 ** n)]]
        assert power(half, n) == expected


def test_eigenvalue_degree():
    assert degree(exact(SHEAR), 1) == 2
    assert degree(exact(LOWER), 2) == 1
    assert degree(exact(LOWER), 5) == 0
    block = [[0, 1, 0], [0, 0, 0], [0, 0, 1]]
    assert degree(exact(block), 0) == 2


def test_kernel_dim_scale_anchor():
    # singular values of a shift that is rounding noise read as a full
    # kernel once the cutoff is anchored to the scale of the matrices the
    # shift came from; a purely relative cutoff sees full rank
    noise = np.full(4, 1e-16)
    assert la._float_pair(4, noise, 1.0, la.FLOAT_MODE) == (4, 4)
    assert la._float_pair(4, noise, 0.0, la.FLOAT_MODE) == (1, 4)


def test_scalar_mode_validation():
    with pytest.raises(ValueError):
        la.ScalarMode("decimal")
    with pytest.raises(ValueError):
        la.ScalarMode(la.FLOAT, eps_rank=0.0)
    scaled = la.FLOAT_MODE.scaled(10.0)
    assert scaled.eps_rank == pytest.approx(1e-8)


def test_as_exact_rejects_floats():
    # a float is never made exact
    assert la.as_exact([[0.5]]) is None


F = Fraction


@pytest.mark.parametrize("value, expected", [
    ([1, 2], [F(1), F(2)]),
    ((1, F(1, 3)), [F(1), F(1, 3)]),
    ([[1, F(2, 3)], [0, -4]], [[F(1), F(2, 3)], [F(0), F(-4)]]),
    (["1/2", "-3/4"], [F(1, 2), F(-3, 4)]),
    ([["0.25", "1e-3"]], [[F(1, 4), F(1, 1000)]]),
    (["1e400"], ValueError),
    (["1e-10000000"], ValueError),
    ([["1", "-1e10000000"]], ValueError),
    (["-0.0e10000000", "0e-10000000"], [F(0), F(0)]),
    ([10 ** 400], [F(10) ** 400]),
    ([], []),
    (np.array([F(1, 2), 3], dtype=object), [F(1, 2), F(3)]),
    (np.array([[F(1, 2), 0], [1, F(1, 3)]], dtype=object),
     [[F(1, 2), F(0)], [F(1), F(1, 3)]]),
    ([[1, 0.5]], None),
    ([0.0], None),
    (np.array([0.5, 1.0]), None),
    (np.array([[1.0, 0.0], [0.0, 1.0]]), None),
    (np.array([1, 2]), None),
    (np.array([1.0, 2.0], dtype=object), None),
    ([np.int64(1)], None),
    (3, None),
    (F(1, 2), None),
    ("1/2", None),
    (None, None),
    ([True, 1], None),
    ([[1, False]], None),
    (["abc"], None),
    (["1/0"], None),
    (["nan"], None),
    ([[1, 2], 3], None),
    ([1, [2]], None),
    ([[1, 2], [3]], None),
    ([[[1]]], None),
    ([{"re": 1}], None),
], ids=["ints", "tuple", "matrix", "p/q", "decimal", "huge-string",
        "tiny-string", "huge-exponent-in-row", "zero-mantissa", "huge-int",
        "empty", "object-vector", "object-matrix",
        "float-entry", "float-zero", "float-vector", "float-matrix",
        "int-ndarray", "object-floats", "numpy-int", "scalar-int",
        "scalar-fraction", "scalar-string", "none", "bool", "bool-in-row",
        "junk-string", "zero-denominator", "nan-string", "row-and-scalar",
        "scalar-and-row", "ragged", "three-deep", "dict-entry"])
def test_as_exact_table(value, expected):
    if expected is ValueError:
        # refused before Fraction expands the exponent
        start = time.perf_counter()
        with pytest.raises(ValueError, match="out of the range of a float"):
            la.as_exact(value)
        assert time.perf_counter() - start < 1.0
        return
    got = la.as_exact(value)
    assert got == expected
    if got is not None:
        flat = got[0] if got and isinstance(got[0], list) else got
        assert all(type(v) is Fraction for v in flat)


# ---------------------------------------------------------------------------
# known answers for the exact layer, built so the answer is known by
# construction: unimodular integer factors change neither rank nor Jordan
# structure
# ---------------------------------------------------------------------------

def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _unimodular_pair(rng, n):
    """(P, P^-1): a product of integer shears and a signed permutation."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    for _ in range(2 * n if n > 1 else 0):
        i, j = (int(v) for v in rng.choice(n, 2, replace=False))
        c = int(rng.choice([-2, -1, 1, 2]))
        shear = [[int(a == b) + (c if (a, b) == (i, j) else 0)
                  for b in range(n)] for a in range(n)]
        unshear = [[int(a == b) - (c if (a, b) == (i, j) else 0)
                    for b in range(n)] for a in range(n)]
        p, p_inv = _matmul(shear, p), _matmul(p_inv, unshear)
    perm = [int(v) for v in rng.permutation(n)]
    signs = [int(rng.choice([-1, 1])) for _ in range(n)]
    signed = [[signs[a] if b == perm[a] else 0 for b in range(n)]
              for a in range(n)]
    signed_inv = [[signs[b] if a == perm[b] else 0 for b in range(n)]
                  for a in range(n)]
    return _matmul(signed, p), _matmul(p_inv, signed_inv)


RANK_SHAPES = [(1, 1), (1, 5), (5, 1), (3, 3), (4, 6), (6, 4), (5, 5), (2, 7)]


def test_exact_rank_of_unimodular_products():
    rng = np.random.default_rng(101)
    for case in range(240):
        m, n = RANK_SHAPES[case % len(RANK_SHAPES)]
        k = int(rng.integers(0, min(m, n) + 1))
        p, _ = _unimodular_pair(rng, m)
        q, _ = _unimodular_pair(rng, n)
        d = [[int(i == j and i < k) for j in range(n)] for i in range(m)]
        # rescaling rows by nonzero rationals keeps the rank and the kernel
        mat = [[Fraction(v, s) for v in row] for row, s in
               zip(_matmul(_matmul(p, d), q),
                   (int(rng.integers(1, 7)) for _ in range(m)))]
        assert la.exact_rank(integer(mat)) == k
        basis = la.exact_kernel_basis(integer(mat))
        assert len(basis) == n - k
        assert all(sum(x * y for x, y in zip(row, v)) == 0
                   for row in mat for v in basis)


def test_exact_kernel_basis_of_known_echelon_forms():
    rng = np.random.default_rng(102)
    for case in range(240):
        m, n = RANK_SHAPES[case % len(RANK_SHAPES)]
        k = int(rng.integers(0, min(m, n) + 1))
        pivots = sorted(int(v) for v in rng.choice(n, k, replace=False))
        free = [c for c in range(n) if c not in pivots]
        # reduced row echelon form R with random entries right of each
        # pivot on the free columns; its kernel basis is known in closed form
        r = [[Fraction(0)] * n for _ in range(k)]
        for i, pc in enumerate(pivots):
            r[i][pc] = Fraction(1)
            for fc in free:
                if fc > pc:
                    r[i][fc] = Fraction(int(rng.integers(-3, 4)),
                                        int(rng.integers(1, 4)))
        p, _ = _unimodular_pair(rng, m)
        mat = _matmul([row[:k] for row in p], r) if k else \
            [[Fraction(0)] * n for _ in range(m)]
        expected = []
        for fc in free:
            v = [Fraction(int(c == fc)) for c in range(n)]
            for i, pc in enumerate(pivots):
                v[pc] = -r[i][fc]
            expected.append(v)
        assert la.exact_rank(integer(mat)) == k
        # primitive integer vectors, each a positive multiple of the
        # reduced row-echelon basis vector of its free column
        basis = la.exact_kernel_basis(integer(mat))
        assert all(math.gcd(*v) == 1 and v[fc] > 0
                   for v, fc in zip(basis, free))
        assert [[Fraction(x, v[fc]) for x in v]
                for v, fc in zip(basis, free)] == expected


def _jordan(blocks):
    """Block-diagonal Jordan form of [(eigenvalue, size), ...]."""
    n = sum(size for _, size in blocks)
    j = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for lam, size in blocks:
        for i in range(size):
            j[at + i][at + i] = Fraction(lam)
            if i + 1 < size:
                j[at + i][at + i + 1] = Fraction(1)
        at += size
    return j


def test_multiplicities_of_similar_jordan_forms():
    rng = np.random.default_rng(103)
    values = [0, 1, 2, -1, Fraction(1, 2), Fraction(-3, 4)]
    for _ in range(240):
        blocks = [(values[int(rng.integers(0, 4))], int(rng.integers(1, 4)))
                  for _ in range(int(rng.integers(1, 4)))]
        j = _jordan(blocks)
        p, p_inv = _unimodular_pair(rng, len(j))
        a = _matmul(_matmul(p, j), p_inv)
        for lam in values:
            sizes = [size for mu, size in blocks if mu == lam]
            assert pair(a, lam) == (len(sizes), sum(sizes))
            assert degree(a, lam) == max(sizes, default=0)
