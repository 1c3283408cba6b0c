"""Dense matrix kernel: one exact-rational path and one float spectrum.

An exact matrix is one integer matrix and one denominator,
:class:`IntegerMatrix` ``(N, D)`` with ``A = N / D``.  :func:`as_exact`
is the one test that admits a value from outside the program as exact
(it returns Fractions), and :func:`integer_form` the one place where
denominators are cleared; this module alone knows how rationals become
integers.  Inside the library exact data stays integer.  The exact
spectral facts are decided on ``B = N / g``, g the gcd of N's entries,
whose rational eigenvalues are integers: a shift by ``r = k g / D`` is
``B - k I``, the primitive form of ``q N - p D I`` for ``r = p/q``.  One
fraction-free Gauss-Jordan elimination (``_echelon``) gives ranks,
primitive integer kernel bases and, through kernel chains,
multiplicities, and every exact product is numpy's operator on an object
array of Python ints.  The exact d^2 x d^2 Kronecker square
is first eliminated modulo a prime, in int64: a kernel no larger than a
known lower bound certifies its exact multiplicities, and ``_echelon``
runs on it only when that certificate fails.
:class:`Spectrum` owns every spectral fact of one map, float (eigenvalues,
singular values, peak counts) and exact (the kernel chain at the radius,
the certified pair at r^2 on the square), and decides when the radius
counts as zero.  No float fact of the Kronecker square is computed: for
a radius r that is an eigenvalue, ``dim ker(A (x) A - r^2 I) = 1``
exactly when r is algebraically simple and no other eigenvalue has
modulus r (Horn & Johnson, *Topics in Matrix Analysis*, ch. 4), which
the float peak and moduli of A decide.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple

import numpy as np

RATIONAL = "rational"
FLOAT = "float"

__all__ = [
    "RATIONAL",
    "FLOAT",
    "ScalarMode",
    "FLOAT_MODE",
    "RATIONAL_MODE",
    "MultiplicityPair",
    "ZeroSpectralRadiusError",
    "as_exact",
    "IntegerMatrix",
    "integer_form",
    "integer_vector",
    "exact_rank",
    "chain_pair",
    "Spectrum",
]


@dataclass(frozen=True)
class ScalarMode:
    """Computation context: an arithmetic label plus the float tolerances.

    No library code reads ``kind``: the map's data decides the arithmetic,
    and ``kind`` is the label the CLI parses with and echoes.  ``eps_rank``
    is a relative singular-value cutoff, ``eps_cluster`` an absolute
    eigenvalue clustering radius (callers normalize by the spectral radius
    first), ``eps_interior`` a relative strict-positivity margin.  The
    float routes read them on exact maps too.
    """

    kind: str = FLOAT
    eps_rank: float = 1e-9
    eps_cluster: float = 1e-7
    eps_interior: float = 1e-10

    def __post_init__(self):
        if self.kind not in (RATIONAL, FLOAT):
            raise ValueError(f"unknown scalar mode {self.kind!r}")
        if min(self.eps_rank, self.eps_cluster, self.eps_interior) <= 0:
            raise ValueError("tolerances must be positive")

    def scaled(self, factor: float) -> "ScalarMode":
        """Copy with all tolerances multiplied by ``factor``."""
        return ScalarMode(self.kind, self.eps_rank * factor,
                          self.eps_cluster * factor, self.eps_interior * factor)


FLOAT_MODE = ScalarMode(FLOAT)
RATIONAL_MODE = ScalarMode(RATIONAL)


class MultiplicityPair(NamedTuple):
    """Geometric and algebraic multiplicity of one probed eigenvalue.

    Both are 0 when the probed value is not an eigenvalue.
    """

    geometric: int
    algebraic: int


class ZeroSpectralRadiusError(ValueError):
    """Raised by :meth:`Spectrum.positive_r` when the radius is zero."""


#: relative floor below which a float spectral radius counts as zero
RADIUS_FLOOR = 1e-9

#: relative distance from r within which eigenvalues are searched for a
#: Jordan block at r that rounding split (``Spectrum._r_chain`` and
#: ``Spectrum._split_peak``)
SPLIT_WINDOW = 1e-4


# ---------------------------------------------------------------------------
# exact-rational helpers
# ---------------------------------------------------------------------------

def _fraction(s: str) -> Fraction | None:
    """Fraction of a rational string, or None when it is not one.  Fraction
    expands a decimal exponent into a full integer, so a decimal is read by
    ``float`` first: a nonzero value that a float rounds to 0 or infinity
    raises ValueError, and a zero mantissa reads as 0."""
    try:
        approx = 1.0 if "/" in s else float(s)
    except ValueError:
        return None
    if (approx == 0 or math.isinf(approx)) and \
            any(c in "123456789" for c in s.lower().partition("e")[0]):
        raise ValueError(f"{s!r} is out of the range of a float")
    try:
        return Fraction(0) if approx == 0 else Fraction(s)
    except (ValueError, ZeroDivisionError):
        return None


def _exact_entries(xs) -> list | None:
    out = []
    for x in xs:
        if isinstance(x, str):
            x = _fraction(x)
        elif isinstance(x, int) and not isinstance(x, bool):
            x = Fraction(x)
        if not isinstance(x, Fraction):
            return None
        out.append(x)
    return out


def as_exact(x) -> list | None:
    """Fraction copy of a vector or a matrix from outside the program, or
    None when it is not exact: the one test of exactness.

    A vector is a list or tuple, a matrix a nonempty list or tuple of
    equally long rows; a numpy array qualifies only with dtype ``object``.
    Exact entries are ints, Fractions and ``p/q`` or decimal strings.  A
    float (reconstructing rationals from floats would fabricate
    exactness), a bool, or any other entry makes the whole value inexact.
    A decimal string that a float cannot hold raises ValueError.
    """
    if isinstance(x, np.ndarray):
        if x.dtype != object:
            return None
        x = x.tolist()
    if not isinstance(x, (list, tuple)):
        return None
    if not x or not all(isinstance(row, (list, tuple)) for row in x):
        return _exact_entries(x)
    rows = [_exact_entries(row) for row in x]
    if any(row is None or len(row) != len(rows[0]) for row in rows):
        return None
    return rows


class IntegerMatrix(NamedTuple):
    """An exact matrix or vector as ``N / D``: ``N`` an object array of
    Python ints, ``D`` a positive int."""

    N: np.ndarray
    D: int


def integer_form(x) -> IntegerMatrix:
    """``(N, D)`` with ``x = N / D`` for an exact vector or matrix x of
    Fractions or ints (as :func:`as_exact` returns them), D the least common
    denominator: the one place where denominators are cleared."""
    arr = np.array(x, dtype=object)
    d = math.lcm(*(v.denominator for v in arr.flat))
    n = [v.numerator * (d // v.denominator) for v in arr.flat]
    return IntegerMatrix(np.array(n, dtype=object).reshape(arr.shape), d)


def integer_vector(x) -> np.ndarray | None:
    """A positive integer multiple of an exact vector, as an object array of
    Python ints, or None when x is not exact (see :func:`as_exact`).  An
    object array of Python ints, the library's own form, is taken as it
    is."""
    if isinstance(x, np.ndarray) and x.dtype == object \
            and all(type(v) is int for v in x):
        return x
    exact = as_exact(x)
    return None if exact is None else integer_form(exact).N


def _primitive(v) -> list:
    """A nonzero integer vector divided by the gcd of its entries."""
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else list(v)


def _shift(m, k: int) -> np.ndarray:
    """``m - k I`` for an integer matrix m and an int k, as a new object
    array of ints."""
    s = np.array(m, dtype=object)
    s[np.diag_indices_from(s)] -= k
    return s


def _echelon(m):
    """Fraction-free Gauss-Jordan form of an integer matrix.

    Returns ``(rows, pivots, p)``: the integer rows, the pivot column of each
    leading row, and the value every pivot entry ends with.  A step with
    pivot ``p`` in column ``c`` replaces every other row by
    ``(p * row - row[c] * pivot_row) // prev``, rows above the pivot
    included (Bareiss 1968, carried to Gauss-Jordan form as in Nakos,
    Turner & Williams 1997).  Every entry stays a minor of the input, so
    the divisions are exact.  The entries must be ints (a Fraction raises
    TypeError: floor division would be silently wrong on one).
    """
    a = [list(map(operator.index, row)) for row in m]
    n_rows = len(a)
    pivots = []
    prev = 1
    for col in range(len(a[0]) if a else 0):
        rank = len(pivots)
        if rank == n_rows:
            break
        pivot = next((i for i in range(rank, n_rows) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        pr = a[rank]
        p = pr[col]
        for i, ri in enumerate(a):
            if i != rank:
                f = ri[col]
                a[i] = [(p * x - f * y) // prev for x, y in zip(ri, pr)]
        pivots.append(col)
        prev = p
    return a, pivots, prev


def exact_rank(m) -> int:
    """Rank of an integer matrix: the pivot count of the fraction-free
    elimination."""
    return len(_echelon(m)[1])


def exact_kernel_basis(m) -> list:
    """Basis of the null space of an integer matrix, as primitive integer
    lists.

    One vector per free column: a positive multiple of the reduced
    row-echelon basis vector, which is 1 there and 0 on the other free
    columns.
    """
    rows, pivots, p = _echelon(m)
    sign = 1 if p > 0 else -1
    n_cols = len(m[0]) if len(m) else 0
    basis = []
    for fc in sorted(set(range(n_cols)) - set(pivots)):
        v = [0] * n_cols
        v[fc] = abs(p)
        for row, pc in zip(rows, pivots):
            v[pc] = -sign * row[fc]
        basis.append(_primitive(v))
    return basis


def _kernel_chain(m, lam: int) -> list:
    """Kernel bases of ``S^k``, ``S = m - lam I``, for an integer matrix m,
    an int lam and k = 1, 2, ...

    ``x`` lies in ``ker S^(k+1)`` exactly when ``S x = K_k y`` for a basis
    matrix ``K_k`` of ``ker S^k``, so each step is one elimination of
    ``[S | -K_k]``, keeping the ``x`` part of its kernel.  The chain stops
    when the dimension stops growing; it is empty when ``lam`` is not an
    eigenvalue.  Geometric multiplicity is the first dimension, algebraic
    the last, and the largest Jordan block the length.
    """
    size = len(m)
    shifted = _shift(m, lam).tolist()
    chain = []
    basis = exact_kernel_basis(shifted)
    while basis and (not chain or len(basis) > len(chain[-1])):
        chain.append(basis)
        if len(basis) == size:
            break
        aug = [row + [-v[i] for v in basis] for i, row in enumerate(shifted)]
        basis = [v[:size] for v in exact_kernel_basis(aug)]
    return chain


# ---------------------------------------------------------------------------
# modular elimination: a certificate for the Kronecker-square kernel
# ---------------------------------------------------------------------------

#: prime modulus of the Kronecker-square certificate; residues stay below
#: 2^31, so the product of two fits in int64
_PRIME = 2 ** 31 - 1


def _rank_mod(a: np.ndarray, p: int) -> int:
    """Rank of an int64 matrix of residues over GF(p), by row echelon
    elimination in place.  Each step adds a multiple of the pivot row to
    the rows below it (a residue times a residue stays below 2^62) and
    reduces once."""
    n_rows, n_cols = a.shape
    rank = 0
    for col in range(n_cols):
        if rank == n_rows:
            break
        nonzero = np.flatnonzero(a[rank:, col])
        if nonzero.size == 0:
            continue
        k = rank + int(nonzero[0])
        if k != rank:
            a[[rank, k], col:] = a[[k, rank], col:]
        below = a[rank + 1:, col:]
        factors = below[:, 0] * (p - pow(int(a[rank, col]), -1, p)) % p
        below += np.multiply.outer(factors, a[rank, col:])
        below %= p
        rank += 1
    return rank


def _kron_kernel_dim_mod(m: np.ndarray, lam: int) -> int:
    """``dim ker(m (x) m - lam^2 I)`` over GF(p), ``p = _PRIME``, for an
    integer matrix m and an int lam: at least its dimension over the
    rationals, since a minor that vanishes over the integers vanishes
    modulo p."""
    p = _PRIME
    m_p = (m % p).astype(np.int64)
    s = np.kron(m_p, m_p) % p
    s[np.diag_indices_from(s)] += p - lam * lam % p
    s %= p
    return len(s) - _rank_mod(s, p)


def chain_pair(chain: list) -> "MultiplicityPair":
    """(geometric, algebraic) multiplicity read off a kernel chain."""
    if not chain:
        return MultiplicityPair(0, 0)
    return MultiplicityPair(len(chain[0]), len(chain[-1]))


# ---------------------------------------------------------------------------
# the spectrum of one map
# ---------------------------------------------------------------------------

def _snap(x: float, g: int, d: int) -> int | None:
    """The integer k nearest ``x d/g``, for x an eigenvalue of
    ``A = (g/d) B`` with B an integer matrix, if k is positive and within
    ``1e-7 x d/g`` of it; else None.  A rational eigenvalue of B is an
    integer, since its characteristic polynomial is monic, so ``k g/d`` is
    the one rational candidate near x.  Exact integer arithmetic."""
    if x <= 0:
        return None
    a, b = x.as_integer_ratio()
    num, den = a * d, b * g  # x d/g
    k = (2 * num + den) // (2 * den)
    if k <= 0 or abs(k * den - num) * 10 ** 7 > num:
        return None
    return k


def _float_pair(algebraic: int, sv: np.ndarray, scale: float,
                mode: ScalarMode) -> MultiplicityPair:
    """Float multiplicities from an algebraic count and the singular values
    of the shifted matrix: geometric counts those at most ``eps_rank`` times
    the largest or ``scale``, clamped to ``[1, algebraic]``."""
    geometric = int(np.count_nonzero(sv <= mode.eps_rank * max(sv[0], scale)))
    return MultiplicityPair(max(1, min(geometric, algebraic)), algebraic)


class Spectrum:
    """Spectral facts of one square matrix, each computed on first use.

    No fact depends on a :class:`ScalarMode`: readers compare these numbers
    against their own tolerances, and ``peak_pair`` keeps one comparison per
    mode.  The float peak is the eigenvalues of A/r near 1; a Jordan block
    at r that rounding split past ``eps_cluster`` counts as one eigenvalue
    of its cluster's size (``_split_peak``), read off the singular values of
    the powers of ``A/r - lam I`` at the cluster mean, computed once.  The
    exact facts read ``integer``, the map as ``N / D`` (None for a float
    map), through ``_primitive_form``: ``chain_r`` is an exact kernel chain
    (see ``_kernel_chain``), empty without a verified rational radius;
    ``kron_r2_pair`` is certified modulo a prime, with the exact kernel
    chain of the square as the fallback.
    """

    def __init__(self, matrix: np.ndarray,
                 integer: IntegerMatrix | None = None):
        self.matrix = matrix
        self.integer = integer
        self._split_sv = []
        self._peak_pairs = {}

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.matrix)

    @cached_property
    def r(self) -> float:
        return float(np.max(np.abs(self.eigenvalues), initial=0.0))

    @cached_property
    def norm2(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))

    def positive_r(self) -> float:
        """r, or :class:`ZeroSpectralRadiusError` when it is zero: when r is
        at most ``1e-3 * max(1, ||A||_2)`` and the matrix is nilpotent, and
        for a float matrix also when r is at most
        ``RADIUS_FLOOR * max(1, ||A||_2)``."""
        scale = max(1.0, self.norm2)
        if self.r <= 1e-3 * scale and self.nilpotent:
            raise ZeroSpectralRadiusError("the map is nilpotent")
        if self.integer is None and self.r <= RADIUS_FLOOR * scale:
            raise ZeroSpectralRadiusError(
                f"spectral radius {self.r} is numerically zero")
        return self.r

    @cached_property
    def _shift_sv(self) -> np.ndarray:
        d = len(self.matrix)
        return np.linalg.svd(self.matrix / self.r - np.eye(d),
                             compute_uv=False)

    def peak_pair(self, mode: ScalarMode) -> MultiplicityPair:
        """Float multiplicities of r at mode's tolerances, decided once per
        mode: algebraic, the eigenvalues within ``eps_cluster`` of r;
        geometric, ``_float_pair`` of the singular values of ``A/r - I``.
        They are computed only when the algebraic count is 2 or more, since
        the clamp fixes a count of 0 or 1.  A split Jordan block at r (see
        ``_split_peak``) counts instead as its cluster."""
        if mode not in self._peak_pairs:
            pair = self._split_peak(mode)
            if pair is None:
                algebraic = int(np.count_nonzero(
                    np.abs(self.eigenvalues / self.r - 1.0)
                    <= mode.eps_cluster))
                pair = MultiplicityPair(algebraic, algebraic) \
                    if algebraic <= 1 else _float_pair(
                        algebraic, self._shift_sv, self.norm2 / self.r + 1.0,
                        mode)
            self._peak_pairs[mode] = pair
        return self._peak_pairs[mode]

    def _split_peak(self, mode: ScalarMode) -> MultiplicityPair | None:
        """The multiplicities of r when the eigenvalues of A/r within
        ``SPLIT_WINDOW`` of 1 are numerically one defective eigenvalue that
        rounding split past ``eps_cluster``, else None: algebraic, the
        cluster's size; geometric, the first entry of its rank profile.
        The cluster counts as one eigenvalue when some member lies beyond
        ``eps_cluster`` (else the plain count sees them all), its rank
        profile at ``eps_rank`` cutoffs, at the cluster mean, covers all of
        them with a largest block of size k >= 2, and no member is farther
        from the mean than rounding can split such a block: a backward
        error of ``d u ||A||`` (u the unit roundoff) moves the eigenvalues
        of a block of size k whose coupling is at most ``||A||/r + 1`` by at
        most ``(d u)^(1/k) (||A||/r + 1)``.  ``eps_rank`` and not
        ``eps_cluster`` cutoffs: a semisimple pair a few ``eps_cluster``
        apart must stay two eigenvalues; the rounding bound: a simple r
        next to a distinct eigenvalue coupled to it, such as
        ``[[1, 1], [0, 1 - 1e-5]]``, passes the rank profile at
        ``eps_rank`` but must stay simple."""
        ev = self.eigenvalues / self.r
        offsets = np.abs(ev - 1.0)
        members = self._split_members
        if len(members) < 2 or not np.any(offsets[members] > mode.eps_cluster):
            return None
        profile = self._rank_profile(mode.eps_rank)
        if len(profile) < 2 or sum(profile) != len(members):
            return None
        spread = np.max(np.abs(ev[members] - ev[members].mean()))
        rounding = (len(ev) * np.finfo(float).eps) ** (1.0 / len(profile)) \
            * (self.norm2 / self.r + 1.0)
        return MultiplicityPair(profile[0], len(members)) \
            if spread <= rounding else None

    @cached_property
    def _split_members(self) -> np.ndarray:
        """Indices of the eigenvalues of A/r within ``SPLIT_WINDOW`` of 1,
        the cluster that ``_split_peak`` reads."""
        return np.flatnonzero(
            np.abs(self.eigenvalues / self.r - 1.0) <= SPLIT_WINDOW)

    def _rank_profile(self, eps: float) -> list:
        """``[n_1, n_2, ...]`` for the cluster ``_split_members``:
        ``n_k = dim ker B^k - dim ker B^(k-1)`` is the number of its Jordan
        blocks of size k or more, for ``B = A/r - lam I`` and lam the
        cluster mean.  ``dim ker B^k`` counts the singular values of B^k at
        most ``eps (||A||/r + 1)^k``, up to the cluster size; the profile
        stops when it stops growing."""
        size = len(self._split_members)
        scale = self.norm2 / self.r + 1.0
        profile, dim = [], 0
        for k in range(1, size + 1):
            grown = min(size, int(np.count_nonzero(
                self._power_sv(k) <= eps * scale ** k)))
            if grown <= dim:
                break
            profile.append(grown - dim)
            dim = grown
            if dim == size:
                break
        return profile

    def _power_sv(self, k: int) -> np.ndarray:
        """Singular values of ``B^k`` for ``B = A/r - lam I``, lam the mean of
        the cluster ``_split_members``; cached, so every tolerance probe
        reads one set of SVDs."""
        svs = self._split_sv
        if len(svs) < k:
            lam = np.mean(self.eigenvalues[self._split_members]) / self.r
            b = self.matrix / self.r - lam * np.eye(len(self.matrix))
            power = np.linalg.matrix_power(b, len(svs) + 1)
            while True:
                svs.append(np.linalg.svd(power, compute_uv=False))
                if len(svs) == k:
                    break
                power = power @ b
        return svs[k - 1]

    @cached_property
    def perron_vectors(self) -> tuple:
        """Eigenvectors of the matrix and of its transpose for the
        eigenvalue nearest r, rotated so the largest entry is real and
        positive, made real and l1-normalized."""
        out = []
        for mat in (self.matrix, self.matrix.T):
            ev, vv = np.linalg.eig(mat)
            v = vv[:, int(np.argmin(np.abs(ev - self.r)))]
            pivot = v[int(np.argmax(np.abs(v)))]
            w = (v / (pivot / abs(pivot))).real
            out.append(w / np.sum(np.abs(w)))
        return tuple(out)

    @cached_property
    def _primitive_form(self) -> tuple:
        """``(B, g)`` with ``A = (g/D) B``: B is ``N/g`` for g the gcd of
        N's entries, the one integer matrix of content 1 that every
        positive rational multiple of A shares.  The exact facts are
        decided on B, so neither the scale of A nor a denominator that the
        certificate's prime divides reaches them."""
        n, _ = self.integer
        g = math.gcd(*n.flat) or 1
        return n // g, g

    @cached_property
    def _r_chain(self) -> tuple:
        """``(k, chain)``: the radius of B (``_primitive_form``) as an int k
        verified to be an exact eigenvalue, with the kernel chain of
        ``B - k I``; ``(None, [])`` when no snap (``_snap``) verifies.  The
        snap of the float r comes first.  When it verifies nothing and two
        or more eigenvalues lie within ``SPLIT_WINDOW r`` of r (a Jordan
        block that rounding split past the snap window), the snap of their
        mean is taken if its algebraic multiplicity equals the cluster's
        size."""
        if self.integer is None:
            return None, []
        b, g = self._primitive_form
        d = self.integer.D
        cand = _snap(self.r, g, d)
        chain = [] if cand is None else _kernel_chain(b, cand)
        if chain:
            return cand, chain
        cluster = self.eigenvalues[
            np.abs(self.eigenvalues - self.r) <= SPLIT_WINDOW * self.r]
        mean = _snap(float(np.mean(cluster).real), g, d) \
            if len(cluster) >= 2 else None
        if mean is not None and mean != cand:
            chain = _kernel_chain(b, mean)
            if chain_pair(chain).algebraic == len(cluster):
                return mean, chain
        return None, []

    @property
    def chain_r(self) -> list:
        """Kernel chain at the verified rational radius, else empty."""
        return self._r_chain[1]

    @cached_property
    def r_exact(self) -> Fraction | None:
        """r as a rational verified to be an exact eigenvalue, else None."""
        k = self._r_chain[0]
        return None if k is None else \
            Fraction(k * self._primitive_form[1], self.integer.D)

    @cached_property
    def kron_r2_pair(self) -> MultiplicityPair:
        """Exact (geometric, algebraic) multiplicity of r^2 on ``A (x) A``,
        (0, 0) without a verified rational radius.

        A pair of Jordan blocks ``J_p(lam)``, ``J_q(mu)`` of A with
        ``lam mu = r^2`` gives ``min(p, q)`` blocks at r^2 (Horn & Johnson,
        *Topics in Matrix Analysis*, ch. 4), and ``|lam|, |mu| <= r``
        leaves only peripheral pairs.  The pairs (r, r) and (-r, -r) alone
        give ``L = g(r)^2 + g(-r)^2`` blocks, and more unless every block at
        +-r has size 1; any other pair adds one more.  So the geometric
        count is at least L, and when it equals L the algebraic count
        ``a(r)^2 + a(-r)^2`` does too.  Reduction modulo a prime only
        lowers ranks, so a kernel of dimension L of ``B (x) B - k^2 I`` over
        GF(p) (``_kron_kernel_dim_mod``) proves the pair (L, L).  Otherwise
        the exact kernel chain of the square decides.
        """
        k = self._r_chain[0]
        if k is None:
            return MultiplicityPair(0, 0)
        b = self._primitive_form[0]
        g_neg = len(b) - exact_rank(_shift(b, -k))
        bound = len(self.chain_r[0]) ** 2 + g_neg ** 2
        if _kron_kernel_dim_mod(b, k) == bound:
            return MultiplicityPair(bound, bound)
        return chain_pair(_kernel_chain(np.kron(b, b), k * k))

    @cached_property
    def left_kernel_r(self) -> list:
        """Exact kernel basis of ``A^T - r I`` (needs a rational r)."""
        return exact_kernel_basis(_shift(self._primitive_form[0].T,
                                         self._r_chain[0]))

    @cached_property
    def nilpotent(self) -> bool:
        """Is A^d = 0 in the map's own arithmetic?  An exact matrix is
        decided on its integer matrix N.  The float matrix is first scaled
        by a power of two to unit row-sum norm: that adds no rounding, keeps
        every power's entries at most 1, and keeps a small map's powers from
        underflowing to a false zero."""
        top = float(np.max(np.sum(np.abs(self.matrix), axis=1), initial=0.0))
        m = np.ldexp(self.matrix, -math.frexp(top)[1]) \
            if self.integer is None else self.integer.N
        return not np.any(np.linalg.matrix_power(m, len(m)))
