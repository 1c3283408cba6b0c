"""Closed convex cones with membership, interior, and dual-cone tests.

Four cone families are supported:

* ``Orthant(d)`` -- the nonnegative orthant of R^d (self-dual).
* ``Psd(h)`` -- positive semidefinite matrices inside the h*h Hermitian
  matrices, coordinatized by an orthonormal Hermitian basis so the ambient
  space is R^(h^2) and the trace inner product is the standard dot product
  (self-dual).  ``h`` is capped at ``Psd.MAX_H``.
* ``Polyhedral(generators)`` -- the conic hull of finitely many vectors.
  Construction enumerates the extreme rays of the dual cone exactly (over
  rationals) and keeps them, and the extreme rays among the generators,
  as primitive integer rays: every exact query is then one matrix product
  of Python ints.
  Its ``dual()`` reuses those rays: no second enumeration runs.
* ``TensorCone(left, right)`` -- the minimal tensor-product cone, i.e. the
  conic hull of pairwise products.  Fully supported for orthant/polyhedral
  operands, whose queries go to one inner orthant or polyhedral cone; for
  PSD operands only product vectors can be tested (general separability
  testing is intractable) and other queries raise
  :class:`UnsupportedConeOperation`.  When either operand is simplicial
  (``dim`` extreme rays) the minimal and maximal tensor products coincide
  (Aubrun, Lami, Palazuelos & Plavala, "Entangleability of cones", GAFA
  2021): the inner cone's extreme rays and dual rays are the products of
  the operands' ones, and no enumeration runs.  A polyhedral inner cone is
  capped at ``TensorCone.MAX_POLYHEDRAL_DIM``.

A cone's exact extreme rays and exact dual rays are the one source of its
other facts: ``extremal_generators()`` and ``dual_generators()`` are
their float copies (the orthant answers identity rows directly), and
``exact_default_unit()`` the sum of the dual rays, and ``default_unit()``
its float copy (the orthant answers its all-ones sum directly; PSD and
tensor cones keep their identity and product units; a tensor cone of
finite operands has the exact product unit).  ``ray_images(M)`` pairs the
dual rays with the images of the extreme rays under a map M, one product
``D M G^T`` (:class:`RayImages`), whose sign pattern decides positivity
and the face map of M.

Every membership query reads one ``slack(x)`` (or ``dual_slack(y)``):
the least pairing of the vector with the cone's unit dual rays (its
least eigenvalue on the PSD cone) and its norm, which :func:`member`
compares at a mode's tolerance, so a caller that probes several
tolerances computes the numbers once.  Query vectors that
:func:`~conemix.linalg.as_exact` finds exact (ints, Fractions and
rational strings; object arrays of them) are compared exactly where the
cone has exact data, as the integer multiples that
:func:`~conemix.linalg.integer_vector` gives (the library's own object
arrays of Python ints as they are); any other vector, a float array say,
is compared within a tolerance scaled by its norm.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .linalg import (
    FLOAT_MODE,
    ScalarMode,
    _primitive,
    exact_kernel_basis,
    exact_rank,
    integer_form,
    integer_vector,
)

__all__ = [
    "Cone",
    "RayImages",
    "Orthant",
    "Psd",
    "Polyhedral",
    "TensorCone",
    "HermBasis",
    "UnsupportedConeOperation",
    "DimensionMismatchError",
    "InvalidUnitError",
    "validate_unit",
    "member",
    "is_classical",
]


class UnsupportedConeOperation(Exception):
    """The requested query has no finite certificate for this cone."""


class DimensionMismatchError(ValueError):
    """A vector or matrix does not match the cone's ambient dimension."""


class InvalidUnitError(ValueError):
    """The proposed unit element is not interior to the dual cone."""


class Cone:
    """Base class; subclasses fill in membership, interior and ``dual()``."""

    dim: int

    def _check_dim(self, x):
        if len(x) != self.dim:
            raise DimensionMismatchError(
                f"vector of length {len(x)} on a cone of dimension {self.dim}")

    def slack(self, x, mode: ScalarMode = FLOAT_MODE) -> tuple:
        """``(lo, scale)``: x lies in the cone when ``lo >= -eps scale``
        and in its interior when ``lo > eps scale``, for eps the mode's
        ``eps_interior`` (see :func:`member`).  ``lo`` is the least pairing
        of x with the unit dual rays (the least eigenvalue on the PSD
        cone) and ``scale`` the norm of x; an exact x gives the least
        pairing of its integer multiple with the integer dual rays and
        scale 0.  The mode sets no tolerance here: only the product test
        of a tensor cone with PSD operands reads it."""
        raise NotImplementedError

    def dual_slack(self, y, mode: ScalarMode = FLOAT_MODE) -> tuple:
        """:meth:`slack` of y for the dual cone."""
        return self.dual().slack(y, mode)

    def contains(self, x, mode: ScalarMode = FLOAT_MODE) -> bool:
        return member(self.slack(x, mode), mode)

    def interior_contains(self, x, mode: ScalarMode = FLOAT_MODE) -> bool:
        return member(self.slack(x, mode), mode, interior=True)

    def dual_contains(self, y, mode: ScalarMode = FLOAT_MODE) -> bool:
        return member(self.dual_slack(y, mode), mode)

    def interior_dual_contains(self, y, mode: ScalarMode = FLOAT_MODE) -> bool:
        return member(self.dual_slack(y, mode), mode, interior=True)

    def extremal_generators(self) -> list:
        """Float copies of :meth:`exact_extremal_generators`, same order."""
        return _float_rows(self.exact_extremal_generators())

    def dual_generators(self) -> list:
        """Float copies of :meth:`exact_dual_generators`, same order."""
        return _float_rows(self.exact_dual_generators())

    def exact_extremal_generators(self) -> list:
        """Extreme rays over Fractions; raises where no finite list exists."""
        raise UnsupportedConeOperation(
            f"{self!r} has no finite exact generator list")

    def exact_dual_generators(self) -> list:
        """Extreme rays of the dual cone over Fractions, likewise."""
        return self.dual().exact_extremal_generators()

    def dual(self) -> Cone:
        """The dual cone, in the same (orthonormal) coordinates."""
        raise NotImplementedError

    def ray_images(self, matrix) -> RayImages:
        """The pairings of the dual rays with the images under ``matrix``
        of the extreme rays (see :class:`RayImages`): an integer object
        array is exact, a float array is not; raises where no finite list
        exists."""
        raise UnsupportedConeOperation(
            f"{self!r} has no finite exact generator list")

    def exact_default_unit(self) -> list:
        """Sum of the dual cone's exact extreme rays, which is strictly
        positive on every nonzero vector of the cone; raises where no
        finite list exists."""
        raise UnsupportedConeOperation(
            f"{self!r} has no finite exact generator list")

    def default_unit(self) -> np.ndarray:
        """Float copy of :meth:`exact_default_unit`."""
        return np.array(self.exact_default_unit(), dtype=float)


class RayImages:
    """Pairings ``<h, M g>`` of a finite cone's dual rays h (rows) with the
    images of its extreme rays g (columns) under a map M.

    Exact pairings (``norms`` None) are Python ints of positive multiples
    of M, h and g, which keep every sign.  Float pairings pair the unit
    dual rows with the images of float rays, and ``norms`` holds each
    image's norm: a pairing within ``eps_interior`` times that norm of 0
    counts as 0, the rule of the cone's float ``contains``.  ``incidence``
    marks, exactly, the dual rays that vanish on each extreme ray: the
    zero set ``Z(g)`` of its face.
    """

    def __init__(self, pairings, norms, incidence):
        self.pairings = pairings
        self.norms = norms
        self.incidence = incidence

    @property
    def exact(self) -> bool:
        return self.norms is None

    def signs(self, mode: ScalarMode = FLOAT_MODE) -> np.ndarray:
        """-1, 0 or 1 for each pairing, at mode's ``eps_interior``."""
        p = self.pairings
        margin = 0 if self.exact else mode.eps_interior * self.norms
        return (p > margin).astype(np.int8) - (p < -margin).astype(np.int8)


def member(slack: tuple, mode: ScalarMode = FLOAT_MODE,
           interior: bool = False) -> bool:
    """Membership (or interior membership) at mode of a vector of this
    :meth:`Cone.slack`: the numbers are computed once, and only this
    comparison depends on the tolerance."""
    lo, scale = slack
    cutoff = mode.eps_interior * scale
    return bool(lo > cutoff if interior else lo >= -cutoff)


def _float_rows(rows) -> list:
    return [np.array([float(v) for v in r]) for r in rows]


def validate_unit(cone: Cone, u, mode: ScalarMode = FLOAT_MODE) -> np.ndarray:
    """Check u lies in the interior of the dual cone; return it as floats."""
    if not cone.interior_dual_contains(u, mode):
        raise InvalidUnitError("unit element is not interior to the dual cone")
    return np.asarray(u, dtype=float)


class Orthant(Cone):
    """Nonnegative orthant of R^d."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self.dim = int(dim)

    def __repr__(self):
        return f"Orthant({self.dim})"

    def __eq__(self, other):
        return isinstance(other, Orthant) and other.dim == self.dim

    def __hash__(self):
        return hash(("orthant", self.dim))

    def slack(self, x, mode=FLOAT_MODE):
        """The least entry of x, and its norm (0 for an exact x)."""
        self._check_dim(x)
        exact = integer_vector(x)
        if exact is not None:
            return min(exact), 0
        xf = np.asarray(x, dtype=float)
        return float(np.min(xf)), float(np.linalg.norm(xf))

    def dual(self):
        return self  # self-dual

    def ray_images(self, matrix) -> RayImages:
        """The matrix itself: the rays and dual rays are the unit vectors."""
        return RayImages(matrix, None if matrix.dtype == object else
                         np.linalg.norm(matrix, axis=0),
                         ~np.eye(self.dim, dtype=bool))

    def extremal_generators(self):
        return list(np.eye(self.dim))

    dual_generators = extremal_generators

    def exact_extremal_generators(self):
        one, zero = Fraction(1), Fraction(0)
        return [[one if i == j else zero for j in range(self.dim)]
                for i in range(self.dim)]

    def exact_default_unit(self):
        return [Fraction(1)] * self.dim


class HermBasis:
    """Orthonormal real basis of the h*h Hermitian matrices.

    Ordering: identity / sqrt(h), then the diagonal traceless matrices, then
    for each pair i < j the symmetric and the antisymmetric off-diagonal
    element.  Orthonormal under the trace inner product, so ``vec`` and
    ``mat`` are mutually inverse isometries between Hermitian matrices and
    R^(h^2).  ``mats`` holds the basis matrices and ``flat`` the same
    entries with each matrix as one row-major row of h^2; both are
    read-only, so one basis per h is shared by every ``Psd(h)``.
    """

    def __init__(self, h: int):
        if h < 1:
            raise ValueError("matrix dimension must be at least 1")
        self.h = int(h)
        mats = [np.eye(h, dtype=complex) / math.sqrt(h)]
        for k in range(1, h):
            diag = np.zeros(h)
            diag[:k] = 1.0
            diag[k] = -float(k)
            mats.append(np.diag(diag).astype(complex) / math.sqrt(k * (k + 1)))
        for i in range(h):
            for j in range(i + 1, h):
                sym = np.zeros((h, h), dtype=complex)
                sym[i, j] = sym[j, i] = 1.0 / math.sqrt(2)
                mats.append(sym)
                asym = np.zeros((h, h), dtype=complex)
                asym[i, j] = -1j / math.sqrt(2)
                asym[j, i] = 1j / math.sqrt(2)
                mats.append(asym)
        self.mats = np.array(mats)
        self.mats.setflags(write=False)
        self.flat = self.mats.reshape(len(mats), h * h)

    @property
    def dim(self) -> int:
        return self.h * self.h

    def vec(self, matrix) -> np.ndarray:
        """Coordinates of a Hermitian matrix (imaginary parts discarded)."""
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (self.h, self.h):
            raise DimensionMismatchError(
                f"expected a {self.h}x{self.h} matrix, got {m.shape}")
        return np.einsum("kij,ji->k", self.mats, m).real

    def mat(self, x) -> np.ndarray:
        """Hermitian matrix with the given coordinates."""
        xf = np.asarray(x, dtype=float)
        if xf.shape != (self.dim,):
            raise DimensionMismatchError(
                f"expected a vector of length {self.dim}, got {xf.shape}")
        return np.einsum("k,kij->ij", xf, self.mats)


@functools.lru_cache(maxsize=None)
def _shared_basis(h: int) -> HermBasis:
    """The one :class:`HermBasis` of each h, built on first use; ``Psd``
    caps h, so at most ``Psd.MAX_H`` are ever kept."""
    return HermBasis(h)


class Psd(Cone):
    """PSD matrices over h*h Hermitians, in orthonormal-basis coordinates."""

    #: the basis holds h^4 complex entries, so larger h is refused up front
    MAX_H = 32

    def __init__(self, h: int):
        if h > self.MAX_H:
            raise ValueError(f"matrix dimension {h} exceeds the cap {self.MAX_H}")
        self.h = int(h)
        self.basis = _shared_basis(self.h)
        self.dim = self.basis.dim

    def __repr__(self):
        return f"Psd({self.h})"

    def __eq__(self, other):
        return isinstance(other, Psd) and other.h == self.h

    def __hash__(self):
        return hash(("psd", self.h))

    def _min_eig(self, x) -> tuple:
        self._check_dim(x)
        xf = np.asarray(x, dtype=float)
        w = np.linalg.eigvalsh(self.basis.mat(xf))
        return float(w[0]), float(np.linalg.norm(xf))

    def slack(self, x, mode=FLOAT_MODE):
        """The least eigenvalue of the matrix of x, and the norm of x."""
        return self._min_eig(x)

    def dual(self):
        return self  # self-dual

    def default_unit(self):
        return self.basis.vec(np.eye(self.h))


class Polyhedral(Cone):
    """Conic hull of finitely many generators spanning R^d.

    The constructor verifies that the generators span the ambient space and
    that the cone is pointed, and enumerates the extreme rays of the dual
    cone exactly.  The extreme rays and dual rays are kept as primitive
    integer rows, so an exact ``contains`` is the signs of one product of
    the dual rays with an integer multiple of the vector, and an exact
    ``dual_contains`` the same against the extreme rays.
    """

    #: guard against combinatorial blow-up of dual-ray enumeration
    MAX_SUBSETS = 500_000

    def __init__(self, generators):
        # Fraction(float) is exact, so float input keeps a consistent (if
        # ugly) rational meaning
        gens = [[Fraction(v) for v in g] for g in generators]
        if not gens:
            raise ValueError("at least one generator is required")
        d = len(gens[0])
        if any(len(g) != d for g in gens):
            raise DimensionMismatchError("generators of unequal length")
        if all(v == 0 for g in gens for v in g):
            raise ValueError("all generators are zero")
        gens = [g for g in gens if any(v != 0 for v in g)]
        self.dim = d
        ints = [_primitive(integer_form(g).N) for g in gens]
        if exact_rank(ints) != d:
            raise ValueError("generators do not span the ambient space; "
                             "the cone would have empty interior")
        dual_rays = np.array(self._enumerate_dual_rays(ints, d), dtype=object)
        ints = np.array(ints, dtype=object)
        incidence = (dual_rays @ ints.T) == 0
        kept = self._minimal_generators(ints, dual_rays, incidence)
        self._gens = gens
        self._set_rays([gens[i] for i in kept], ints[kept], dual_rays,
                       incidence[:, kept])

    @classmethod
    def _from_rays(cls, extremal, dual_rays, ints=None, incidence=None):
        """The cone with these exact extreme rays and spanning dual rays,
        primitive integer rows, which the caller vouches for: no
        enumeration runs.  ``ints`` (the extreme rays as primitive integer
        rows) and ``incidence`` are derived when not given."""
        cone = object.__new__(cls)
        cone.dim = len(extremal[0])
        cone._gens = extremal
        if ints is None:
            ints = [_primitive(integer_form(g).N) for g in extremal]
        ints = np.array(ints, dtype=object)
        dual_rays = np.array(dual_rays, dtype=object)
        if incidence is None:
            incidence = (dual_rays @ ints.T) == 0
        cone._set_rays(extremal, ints, dual_rays, incidence)
        return cone

    def _set_rays(self, extremal, ints, dual_rays, incidence):
        """Keep the extreme rays, as Fractions (``extremal``) and as the
        primitive integer array ``ints``, and the primitive integer array
        of the dual rays, for the exact queries; both also as unit float
        rows, the primitive extreme rays also as floats; and ``incidence``,
        which dual ray vanishes on which extreme ray."""
        self._extremal = extremal
        self._gens_int = ints
        self._dual_int = dual_rays
        self._rays_f = ints.astype(float)
        self._gens_f = _unit_rows(self._rays_f)
        self._dual_f = _unit_rows(dual_rays.astype(float))
        self._incidence = incidence

    @classmethod
    def _enumerate_dual_rays(cls, ints, d):
        """Primitive integer dual rays of the cone of the integer rows
        ``ints``: one per (d-1)-subset of rows with a one-dimensional
        kernel whose vector, of one sign, pairs nonnegatively with all."""
        m = len(ints)
        if d >= 2 and math.comb(m, d - 1) > cls.MAX_SUBSETS:
            raise ValueError(
                f"dual-ray enumeration over {m} generators in dimension {d} "
                "is too large for this desk-scale implementation")
        gens = np.array(ints, dtype=object)
        rays = []
        seen = set()
        subsets = combinations(range(m), d - 1) if d >= 2 else [()]
        for subset in subsets:
            rows = [ints[i] for i in subset]
            null = exact_kernel_basis(rows) if rows else \
                [[int(i == j) for j in range(d)] for i in range(d)]
            if len(null) != 1:
                continue
            prim = np.array(null[0], dtype=object)
            for cand in (prim, -prim):
                if np.all(gens @ cand >= 0):
                    key = tuple(cand)
                    if key not in seen:
                        seen.add(key)
                        rays.append(list(key))
                    break
        if exact_rank(rays) != d:  # also when there are none
            raise ValueError("cone is not pointed: it contains a line")
        return rays

    @staticmethod
    def _minimal_generators(ints, dual_rays, incidence):
        """Indices of the generators on d-1 independent facets, one per
        ray; ``incidence`` marks the facets of each generator."""
        out = []
        seen = set()
        for i, (ray, active) in enumerate(zip(ints, incidence.T)):
            rank = exact_rank(dual_rays[active].tolist()) \
                if active.any() else 0
            if rank == dual_rays.shape[1] - 1:
                key = tuple(ray)
                if key not in seen:
                    seen.add(key)
                    out.append(i)
        return out

    def __repr__(self):
        return f"Polyhedral({len(self._gens)} generators, dim {self.dim})"

    def _least_dot(self, rows_int, rows_float, x):
        self._check_dim(x)
        exact = integer_vector(x)
        if exact is not None:
            # a positive integer multiple of x has the same signs
            return min(rows_int @ exact), 0
        xf = np.asarray(x, dtype=float)
        return float(np.min(rows_float @ xf)), float(np.linalg.norm(xf))

    def slack(self, x, mode=FLOAT_MODE):
        """The least pairing of x with the dual rays, and its norm."""
        return self._least_dot(self._dual_int, self._dual_f, x)

    def dual_slack(self, y, mode=FLOAT_MODE):
        """The least pairing of y with the extreme rays, and its norm."""
        return self._least_dot(self._gens_int, self._gens_f, y)

    def ray_images(self, matrix) -> RayImages:
        """``D M G^T`` for D the dual rays and G the extreme rays: one
        product of Python ints for an integer object array M; for a float
        M, of the unit dual rows with the primitive integer rays as floats,
        as the float ``contains`` of each image would pair them."""
        if matrix.dtype == object:
            return RayImages(self._dual_int @ (matrix @ self._gens_int.T),
                             None, self._incidence)
        images = matrix @ self._rays_f.T
        return RayImages(self._dual_f @ images,
                         np.linalg.norm(images, axis=0), self._incidence)

    def exact_extremal_generators(self):
        return [list(g) for g in self._extremal]

    def exact_dual_generators(self):
        return [[Fraction(v) for v in y] for y in self._dual_int]

    def exact_default_unit(self):
        """Column sums of the integer dual rays, as Fractions."""
        return [Fraction(v) for v in self._dual_int.sum(axis=0)]

    def dual(self):
        """The dual cone, from the rays held here: no enumeration runs.

        Each dual ray is a facet normal, hence an extreme ray of the dual,
        and the dual's own dual rays are this cone's extreme rays.
        """
        return Polyhedral._from_rays(
            self.exact_dual_generators(), self._gens_int,
            ints=self._dual_int, incidence=self._incidence.T)


def _unit_rows(arr):
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


class TensorCone(Cone):
    """Minimal tensor-product cone of two cones.

    Vector index convention matches the Kronecker product: component
    ``i * right.dim + j`` multiplies (left basis i) x (right basis j).
    Finite operands give an inner orthant or polyhedral cone that answers
    every query; PSD operands leave it None.  Its extreme rays are the
    products of the operands' extreme rays, left ray major; with a
    simplicial operand so are its dual rays (see the module docstring),
    otherwise they are enumerated.
    """

    #: a polyhedral inner cone of a larger dimension is refused before any
    #: product is formed: its rays hold (number of rays) x dimension
    #: Fractions, and the exact work on a map of that size grows faster
    MAX_POLYHEDRAL_DIM = 150

    def __init__(self, left: Cone, right: Cone):
        self.left = left
        self.right = right
        self.dim = left.dim * right.dim
        self._inner = None
        if isinstance(left, Orthant) and isinstance(right, Orthant):
            # products of standard basis vectors are the standard basis
            self._inner = Orthant(self.dim)
            return
        try:
            # a classical operand lists dim^2 entries, so only the other
            # one is asked whether the product is finite before the cap
            for op in (left, right):
                if not is_classical(op):
                    op.exact_extremal_generators()
        except UnsupportedConeOperation:
            return  # PSD operands: no finite generator list
        if self.dim > self.MAX_POLYHEDRAL_DIM:
            raise ValueError(
                f"tensor cone of dimension {self.dim} exceeds the cap "
                f"{self.MAX_POLYHEDRAL_DIM} for a polyhedral tensor cone")
        gens = (left.exact_extremal_generators(),
                right.exact_extremal_generators())
        rays = [[a * b for a in g for b in h] for g, h in product(*gens)]
        if len(gens[0]) == left.dim or len(gens[1]) == right.dim:
            # the operands' dual rays are primitive integer rows, and so
            # are their Kronecker products
            duals = product(left.exact_dual_generators(),
                            right.exact_dual_generators())
            self._inner = Polyhedral._from_rays(
                rays, [[int(a) * int(b) for a in y for b in z]
                       for y, z in duals])
        else:
            self._inner = Polyhedral(rays)

    def __repr__(self):
        return f"TensorCone({self.left!r}, {self.right!r})"

    def _factor(self, x, mode):
        """Split x into (a, b) with x = a (x) b, or None if not a product."""
        xf = np.asarray(x, dtype=float)
        m = xf.reshape(self.left.dim, self.right.dim)
        u, sv, vt = np.linalg.svd(m)
        if sv[0] == 0.0:
            return None
        if sv.size > 1 and sv[1] > mode.eps_rank * sv[0]:
            return None
        a = u[:, 0] * math.sqrt(sv[0])
        b = vt[0] * math.sqrt(sv[0])
        return a, b

    def _finite(self):
        if self._inner is None:
            raise UnsupportedConeOperation(
                f"{self!r} has no finite exact generator list")
        return self._inner

    def slack(self, x, mode=FLOAT_MODE):
        """The inner cone's slack; with PSD operands, for a product vector
        ``x = a (x) b = (-a) (x) (-b)`` only, the better sign of the worse
        operand slack, each relative to its operand's scale."""
        return self._slack("slack", x, mode)

    def dual_slack(self, y, mode=FLOAT_MODE):
        return self._slack("dual_slack", y, mode)

    def _slack(self, name, x, mode):
        self._check_dim(x)
        if self._inner is not None:
            return getattr(self._inner, name)(x, mode)
        factors = self._factor(x, mode)
        if factors is None:
            raise UnsupportedConeOperation(
                "membership in a tensor cone with PSD operands is only "
                "decidable for product vectors")
        queries = getattr(self.left, name), getattr(self.right, name)

        def relative(query, v):
            lo, scale = query(v, mode)
            return lo / scale

        return max(min(relative(q, sign * v) for q, v in zip(queries, factors))
                   for sign in (1, -1)), 1.0

    def dual_contains(self, y, mode=FLOAT_MODE):
        """Exact or float on a finite inner cone; with PSD operands the
        dual is not decided, not even for product vectors."""
        return self._finite().dual_contains(y, mode)

    def ray_images(self, matrix) -> RayImages:
        return self._finite().ray_images(matrix)

    def extremal_generators(self):
        return self._finite().extremal_generators()

    def dual_generators(self):
        return self._finite().dual_generators()

    def exact_extremal_generators(self):
        return self._finite().exact_extremal_generators()

    def exact_dual_generators(self):
        return self._finite().exact_dual_generators()

    def dual(self):
        if isinstance(self._inner, Orthant):
            return self  # orthant (x) orthant is an orthant: self-dual
        return self._finite().dual()

    def exact_default_unit(self):
        """Kronecker product of the operands' exact units."""
        right = self.right.exact_default_unit()
        return [a * b for a in self.left.exact_default_unit() for b in right]

    def default_unit(self):
        return np.kron(self.left.default_unit(), self.right.default_unit())


def is_classical(cone: Cone) -> bool:
    """Is the cone an orthant, or a tensor of two orthants (which is the
    orthant of the product dimension in Kronecker coordinates)?"""
    return isinstance(cone, Orthant) or (
        isinstance(cone, TensorCone) and isinstance(cone._inner, Orthant))
