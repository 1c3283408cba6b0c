"""Dynamical maps: raw matrices on a cone, stochastic matrices, channels.

A :class:`DynMap` couples a real square matrix with the cone it is supposed
to preserve and a unit element interior to the dual cone.  When
:func:`~conemix.linalg.as_exact` finds the input matrix exact (every entry
an int, a Fraction or a rational string; a float array never is), the map
also holds it as one integer matrix and one denominator
(:class:`~conemix.linalg.IntegerMatrix`), which the exact routes read;
``DynMap.exact`` derives its Fraction rows for readers outside the
library.  The unit is kept as Fractions when it is exact.
:func:`from_stochastic` is :func:`from_matrix` on the orthant with the
all-ones unit, plus its two checks.  Quantum channels built from Kraus
operators act on PSD-cone coordinates; their superoperator entries are
floats, so no exact matrix is attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .cones import (
    Cone,
    DimensionMismatchError,
    Orthant,
    Psd,
    Polyhedral,
    RayImages,
    TensorCone,
    UnsupportedConeOperation,
    validate_unit,
)
from .linalg import (
    FLOAT_MODE,
    IntegerMatrix,
    ScalarMode,
    Spectrum,
    as_exact,
    integer_form,
)

__all__ = [
    "DynMap",
    "PositivityVerdict",
    "NegativeEntryError",
    "ColumnSumViolationError",
    "from_matrix",
    "from_stochastic",
    "from_kraus",
    "adjoint",
    "is_dup",
    "is_positive",
    "choi_matrix",
]

_SAMPLING_SEED = 1904
#: pure states sampled when the Choi test cannot certify positivity
_SAMPLES = 512


class NegativeEntryError(ValueError):
    """A stochastic matrix entry is negative."""


class ColumnSumViolationError(ValueError):
    """A stochastic matrix column does not sum to one."""


@dataclass(eq=False)
class DynMap:
    """A linear map on the ambient space of a cone.

    ``matrix`` is the float representation used for spectral work;
    ``integer`` is the same matrix as ``N / D`` when the input was rational,
    else None.  ``provenance`` is one of ``"raw"``, ``"stochastic"``,
    ``"kraus"``.
    """

    matrix: np.ndarray
    cone: Cone
    unit: np.ndarray
    integer: IntegerMatrix | None = None
    unit_exact: list | None = None
    provenance: str = "raw"
    kraus_ops: list | None = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        _check_shape(self.matrix, self.cone)
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("map matrix has non-finite entries")
        self.unit = np.asarray(self.unit, dtype=float)

    @property
    def dim(self) -> int:
        return self.cone.dim

    @property
    def exact(self) -> list | None:
        """The exact matrix as rows of Fractions, derived from ``integer``
        for readers outside the library; None for a float map."""
        if self.integer is None:
            return None
        n, d = self.integer
        return [[Fraction(v, d) for v in row] for row in n.tolist()]

    @cached_property
    def spectrum(self) -> Spectrum:
        """Spectral facts of the map, each computed once on first use."""
        return Spectrum(self.matrix, self.integer)

    @cached_property
    def ray_images(self) -> RayImages:
        """The cone's dual rays paired with the images of its extreme rays
        (:meth:`~conemix.cones.Cone.ray_images`), on the integer matrix N
        of an exact map; raises where the cone has no finite ray list."""
        return self.cone.ray_images(_own_matrix(self))


def _own_matrix(a: DynMap) -> np.ndarray:
    """The matrix in the map's own arithmetic: the integer matrix N for an
    exact map, a positive multiple that keeps every sign, the float array
    otherwise."""
    return a.matrix if a.integer is None else a.integer.N


def _entry(a: DynMap, value):
    """An entry (or a sum of entries) of ``_own_matrix(a)`` as a value of
    the map itself, for messages."""
    return value if a.integer is None else Fraction(value, a.integer.D)


@dataclass(frozen=True)
class PositivityVerdict:
    """Outcome of a cone-preservation check with its certificate."""

    value: str  # "yes" | "no" | "unknown"
    certificate: str

    def __bool__(self):
        return self.value == "yes"


def _check_shape(matrix, cone):
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatchError("map matrix must be square")
    if matrix.shape[0] != cone.dim:
        raise DimensionMismatchError(
            f"{matrix.shape[0]}x{matrix.shape[0]} matrix on a cone of "
            f"dimension {cone.dim}")


def from_matrix(m, cone: Cone, unit=None, mode: ScalarMode = FLOAT_MODE) -> DynMap:
    """Wrap a raw square matrix acting on ``cone``.

    A matrix that :func:`~conemix.linalg.as_exact` finds exact is held as
    ``N / D`` for the exact classification routes, and an exact unit as
    Fractions.  The shape is checked against the cone before anything of
    the cone's size is built.
    """
    exact = as_exact(m)
    return _on_cone(m if exact is None else integer_form(exact), cone, unit,
                    mode)


def _on_cone(m, cone: Cone, unit=None,
             mode: ScalarMode = FLOAT_MODE) -> DynMap:
    """:func:`from_matrix` after :func:`~conemix.linalg.as_exact`: m is an
    :class:`~conemix.linalg.IntegerMatrix` or a float matrix.  The float
    copy of ``N / D`` divides Python ints, which rounds correctly, like
    ``float`` of a Fraction."""
    integer = m if isinstance(m, IntegerMatrix) else None
    matrix = np.asarray(m if integer is None else integer.N / integer.D,
                        dtype=float)
    _check_shape(matrix, cone)
    unit_exact = as_exact(unit)
    if unit is None:
        try:
            unit_exact = cone.exact_default_unit()
        except UnsupportedConeOperation:
            unit_f = cone.default_unit()
        else:
            unit_f = np.array(unit_exact, dtype=float)
    else:
        unit_f = validate_unit(cone, unit if unit_exact is None else unit_exact,
                               mode)
    return DynMap(matrix, cone, unit_f, integer=integer, unit_exact=unit_exact)


def from_stochastic(w) -> DynMap:
    """Build a column-stochastic map on the orthant with the all-ones unit.

    Raises :class:`NegativeEntryError` / :class:`ColumnSumViolationError`
    when the input is not column-stochastic (exactly so for exact input,
    within 1e-12 for float input).
    """
    d = len(w)
    a = from_matrix(w, Orthant(d), [Fraction(1)] * d)
    a.provenance = "stochastic"
    m = _own_matrix(a)
    bad = np.argwhere(m < 0)
    if bad.size:
        i, j = bad[0]
        raise NegativeEntryError(
            f"entry ({i},{j}) = {_entry(a, m[i, j])} is negative")
    sums = m.sum(axis=0)
    off = np.argwhere(abs(sums - 1) > 1e-12) if a.integer is None \
        else np.argwhere(sums != a.integer.D)
    if off.size:
        j = int(off[0][0])
        raise ColumnSumViolationError(
            f"column {j} sums to {_entry(a, sums[j])}, not 1")
    return a


def from_kraus(ops) -> DynMap:
    """Superoperator of rho -> sum_i K_i rho K_i^dag in Hermitian coordinates.

    On row-major vectorized matrices the map is the one matrix
    ``S = sum_i K_i (x) conj(K_i)``; in the orthonormal Hermitian basis it
    is ``U^dag S U``, for U the matrix whose columns are the vectorized
    basis matrices.  That matrix is real because conjugation by each Kraus
    operator preserves Hermiticity, so only its real part is kept.  Trace
    preservation is not required (stochastic operations are allowed); it
    can be probed afterwards with :func:`is_dup`.
    """
    kraus = [np.asarray(k, dtype=complex) for k in ops]
    if not kraus:
        raise ValueError("at least one Kraus operator is required")
    h = kraus[0].shape[0]
    for k in kraus:
        if k.ndim != 2 or k.shape != (h, h):
            raise DimensionMismatchError(
                f"Kraus operators must all be {h}x{h}, got {k.shape}")
    cone = Psd(h)
    stack = np.array(kraus)
    s = np.tensordot(stack, stack.conj(), axes=(0, 0)) \
        .transpose(0, 2, 1, 3).reshape(h * h, h * h)
    u = cone.basis.flat.T
    # S U holds the images of the basis matrices; einsum pairs them with
    # the basis without BLAS's fused multiply-adds, so terms that cancel
    # exactly (as in a depolarizing channel) leave 0
    matrix = np.einsum("ia,ib->ab", u.conj(), s @ u).real
    return DynMap(matrix, cone, cone.default_unit(), provenance="kraus",
                  kraus_ops=kraus)


def adjoint(a: DynMap) -> DynMap:
    """Adjoint map: the transpose, acting on the dual cone ``a.cone.dual()``
    with that cone's default unit (interior to its dual, the cone of a).

    Coordinates are orthonormal for the ambient inner product, so the
    adjoint is literally the transpose: ``(N^T, D)`` for an exact map.
    Self-dual cones keep their cone; tensor cones with PSD operands raise
    :class:`UnsupportedConeOperation`.
    """
    m = a.matrix.T.copy() if a.integer is None \
        else IntegerMatrix(a.integer.N.T.copy(), a.integer.D)
    return _on_cone(m, a.cone.dual())


def is_dup(a: DynMap) -> bool:
    """Does the adjoint fix the unit element (A* u = u)?

    Exact when both the matrix and the unit are rational; otherwise within
    a relative tolerance.
    """
    if a.integer is not None and a.unit_exact is not None:
        # A* u = u  <=>  N^T (c u) = D (c u) for A = N / D and c u an
        # integer multiple of u: one product of Python ints
        n, d = a.integer
        u = integer_form(a.unit_exact).N
        return bool(np.all(n.T @ u == d * u))
    u = a.unit
    gap = a.matrix.T @ u - u
    cutoff = 1e-9 * max(1.0, np.linalg.norm(u))
    return bool(gap @ gap <= cutoff * cutoff)


def choi_matrix(a: DynMap) -> np.ndarray:
    """Choi matrix of a PSD-cone map (h^2 x h^2, Hermitian).

    ``E_ij`` expands over the Hermitian basis with coefficients
    ``B_k[j, i]``, so entry ``(ia, jb)`` is ``sum_k B_k[j, i] A(B_k)[a, b]``;
    the images ``A(B_k)`` of the basis come from one product."""
    if not isinstance(a.cone, Psd):
        raise UnsupportedConeOperation("Choi matrix requires a PSD-cone map")
    flat = a.cone.basis.flat
    h = a.cone.h
    images = a.matrix.T @ flat  # row k: A(B_k), row-major
    choi = flat.conj().T @ images  # entry (ij, ab)
    return choi.reshape(h, h, h, h).transpose(0, 2, 1, 3).reshape(h * h, h * h)


def _haar_state(rng, h):
    psi = rng.standard_normal(h) + 1j * rng.standard_normal(h)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def is_positive(a: DynMap, mode: ScalarMode = FLOAT_MODE) -> PositivityVerdict:
    """Does the map send its cone into itself?

    Orthant cones are decided on the entries; polyhedral and finite tensor
    cones on the signs of ``DynMap.ray_images``: no dual ray pairs
    negatively with the image of an extreme ray (exactly for an exact map,
    at ``eps_interior`` for a float one).  For
    the PSD cone the question is only semi-decidable: a PSD Choi matrix
    certifies yes (complete positivity implies positivity), a sampled pure
    state whose image has a negative eigenvalue certifies no, and otherwise
    the verdict is unknown.
    """
    cone = a.cone
    if isinstance(cone, Orthant):
        m = _own_matrix(a)
        cutoff = 0 if a.integer is not None else \
            mode.eps_interior * max(1.0, float(np.max(np.abs(m))))
        bad = np.argwhere(m < -cutoff)
        if bad.size:
            i, j = (int(v) for v in bad[0])
            return PositivityVerdict(
                "no", f"entry ({i},{j}) = {_entry(a, m[i, j])} is negative")
        return PositivityVerdict("yes", "all entries nonnegative")

    if isinstance(cone, (Polyhedral, TensorCone)):
        try:
            signs = a.ray_images.signs(mode)
        except UnsupportedConeOperation:
            return PositivityVerdict(
                "unknown", "tensor cone with PSD operands: no finite "
                "generator test")
        leaving = np.flatnonzero((signs < 0).any(axis=0))
        if leaving.size:
            return PositivityVerdict(
                "no", f"image of extremal generator {leaving[0]} leaves the "
                "cone")
        return PositivityVerdict("yes", "every extremal generator maps into "
                                        "the cone")

    if isinstance(cone, Psd):
        choi = choi_matrix(a)
        w = np.linalg.eigvalsh(choi)
        scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
        if w[0] >= -mode.eps_interior * scale:
            return PositivityVerdict(
                "yes", "completely positive (Choi matrix is PSD)")
        rng = np.random.default_rng(_SAMPLING_SEED)
        basis = cone.basis
        for k in range(_SAMPLES):
            rho = _haar_state(rng, cone.h)
            out = a.matrix @ basis.vec(rho)
            lo = float(np.linalg.eigvalsh(basis.mat(out))[0])
            if lo < -mode.eps_interior * max(1.0, np.linalg.norm(out)):
                return PositivityVerdict(
                    "no", f"sampled pure state {k} maps to an output with "
                    f"eigenvalue {lo}")
        return PositivityVerdict(
            "unknown", f"Choi matrix is not PSD (min eigenvalue {w[0]:.3e}) "
            f"but no violation found on {_SAMPLES} sampled pure states; the "
            "map may be positive without being completely positive")

    raise UnsupportedConeOperation(f"no positivity test for {cone!r}")
