"""Trajectory simulation and asymptotic diagnostics.

Cesaro averages and plain powers of the radius-normalized map, reduced
states of bipartite vectors, order-interval (u-) norms, and the decoupling
distance of a bipartite trajectory.  Verdicts use a sliding window: a
trajectory converges when successive differences stay below a tolerance
for a full window, diverges when the iterates blow past a ceiling or grow
monotonically with non-decaying steps, and is otherwise undecided.  The
verdicts are advisory; the classification routes are the authority.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cones import (
    Cone,
    InvalidUnitError,
    Psd,
    TensorCone,
    UnsupportedConeOperation,
    is_classical,
)
from .linalg import FLOAT_MODE, ScalarMode, as_exact
from .maps import DynMap

__all__ = [
    "Verdict",
    "TrajectoryRecord",
    "BipartiteLayout",
    "NormalizationVanishedError",
    "cesaro_trajectory",
    "power_trajectory",
    "reduced_states",
    "u_norm",
    "decoupling_distance",
    "decoupling_trace",
]

DIVERGENCE_CEILING = 1e12
#: steps of the sliding window behind every trajectory verdict
WINDOW = 10


class NormalizationVanishedError(RuntimeError):
    """The unit component of the trajectory hit zero; the kernel of the map
    meets the cone nontrivially."""

    def __init__(self, step):
        super().__init__(f"unit component vanished at step {step}")
        self.step = step


@dataclass(frozen=True)
class Verdict:
    status: str  # "converged" | "diverged" | "undecided"
    limit: object = None
    at_step: int | None = None
    growth: float | None = None

    @property
    def converged(self):
        return self.status == "converged"

    @property
    def diverged(self):
        return self.status == "diverged"


@dataclass
class TrajectoryRecord:
    """One simulated trajectory: per-step iterates plus a verdict.

    ``iterates`` holds vectors for the cesaro/power modes and the scalar
    decoupling distance per step for the decoupling mode, in which case
    ``final_state`` holds the last normalized state.
    """

    mode: str
    iterates: list = field(default_factory=list)
    verdict: Verdict = Verdict("undecided")
    final_state: np.ndarray | None = None


class _WindowJudge:
    """Sliding-window convergence/divergence detector."""

    def __init__(self, tol):
        self.tol = tol
        self.diffs = []
        self.norms = []
        self.small = 0

    def feed(self, diff, norm, step):
        """Returns a Verdict or None to continue."""
        self.diffs.append(diff)
        self.norms.append(norm)
        if norm > DIVERGENCE_CEILING:
            return Verdict("diverged", at_step=step, growth=norm)
        self.small = self.small + 1 if diff < self.tol else 0
        if self.small >= WINDOW:
            return Verdict("converged", at_step=step)
        if len(self.diffs) >= WINDOW:
            d = self.diffs[-WINDOW:]
            n = self.norms[-WINDOW:]
            growing = all(b >= a * (1.0 - 1e-9)
                          for a, b in zip(n, n[1:])) and n[-1] > n[0]
            steady = all(b >= a * (1.0 - 1e-9)
                         for a, b in zip(d, d[1:])) and d[-1] > self.tol
            if growing and steady:
                rate = (n[-1] / max(n[0], 1e-300)) ** (1.0 / (WINDOW - 1))
                return Verdict("diverged", at_step=step, growth=rate)
        return None


def _normalized_trajectory(kind: str, a: DynMap, x, n_max: int,
                           tol: float) -> TrajectoryRecord:
    """Iterates (``power``) or running averages (``cesaro``) of the
    radius-normalized map applied to x, judged over a sliding window."""
    m = a.matrix / a.spectrum.positive_r()
    v = np.asarray(x, dtype=float)
    shown = v.copy()
    record = TrajectoryRecord(kind, [shown.copy()])
    judge = _WindowJudge(tol)
    for step in range(1, n_max + 1):
        v = m @ v
        new = (step * shown + v) / (step + 1) if kind == "cesaro" else v
        diff = float(np.linalg.norm(new - shown))
        shown = new
        record.iterates.append(shown.copy())
        verdict = judge.feed(diff, float(np.linalg.norm(shown)), step)
        if verdict is not None:
            if verdict.converged:
                verdict = Verdict("converged", limit=shown.copy(),
                                  at_step=verdict.at_step)
            record.verdict = verdict
            return record
    record.verdict = Verdict("undecided")
    return record


def cesaro_trajectory(a: DynMap, x, n_max: int,
                      tol: float = 1e-10) -> TrajectoryRecord:
    """Running averages of the radius-normalized powers applied to x.

    For an ergodic map the averages converge to the rank-one projection of
    x onto the stationary direction; a linearly growing average is reported
    as diverged.
    """
    return _normalized_trajectory("cesaro", a, x, n_max, tol)


def power_trajectory(a: DynMap, x, n_max: int,
                     tol: float = 1e-10) -> TrajectoryRecord:
    """Iterates of the radius-normalized map applied to x.

    Converges to the rank-one projection of x exactly when the map is
    mixing (or x has no weight on the non-peak spectrum).
    """
    return _normalized_trajectory("power", a, x, n_max, tol)


# ---------------------------------------------------------------------------
# bipartite structure
# ---------------------------------------------------------------------------

@dataclass
class BipartiteLayout:
    """Two subsystems with units; index convention follows the Kronecker
    product (component i * d2 + j is left-basis i times right-basis j)."""

    left: Cone
    right: Cone
    unit_left: np.ndarray = None
    unit_right: np.ndarray = None

    def __post_init__(self):
        if self.unit_left is None:
            self.unit_left = self.left.default_unit()
        if self.unit_right is None:
            self.unit_right = self.right.default_unit()
        self.unit_left = np.asarray(self.unit_left, dtype=float)
        self.unit_right = np.asarray(self.unit_right, dtype=float)
        if not self.left.interior_dual_contains(self.unit_left):
            raise InvalidUnitError("left unit is not interior to the dual cone")
        if not self.right.interior_dual_contains(self.unit_right):
            raise InvalidUnitError("right unit is not interior to the dual cone")

    @classmethod
    def of(cls, cone: TensorCone, unit_left=None, unit_right=None):
        return cls(cone.left, cone.right, unit_left, unit_right)

    @property
    def d1(self):
        return self.left.dim

    @property
    def d2(self):
        return self.right.dim

    @property
    def unit(self):
        return np.kron(self.unit_left, self.unit_right)


def reduced_states(x, layout: BipartiteLayout):
    """Marginals of a bipartite vector: contract against the opposite unit.

    Independent of how x is decomposed into product terms; for quantum
    coordinates with identity units this is the pair of partial traces.
    """
    xf = np.asarray(x, dtype=float)
    if xf.shape != (layout.d1 * layout.d2,):
        raise ValueError(
            f"expected a vector of length {layout.d1 * layout.d2}, "
            f"got {xf.shape}")
    m = xf.reshape(layout.d1, layout.d2)
    return m @ layout.unit_right, m.T @ layout.unit_left


# ---------------------------------------------------------------------------
# u-norm
# ---------------------------------------------------------------------------

def u_norm(x, u, cone: Cone, mode: ScalarMode = FLOAT_MODE) -> float:
    """Max of |<y, x>| over the order interval -u <= y <= u in the dual.

    Closed forms: weighted l1 on the orthant, the trace norm
    ||U^(1/2) X U^(1/2)||_1 on the PSD cone, and |<u, x>| on any other
    cone with a finite generator list when x or -x lies in the cone (for
    x in K and -u <= y <= u, u - y is in the dual, so <y, x> <= <u, x>).
    Membership is decided by the cone in ``mode``: exactly for an exact x
    (ints, Fractions, rational strings), whose norm is then the exact dot
    product when u is exact too.  Only a vector outside +-K solves a small
    LP over the cone's extreme rays.  Contracted by every cone-positive map
    that fixes u under its adjoint.
    """
    if not cone.interior_dual_contains(u, mode):
        raise InvalidUnitError("unit element is not interior to the dual cone")
    exact_x, exact_u = as_exact(x), as_exact(u)
    xf = np.asarray(x if exact_x is None else exact_x, dtype=float)
    uf = np.asarray(u if exact_u is None else exact_u, dtype=float)
    if is_classical(cone):
        return float(np.sum(uf * np.abs(xf)))
    if isinstance(cone, Psd):
        basis = cone.basis
        w, vecs = np.linalg.eigh(basis.mat(uf))
        root = vecs @ np.diag(np.sqrt(w)) @ vecs.conj().T
        squeezed = root @ basis.mat(xf) @ root
        return float(np.sum(np.abs(np.linalg.eigvalsh(squeezed))))
    # raises on a cone with no finite generator list, whatever x is
    gens = np.array(cone.extremal_generators())
    own = xf if exact_x is None else np.array(exact_x, dtype=object)
    if cone.contains(own, mode) or cone.contains(-own, mode):
        if exact_x is not None and exact_u is not None:
            return float(abs(own @ np.array(exact_u, dtype=object)))
        return abs(float(uf @ xf))
    # imported here: scipy.optimize costs most of the package import
    from scipy.optimize import linprog
    bound = gens @ uf
    # max <x, y> over G y <= G u and -G y <= G u; the feasible set is
    # symmetric, so the absolute value resolves for free
    res = linprog(c=-xf, A_ub=np.vstack([gens, -gens]),
                  b_ub=np.concatenate([bound, bound]),
                  bounds=[(None, None)] * len(xf), method="highs")
    if not res.success:
        raise RuntimeError(f"u-norm LP failed: {res.message}")
    return float(-res.fun)


# ---------------------------------------------------------------------------
# decoupling
# ---------------------------------------------------------------------------

def decoupling_distance(x, layout: BipartiteLayout) -> float:
    """Euclidean distance between a normalized bipartite state and the
    product of its reduced states."""
    xf = np.asarray(x, dtype=float)
    p1, p2 = reduced_states(xf, layout)
    return float(np.linalg.norm(xf - np.kron(p1, p2)))


def decoupling_trace(a: DynMap, x, layout: BipartiteLayout, n_max: int,
                     tol: float = 1e-10) -> TrajectoryRecord:
    """Per-step decoupling distance of the normalized trajectory of x.

    The state is renormalized by its unit component at every step, so all
    quantities stay O(1).  The trace converges (decouples) when the
    distance stays below ``tol`` for a full window; a distance trace that
    stabilizes at a positive value stays undecided.  Raises
    :class:`NormalizationVanishedError` when the unit component vanishes,
    which signals that the kernel of the map meets the cone nontrivially.
    """
    xf = np.asarray(x, dtype=float)
    try:
        if not a.cone.contains(xf):
            raise ValueError("initial vector is not in the cone")
    except UnsupportedConeOperation:
        pass
    u = layout.unit
    comp = float(u @ xf)
    if comp <= 1e-12 * max(1.0, float(np.linalg.norm(xf))):
        raise NormalizationVanishedError(0)
    state = xf / comp
    record = TrajectoryRecord("decoupling")
    dist = decoupling_distance(state, layout)
    record.iterates.append(dist)
    small = 1 if dist < tol else 0
    for step in range(1, n_max + 1):
        nxt = a.matrix @ state
        comp = float(u @ nxt)
        if comp <= 1e-12 * max(1.0, float(np.linalg.norm(nxt))):
            raise NormalizationVanishedError(step)
        state = nxt / comp
        dist = decoupling_distance(state, layout)
        record.iterates.append(dist)
        small = small + 1 if dist < tol else 0
        if small >= WINDOW:
            record.verdict = Verdict("converged", limit=dist, at_step=step)
            record.final_state = state
            return record
    record.verdict = Verdict("undecided", limit=dist)
    record.final_state = state
    return record
