"""
Quantum channels: fixed points and mixing
=========================================

Build qubit channels from Kraus operators and classify them.  The
superoperator acts on the real coordinates of Hermitian matrices, so the
same spectral machinery that handles stochastic matrices applies verbatim.
"""

import numpy as np

from conemix import Psd, classify, from_kraus

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)
cone = Psd(2)

# The identity channel fixes everything: a four-dimensional fixed space,
# so no single stationary state attracts the dynamics.
identity = from_kraus([np.eye(2)])
report = classify(identity)
print("identity channel:", report.verdicts())
print("  fixed-space dimension:", report.multiplicity_r.geometric)

# The completely depolarizing channel sends every state to the maximally
# mixed one: spectrum {1, 0, 0, 0}, interior stationary state, primitive.
depolarizing = from_kraus([0.5 * np.eye(2), 0.5 * X, 0.5 * Y, 0.5 * Z])
report = classify(depolarizing)
print("depolarizing channel:", report.verdicts())
print("  superoperator spectrum:",
      np.round(np.sort(np.linalg.eigvals(depolarizing.matrix).real), 6))

# Pure states lie on the boundary of the PSD cone; iterate the channel on
# a few random ones until each image is interior (positive definite).
rng = np.random.default_rng(5)
steps = 0
for _ in range(32):
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    x = cone.basis.vec(np.outer(psi, psi.conj()) / np.vdot(psi, psi).real)
    for n in range(1, 17):
        x = depolarizing.matrix @ x
        if cone.interior_contains(x / np.linalg.norm(x)):
            break
    steps = max(steps, n)
print("  boundary states reach the interior after", steps, "step(s)")

# Dephasing kills coherences but preserves every diagonal state: the fixed
# space is two-dimensional, so the channel is not ergodic.
dephasing = from_kraus([np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * Z])
print("dephasing channel:", classify(dephasing).verdicts())

# Amplitude damping relaxes towards the ground state |0><0|.  The powers
# converge (mixing), but the target state is rank-deficient -- on the
# boundary of the PSD cone -- so the channel is not primitive.
gamma = 0.5
damping = from_kraus([np.array([[1, 0], [0, np.sqrt(1 - gamma)]]),
                      np.array([[0, np.sqrt(gamma)], [0, 0]])])
report = classify(damping)
print("amplitude damping:", report.verdicts())
ground = cone.basis.mat(report.stationary)
print("  stationary state eigenvalues:",
      np.round(np.linalg.eigvalsh(ground), 6))
