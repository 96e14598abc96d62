"""Independent oracles for the test suite.

Everything here is built from first principles (dense matrices, statevector
simulation, brute-force dictionaries, inverse-CDF sampling) and never calls
into the propagation path it is used to check.
"""

from __future__ import annotations

import numpy as np

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_SINGLE = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}


def pauli_matrix(label: str) -> np.ndarray:
    """Dense matrix of a plain Pauli label, qubit 0 leftmost in the kron."""
    out = np.array([[1.0 + 0j]])
    for ch in label:
        out = np.kron(out, _SINGLE[ch])
    return out


def dense_observable(terms, n: int) -> np.ndarray:
    out = np.zeros((2**n, 2**n), dtype=complex)
    for label, coeff in terms:
        out += coeff * pauli_matrix(label)
    return out


def dense_heisenberg(gates, obs_terms, n: int) -> np.ndarray:
    """Conjugate the observable through the gates in circuit-list order."""
    O = dense_observable(obs_terms, n)
    eye = np.eye(2**n)
    for label, theta in gates:
        S = pauli_matrix(label)
        U = np.cos(theta / 2.0) * eye - 1j * np.sin(theta / 2.0) * S
        O = U.conj().T @ O @ U
    return O


def dense_heisenberg_expectation(gates, obs_terms, n: int) -> float:
    return float(dense_heisenberg(gates, obs_terms, n)[0, 0].real)


def _label_masks(label: str):
    n = len(label)
    x_mask = z_mask = 0
    n_y = 0
    for q, ch in enumerate(label):
        bit = 1 << (n - 1 - q)  # qubit 0 is the most significant index bit
        if ch in ("X", "Y"):
            x_mask |= bit
        if ch in ("Z", "Y"):
            z_mask |= bit
        if ch == "Y":
            n_y += 1
    return x_mask, z_mask, n_y


def apply_pauli_to_state(label: str, psi: np.ndarray) -> np.ndarray:
    x_mask, z_mask, n_y = _label_masks(label)
    dim = len(psi)
    idx = np.arange(dim)
    signs = 1 - 2 * (np.bitwise_count(idx & z_mask) & 1).astype(np.int64)
    phases = (1j**n_y) * signs
    out = np.empty_like(psi)
    out[idx ^ x_mask] = phases * psi
    return out


def statevector_expectation(gates, obs_terms, n: int) -> float:
    """<0|U^dag O U|0> by evolving the state with the reversed gate list.

    The Heisenberg conjugation order O -> U_k^dag O U_k for k = 1..J equals
    a state evolution where the last listed gate acts on |0> first.
    """
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    for label, theta in reversed(gates):
        sigma_psi = apply_pauli_to_state(label, psi)
        psi = np.cos(theta / 2.0) * psi - 1j * np.sin(theta / 2.0) * sigma_psi
    total = 0.0 + 0.0j
    for label, coeff in obs_terms:
        total += coeff * np.vdot(psi, apply_pauli_to_state(label, psi))
    assert abs(total.imag) < 1e-10
    return float(total.real)


def sum_as_dense(pauli_sum) -> np.ndarray:
    """Reconstruct the operator from canonical rows (real coefficients of
    plain-letter strings)."""
    n = pauli_sum.n
    out = np.zeros((2**n, 2**n), dtype=complex)
    for p, c in pauli_sum.terms():
        out += c * pauli_matrix(p.to_label())
    return out


def power_law_samples(m: float, delta: float, size: int, rng, signed: bool = False) -> np.ndarray:
    """Inverse-CDF sampler: |t| = delta * u^(-1/m)."""
    mags = delta * rng.random(size) ** (-1.0 / m)
    if not signed:
        return mags
    return mags * np.where(rng.random(size) < 0.5, 1.0, -1.0)


def reference_partition(pauli_sum, sigma):
    """Brute-force partition using python ints and a dict, for phi/eta."""
    packed = [(p.z, p.x) for p, _ in pauli_sum.terms()]
    keys = set(packed)
    sz, sx = sigma.z, sigma.x
    comm, anti = [], []
    paired = 0
    for i, (z, x) in enumerate(packed):
        s = (bin(x & sz).count("1") + bin(z & sx).count("1")) % 2
        if s == 0:
            comm.append(i)
        else:
            anti.append(i)
            if (z ^ sz, x ^ sx) in keys:
                paired += 1
    n_rows = len(packed)
    phi = len(anti) / n_rows if n_rows else 0.0
    eta = paired / n_rows if n_rows else 0.0
    return comm, anti, phi, eta


def random_pauli_label(rng, n: int, allow_identity: bool = False) -> str:
    while True:
        label = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        if allow_identity or set(label) != {"I"}:
            return label


def random_circuit_gates(rng, n: int, n_gates: int, clifford_fraction: float = 0.3):
    """Random Pauli rotations with a mix of Clifford and generic angles."""
    gates = []
    for _ in range(n_gates):
        label = random_pauli_label(rng, n)
        if rng.random() < clifford_fraction:
            theta = float(rng.choice([-np.pi / 2, np.pi / 2, np.pi, -np.pi, 0.0]))
        else:
            theta = float(rng.uniform(-4.0, 4.0))
        gates.append((label, theta))
    return gates
