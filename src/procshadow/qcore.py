"""Dense linear-algebra primitives for small multi-qubit systems.

Conventions used throughout the package:

* qubit 0 is the most significant bit of a basis index, so the basis
  state labelled by the bit string ``"10"`` has index 2;
* operators are dense complex matrices of shape ``(2**n, 2**n)``;
* a bipartite operator on 2n qubits splits into register A (the first
  n qubits, most significant) and register B (the last n qubits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

# Tolerances: structural invariants (positivity, trace preservation) are
# checked to 1e-9, algebraic identities to 1e-10.
ATOL_STRUCT = 1e-9
ATOL_ALGEBRA = 1e-10

# The widest register the dense simulation takes: at n=7 a Choi mean would
# hold 16^7 float64 coefficients (2.1 GB) and a 4.3 GB complex matrix.
MAX_QUBITS = 6


class InfeasibleError(ValueError):
    """A register or record count beyond a dense-simulation cap; the CLI exits 3."""


def check_register(n: int) -> None:
    """Refuse an empty register, or one wider than ``MAX_QUBITS``."""
    if n < 1:
        raise ValueError("need at least one qubit")
    if n > MAX_QUBITS:
        raise InfeasibleError(f"{n} qubits exceeds the register cap ({MAX_QUBITS})")


ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"I": ID2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def n_qubits_of(a: np.ndarray) -> int:
    """Number of qubits of a square operator; raises on non-power-of-2 shape."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    d = a.shape[0]
    n = d.bit_length() - 1
    if d <= 0 or 2**n != d:
        raise ValueError(f"dimension {d} is not a power of two")
    return n


def basis_index(bits: str) -> int:
    """Index of the computational-basis state for a bit string (qubit 0 first)."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"invalid bit string {bits!r}")
    return int(bits, 2)


def basis_state(bits: str) -> np.ndarray:
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[basis_index(bits)] = 1.0
    return v


def basis_projector(bits: str) -> np.ndarray:
    v = basis_state(bits)
    return np.outer(v, v.conj())


def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product; the first factor acts on the most significant qubits."""
    if not ops:
        raise ValueError("tensor() needs at least one operator")
    return reduce(np.kron, [np.asarray(o, dtype=complex) for o in ops])


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex), 2))


def is_hermitian(a: np.ndarray) -> bool:
    a = np.asarray(a)
    return bool(np.allclose(a, a.conj().T, atol=ATOL_ALGEBRA, rtol=0))


def check_density_matrix(rho: np.ndarray) -> None:
    """Validate hermiticity, unit trace and positivity; raises ValueError."""
    rho = np.asarray(rho, dtype=complex)
    n_qubits_of(rho)
    if not is_hermitian(rho):
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10 or abs(np.trace(rho).imag) > 1e-10:
        raise ValueError(f"density matrix has trace {np.trace(rho)}, expected 1")
    lo = float(np.linalg.eigvalsh(rho).min())
    if lo < -ATOL_STRUCT:
        raise ValueError(f"density matrix has negative eigenvalue {lo}")


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Pauli operators, e.g. ``"XIZ"``."""

    letters: str

    def __post_init__(self):
        if not self.letters or any(c not in "IXYZ" for c in self.letters):
            raise ValueError(f"invalid Pauli string {self.letters!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    @property
    def support(self) -> int:
        """Number of non-identity sites."""
        return sum(1 for c in self.letters if c != "I")

    @property
    def matrix(self) -> np.ndarray:
        return tensor(*(PAULI[c] for c in self.letters))


@dataclass(frozen=True, eq=False)
class Channel:
    """Completely positive trace-preserving map given by Kraus operators."""

    kraus: tuple
    n_qubits: int = field(init=False)

    def __post_init__(self):
        kraus = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        object.__setattr__(self, "kraus", kraus)
        if not kraus:
            raise ValueError("channel needs at least one Kraus operator")
        n = n_qubits_of(kraus[0])
        check_register(n)
        object.__setattr__(self, "n_qubits", n)
        d = 2**n
        for k in kraus:
            if k.shape != (d, d):
                raise ValueError("Kraus operators have mismatched shapes")
        s = sum(k.conj().T @ k for k in kraus)
        if not np.allclose(s, np.eye(d), atol=ATOL_STRUCT, rtol=0):
            raise ValueError("Kraus operators do not sum to the identity")

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


def apply_channel(ch: Channel, rho: np.ndarray) -> np.ndarray:
    """Apply a channel to an operator (need not be a state)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (ch.dim, ch.dim):
        raise ValueError(f"operator shape {rho.shape} does not match channel on "
                         f"{ch.n_qubits} qubits")
    return sum(k @ rho @ k.conj().T for k in ch.kraus)


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Choi matrix of a channel on the doubled register A (input) x B (output).

    The unnormalized form has trace 2^n; the normalized form (a state)
    has trace 1.  The ``normalized`` flag records which one is stored.
    """

    matrix: np.ndarray
    n_qubits: int
    normalized: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        d2 = 4**self.n_qubits
        if m.shape != (d2, d2):
            raise ValueError(f"Choi matrix shape {m.shape} does not match "
                             f"{self.n_qubits} qubits")

    @property
    def dim(self) -> int:
        """Dimension of the single-register system."""
        return 2**self.n_qubits

    def unnormalized(self) -> np.ndarray:
        return self.matrix * self.dim if self.normalized else self.matrix

def choi_of_channel(ch: Channel) -> ChoiMatrix:
    """Unnormalized Choi matrix sum_{m,n} |m><n| (x) E(|m><n|)."""
    v = np.array(ch.kraus).transpose(0, 2, 1).reshape(len(ch.kraus), -1)  # v[k, (m, j)] = K_k[j, m]
    return ChoiMatrix(v.T @ v.conj(), ch.n_qubits, normalized=False)


def random_density_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random state from the Hilbert-Schmidt ensemble (normalized G G^dag)."""
    d = 2**n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
