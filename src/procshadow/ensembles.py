"""Measurement-frame ensembles: random Pauli bases and uniform Cliffords.

A *frame* is the unitary that maps the measured basis onto the logical
basis: measuring a state rho in the frame U means sampling a bit string
b with probability <b|U rho U^dag|b>, i.e. the measurement effects are
U^dag|b><b|U.  The sign convention is fixed so that outcome bit 0 tags
the +1 eigenstate of the measured axis.

Clifford frames are stored as binary symplectic tableaus: row j is the
(x|z) image of X_j under conjugation, row n+j the image of Z_j, and
``signs`` holds one sign bit per row.  A tableau determines the unitary
up to global phase; ``to_matrix`` resolves the phase canonically (first
nonvanishing amplitude of U|0...0> is real positive).  Uniform sampling
follows the canonical symplectic-matrix construction of Koenig and
Smolin, combined with uniform sign bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qcore import ID2, PAULI, basis_state, tensor

PAULI_ENSEMBLE = "pauli"
CLIFFORD_ENSEMBLE = "clifford"
AXES = "XYZ"

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S_DAG = np.array([[1, 0], [0, -1j]], dtype=complex)
# U such that U^dag |b><b| U runs over the +-1 eigenprojectors of the axis,
# with b=0 mapped to the +1 eigenstate.
AXIS_FRAME = {"X": _HADAMARD, "Y": _HADAMARD @ _S_DAG, "Z": ID2}

MAX_CLIFFORD_QUBITS = 6


@dataclass(frozen=True)
class PauliFrame:
    """Product of single-qubit basis rotations, one axis per qubit."""

    axes: str

    def __post_init__(self):
        if not self.axes or any(c not in AXES for c in self.axes):
            raise ValueError(f"invalid Pauli axes {self.axes!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.axes)


@dataclass(frozen=True, eq=False)
class CliffordFrame:
    """Clifford unitary as a signed binary symplectic tableau."""

    symplectic: np.ndarray  # (2n, 2n) over GF(2); rows are generator images
    signs: np.ndarray       # (2n,) sign bits for the generator images

    def __post_init__(self):
        s = np.ascontiguousarray(np.asarray(self.symplectic, dtype=np.uint8) % 2)
        p = np.ascontiguousarray(np.asarray(self.signs, dtype=np.uint8) % 2)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2 != 0:
            raise ValueError(f"bad tableau shape {s.shape}")
        if p.shape != (s.shape[0],):
            raise ValueError("sign vector length does not match tableau")
        s.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "symplectic", s)
        object.__setattr__(self, "signs", p)

    @property
    def n_qubits(self) -> int:
        return self.symplectic.shape[0] // 2

    def key(self) -> bytes:
        """Stable hashable identifier of the phase class."""
        return self.symplectic.tobytes() + self.signs.tobytes()

    def __eq__(self, other):
        return (isinstance(other, CliffordFrame) and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())


Frame = PauliFrame | CliffordFrame


def frame_kind(frame: Frame) -> str:
    if isinstance(frame, PauliFrame):
        return "pauli-product"
    if isinstance(frame, CliffordFrame):
        return "clifford"
    raise TypeError(f"not a frame: {frame!r}")


def sample_pauli_frame(n: int, rng: np.random.Generator) -> PauliFrame:
    """Uniform choice of one of X, Y, Z per qubit."""
    idx = rng.integers(0, 3, size=n)
    return PauliFrame("".join(AXES[i] for i in idx))


# ---------------------------------------------------------------------------
# Koenig-Smolin canonical symplectic matrices.
#
# These helpers work in the interleaved bit convention (x_1 z_1 x_2 z_2 ...);
# the public tableau uses (x_1..x_n | z_1..z_n) blocks and is produced by a
# final permutation.
# ---------------------------------------------------------------------------

def _sympl_inner(v: np.ndarray, w: np.ndarray) -> int:
    t = 0
    for i in range(0, v.size, 2):
        t += v[i] * w[i + 1] + w[i] * v[i + 1]
    return int(t % 2)


def _transvection(k: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (v + _sympl_inner(k, v) * k) % 2


def _bits_of(i: int, n: int) -> np.ndarray:
    return np.array([(i >> j) & 1 for j in range(n)], dtype=np.uint8)


def _find_transvection(x: np.ndarray, y: np.ndarray):
    """Pair (h0, h1) with y = Z_h0 Z_h1 x for nonzero x, y (all-zero = no-op)."""
    out = np.zeros((2, x.size), dtype=np.uint8)
    if np.array_equal(x, y):
        return out
    if _sympl_inner(x, y) == 1:
        out[0] = (x + y) % 2
        return out
    z = np.zeros(x.size, dtype=np.uint8)
    for i in range(0, x.size, 2):
        if (x[i] or x[i + 1]) and (y[i] or y[i + 1]):
            z[i] = (x[i] + y[i]) % 2
            z[i + 1] = (x[i + 1] + y[i + 1]) % 2
            if z[i] == 0 and z[i + 1] == 0:
                z[i + 1] = 1
                if x[i] != x[i + 1]:
                    z[i] = 1
            out[0] = (x + z) % 2
            out[1] = (y + z) % 2
            return out
    for i in range(0, x.size, 2):
        if (x[i] or x[i + 1]) and not (y[i] or y[i + 1]):
            if x[i] == x[i + 1]:
                z[i + 1] = 1
            else:
                z[i + 1] = x[i]
                z[i] = x[i + 1]
            break
    for i in range(0, x.size, 2):
        if not (x[i] or x[i + 1]) and (y[i] or y[i + 1]):
            if y[i] == y[i + 1]:
                z[i + 1] = 1
            else:
                z[i + 1] = y[i]
                z[i] = y[i + 1]
            break
    out[0] = (x + z) % 2
    out[1] = (y + z) % 2
    return out


def _symplectic_step(k: int, bits_int: int, inner_g: np.ndarray | None) -> np.ndarray:
    """One level of the canonical construction: extend a 2(n-1) matrix to 2n."""
    nn = 2 if inner_g is None else inner_g.shape[0] + 2
    f1 = _bits_of(k, nn)
    e1 = np.zeros(nn, dtype=np.uint8)
    e1[0] = 1
    t0, t1 = _find_transvection(e1, f1)
    bits = _bits_of(bits_int, nn - 1)
    eprime = e1.copy()
    for j in range(2, nn):
        eprime[j] = bits[j - 1]
    h0 = _transvection(t1, _transvection(t0, eprime))
    if bits[0] == 1:
        f1 = f1 * 0
    g = np.eye(nn, dtype=np.uint8)
    if inner_g is not None:
        g[2:, 2:] = inner_g
    for j in range(nn):
        row = _transvection(t0, g[j])
        row = _transvection(t1, row)
        row = _transvection(h0, row)
        g[j] = _transvection(f1, row)
    return g


def _interleaved_to_blocks(g: np.ndarray) -> np.ndarray:
    n = g.shape[0] // 2
    perm = np.empty(2 * n, dtype=int)
    for q in range(n):
        perm[2 * q] = q        # x_q -> column q
        perm[2 * q + 1] = n + q  # z_q -> column n + q
    out = np.zeros_like(g)
    out[np.ix_(perm, perm)] = g
    return out


def _symplectic_from_levels(levels) -> np.ndarray:
    """Build the canonical symplectic matrix from per-level (k, bits) choices.

    ``levels`` lists one pair per system size 1..n, innermost first.
    """
    g = None
    for k, bits_int in levels:
        g = _symplectic_step(k, bits_int, g)
    return _interleaved_to_blocks(g)


def symplectic_group_order(n: int) -> int:
    order = 1
    for j in range(1, n + 1):
        order *= (4**j - 1) * 4**j // 2
    return order


def clifford_group_order(n: int) -> int:
    """Number of Clifford elements modulo global phase."""
    return symplectic_group_order(n) * 4**n


def sample_clifford(n: int, rng: np.random.Generator) -> CliffordFrame:
    """Uniformly random Clifford frame (modulo phase) on 1..6 qubits."""
    if not 1 <= n <= MAX_CLIFFORD_QUBITS:
        raise ValueError(f"n={n} outside the supported range 1..{MAX_CLIFFORD_QUBITS}")
    levels = [(int(rng.integers(1, 4**j)), int(rng.integers(0, 2 ** (2 * j - 1))))
              for j in range(1, n + 1)]
    signs = rng.integers(0, 2, size=2 * n).astype(np.uint8)
    return CliffordFrame(_symplectic_from_levels(levels), signs)


def enumerate_clifford_group(n: int = 1):
    """All Clifford frames modulo phase; exhaustive, so n=1 only (24 elements)."""
    if n != 1:
        raise ValueError("exhaustive enumeration is only supported for n=1")
    frames = []
    for k in range(1, 4):
        for bits in range(2):
            sympl = _symplectic_from_levels([(k, bits)])
            for p in range(4):
                frames.append(CliffordFrame(sympl, _bits_of(p, 2)))
    return frames


# ---------------------------------------------------------------------------
# Tableau -> dense unitary.
# ---------------------------------------------------------------------------

def _pauli_matrix(x: np.ndarray, z: np.ndarray, sign: int) -> np.ndarray:
    """Hermitian Pauli (-1)^sign * prod_q i^{x_q z_q} X^{x_q} Z^{z_q}."""
    factors = []
    for xq, zq in zip(x, z):
        m = ID2
        if xq and zq:
            m = PAULI["Y"]
        elif xq:
            m = PAULI["X"]
        elif zq:
            m = PAULI["Z"]
        factors.append(m)
    return (-1) ** int(sign) * tensor(*factors)


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rescale a vector so its first non-negligible entry is real positive."""
    for a in v:
        if abs(a) > 1e-8:
            return v * (abs(a) / a)
    raise ValueError("cannot fix the phase of a null vector")


def _clifford_matrix_uncached(sympl_bytes: bytes, sign_bytes: bytes, n: int) -> np.ndarray:
    sympl = np.frombuffer(sympl_bytes, dtype=np.uint8).reshape(2 * n, 2 * n)
    signs = np.frombuffer(sign_bytes, dtype=np.uint8)
    d = 2**n
    x_images = [_pauli_matrix(sympl[j, :n], sympl[j, n:], signs[j]) for j in range(n)]
    z_images = [_pauli_matrix(sympl[n + j, :n], sympl[n + j, n:], signs[n + j])
                for j in range(n)]
    # U|0..0> spans the +1 eigenspace of the Z images:
    proj = np.eye(d, dtype=complex)
    for zi in z_images:
        proj = proj @ (np.eye(d) + zi) / 2
    col = int(np.argmax(np.linalg.norm(proj, axis=0)))
    psi0 = proj[:, col]
    nrm = np.linalg.norm(psi0)
    if nrm < 1e-8:
        raise ValueError("tableau does not define a stabilizer state")
    psi0 = _canonical_phase(psi0 / nrm)
    u = np.zeros((d, d), dtype=complex)
    u[:, 0] = psi0
    for m in range(1, d):
        v = psi0
        for j in range(n):
            if (m >> (n - 1 - j)) & 1:
                v = x_images[j] @ v
        u[:, m] = v
    return u


_MATRIX_CACHE: dict[bytes, np.ndarray] = {}


def _clifford_matrix(frame: CliffordFrame) -> np.ndarray:
    key = frame.key()
    u = _MATRIX_CACHE.get(key)
    if u is None:
        if len(_MATRIX_CACHE) > 20000:
            _MATRIX_CACHE.clear()
        u = _clifford_matrix_uncached(frame.symplectic.tobytes(),
                                      frame.signs.tobytes(), frame.n_qubits)
        u.setflags(write=False)
        _MATRIX_CACHE[key] = u
    return u


@lru_cache(maxsize=64)
def _pauli_frame_matrix(axes: str) -> np.ndarray:
    u = tensor(*(AXIS_FRAME[a] for a in axes))
    u.setflags(write=False)
    return u


def to_matrix(frame: Frame) -> np.ndarray:
    """Dense unitary of a frame (canonical phase for tableau frames)."""
    if isinstance(frame, PauliFrame):
        return _pauli_frame_matrix(frame.axes)
    if isinstance(frame, CliffordFrame):
        return _clifford_matrix(frame)
    raise TypeError(f"not a frame: {frame!r}")


def sample_frame(n: int, ensemble: str, rng: np.random.Generator) -> Frame:
    if ensemble == PAULI_ENSEMBLE:
        return sample_pauli_frame(n, rng)
    if ensemble == CLIFFORD_ENSEMBLE:
        return sample_clifford(n, rng)
    raise ValueError(f"unknown ensemble {ensemble!r}")


def sample_haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    d = 2**n
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    lam = np.diag(r).copy()
    lam /= np.abs(lam)
    return q * lam


def measure_computational(rho: np.ndarray, rng: np.random.Generator) -> str:
    """Sample a bit string from the diagonal of a state in the logical basis."""
    rho = np.asarray(rho)
    d = rho.shape[0]
    n = d.bit_length() - 1
    p = np.real(np.diag(rho)).copy()
    if p.min() < -1e-6:
        raise ValueError(f"diagonal entry {p.min()} is too negative to clamp")
    p[p < 0] = 0.0
    s = p.sum()
    if abs(s - 1.0) > 1e-6:
        raise ValueError(f"diagonal mass {s} deviates from 1")
    p /= s
    outcome = int(rng.choice(d, p=p))
    return format(outcome, f"0{n}b")


def measurement_probabilities(rho: np.ndarray, frame: Frame) -> np.ndarray:
    """Outcome distribution for measuring rho in the given frame."""
    u = to_matrix(frame)
    return np.real(np.einsum("bi,ij,bj->b", u, np.asarray(rho, dtype=complex),
                             u.conj()))


def prepared_state_vector(frame: Frame, bits: str) -> np.ndarray:
    """State U^dag |b> prepared for an input frame and bit string.

    With this convention the prepared state coincides with the projector
    family measured by the frame, e.g. bit 0 on a Pauli axis prepares the
    +1 eigenstate of that axis.
    """
    u = to_matrix(frame)
    return u[int(bits, 2), :].conj()
