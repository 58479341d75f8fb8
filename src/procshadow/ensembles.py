"""Measurement-frame ensembles: random Pauli bases and uniform Cliffords.

A *frame* is the unitary that maps the measured basis onto the logical
basis: measuring a state rho in the frame U means sampling a bit string
b with probability <b|U rho U^dag|b>, i.e. the measurement effects are
U^dag|b><b|U.  The sign convention is fixed so that outcome bit 0 tags
the +1 eigenstate of the measured axis.

Clifford frames are stored as binary symplectic tableaus: row j is the
(x|z) image of X_j under conjugation, row n+j the image of Z_j, and
``signs`` holds one sign bit per row.  A tableau determines the unitary
up to global phase; its matrix has a canonical phase (first nonvanishing
amplitude of U|0...0> is real positive).  Uniform sampling follows the
canonical symplectic-matrix construction of Koenig and Smolin, combined
with uniform sign bits.

Frames are sampled and turned into unitaries as stacks.  A stack of m
Pauli frames is an (m, n) array of axis indices (X, Y, Z = 0, 1, 2); a
stack of Clifford frames is an (m, 2n, 2n+1) uint8 array, each tableau
with its sign bits as a last column (the (x|z|r) layout of Aaronson and
Gottesman).  ``sample_frames`` draws a stack with one generator call per
Koenig-Smolin level, and ``frame_unitaries`` builds its unitaries: Pauli
frames as Kronecker products of the 2x2 axis frames, Clifford frames
from the Paulis of their tableau, each applied as a signed permutation
of basis indices.  ``PauliFrame`` and ``CliffordFrame`` objects are
the per-record views of one row of such a stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import ID2

PAULI_ENSEMBLE = "pauli"
CLIFFORD_ENSEMBLE = "clifford"
AXES = "XYZ"

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S_DAG = np.array([[1, 0], [0, -1j]], dtype=complex)
# U such that U^dag |b><b| U runs over the +-1 eigenprojectors of the axis,
# with b=0 mapped to the +1 eigenstate.
AXIS_FRAME = {"X": _HADAMARD, "Y": _HADAMARD @ _S_DAG, "Z": ID2}


@dataclass(frozen=True, slots=True)
class PauliFrame:
    """Product of single-qubit basis rotations, one axis per qubit."""

    axes: str

    def __post_init__(self):
        if not self.axes or any(c not in AXES for c in self.axes):
            raise ValueError(f"invalid Pauli axes {self.axes!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.axes)


@dataclass(frozen=True, eq=False, slots=True)
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


# ---------------------------------------------------------------------------
# Koenig-Smolin canonical symplectic matrices, for a stack of m at once.
#
# These helpers work in the interleaved bit convention (x_1 z_1 x_2 z_2 ...);
# the public tableau uses (x_1..x_n | z_1..z_n) blocks and is produced by a
# final permutation.  Vectors are uint8 bit arrays with a leading axis of m.
# ---------------------------------------------------------------------------

def _transvect(k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Z_k v = v + <k, v> k (mod 2) for each of m transvection vectors k
    (m, nn), on the rows of v (m, r, nn); <., .> is the symplectic form."""
    swapped = k.reshape(len(k), k.shape[1] // 2, 2)[:, :, ::-1].reshape(k.shape)
    return v ^ ((v @ swapped[:, :, None]) & 1) * k[:, None, :]


def _bits(values: np.ndarray, width: int) -> np.ndarray:
    """(m, width) uint8 bits of m integers, least significant first."""
    return ((values[:, None] >> np.arange(width)) & 1).astype(np.uint8)


def _transvections_from_e1(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t0, t1) with Z_t1 Z_t0 e1 = f, for each nonzero row f (m, nn).

    Koenig and Smolin's FINDTRANSVECTION with x = e1, its branches
    evaluated as masks: f = e1 needs none; <e1, f> = f[1] = 1 needs one,
    f - e1; otherwise a vector z with <e1, z> = <z, f> = 1 gives
    t0 = e1 + z, t1 = f + z.  z is (1, 1) on qubit 0 when f[0] = 1; else
    it is (0, 1) on qubit 0 and (1 - a, a) on the first qubit whose pair
    (a, b) of f is nonzero.
    """
    nn = f.shape[1]
    e1 = np.zeros(nn, dtype=np.uint8)
    e1[0] = 1
    z = np.zeros_like(f)
    z[:, 0], z[:, 1] = f[:, 0], 1
    if nn > 2:
        rows = np.flatnonzero(f[:, 0] == 0)
        q = 1 + np.argmax(f[rows, 2::2] | f[rows, 3::2], axis=1)
        a = f[rows, 2 * q]
        z[rows, 2 * q], z[rows, 2 * q + 1] = 1 - a, a
    t0, t1 = e1 ^ z, f ^ z
    direct = f[:, 1] == 1
    t0[direct], t1[direct] = f[direct] ^ e1, 0
    same = (f == e1).all(axis=1)
    t0[same], t1[same] = 0, 0
    return t0, t1


def _symplectic_step(k: np.ndarray, bits_int: np.ndarray,
                     inner_g: np.ndarray | None) -> np.ndarray:
    """One level of the canonical construction: extend (m, 2j-2, 2j-2) to
    (m, 2j, 2j), for level choices k in [1, 4^j) and bits_int in
    [0, 2^(2j-1))."""
    m = len(k)
    nn = 2 if inner_g is None else inner_g.shape[1] + 2
    f1 = _bits(k, nn)
    t0, t1 = _transvections_from_e1(f1)
    bits = _bits(bits_int, nn - 1)
    eprime = np.zeros((m, 1, nn), dtype=np.uint8)
    eprime[:, 0, 0] = 1
    eprime[:, 0, 2:] = bits[:, 1:]
    h0 = _transvect(t1, _transvect(t0, eprime))[:, 0]
    f1 *= 1 - bits[:, :1]
    g = np.broadcast_to(np.eye(nn, dtype=np.uint8), (m, nn, nn)).copy()
    if inner_g is not None:
        g[:, 2:, 2:] = inner_g
    for t in (t0, t1, h0, f1):
        g = _transvect(t, g)
    return g


def _symplectic_from_levels(levels) -> np.ndarray:
    """Canonical symplectic matrices, (m, 2n, 2n) in (x | z) blocks, from
    per-level (k, bits) arrays; ``levels`` lists one pair per system size
    1..n, innermost first."""
    g = None
    for k, bits_int in levels:
        g = _symplectic_step(k, bits_int, g)
    n = g.shape[1] // 2
    inv = np.concatenate((np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2)))
    return g[:, inv[:, None], inv[None, :]]


def is_symplectic(s: np.ndarray) -> np.ndarray:
    """Whether each binary (2n, 2n) matrix of a stack satisfies
    S Omega S^T = Omega (mod 2), Omega = [[0, I], [I, 0]]."""
    n = s.shape[-1] // 2
    s = np.asarray(s, dtype=np.int64)
    s_omega = np.concatenate((s[..., n:], s[..., :n]), axis=-1)
    omega = np.eye(2 * n, k=n, dtype=np.int64) + np.eye(2 * n, k=-n, dtype=np.int64)
    return ((s_omega @ s.swapaxes(-1, -2)) % 2 == omega).all(axis=(-2, -1))


def sample_frames(n: int, ensemble: str, m: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of m uniformly random frames of one ensemble.

    Pauli frames take one draw of (m, n) axes; Clifford frames one draw
    of m level choices per Koenig-Smolin level, then (m, 2n) sign bits.
    """
    if ensemble == PAULI_ENSEMBLE:
        return rng.integers(0, 3, size=(m, n))
    if ensemble != CLIFFORD_ENSEMBLE:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    levels = []
    for j in range(1, n + 1):
        k, bits = np.divmod(rng.integers(0, (4**j - 1) * 2 ** (2 * j - 1), size=m),
                            2 ** (2 * j - 1))
        levels.append((k + 1, bits))
    tableaus = np.empty((m, 2 * n, 2 * n + 1), dtype=np.uint8)
    tableaus[:, :, :-1] = _symplectic_from_levels(levels)
    tableaus[:, :, -1] = rng.integers(0, 2, size=(m, 2 * n))
    return tableaus


def enumerate_clifford_group() -> np.ndarray:
    """Tableau stack of all one-qubit Clifford frames modulo phase (24
    elements, each symplectic part with its four sign pairs)."""
    tableaus = np.empty((24, 2, 3), dtype=np.uint8)
    tableaus[:, :, :-1] = np.repeat(
        _symplectic_from_levels([(np.repeat([1, 2, 3], 2), np.tile([0, 1], 3))]), 4, axis=0)
    tableaus[:, :, -1] = np.tile(_bits(np.arange(4), 2), (6, 1))
    return tableaus


# ---------------------------------------------------------------------------
# Frame stack -> dense unitaries.
# ---------------------------------------------------------------------------

def _pauli_unitaries(axes: np.ndarray) -> np.ndarray:
    """Kronecker products of the axis frames, qubit 0 first."""
    mats = np.array([AXIS_FRAME[a] for a in AXES])
    out = np.ones((len(axes), 1, 1), dtype=complex)
    for q in range(axes.shape[1]):
        d = 2 * out.shape[1]
        factor = mats[axes[:, q]]
        out = (out[:, :, None, :, None] * factor[:, None, :, None, :]).reshape(-1, d, d)
    return out


def _clifford_unitaries(tableaus: np.ndarray) -> np.ndarray:
    """Canonical-phase unitaries of a tableau stack.

    The Pauli of tableau row r, (-1)^sign prod_q i^{x_q z_q} X^x_q Z^z_q,
    maps basis index c ^ x to c with the phase
    (-1)^sign (-i)^{|x & z|} (-1)^{z . c}, so each one acts on a stack as
    a gather and a multiplication by one of 1, i, -1, -i, which is exact.
    U|0> spans the joint +1 eigenspace of the Z images, found as the
    largest column of the product of their projectors; U|b> is then the
    product of the X images of b's bits applied to U|0>.
    """
    m, rows, _ = tableaus.shape
    n = rows // 2
    d = 2**n
    t = tableaus.astype(np.int64)
    weights = 1 << np.arange(n - 1, -1, -1)  # qubit 0 is the most significant
    x, z = t[:, :, :n] @ weights, t[:, :, n:2 * n] @ weights
    index_bits = (np.arange(d)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    exponent = (2 * t[:, :, -1, None]
                + 3 * (t[:, :, :n] * t[:, :, n:2 * n]).sum(axis=2)[:, :, None]
                + 2 * (t[:, :, n:2 * n] @ index_bits.T))
    phase = np.array([1, 1j, -1, -1j])[exponent % 4]  # (m, 2n, d)
    # row c of Pauli r applied to matrix s comes from row source[s, r, c] of
    # the stack flattened to (m d) rows
    source = (np.arange(d) ^ x[:, :, None]) + d * np.arange(m)[:, None, None]

    def apply(row: int, v: np.ndarray) -> np.ndarray:
        flat = np.ascontiguousarray(v).reshape(m * d, -1)
        gathered = np.take(flat, source[:, row].reshape(-1), axis=0)
        return gathered.reshape(v.shape) * phase[:, row, :, None]

    proj = np.broadcast_to(np.eye(d, dtype=complex), (m, d, d)).copy()
    for j in range(n):
        proj = (proj + apply(n + j, proj)) / 2
    norms = np.linalg.norm(proj, axis=1)
    col = np.argmax(norms, axis=1)
    nrm = norms[np.arange(m), col]
    if np.any(nrm < 1e-8):
        raise ValueError("tableau does not define a stabilizer state")
    psi0 = proj[np.arange(m), :, col] / nrm[:, None]
    first = psi0[np.arange(m), np.argmax(np.abs(psi0) > 1e-8, axis=1)]
    u = np.empty((m, d, d), dtype=complex)
    u[:, :, 0] = psi0 * (np.abs(first) / first)[:, None]
    for q in range(n - 1, -1, -1):
        w = 1 << (n - 1 - q)
        u[:, :, w:2 * w] = apply(q, u[:, :, :w])
    return u


def frame_unitaries(ensemble: str, frames: np.ndarray) -> np.ndarray:
    """(m, d, d) dense unitaries of a frame stack of one ensemble."""
    if ensemble == PAULI_ENSEMBLE:
        return _pauli_unitaries(frames)
    if ensemble == CLIFFORD_ENSEMBLE:
        return _clifford_unitaries(frames)
    raise ValueError(f"unknown ensemble {ensemble!r}")


def sample_haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    d = 2**n
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    lam = np.diag(r).copy()
    lam /= np.abs(lam)
    return q * lam
