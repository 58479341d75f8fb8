"""Dense references for the estimator tests.

Each snapshot is materialized as a 2^n x 2^n matrix, so these share no
aggregation code with the Pauli-coefficient estimators they check.
"""

import numpy as np

from procshadow.ensembles import AXES, PauliFrame, frame_unitaries
from procshadow.qcore import ChoiMatrix
from procshadow.state_shadows import TAU1, ShadowEstimate, StateSnapshot, materialize_snapshot


def frame_unitary(frame):
    """Dense unitary of one ``PauliFrame`` or ``CliffordFrame``, built by
    ``frame_unitaries`` on a stack of that one frame."""
    if isinstance(frame, PauliFrame):
        return frame_unitaries("pauli", np.array([[AXES.index(a) for a in frame.axes]]))[0]
    return frame_unitaries("clifford", np.column_stack((frame.symplectic, frame.signs))[None])[0]


def born_probabilities(u, rho):
    """<b|U rho U^dag|b> for every outcome b: rho measured in the frame U."""
    return np.real(np.einsum("bi,ij,bj->b", u, np.asarray(rho, dtype=complex), u.conj()))


def materialize_choi_shadow(r):
    """Dense trace-1 Choi snapshot of one record:
    transpose(snapshot_in) (x) snapshot_out."""
    return np.kron(materialize_snapshot(r.in_snapshot).T, materialize_snapshot(r.out_snapshot))


def key_matrices(keys, n):
    """Pauli snapshots (``TAU1`` tensor products) of the given base-6 keys,
    built digit by digit (qubit 0 first)."""
    keys = np.asarray(keys, dtype=np.int64)
    out = np.ones((keys.size, 1, 1), dtype=complex)
    for q in range(n):
        digit = (keys // 6 ** (n - 1 - q)) % 6
        d = 2 * out.shape[1]
        out = np.einsum("kij,kab->kiajb", out, TAU1[digit]).reshape(keys.size, d, d)
    return out


def choi_mean_from_histogram(hist, n):
    """Weighted mean of Choi snapshots from a raw (kin, kout) histogram:
    sum_uv hist[u, v] transpose(tau_u) (x) tau_v / sum(hist)."""
    snaps = key_matrices(np.arange(6**n), n)
    d = 2**n
    c = (hist @ snaps.reshape(6**n, -1)).reshape(snaps.shape)
    out = snaps.transpose(0, 2, 1).reshape(6**n, d * d).T @ c.reshape(6**n, d * d)
    return out.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d) / hist.sum()


def side_matrices(side):
    """``(index, stack)`` for one side of a shadow: ``stack[index[i]]`` is the
    dense snapshot of label i, materialized once per distinct label."""
    uniq, index = np.unique(side.labels, return_inverse=True)
    decoded = ShadowEstimate(uniq, side.n_qubits, side.frames).views()
    d = 2**side.n_qubits
    stack = [materialize_snapshot(StateSnapshot(f, b)) for f, b in decoded]
    return index, np.array(stack).reshape(len(stack), d, d)


def channel_of_choi(choi: ChoiMatrix, rho):
    """The channel output Tr_A[(rho^T (x) I) eta] of a Choi matrix: the
    Choi isomorphism that the estimators are checked against."""
    d = choi.dim
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d, d):
        raise ValueError(f"input shape {rho.shape} does not match Choi on "
                         f"{choi.n_qubits} qubits")
    tr = float(np.trace(choi.matrix).real)
    expected = 1.0 if choi.normalized else float(d)
    if abs(tr - expected) > 1e-6:
        raise ValueError(f"Choi trace {tr} inconsistent with normalized="
                         f"{choi.normalized} (expected {expected})")
    return np.einsum("ipjq,ij->pq", choi.unnormalized().reshape(d, d, d, d), rho)


def random_hermitian(n, rng):
    """(G + G^dag) / 2 for a complex Gaussian matrix G on n qubits."""
    d = 2**n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def inverse_map_pauli(a):
    """Single-qubit inverse measurement map 3 A - Tr(A) I."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError("inverse_map_pauli acts on single-qubit operators")
    return 3.0 * a - np.trace(a) * np.eye(2)
