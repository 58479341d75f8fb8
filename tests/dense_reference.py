"""Dense references for the estimator tests.

Each snapshot is materialized as a 2^n x 2^n matrix, so these share no
aggregation code with the Pauli-coefficient estimators they check.
"""

import numpy as np

from procshadow.ensembles import AXES, PauliFrame, frame_unitaries
from procshadow.qcore import Channel, ChoiMatrix, choi_of_channel, n_qubits_of
from procshadow.state_shadows import (TAU1, _PROJ1_PAULI, ShadowEstimate, StateSnapshot,
                                      _pauli_vector, materialize_snapshot)


def frame_unitary(frame):
    """Dense unitary of one ``PauliFrame`` or ``CliffordFrame``, built by
    ``frame_unitaries`` on a stack of that one frame."""
    if isinstance(frame, PauliFrame):
        return frame_unitaries("pauli", np.array([[AXES.index(a) for a in frame.axes]]))[0]
    return frame_unitaries("clifford", np.column_stack((frame.symplectic, frame.signs))[None])[0]


def born_probabilities(u, rho):
    """<b|U rho U^dag|b> for every outcome b: rho measured in the frame U."""
    return np.real(np.einsum("bi,ij,bj->b", u, np.asarray(rho, dtype=complex), u.conj()))


def exact_pauli_snapshot_distribution(rho: np.ndarray) -> np.ndarray:
    """Exact probability of each snapshot key under random-Pauli acquisition.

    Contracts one qubit at a time: to the 4^n real Pauli coefficients
    Tr[sigma_s rho], then through ``_PROJ1_PAULI``, one slice per key of
    the last qubit so that no temporary comes near the table's size.
    """
    n = n_qubits_of(rho)
    coeffs = np.real(_pauli_vector(np.asarray(rho)[None], n)).reshape(-1, 4)
    probs = np.empty((6 ** (n - 1), 6))
    for k in range(6):
        t = coeffs @ _PROJ1_PAULI[k]
        for _ in range(n - 1):
            t = t.reshape(4, -1).T @ _PROJ1_PAULI.T
        probs[:, k] = t.reshape(-1)
    np.clip(probs, 0.0, None, out=probs)
    return np.divide(probs, 3**n, out=probs).reshape(-1)


def check_table_draws(draws, p, u):
    """Assert that ``draws`` are the inverse-CDF draws of the uniforms ``u``
    over the table ``p`` as ``rng.choice(p.size, p=p / p.sum())`` makes
    them (the running sum of p / p.sum() over its last entry, searched
    from the right), up to the rounding of that CDF.

    The running sum of p.size terms may place a step up to p.size ulps
    away from the exact one, so a draw whose uniform lies that close to a
    step may differ: then it must be a label of positive probability
    whose own interval holds the uniform, to that rounding.
    """
    cdf = np.cumsum(p / p.sum())
    cdf /= cdf[-1]
    moved = np.flatnonzero(draws != cdf.searchsorted(u, side="right"))
    k, tol = draws[moved], p.size * np.finfo(float).eps
    assert np.all(p[k] > 0), "a label of probability zero was drawn"
    assert np.all((np.r_[0.0, cdf][k] - tol <= u[moved]) & (u[moved] < cdf[k] + tol)), \
        "a draw differs from rng.choice beyond the rounding of the CDF"


def exact_pauli_record_distribution(ch: Channel) -> np.ndarray:
    """Joint probability of raw (input, output) keys for Pauli/Pauli rounds.

    Entry [kin, kout] is Tr[P_kout E(P_kin)] / 18^n: preparation weight
    1/6^n, output-frame weight 1/3^n, Born probability.  As Tr[Q E(P)] =
    Tr[(P^T (x) Q) J] for the Choi matrix J, this is the Pauli snapshot
    table of the state J / 2^n with its input register transposed.
    """
    n, d = ch.n_qubits, ch.dim
    j = choi_of_channel(ch).matrix.reshape(d, d, d, d).transpose(2, 1, 0, 3)
    table = exact_pauli_snapshot_distribution(j.reshape(d * d, d * d) / d)
    return table.reshape(6**n, 6**n)


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
