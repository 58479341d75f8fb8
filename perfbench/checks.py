"""Correctness checks for benchmark outputs.

Every check returns a list of failure messages; an empty list passes.
The runner counts a job with any failure as failed, so a wrong number
is reported through ``failed`` instead of stopping the run.

Statistical bounds.  Each estimator checked here is a mean of i.i.d.
single-record terms X (or a two-sample mean over pairs), so its error
has a root-mean-square size ``rms`` that the functions below bound from
above from the snapshot tables alone:

* a mean of m terms has E||mean - E X||_F^2 <= E||X||_F^2 / m, and the
  operator norm is at most the Frobenius norm;
* every Pauli snapshot has ||tau||_F^2 = 5^n and every Clifford snapshot
  ||(d+1)P - I||_F^2 = d^2 + d - 1, whatever the channel;
* input labels are uniform (Pauli keys) or a state 2-design (Clifford
  frames), so second moments over the input side are exact sums.

An estimate passes when its error is at most ``K_SIGMA`` times that rms
bound.  The bounds are upper bounds, so the true tail probability is
below the Chebyshev value 1/K_SIGMA^2; the README lists the largest
error/bound ratio seen over every seed tried.

Differential checks compare the package's estimators with the dense
per-record reference built from ``materialize_snapshot`` to ``DIFF_TOL``.
"""

from __future__ import annotations

import math

import numpy as np

K_SIGMA = 4.0
DIFF_TOL = 1e-10
TRACE_TOL = 1e-10

# Single-qubit measured projectors by key 2*axis + bit (axes X, Y, Z).
_PROJ1 = 0.5 * np.array([
    [[1, 1], [1, 1]], [[1, -1], [-1, 1]],
    [[1, -1j], [1j, 1]], [[1, 1j], [-1j, 1]],
    [[2, 0], [0, 0]], [[0, 0], [0, 2]],
], dtype=complex)
_TAU1 = 3.0 * _PROJ1 - np.eye(2)


def tau_table(n: int) -> np.ndarray:
    """All 6^n Pauli snapshot matrices by base-6 key (qubit 0 first)."""
    out = np.ones((1, 1, 1), dtype=complex)
    for _ in range(n):
        out = np.einsum("aij,bkl->abikjl", out, _TAU1).reshape(
            out.shape[0] * 6, out.shape[1] * 2, out.shape[2] * 2)
    return out


def snapshot_frob2(ensemble: str, n: int) -> float:
    """||snapshot||_F^2, the same for every snapshot of the ensemble."""
    d = 2**n
    return 5.0**n if ensemble == "pauli" else float(d * d + d - 1)


def input_second_moment(ensemble: str, op: np.ndarray) -> float:
    """E_in[Tr(snapshot_in op)^2] over the uniform input labels.

    Pauli keys are uniform over 6^n; prepared Clifford inputs are a
    state 2-design, for which the moment has a closed form in Tr(op),
    Tr(op^2) and |Tr op|^2 (valid for Hermitian op).
    """
    n = int(round(math.log2(op.shape[0])))
    d = 2**n
    if ensemble == "pauli":
        v = np.einsum("kij,ji->k", tau_table(n), op)
        return float(np.mean(np.abs(v) ** 2))
    tr = np.trace(op)
    tr2 = np.real(np.trace(op @ op.conj().T))
    # E|<psi|op|psi>|^2 = (|Tr op|^2 + Tr op op^dag) / (d(d+1)) for a 2-design
    e_p2 = (abs(tr) ** 2 + tr2) / (d * (d + 1))
    e_p = tr / d
    return float((d + 1) ** 2 * e_p2 - 2 * (d + 1) * np.real(e_p * np.conj(tr))
                 + abs(tr) ** 2)


def sup_pauli_input_moment(n: int) -> float:
    """max over density matrices rho of E_key[Tr(tau_key rho)^2]."""
    m1 = np.einsum("aij,akl->ikjl", _TAU1, _TAU1).reshape(4, 4) / 6.0
    return float(np.linalg.norm(m1, 2)) ** n


def choi_rms(n: int, m: int, ens_in: str = "pauli",
             ens_out: str = "pauli") -> float:
    """rms bound on the operator-norm error of the unnormalized Choi mean."""
    d = 2**n
    return d * math.sqrt(snapshot_frob2(ens_in, n) * snapshot_frob2(ens_out, n) / m)


def output_state_rms(n: int, m: int, in_moment: float,
                     ens_out: str = "pauli") -> float:
    """rms bound on the error of the mean of d Tr[s_in rho] s_out."""
    d = 2**n
    return d * math.sqrt(in_moment * snapshot_frob2(ens_out, n) / m)


def functional_rms(n: int, m: int, in_moment: float, out_max2: float) -> float:
    """rms bound on the error of a mean of d Tr[s_in rho] Tr[s_out O]."""
    return 2**n * math.sqrt(in_moment * out_max2 / m)


def max_pauli_output_value2(obs: np.ndarray) -> float:
    """max over Pauli snapshot keys of |Tr(tau obs)|^2."""
    n = int(round(math.log2(obs.shape[0])))
    return float(np.max(np.abs(np.einsum("kij,ji->k", tau_table(n), obs)) ** 2))


def compose_functional_rms(n: int, m: int, in_moment: float,
                           out_max2: float) -> float:
    """rms bound on d Tr[compose-mean (A^T (x) B)] as a two-sample mean.

    A pair term is d^2 W[b, c] Tr[tau_a A] Tr[tau_e B]; with the later
    input key c uniform, E[W[b, c]^2 | b] = 7^n, and the two-sample
    variance is at most E[h^2] (2/m + 1/m^2).
    """
    d = 2**n
    e_h2 = d**4 * 7.0**n * in_moment * out_max2
    return math.sqrt(e_h2 * (2.0 / m + 1.0 / m**2))


def purity_rms(n: int, m: int) -> float:
    """rms bound on the distinct-pair purity U-statistic (scaled by 4^n).

    The kernel h = 4^n Tr[zeta zeta'] has |E_r' h| <= 16^n and
    |h| <= 100^n, and a degree-2 U-statistic has variance at most
    4 sigma_1^2 / m + 2 sigma_2^2 / (m (m - 1)).
    """
    return math.sqrt(4.0 * 256.0**n / m + 2.0 * 1e4**n / (m * (m - 1)))


def within(label: str, err: float, rms: float, k: float = K_SIGMA) -> list:
    if not np.isfinite(err) or err > k * rms:
        return [f"{label}: error {err:.4g} exceeds {k:g} x rms bound {rms:.4g}"]
    return []


def close(label: str, got: np.ndarray, ref: np.ndarray,
          tol: float = DIFF_TOL) -> list:
    got, ref = np.asarray(got), np.asarray(ref)
    if got.shape != ref.shape:
        return [f"{label}: shape {got.shape} != reference {ref.shape}"]
    dev = float(np.max(np.abs(got - ref))) if got.size else 0.0
    if not dev <= tol:
        return [f"{label}: deviates from dense reference by {dev:.3g}"]
    return []


def trace_one_hermitian(label: str, mat: np.ndarray, tol: float = TRACE_TOL) -> list:
    mat = np.asarray(mat)
    out = []
    if not abs(np.trace(mat) - 1.0) <= tol:
        out.append(f"{label}: trace {np.trace(mat):.12g} is not 1")
    if not np.max(np.abs(mat - mat.conj().T)) <= tol:
        out.append(f"{label}: not Hermitian")
    return out


def op_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


# ---------------------------------------------------------------------------
# Dense per-record references, built from materialize_snapshot.
# ---------------------------------------------------------------------------

def snapshot_stacks(records, materialize_snapshot):
    """(input, output) dense snapshot stacks of a record sequence."""
    a = np.array([materialize_snapshot(r.in_snapshot) for r in records])
    b = np.array([materialize_snapshot(r.out_snapshot) for r in records])
    return a, b


def dense_choi_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mean of kron(a_r^T, b_r): the normalized Choi estimate."""
    m, d, _ = a.shape
    at = a.transpose(0, 2, 1).reshape(m, d * d)
    acc = (at.T @ b.reshape(m, d * d)).reshape(d, d, d, d)
    return acc.transpose(0, 2, 1, 3).reshape(d * d, d * d) / m


def dense_output_values(a: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Tr[s_in rho] per record."""
    return np.real(np.einsum("rij,ji->r", a, rho))


def dense_output_state(a: np.ndarray, b: np.ndarray, rho: np.ndarray) -> np.ndarray:
    d = a.shape[1]
    w = dense_output_values(a, rho)
    return d * np.einsum("r,rij->ij", w, b) / len(w)


def dense_functional_values(a, b, rho, obs) -> np.ndarray:
    d = a.shape[1]
    return d * np.real(np.einsum("rij,ji->r", a, rho)
                       * np.einsum("rij,ji->r", b, obs))


def dense_apply(a: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Mean over (record, snapshot) pairs of d Tr[s_in sigma] s_out."""
    d = a.shape[1]
    w = np.real(np.einsum("rij,sji->rs", a, s)).sum(axis=1)
    return d * np.einsum("r,rij->ij", w, b) / (a.shape[0] * s.shape[0])


def dense_compose(ax, bx, ay, by) -> np.ndarray:
    """Mean over record pairs of d Tr[b_x a_y] kron(a_x^T, b_y)."""
    d = ax.shape[1]
    w = np.real(np.einsum("xij,yji->xy", bx, ay))
    right = (w @ by.reshape(len(by), d * d)).reshape(len(bx), d, d)
    return d * dense_choi_mean(ax, right) / len(by)
