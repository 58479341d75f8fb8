"""Classical shadows of quantum channels.

One acquisition round works on both sides of the channel: draw a
uniform input bit string, prepare the corresponding eigenstate of a
random input frame, send it through the channel, rotate by a random
output frame and measure.  The record of the four draws materializes to
a Choi-state snapshot

    zeta = transpose(snapshot_in) (x) snapshot_out

whose expectation is the *normalized* (trace-1) Choi state of the
channel; functionals of the unnormalized Choi matrix carry an explicit
2^n factor, applied inside the estimators.

A ``ProcessShadow`` is two aligned state shadows, ``side_in`` and
``side_out`` (see ``state_shadows.ShadowEstimate``); ``records`` are
views built on demand.  Each estimator has one code path for every
frame ensemble, on the Pauli terms that each side expands once and keeps:
a functional is a gather per side, and ``_choi_sum``, the one reader of the
terms' layout outside ``state_shadows``, maps per-record weights to the 16^n
Pauli coefficients of the weighted Choi sum, behind both the sample mean
and the purity U-statistic.  Two-shadow estimators contract sample means.

Acquisition has two paths.  Pauli/Pauli rounds up to ``_MAX_TABLE_QUBITS``
qubits draw their keys from the Pauli coefficients of the input-transposed
Choi state (``state_shadows._draw_pauli_keys``).  Every other case is one batched
simulation, ``_simulate_records``: it draws the input bits and a stack
of input frames, pushes the prepared vectors through the Kraus
operators as one contraction, and measures the results in a stack of
output frames with the state-shadow kernel ``state_shadows._simulate``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import PAULI_ENSEMBLE, Frame, frame_unitaries, sample_frames
from .qcore import Channel, ChoiMatrix, choi_of_channel
from .state_shadows import (ShadowEstimate, StateSnapshot, _count, _draw_pauli_keys,
                            _pauli_matrix, _pauli_vector, _side_values, _simulate,
                            _snapshot_sum, _unchecked, _y_sign, median_of_means)

# largest register whose Pauli/Pauli records come from the 16^n Choi coefficients
_MAX_TABLE_QUBITS = 4


@dataclass(frozen=True, slots=True)
class ShadowRecord:
    """One acquisition round: input preparation and output measurement."""

    b_in: str
    u_in: Frame
    u_out: Frame
    b_out: str

    def __post_init__(self):
        n = self.u_in.n_qubits
        if self.u_out.n_qubits != n:
            raise ValueError("input and output frames act on different sizes")
        for bits in (self.b_in, self.b_out):
            if not isinstance(bits, str):
                raise ValueError(f"bit string {bits!r} is not a str")
            if len(bits) != n or bits.strip("01"):
                raise ValueError(f"bit string {bits!r} does not match {n} qubits")

    @property
    def n_qubits(self) -> int:
        return self.u_in.n_qubits

    @property
    def in_snapshot(self) -> StateSnapshot:
        return StateSnapshot(self.u_in, self.b_in)

    @property
    def out_snapshot(self) -> StateSnapshot:
        return StateSnapshot(self.u_out, self.b_out)


class ProcessShadow:
    """A collection of i.i.d. acquisition records for one channel."""

    def __init__(self, records, n_qubits: int | None = None):
        records = tuple(records)
        if not records and n_qubits is None:
            raise ValueError("empty shadow needs an explicit qubit count")
        n = n_qubits if n_qubits is not None else records[0].n_qubits
        for r in records:
            if r.n_qubits != n:
                raise ValueError("records have mismatched qubit counts")
        self.n_qubits = n
        self.side_in = ShadowEstimate.encode([r.u_in for r in records],
                                             [r.b_in for r in records], n)
        self.side_out = ShadowEstimate.encode([r.u_out for r in records],
                                              [r.b_out for r in records], n)

    @classmethod
    def _of(cls, side_in: ShadowEstimate, side_out: ShadowEstimate) -> "ProcessShadow":
        ps = cls.__new__(cls)
        ps.n_qubits, ps.side_in, ps.side_out = side_in.n_qubits, side_in, side_out
        return ps

    def __len__(self):
        return len(self.side_in)

    def take(self, m: int) -> "ProcessShadow":
        """The first m records (records are i.i.d.)."""
        return ProcessShadow._of(self.side_in.take(m), self.side_out.take(m))

    @property
    def records(self) -> tuple:
        """Views of the labels, which were valid when encoded: no checks run."""
        pairs = zip(self.side_in.views(), self.side_out.views())
        return tuple(_unchecked(ShadowRecord, [(b_in, u_in, u_out, b_out)
                                               for (u_in, b_in), (u_out, b_out) in pairs]))


def _simulate_records(ch: Channel, m: int, ensemble_in: str, ensemble_out: str,
                      rng: np.random.Generator) -> ProcessShadow:
    """m simulated acquisition rounds, in batches.

    Draws the m input bit strings, then the input frames, then hands the
    channel outputs of the prepared states U_in^dag|b> to the state
    kernel, which draws the output frames and outcomes.
    """
    n, d = ch.n_qubits, ch.dim
    bits = rng.integers(0, d, size=m)
    frames_in = sample_frames(n, ensemble_in, m, rng)
    rank = len(ch.kraus)
    stacked = np.array(ch.kraus).reshape(rank * d, d).T  # psi @ stacked = (K_k psi)_k

    def pushed(sl):
        u = frame_unitaries(ensemble_in, frames_in[sl])
        psi = u[np.arange(len(u)), bits[sl]].conj()
        return (psi @ stacked).reshape(len(u), rank, d)

    frames_out, outcomes = _simulate(n, m, ensemble_out, rng, pushed, rank)
    return ProcessShadow._of(ShadowEstimate.of_stack(ensemble_in, frames_in, bits),
                             ShadowEstimate.of_stack(ensemble_out, frames_out, outcomes))


def acquire_process_shadow(ch: Channel, m: int, ensemble_in: str, ensemble_out: str,
                           rng: np.random.Generator) -> ProcessShadow:
    """Acquire m i.i.d. records.

    Pauli/Pauli rounds up to ``_MAX_TABLE_QUBITS`` qubits draw keys with
    law Tr[P_kout E(P_kin)] / 18^n, which as Tr[Q E(P)] = Tr[(P^T (x) Q) J]
    is the Pauli snapshot table of J / 2^n with its input register
    transposed; every other case runs the batched simulation.
    """
    if _count(m, "m") < 0:
        raise ValueError(f"record count must be non-negative, got {m}")
    n, d = ch.n_qubits, ch.dim
    if (ensemble_in == PAULI_ENSEMBLE and ensemble_out == PAULI_ENSEMBLE
            and n <= _MAX_TABLE_QUBITS):
        j = choi_of_channel(ch).matrix.reshape(d, d, d, d).transpose(2, 1, 0, 3)
        coeffs = np.real(_pauli_vector(j.reshape(1, d * d, d * d) / d, 2 * n))[0]
        kin, kout = np.divmod(_draw_pauli_keys(coeffs, 2 * n, m, rng), 6**n)
        return ProcessShadow._of(ShadowEstimate(kin, n), ShadowEstimate(kout, n))
    return _simulate_records(ch, m, ensemble_in, ensemble_out, rng)


def _choi_sum(ps: ProcessShadow):
    """The map from per-record weights to the 16^n Pauli coefficients of
    sum_j w_j zeta_j: a distinct (input, output) label pair adds its input
    terms, signed by (-1)^{#Y} for the transpose, times its output terms."""
    n = ps.n_qubits
    ia, pauli_a, coef_a = ps.side_in.pauli_terms()
    ib, pauli_b, coef_b = ps.side_out.pauli_terms()
    pairs, inverse = np.unique(ia * pauli_b.shape[1] + ib, return_inverse=True)
    pa, pb = np.divmod(pairs, pauli_b.shape[1])
    # pairs per chunk: about 2^18 terms, or 16^n where the bincount output is larger
    step = max(2**18, 16**n) // 4**n

    def chunk(lo):  # the terms of pairs lo:lo+step, before the pair weights
        a, b = pa[lo:lo + step], pb[lo:lo + step]
        p_in, p_out = pauli_a[:, a].T, pauli_b[:, b].T  # one row per pair
        index = (p_in << 2 * n)[:, :, None] | p_out[:, None, :]
        coef = (coef_a[:, a].T * _y_sign(p_in, n))[:, :, None] * coef_b[:, b].T[:, None, :]
        return index.reshape(-1), coef.reshape(len(a), -1)

    kept = chunk(0) if pairs.size <= step else None  # one chunk serves every call

    def choi_sum(w: np.ndarray) -> np.ndarray:
        wp = np.bincount(inverse, w, pairs.size)
        out = np.zeros(16**n)
        for lo in range(0, pairs.size, step):
            index, coef = kept or chunk(lo)
            out += np.bincount(index, (coef * wp[lo:lo + step, None]).reshape(-1), 16**n)
        return out

    return choi_sum


def reconstruct_choi(ps: ProcessShadow) -> ChoiMatrix:
    """Sample mean of the Choi snapshots, as a normalized Choi matrix."""
    if not len(ps):
        raise ValueError("cannot reconstruct from an empty shadow")
    mean = _pauli_matrix(_choi_sum(ps)(np.ones(len(ps))), 2 * ps.n_qubits)
    mean /= len(ps)
    return ChoiMatrix(mean, ps.n_qubits, normalized=True)


def estimate_output_state(ps: ProcessShadow, rho: np.ndarray) -> np.ndarray:
    """Estimate E(rho) for a known input state rho.

    Contracts the input register of each Choi snapshot with rho and
    averages the weighted output factors:
    mean of 2^n Tr[snapshot_in rho] snapshot_out.
    """
    if not len(ps):
        raise ValueError("cannot estimate from an empty shadow")
    total = _snapshot_sum(ps.side_out, np.real(_side_values(ps.side_in, rho)))
    return 2**ps.n_qubits * _pauli_matrix(total, ps.n_qubits) / len(ps)


def single_shot_functional_values(ps: ProcessShadow, rho: np.ndarray,
                                  obs: np.ndarray) -> np.ndarray:
    """Per-record estimates of Tr[E(rho) obs].

    Each record contributes 2^n Re(Tr[snapshot_in rho] Tr[snapshot_out obs]),
    the contraction of its Choi snapshot with 2^n (rho^T (x) obs).
    """
    values = _side_values(ps.side_in, rho) * _side_values(ps.side_out, obs)
    return 2**ps.n_qubits * np.real(values)


def estimate_channel_functional(ps: ProcessShadow, rho: np.ndarray,
                                obs: np.ndarray, n_groups: int = 1) -> float:
    """Median-of-means estimate of Tr[E(rho) obs] from a process shadow."""
    return median_of_means(single_shot_functional_values(ps, rho, obs), n_groups)


@dataclass(frozen=True)
class BinIndependenceReport:
    """Outcome of the input-bin independence diagnostic."""

    n_sampled: int
    max_normalization_dev: float
    n_pauli_checked: int
    max_pauli_dev: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return (self.max_normalization_dev <= self.tolerance
                and self.max_pauli_dev <= self.tolerance)


def verify_bin_independence(ch: Channel, samples: int,
                            rng: np.random.Generator) -> BinIndependenceReport:
    """Check that acquisition statistics cannot depend on the input bin.

    Two facts are verified against the input register of the dense Choi
    matrix, eta_A = Tr_B eta: the trace of the Choi state against any
    prepared input projector, Tr[P^T eta_A], equals one for sampled
    (Pauli frame, bits) pairs, and every nontrivial input-register Pauli
    string has vanishing expectation.  Both follow from trace
    preservation, which ``Channel`` checks when it is built, so this is
    a diagnostic that ACCEPTANCE 08 runs; no estimator calls it.
    """
    if _count(samples, "samples") < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    n, d = ch.n_qubits, ch.dim
    eta_a = np.einsum("iaja->ij", choi_of_channel(ch).matrix.reshape(d, d, d, d))
    bits = rng.integers(0, d, size=samples)
    u = frame_unitaries(PAULI_ENSEMBLE, sample_frames(n, PAULI_ENSEMBLE, samples, rng))
    psi = u[np.arange(samples), bits].conj()  # the prepared states U^dag|b>
    norms = np.real(np.einsum("ki,ij,kj->k", psi, eta_a, psi.conj()))
    paulis = np.abs(_pauli_vector(eta_a[None], n)[0, 1:])
    return BinIndependenceReport(samples, float(np.abs(norms - 1.0).max(initial=0.0)),
                                 paulis.size, float(paulis.max()), 1e-9)
