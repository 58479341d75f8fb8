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

A ``ProcessShadow`` stores one label array per side (see
``state_shadows.SnapshotLabels``); ``records`` are views built on
demand.  Each estimator has one code path for every frame ensemble, and
the Choi-type sums share one kernel, ``_kron_sum``.  ``_choi_sum`` maps
per-record weights to the weighted Choi sum behind both the sample mean
and the purity U-statistic; two-shadow estimators contract sample
means, not label pairs.

Acquisition has two paths.  Pauli/Pauli rounds come from the exact 36^n
label table (the Pauli state table of the Choi state) up to
``_MAX_TABLE_QUBITS`` qubits.  Every other case is one batched
simulation, ``_simulate_records``: it draws the input bits and a stack
of input frames, pushes the prepared vectors through the Kraus
operators as one contraction, and measures the results in a stack of
output frames with the state-shadow kernel ``state_shadows._simulate``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import (CLIFFORD_ENSEMBLE, PAULI_ENSEMBLE, Frame, PauliFrame,
                        frame_unitaries, sample_frames)
from .qcore import Channel, ChoiMatrix, PauliString, _trace_register, choi_of_channel
from .state_shadows import (SnapshotLabels, StateSnapshot, _simulate,
                            exact_pauli_snapshot_distribution, key_matrices,
                            materialize_snapshot, median_of_means, sample_table)

# largest register whose Pauli/Pauli records are drawn from the 36^n table
_MAX_TABLE_QUBITS = 4


def _ensemble_of(frame: Frame) -> str:
    return PAULI_ENSEMBLE if isinstance(frame, PauliFrame) else CLIFFORD_ENSEMBLE


@dataclass(frozen=True)
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
            if len(bits) != n or any(c not in "01" for c in bits):
                raise ValueError(f"bit string {bits!r} does not match {n} qubits")

    @property
    def n_qubits(self) -> int:
        return self.u_in.n_qubits

    @property
    def ensemble_in(self) -> str:
        return _ensemble_of(self.u_in)

    @property
    def ensemble_out(self) -> str:
        return _ensemble_of(self.u_out)

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
        self.side_in = SnapshotLabels.encode([r.u_in for r in records],
                                             [r.b_in for r in records], n)
        self.side_out = SnapshotLabels.encode([r.u_out for r in records],
                                              [r.b_out for r in records], n)

    @classmethod
    def _of(cls, side_in: SnapshotLabels, side_out: SnapshotLabels) -> "ProcessShadow":
        ps = cls.__new__(cls)
        ps.n_qubits, ps.side_in, ps.side_out = side_in.n_qubits, side_in, side_out
        return ps

    def __len__(self):
        return len(self.side_in)

    def take(self, m: int) -> "ProcessShadow":
        """Prefix of the first m records (records are i.i.d.)."""
        return ProcessShadow._of(self.side_in.prefix(m), self.side_out.prefix(m))

    @property
    def records(self) -> tuple:
        return tuple(ShadowRecord(b_in, u_in, u_out, b_out)
                     for (u_in, b_in), (u_out, b_out)
                     in zip(self.side_in.views(), self.side_out.views()))


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
    return ProcessShadow._of(SnapshotLabels.of_stack(ensemble_in, frames_in, bits),
                             SnapshotLabels.of_stack(ensemble_out, frames_out, outcomes))


def acquire_process_shadow(ch: Channel, m: int, ensemble_in: str, ensemble_out: str,
                           rng: np.random.Generator) -> ProcessShadow:
    """Acquire m i.i.d. records.

    Pauli/Pauli rounds up to ``_MAX_TABLE_QUBITS`` qubits have a finite
    joint distribution over (frame, outcome) labels, so they are sampled
    from the exact table in one vectorized draw; every other case runs
    the batched simulation.
    """
    if m < 0:
        raise ValueError(f"record count must be non-negative, got {m}")
    n = ch.n_qubits
    if (ensemble_in == PAULI_ENSEMBLE and ensemble_out == PAULI_ENSEMBLE
            and n <= _MAX_TABLE_QUBITS):
        table = exact_pauli_record_distribution(ch).reshape(-1)
        kin, kout = np.divmod(sample_table(table, m, rng), 6**n)
        return ProcessShadow._of(SnapshotLabels(kin, n), SnapshotLabels(kout, n))
    return _simulate_records(ch, m, ensemble_in, ensemble_out, rng)


def materialize_choi_shadow(r: ShadowRecord) -> np.ndarray:
    """Dense trace-1 Choi snapshot of one record."""
    a_side = materialize_snapshot(r.in_snapshot).T
    b_side = materialize_snapshot(r.out_snapshot)
    return np.kron(a_side, b_side)


def _kron_sum(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_k a[k] (x) c[k] over two stacks of square matrices, as one
    matrix product of the flattened stacks."""
    k, da, _ = a.shape
    dc = c.shape[-1]
    out = a.reshape(k, da * da).T @ c.reshape(k, dc * dc)
    return out.reshape(da, da, dc, dc).transpose(0, 2, 1, 3).reshape(da * dc, da * dc)


def _choi_sum(ps: ProcessShadow):
    """The map from per-record weights ``counts`` to sum_j c_j zeta_j.

    Labels are decoded once.  Row u of ``c`` sums the weighted output
    snapshots of the records with input label u; the distinct (input,
    output) pairs come sorted by input label and every input label
    occurs, so each chunk of input labels reduces straight into its rows.
    """
    ia, a = ps.side_in.matrices()
    ib, b = ps.side_out.matrices()
    pairs, inverse = np.unique(ia * len(b) + ib, return_inverse=True)
    pb = pairs % len(b)
    bounds = np.append(np.searchsorted(pairs // len(b), np.arange(len(a))), pairs.size)
    # input labels per chunk, so that a gathered chunk holds about 2^18 entries
    rows = max(1, (2**18 // b[0].size) * len(a) // pairs.size)
    a_t = np.ascontiguousarray(a.transpose(0, 2, 1))

    def choi_sum(counts: np.ndarray) -> np.ndarray:
        w = np.bincount(inverse, counts, pairs.size)
        c = np.empty((len(a_t),) + b.shape[1:], dtype=complex)
        for lo in range(0, len(c), rows):
            edge = bounds[lo:lo + rows + 1]
            sl = slice(edge[0], edge[-1])
            chunk = b[pb[sl]]
            chunk *= w[sl, None, None]
            np.add.reduceat(chunk, edge[:-1] - edge[0], axis=0, out=c[lo:lo + rows])
        return _kron_sum(a_t, c)

    return choi_sum


def choi_mean_from_histogram(hist: np.ndarray, n: int) -> np.ndarray:
    """Weighted mean of Choi snapshots from a raw (kin, kout) histogram."""
    snaps = key_matrices(np.arange(6**n), n)
    c = (hist @ snaps.reshape(6**n, -1)).reshape(snaps.shape)
    return _kron_sum(snaps.transpose(0, 2, 1), c) / hist.sum()


def reconstruct_choi(ps: ProcessShadow) -> ChoiMatrix:
    """Sample mean of the Choi snapshots, as a normalized Choi matrix."""
    if not len(ps):
        raise ValueError("cannot reconstruct from an empty shadow")
    mean = _choi_sum(ps)(np.ones(len(ps))) / len(ps)
    return ChoiMatrix(mean, ps.n_qubits, normalized=True)


def _side_values(side: SnapshotLabels, op: np.ndarray) -> np.ndarray:
    """Tr[snapshot op] for every label of one side."""
    index, mats = side.matrices()
    return np.einsum("kij,ji->k", mats, op)[index]


def estimate_output_state(ps: ProcessShadow, rho: np.ndarray) -> np.ndarray:
    """Estimate E(rho) for a known input state rho.

    Contracts the input register of each Choi snapshot with rho and
    averages the weighted output factors:
    mean of 2^n Tr[snapshot_in rho] snapshot_out.
    """
    n = ps.n_qubits
    d = 2**n
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d, d):
        raise ValueError("input state does not match the record size")
    if not len(ps):
        raise ValueError("cannot estimate from an empty shadow")
    weights = np.real(_side_values(ps.side_in, rho))
    ib, b = ps.side_out.matrices()
    coeffs = np.bincount(ib, weights=weights, minlength=len(b))
    return d * np.einsum("k,kij->ij", coeffs, b) / len(ps)


def single_shot_functional_values(ps: ProcessShadow, rho: np.ndarray,
                                  obs: np.ndarray) -> np.ndarray:
    """Per-record estimates of Tr[E(rho) obs].

    Each record contributes 2^n Re(Tr[snapshot_in rho] Tr[snapshot_out obs]),
    the contraction of its Choi snapshot with 2^n (rho^T (x) obs).
    """
    n = ps.n_qubits
    rho = np.asarray(rho, dtype=complex)
    obs = np.asarray(obs, dtype=complex)
    d = 2**n
    if rho.shape != (d, d) or obs.shape != (d, d):
        raise ValueError("functional arguments do not match the record size")
    return d * np.real(_side_values(ps.side_in, rho) * _side_values(ps.side_out, obs))


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


def verify_bin_independence(ch: Channel, samples: int, rng: np.random.Generator,
                            ensemble_in: str = PAULI_ENSEMBLE,
                            tolerance: float = 1e-9) -> BinIndependenceReport:
    """Check that acquisition statistics cannot depend on the input bin.

    Two facts are verified against the dense Choi matrix: the trace of
    the Choi state against any prepared input projector equals one for
    sampled (frame, bits) pairs, and every nontrivial input-register
    Pauli string has vanishing expectation.  Both fail for Kraus sets
    that are not trace preserving.
    """
    n = ch.n_qubits
    eta = choi_of_channel(ch).matrix
    d = ch.dim
    max_norm = 0.0
    for _ in range(samples):
        bits = int(rng.integers(0, d))
        u = frame_unitaries(ensemble_in, sample_frames(n, ensemble_in, 1, rng))[0]
        psi = u[bits].conj()  # the prepared state U^dag|b>
        proj_t = np.outer(psi, psi.conj()).T
        val = np.real(np.trace(np.kron(proj_t, np.eye(d)) @ eta))
        max_norm = max(max_norm, abs(val - 1.0))
    eta_a = _trace_register(eta, d, d, "B")
    max_pauli = 0.0
    strings = PauliString.all_nontrivial(n)
    for p in strings:
        val = abs(np.trace(p.matrix @ eta_a))
        max_pauli = max(max_pauli, float(val))
    return BinIndependenceReport(samples, float(max_norm), len(strings),
                                 max_pauli, tolerance)
