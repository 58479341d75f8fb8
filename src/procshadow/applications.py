"""Estimators built on process shadows: transition probabilities,
multitime correlation functions, purity, and a unitarity verdict.

All of these are linear or quadratic functionals of the Choi state and
inherit the shadow guarantees; the quadratic ones (purity, unitarity)
use distinct-pair U-statistics so the single-copy variance does not
bias the estimate.  Every estimator takes any frame ensemble and works
on Pauli coefficients; the U-statistic is the squared norm of the
weighted Choi sum ``_choi_sum``, so no bootstrap replicate builds a
dense matrix.  The shadow-input correlator weights one group of snapshots
at a time (zero elsewhere); that group's mean state is its records' input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .process_shadows import (ProcessShadow, _choi_sum, estimate_channel_functional,
                              single_shot_functional_values)
from .qcore import InfeasibleError, PauliString, basis_projector, n_qubits_of
from .state_shadows import (ShadowEstimate, _count, _groups, _pauli_matrix, _side_values,
                            _snapshot_sum, median_of_means)


# ---------------------------------------------------------------------------
# Linear functionals.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransitionEstimate:
    raw: float
    clipped: float


def transition_probability(ps: ProcessShadow, initial: str, final: str,
                           n_groups: int = 1) -> TransitionEstimate:
    """Estimate P(initial -> final) for computational basis strings.

    The probability is the channel functional with input projector
    |initial><initial| and observable |final><final|.  The raw shadow
    estimate can leave [0, 1]; both it and its clipped value are kept.
    """
    n = ps.n_qubits
    if len(initial) != n or len(final) != n:
        raise ValueError("bit strings must match the record size")
    raw = estimate_channel_functional(ps, basis_projector(initial),
                                      basis_projector(final), n_groups)
    return TransitionEstimate(raw=raw, clipped=float(np.clip(raw, 0.0, 1.0)))


@dataclass(frozen=True)
class CorrelatorSpec:
    """Two-time correlator Tr[E(rho_in . op_early) op_late].

    ``input_state`` may be any matrix on the register (sub-normalized
    states and the bare identity are both meaningful here).
    """

    input_state: np.ndarray
    op_early: PauliString
    op_late: PauliString

    def __post_init__(self):
        n = n_qubits_of(self.input_state)
        if self.op_early.n_qubits != n or self.op_late.n_qubits != n:
            raise ValueError("operators must act on the input register")

    @property
    def n_qubits(self) -> int:
        return self.op_early.n_qubits


def multitime_correlator_exact_input(ps: ProcessShadow, spec: CorrelatorSpec,
                                     n_groups: int = 1) -> float:
    """Correlator estimate when the input matrix is known exactly.

    Per-record functional values with the (generally non-Hermitian)
    early matrix rho_in . op_early inserted on the input register and
    the late operator measured on the output register.
    """
    if spec.n_qubits != ps.n_qubits:
        raise ValueError("correlator register does not match the records")
    early = spec.input_state @ spec.op_early.matrix
    values = single_shot_functional_values(ps, early, spec.op_late.matrix)
    return median_of_means(values, n_groups)


def multitime_correlator_shadow_input(ps: ProcessShadow, ss: ShadowEstimate,
                                      op_early: PauliString,
                                      op_late: PauliString,
                                      n_groups: int = 1) -> float:
    """Correlator estimate when the input state is itself a shadow.

    Each (record, snapshot) pair contributes
    2^n Tr[snap_in . snap_state . op_early] Tr[snap_out . op_late]; the
    mean over a group's pairs is the mean over its records of the
    functional values with the group's state estimate (the mean of its
    snapshots) in place of the input state.  Median-of-means pairs the
    j-th group of records with the j-th group of snapshots so the group
    means stay independent; each record is evaluated once, with its own
    group's state mean.  This is the paper's estimator for a channel
    applied to a state shadow; `correlator-convergence` reports its error.
    """
    n = ps.n_qubits
    if ss.n_qubits != n or op_early.n_qubits != n or op_late.n_qubits != n:
        raise ValueError("operand register sizes disagree")
    records, snapshots = _groups(len(ps), n_groups), _groups(len(ss), n_groups)
    late, values = _side_values(ps.side_out, op_late.matrix), np.empty(records[-1].stop)
    for r, s in zip(records, snapshots):
        weight = np.zeros(len(ss))  # a group's mean: zero outside the group
        weight[s] = 1 / snapshots[0].stop
        mean = _pauli_matrix(_snapshot_sum(ss, weight), n)
        early = _side_values(ps.side_in, mean @ op_early.matrix)[r]
        values[r] = 2**n * np.real(early * late[r])
    return median_of_means(values, n_groups)


# ---------------------------------------------------------------------------
# Quadratic functionals: purity and unitarity.
# ---------------------------------------------------------------------------

MAX_PURITY_QUBITS = 3
# fewest records a bootstrap verdict takes: a replicate of m records draws a
# single distinct record with chance m^(1-m), about 1e-9 at m = 10
MIN_BOOTSTRAP_RECORDS = 10


def _purity_kernel(ps: ProcessShadow):
    """U-statistic for Tr[eta_norm^2] over pairs of distinct source records,
    as a function of each record's multiplicity ``counts``.

    With S = sum_j c_j zeta_j, the ordered pairs sum to Tr[S^2], 4^n times
    the squared norm of S's Pauli coefficients.  Two copies of one record
    are not a distinct pair, so the terms c_j^2 Tr[a_j^2] Tr[b_j^2] of the
    (sum_j c_j)^2 ordered pairs are left out (NaN when none is left); the
    trace is 5^n per Pauli side and d^2 + d - 1 per Clifford side.
    """
    n, d = ps.n_qubits, 2**ps.n_qubits
    choi_sum = _choi_sum(ps)
    self_overlap = float(np.prod([5**n if side.frames is None else d * d + d - 1
                                  for side in (ps.side_in, ps.side_out)]))

    def u_statistic(counts: np.ndarray) -> float:
        s = choi_sum(counts)
        full = 4**n * float(s @ s)
        square = counts @ counts
        pairs = float(counts.sum()**2 - square)
        return (full - float(square) * self_overlap) / pairs if pairs else float("nan")

    return u_statistic


def purity_estimate(ps: ProcessShadow, n_groups: int = 1, *,
                    pair_subsample: int = 20000,
                    rng: np.random.Generator | None = None) -> float:
    """Estimate the unnormalized Choi purity Tr[eta^2].

    Uses the U-statistic over distinct record pairs, which is unbiased
    for Tr[eta_norm^2], then rescales by 4^n; every frame ensemble and
    register size takes the same exact evaluation.  Sample demands grow
    like 4^n, so registers above MAX_PURITY_QUBITS are refused.
    ``pair_subsample`` and ``rng`` are unused and kept for callers that
    still pass them.
    """
    n = ps.n_qubits
    if n > MAX_PURITY_QUBITS:
        raise InfeasibleError(f"purity on {n} qubits is refused above the cap of "
                              f"{MAX_PURITY_QUBITS} (cost grows as 4^n)")
    u_statistic, m = _purity_kernel(ps), len(ps)
    means = [u_statistic(np.bincount(np.arange(m)[g], minlength=m))
             for g in _groups(m, n_groups, least=2)]
    return 4**n * float(np.median(means))


@dataclass(frozen=True)
class UnitarityVerdict:
    """Decision on whether the measured channel is unitary."""

    verdict: str                      # "unitary" | "nonunitary" | "inconclusive"
    purity: float
    interval: tuple[float, float]
    threshold: float


def unitarity_verdict(ps: ProcessShadow, *, threshold_fraction: float = 0.95,
                      n_bootstrap: int = 200,
                      rng: np.random.Generator | None = None) -> UnitarityVerdict:
    """Test Tr[eta^2] = d^2 (unitary channel) against a bootstrap interval.

    The verdict is "unitary" when the whole interval sits above
    d^2 * threshold_fraction, "nonunitary" when it sits below, and
    "inconclusive" when the interval straddles the threshold.  Each
    bootstrap replicate resamples the records with replacement and
    leaves out the pairs formed by two copies of one record; a replicate
    that draws one distinct record has no pair left, so fewer than
    MIN_BOOTSTRAP_RECORDS records are refused before any draw, and the
    interval is refused when a replicate still has no pair.
    """
    if _count(n_bootstrap, "n_bootstrap") < 1:
        raise ValueError(f"need at least one bootstrap replicate, got {n_bootstrap}")
    if not 0.0 < threshold_fraction <= 1.0:
        raise ValueError(f"threshold fraction must lie in (0, 1], got {threshold_fraction}")
    n = ps.n_qubits
    if n > MAX_PURITY_QUBITS:
        raise InfeasibleError(f"unitarity on {n} qubits is refused above the cap of "
                              f"{MAX_PURITY_QUBITS} (cost grows as 4^n)")
    m = len(ps)
    if m < MIN_BOOTSTRAP_RECORDS:
        raise ValueError(f"bootstrap replicates of {m} records can draw a single distinct "
                         f"record; need at least {MIN_BOOTSTRAP_RECORDS} records")
    rng = rng if rng is not None else np.random.default_rng(0)
    u_statistic = _purity_kernel(ps)
    point = 4**n * u_statistic(np.ones(m, dtype=np.int64))
    boots = np.empty(n_bootstrap)
    for b in range(n_bootstrap):
        boots[b] = 4**n * u_statistic(np.bincount(rng.integers(0, m, m), minlength=m))
    no_pair = int(np.isnan(boots).sum())
    if no_pair:
        raise ValueError(f"{no_pair} of {n_bootstrap} bootstrap replicates of {m} records "
                         "drew a single distinct record and have no distinct pair")
    alpha = 100.0 * (1.0 - 0.95) / 2.0
    lo, hi = np.percentile(boots, [alpha, 100.0 - alpha])
    threshold = threshold_fraction * 4**n
    if lo > threshold:
        verdict = "unitary"
    elif hi < threshold:
        verdict = "nonunitary"
    else:
        verdict = "inconclusive"
    return UnitarityVerdict(verdict=verdict, purity=point,
                            interval=(float(lo), float(hi)),
                            threshold=threshold)
