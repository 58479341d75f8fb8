"""Signed-weight algebra on shadows: shadow-on-shadow application,
channel composition, and the statistics of the resulting weights.

Contracting two shadow representations replaces one register of a Choi
snapshot by a snapshot of the other object.  Per qubit this produces a
trace of two tau matrices, which takes one of the values {5, -4, 1/2};
the conventional *pair weight* is half the trace of the product with
the first factor transposed, giving the five-case table

    5/2   same non-Y axis, same bit
    -2    same non-Y axis, different bit
    -2    Y with Y, same bit
    5/2   Y with Y, different bit
    1/4   different axes.

Because the input register of a Choi snapshot is stored transposed, the
transpose built into the pair-weight table and the stored one cancel:
the contraction weight of two snapshots is the plain (untransposed)
trace of their product.  The overall scale is 2^n per contracted
register on top of the per-qubit traces.  The mean over all pairs is
bilinear, so it is computed once, from the two sample means, for every
frame ensemble, with no per-pair term and no dense Choi matrix.  Write
the normalized Choi mean as sum_ab A[a, b] sigma_a (x) sigma_b, and let
s_a = (-1)^{#Y} (sigma_a^T = s_a sigma_a).  Then d^2 s_a A[a, b] =
Tr[sigma_b E(sigma_a)] / d is the channel's Pauli transfer matrix (Chow
et al., PRL 109, 060501, 2012): applying it to a state sum_a v[a] sigma_a
is the vector product d^2 (v * s) @ A, and Y after X is the real
(4^n, 4^n) matrix product d^2 (A_X * s) @ A_Y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .process_shadows import ProcessShadow, _choi_sum
from .state_shadows import (TAU1, ShadowEstimate, _count, _pauli_matrix, _snapshot_sum, _y_sign,
                            qubit_key)

_PAIR_WEIGHT = np.real(np.einsum("kij,lij->kl", TAU1, TAU1)) / 2  # Tr[TAU1[k]^T TAU1[l]] / 2
#: the five weight values, with multiplicity, seen by a uniformly random
#: pair of single-qubit snapshot labels: any row of the table, descending
WEIGHT_SUPPORT = tuple(sorted(_PAIR_WEIGHT[0].tolist(), reverse=True))


def pair_weight(mu: str, b: int, mu_p: str, b_p: int) -> float:
    """Contraction weight of two single-qubit snapshot labels.

    Equals half the trace of transpose(tau[mu, b]) times tau[mu_p, b_p].
    No estimator calls it; ACCEPTANCE 06 checks the paper's table with it.
    """
    if mu not in "XYZ" or mu_p not in "XYZ":
        raise ValueError(f"invalid axes {mu!r}, {mu_p!r}")
    return float(_PAIR_WEIGHT[qubit_key(mu, int(b)), qubit_key(mu_p, int(b_p))])


class WeightedSnapshotSum:
    """Signed-weighted mean of the per-pair snapshot products of two shadows.

    Built from the Pauli coefficients of the two sample means: ``left`` is
    the (4^n, 4^n) A of a Choi mean, ``right`` the 4^n v of a state mean
    (``apply``) or a second A (``compose``).  Their transfer-matrix
    product (see the module docstring) is taken at once, and only its
    coefficients are kept; ``materialize`` makes them the dense output
    state or the normalized Choi matrix of the composition.
    """

    def __init__(self, mode: str, n_qubits: int, left: np.ndarray, right: np.ndarray):
        if mode not in ("apply", "compose"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.n_qubits = n_qubits  # register size of the contracted objects
        sign = 4**n_qubits * _y_sign(np.arange(4**n_qubits), n_qubits)  # d^2 s, exact
        self._coef = ((right * sign) @ left if mode == "apply"
                      else ((left * sign) @ right).reshape(-1))

    def materialize(self) -> np.ndarray:
        """Weighted mean of all terms, as a dense matrix."""
        return _pauli_matrix(self._coef, self.n_qubits * (1 if self.mode == "apply" else 2))


def _mean(shadow) -> np.ndarray:
    """The Pauli coefficients of a shadow's sample mean: a (4^n, 4^n) matrix
    for a process shadow (input index first), a 4^n vector for a state."""
    if not len(shadow):
        raise ValueError("cannot reconstruct from an empty shadow")
    if isinstance(shadow, ShadowEstimate):
        return _snapshot_sum(shadow, None) / len(shadow)
    return (_choi_sum(shadow)(np.ones(len(shadow))) / len(shadow)).reshape(4**shadow.n_qubits, -1)


def apply_process_to_state_shadow(ps: ProcessShadow,
                                  ss: ShadowEstimate) -> WeightedSnapshotSum:
    """Estimate the channel output state from shadows of channel and input.

    Pairs every record with every snapshot: the record's input register
    is contracted against the state snapshot, leaving the output-register
    factor with a signed weight.  Any frame ensemble on either shadow.
    """
    if ps.n_qubits != ss.n_qubits:
        raise ValueError("qubit counts differ")
    return WeightedSnapshotSum("apply", ps.n_qubits, _mean(ps), _mean(ss))


def compose_process_shadows(ps_x: ProcessShadow,
                            ps_y: ProcessShadow) -> WeightedSnapshotSum:
    """Estimate the Choi state of Y after X from the two process shadows.

    X's output register is contracted against Y's input register; each
    pair keeps X's (transposed) input factor tensored with Y's output
    factor, so the weighted mean estimates the normalized Choi matrix
    of the composition.  Any frame ensemble on either shadow.
    """
    if ps_x.n_qubits != ps_y.n_qubits:
        raise ValueError("qubit counts differ")
    return WeightedSnapshotSum("compose", ps_x.n_qubits, _mean(ps_x), _mean(ps_y))


# ---------------------------------------------------------------------------
# Weight statistics.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignStatistics:
    """Monte-Carlo and closed-form statistics of n-site weight products."""

    n_sites: int
    samples: int
    p_negative: float
    p_positive: float
    mean_log_abs: float
    std_log_abs: float
    p_negative_exact: float
    p_positive_exact: float
    mean_log_abs_exact: float
    std_log_abs_lognormal: float


def negative_weight_probability(n: int) -> float:
    """Probability that a product of n uniform pair weights is negative."""
    return 0.5 * (1.0 - (2.0 / 3.0) ** n)


def weight_sign_statistics(n: int, samples: int,
                           rng: np.random.Generator) -> SignStatistics:
    """Sample products of n i.i.d. pair weights and summarize sign/magnitude."""
    if n < 1:
        raise ValueError("need at least one site")
    if _count(samples, "samples") < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    support = np.array(WEIGHT_SUPPORT)
    draws = support[rng.integers(0, support.size, size=(samples, n))]
    products = draws.prod(axis=1)
    logs = np.log(np.abs(products))
    p_neg = float(np.mean(products < 0))
    mean_exact = n * ((2.0 / 3.0) * math.log(0.25) + math.log(5.0) / 6.0)
    return SignStatistics(
        n_sites=n,
        samples=samples,
        p_negative=p_neg,
        p_positive=1.0 - p_neg,
        mean_log_abs=float(logs.mean()),
        std_log_abs=float(logs.std()),
        p_negative_exact=negative_weight_probability(n),
        p_positive_exact=0.5 * (1.0 + (2.0 / 3.0) ** n),
        mean_log_abs_exact=mean_exact,
        std_log_abs_lognormal=math.sqrt(n / 6.0) * math.log(5.0),
    )
