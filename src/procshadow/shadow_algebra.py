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
bilinear, so it is the contraction of the two sample means, for every
frame ensemble: d Tr_in[(rho^T (x) I) eta] for apply, d times the link
product of the two Choi means for compose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .process_shadows import ProcessShadow, choi_mean_from_histogram, reconstruct_choi
from .state_shadows import ShadowEstimate, key_matrices, reconstruct

#: the five weight values, with multiplicity, seen by a uniformly random
#: pair of single-qubit snapshot labels
WEIGHT_SUPPORT = (5.0 / 2.0, 1.0 / 4.0, 1.0 / 4.0, 1.0 / 4.0, 1.0 / 4.0, -2.0)


def pair_weight(mu: str, b: int, mu_p: str, b_p: int) -> float:
    """Contraction weight of two single-qubit snapshot labels.

    Equals half the trace of transpose(tau[mu, b]) times tau[mu_p, b_p].
    """
    if mu not in "XYZ" or mu_p not in "XYZ":
        raise ValueError(f"invalid axes {mu!r}, {mu_p!r}")
    b, b_p = int(b) & 1, int(b_p) & 1
    if mu != mu_p:
        return 0.25
    same_bit = b == b_p
    if mu == "Y":
        return -2.0 if same_bit else 2.5
    return 2.5 if same_bit else -2.0


def _gram(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """G[u, v] = Re Tr[x_u y_v] over two stacks of square matrices."""
    return np.real(x.reshape(len(x), -1) @ y.transpose(0, 2, 1).reshape(len(y), -1).T)


class WeightedSnapshotSum:
    """Lazy signed-weighted collection of snapshot products.

    Terms are never stored.  Each operand is ``(weight, mean)``: the
    total weight of its samples and their mean, a normalized Choi matrix
    or a state.  ``materialize`` contracts the two means, and
    ``iter_terms`` streams (weight, factor) pairs for small inputs.  The
    weighted *mean* of the terms estimates the target operator: the
    channel output state for ``apply`` mode, the normalized Choi matrix
    of the composition for ``compose`` mode.
    """

    def __init__(self, mode: str, n_qubits: int, left: tuple, right: tuple,
                 sources=None):
        if mode not in ("apply", "compose"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.n_qubits = n_qubits  # register size of the contracted objects
        self._left = left
        self._right = right
        self._sources = sources

    @property
    def n_terms(self) -> float:
        return float(self._left[0] * self._right[0])

    def iter_terms(self):
        """Stream (weight, factor matrix) pairs; needs the source objects."""
        if self._sources is None:
            raise ValueError("term iteration needs the sampled source objects")
        d = 2**self.n_qubits
        if self.mode == "apply":
            ps, ss = self._sources
            (ia, a), (ib, b) = ps.side_in.matrices(), ps.side_out.matrices()
            i_s, s = ss.side.matrices()
            g = _gram(a, s)
            for u, v in zip(ia, ib):
                for t in i_s:
                    yield d * g[u, t], b[v]
        else:
            psx, psy = self._sources
            (ixa, ax), (ixb, bx) = psx.side_in.matrices(), psx.side_out.matrices()
            (iya, ay), (iyb, by) = psy.side_in.matrices(), psy.side_out.matrices()
            g = _gram(bx, ay)
            for u, v in zip(ixa, ixb):
                for p, q in zip(iya, iyb):
                    yield d * g[v, p], np.kron(ax[u].T, by[q])

    def materialize(self) -> np.ndarray:
        """Weighted mean of all terms, as a dense matrix."""
        d = 2**self.n_qubits
        x, y = self._left[1], self._right[1]
        if self.mode == "apply":
            return d * np.einsum("ipjq,ij->pq", x.reshape(d, d, d, d), y)
        # link product sum_pq X[i,p,j,q] Y[p,o,q,r] as one (d^2, d^2) matrix product
        def realign(z):  # rows (i, p), columns (j, q) -> rows (i, j), columns (p, q)
            return z.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
        return d * realign(realign(x) @ realign(y))


def apply_process_to_state_shadow(ps: ProcessShadow,
                                  ss: ShadowEstimate) -> WeightedSnapshotSum:
    """Estimate the channel output state from shadows of channel and input.

    One term per (record, snapshot) pair: the record's input register is
    contracted against the state snapshot, leaving the output-register
    factor with a signed weight.  Any frame ensemble on either shadow.
    """
    if ps.n_qubits != ss.n_qubits:
        raise ValueError("qubit counts differ")
    return WeightedSnapshotSum("apply", ps.n_qubits,
                               (len(ps), reconstruct_choi(ps).matrix),
                               (len(ss), reconstruct(ss)), sources=(ps, ss))


def compose_process_shadows(ps_x: ProcessShadow,
                            ps_y: ProcessShadow) -> WeightedSnapshotSum:
    """Estimate the Choi state of Y after X from the two process shadows.

    X's output register is contracted against Y's input register; each
    term keeps X's (transposed) input factor tensored with Y's output
    factor, so the weighted mean estimates the normalized Choi matrix
    of the composition.  Any frame ensemble on either shadow.
    """
    if ps_x.n_qubits != ps_y.n_qubits:
        raise ValueError("qubit counts differ")
    return WeightedSnapshotSum("compose", ps_x.n_qubits,
                               (len(ps_x), reconstruct_choi(ps_x).matrix),
                               (len(ps_y), reconstruct_choi(ps_y).matrix),
                               sources=(ps_x, ps_y))


def exact_apply_sum(record_dist: np.ndarray, snapshot_dist: np.ndarray,
                    n: int) -> WeightedSnapshotSum:
    """Apply-mode sum over exact label distributions instead of samples.

    Every one of the 6^n keys enters with its probability.
    """
    state = np.tensordot(snapshot_dist, key_matrices(np.arange(6**n), n), 1)
    process = choi_mean_from_histogram(record_dist, n)
    return WeightedSnapshotSum("apply", n, (record_dist.sum(), process),
                               (snapshot_dist.sum(), state / snapshot_dist.sum()))


def exact_compose_sum(dist_x: np.ndarray, dist_y: np.ndarray,
                      n: int) -> WeightedSnapshotSum:
    """Compose-mode sum over exact label distributions instead of samples."""
    return WeightedSnapshotSum("compose", n,
                               (dist_x.sum(), choi_mean_from_histogram(dist_x, n)),
                               (dist_y.sum(), choi_mean_from_histogram(dist_y, n)))


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


def big_weight_pmf(n: int, k: int) -> float:
    """Probability that exactly k of n weight factors are large (|w| > 1)."""
    if not 0 <= k <= n:
        return 0.0
    return math.comb(n, k) * (1.0 / 3.0) ** k * (2.0 / 3.0) ** (n - k)


def weight_sign_statistics(n: int, samples: int,
                           rng: np.random.Generator) -> SignStatistics:
    """Sample products of n i.i.d. pair weights and summarize sign/magnitude."""
    if n < 1:
        raise ValueError("need at least one site")
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
