"""Pairing process shadows with state shadows: weights, apply, compose, sign statistics."""

import math
import weakref

import numpy as np
import numpy.linalg as la
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dense_reference import (
    channel_of_choi,
    choi_mean_from_histogram,
    exact_pauli_record_distribution,
    exact_pauli_snapshot_distribution,
    key_matrices,
    materialize_choi_shadow,
    side_matrices,
)
from procshadow.channels import named_channel, random_unitary_channel
from procshadow.process_shadows import acquire_process_shadow, reconstruct_choi
from procshadow.qcore import (
    Channel,
    apply_channel,
    basis_projector,
    choi_of_channel,
    random_density_matrix,
)
from procshadow.shadow_algebra import (
    WEIGHT_SUPPORT,
    WeightedSnapshotSum,
    apply_process_to_state_shadow,
    compose_process_shadows,
    negative_weight_probability,
    pair_weight,
    weight_sign_statistics,
)
from procshadow.state_shadows import (
    acquire_shadow,
    TAU1,
    _pauli_vector,
    materialize_snapshot,
    qubit_key,
    reconstruct,
)

AXES = "XYZ"
ENSEMBLE_PAIRS = [(a, b) for a in ("pauli", "clifford") for b in ("pauli", "clifford")]


def _gram(x, y):
    """G[u, v] = Re Tr[x_u y_v] over two stacks of square matrices."""
    return np.real(x.reshape(len(x), -1) @ y.transpose(0, 2, 1).reshape(len(y), -1).T)


def iter_terms(mode, first, second):
    """Oracle: the paper's per-pair terms, as (signed weight, factor) pairs.

    ``apply`` pairs every record of the process shadow ``first`` with
    every snapshot of the state shadow ``second``: the record's input
    snapshot is contracted against the state snapshot, leaving its output
    snapshot.  ``compose`` pairs the records of two process shadows: X's
    output snapshot is contracted against Y's input snapshot, leaving X's
    transposed input snapshot tensored with Y's output snapshot.  The
    weight is 2^n times the trace of the contracted product.
    """
    d = 2**first.n_qubits
    (ixa, ax), (ixb, bx) = side_matrices(first.side_in), side_matrices(first.side_out)
    if mode == "apply":
        i_s, s = side_matrices(second)
        g = _gram(ax, s)
        for u, v in zip(ixa, ixb):
            for t in i_s:
                yield d * g[u, t], bx[v]
    else:
        (iya, ay), (iyb, by) = side_matrices(second.side_in), side_matrices(second.side_out)
        g = _gram(bx, ay)
        for u, v in zip(ixa, ixb):
            for p, q in zip(iya, iyb):
                yield d * g[v, p], np.kron(ax[u].T, by[q])


def _coefficients(a, n):
    """Real c with a = sum_s c[s] sigma_s for a dense Hermitian operator on n
    qubits; a Choi matrix (n = 2 n') reshapes to the (4^n', 4^n') operand."""
    return np.real(_pauli_vector(np.asarray(a)[None], n)[0]) / 2**n


def _choi_operand(choi, n):
    return _coefficients(choi, 2 * n).reshape(4**n, 4**n)


def _term_mean(mode, first, second):
    terms = list(iter_terms(mode, first, second))
    assert len(terms) == len(first) * len(second)
    return sum(w * factor for w, factor in terms) / len(terms)


def test_pair_weight_five_cases():
    assert pair_weight("X", 0, "X", 0) == 2.5
    assert pair_weight("X", 0, "X", 1) == -2.0
    assert pair_weight("Y", 0, "Y", 0) == -2.0
    assert pair_weight("Y", 0, "Y", 1) == 2.5
    assert pair_weight("X", 1, "Z", 0) == 0.25


def test_pair_weight_full_table_vs_dense():
    """All 36 single-qubit weights equal (1/2) Tr[t^T t'] on snapshot matrices."""
    snaps = TAU1
    for mu in AXES:
        for b in (0, 1):
            for mu_p in AXES:
                for b_p in (0, 1):
                    t = snaps[qubit_key(mu, b)]
                    t_p = snaps[qubit_key(mu_p, b_p)]
                    dense = 0.5 * np.trace(t.T @ t_p).real
                    assert pair_weight(mu, b, mu_p, b_p) == pytest.approx(dense, abs=1e-12)


def test_weight_rows_have_uniform_multiset():
    # every (mu, b) sees the same multiset of weights across the partner key
    expected = sorted([2.5, 0.25, 0.25, 0.25, 0.25, -2.0])
    for mu in AXES:
        for b in (0, 1):
            row = sorted(
                pair_weight(mu, b, mu_p, b_p) for mu_p in AXES for b_p in (0, 1)
            )
            assert row == pytest.approx(expected)
    assert sorted(WEIGHT_SUPPORT) == pytest.approx(expected)
    # the sign-statistics draws index this order
    assert WEIGHT_SUPPORT == (2.5, 0.25, 0.25, 0.25, 0.25, -2.0)


@pytest.mark.parametrize("samples", [0, -1, 2.5])
def test_weight_sign_statistics_refuses_a_count_below_one(samples):
    with pytest.raises(ValueError, match="sample"):
        weight_sign_statistics(2, samples, np.random.default_rng(0))


def test_negative_weight_probability_binomial_oracle():
    # negative product iff an odd number of factors equal -2 (prob 1/6 each)
    for n in range(1, 13):
        direct = sum(
            math.comb(n, k) * (1 / 6) ** k * (5 / 6) ** (n - k)
            for k in range(1, n + 1, 2)
        )
        assert negative_weight_probability(n) == pytest.approx(direct, abs=1e-13)
    assert negative_weight_probability(3) == pytest.approx(19 / 54, abs=1e-15)


def test_sign_statistics_exact_fields():
    rng = np.random.default_rng(0)
    stats = weight_sign_statistics(4, 2000, rng)
    assert stats.n_sites == 4
    assert stats.samples == 2000
    assert stats.p_negative_exact == pytest.approx(0.5 * (1 - (2 / 3) ** 4), abs=1e-15)
    assert stats.p_negative_exact + stats.p_positive_exact == pytest.approx(1.0)
    assert stats.mean_log_abs_exact == pytest.approx(-2.6238263546969742, abs=1e-12)
    assert stats.std_log_abs_lognormal == pytest.approx(
        math.sqrt(4 / 6) * math.log(5), abs=1e-12
    )


def test_sign_statistics_monte_carlo_matches_exact():
    rng = np.random.default_rng(1)
    for n in (1, 3, 6):
        stats = weight_sign_statistics(n, 40000, rng)
        se = math.sqrt(stats.p_negative_exact * stats.p_positive_exact / 40000)
        assert abs(stats.p_negative - stats.p_negative_exact) < 4 * se
        assert stats.p_negative + stats.p_positive == pytest.approx(1.0)
        assert stats.mean_log_abs == pytest.approx(
            stats.mean_log_abs_exact, abs=5 * stats.std_log_abs / math.sqrt(40000) + 1e-6
        )


def test_mean_log_abs_exact_single_site():
    stats = weight_sign_statistics(1, 10, np.random.default_rng(2))
    # (2/3) log(1/4) + (1/6) log 5 per site
    assert stats.mean_log_abs_exact == pytest.approx(-0.6559565886742436, abs=1e-12)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [1, 2])
def test_exact_apply_sum_recovers_channel_action(seed, n):
    """Contracting the means of the exact label distributions reproduces E(rho)."""
    rng = np.random.default_rng(seed)
    ch = random_unitary_channel(n, rng)
    rho = random_density_matrix(n, rng)
    choi = choi_mean_from_histogram(exact_pauli_record_distribution(ch), n)
    state = np.einsum("k,kij->ij", exact_pauli_snapshot_distribution(rho),
                      key_matrices(np.arange(6**n), n))
    wss = WeightedSnapshotSum("apply", n, _choi_operand(choi, n), _coefficients(state, n))
    assert la.norm(wss.materialize() - apply_channel(ch, rho)) < 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_exact_compose_sum_recovers_composition(seed):
    rng = np.random.default_rng(seed)
    ch_x = random_unitary_channel(1, rng)
    ch_y = random_unitary_channel(1, rng)
    composed = Channel(
        tuple(ky @ kx for kx in ch_x.kraus for ky in ch_y.kraus)
    )
    wss = WeightedSnapshotSum(
        "compose",
        1,
        _choi_operand(choi_mean_from_histogram(exact_pauli_record_distribution(ch_x), 1), 1),
        _choi_operand(choi_mean_from_histogram(exact_pauli_record_distribution(ch_y), 1), 1),
    )
    target = choi_of_channel(composed).matrix / 2
    assert la.norm(wss.materialize() - target) < 1e-10


@pytest.mark.parametrize("mode", ["apply", "compose"])
def test_weighted_sum_keeps_only_the_product(mode):
    """The two operands can be freed before the dense expansion: the
    transfer-matrix product is taken when the sum is built, and
    ``materialize`` gives the same matrix after the operands are gone."""
    rng = np.random.default_rng(3)
    n = 2
    ch = random_unitary_channel(n, rng)
    left = _choi_operand(choi_of_channel(ch).matrix / 2**n, n)
    right = (_coefficients(random_density_matrix(n, rng), n) if mode == "apply"
             else _choi_operand(choi_of_channel(random_unitary_channel(n, rng)).matrix / 2**n, n))
    expected = WeightedSnapshotSum(mode, n, left.copy(), right.copy()).materialize()
    wss = WeightedSnapshotSum(mode, n, left, right)
    assert wss.mode == mode
    refs = [weakref.ref(left), weakref.ref(right)]
    del left, right
    assert all(ref() is None for ref in refs)
    assert np.array_equal(wss.materialize(), expected)


def test_apply_sampled_identity_channel():
    rng = np.random.default_rng(5)
    ch = named_channel("identity", 1)
    rho = basis_projector("0")
    ps = acquire_process_shadow(ch, 20000, "pauli", "pauli", rng)
    ss = acquire_shadow(rho, 20000, "pauli", rng)
    wss = apply_process_to_state_shadow(ps, ss)
    assert (wss.mode, wss.n_qubits) == ("apply", 1)
    est = wss.materialize()
    assert np.trace(est).real == pytest.approx(1.0, abs=0.1)
    assert la.norm(est - rho, 2) < 0.1


def test_compose_sampled_bit_flips_cancel():
    rng = np.random.default_rng(6)
    ch = named_channel("pauli-x", 1)
    ps_x = acquire_process_shadow(ch, 30000, "pauli", "pauli", rng)
    ps_y = acquire_process_shadow(ch, 30000, "pauli", "pauli", rng)
    wss = compose_process_shadows(ps_x, ps_y)
    target = choi_of_channel(named_channel("identity", 1)).matrix / 2
    assert la.norm(wss.materialize() - target, 2) < 0.2


def test_apply_single_pair_matches_dense_contraction(rng):
    """One record paired with one snapshot: the oracle's term equals the
    dense formula, and so does the contraction of the two means."""
    ch = named_channel("hadamard", 1)
    ps = acquire_process_shadow(ch, 1, "pauli", "pauli", rng)
    ss = acquire_shadow(basis_projector("0"), 1, "pauli", rng)
    terms = list(iter_terms("apply", ps, ss))
    assert len(terms) == 1
    weight, snap = terms[0]
    streamed = weight * snap
    zeta = materialize_choi_shadow(ps.records[0])
    sigma = materialize_snapshot(ss.snapshots[0])
    joint = (np.kron(sigma.T, np.eye(2)) @ zeta).reshape(2, 2, 2, 2)
    dense = 2.0 * np.einsum("aiaj->ij", joint)  # traces out the input register
    assert la.norm(streamed - dense) < 1e-12
    assert la.norm(apply_process_to_state_shadow(ps, ss).materialize() - dense) < 1e-12


def test_iter_terms_sum_equals_materialize(rng):
    """The mean of the paper's signed-weight terms equals the contraction of
    the sample means, for every pair of frame ensembles."""
    for n in (1, 2):
        ch = random_unitary_channel(n, rng)
        rho = random_density_matrix(n, rng)
        for ens_in, ens_out in ENSEMBLE_PAIRS:
            ps = acquire_process_shadow(ch, 6, ens_in, ens_out, rng)
            ss = acquire_shadow(rho, 5, ens_in, rng)
            wss = apply_process_to_state_shadow(ps, ss)
            assert la.norm(_term_mean("apply", ps, ss) - wss.materialize()) < 1e-10

            ps_b = acquire_process_shadow(ch, 4, ens_out, ens_in, rng)
            comp = compose_process_shadows(ps, ps_b)
            assert la.norm(_term_mean("compose", ps, ps_b) - comp.materialize()) < 1e-10


def test_histogram_only_sum_has_no_terms():
    """A sum built from exact distributions carries means, not sampled terms:
    the uniform record histogram is the completely depolarizing channel."""
    choi = choi_mean_from_histogram(np.full((6, 6), 1 / 36), 1)
    state = np.einsum("k,kij->ij", np.full(6, 1 / 6), TAU1)
    out = WeightedSnapshotSum("apply", 1, _choi_operand(choi, 1),
                              _coefficients(state, 1)).materialize()
    assert la.norm(out - np.eye(2) / 2) < 1e-12


@pytest.mark.parametrize("ens_in,ens_out", ENSEMBLE_PAIRS)
def test_apply_is_channel_of_choi_of_the_means(rng, ens_in, ens_out):
    """The transfer-matrix product agrees with the Choi isomorphism applied to
    the two dense means, up to summation order."""
    ch = random_unitary_channel(2, rng)
    ps = acquire_process_shadow(ch, 40, ens_in, ens_out, rng)
    ss = acquire_shadow(random_density_matrix(2, rng), 30, ens_in, rng)
    out = apply_process_to_state_shadow(ps, ss).materialize()
    dense = channel_of_choi(reconstruct_choi(ps), reconstruct(ss))
    assert np.max(np.abs(out - dense)) < 1e-12


def test_compose_rejects_mismatched_sizes(rng):
    ps_a = acquire_process_shadow(named_channel("identity", 1), 3, "pauli", "pauli", rng)
    ps_b = acquire_process_shadow(named_channel("identity", 2), 3, "pauli", "pauli", rng)
    with pytest.raises(ValueError):
        compose_process_shadows(ps_a, ps_b)
