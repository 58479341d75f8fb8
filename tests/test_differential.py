"""Differential tests: every estimator against the dense per-record reference.

The reference materializes each record's snapshots one at a time with
``materialize_snapshot`` / ``dense_reference.materialize_choi_shadow`` and
contracts the dense matrices directly, so it shares no aggregation code
with the estimators it checks.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dense_reference import materialize_choi_shadow, random_hermitian
from procshadow.applications import (
    CorrelatorSpec,
    _purity_kernel,
    multitime_correlator_exact_input,
    multitime_correlator_shadow_input,
    purity_estimate,
)
from procshadow.channels import named_channel, random_full_rank_channel, random_unitary_channel
from procshadow.process_shadows import (
    ProcessShadow,
    acquire_process_shadow,
    estimate_output_state,
    reconstruct_choi,
    single_shot_functional_values,
)
from procshadow.qcore import PauliString, random_density_matrix
from procshadow.shadow_algebra import apply_process_to_state_shadow, compose_process_shadows
from procshadow.state_shadows import (
    ShadowEstimate,
    acquire_shadow,
    materialize_snapshot,
    median_of_means,
    reconstruct,
    single_shot_expectations,
)

TOL = 1e-10
ENSEMBLES = ("pauli", "clifford")


def _dense_sides(ps):
    a = [materialize_snapshot(r.in_snapshot) for r in ps.records]
    b = [materialize_snapshot(r.out_snapshot) for r in ps.records]
    return a, b


def _ref_functional_values(ps, rho, obs):
    d = 2**ps.n_qubits
    a, b = _dense_sides(ps)
    return np.array([d * np.real(np.trace(x @ rho) * np.trace(y @ obs))
                     for x, y in zip(a, b)])


def _ref_output_state(ps, rho):
    d = 2**ps.n_qubits
    a, b = _dense_sides(ps)
    return d * sum(np.real(np.trace(x @ rho)) * y for x, y in zip(a, b)) / len(ps)


def _ref_choi(ps):
    return sum(materialize_choi_shadow(r) for r in ps.records) / len(ps)


def _assert_close(got, want):
    assert np.max(np.abs(np.asarray(got) - np.asarray(want))) < TOL


def _random_pauli(n, rng):
    return PauliString("".join("IXYZ"[i] for i in rng.integers(0, 4, n)))


def _channel(n, rng, full_rank):
    # the full-rank construction stops at two qubits, the Haar unitary at four
    if full_rank and n <= 2:
        return random_full_rank_channel(n, rng)
    if n > 4:
        return named_channel("amplitude-damping", n, 0.3)
    return random_unitary_channel(n, rng)


@given(n=st.integers(1, 3), ens_in=st.sampled_from(ENSEMBLES),
       ens_out=st.sampled_from(ENSEMBLES), m=st.integers(1, 60),
       full_rank=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=4, ens_in="clifford", ens_out="clifford", m=6, full_rank=False, seed=4)
def test_process_estimators_match_dense_reference(n, ens_in, ens_out, m,
                                                  full_rank, seed):
    rng = np.random.default_rng(seed)
    ch = _channel(n, rng, full_rank)
    ps = acquire_process_shadow(ch, m, ens_in, ens_out, rng)
    rho = random_density_matrix(n, rng)
    obs = random_hermitian(n, rng)

    _assert_close(reconstruct_choi(ps).matrix, _ref_choi(ps))
    _assert_close(estimate_output_state(ps, rho), _ref_output_state(ps, rho))
    _assert_close(single_shot_functional_values(ps, rho, obs),
                  _ref_functional_values(ps, rho, obs))

    early, late = _random_pauli(n, rng), _random_pauli(n, rng)
    spec = CorrelatorSpec(rho, early, late)
    groups = int(rng.integers(1, min(3, m) + 1))
    want = median_of_means(
        _ref_functional_values(ps, rho @ early.matrix, late.matrix), groups)
    assert abs(multitime_correlator_exact_input(ps, spec, groups) - want) < TOL


@given(n=st.integers(1, 3), ensemble=st.sampled_from(ENSEMBLES),
       m=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
def test_state_estimators_match_dense_reference(n, ensemble, m, seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(n, rng)
    obs = random_hermitian(n, rng)
    est = acquire_shadow(rho, m, ensemble, rng)
    snaps = [materialize_snapshot(s) for s in est.snapshots]
    _assert_close(reconstruct(est), sum(snaps) / m)
    _assert_close(single_shot_expectations(est, obs),
                  [np.real(np.trace(s @ obs)) for s in snaps])


@given(n=st.integers(1, 3), m=st.integers(1, 30), k=st.integers(1, 30),
       ens=st.tuples(*[st.sampled_from(ENSEMBLES)] * 5), seed=st.integers(0, 2**32 - 1))
@example(n=4, m=8, k=8, ens=("pauli",) * 5, seed=4)
@example(n=4, m=6, k=5, ens=("clifford", "pauli", "pauli", "clifford", "clifford"), seed=6)
@example(n=4, m=5, k=6, ens=("pauli", "clifford", "clifford", "clifford", "pauli"), seed=7)
@example(n=4, m=5, k=5, ens=("clifford",) * 5, seed=8)
@example(n=5, m=3, k=4, ens=("pauli",) * 5, seed=9)
def test_shadow_algebra_matches_dense_reference(n, m, k, ens, seed):
    """Apply and compose against the per-pair dense sums; the fixed examples
    cover the transfer-matrix products at n=4 for every pair of ensembles
    on the first process shadow, and a Pauli/Pauli compose at n=5."""
    rng = np.random.default_rng(seed)
    d = 2**n
    ps_x = acquire_process_shadow(_channel(n, rng, False), m, ens[0], ens[1], rng)
    ps_y = acquire_process_shadow(_channel(n, rng, True), k, ens[2], ens[3], rng)
    ss = acquire_shadow(random_density_matrix(n, rng), k, ens[4], rng)
    ax, bx = _dense_sides(ps_x)
    ay, by = _dense_sides(ps_y)
    sig = [materialize_snapshot(s) for s in ss.snapshots]

    applied = sum(d * np.real(np.trace(a @ s)) * b
                  for a, b in zip(ax, bx) for s in sig) / (m * k)
    _assert_close(apply_process_to_state_shadow(ps_x, ss).materialize(), applied)

    composed = sum(d * np.real(np.trace(b1 @ a2)) * np.kron(a1.T, b2)
                   for a1, b1 in zip(ax, bx) for a2, b2 in zip(ay, by)) / (m * k)
    _assert_close(compose_process_shadows(ps_x, ps_y).materialize(), composed)


@given(n=st.integers(1, 3), m=st.integers(1, 30), k=st.integers(1, 30),
       groups=st.integers(1, 10), ens=st.tuples(*[st.sampled_from(ENSEMBLES)] * 3),
       seed=st.integers(0, 2**32 - 1))
def test_shadow_input_correlator_matches_dense_reference(n, m, k, groups, ens, seed):
    rng = np.random.default_rng(seed)
    d = 2**n
    groups = min(groups, m, k)
    ps = acquire_process_shadow(_channel(n, rng, True), m, ens[0], ens[1], rng)
    ss = acquire_shadow(random_density_matrix(n, rng), k, ens[2], rng)
    early, late = _random_pauli(n, rng), _random_pauli(n, rng)
    a, b = _dense_sides(ps)
    sig = [materialize_snapshot(s) for s in ss.snapshots]
    gm, gk = m // groups, k // groups
    means = [sum(d * np.real(np.trace(a[j] @ sig[t] @ early.matrix))
                 * np.real(np.trace(b[j] @ late.matrix))
                 for j in range(g * gm, (g + 1) * gm)
                 for t in range(g * gk, (g + 1) * gk)) / (gm * gk)
             for g in range(groups)]
    got = multitime_correlator_shadow_input(ps, ss, early, late, groups)
    assert abs(got - np.median(means)) < TOL


def _ref_u_statistic(t, c):
    """(sum_jk c_j c_k T_jk - sum_j c_j^2 T_jj) / (C^2 - sum_j c_j^2)."""
    pairs = c.sum()**2 - np.sum(c**2)
    return (c @ t @ c - np.sum(c**2 * np.diag(t))) / pairs if pairs else np.nan


@given(n=st.integers(1, 3), m=st.integers(2, 30), groups=st.integers(1, 10),
       ens_in=st.sampled_from(ENSEMBLES), ens_out=st.sampled_from(ENSEMBLES),
       seed=st.integers(0, 2**32 - 1))
def test_purity_u_statistic_matches_dense_reference(n, m, groups, ens_in, ens_out, seed):
    rng = np.random.default_rng(seed)
    groups = min(groups, m // 2)
    ps = acquire_process_shadow(_channel(n, rng, True), m, ens_in, ens_out, rng)
    z = np.array([materialize_choi_shadow(r) for r in ps.records])
    t = np.real(np.einsum("jab,kba->jk", z, z))  # Tr[zeta_j zeta_k]
    size = m // groups
    blocks = [t[g * size:(g + 1) * size, g * size:(g + 1) * size] for g in range(groups)]
    want = np.median([(x.sum() - np.trace(x)) / (size * (size - 1)) for x in blocks])
    assert abs(purity_estimate(ps, groups) / 4**n - want) < TOL

    u_statistic = _purity_kernel(ps)
    for c in (np.ones(m), np.bincount(rng.integers(0, m, m), minlength=m).astype(float)):
        got, want = u_statistic(c), _ref_u_statistic(t, c)
        assert (np.isnan(got) and np.isnan(want)) or abs(got - want) < TOL


@pytest.mark.parametrize("name,value", [("amplitude-damping", 0.3), ("hadamard", None)])
def test_five_qubit_pauli_estimators_match_dense_reference(name, value):
    """n=5 is above the exact-table size, so records are simulated one by one."""
    rng = np.random.default_rng(5)
    ch = named_channel(name, 5, value)
    ps = acquire_process_shadow(ch, 12, "pauli", "pauli", rng)
    rho = random_density_matrix(5, rng)
    _assert_close(reconstruct_choi(ps).matrix, _ref_choi(ps))
    _assert_close(estimate_output_state(ps, rho), _ref_output_state(ps, rho))


def test_five_qubit_estimators_stay_within_memory_bounds():
    """2e4 random Pauli records at n=5: the Choi mean and the functional
    values expand each distinct label into 2^n Pauli terms, so memory
    does not grow with one dense matrix per label."""
    n, m = 5, 20000
    rng = np.random.default_rng(7)
    ps = ProcessShadow._of(ShadowEstimate(rng.integers(0, 6**n, m), n),
                           ShadowEstimate(rng.integers(0, 6**n, m), n))
    rho = random_density_matrix(n, rng)
    for run, bound_mb in ((lambda: reconstruct_choi(ps), 150),
                          (lambda: single_shot_functional_values(ps, rho, rho), 20)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 1e6, f"peak {peak / 1e6:.1f} MB"
