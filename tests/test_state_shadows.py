"""Single-state shadow estimation: snapshots, inverse maps, reconstruction."""

import functools
import math

import numpy as np
import numpy.linalg as la
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dense_reference import (born_probabilities, check_table_draws,
                             exact_pauli_snapshot_distribution, frame_unitary, inverse_map_pauli)
from procshadow import state_shadows as shad
from procshadow.ensembles import (PauliFrame, enumerate_clifford_group, frame_unitaries,
                                  sample_frames)
from procshadow.qcore import InfeasibleError, PauliString, basis_projector, random_density_matrix
from procshadow.state_shadows import (
    PROJ1,
    TAU1,
    ShadowEstimate,
    StateSnapshot,
    acquire_shadow,
    estimate_observable,
    inverse_map_clifford,
    inverse_map_pauli_factorwise,
    materialize_snapshot,
    median_of_means,
    qubit_key,
    reconstruct,
    register_key,
    single_shot_expectations,
)

Z = np.diag([1.0, -1.0])


def test_inverse_map_pauli_formula():
    a = np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, 0.7]])
    expected = 3 * a - np.trace(a) * np.eye(2)
    assert la.norm(inverse_map_pauli(a) - expected) < 1e-14


def test_inverse_map_clifford_formula():
    rng = np.random.default_rng(0)
    for n in (1, 2):
        d = 2**n
        a = random_density_matrix(n, rng)
        expected = (d + 1) * a - np.trace(a) * np.eye(d)
        assert la.norm(inverse_map_clifford(a) - expected) < 1e-13
        stack = np.array([a, random_density_matrix(n, rng), np.eye(d)])
        assert np.array_equal(inverse_map_clifford(stack),
                              [inverse_map_clifford(x) for x in stack])


def test_inverse_map_pauli_factorwise_matches_tensor():
    rng = np.random.default_rng(1)
    a = random_density_matrix(1, rng)
    b = random_density_matrix(1, rng)
    lhs = inverse_map_pauli_factorwise(np.kron(a, b))
    rhs = np.kron(inverse_map_pauli(a), inverse_map_pauli(b))
    assert la.norm(lhs - rhs) < 1e-12


def test_snapshot_matrices_frozen():
    snaps = TAU1
    assert snaps.shape == (6, 2, 2)
    # key order: X+, X-, Y+, Y-, Z+, Z-
    assert la.norm(snaps[0] - np.array([[0.5, 1.5], [1.5, 0.5]])) < 1e-12
    assert la.norm(snaps[2] - np.array([[0.5, -1.5j], [1.5j, 0.5]])) < 1e-12
    assert la.norm(snaps[4] - np.diag([2.0, -1.0])) < 1e-12
    assert la.norm(snaps[5] - np.diag([-1.0, 2.0])) < 1e-12
    # every snapshot has unit trace
    for k in range(6):
        assert np.trace(snaps[k]) == pytest.approx(1.0)


def test_projector_matrices_are_prepared_states():
    # PROJ1[k] is the projector onto the state prepared for qubit key k,
    # and TAU1[k] is its single-qubit inverse-map image 3 PROJ1[k] - I
    for axis in "XYZ":
        for bit in (0, 1):
            v = frame_unitary(PauliFrame(axis))[bit].conj()  # U^dag|b>
            k = qubit_key(axis, bit)
            assert la.norm(PROJ1[k] - np.outer(v, v.conj())) < 1e-15
            assert la.norm(TAU1[k] - (3 * np.outer(v, v.conj()) - np.eye(2))) < 1e-15


def test_key_encoding():
    assert qubit_key("X", 0) == 0
    assert qubit_key("Y", 1) == 3
    assert qubit_key("Z", 0) == 4
    # qubit 0 is the most significant base-6 digit
    assert register_key("XZ", "01") == 6 * 0 + 5
    assert register_key("ZX", "10") == 6 * 5 + 0
    decoded = ShadowEstimate(np.arange(36), 2).views()
    assert (decoded[5][0].axes, decoded[5][1]) == ("XZ", "01")
    for key, (frame, bits) in enumerate(decoded):
        assert register_key(frame.axes, bits) == key


def _rebuilt(side, ensemble):
    """The side encoded again by ``of_stack`` from what ``distinct()`` decodes."""
    index, frames, frame_of, bits = side.distinct()
    if ensemble == "pauli":
        frames = np.array([["XYZ".index(a) for a in axes] for axes in frames],
                          dtype=np.int64).reshape(-1, side.n_qubits)
    outcomes = np.array([int(b, 2) for b in bits], dtype=np.int64)
    return ShadowEstimate.of_stack(ensemble, frames[frame_of][index], outcomes[index])


def _assert_same_side(got, want):
    assert got.n_qubits == want.n_qubits and got.ensemble == want.ensemble
    assert np.array_equal(got.labels, want.labels)
    assert (got.frames is None and want.frames is None) or np.array_equal(got.frames, want.frames)


@pytest.mark.parametrize("ensemble", ["pauli", "clifford"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_distinct_inverts_of_stack(ensemble, n):
    """``distinct`` and ``of_stack`` are an inverse pair: the decoded
    frames and bits encode to the same labels and tableau stack."""
    rng = np.random.default_rng(n)
    m = 300
    side = ShadowEstimate.of_stack(ensemble, sample_frames(n, ensemble, m, rng),
                                   rng.integers(0, 2**n, m))
    index, frames, frame_of, bits = side.distinct()
    assert len(index) == m and len(frame_of) == len(bits) == index.max() + 1
    assert len(frames) == len(set(frame_of.tolist())) == frame_of.max() + 1
    keys = frames if ensemble == "pauli" else [f.tobytes() for f in frames]
    assert len(set(keys)) == len(frames)  # each used frame once
    assert all(len(b) == n and not b.strip("01") for b in bits)
    _assert_same_side(_rebuilt(side, ensemble), side)


def test_distinct_inverts_of_stack_over_the_one_qubit_clifford_group():
    """Every one of the 24 one-qubit tableaus with both outcomes, repeated."""
    group = enumerate_clifford_group()
    frames = np.concatenate([group, group[::-1], group])
    outcomes = np.arange(len(frames)) % 2
    side = ShadowEstimate.of_stack("clifford", frames, outcomes)
    assert np.array_equal(side.frames, group)
    _, used, frame_of, bits = side.distinct()
    assert np.array_equal(used, group) and not used.flags.writeable
    assert not np.shares_memory(used, side.frames)
    assert sorted(zip(frame_of.tolist(), bits)) == [(f, b) for f in range(24) for b in "01"]
    _assert_same_side(_rebuilt(side, "clifford"), side)


@pytest.mark.parametrize("ensemble", ["pauli", "clifford"])
def test_distinct_inverts_of_stack_with_repeated_frames(ensemble):
    """Few frames, many snapshots: each used frame is decoded once."""
    rng = np.random.default_rng(7)
    few = sample_frames(2, ensemble, 3, rng)
    side = ShadowEstimate.of_stack(ensemble, few[rng.integers(0, 3, 200)],
                                   rng.integers(0, 4, 200))
    _, frames, _, _ = side.distinct()
    assert len(frames) <= 3
    _assert_same_side(_rebuilt(side, ensemble), side)


@pytest.mark.parametrize("ensemble", ["pauli", "clifford"])
def test_distinct_of_an_empty_side(ensemble):
    n = 2
    shape = (0, n) if ensemble == "pauli" else (0, 2 * n, 2 * n + 1)
    side = ShadowEstimate.of_stack(ensemble, np.empty(shape, dtype=np.uint8),
                                   np.empty(0, dtype=np.int64))
    index, frames, frame_of, bits = side.distinct()
    assert len(index) == len(frames) == len(frame_of) == len(bits) == 0
    assert side.views() == []
    _assert_same_side(_rebuilt(side, ensemble), side)


def test_materialize_snapshot_matches_inverse_map(rng):
    rho = random_density_matrix(1, rng)
    for ens, inv in (("pauli", inverse_map_pauli), ("clifford", inverse_map_clifford)):
        s = acquire_shadow(rho, 1, ens, rng).snapshots[0]
        u = frame_unitary(s.frame)
        prepared = u.conj().T @ basis_projector(s.outcome) @ u
        assert la.norm(materialize_snapshot(s) - inv(prepared)) < 1e-12


def test_exact_pauli_snapshot_distribution_frozen():
    dist = exact_pauli_snapshot_distribution(basis_projector("0"))
    assert dist == pytest.approx([1 / 6, 1 / 6, 1 / 6, 1 / 6, 1 / 3, 0.0], abs=1e-12)


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=6))
def test_exact_pauli_snapshot_distribution_normalized(seed, n):
    rho = random_density_matrix(n, np.random.default_rng(seed))
    dist = exact_pauli_snapshot_distribution(rho)
    assert dist.shape == (6**n,)
    assert np.sum(dist) == pytest.approx(1.0, abs=1e-10)
    assert np.all(dist >= -1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 6])
def test_exact_pauli_snapshot_distribution_matches_protocol(n):
    """Entries against the protocol: uniform frame, then Born probability."""
    rng = np.random.default_rng(n)
    rho = random_density_matrix(n, rng)
    dist = exact_pauli_snapshot_distribution(rho)
    keys = np.arange(6**n) if n <= 2 else rng.integers(0, 6**n, size=40)
    for key, (frame, bits) in zip(keys, ShadowEstimate(keys, n).views()):
        born = born_probabilities(frame_unitary(frame), rho)[int(bits, 2)]
        assert dist[key] == pytest.approx(born / 3**n, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_exhaustive_pauli_average_recovers_state(seed):
    """Averaging snapshots over the exact outcome distribution returns rho."""
    rho = random_density_matrix(1, np.random.default_rng(seed))
    dist = exact_pauli_snapshot_distribution(rho)
    avg = np.einsum("k,kij->ij", dist, TAU1)
    assert la.norm(avg - rho) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_exhaustive_clifford_average_recovers_state(seed):
    rho = random_density_matrix(1, np.random.default_rng(seed))
    avg = np.zeros((2, 2), dtype=complex)
    frames = frame_unitaries("clifford", enumerate_clifford_group())
    for u in frames:
        probs = born_probabilities(u, rho)
        for b, pb in zip("01", probs):
            prepared = u.conj().T @ basis_projector(b) @ u
            avg += pb * inverse_map_clifford(prepared) / len(frames)
    assert la.norm(avg - rho) < 1e-12


def test_acquire_shadow_basics(rng):
    rho = random_density_matrix(2, rng)
    est = acquire_shadow(rho, 50, "pauli", rng)
    assert len(est) == 50
    assert est.n_qubits == 2
    assert est.labels.shape == (50,)


@pytest.mark.parametrize("ensemble", ["pauli", "clifford"])
def test_acquire_shadow_rejects_negative_count(rng, ensemble):
    with pytest.raises(ValueError, match="record count must be non-negative, got -5"):
        acquire_shadow(np.diag([1.0, 0.0]), -5, ensemble, rng)


@pytest.mark.parametrize("ensemble", ["pauli", "clifford"])
def test_acquire_shadow_refuses_a_register_beyond_the_cap(rng, ensemble):
    with pytest.raises(InfeasibleError, match="7 qubits exceeds the register cap"):
        acquire_shadow(np.eye(128) / 128, 10, ensemble, rng)


def test_acquire_shadow_deterministic():
    rho = np.diag([0.7, 0.3])
    a = acquire_shadow(rho, 10, "pauli", np.random.default_rng(9))
    b = acquire_shadow(rho, 10, "pauli", np.random.default_rng(9))
    assert np.array_equal(a.labels, b.labels)


def test_take_prefix(rng):
    est = acquire_shadow(np.diag([1.0, 0.0]), 20, "pauli", rng)
    head = est.take(5)
    assert len(head) == 5
    assert np.array_equal(head.labels, est.labels[:5])


@pytest.mark.parametrize("m", [-1, 21])
def test_take_rejects_out_of_range_prefix(rng, m):
    est = acquire_shadow(np.diag([1.0, 0.0]), 20, "clifford", rng)
    with pytest.raises(ValueError, match="cannot take"):
        est.take(m)
    assert len(est.take(0)) == 0 and len(est.take(20)) == 20


def test_empty_clifford_prefix_materializes_no_snapshots(rng):
    est = acquire_shadow(np.diag([1.0, 0.0]), 20, "clifford", rng).take(0)
    index, pauli, coef = est.pauli_terms()
    assert index.shape == (0,) and pauli.shape == coef.shape == (2, 0)
    assert single_shot_expectations(est, Z).shape == (0,)


@pytest.mark.parametrize("ensemble", ["pauli", "clifford"])
def test_pauli_terms_are_kept_read_only(rng, ensemble):
    est = acquire_shadow(np.diag([0.75, 0.25]), 40, ensemble, rng)
    terms = est.pauli_terms()
    assert all(kept is first for kept, first in zip(est.pauli_terms(), terms))
    for array in terms:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_clifford_labels_expand_to_stabilizer_terms(n):
    """Each distinct Clifford label has 2^n Pauli terms: 1/d on I and
    +-(d+1)/d on the other stabilizer elements; they rebuild the snapshot."""
    rng = np.random.default_rng(40 + n)
    est = acquire_shadow(random_density_matrix(n, rng), 30, "clifford", rng)
    index, pauli, coef = est.pauli_terms()
    d = 2**n
    assert pauli.shape == coef.shape == (d, index.max() + 1)
    snaps = [materialize_snapshot(s) for s in est.snapshots]
    for i, u in enumerate(index):
        assert len(set(pauli[:, u])) == d
        identity = pauli[:, u] == 0
        assert identity.sum() == 1 and abs(coef[identity, u][0] - 1 / d) < 1e-12
        assert np.allclose(np.abs(coef[~identity, u]), (d + 1) / d, atol=1e-12, rtol=0)
        letters = ["".join("IXYZ"[(p >> 2 * (n - 1 - q)) & 3] for q in range(n))
                   for p in pauli[:, u]]
        rebuilt = sum(c * PauliString(s).matrix for c, s in zip(coef[:, u], letters))
        assert np.max(np.abs(rebuilt - snaps[i])) < 1e-12


def test_reconstruct_converges():
    rho = basis_projector("0")
    rng = np.random.default_rng(10)
    est = acquire_shadow(rho, 20000, "pauli", rng)
    assert la.norm(reconstruct(est) - rho) < 0.05


def test_reconstruct_clifford_converges():
    rho = basis_projector("0")
    rng = np.random.default_rng(11)
    est = acquire_shadow(rho, 20000, "clifford", rng)
    assert la.norm(reconstruct(est) - rho) < 0.05


def test_reconstruct_is_snapshot_mean(rng):
    rho = random_density_matrix(1, rng)
    est = acquire_shadow(rho, 7, "clifford", rng)
    mean = sum(materialize_snapshot(s) for s in est.snapshots) / 7
    assert la.norm(reconstruct(est) - mean) < 1e-12


def test_single_shot_expectations_values(rng):
    # measuring Z on snapshots of |0><0| can only give 3, -3 or 0
    est = acquire_shadow(basis_projector("0"), 200, "pauli", rng)
    vals = single_shot_expectations(est, Z)
    assert set(np.round(vals, 12)) <= {3.0, -3.0, 0.0}
    assert np.mean(vals) == pytest.approx(1.0, abs=0.3)


@pytest.mark.parametrize("ensemble", ["pauli", "clifford"])
def test_operator_on_another_register_is_refused(rng, ensemble):
    """One register check per side: it names the operator's shape and the
    shadow's qubit count, instead of a failed reshape."""
    est = acquire_shadow(basis_projector("0"), 10, ensemble, rng)
    message = r"operator of shape \(4, 4\) does not match the shadow's n_qubits=1"
    for estimator in (single_shot_expectations, estimate_observable):
        with pytest.raises(ValueError, match=message):
            estimator(est, np.eye(4))


def test_estimate_observable_matches_single_shot_mean(rng):
    rho = random_density_matrix(1, rng)
    est = acquire_shadow(rho, 31, "pauli", rng)
    obs = PauliString("X").matrix
    direct = np.mean(single_shot_expectations(est, obs))
    assert estimate_observable(est, obs) == pytest.approx(direct, abs=1e-12)


def test_median_of_means_frozen_example():
    # 7 values, 3 groups of 2: the trailing odd value is dropped,
    # group means are 1.5, 3.5, 5.5 and the median is 3.5
    assert median_of_means(np.arange(1.0, 8.0), 3) == pytest.approx(3.5)


def test_median_of_means_single_group_is_mean():
    vals = np.array([1.0, 2.0, 6.0])
    assert median_of_means(vals, 1) == pytest.approx(3.0)


def test_median_of_means_outlier_robust(rng):
    vals = rng.normal(size=901)
    vals[0] = 1e6
    assert abs(median_of_means(vals, 9)) < 1.0


def test_median_of_means_rejects_too_many_groups():
    with pytest.raises(ValueError):
        median_of_means(np.arange(3.0), 5)


def test_shadow_estimate_rejects_mixed_frames(rng):
    s1 = acquire_shadow(basis_projector("0"), 1, "pauli", rng).snapshots[0]
    s2 = acquire_shadow(basis_projector("0"), 1, "clifford", rng).snapshots[0]

    def encode(snapshots):
        return ShadowEstimate.encode([s.frame for s in snapshots],
                                     [s.outcome for s in snapshots], 1)

    for snapshots in ([s1, s2], [s2, s1]):
        with pytest.raises(ValueError, match="cannot mix Pauli and Clifford frames"):
            encode(snapshots)
    assert encode([s2, s2]).ensemble == "clifford"
    assert encode([]).ensemble == "pauli"


def test_snapshot_validation():
    with pytest.raises(ValueError):
        StateSnapshot(PauliFrame("XY"), "0")  # outcome length mismatch


@pytest.mark.parametrize("outcome", [["0"], ("1",), b"0", 0])
def test_snapshot_rejects_outcomes_that_are_not_str(outcome):
    with pytest.raises(ValueError, match="is not a str"):
        StateSnapshot(PauliFrame("X"), outcome)


@pytest.mark.parametrize("size,m", [(1, 5), (6, 1000), (36, 0), (1296, 777)])
def test_sample_table_matches_rng_choice(size, m):
    """The label sampler on the table of a random state on log6(size)
    qubits (size 1 is the empty register, one label): the same draws, and
    the same generator state after, as rng.choice over the exact table."""
    n = round(math.log(size, 6))
    rho = random_density_matrix(n, np.random.default_rng(size))
    p = exact_pauli_snapshot_distribution(rho) if n else np.ones(1)
    ref_rng, rng = np.random.default_rng(40 + m), np.random.default_rng(40 + m)
    expected = ref_rng.choice(size, size=m, p=p / p.sum())
    draws = shad._draw_pauli_keys(np.real(shad._pauli_vector(rho[None], n))[0], n, m, rng)
    assert np.array_equal(draws, expected)
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("n", range(1, 7))
def test_pauli_snapshots_match_rng_choice_over_exact_table(n):
    """Pauli acquisition draws the keys that rng.choice draws over the exact
    6^n table, up to the rounding of its CDF, and leaves the generator in
    the same state."""
    rho = random_density_matrix(n, np.random.default_rng(n))
    p = exact_pauli_snapshot_distribution(rho)
    for m in (0, 1, 7, 6**n - 1, 6**n, 2000):
        rng, ref_rng = np.random.default_rng(m), np.random.default_rng(m)
        check_table_draws(acquire_shadow(rho, m, "pauli", rng).labels, p, ref_rng.random(m))
        assert rng.random() == ref_rng.random()


class _FixedUniforms:
    """Stands in for a generator whose ``random(m)`` gives the m uniforms ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, m):
        assert m == self.u.size
        return self.u


@pytest.mark.parametrize("n", [7, 8])
def test_draws_near_one_skip_trailing_zero_probability_labels(n):
    """On |0...0> the key digit Z1 has probability zero on every qubit, so
    every prefix ends in a zero-width child.  Uniforms within 200 ulps of 1
    lie in the last interval, all digits Z0, also where the rounded sum of
    a prefix's children falls short of the prefix."""
    coeffs = functools.reduce(np.kron, [np.array([1.0, 0.0, 0.0, 1.0])] * n)
    u = 1 - np.arange(1, 200) * 2.0**-53
    keys = shad._draw_pauli_keys(coeffs, n, u.size, _FixedUniforms(u))
    assert np.all(shad._digits(keys, n) == qubit_key("Z", 0))


@pytest.mark.parametrize("bad", [[-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                                 [np.inf, 0.0, 0.0, 0.0], np.r_[1.0, np.zeros(4**8 - 2), np.nan]])
def test_sample_table_rejects_invalid_weights(rng, bad):
    """Pauli coefficients whose table has no positive finite mass (a negative
    or zero trace, an infinite one), or a NaN on a qubit that the first
    draw does not reach, are refused."""
    coeffs = np.array(bad)
    with pytest.raises(ValueError, match="positive finite sum"):
        shad._draw_pauli_keys(coeffs, round(math.log(coeffs.size, 4)), 3, rng)


def test_clifford_snapshots_match_exact_born_distribution(chi_square):
    """Clifford state snapshots of a mixed qubit state against the exact law
    over (frame, bit): 48 cells, chi-square on 47 degrees of freedom."""
    rho = random_density_matrix(1, np.random.default_rng(33))
    group = enumerate_clifford_group()
    exact = np.array([born_probabilities(u, rho)
                      for u in frame_unitaries("clifford", group)]) / 24
    est = acquire_shadow(rho, 48000, "clifford", np.random.default_rng(34))
    index = {t.tobytes(): i for i, t in enumerate(group)}
    frame = np.array([index[t.tobytes()] for t in est.frames])
    labels = est.labels
    stat, df = chi_square(np.bincount(2 * frame[labels >> 1] + (labels & 1), minlength=48),
                          exact)
    assert df == 47


def test_clifford_acquisition_is_deterministic():
    rho = random_density_matrix(3, np.random.default_rng(35))
    a, b = (acquire_shadow(rho, 200, "clifford", np.random.default_rng(36)) for _ in range(2))
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.frames, b.frames)
