"""Process shadows: two-sided snapshots of a channel and Choi-matrix estimation."""

import numpy as np
import numpy.linalg as la
import pytest

from dense_reference import (
    born_probabilities,
    check_table_draws,
    choi_mean_from_histogram,
    exact_pauli_record_distribution,
    frame_unitary,
    materialize_choi_shadow,
)
from procshadow.channels import channel_from_spec, named_channel, random_unitary_channel
from procshadow.process_shadows import (
    ProcessShadow,
    ShadowRecord,
    _simulate_records,
    acquire_process_shadow,
    estimate_channel_functional,
    estimate_output_state,
    reconstruct_choi,
    single_shot_functional_values,
    verify_bin_independence,
)
from procshadow.ensembles import (
    CliffordFrame,
    PauliFrame,
    enumerate_clifford_group,
    frame_unitaries,
    sample_frames,
)
from procshadow.qcore import (
    PauliString,
    apply_channel,
    basis_projector,
    choi_of_channel,
    random_density_matrix,
)
from procshadow.state_shadows import (ShadowEstimate, acquire_shadow, estimate_observable,
                                      register_key, single_shot_expectations)


def test_record_validation():
    with pytest.raises(ValueError):
        ShadowRecord("00", PauliFrame("X"), PauliFrame("X"), "0")
    r = ShadowRecord("0", PauliFrame("X"), PauliFrame("Z"), "1")
    assert isinstance(r.u_in, PauliFrame)
    assert r.n_qubits == 1


@pytest.mark.parametrize("b_in,b_out", [(["0"], "1"), ("0", ("1",)), ("0", b"1")])
def test_record_rejects_bits_that_are_not_str(b_in, b_out):
    tableau = sample_frames(1, "clifford", 1, np.random.default_rng(0))[0]
    frame = CliffordFrame(tableau[:, :-1], tableau[:, -1])
    with pytest.raises(ValueError, match="is not a str"):
        ShadowRecord(b_in, frame, frame, b_out)


def test_acquire_record_fields(rng):
    ch = named_channel("identity", 2)
    r = acquire_process_shadow(ch, 1, "pauli", "clifford", rng).records[0]
    assert len(r.b_in) == 2 and len(r.b_out) == 2
    assert isinstance(r.u_in, PauliFrame) and isinstance(r.u_out, CliffordFrame)


def test_choi_shadow_has_unit_trace(rng):
    ch = named_channel("hadamard", 1)
    for ens in ("pauli", "clifford"):
        r = acquire_process_shadow(ch, 1, ens, ens, rng).records[0]
        z = materialize_choi_shadow(r)
        assert z.shape == (4, 4)
        assert np.trace(z) == pytest.approx(1.0, abs=1e-10)


def test_exact_record_distribution_identity_frozen():
    """Selected entries of the exact (input key, output key) distribution."""
    dist = exact_pauli_record_distribution(named_channel("identity", 1))
    assert dist.shape == (6, 6)
    assert np.sum(dist) == pytest.approx(1.0, abs=1e-12)
    z0 = register_key("Z", "0")
    z1 = register_key("Z", "1")
    # prepare |0>, identity, measure in Z: outcome 0 is certain
    assert dist[z0, z0] == pytest.approx(1 / 18, abs=1e-12)
    assert dist[z0, z1] == pytest.approx(0.0, abs=1e-12)


def test_exact_record_distribution_hadamard_frozen():
    dist = exact_pauli_record_distribution(named_channel("hadamard", 1))
    z0 = register_key("Z", "0")
    x0 = register_key("X", "0")
    x1 = register_key("X", "1")
    # prepare |0>, rotate to |+>, measure in X: outcome 0 is certain
    assert dist[z0, x0] == pytest.approx(1 / 18, abs=1e-12)
    assert dist[z0, x1] == pytest.approx(0.0, abs=1e-12)


# the full-rank family stops at 2 qubits
@pytest.mark.parametrize("spec, n", [
    ("amplitude-damping:0.3", 1), ("amplitude-damping:0.3", 2), ("amplitude-damping:0.3", 3),
    ("random-full-rank:3", 1), ("random-full-rank:3", 2), ("depolarizing:0.2", 3)])
def test_exact_record_distribution_matches_protocol(spec, n):
    """Entries against the protocol: prepare, apply the channel, measure."""
    ch = channel_from_spec(spec, n)
    dist = exact_pauli_record_distribution(ch)
    rng = np.random.default_rng(n)
    pairs = (np.array(list(np.ndindex(6**n, 6**n))) if n <= 2
             else rng.integers(0, 6**n, size=(40, 2)))
    views = [ShadowEstimate(keys, n).views() for keys in pairs.T]
    for (kin, kout), (u_in, bits_in), (u_out, bits_out) in zip(pairs, *views):
        psi = frame_unitary(u_in)[int(bits_in, 2)].conj()  # U^dag|b>
        rho_out = apply_channel(ch, np.outer(psi, psi.conj()))
        born = born_probabilities(frame_unitary(u_out), rho_out)[int(bits_out, 2)]
        assert dist[kin, kout] == pytest.approx(born / 18**n, abs=1e-12)


@pytest.mark.parametrize("channel", [0, 1, 2, 3, 4, "amplitude-damping:0.3", "depolarizing:0.2"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_exhaustive_average_is_normalized_choi(channel, n):
    """The exact-distribution average of snapshots equals the Choi matrix / 2^n,
    for random unitaries (integer seeds) and multi-Kraus named channels."""
    if isinstance(channel, int):
        ch = random_unitary_channel(n, np.random.default_rng(channel))
    else:
        ch = channel_from_spec(channel, n)
    dist = exact_pauli_record_distribution(ch)
    avg = choi_mean_from_histogram(dist, n)
    target = choi_of_channel(ch).matrix / 2**n
    assert la.norm(avg - target) < 1e-10


@pytest.mark.parametrize("spec", ["random-unitary:3", "amplitude-damping:0.3",
                                  "depolarizing:0.2", "identity"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pauli_records_match_rng_choice_over_exact_table(spec, n):
    """Pauli/Pauli acquisition draws the (input, output) keys that rng.choice
    draws over the exact 36^n table, up to the rounding of its CDF, and
    leaves the generator in the same state: over the whole table, and at
    n=4 below 36^n records, where the draws descend one qubit at a time
    from a partial prefix table."""
    ch = channel_from_spec(spec, n)
    p = exact_pauli_record_distribution(ch).reshape(-1)
    for m in (0, 1, 7, 36**n - 1, 36**n, 2000):
        rng, ref_rng = np.random.default_rng(m), np.random.default_rng(m)
        ps = acquire_process_shadow(ch, m, "pauli", "pauli", rng)
        check_table_draws(ps.side_in.labels * 6**n + ps.side_out.labels, p, ref_rng.random(m))
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("name", ["identity", "hadamard"])
def test_pauli_records_never_draw_zero_probability_labels(name):
    """Below the full table, no draw lands on an (input, output) pair of
    probability zero: the zero-width CDF steps that these channels have
    in most rows are skipped."""
    ch = named_channel(name, 4)
    ps = acquire_process_shadow(ch, 5000, "pauli", "pauli", np.random.default_rng(9))
    assert np.all(exact_pauli_record_distribution(ch)[ps.side_in.labels, ps.side_out.labels] > 0)


def test_histogram_mean_matches_snapshot_mean(rng):
    ch = named_channel("depolarizing", 1, 0.4)
    ps = acquire_process_shadow(ch, 40, "pauli", "pauli", rng)
    kin, kout = ps.side_in.labels, ps.side_out.labels
    hist = np.zeros((6, 6))
    np.add.at(hist, (kin, kout), 1.0 / 40)
    direct = sum(materialize_choi_shadow(r) for r in ps.records) / 40
    assert la.norm(choi_mean_from_histogram(hist, 1) - direct) < 1e-12


def test_acquire_process_shadow_basics(rng):
    ch = named_channel("identity", 1)
    ps = acquire_process_shadow(ch, 25, "pauli", "clifford", rng)
    assert len(ps) == 25
    assert ps.n_qubits == 1
    assert (ps.side_in.ensemble, ps.side_out.ensemble) == ("pauli", "clifford")
    head = ps.take(10)
    assert len(head) == 10
    assert head.records[0] == ps.records[0]


@pytest.mark.parametrize("ensembles", [("pauli", "pauli"), ("pauli", "clifford"),
                                       ("clifford", "clifford")])
def test_acquire_process_shadow_rejects_negative_count(rng, ensembles):
    with pytest.raises(ValueError, match="record count must be non-negative, got -5"):
        acquire_process_shadow(named_channel("identity", 1), -5, *ensembles, rng)


@pytest.mark.parametrize("m", [-1, 26])
def test_take_rejects_out_of_range_prefix(rng, m):
    ps = acquire_process_shadow(named_channel("identity", 1), 25, "pauli", "pauli", rng)
    with pytest.raises(ValueError, match="cannot take"):
        ps.take(m)
    assert len(ps.take(0)) == 0 and len(ps.take(25)) == 25


def test_acquire_deterministic():
    ch = named_channel("pauli-x", 1)
    a = acquire_process_shadow(ch, 15, "pauli", "pauli", np.random.default_rng(3))
    b = acquire_process_shadow(ch, 15, "pauli", "pauli", np.random.default_rng(3))
    assert np.array_equal(a.side_in.labels, b.side_in.labels)
    assert np.array_equal(a.side_out.labels, b.side_out.labels)


def test_clifford_records_match_exact_born_distribution(chi_square):
    """Clifford/Clifford records at n=1 against the protocol's exact law over
    (input frame, input bit, output frame, output bit): 2304 cells, of
    which amplitude damping leaves some empty; chi-square on the others."""
    ch = named_channel("amplitude-damping", 1, 0.3)
    group = enumerate_clifford_group()
    us = frame_unitaries("clifford", group)
    exact = np.empty((24, 2, 24, 2))
    for i, u_in in enumerate(us):
        for b in range(2):
            psi = u_in[b].conj()  # U^dag|b>
            rho_out = apply_channel(ch, np.outer(psi, psi.conj()))
            for o, u_out in enumerate(us):
                exact[i, b, o] = born_probabilities(u_out, rho_out) / (2 * 24**2)
    ps = acquire_process_shadow(ch, 100000, "clifford", "clifford",
                                np.random.default_rng(31))
    index = {t.tobytes(): i for i, t in enumerate(group)}
    cells = []
    for side in (ps.side_in, ps.side_out):
        frame = np.array([index[t.tobytes()] for t in side.frames])
        cells.append(2 * frame[side.labels >> 1] + (side.labels & 1))
    counts = np.bincount(cells[0] * 48 + cells[1], minlength=48 * 48)
    stat, df = chi_square(counts, exact)
    assert df > 1500


def test_batched_pauli_records_match_exact_table(chi_square):
    """The batched kernel, called directly on Pauli/Pauli at n=2, against
    exact_pauli_record_distribution: chi-square on 1295 degrees of freedom."""
    ch = channel_from_spec("random-full-rank:3", 2)
    ps = _simulate_records(ch, 200000, "pauli", "pauli", np.random.default_rng(32))
    kin, kout = ps.side_in.labels, ps.side_out.labels
    stat, df = chi_square(np.bincount(kin * 36 + kout, minlength=36**2),
                          exact_pauli_record_distribution(ch))
    assert df == 36**2 - 1


@pytest.mark.parametrize("ensemble,n,spec", [("clifford", 3, "random-unitary:4"),
                                             ("pauli", 5, "amplitude-damping:0.2")])
def test_simulated_acquisition_is_deterministic(ensemble, n, spec):
    ch = channel_from_spec(spec, n)
    a, b = (acquire_process_shadow(ch, 300, ensemble, ensemble, np.random.default_rng(9))
            for _ in range(2))
    for x, y in ((a.side_in, b.side_in), (a.side_out, b.side_out)):
        assert np.array_equal(x.labels, y.labels)
        assert np.array_equal(x.frames, y.frames)
    assert a.records == b.records


@pytest.mark.parametrize("ensembles", [("pauli", "clifford"), ("clifford", "clifford")])
def test_simulated_acquisition_of_no_records(rng, ensembles):
    ps = acquire_process_shadow(named_channel("hadamard", 2), 0, *ensembles, rng)
    assert len(ps) == 0 and ps.n_qubits == 2 and ps.records == ()


def test_reconstruct_choi_converges_identity():
    rng = np.random.default_rng(21)
    ch = named_channel("identity", 1)
    ps = acquire_process_shadow(ch, 30000, "pauli", "pauli", rng)
    choi = reconstruct_choi(ps)
    assert choi.normalized
    assert np.trace(choi.matrix).real == pytest.approx(1.0, abs=0.05)
    target = choi_of_channel(ch).matrix / 2
    assert la.norm(choi.matrix - target, 2) < 0.05


def test_reconstruct_choi_clifford_ensembles():
    rng = np.random.default_rng(22)
    ch = named_channel("hadamard", 1)
    ps = acquire_process_shadow(ch, 30000, "clifford", "clifford", rng)
    target = choi_of_channel(ch).matrix / 2
    assert la.norm(reconstruct_choi(ps).matrix - target, 2) < 0.05


def test_functional_single_shots_mean(rng):
    ch = named_channel("amplitude-damping", 1, 0.3)
    ps = acquire_process_shadow(ch, 64, "pauli", "pauli", rng)
    rho = basis_projector("1")
    obs = PauliString("Z").matrix
    vals = single_shot_functional_values(ps, rho, obs)
    assert vals.shape == (64,)
    est = estimate_channel_functional(ps, rho, obs)
    assert est == pytest.approx(float(np.mean(vals)), abs=1e-12)


@pytest.mark.parametrize("ensemble", ["pauli", "clifford"])
def test_functional_arguments_on_another_register_are_refused(rng, ensemble):
    """Each side checks its operator: a mismatched rho or observable is
    named with its shape and the shadow's qubit count."""
    ps = acquire_process_shadow(named_channel("identity", 1), 10, ensemble, ensemble, rng)
    rho, obs = basis_projector("0"), PauliString("Z").matrix
    message = r"operator of shape \(4, 4\) does not match the shadow's n_qubits=1"
    for args in ((np.eye(4) / 4, obs), (rho, np.eye(4))):
        with pytest.raises(ValueError, match=message):
            single_shot_functional_values(ps, *args)
    with pytest.raises(ValueError, match=message):
        estimate_output_state(ps, np.eye(4) / 4)
    assert single_shot_functional_values(ps, rho, obs).shape == (10,)


def test_functional_converges_to_dense_value():
    # Tr[Z E(|1><1|)] for amplitude damping 0.3 is 0.3 - 0.7 = -0.4
    rng = np.random.default_rng(23)
    ch = named_channel("amplitude-damping", 1, 0.3)
    ps = acquire_process_shadow(ch, 50000, "pauli", "pauli", rng)
    est = estimate_channel_functional(ps, basis_projector("1"), PauliString("Z").matrix)
    assert est == pytest.approx(-0.4, abs=0.05)


def test_functional_median_of_means_groups(rng):
    ch = named_channel("identity", 1)
    ps = acquire_process_shadow(ch, 90, "pauli", "pauli", rng)
    rho = basis_projector("0")
    obs = PauliString("Z").matrix
    vals = single_shot_functional_values(ps, rho, obs)
    grouped = estimate_channel_functional(ps, rho, obs, n_groups=3)
    means = vals[:90].reshape(3, 30).mean(axis=1)
    assert grouped == pytest.approx(float(np.median(means)), abs=1e-12)


def test_estimate_output_state_converges():
    rng = np.random.default_rng(24)
    ch = named_channel("hadamard", 1)
    rho = basis_projector("0")
    ps = acquire_process_shadow(ch, 40000, "pauli", "pauli", rng)
    est = estimate_output_state(ps, rho)
    assert la.norm(est - apply_channel(ch, rho), 2) < 0.05


def test_estimate_output_state_mixed_ensembles():
    rng = np.random.default_rng(25)
    ch = named_channel("identity", 1)
    rho = np.diag([0.75, 0.25])
    ps = acquire_process_shadow(ch, 20000, "clifford", "pauli", rng)
    est = estimate_output_state(ps, rho)
    assert la.norm(est - rho, 2) < 0.07


@pytest.mark.parametrize("seed", [0, 1])
def test_bin_independence_random_channels(seed):
    rng = np.random.default_rng(seed)
    ch = random_unitary_channel(2, rng)
    report = verify_bin_independence(ch, 50, rng)
    assert report.n_sampled == 50
    assert report.max_normalization_dev < report.tolerance
    assert report.max_pauli_dev < report.tolerance
    assert report.passed


@pytest.mark.parametrize("samples", [0, -1, 2.5])
def test_bin_independence_refuses_a_count_below_one(samples):
    with pytest.raises(ValueError, match="sample"):
        verify_bin_independence(named_channel("identity", 1), samples, np.random.default_rng(0))


@pytest.mark.parametrize("ensemble", ["pauli", "clifford"])
def test_estimators_on_an_empty_side(ensemble):
    """Empty sides of either ensemble give empty per-record values or a clear error."""
    rng = np.random.default_rng(3)
    ps = acquire_process_shadow(named_channel("identity", 2), 0, ensemble, ensemble, rng)
    ss = acquire_shadow(np.eye(4) / 4, 0, ensemble, rng)
    rho, obs = np.eye(4) / 4, PauliString("ZX").matrix
    with pytest.raises(ValueError, match="cannot estimate from an empty shadow"):
        estimate_output_state(ps, rho)
    assert single_shot_functional_values(ps, rho, obs).shape == (0,)
    assert single_shot_expectations(ss, obs).shape == (0,)
    with pytest.raises(ValueError, match="0 records cannot fill 1 groups"):
        estimate_channel_functional(ps, rho, obs)
    with pytest.raises(ValueError, match="0 records cannot fill 1 groups"):
        estimate_observable(ss, obs)


def test_process_shadow_rejects_mixed_sizes(rng):
    r1 = acquire_process_shadow(named_channel("identity", 1), 1, "pauli", "pauli", rng)
    r2 = acquire_process_shadow(named_channel("identity", 2), 1, "pauli", "pauli", rng)
    with pytest.raises(ValueError):
        ProcessShadow(r1.records + r2.records)


@pytest.mark.parametrize("ensembles", [("pauli", "pauli"), ("clifford", "pauli"),
                                       ("pauli", "clifford"), ("clifford", "clifford")])
def test_record_views_equal_validated_records(rng, ensembles):
    """The views skip the constructors' checks, and equal records built
    through them; encoding the views gives back the same labels."""
    ps = acquire_process_shadow(random_unitary_channel(2, rng), 40, *ensembles, rng)

    def checked(frame):
        if isinstance(frame, PauliFrame):
            return PauliFrame(frame.axes)
        return CliffordFrame(frame.symplectic.copy(), frame.signs.copy())

    views = ps.records
    assert views == tuple(ShadowRecord(r.b_in, checked(r.u_in), checked(r.u_out), r.b_out)
                          for r in views)
    for side in (ps.side_in, ps.side_out):
        assert [(checked(f), b) for f, b in side.views()] == side.views()
    again = ProcessShadow(views, 2)
    for got, want in ((again.side_in, ps.side_in), (again.side_out, ps.side_out)):
        assert np.array_equal(got.labels, want.labels)
        assert (got.frames is None) == (want.frames is None)
        if want.frames is not None:
            assert np.array_equal(got.frames, want.frames)
