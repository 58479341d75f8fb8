"""End uses of process shadows: transitions, correlators, purity, unitarity tests."""

import numpy as np
import numpy.linalg as la
import pytest

from procshadow.applications import (
    CorrelatorSpec,
    multitime_correlator_exact_input,
    multitime_correlator_shadow_input,
    purity_estimate,
    transition_probability,
    unitarity_verdict,
)
from procshadow.channels import named_channel
from procshadow.process_shadows import (
    acquire_process_shadow,
    estimate_output_state,
    reconstruct_choi,
    single_shot_functional_values,
)
from procshadow.qcore import PauliString
from procshadow.state_shadows import ShadowEstimate, acquire_shadow, median_of_means

PLUS = 0.5 * np.ones((2, 2))


def _shadow(name, m, seed, n=1, value=None, ens="pauli"):
    rng = np.random.default_rng(seed)
    ch = named_channel(name, n, value)
    return acquire_process_shadow(ch, m, ens, ens, rng)


def test_transition_identity():
    ps = _shadow("identity", 30000, 0)
    t = transition_probability(ps, "0", "0")
    assert t.raw == pytest.approx(1.0, abs=0.06)
    assert 0.0 <= t.clipped <= 1.0
    assert t.clipped == min(max(t.raw, 0.0), 1.0)


def test_transition_bit_flip():
    ps = _shadow("pauli-x", 30000, 1)
    assert transition_probability(ps, "0", "1").raw == pytest.approx(1.0, abs=0.06)
    assert transition_probability(ps, "0", "0").raw == pytest.approx(0.0, abs=0.06)


def test_transition_amplitude_damping_frozen():
    # P(1 -> 0) equals the damping strength
    ps = _shadow("amplitude-damping", 50000, 2, value=0.3)
    assert transition_probability(ps, "1", "0").raw == pytest.approx(0.3, abs=0.05)
    assert transition_probability(ps, "1", "1").raw == pytest.approx(0.7, abs=0.05)


def test_transition_outcomes_sum_to_one():
    ps = _shadow("hadamard", 30000, 3)
    total = sum(transition_probability(ps, "0", f).raw for f in ("0", "1"))
    assert total == pytest.approx(1.0, abs=0.1)


def test_transition_validates_bits():
    ps = _shadow("identity", 10, 4)
    with pytest.raises(ValueError):
        transition_probability(ps, "00", "0")


def test_transition_median_of_means():
    ps = _shadow("identity", 9000, 5)
    plain = transition_probability(ps, "0", "0")
    grouped = transition_probability(ps, "0", "0", n_groups=9)
    assert grouped.raw == pytest.approx(plain.raw, abs=0.1)


def test_correlator_spec_validation():
    with pytest.raises(ValueError):
        CorrelatorSpec(PLUS, PauliString("XX"), PauliString("X"))
    with pytest.raises(ValueError):
        CorrelatorSpec(np.eye(4) / 4, PauliString("X"), PauliString("X"))


def test_correlator_identity_channel():
    # Tr[X id(rho X)] with rho = |+><+| equals 1
    ps = _shadow("identity", 40000, 6)
    spec = CorrelatorSpec(PLUS, PauliString("X"), PauliString("X"))
    assert multitime_correlator_exact_input(ps, spec) == pytest.approx(1.0, abs=0.06)


def test_correlator_amplitude_damping_frozen():
    # dense value of Tr[X E(|+><+| X)] at damping 0.45
    ps = _shadow("amplitude-damping", 50000, 7, value=0.45)
    spec = CorrelatorSpec(PLUS, PauliString("X"), PauliString("X"))
    est = multitime_correlator_exact_input(ps, spec)
    assert est == pytest.approx(0.7416198487095663, abs=0.05)


def test_correlator_fast_path_matches_generic_contraction():
    """A single-site late operator gives the same estimate as the generic
    functional contraction on the same records."""
    ps = _shadow("hadamard", 500, 8)
    spec = CorrelatorSpec(PLUS, PauliString("Y"), PauliString("Z"))
    fast = multitime_correlator_exact_input(ps, spec)
    early = spec.input_state @ PauliString("Y").matrix
    generic = float(np.mean(single_shot_functional_values(ps, early, PauliString("Z").matrix)))
    assert fast == pytest.approx(generic, abs=1e-10)


def test_correlator_two_qubit():
    rng = np.random.default_rng(9)
    ch = named_channel("identity", 2)
    ps = acquire_process_shadow(ch, 60000, "pauli", "pauli", rng)
    rho = np.kron(PLUS, np.eye(2) / 2)
    spec = CorrelatorSpec(rho, PauliString("XI"), PauliString("XI"))
    assert multitime_correlator_exact_input(ps, spec) == pytest.approx(1.0, abs=0.15)


def test_correlator_shadow_input_matches_exact_input():
    rng = np.random.default_rng(10)
    ch = named_channel("identity", 1)
    ps = acquire_process_shadow(ch, 30000, "pauli", "pauli", rng)
    ss = acquire_shadow(PLUS, 30000, "pauli", rng)
    est = multitime_correlator_shadow_input(ps, ss, PauliString("X"), PauliString("X"))
    assert est == pytest.approx(1.0, abs=0.15)


def test_correlator_shadow_input_validates_sizes():
    rng = np.random.default_rng(11)
    ps = acquire_process_shadow(named_channel("identity", 1), 10, "pauli", "pauli", rng)
    ss = acquire_shadow(np.eye(4) / 4, 10, "pauli", rng)
    with pytest.raises(ValueError):
        multitime_correlator_shadow_input(ps, ss, PauliString("X"), PauliString("X"))


def _expansions(monkeypatch) -> list:
    """The ids of the sides whose Pauli terms are expanded from now on, once per expansion."""
    expanded, expand = [], ShadowEstimate._expand
    monkeypatch.setattr(ShadowEstimate, "_expand",
                        lambda self: expanded.append(id(self)) or expand(self))
    return expanded


def test_correlator_shadow_input_expands_each_side_once(monkeypatch):
    """Ten groups cost one Pauli-term expansion per side and one of the state shadow."""
    rng = np.random.default_rng(12)
    ps = acquire_process_shadow(named_channel("amplitude-damping", 2, 0.3), 205,
                                "clifford", "pauli", rng)
    ss = acquire_shadow(np.eye(4) / 4, 203, "pauli", rng)
    expanded = _expansions(monkeypatch)
    multitime_correlator_shadow_input(ps, ss, PauliString("XZ"), PauliString("ZY"), n_groups=10)
    assert sorted(expanded) == sorted(map(id, (ps.side_in, ps.side_out, ss)))


@pytest.mark.parametrize("ens", ["pauli", "clifford"])
def test_estimators_on_one_shadow_expand_each_side_once(monkeypatch, ens):
    """The Choi mean, the output state, the functional values and the purity
    all read the Pauli terms that each side expanded on first use."""
    ps = _shadow("amplitude-damping", 300, 21, n=2, value=0.3, ens=ens)
    rho, obs = np.diag([0.5, 0.25, 0.25, 0.0]), PauliString("XZ").matrix
    expanded = _expansions(monkeypatch)
    reconstruct_choi(ps)
    estimate_output_state(ps, rho)
    single_shot_functional_values(ps, rho, obs)
    purity_estimate(ps, n_groups=3)
    assert sorted(expanded) == sorted(map(id, (ps.side_in, ps.side_out)))


def test_purity_identity_channel():
    # Choi matrix of a unitary on one qubit has squared trace norm d^2 = 4
    ps = _shadow("identity", 50000, 12)
    assert purity_estimate(ps) == pytest.approx(4.0, abs=0.4)


def test_purity_fully_depolarizing():
    # E(rho) = I/2 for every input: eta = I_4 / 2, purity 1
    ps = _shadow("depolarizing", 50000, 13, value=1.0)
    assert purity_estimate(ps) == pytest.approx(1.0, abs=0.4)


def test_purity_amplitude_damping_frozen():
    # dense Tr[eta^2] at damping 0.3 is 2.98
    ps = _shadow("amplitude-damping", 50000, 14, value=0.3)
    assert purity_estimate(ps) == pytest.approx(2.98, abs=0.4)


def test_purity_is_a_u_statistic(rng):
    """Histogram evaluation equals the explicit sum over unordered record pairs."""
    from dense_reference import materialize_choi_shadow

    ps = _shadow("hadamard", 60, 15)
    d = 2
    zetas = [d * materialize_choi_shadow(r) for r in ps.records]
    m = len(zetas)
    total = 0.0
    for j in range(m):
        for k in range(m):
            if j != k:
                total += np.trace(zetas[j] @ zetas[k]).real
    direct = total / (m * (m - 1))
    assert purity_estimate(ps) == pytest.approx(direct, abs=1e-9)


def test_purity_large_register_needs_opt_in():
    """There is no opt-in: above the cap both quadratic estimators refuse."""
    ps = _shadow("identity", 30, 16, n=4)
    with pytest.raises(ValueError, match="purity on 4 qubits is refused above the cap of 3"):
        purity_estimate(ps)
    with pytest.raises(ValueError, match="unitarity on 4 qubits is refused above the cap of 3"):
        unitarity_verdict(ps)


def test_unitarity_verdict_unitary():
    ps = _shadow("identity", 40000, 18)
    v = unitarity_verdict(ps, rng=np.random.default_rng(0))
    assert v.verdict == "unitary"
    assert v.threshold == pytest.approx(0.95 * 4.0)
    assert v.interval[0] <= v.purity <= v.interval[1]


def test_unitarity_verdict_nonunitary():
    ps = _shadow("depolarizing", 40000, 19, value=1.0)
    v = unitarity_verdict(ps, rng=np.random.default_rng(0))
    assert v.verdict == "nonunitary"
    assert v.purity == pytest.approx(1.0, abs=0.3)
    # Clifford records take the same U-statistic
    ps = _shadow("depolarizing", 3000, 19, value=1.0, ens="clifford")
    v = unitarity_verdict(ps, rng=np.random.default_rng(0))
    assert v.verdict == "nonunitary"
    assert v.purity == pytest.approx(1.0, abs=0.3)


def test_unitarity_verdict_inconclusive_when_starved():
    ps = _shadow("identity", 40, 20)
    v = unitarity_verdict(ps, rng=np.random.default_rng(100))
    assert v.verdict == "inconclusive"


class _RecordZeroDraws:
    """A generator stub whose index draws all pick record 0."""

    def integers(self, low, high, size):
        return np.zeros(size, dtype=np.int64)


def test_unitarity_verdict_refuses_replicates_without_a_pair():
    """A replicate that draws one record m times leaves no distinct pair:
    an error naming the count, not a NaN interval."""
    ps = _shadow("hadamard", 10, 1)
    with pytest.raises(ValueError, match="^200 of 200 bootstrap replicates of 10 records"):
        unitarity_verdict(ps, rng=_RecordZeroDraws())


@pytest.mark.parametrize("m", [0, 1, 2, 9])
def test_unitarity_verdict_refuses_too_few_records_before_drawing(m):
    """Below 10 records a replicate without a distinct pair is likely (at
    m=4 about 1 in 64): the count is refused whatever the seed, and the
    generator is left untouched."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^bootstrap replicates of {m} records .*"
                                         "need at least 10 records$"):
        unitarity_verdict(_shadow("hadamard", m, 1), rng=rng)
    assert rng.bit_generator.state == state
    assert unitarity_verdict(_shadow("hadamard", 10, 1), rng=rng).interval


@pytest.mark.parametrize("kwargs,message", [
    ({"n_bootstrap": 0}, "at least one bootstrap replicate, got 0"),
    ({"n_bootstrap": -5}, "at least one bootstrap replicate, got -5"),
    # a NaN threshold compares false both ways and would read every interval as inconclusive
    ({"threshold_fraction": float("nan")}, r"threshold fraction must lie in \(0, 1\], got nan"),
    ({"threshold_fraction": -1.0}, r"threshold fraction must lie in \(0, 1\], got -1.0"),
    ({"threshold_fraction": 0.0}, r"threshold fraction must lie in \(0, 1\], got 0.0"),
    ({"threshold_fraction": 1.5}, r"threshold fraction must lie in \(0, 1\], got 1.5"),
])
def test_unitarity_verdict_rejects_invalid_settings(kwargs, message):
    ps = _shadow("identity", 50, 22)
    with pytest.raises(ValueError, match=message):
        unitarity_verdict(ps, **kwargs)
    assert unitarity_verdict(ps, threshold_fraction=1.0, n_bootstrap=1).threshold == 4.0


def _covered(name, value, purity, m, n=1, ens="pauli") -> int:
    """How many of 60 seeded runs have a 95% interval that covers ``purity``."""
    covered = 0
    for seed in range(60):
        ps = _shadow(name, m, seed, n=n, value=value, ens=ens)
        lo, hi = unitarity_verdict(ps, rng=np.random.default_rng(seed)).interval
        covered += lo <= purity <= hi
    return covered


@pytest.mark.parametrize("m", [200, 1000])
@pytest.mark.parametrize("name,value,purity", [
    ("identity", None, 4.0),
    ("depolarizing", 1.0, 1.0),
])
def test_unitarity_interval_coverage(name, value, purity, m):
    """The 95% bootstrap interval covers the true Choi purity in 52+ of 60 runs.

    Resampling with replacement repeats records; pairs of two copies of
    one record must not count as distinct pairs, or the replicates sit
    about 94/m above the point estimate and the interval misses.
    """
    assert _covered(name, value, purity, m) >= 52


@pytest.mark.parametrize("ens", ["pauli", "clifford"])
def test_unitarity_interval_coverage_at_two_qubits(ens):
    """The same 52-of-60 coverage for a two-qubit unitary (Choi purity 16),
    with Pauli or Clifford frames on both sides."""
    assert _covered("hadamard", None, 16.0, 400, n=2, ens=ens) >= 52


@pytest.mark.parametrize("n,ens_in,ens_out,name,value,purity,interval", [
    (1, "pauli", "pauli", "amplitude-damping", 0.3,
     2.9205639097744363, (2.222534925631682, 3.6410085237803087)),
    (2, "clifford", "pauli", "hadamard", None,
     12.176466165413533, (5.641491969671459, 19.41746600357799)),
])
def test_unitarity_bootstrap_interval_is_pinned(n, ens_in, ens_out, name, value,
                                                 purity, interval):
    """Fixed-seed point estimate and bootstrap interval, recorded from the
    dense per-label evaluation that the Pauli-coefficient kernel replaced;
    the replicate draws are one rng.integers(0, m, m) each."""
    ps = acquire_process_shadow(named_channel(name, n, value), 400, ens_in, ens_out,
                                np.random.default_rng(21))
    v = unitarity_verdict(ps, n_bootstrap=100, rng=np.random.default_rng(22))
    assert abs(v.purity - purity) < 1e-12
    assert np.max(np.abs(np.array(v.interval) - interval)) < 1e-12


@pytest.mark.parametrize("call,name", [
    (lambda ps, ss, v: acquire_process_shadow(named_channel("hadamard", 1), v, "pauli",
                                              "pauli", np.random.default_rng(0)), "m"),
    (lambda ps, ss, v: acquire_shadow(PLUS, v, "pauli", np.random.default_rng(0)), "m"),
    (lambda ps, ss, v: ps.take(v), "m"),
    (lambda ps, ss, v: ss.take(v), "m"),
    (lambda ps, ss, v: median_of_means(np.ones(10), v), "n_groups"),
    (lambda ps, ss, v: purity_estimate(ps, v), "n_groups"),
    (lambda ps, ss, v: unitarity_verdict(ps, n_bootstrap=v), "n_bootstrap"),
], ids=["acquire_process_shadow", "acquire_shadow", "ProcessShadow.take",
        "ShadowEstimate.take", "median_of_means", "purity_estimate", "unitarity_verdict"])
def test_counts_are_integers(call, name):
    """A numpy integer is a count; a float is a ValueError that names the argument."""
    ps = _shadow("hadamard", 40, 0)
    ss = acquire_shadow(PLUS, 40, "pauli", np.random.default_rng(1))
    call(ps, ss, np.int64(2))
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got 2.5$"):
        call(ps, ss, 2.5)
