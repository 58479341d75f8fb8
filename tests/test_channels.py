"""Channel factory: named families, random unitaries, random full-rank channels."""

import numpy as np
import numpy.linalg as la
import pytest

from procshadow import channels
from procshadow.channels import (
    channel_from_spec,
    named_channel,
    random_full_rank_channel,
    random_unitary_channel,
)
from procshadow.ensembles import sample_haar_unitary
from procshadow.qcore import (
    Channel,
    InfeasibleError,
    apply_channel,
    basis_projector,
    choi_of_channel,
    random_density_matrix,
)

PLUS = 0.5 * np.ones((2, 2))


def test_identity_channel():
    ch = named_channel("identity", 2)
    rho = random_density_matrix(2, np.random.default_rng(0))
    assert la.norm(apply_channel(ch, rho) - rho) < 1e-12


def test_pauli_x_flips_first_qubit():
    ch = named_channel("pauli-x", 2)
    out = apply_channel(ch, basis_projector("00"))
    assert la.norm(out - basis_projector("10")) < 1e-12


def test_hadamard_channel():
    ch = named_channel("hadamard", 1)
    assert la.norm(apply_channel(ch, basis_projector("0")) - PLUS) < 1e-12


def test_depolarizing_limits():
    rho = random_density_matrix(1, np.random.default_rng(1))
    full = apply_channel(named_channel("depolarizing", 1, 1.0), rho)
    assert la.norm(full - np.eye(2) / 2) < 1e-10
    none = apply_channel(named_channel("depolarizing", 1, 0.0), rho)
    assert la.norm(none - rho) < 1e-12


def test_depolarizing_choi():
    choi = choi_of_channel(named_channel("depolarizing", 1, 1.0))
    assert la.norm(choi.matrix - np.eye(4) / 2) < 1e-10


def test_dephasing_shrinks_coherences():
    out = apply_channel(named_channel("dephasing", 1, 0.4), PLUS)
    assert out[0, 0] == pytest.approx(0.5)
    assert out[0, 1] == pytest.approx(0.5 * 0.6, abs=1e-12)


def test_amplitude_damping_action():
    out = apply_channel(named_channel("amplitude-damping", 1, 0.3), basis_projector("1"))
    assert out[0, 0] == pytest.approx(0.3)
    assert out[1, 1] == pytest.approx(0.7)


def test_parametric_channels_act_sitewise():
    ch1 = named_channel("dephasing", 1, 0.5)
    ch2 = named_channel("dephasing", 2, 0.5)
    rng = np.random.default_rng(2)
    a, b = random_density_matrix(1, rng), random_density_matrix(1, rng)
    joint = apply_channel(ch2, np.kron(a, b))
    split = np.kron(apply_channel(ch1, a), apply_channel(ch1, b))
    assert la.norm(joint - split) < 1e-12


def test_parameter_validation():
    with pytest.raises(ValueError):
        named_channel("depolarizing", 1, 1.5)
    with pytest.raises(ValueError):
        named_channel("depolarizing", 1)  # missing value
    with pytest.raises(ValueError):
        named_channel("identity", 1, 0.5)  # spurious value
    with pytest.raises(ValueError):
        named_channel("swap", 1)


def test_random_unitary_channel(rng):
    ch = random_unitary_channel(2, rng)
    assert len(ch.kraus) == 1
    u = ch.kraus[0]
    assert la.norm(u @ u.conj().T - np.eye(4)) < 1e-10
    a = random_unitary_channel(1, np.random.default_rng(3))
    b = random_unitary_channel(1, np.random.default_rng(3))
    assert np.array_equal(a.kraus[0], b.kraus[0])
    with pytest.raises(ValueError):
        random_unitary_channel(7, rng)


def test_random_unitary_matches_haar_sampler():
    u = sample_haar_unitary(2, np.random.default_rng(17))
    ch = random_unitary_channel(2, np.random.default_rng(17))
    assert la.norm(ch.kraus[0] - u) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_random_full_rank_channel_has_full_choi_rank(seed):
    ch = random_full_rank_channel(1, np.random.default_rng(seed))
    assert len(ch.kraus) == 4
    assert all(k.shape == (2, 2) for k in ch.kraus)
    eigs = la.eigvalsh(choi_of_channel(ch).matrix)
    assert np.trace(choi_of_channel(ch).matrix).real == pytest.approx(2.0, abs=1e-9)
    assert np.min(eigs) > 1e-8  # strictly positive spectrum


def test_random_full_rank_two_qubits(rng):
    ch = random_full_rank_channel(2, rng)
    assert len(ch.kraus) == 16
    eigs = la.eigvalsh(choi_of_channel(ch).matrix)
    assert np.min(eigs) > 1e-10
    with pytest.raises(InfeasibleError, match="dilates to 9"):
        random_full_rank_channel(3, rng)


def test_register_cap_refuses_before_building(monkeypatch):
    """depolarizing at n=7 would build 4^7 Kraus operators of 128 x 128 (2.1 GB),
    and a Haar unitary a 2^n x 2^n Ginibre matrix."""
    def fail(*_):
        raise AssertionError("the Kraus operators were built")

    monkeypatch.setattr(channels, "_tensor_power_kraus", fail)
    monkeypatch.setattr(channels, "sample_haar_unitary", fail)
    with pytest.raises(InfeasibleError, match="7 qubits exceeds the register cap"):
        named_channel("depolarizing", 7, 0.3)
    with pytest.raises(InfeasibleError, match="7 qubits exceeds the register cap"):
        random_unitary_channel(7, np.random.default_rng(0))
    with pytest.raises(InfeasibleError, match="7 qubits exceeds the register cap"):
        Channel(kraus=(np.eye(128),))


def test_random_full_rank_deterministic():
    a = random_full_rank_channel(1, np.random.default_rng(9))
    b = random_full_rank_channel(1, np.random.default_rng(9))
    for ka, kb in zip(a.kraus, b.kraus):
        assert np.array_equal(ka, kb)


def test_channel_from_spec():
    rho = basis_projector("1")
    out = apply_channel(channel_from_spec("amplitude-damping:0.3", 1), rho)
    assert out[0, 0] == pytest.approx(0.3)
    ident = channel_from_spec("identity", 1)
    assert la.norm(apply_channel(ident, rho) - rho) < 1e-12


def test_channel_from_spec_random_families_are_seeded():
    a = channel_from_spec("random-unitary:7", 1)
    b = random_unitary_channel(1, np.random.default_rng(7))
    assert la.norm(a.kraus[0] - b.kraus[0]) < 1e-12
    fr = channel_from_spec("random-full-rank:3", 1)
    assert len(fr.kraus) == 4


def test_channel_from_spec_errors():
    with pytest.raises(ValueError):
        channel_from_spec("depolarizing", 1)  # missing parameter
    with pytest.raises(ValueError):
        channel_from_spec("nosuch:1", 1)
    with pytest.raises(ValueError):
        channel_from_spec("depolarizing:abc", 1)
