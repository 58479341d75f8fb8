"""Measurement-frame ensembles: random Pauli bases, random Cliffords, explicit unitaries."""

import numpy as np
import numpy.linalg as la
import pytest
from hypothesis import given
from hypothesis import strategies as st

from procshadow.ensembles import (
    CliffordFrame,
    PauliFrame,
    clifford_group_order,
    enumerate_clifford_group,
    frame_kind,
    measure_computational,
    measurement_probabilities,
    prepared_state_vector,
    sample_clifford,
    sample_frame,
    sample_haar_unitary,
    sample_pauli_frame,
    symplectic_group_order,
    to_matrix,
)
from procshadow.qcore import PauliString, basis_projector, random_density_matrix

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
S_DAG = np.diag([1.0, -1j])


def test_pauli_frame_matrices():
    assert la.norm(to_matrix(PauliFrame("X")) - H) < 1e-12
    assert la.norm(to_matrix(PauliFrame("Y")) - H @ S_DAG) < 1e-12
    assert la.norm(to_matrix(PauliFrame("Z")) - np.eye(2)) < 1e-12
    two = to_matrix(PauliFrame("XZ"))
    assert la.norm(two - np.kron(H, np.eye(2))) < 1e-12


def test_pauli_frame_rejects_bad_axes():
    with pytest.raises(ValueError):
        PauliFrame("XA")


def test_pauli_frame_diagonalizes_its_letter():
    # each single-qubit frame rotates its Pauli axis onto Z
    for ax in "XYZ":
        u = to_matrix(PauliFrame(ax))
        p = PauliString(ax).matrix
        rotated = u @ p @ u.conj().T
        assert la.norm(rotated - np.diag([1.0, -1.0])) < 1e-12


def test_sample_pauli_frame(rng):
    fr = sample_pauli_frame(3, rng)
    assert isinstance(fr, PauliFrame)
    assert len(fr.axes) == 3
    assert set(fr.axes) <= set("XYZ")


def test_measurement_probabilities_plus_state():
    plus = 0.5 * np.ones((2, 2))
    px = measurement_probabilities(plus, PauliFrame("X"))
    assert px == pytest.approx([1.0, 0.0], abs=1e-12)
    pz = measurement_probabilities(plus, PauliFrame("Z"))
    assert pz == pytest.approx([0.5, 0.5], abs=1e-12)


@given(st.integers(min_value=0, max_value=500))
def test_measurement_probabilities_normalized(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(2, rng)
    for fr in (sample_pauli_frame(2, rng), sample_clifford(2, rng)):
        p = measurement_probabilities(rho, fr)
        assert p.shape == (4,)
        assert np.all(p >= -1e-12)
        assert np.sum(p) == pytest.approx(1.0, abs=1e-9)


def test_measure_computational_distribution(rng):
    rho = np.diag([0.8, 0.2])
    counts = {"0": 0, "1": 0}
    for _ in range(4000):
        counts[measure_computational(rho, rng)] += 1
    assert counts["0"] / 4000 == pytest.approx(0.8, abs=0.03)


def test_measure_computational_deterministic():
    rho = np.diag([0.5, 0.5])
    a = [measure_computational(rho, np.random.default_rng(7)) for _ in range(1)]
    b = [measure_computational(rho, np.random.default_rng(7)) for _ in range(1)]
    assert a == b


def test_prepared_state_vector_convention():
    """prepared vector w satisfies |w><w| = U^dag |b><b| U."""
    rng = np.random.default_rng(3)
    for fr in (PauliFrame("Y"), sample_clifford(1, rng)):
        u = to_matrix(fr)
        for b in ("0", "1"):
            w = prepared_state_vector(fr, b)
            target = u.conj().T @ basis_projector(b) @ u
            assert la.norm(np.outer(w, w.conj()) - target) < 1e-12


def test_group_orders():
    assert symplectic_group_order(1) == 6
    assert symplectic_group_order(2) == 720
    assert clifford_group_order(1) == 24
    assert clifford_group_order(2) == 11520


def test_enumerate_clifford_group_is_the_full_group():
    frames = list(enumerate_clifford_group(1))
    assert len(frames) == 24
    mats = [to_matrix(fr) for fr in frames]
    # pairwise distinct up to global phase
    for i in range(24):
        for j in range(i + 1, 24):
            inner = abs(np.trace(mats[i].conj().T @ mats[j])) / 2
            assert inner < 1 - 1e-9


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_clifford_is_unitary_and_symplectic(n, seed):
    fr = sample_clifford(n, np.random.default_rng(seed))
    assert isinstance(fr, CliffordFrame)
    u = to_matrix(fr)
    assert la.norm(u @ u.conj().T - np.eye(2**n)) < 1e-10
    # tableau satisfies the symplectic condition over GF(2)
    m = np.asarray(fr.symplectic) % 2
    j = np.zeros((2 * n, 2 * n), dtype=int)
    j[:n, n:] = np.eye(n, dtype=int)
    j[n:, :n] = np.eye(n, dtype=int)
    assert np.array_equal((m @ j @ m.T) % 2, j)


@pytest.mark.parametrize("n", [1, 2])
def test_clifford_conjugation_sends_paulis_to_paulis(n):
    """U P U^dag lands on a single signed Pauli string for every Pauli P."""
    from itertools import product

    rng = np.random.default_rng(11)
    u = to_matrix(sample_clifford(n, rng))
    d = 2**n
    strings = ["".join(t) for t in product("IXYZ", repeat=n)]
    basis = [PauliString(s).matrix for s in strings]
    for p in basis[1:]:
        conj = u @ p @ u.conj().T
        overlaps = [abs(np.trace(conj @ q)) / d for q in basis]
        hits = [o for o in overlaps if o > 1e-9]
        assert len(hits) == 1
        assert hits[0] == pytest.approx(1.0, abs=1e-9)


def test_sample_clifford_deterministic():
    a = sample_clifford(2, np.random.default_rng(42))
    b = sample_clifford(2, np.random.default_rng(42))
    assert np.array_equal(a.symplectic, b.symplectic)
    assert np.array_equal(a.signs, b.signs)


def test_sample_haar_unitary(rng):
    u = sample_haar_unitary(2, rng)  # argument is the qubit count
    assert u.shape == (4, 4)
    assert la.norm(u @ u.conj().T - np.eye(4)) < 1e-10
    again = sample_haar_unitary(2, np.random.default_rng(5))
    same = sample_haar_unitary(2, np.random.default_rng(5))
    assert np.array_equal(again, same)


def test_sample_frame_dispatch(rng):
    assert frame_kind(sample_frame(1, "pauli", rng)) == "pauli-product"
    assert frame_kind(sample_frame(1, "clifford", rng)) == "clifford"
    with pytest.raises(ValueError):
        sample_frame(1, "haar", rng)
