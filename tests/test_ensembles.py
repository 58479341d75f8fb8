"""Measurement-frame ensembles: random Pauli bases, random Cliffords, explicit unitaries."""

import numpy as np
import numpy.linalg as la
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dense_reference import born_probabilities, frame_unitary
from procshadow.ensembles import (
    PauliFrame,
    enumerate_clifford_group,
    frame_unitaries,
    is_symplectic,
    sample_frames,
    sample_haar_unitary,
)
from procshadow.qcore import PauliString, basis_projector, random_density_matrix
from procshadow.state_shadows import _simulate

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
S_DAG = np.diag([1.0, -1j])


def test_pauli_frame_matrices():
    assert la.norm(frame_unitary(PauliFrame("X")) - H) < 1e-12
    assert la.norm(frame_unitary(PauliFrame("Y")) - H @ S_DAG) < 1e-12
    assert la.norm(frame_unitary(PauliFrame("Z")) - np.eye(2)) < 1e-12
    two = frame_unitary(PauliFrame("XZ"))
    assert la.norm(two - np.kron(H, np.eye(2))) < 1e-12


def test_pauli_frame_rejects_bad_axes():
    with pytest.raises(ValueError):
        PauliFrame("XA")


def test_pauli_frame_diagonalizes_its_letter():
    # each single-qubit frame rotates its Pauli axis onto Z
    for ax in "XYZ":
        u = frame_unitary(PauliFrame(ax))
        p = PauliString(ax).matrix
        rotated = u @ p @ u.conj().T
        assert la.norm(rotated - np.diag([1.0, -1.0])) < 1e-12


def test_sample_pauli_frame(rng):
    axes = sample_frames(3, "pauli", 1, rng)
    assert axes.shape == (1, 3)
    fr = PauliFrame("".join("XYZ"[a] for a in axes[0]))
    assert len(fr.axes) == 3
    assert set(fr.axes) <= set("XYZ")


def test_measurement_probabilities_plus_state():
    plus = 0.5 * np.ones((2, 2))
    px = born_probabilities(frame_unitary(PauliFrame("X")), plus)
    assert px == pytest.approx([1.0, 0.0], abs=1e-12)
    pz = born_probabilities(frame_unitary(PauliFrame("Z")), plus)
    assert pz == pytest.approx([0.5, 0.5], abs=1e-12)


@given(st.integers(min_value=0, max_value=500))
def test_measurement_probabilities_normalized(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(2, rng)
    for ens in ("pauli", "clifford"):
        p = born_probabilities(frame_unitaries(ens, sample_frames(2, ens, 1, rng))[0], rho)
        assert p.shape == (4,)
        assert np.all(p >= -1e-12)
        assert np.sum(p) == pytest.approx(1.0, abs=1e-9)


def test_kernel_outcomes_follow_born_rule(rng):
    """The batched kernel's inverse-CDF draw: diag(0.8, 0.2) measured in Z
    gives 0 with probability 0.8, and in X or Y with probability 1/2."""
    amps = np.diag(np.sqrt([0.8, 0.2])).astype(complex)
    axes, outcomes = _simulate(1, 12000, "pauli", rng, lambda sl: amps, 2)
    for axis, p0 in ((0, 0.5), (1, 0.5), (2, 0.8)):
        hits = outcomes[axes[:, 0] == axis]
        assert np.mean(hits == 0) == pytest.approx(p0, abs=0.03)


def test_kernel_outcomes_deterministic():
    amps = np.eye(2, dtype=complex) / np.sqrt(2)

    def draw():
        return _simulate(1, 50, "clifford", np.random.default_rng(7), lambda sl: amps, 2)

    a, b = draw(), draw()
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_prepared_state_vector_convention():
    """The prepared vector w, row b of U conjugated, satisfies
    |w><w| = U^dag |b><b| U."""
    rng = np.random.default_rng(3)
    for ens, stack in (("pauli", np.array([[1]])), ("clifford", sample_frames(1, "clifford", 1, rng))):
        u = frame_unitaries(ens, stack)[0]
        for b in ("0", "1"):
            w = u[int(b, 2)].conj()
            target = u.conj().T @ basis_projector(b) @ u
            assert la.norm(np.outer(w, w.conj()) - target) < 1e-12


def test_enumerate_clifford_group_is_the_full_group():
    frames = enumerate_clifford_group()
    assert frames.shape == (24, 2, 3) and frames.dtype == np.uint8
    mats = frame_unitaries("clifford", frames)
    # pairwise distinct up to global phase
    for i in range(24):
        for j in range(i + 1, 24):
            inner = abs(np.trace(mats[i].conj().T @ mats[j])) / 2
            assert inner < 1 - 1e-9


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_clifford_is_unitary_and_symplectic(n, seed):
    tab = sample_frames(n, "clifford", 1, np.random.default_rng(seed))
    assert tab.shape == (1, 2 * n, 2 * n + 1)
    u = frame_unitaries("clifford", tab)[0]
    assert la.norm(u @ u.conj().T - np.eye(2**n)) < 1e-10
    # tableau satisfies the symplectic condition over GF(2)
    m = tab[0, :, :-1].astype(int)
    j = np.zeros((2 * n, 2 * n), dtype=int)
    j[:n, n:] = np.eye(n, dtype=int)
    j[n:, :n] = np.eye(n, dtype=int)
    assert np.array_equal((m @ j @ m.T) % 2, j)


@pytest.mark.parametrize("n", [1, 2])
def test_clifford_conjugation_sends_paulis_to_paulis(n):
    """U P U^dag lands on a single signed Pauli string for every Pauli P."""
    from itertools import product

    rng = np.random.default_rng(11)
    u = frame_unitaries("clifford", sample_frames(n, "clifford", 1, rng))[0]
    d = 2**n
    strings = ["".join(t) for t in product("IXYZ", repeat=n)]
    basis = [PauliString(s).matrix for s in strings]
    for p in basis[1:]:
        conj = u @ p @ u.conj().T
        overlaps = [abs(np.trace(conj @ q)) / d for q in basis]
        hits = [o for o in overlaps if o > 1e-9]
        assert len(hits) == 1
        assert hits[0] == pytest.approx(1.0, abs=1e-9)


def test_sampled_cliffords_are_uniform_at_one_qubit(chi_square):
    """Kernel-sampled frames hit each of the 24 enumerated frames equally
    (chi-square on 23 degrees of freedom)."""
    index = {t.tobytes(): i for i, t in enumerate(enumerate_clifford_group())}
    frames = sample_frames(1, "clifford", 24000, np.random.default_rng(5))
    counts = np.bincount([index[t.tobytes()] for t in frames], minlength=24)
    stat, df = chi_square(counts, np.full(24, 1 / 24))
    assert df == 23


def test_sampled_symplectic_parts_are_uniform_at_two_qubits(chi_square):
    """Koenig-Smolin levels over m hit each of the 720 symplectic matrices
    of two qubits equally (chi-square on 719 degrees of freedom)."""
    tab = sample_frames(2, "clifford", 72000, np.random.default_rng(6))
    _, counts = np.unique(tab[:, :, :-1].reshape(len(tab), -1), axis=0, return_counts=True)
    assert counts.size == 720  # |Sp(4, F_2)| = prod_{j=1,2} (4^j - 1) 4^j / 2
    chi_square(counts, np.full(counts.size, 1 / counts.size))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sampled_tableaus_are_symplectic(n):
    tab = sample_frames(n, "clifford", 400, np.random.default_rng(n))
    assert tab.shape == (400, 2 * n, 2 * n + 1) and tab.dtype == np.uint8
    assert is_symplectic(tab[:, :, :-1]).all()
    assert set(np.unique(tab)) <= {0, 1}


def test_is_symplectic_rejects_broken_tableaus():
    s = np.array([[[1, 0], [0, 1]], [[1, 0], [1, 0]], [[0, 1], [1, 1]]])
    assert is_symplectic(s).tolist() == [True, False, True]


@pytest.mark.parametrize("ens,n", [("pauli", 3), ("clifford", 1), ("clifford", 3)])
def test_frame_unitaries_match_to_matrix(ens, n):
    """The stacked builder equals the build of each frame on its own, and
    is unitary."""
    stack = sample_frames(n, ens, 20, np.random.default_rng(n))
    us = frame_unitaries(ens, stack)
    for i, u in enumerate(us):
        assert np.array_equal(u, frame_unitaries(ens, stack[i:i + 1])[0])
        assert la.norm(u @ u.conj().T - np.eye(2**n)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_frame_unitaries_conjugate_generators_to_tableau_rows(n):
    """U X_j U^dag and U Z_j U^dag are the signed Paulis of tableau rows j
    and n + j, built here as dense Kronecker products."""
    letters = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
    tab = sample_frames(n, "clifford", 30, np.random.default_rng(10 + n))
    for t, u in zip(tab, frame_unitaries("clifford", tab)):
        for row in range(2 * n):
            gen = ["I"] * n
            gen[row % n] = "XZ"[row // n]
            image = "".join(letters[t[row, q], t[row, n + q]] for q in range(n))
            target = (-1) ** int(t[row, -1]) * PauliString(image).matrix
            conj = u @ PauliString("".join(gen)).matrix @ u.conj().T
            assert la.norm(conj - target) < 1e-12


def test_sample_clifford_deterministic():
    a = sample_frames(2, "clifford", 1, np.random.default_rng(42))
    b = sample_frames(2, "clifford", 1, np.random.default_rng(42))
    assert np.array_equal(a[:, :, :-1], b[:, :, :-1])
    assert np.array_equal(a[:, :, -1], b[:, :, -1])


def test_sample_haar_unitary(rng):
    u = sample_haar_unitary(2, rng)  # argument is the qubit count
    assert u.shape == (4, 4)
    assert la.norm(u @ u.conj().T - np.eye(4)) < 1e-10
    again = sample_haar_unitary(2, np.random.default_rng(5))
    same = sample_haar_unitary(2, np.random.default_rng(5))
    assert np.array_equal(again, same)


def test_sample_frames_dispatch(rng):
    assert sample_frames(2, "pauli", 3, rng).shape == (3, 2)
    assert sample_frames(2, "clifford", 3, rng).shape == (3, 4, 5)
    with pytest.raises(ValueError, match="unknown ensemble 'haar'"):
        sample_frames(1, "haar", 1, rng)
