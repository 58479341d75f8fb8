"""Basic linear-algebra helpers: basis states, Pauli strings, channels, Choi matrices."""

import numpy as np
import numpy.linalg as la
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dense_reference import channel_of_choi
from procshadow.qcore import (
    Channel,
    ChoiMatrix,
    PauliString,
    apply_channel,
    basis_index,
    basis_projector,
    basis_state,
    check_density_matrix,
    choi_of_channel,
    is_hermitian,
    n_qubits_of,
    operator_norm,
    random_density_matrix,
    tensor,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1]).astype(complex)


def test_basis_index_round_trip():
    for n in (1, 2, 3):
        for i in range(2**n):
            bits = format(i, f"0{n}b")
            assert len(bits) == n
            assert basis_index(bits) == i


def test_basis_index_convention():
    # leftmost character is the most significant qubit
    assert basis_index("10") == 2
    assert basis_index("01") == 1


def test_basis_state_and_projector():
    v = basis_state("01")
    assert v.shape == (4,)
    assert v[1] == 1.0 and la.norm(v) == 1.0
    p = basis_projector("01")
    assert np.array_equal(p, np.outer(v, v.conj()))


def test_tensor_matches_kron():
    a = np.arange(4).reshape(2, 2)
    b = np.eye(2)
    c = np.array([[0, 1], [1, 0]])
    assert np.array_equal(tensor(a, b, c), np.kron(np.kron(a, b), c))


def test_n_qubits_of():
    assert n_qubits_of(np.eye(8)) == 3
    with pytest.raises(ValueError):
        n_qubits_of(np.eye(3))


def test_pauli_string_matrices():
    assert np.array_equal(PauliString("X").matrix, X)
    assert np.array_equal(PauliString("Y").matrix, Y)
    assert np.array_equal(PauliString("ZI").matrix, np.kron(Z, np.eye(2)))
    assert PauliString("XYZ").n_qubits == 3
    assert PauliString("XIZ").support == 2
    assert PauliString("II").support == 0


def test_pauli_string_rejects_bad_letters():
    with pytest.raises(ValueError):
        PauliString("XQ")


def test_pauli_strings_orthogonal():
    """Tr[P Q] = d * delta_{PQ} over all two-qubit strings."""
    from itertools import product

    strings = ["".join(p) for p in product("IXYZ", repeat=2)]
    for a in strings:
        for b in strings:
            val = np.trace(PauliString(a).matrix @ PauliString(b).matrix)
            assert val == pytest.approx(4.0 if a == b else 0.0, abs=1e-12)


def test_operator_norm():
    assert operator_norm(Z) == pytest.approx(1.0)
    assert operator_norm(3 * np.eye(2)) == pytest.approx(3.0)
    # non-Hermitian case: largest singular value
    nil = np.array([[0, 2], [0, 0]])
    assert operator_norm(nil) == pytest.approx(2.0)


def test_is_hermitian():
    assert is_hermitian(Y)
    assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
def test_random_density_matrix_is_a_state(seed, n):
    rho = random_density_matrix(n, np.random.default_rng(seed))
    assert rho.shape == (2**n, 2**n)
    check_density_matrix(rho)  # hermitian, unit trace, PSD


def test_check_density_matrix_rejects():
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([0.5, 0.6]))
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([1.5, -0.5]))


def test_channel_validation():
    Channel((np.eye(2),))  # identity is fine
    with pytest.raises(ValueError):
        Channel((0.5 * np.eye(2),))  # not trace preserving
    g = 0.3
    k0 = np.array([[1, 0], [0, np.sqrt(1 - g)]])
    k1 = np.array([[0, np.sqrt(g)], [0, 0]])
    ch = Channel((k0, k1))
    assert ch.n_qubits == 1


def test_apply_channel_amplitude_damping():
    g = 0.3
    k0 = np.array([[1, 0], [0, np.sqrt(1 - g)]])
    k1 = np.array([[0, np.sqrt(g)], [0, 0]])
    ch = Channel((k0, k1))
    out = apply_channel(ch, basis_projector("1"))
    assert out[0, 0] == pytest.approx(0.3)
    assert out[1, 1] == pytest.approx(0.7)


def test_choi_of_identity():
    ch = Channel((np.eye(2),))
    choi = choi_of_channel(ch)
    assert choi.n_qubits == 1
    assert np.trace(choi.matrix) == pytest.approx(2.0)  # unnormalized trace = d
    phi = np.array([1.0, 0, 0, 1.0])  # sum_m |mm>, so the Choi matrix is |phi><phi|
    assert la.norm(choi.matrix - np.outer(phi, phi)) < 1e-12


def test_choi_of_hadamard_frozen():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    choi = choi_of_channel(Channel((h,)))
    expected = 0.5 * np.array(
        [
            [1, 1, 1, -1],
            [1, 1, 1, -1],
            [1, 1, 1, -1],
            [-1, -1, -1, 1],
        ],
        dtype=complex,
    )
    assert la.norm(choi.matrix - expected) < 1e-12


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [1, 2])
def test_choi_round_trip(seed, n):
    """channel -> Choi -> action on states agrees with the Kraus action."""
    rng = np.random.default_rng(seed)
    u = _haar(2**n, rng)
    ch = Channel((u,))
    choi = choi_of_channel(ch)
    rho = random_density_matrix(n, rng)
    direct = apply_channel(ch, rho)
    via_choi = channel_of_choi(choi, rho)
    assert la.norm(direct - via_choi) < 1e-10


def test_choi_normalized_flag():
    ch = Channel((np.eye(2),))
    choi = choi_of_channel(ch)
    normed = ChoiMatrix(choi.matrix / 2, 1, normalized=True)
    rho = np.diag([0.25, 0.75])
    assert la.norm(channel_of_choi(normed, rho) - rho) < 1e-12


def _haar(d, rng):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = la.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))
