"""Sample-budget planning and variance bounds."""

import dataclasses
import math
import time

import numpy as np
import numpy.linalg as la
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dense_reference import random_hermitian
from procshadow.complexity import (
    ComplexityQuery,
    PureInput,
    f_value,
    s_operator,
    sample_budget,
    shadow_norm_bruteforce,
    verify_moment_bound,
)
from procshadow.qcore import (
    PauliString,
    basis_projector,
    operator_norm,
    random_density_matrix,
)

Z = np.diag([1.0, -1.0])


def test_s_operator_identity_frozen():
    # S(I) at d=2: 2 * ([2*4 + 2] I + 2*2*I + 2*I) = 32 I
    assert la.norm(s_operator(np.eye(2)) - 32 * np.eye(2)) < 1e-12


def test_s_operator_z_frozen():
    # traceless input: 2 * (2 I + 2 Z^2) = 8 I
    assert la.norm(s_operator(Z) - 8 * np.eye(2)) < 1e-12


@given(st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=3))
def test_s_operator_of_states_bounded_by_14(seed, n):
    rho = random_density_matrix(n, np.random.default_rng(seed))
    assert operator_norm(s_operator(rho)) <= 14.0 + 1e-9


@given(st.integers(min_value=0, max_value=100))
def test_s_operator_hermitian(seed):
    o = random_hermitian(1, np.random.default_rng(seed))
    s = s_operator(o)
    assert la.norm(s - s.conj().T) < 1e-10


def test_f_value_pauli_strings():
    assert f_value(PauliString("Z"), "pauli") == 4.0
    assert f_value(PauliString("ZI"), "pauli") == 4.0
    assert f_value(PauliString("ZZ"), "pauli") == 16.0
    assert f_value(PauliString("II"), "pauli") == 1.0


def test_f_value_dense_needs_support():
    with pytest.raises(ValueError):
        f_value(Z, "pauli")
    assert f_value(Z, "pauli", support=1) == pytest.approx(4.0)
    assert f_value(2 * Z, "pauli", support=1) == pytest.approx(16.0)


def test_f_value_clifford_state():
    assert f_value(basis_projector("0"), "clifford") == pytest.approx(14.0)


@pytest.mark.parametrize("ensemble", ["pauli", "clifford"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_pure_input_f_matches_its_dense_state(ensemble, n):
    """The closed form of a unit-norm pure input, 4^support under Pauli
    frames and 14 under Clifford frames (s_operator of a rank-1 projector
    is 2(3I + 4 rho)), at every support, for a basis and a random state."""
    rng = np.random.default_rng(n)
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    v /= la.norm(v)
    for state in (basis_projector("0" * n), np.outer(v, v.conj())):
        for support in range(n + 1):
            closed = f_value(PureInput(n, support), ensemble)
            assert closed == pytest.approx(f_value(state, ensemble, support), rel=1e-12)


@pytest.mark.parametrize("ensemble", ["pauli", "clifford"])
def test_budget_of_pure_inputs_matches_dense_inputs(ensemble):
    dense = ComplexityQuery(epsilon=0.1, delta=0.1, n_qubits=2,
                            observables=(PauliString("ZI"), PauliString("XX")),
                            input_states=((basis_projector("00"), 1), (basis_projector("01"), 2)),
                            ensemble_in=ensemble)
    pure = dataclasses.replace(dense, input_states=(PureInput(2, 1), PureInput(2, 2)))
    a, b = sample_budget(dense), sample_budget(pure)
    assert b.f_in == pytest.approx(a.f_in, rel=1e-12)
    assert b.k_groups == a.k_groups
    assert b.per_pair_f == pytest.approx(a.per_pair_f, rel=1e-12)


@pytest.mark.parametrize("support", [-1, 3])
def test_pure_input_rejects_a_support_outside_its_register(support):
    with pytest.raises(ValueError, match="outside"):
        PureInput(2, support)


def test_budget_rejects_a_pure_input_on_another_register():
    with pytest.raises(ValueError, match="does not match"):
        ComplexityQuery(epsilon=0.1, delta=0.1, n_qubits=2, observables=(PauliString("ZI"),),
                        input_states=(PureInput(3, 1),))


def test_sample_budget_worked_example():
    q = ComplexityQuery(
        epsilon=0.1,
        delta=0.1,
        n_qubits=1,
        observables=(PauliString("Z"),),
        input_states=((basis_projector("0"), 1),),
    )
    a = sample_budget(q)
    assert a.k_groups == 6
    assert a.n_per_group == 217600
    assert a.total == 6 * 217600
    assert a.f_in == (4.0,)
    assert a.f_out == (4.0,)


def test_sample_budget_state_mode():
    q = ComplexityQuery(epsilon=0.1, delta=0.1, n_qubits=1, observables=(PauliString("Z"),))
    a = sample_budget(q)
    assert a.k_groups == 6
    assert a.n_per_group == 13600  # 34/eps^2 * f with f = 4
    # Z is already traceless so the shifted budget is unchanged
    assert a.state_budget_shifted == 13600


@pytest.mark.parametrize("letters", ["I", "Z", "II", "XY", "III", "IZI", "XYZ"])
@pytest.mark.parametrize("ensemble", ["pauli", "clifford"])
def test_pauli_string_budget_matches_its_dense_matrix(letters, ensemble):
    """A PauliString's closed forms (its Clifford f, its traceless shift in
    state mode) give the budget of the same operator as a dense matrix."""
    p = PauliString(letters)
    closed, dense = (sample_budget(ComplexityQuery(epsilon=0.1, delta=0.1, n_qubits=p.n_qubits,
                                                   observables=(obs,), ensemble_out=ensemble))
                     for obs in (p, (p.matrix, p.support)))
    assert closed.f_out == pytest.approx(dense.f_out, rel=1e-12)
    assert (closed.n_per_group, closed.state_budget_shifted) == (
        dense.n_per_group, dense.state_budget_shifted)


@pytest.mark.parametrize("ensemble", ["pauli", "clifford"])
def test_state_budget_of_a_pauli_string_builds_no_matrix(ensemble):
    """At n=16 a dense observable would have 2^32 entries."""
    start = time.perf_counter()
    a = sample_budget(ComplexityQuery(epsilon=0.1, delta=0.1, n_qubits=16,
                                      observables=(PauliString("Z" + "I" * 15),),
                                      ensemble_out=ensemble))
    assert time.perf_counter() - start < 1.0
    f = 4.0 if ensemble == "pauli" else 2.0 * (2**16 + 2)
    assert a.f_out == (f,)
    assert a.n_per_group == a.state_budget_shifted == math.ceil(34 / 0.1**2 * f)


def test_sample_budget_traceless_shift_helps():
    dense = np.diag([1.0, 0.0])  # |0><0| = (I + Z)/2
    q = ComplexityQuery(epsilon=0.1, delta=0.1, n_qubits=1, observables=((dense, 1),))
    a = sample_budget(q)
    assert a.n_per_group == 13600
    assert a.state_budget_shifted == 3400  # norm halves, f drops fourfold


def test_sample_budget_monotone():
    base = dict(delta=0.1, n_qubits=1, observables=(PauliString("Z"),))
    n_loose = sample_budget(ComplexityQuery(epsilon=0.2, **base)).n_per_group
    n_tight = sample_budget(ComplexityQuery(epsilon=0.05, **base)).n_per_group
    assert n_tight > n_loose
    k_loose = sample_budget(ComplexityQuery(epsilon=0.1, **base)).k_groups
    strict = ComplexityQuery(epsilon=0.1, delta=0.001, n_qubits=1,
                             observables=(PauliString("Z"),))
    assert sample_budget(strict).k_groups > k_loose


def test_sample_budget_many_observables_grows_k():
    obs = tuple(PauliString(s) for s in ("X", "Y", "Z"))
    states = ((basis_projector("0"), 1), (basis_projector("1"), 1))
    q = ComplexityQuery(epsilon=0.1, delta=0.1, n_qubits=1,
                        observables=obs, input_states=states)
    a = sample_budget(q)
    single = sample_budget(
        ComplexityQuery(epsilon=0.1, delta=0.1, n_qubits=1,
                        observables=(PauliString("Z"),),
                        input_states=((basis_projector("0"), 1),))
    )
    assert a.k_groups > single.k_groups
    assert a.per_pair_f.shape == (2, 3)


def test_query_validation():
    with pytest.raises(ValueError):
        ComplexityQuery(epsilon=0.0, delta=0.1, n_qubits=1, observables=(PauliString("Z"),))
    with pytest.raises(ValueError):
        ComplexityQuery(epsilon=0.1, delta=2.0, n_qubits=1, observables=(PauliString("Z"),))
    with pytest.raises(ValueError):
        ComplexityQuery(epsilon=0.1, delta=0.1, n_qubits=1, observables=())


def test_query_rejects_register_mismatch():
    with pytest.raises(ValueError, match="n_qubits=0"):
        ComplexityQuery(epsilon=0.1, delta=0.1, n_qubits=0, observables=(PauliString("Z"),))
    with pytest.raises(ValueError, match="operator on 1 qubits does not match n_qubits=2"):
        ComplexityQuery(epsilon=0.1, delta=0.1, n_qubits=2, observables=(PauliString("Z"),))
    with pytest.raises(ValueError, match="operator on 2 qubits does not match n_qubits=1"):
        ComplexityQuery(epsilon=0.1, delta=0.1, n_qubits=1, observables=((np.eye(4), 1),))
    with pytest.raises(ValueError, match="operator on 1 qubits does not match n_qubits=2"):
        ComplexityQuery(epsilon=0.1, delta=0.1, n_qubits=2, observables=(PauliString("ZZ"),),
                        input_states=((basis_projector("0"), 1),))
    ComplexityQuery(epsilon=0.1, delta=0.1, n_qubits=2, observables=(PauliString("ZZ"),),
                    input_states=((basis_projector("00"), 1), basis_projector("01")))


def test_shadow_norm_z_frozen():
    # Only the Z-basis draw contributes: (1/3) * 9 * (P0 + P1) = 3 I
    assert shadow_norm_bruteforce(PauliString("Z").matrix, "pauli") == pytest.approx(3.0, abs=1e-10)


def test_shadow_norm_zz_frozen():
    zz = PauliString("ZZ").matrix
    assert shadow_norm_bruteforce(zz, "pauli") == pytest.approx(9.0, abs=1e-9)


def test_shadow_norm_clifford_single_qubit():
    # uniform over the six stabilizer states: same 3.0 for any Pauli
    assert shadow_norm_bruteforce(Z, "clifford") == pytest.approx(3.0, abs=1e-10)


@pytest.mark.parametrize("letters", ["X", "Y", "Z"])
def test_shadow_norm_bounded_by_f(letters):
    o = PauliString(letters).matrix
    norm = shadow_norm_bruteforce(o, "pauli")
    assert norm <= f_value(PauliString(letters), "pauli") + 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_shadow_norm_clifford_bounded_by_s_norm(seed):
    o = random_hermitian(1, np.random.default_rng(seed))
    shifted = o - np.trace(o) / 2 * np.eye(2)
    norm = shadow_norm_bruteforce(shifted, "clifford")
    assert norm <= operator_norm(s_operator(shifted)) + 1e-9


def test_verify_moment_bound():
    report = verify_moment_bound(30, np.random.default_rng(0))
    assert report.trials == 30
    assert report.passed
    assert report.worst_violation <= 1e-9
    assert report.worst_design_residual < 1e-10


@pytest.mark.parametrize("trials", [0, -1, 2.5])
def test_verify_moment_bound_refuses_a_count_below_one(trials):
    with pytest.raises(ValueError, match="trial"):
        verify_moment_bound(trials, np.random.default_rng(0))


def test_single_shot_variance_within_budget_bound():
    """Empirical second moment of the functional estimator stays below
    4^n * f_in * f_out."""
    from procshadow.channels import random_unitary_channel
    from procshadow.process_shadows import acquire_process_shadow, single_shot_functional_values

    rng = np.random.default_rng(2)
    for n in (1, 2):
        ch = random_unitary_channel(n, rng)
        ps = acquire_process_shadow(ch, 3000, "pauli", "pauli", rng)
        rho = basis_projector("0" * n)
        obs = PauliString("Z" * n).matrix
        vals = single_shot_functional_values(ps, rho, obs)
        bound = 4**n * 4.0**n * 4.0**n  # f = 4^support for full-support inputs
        assert float(np.mean(vals**2)) <= bound
