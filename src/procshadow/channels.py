"""Test-channel constructors: named single-parameter families, Haar-random
unitaries, and random full-Kraus-rank channels from a Stinespring dilation."""

from __future__ import annotations

import math

import numpy as np

from .ensembles import sample_haar_unitary
from .qcore import MAX_QUBITS, PAULI, Channel, InfeasibleError, check_register, tensor

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)

#: channels built per qubit and tensored across the register
_PARAMETRIC = ("depolarizing", "dephasing", "amplitude-damping")


def _single_qubit_kraus(name: str, value: float) -> tuple:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} parameter {value} outside [0, 1]")
    if name == "depolarizing":
        return (math.sqrt(1.0 - 3.0 * value / 4.0) * np.eye(2),
                math.sqrt(value / 4.0) * PAULI["X"],
                math.sqrt(value / 4.0) * PAULI["Y"],
                math.sqrt(value / 4.0) * PAULI["Z"])
    if name == "dephasing":
        return (math.sqrt(1.0 - value / 2.0) * np.eye(2),
                math.sqrt(value / 2.0) * PAULI["Z"])
    if name == "amplitude-damping":
        return (np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - value)]]),
                np.array([[0.0, math.sqrt(value)], [0.0, 0.0]]))
    raise ValueError(f"unknown parametric channel {name!r}")


def _tensor_power_kraus(kraus1, n: int) -> tuple:
    """All products of per-qubit Kraus choices across an n-qubit register."""
    ops = [np.eye(1)]
    for _ in range(n):
        ops = [np.kron(a, k) for a in ops for k in kraus1]
    return tuple(ops)


def named_channel(name: str, n: int, value: float | None = None) -> Channel:
    """Build one of the named test channels on n qubits.

    ``pauli-x`` and ``hadamard`` act on qubit 0 (identity elsewhere);
    the parametric families act independently on every qubit.
    """
    check_register(n)
    if value is not None and name not in _PARAMETRIC:
        raise ValueError(f"{name} does not take a parameter value")
    if name == "identity":
        return Channel(kraus=(np.eye(2**n),))
    if name == "pauli-x":
        return Channel(kraus=(tensor(PAULI["X"], *([np.eye(2)] * (n - 1))),))
    if name == "hadamard":
        return Channel(kraus=(tensor(HADAMARD, *([np.eye(2)] * (n - 1))),))
    if name in _PARAMETRIC:
        if value is None:
            raise ValueError(f"{name} needs a parameter value")
        return Channel(kraus=_tensor_power_kraus(_single_qubit_kraus(name, value), n))
    raise ValueError(f"unknown channel name {name!r}")


def random_unitary_channel(n: int, rng: np.random.Generator) -> Channel:
    """Channel with a single Haar-random Kraus operator."""
    check_register(n)  # before the 2^n x 2^n Ginibre draw
    return Channel(kraus=(sample_haar_unitary(n, rng),))


def random_full_rank_channel(n_sys: int, rng: np.random.Generator) -> Channel:
    """Generic channel of maximal Kraus rank on n_sys qubits.

    Dilates with an ancilla register of 2*n_sys qubits (enough for full
    rank), applies a Haar unitary to ancilla+system with the ancilla in
    |0>, and reads one Kraus operator per ancilla outcome:
    K_j = (<j|_anc (x) I) U (|0>_anc (x) I).
    """
    if 3 * n_sys > MAX_QUBITS:
        raise InfeasibleError(f"a full-rank channel on {n_sys} qubits dilates to "
                              f"{3 * n_sys}, beyond the register cap ({MAX_QUBITS})")
    d_sys = 2**n_sys
    d_anc = 4**n_sys
    u = sample_haar_unitary(3 * n_sys, rng)
    block = u[:, :d_sys]  # ancilla-first ordering puts anc=0 in the leading columns
    kraus = tuple(block[j * d_sys:(j + 1) * d_sys, :] for j in range(d_anc))
    return Channel(kraus=kraus)


def compose_channels(x: Channel, y: Channel) -> Channel:
    """The channel y after x: Kraus operators K_y K_x, with x's index fastest."""
    return Channel(kraus=tuple(ky @ kx for ky in y.kraus for kx in x.kraus))


def channel_from_spec(spec: str, n: int) -> Channel:
    """Parse a channel description string.

    Forms: a bare name ("identity", "pauli-x", "hadamard"), a name with
    parameter ("depolarizing:0.3", "dephasing:0.5",
    "amplitude-damping:0.25"), or a random family with seed
    ("random-unitary:7", "random-full-rank:7").
    """
    name, _, arg = spec.partition(":")
    name = name.strip()
    if name in ("random-unitary", "random-full-rank"):
        if not arg:
            raise ValueError(f"{name} needs a seed, e.g. {name}:7")
        rng = np.random.default_rng(int(arg))
        if name == "random-unitary":
            return random_unitary_channel(n, rng)
        return random_full_rank_channel(n, rng)
    if name in _PARAMETRIC:
        if not arg:
            raise ValueError(f"{name} needs a parameter, e.g. {name}:0.3")
        return named_channel(name, n, float(arg))
    if arg:
        raise ValueError(f"channel {name!r} takes no parameter")
    return named_channel(name, n)
