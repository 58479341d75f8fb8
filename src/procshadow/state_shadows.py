"""Classical shadows of quantum states.

A snapshot is one (frame, outcome) pair; its materialized form is the
inverse-map image of the measured projector and averages to the state.
A shadow (``ShadowEstimate``, also one side of a process shadow) stores
one int64 label per snapshot, and all its snapshots come from one frame
ensemble: a side that mixes Pauli and Clifford frames is refused.  A
random-Pauli snapshot factorizes into one 2x2 ``tau`` matrix per qubit
and is labelled by a compact key: per qubit ``2*axis + bit`` in {0..5}
with axis order X, Y, Z, and per register the base-6 digits with qubit
0 most significant.  A Clifford snapshot is labelled ``frame_index *
2^n + outcome``, indexing the side's stack of distinct tableaus.  The
label codec is ``ShadowEstimate.of_stack`` (``.of_tableaus`` for a
deduplicated stack) and ``.distinct``: every label is encoded and
decoded there.  Frame objects (``PauliFrame``, ``CliffordFrame``) exist
only in the views that ``._decode`` builds; acquisition, estimators and
record files work on labels and tableaus.

Estimators work on Pauli coefficients: a snapshot has 2^n nonzero ones,
which ``ShadowEstimate.pauli_terms`` expands once per side and keeps on it.
Estimators pass sides: a trace Tr[snapshot O] (``_side_values``) is a gather
of O's Pauli vector, and a weighted sum (``_snapshot_sum``) one ``bincount``
into 4^n coefficients, made dense one qubit at a time (``_pauli_matrix``).

Acquisition has two paths.  Pauli snapshots (and Pauli/Pauli records) are
drawn from the Pauli coefficients one qubit at a time, by
``_draw_pauli_keys``.  Clifford snapshots come from the batched simulation
``_simulate``, which ``process_shadows`` shares: it samples a stack of
frames, builds their unitaries, takes the Born rows of the measured
states in those frames and draws every outcome by an inverse CDF, in
chunks of records that keep each temporary near 2^15 complex entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import PAULI, check_density_matrix, check_register, n_qubits_of, tensor
from .ensembles import (AXES, CLIFFORD_ENSEMBLE, PAULI_ENSEMBLE, CliffordFrame,
                        Frame, PauliFrame, frame_unitaries, sample_frames)

# PROJ1[k] is the measured projector for qubit key k; TAU1[k] = 3 PROJ1[k] - I.
# Written as exact dyadic literals (building them from the frame matrices
# would square 1/sqrt(2) and leave 1-ulp noise in every table downstream);
# they equal outer(v, v*) for the prepared vectors v = U^dag|b> of the axis frames.
PROJ1 = 0.5 * np.array([
    [[1, 1], [1, 1]],
    [[1, -1], [-1, 1]],
    [[1, -1j], [1j, 1]],
    [[1, 1j], [-1j, 1]],
    [[2, 0], [0, 0]],
    [[0, 0], [0, 2]],
], dtype=complex)
TAU1 = 3.0 * PROJ1 - np.eye(2)

# _SIGMA[s] = sigma_s.reshape(-1) for sigma = I, X, Y, Z; Tr[PROJ1[k] A] =
# sum_s _PROJ1_PAULI[k, s] Tr[sigma_s A] for Hermitian A; TAU1[k] is
# sum_t _TAU_COEF[t, k] sigma_{_TAU_INDEX[t, k]}: 1/2 on I, +-3/2 on the axis.
_SIGMA = np.array([PAULI[c].reshape(-1) for c in "IXYZ"])
_PROJ1_PAULI = np.real(PROJ1.reshape(6, 4) @ _SIGMA.conj().T) / 2
_TAU_PAULI = np.real(TAU1.reshape(6, 4) @ _SIGMA.conj().T) / 2
_TAU_INDEX = np.ascontiguousarray(np.nonzero(_TAU_PAULI)[1].reshape(6, 2).T)
_TAU_COEF = np.ascontiguousarray(np.take_along_axis(_TAU_PAULI, _TAU_INDEX.T, axis=1).T)


def qubit_key(axis: str, bit: int) -> int:
    return 2 * AXES.index(axis) + (bit & 1)


def register_key(axes: str, bits: str) -> int:
    """Base-6 key of a full register's (axes, outcome bits)."""
    k = 0
    for a, b in zip(axes, bits):
        k = 6 * k + qubit_key(a, int(b))
    return k


def _digits(keys: np.ndarray, n: int) -> np.ndarray:
    """(k, n) base-6 digits of Pauli keys, qubit 0 first."""
    return (keys[:, None] // 6 ** np.arange(n - 1, -1, -1, dtype=np.int64)) % 6


def _pauli_vector(ops: np.ndarray, n: int) -> np.ndarray:
    """(k, 4^n) Tr[sigma_s O] for each O of a (k, 2^n, 2^n) stack, s in
    base 4 with qubit 0 most significant, contracted one qubit at a time."""
    k = len(ops)
    t = np.asarray(ops, dtype=complex).reshape((k,) + (2,) * (2 * n))
    t = t.transpose([1 + a for q in range(n) for a in (q, n + q)] + [0])
    for _ in range(n):  # contracts the leading qubit, appends its new axis last
        t = t.reshape(4, -1).T @ _SIGMA.conj().T
    return t.reshape(k, 4**n)


def _y_sign(index: np.ndarray, n: int) -> np.ndarray:
    """(-1)^{#Y} of base-4 Pauli indices, the sign that sigma^T = +-sigma takes."""
    return 1 - 2 * (sum((index >> 2 * q) & 3 == 2 for q in range(n)) % 2)


def _pauli_matrix(t: np.ndarray, n: int) -> np.ndarray:
    """sum_s t[s] sigma_s as a dense 2^n x 2^n matrix, expanded one qubit
    at a time (the inverse of ``_pauli_vector`` up to a factor 2^n)."""
    for _ in range(n):  # expands the leading qubit, appends its (row, col) last
        t = t.reshape(4, -1).T @ _SIGMA
    t = t.reshape((2,) * (2 * n))
    return t.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))).reshape(2**n, 2**n)


def _count(value, name: str):
    """``value``, or a ValueError that names ``name`` if it is no integer."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _unchecked(cls, rows: list) -> list:
    """``[cls(*row) for row in rows]`` without ``__post_init__``; field by field is faster."""
    objs = [object.__new__(cls) for _ in rows]
    for name, column in zip(cls.__dataclass_fields__, zip(*rows)):
        for obj, value in zip(objs, column):
            object.__setattr__(obj, name, value)
    return objs


@dataclass(frozen=True)
class StateSnapshot:
    """One measured (frame, outcome) pair."""

    frame: Frame
    outcome: str

    def __post_init__(self):
        if not isinstance(self.outcome, str):
            raise ValueError(f"outcome {self.outcome!r} is not a str")
        if len(self.outcome) != self.frame.n_qubits or self.outcome.strip("01"):
            raise ValueError(f"outcome {self.outcome!r} does not match frame")

    @property
    def n_qubits(self) -> int:
        return self.frame.n_qubits


class ShadowEstimate:
    """One side of a shadow: one int64 label per snapshot of one state.

    A side holds one frame ensemble.  ``frames`` is None for base-6 Pauli
    keys, else the read-only (k, 2n, 2n+1) uint8 stack of the distinct
    tableaus that ``label >> n`` indexes, in order of first appearance.
    """

    def __init__(self, labels, n_qubits: int, frames: np.ndarray | None = None):
        self.labels = np.asarray(labels, dtype=np.int64)
        self.labels.setflags(write=False)
        self.n_qubits = n_qubits
        if frames is not None:
            frames = np.asarray(frames, dtype=np.uint8)
            frames.setflags(write=False)
        self.frames = frames
        self._terms = None

    @classmethod
    def of_stack(cls, ensemble: str, frames: np.ndarray,
                 outcomes: np.ndarray) -> "ShadowEstimate":
        """Labels of a frame stack (see ``ensembles.sample_frames``) and
        its outcome indices; distinct tableaus are indexed in order of
        first appearance."""
        if ensemble == PAULI_ENSEMBLE:  # per qubit 2*axis + bit, qubit 0 most significant
            n = frames.shape[1]
            place = 6 ** np.arange(n - 1, -1, -1)
            # each outcome index's bits as base-6 digits: one table gather, not m shifts
            bits = ((np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1) @ place
            return cls(2 * (frames @ place) + bits[outcomes], n)
        # one byte string per tableau, which sorts faster than rows of bits
        packed = np.packbits(frames.reshape(len(frames), np.prod(frames.shape[1:])), axis=1)
        _, first, inverse = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))),
                                      return_index=True, return_inverse=True)
        order = np.argsort(first)  # its inverse permutation ranks each tableau
        return cls.of_tableaus(frames[first[order]], np.argsort(order)[inverse.ravel()], outcomes)

    @classmethod
    def of_tableaus(cls, tableaus: np.ndarray, index, outcomes) -> "ShadowEstimate":
        """Labels of a Clifford side whose snapshot i has the frame
        ``tableaus[index[i]]``, distinct tableaus in order of first appearance."""
        n = tableaus.shape[1] // 2
        return cls((index << n) | outcomes, n, tableaus)

    @classmethod
    def encode(cls, frames, outcomes, n: int) -> "ShadowEstimate":
        """Labels of (frame, outcome bits) pairs of one ensemble: the frames
        become one stack and the bit strings ints, for ``of_stack``; an
        empty side is a Pauli side."""
        frames = list(frames)
        outcomes = np.array([int(b, 2) for b in outcomes], dtype=np.int64)
        if all(isinstance(f, PauliFrame) for f in frames):  # "XYZ" are consecutive bytes
            axes = np.frombuffer("".join(f.axes for f in frames).encode(), dtype=np.uint8)
            return cls.of_stack(PAULI_ENSEMBLE, (axes - ord("X")).reshape(len(frames), n),
                                outcomes)
        if not all(isinstance(f, CliffordFrame) for f in frames):
            raise ValueError("one side of a shadow cannot mix Pauli and Clifford frames")
        return cls.of_stack(CLIFFORD_ENSEMBLE, np.concatenate(
            (np.array([f.symplectic for f in frames]),
             np.array([f.signs for f in frames])[:, :, None]), axis=2), outcomes)

    def __len__(self):
        return self.labels.size

    def take(self, m: int) -> "ShadowEstimate":
        """The first m snapshots (snapshots are i.i.d.); m must lie in [0, len]."""
        if not 0 <= _count(m, "m") <= len(self):
            raise ValueError(f"cannot take {m} of {len(self)} snapshots")
        return ShadowEstimate(self.labels[:m], self.n_qubits, self.frames)

    @property
    def ensemble(self) -> str:
        """The side's ensemble tag."""
        return PAULI_ENSEMBLE if self.frames is None else CLIFFORD_ENSEMBLE

    def distinct(self) -> tuple:
        """The decoder of ``of_stack``: ``(index, frames, frame_of, bits)``.
        Snapshot i has the distinct label u = index[i], with outcome bits
        ``bits[u]`` and frame ``frames[frame_of[u]]``; ``frames`` holds each
        used frame once: axes strings on a Pauli side, a read-only copy of
        the used tableaus on a Clifford side."""
        uniq, index = np.unique(self.labels, return_inverse=True)
        n = self.n_qubits
        if self.frames is None:  # characters through byte tables, n per label
            digits = _digits(uniq, n)
            _, first, frame_of = np.unique((digits // 2) @ 3 ** np.arange(n), return_index=True,
                                           return_inverse=True)
            axes = np.frombuffer(b"XYZ", dtype=np.uint8)[digits[first] // 2].tobytes().decode()
            bits = np.frombuffer(b"01", dtype=np.uint8)[digits % 2].tobytes().decode()
            return (index, [axes[i:i + n] for i in range(0, len(axes), n)], frame_of,
                    [bits[i:i + n] for i in range(0, len(bits), n)])
        used, frame_of = np.unique(uniq >> n, return_inverse=True)
        tableaus = self.frames[used]
        tableaus.setflags(write=False)
        return index, tableaus, frame_of, [format(k, f"0{n}b")
                                           for k in (uniq & (2**n - 1)).tolist()]

    def _decode(self, used) -> list:
        """Frame objects of ``distinct()``'s used frames, built unchecked."""
        if self.frames is None:
            return _unchecked(PauliFrame, [(axes,) for axes in used])
        return _unchecked(CliffordFrame, [(t[:, :-1], t[:, -1]) for t in used])

    def views(self) -> list:
        """(frame, outcome bits) of every snapshot, in order; each distinct
        label is decoded once, and each used frame built once."""
        index, used, frame_of, bits = self.distinct()
        decoded = self._decode(used)
        pairs = [(decoded[f], b) for f, b in zip(frame_of.tolist(), bits)]
        return [pairs[i] for i in index.tolist()]

    @property
    def snapshots(self) -> tuple:
        return tuple(StateSnapshot(f, b) for f, b in self.views())

    def pauli_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(index, pauli, coef)``: label i is the snapshot sum_t coef[t, u]
        sigma_{pauli[t, u]} with u = index[i], so column u holds the 2^n
        base-4 Pauli indices (qubit 0 most significant) and real
        coefficients of one distinct label.  Expanded on the first call
        and kept on the side as read-only arrays."""
        if self._terms is None:
            self._terms = self._expand()
            for a in self._terms:
                a.setflags(write=False)
        return self._terms

    def _expand(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        uniq, inv = np.unique(self.labels, return_inverse=True)
        n, d = self.n_qubits, 2**self.n_qubits
        if self.frames is None:  # per qubit 1/2 on I and +-3/2 on the axis
            pauli = np.zeros((1, uniq.size), dtype=np.int64)
            coef = np.ones((1, uniq.size))
            for q, digit in enumerate(_digits(uniq, n).T):
                pauli = (4 * pauli + _TAU_INDEX[:, None, digit]).reshape(2 << q, uniq.size)
                coef = (coef * _TAU_COEF[:, None, digit]).reshape(2 << q, uniq.size)
            return inv, pauli, coef
        # the stabilizer group of U^dag|b>: 1/d on I, +-(d+1)/d on the other
        # d-1 elements, 0 elsewhere; labels in chunks of about 2^18 entries
        pauli = np.empty((d, uniq.size), dtype=np.int64)
        coef = np.empty((d, uniq.size))
        step = max(1, 2**18 // d**2)
        for lo in range(0, uniq.size, step):
            chunk = uniq[lo:lo + step]
            c = np.real(_pauli_vector(frame_snapshots(self.frames[chunk >> n],
                                                      chunk & (d - 1)), n)) / d
            keep = np.abs(c) >= 0.5 / d
            if np.any(keep.sum(axis=1) != d):
                raise ValueError("a Clifford snapshot does not expand to 2^n Pauli terms")
            pauli[:, lo:lo + step] = np.nonzero(keep)[1].reshape(-1, d).T
            coef[:, lo:lo + step] = c[keep].reshape(-1, d).T
        return inv, pauli, coef


def inverse_map_pauli_factorwise(a: np.ndarray) -> np.ndarray:
    """Tensor-factor-wise extension of the single-qubit inverse map.

    Acts as the single-qubit inverse map 3 A - Tr(A) I on every qubit of
    an arbitrary n-qubit operator (not just product operators): per qubit
    it keeps I and triples X, Y and Z, so each Pauli coefficient gains
    3^weight.
    """
    a = np.asarray(a, dtype=complex)
    n = n_qubits_of(a)
    weight = sum((np.arange(4**n) >> 2 * q) & 3 > 0 for q in range(n))
    return _pauli_matrix(_pauli_vector(a[None], n)[0] * 3.0**weight / 2**n, n)


def inverse_map_clifford(a: np.ndarray) -> np.ndarray:
    """Global inverse measurement map (2^n + 1) A - Tr(A) I, of A or of a stack."""
    a = np.asarray(a, dtype=complex)
    d = a.shape[-1]
    return (d + 1.0) * a - np.trace(a, axis1=-2, axis2=-1)[..., None, None] * np.eye(d)


def frame_snapshots(tableaus: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    """Materialized snapshots of Clifford (tableau, outcome index) pairs, for
    a stack of tableaus: the global inverse map of U^dag|b><b|U."""
    u = frame_unitaries(CLIFFORD_ENSEMBLE, tableaus)
    rows = u[np.arange(len(u)), np.asarray(outcomes, dtype=np.int64)]
    return inverse_map_clifford(rows.conj()[:, :, None] * rows[:, None, :])


def materialize_snapshot(s: StateSnapshot) -> np.ndarray:
    """Dense inverse-map image of the snapshot's measured projector."""
    if isinstance(s.frame, PauliFrame):
        return tensor(*(TAU1[qubit_key(a, int(b))]
                        for a, b in zip(s.frame.axes, s.outcome)))
    tableau = np.column_stack((s.frame.symplectic, s.frame.signs))
    return frame_snapshots(tableau[None], [int(s.outcome, 2)])[0]


def _draw_pauli_keys(coeffs: np.ndarray, n: int, m: int,
                     rng: np.random.Generator) -> np.ndarray:
    """m base-6 keys from the Pauli table of the n-qubit state with real Pauli
    coefficients ``coeffs``, by inverse CDF: a q-qubit key prefix has probability
    (its digits' ``_PROJ1_PAULI`` rows . the coefficients that are I elsewhere)
    / 3^q.  The draws of one ``rng.random(m)`` in a prefix table are those of
    ``rng.choice`` when it is whole (n <= 6 or 6^n <= m); below it the sorted
    uniforms descend one qubit at a time, contracting drawn children only."""
    t = coeffs.reshape(-1, 1)  # (4^undrawn qubits, 6^prefix), prefix digits last
    depth = 0
    # a level of at most 2^16 coefficients costs less to build than the descent
    while depth < n and (6 ** (depth + 1) <= m or t.size * 6 // 4 <= 2**16):
        t = t.reshape(4, -1).T @ _PROJ1_PAULI.T
        depth += 1
    t = t.reshape(4 ** (n - depth), 6**depth)
    p = np.clip(t[0], 0.0, None) / 3**depth
    total = p.sum()
    if not (np.isfinite(total) and total > 0 and np.isfinite(coeffs).all()):
        raise ValueError("snapshot weights must be finite with a positive finite sum")
    cdf = np.cumsum(np.divide(p, total, out=p), out=p)
    scale = cdf[-1]
    cdf /= scale
    u = rng.random(m)
    if depth == n:
        return cdf.searchsorted(u, side="right")
    order = np.argsort(u)
    keys = np.empty(m, dtype=np.int64)
    step = max(1, 2**18 // len(t))  # each chunk's rows hold about 2^18 coefficients
    for idx in np.split(order, range(step, m, step)):
        uc = u[idx]
        key = cdf.searchsorted(uc, side="right")
        new = np.diff(key, prepend=-1) != 0  # sorted: one row per drawn prefix
        run, rows, lower = np.cumsum(new) - 1, t[:, key[new]].T, np.r_[0.0, cdf][key]
        for q in range(depth, n):  # rows: 4^(n-q) coefficients per drawn prefix
            rows = rows.reshape(len(rows), 4, 4 ** (n - q - 1))
            w = np.clip(rows[:, :, 0] @ _PROJ1_PAULI.T, 0.0, None) / 3 ** (q + 1) / total
            bounds = lower[:, None] + (np.cumsum(w, axis=1) / scale)[run]
            last = 5 - np.argmax(w[:, ::-1] > 0, axis=1)  # past it: a rounding gap
            child = np.minimum((bounds <= uc[:, None]).sum(axis=1), last[run])
            lower = np.where(child > 0, bounds[np.arange(len(uc)), child - 1], lower)
            key = 6 * key + child
            rows = np.einsum("rs,rsx->rx", _PROJ1_PAULI[child], rows[run])
            run = np.arange(len(uc))
        keys[idx] = key
    return keys


def _simulate(n: int, m: int, ensemble: str, rng: np.random.Generator,
              states, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Measure m states in m random frames of one ensemble, in batches.

    ``states(sl)`` gives the amplitudes of the states of records ``sl``
    as a (records, rank, d) stack, or one (rank, d) stack for all: each
    state is sum_k |v_k><v_k|.  Draws the frames, then one uniform per
    record; returns the frame stack and the outcome indices.
    """
    d = 2**n
    frames = sample_frames(n, ensemble, m, rng)
    uniform = rng.random(m)
    outcomes = np.empty(m, dtype=np.int64)
    # records per chunk: each temporary holds about 2^15 complex entries, so
    # the chunks add little to the heap of the process that runs them
    step = max(1, 2**15 // (d * max(d, rank)))
    for lo in range(0, m, step):
        sl = slice(lo, lo + step)
        amp = states(sl) @ frame_unitaries(ensemble, frames[sl]).transpose(0, 2, 1)
        cdf = np.cumsum((amp.real**2 + amp.imag**2).sum(axis=1), axis=1)
        mass = cdf[:, -1]
        if np.any(np.abs(mass - 1.0) > 1e-6):
            raise ValueError(f"Born mass {mass[np.argmax(np.abs(mass - 1.0))]} "
                             "deviates from 1")
        outcomes[sl] = (cdf <= (uniform[sl] * mass)[:, None]).sum(axis=1)
    return frames, outcomes


def acquire_shadow(rho: np.ndarray, m: int, ensemble: str,
                   rng: np.random.Generator) -> ShadowEstimate:
    """Acquire m i.i.d. snapshots of a state.

    The Pauli ensemble draws its (frame, outcome) keys from rho's Pauli
    coefficients with ``_draw_pauli_keys``; the Clifford ensemble runs
    the batched simulation on the eigen-decomposition of rho.
    """
    n = n_qubits_of(rho)
    check_register(n)
    check_density_matrix(rho)
    if _count(m, "m") < 0:
        raise ValueError(f"record count must be non-negative, got {m}")
    if ensemble == PAULI_ENSEMBLE:
        coeffs = np.real(_pauli_vector(np.asarray(rho)[None], n))[0]
        return ShadowEstimate(_draw_pauli_keys(coeffs, n, m, rng), n)
    lam, vecs = np.linalg.eigh(np.asarray(rho, dtype=complex))
    keep = lam > 0
    amps = (vecs[:, keep] * np.sqrt(lam[keep])).T
    frames, outcomes = _simulate(n, m, ensemble, rng, lambda sl: amps, len(amps))
    return ShadowEstimate.of_stack(ensemble, frames, outcomes)


def _side_values(side: ShadowEstimate, op: np.ndarray) -> np.ndarray:
    """Tr[snapshot op] for each label of one side (complex), a gather of the
    Pauli vector of ``op`` through the side's ``pauli_terms``."""
    op = np.asarray(op, dtype=complex)
    if op.shape != (2**side.n_qubits,) * 2:
        raise ValueError(f"operator of shape {op.shape} does not match the "
                         f"shadow's n_qubits={side.n_qubits}")
    index, pauli, coef = side.pauli_terms()
    o = _pauli_vector(op[None], side.n_qubits)[0]
    return sum(c * o[p] for p, c in zip(pauli, coef))[index]


def _snapshot_sum(side: ShadowEstimate, weights: np.ndarray | None) -> np.ndarray:
    """The 4^n Pauli coefficients of sum_i weights[i] snapshot_i over one
    side's labels (all weights 1 for None): one bincount of its ``pauli_terms``."""
    index, pauli, coef = side.pauli_terms()
    w = np.bincount(index, weights, pauli.shape[1])
    return np.bincount(pauli.reshape(-1), (coef * w).reshape(-1), 4**side.n_qubits)


def reconstruct(est: ShadowEstimate) -> np.ndarray:
    """Mean of the materialized snapshots (Hermitian, unit trace)."""
    if not len(est):
        raise ValueError("cannot reconstruct from an empty shadow")
    return _pauli_matrix(_snapshot_sum(est, None), est.n_qubits) / len(est)


def _groups(size: int, n_groups, least: int = 1) -> list:
    """The median-of-means split of ``size`` records: ``n_groups`` equal
    slices of consecutive records, each at least ``least`` long; trailing
    records that fill no group are dropped."""
    if _count(n_groups, "n_groups") < 1:
        raise ValueError("need at least one group")
    step = size // n_groups
    if step < least:
        raise ValueError(f"{size} records cannot fill {n_groups} groups of at least {least}")
    return [slice(g * step, (g + 1) * step) for g in range(n_groups)]


def median_of_means(values: np.ndarray, n_groups: int) -> float:
    """Median of the means of the ``_groups`` of ``values``; an even group
    count takes the average of the two central means."""
    values = np.asarray(values, dtype=float)
    return float(np.median([values[g].mean() for g in _groups(values.size, n_groups)]))


def single_shot_expectations(est: ShadowEstimate, obs: np.ndarray) -> np.ndarray:
    """Tr(snapshot * obs) per snapshot."""
    return np.real(_side_values(est, obs))


def estimate_observable(est: ShadowEstimate, obs: np.ndarray,
                        n_groups: int = 1) -> float:
    """Median-of-means estimate of Tr(rho * obs) from a shadow."""
    return median_of_means(single_shot_expectations(est, obs), n_groups)
