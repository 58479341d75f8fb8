"""Line-delimited JSON persistence for acquisition records.

Layout: one header object on the first line (format tag, version,
register size, ensemble tags, record count, plus optional provenance
fields), then one object per record.  Serialization is canonical
(sorted keys, no whitespace) so identical shadows produce byte-identical
files.  Each side of a file holds one frame ensemble: the header's
``ensemble_in`` and ``ensemble_out`` tags name it, and loading rejects
any record whose frame kind differs from its tag.

Files are read and written by columns, without one record object per
line.  Loading parses each line once into four columns: input frames,
input bits, output frames, output bits.  A Pauli side's axes and bit
strings are joined and mapped byte by byte to base-6 key digits in one
numpy pass.  A Clifford side's tableaus are deduplicated in
first-appearance order and validated together, as one stack, so the
labels and ``frames`` equal those of ``SnapshotLabels.encode``.
Saving renders each side's distinct labels once and joins the lines
from the label arrays.  When any check fails, the file is read again
with the strict per-record check, which names the first offending line.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .ensembles import (AXES, CLIFFORD_ENSEMBLE, PAULI_ENSEMBLE, CliffordFrame,
                        PauliFrame, clifford_frames, is_symplectic)
from .process_shadows import ProcessShadow, ShadowRecord
from .state_shadows import SnapshotLabels, pauli_keys

FORMAT_TAG = "process-shadow-records"
FORMAT_VERSION = 1
# the widest register an int64 Pauli key holds: 6**24 <= 2**63 < 6**25
_MAX_PAULI_KEY_QUBITS = 24

# Byte -> digit lookup tables for the joined columns; -1 marks an invalid byte.
_AXIS_DIGIT = np.full(256, -1, dtype=np.int64)
_AXIS_DIGIT[[ord(a) for a in AXES]] = range(len(AXES))
_BIT_DIGIT = np.full(256, -1, dtype=np.int64)
_BIT_DIGIT[[ord("0"), ord("1")]] = (0, 1)

# No record field holds a float.  Kept as text, a float such as 2.0 can
# neither pass for the tableau row 2 when tableaus are deduplicated by
# value nor be accepted as a sign bit.
_DECODER = json.JSONDecoder(parse_float=str)

# canonical JSON: sorted keys, no whitespace
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

_RECORD_ERRORS = (KeyError, TypeError, ValueError, AttributeError)


def _frame_to_json(frame):
    if isinstance(frame, PauliFrame):
        return {"kind": "pauli", "axes": frame.axes}
    if isinstance(frame, CliffordFrame):
        rows = frame.symplectic @ (1 << np.arange(frame.symplectic.shape[1]))
        return {"kind": "clifford",
                "s": rows.tolist(),
                "p": frame.signs.tolist()}
    raise ValueError(f"cannot serialize frame type {type(frame).__name__}")


def _tableau_stack(tableaus: list, n: int) -> np.ndarray:
    """(k, 2n, 2n+1) tableau stack of k >= 1 JSON (rows, signs) pairs.

    Checks the whole stack at once, in this order: row count, rows are
    integers in [0, 4^n), signs are bits, symplectic form, sign count.
    """
    if any(len(rows) != 2 * n for rows, _ in tableaus):
        raise ValueError("tableau row count does not match header")
    rows = [r for t, _ in tableaus for r in t]
    if not (set(map(type, rows)) <= {int, bool} and 0 <= min(rows)
            and max(rows) < 4**n):
        raise ValueError(f"tableau rows must be integers in [0, {4**n})")
    signs = [b for _, p in tableaus for b in p]
    if not (set(map(type, signs)) <= {int, bool} and set(signs) <= {0, 1}):
        raise ValueError("sign bits must be 0 or 1")
    sym = (np.array(rows, dtype=np.int64).reshape(-1, 2 * n, 1) >> np.arange(2 * n)) & 1
    if not is_symplectic(sym).all():
        raise ValueError("tableau is not symplectic")
    if len(signs) != len(rows):
        raise ValueError("sign vector length does not match tableau")
    return np.concatenate((sym, np.array(signs).reshape(-1, 2 * n, 1)),
                          axis=2).astype(np.uint8)


def _frame_from_json(obj, n: int):
    kind = obj.get("kind")
    if kind == "pauli":
        axes = obj["axes"]
        if not isinstance(axes, str):
            raise ValueError(f"Pauli axes {axes!r} are not a string")
        return PauliFrame(axes)
    if kind == "clifford":
        return clifford_frames(_tableau_stack([(obj["s"], obj["p"])], n))[0]
    raise ValueError(f"unknown frame kind {kind!r}")


def _rendered(side: SnapshotLabels) -> list:
    """(bits JSON, frame JSON) of every snapshot; each distinct label is
    rendered once."""
    index, decoded = side.distinct()
    table = [(_dump(bits), _dump(_frame_to_json(frame))) for frame, bits in decoded]
    return [table[i] for i in index.tolist()]


def save_records(path, ps: ProcessShadow, *, seed=None,
                 channel: str | None = None) -> None:
    """Write a shadow to one JSONL file, with provenance in the header."""
    header = {
        "format": FORMAT_TAG,
        "version": FORMAT_VERSION,
        "n_qubits": ps.n_qubits,
        "count": len(ps),
    }
    if seed is not None:
        header["seed"] = seed
    if channel is not None:
        header["channel"] = channel
    if len(ps):
        for tag, side in (("ensemble_in", ps.side_in), ("ensemble_out", ps.side_out)):
            if side.ensemble is None:
                raise ValueError(f"{tag}: a record file cannot mix Pauli and "
                                 "Clifford frames on one side")
            header[tag] = side.ensemble
    # each line is _dump of its record: keys in sorted order, no whitespace
    lines = [f'{{"b_in":{b_in},"b_out":{b_out},"u_in":{u_in},"u_out":{u_out}}}\n'
             for (b_in, u_in), (b_out, u_out)
             in zip(_rendered(ps.side_in), _rendered(ps.side_out))]
    Path(path).write_text(_dump(header) + "\n" + "".join(lines))


def load_header(path) -> dict:
    """Read and validate only the header line."""
    with open(path) as fh:
        first = fh.readline()
    try:
        header = json.loads(first)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line 1: malformed header ({exc.msg})") from exc
    if not isinstance(header, dict):
        raise ValueError("line 1: header is not a JSON object")
    if header.get("format") != FORMAT_TAG:
        raise ValueError("line 1: not a record file (format tag mismatch)")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"line 1: unsupported version {header.get('version')!r} "
            f"(expected {FORMAT_VERSION})")
    for key, least in (("n_qubits", 1), ("count", 0)):
        value = header.get(key)
        if type(value) is not int or value < least:
            raise ValueError(f"line 1: {key} must be an integer >= {least}, "
                             f"got {value!r}")
    if (PAULI_ENSEMBLE in (header.get("ensemble_in"), header.get("ensemble_out"))
            and header["n_qubits"] > _MAX_PAULI_KEY_QUBITS):
        raise ValueError(f"line 1: Pauli records on {header['n_qubits']} qubits exceed "
                         f"the {_MAX_PAULI_KEY_QUBITS} that int64 keys hold")
    return header


def _digits(column: list, table: np.ndarray, n: int) -> np.ndarray:
    """(m, n) digits of a column of n-character strings, through a byte table."""
    if not all(type(s) is str and len(s) == n for s in column):
        raise ValueError("column holds a value that is not an n-character string")
    raw = "".join(column).encode("ascii", "replace")  # non-ASCII -> '?', invalid
    digits = table[np.frombuffer(raw, dtype=np.uint8)].reshape(len(column), n)
    if (digits < 0).any():
        raise ValueError("column holds an invalid character")
    return digits


def _encode_side(tag, frames: list, bits: list, n: int) -> SnapshotLabels:
    """Labels of one side's columns, equal to ``SnapshotLabels.encode``."""
    if not frames:
        return SnapshotLabels(np.empty(0, dtype=np.int64), n)
    outcomes = _digits(bits, _BIT_DIGIT, n)
    if tag == PAULI_ENSEMBLE:
        return SnapshotLabels(pauli_keys(_digits(frames, _AXIS_DIGIT, n), outcomes), n)
    if tag == CLIFFORD_ENSEMBLE:
        index: dict = {}
        idx = np.fromiter((index.setdefault(f, len(index)) for f in frames),
                          dtype=np.int64, count=len(frames))
        table = tuple(clifford_frames(_tableau_stack(list(index), n)))
        return SnapshotLabels((idx << n) | (outcomes @ (1 << np.arange(n - 1, -1, -1))),
                              n, table)
    raise ValueError(f"unknown ensemble tag {tag!r}")


def _frame_value(u: dict, pauli: bool):
    """A frame's column entry: Pauli axes, or a tableau's (rows, signs)."""
    return u["axes"] if pauli else (tuple(u["s"]), tuple(u["p"]))


def _read_columns(path, header: dict) -> tuple[SnapshotLabels, SnapshotLabels]:
    """Both sides' labels; raises without a line number on any bad record."""
    n = header["n_qubits"]
    tags = header.get("ensemble_in"), header.get("ensemble_out")
    pauli_in, pauli_out = (tag == PAULI_ENSEMBLE for tag in tags)
    frames_in, bits_in, frames_out, bits_out = [], [], [], []
    with open(path) as fh:
        fh.readline()  # header already validated
        for line in fh:
            if line.isspace():
                continue
            obj = _DECODER.decode(line)
            u_in, u_out = obj["u_in"], obj["u_out"]
            if (u_in["kind"], u_out["kind"]) != tags:
                raise ValueError("frame kind does not match the header")
            frames_in.append(_frame_value(u_in, pauli_in))
            frames_out.append(_frame_value(u_out, pauli_out))
            bits_in.append(obj["b_in"])
            bits_out.append(obj["b_out"])
    return (_encode_side(tags[0], frames_in, bits_in, n),
            _encode_side(tags[1], frames_out, bits_out, n))


def _raise_first_bad_record(path, header: dict) -> None:
    """Check every record on its own, and raise at the first offending line."""
    n = header["n_qubits"]
    with open(path) as fh:
        fh.readline()  # header already validated
        for lineno, line in enumerate(fh, start=2):
            if line.isspace():
                continue
            try:
                obj = json.loads(line)
                b_in = obj["b_in"]
                u_in = _frame_from_json(obj["u_in"], n)
                u_out = _frame_from_json(obj["u_out"], n)
                b_out = obj["b_out"]
                for bits in (b_in, b_out):
                    if not isinstance(bits, str):
                        raise ValueError("bit strings must be JSON strings, got "
                                         f"{type(bits).__name__}")
                record = ShadowRecord(b_in, u_in, u_out, b_out)
                if record.n_qubits != n:
                    raise ValueError(f"record acts on {record.n_qubits} qubits, "
                                     f"header says {n}")
                for tag, kind in (("ensemble_in", record.ensemble_in),
                                  ("ensemble_out", record.ensemble_out)):
                    if kind != header.get(tag):
                        raise ValueError(f"{kind} frame does not match the header's "
                                         f"{tag} {header.get(tag)!r}")
            except _RECORD_ERRORS as exc:
                raise ValueError(f"line {lineno}: bad record ({exc})") from exc


def load_records(path) -> ProcessShadow:
    """Read a shadow back; errors carry the offending line number."""
    header = load_header(path)
    try:
        side_in, side_out = _read_columns(path, header)
    except _RECORD_ERRORS:
        _raise_first_bad_record(path, header)
        raise  # not reached: the per-record check rejects whatever the columns do
    if len(side_in) != header["count"]:
        raise ValueError(
            f"line {len(side_in) + 1}: expected {header['count']} records, "
            f"found {len(side_in)}")
    return ProcessShadow._of(side_in, side_out)
