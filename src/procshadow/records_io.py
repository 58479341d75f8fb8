"""Line-delimited JSON persistence for acquisition records.

Layout: one header object on the first line (format tag, version,
register size, ensemble tags, record count, plus optional provenance
fields), then one object per record.  Serialization is canonical
(sorted keys, no whitespace) so identical shadows produce byte-identical
files.  Each side of a file holds one frame ensemble: the header's
``ensemble_in`` and ``ensemble_out`` tags name it, and loading rejects
any record whose frame kind differs from its tag.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .ensembles import CliffordFrame, PauliFrame
from .process_shadows import ProcessShadow, ShadowRecord

FORMAT_TAG = "process-shadow-records"
FORMAT_VERSION = 1


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _frame_to_json(frame):
    if isinstance(frame, PauliFrame):
        return {"kind": "pauli", "axes": frame.axes}
    if isinstance(frame, CliffordFrame):
        rows = [sum(int(b) << i for i, b in enumerate(row))
                for row in frame.symplectic]
        return {"kind": "clifford",
                "s": rows,
                "p": [int(b) for b in frame.signs]}
    raise ValueError(f"cannot serialize frame type {type(frame).__name__}")


def _frame_from_json(obj, n: int):
    kind = obj.get("kind")
    if kind == "pauli":
        return PauliFrame(obj["axes"])
    if kind == "clifford":
        rows, signs = obj["s"], obj["p"]
        if len(rows) != 2 * n:
            raise ValueError("tableau row count does not match header")
        if any(not isinstance(r, int) or not 0 <= r < 4**n for r in rows):
            raise ValueError(f"tableau rows must be integers in [0, {4**n})")
        if any(b not in (0, 1) for b in signs):
            raise ValueError("sign bits must be 0 or 1")
        sym = np.array([[(r >> i) & 1 for i in range(2 * n)] for r in rows],
                       dtype=np.uint8)
        omega = np.roll(np.eye(2 * n, dtype=int), n, axis=1)  # [[0, I], [I, 0]]
        if np.any((sym.astype(int) @ omega @ sym.T) % 2 != omega):
            raise ValueError("tableau is not symplectic")
        return CliffordFrame(sym, np.array(signs, dtype=np.uint8))
    raise ValueError(f"unknown frame kind {kind!r}")


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
    lines = [_dump(header)]
    for r in ps.records:
        lines.append(_dump({
            "b_in": r.b_in,
            "u_in": _frame_to_json(r.u_in),
            "b_out": r.b_out,
            "u_out": _frame_to_json(r.u_out),
        }))
    Path(path).write_text("\n".join(lines) + "\n")


def load_header(path) -> dict:
    """Read and validate only the header line."""
    with open(path) as fh:
        first = fh.readline()
    try:
        header = json.loads(first)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line 1: malformed header ({exc.msg})") from exc
    if header.get("format") != FORMAT_TAG:
        raise ValueError("line 1: not a record file (format tag mismatch)")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"line 1: unsupported version {header.get('version')!r} "
            f"(expected {FORMAT_VERSION})")
    return header


def load_records(path) -> ProcessShadow:
    """Read a shadow back; errors carry the offending line number."""
    header = load_header(path)
    n = int(header["n_qubits"])
    records = []
    with open(path) as fh:
        fh.readline()  # header already validated
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                record = ShadowRecord(
                    b_in=obj["b_in"],
                    u_in=_frame_from_json(obj["u_in"], n),
                    u_out=_frame_from_json(obj["u_out"], n),
                    b_out=obj["b_out"],
                )
                if record.n_qubits != n:
                    raise ValueError(f"record acts on {record.n_qubits} qubits, "
                                     f"header says {n}")
                for tag, kind in (("ensemble_in", record.ensemble_in),
                                  ("ensemble_out", record.ensemble_out)):
                    if kind != header.get(tag):
                        raise ValueError(f"{kind} frame does not match the header's "
                                         f"{tag} {header.get(tag)!r}")
                records.append(record)
            except (json.JSONDecodeError, KeyError, TypeError,
                    ValueError) as exc:
                raise ValueError(f"line {lineno}: bad record ({exc})") from exc
    if len(records) != int(header["count"]):
        raise ValueError(
            f"line {len(records) + 1}: expected {header['count']} records, "
            f"found {len(records)}")
    return ProcessShadow(records, n)
