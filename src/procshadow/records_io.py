"""Line-delimited JSON persistence for acquisition records.

Layout: one header object on the first line (format tag, version,
register size, ensemble tags, record count, plus optional provenance
fields), then one object per record.  Serialization is canonical
(sorted keys, no whitespace) so identical shadows produce byte-identical
files.  Each side of a file holds one frame ensemble: the header's
``ensemble_in`` and ``ensemble_out`` tags name it, and loading rejects
any record whose frame kind differs from its tag.

Canonical lines are read as bytes, without a JSON decoder.  The header
fixes a line template: constant text, and bit and Pauli-axis digits at
fixed offsets from the line's start or end.  On a Clifford side the
frame's sign bits and tableau rows, between ``"p":[`` and ``]}``, are
the one text of variable width.  One numpy pass over the file checks
every line's constant bytes and maps its digits through byte tables to
base-6 Pauli keys and outcome bits; a Pauli/Pauli file takes no Python
object per record.  A Clifford side's texts are deduplicated in
first-appearance order, matched once each against the canonical form,
parsed together and validated as one stack.  The label codec is
``ShadowEstimate``'s: loading encodes each side with ``of_stack``, and
saving renders it from ``distinct()``; this module knows only the JSON
layout and the integer form of a tableau row.  Lines may
end in CRLF.  Any other line (other spacing or key order, escapes,
extra fields) is decoded as JSON, its known fields are rendered
canonically, and the result goes through the same reader; blank lines
are skipped.  When a line still fails, the file is checked again record
by record, which names the first offending line from the JSON fields
alone.  No frame object is built from labels to bytes or back: frame
objects exist only in the ``records`` and ``snapshots`` views.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .ensembles import AXES, CLIFFORD_ENSEMBLE, PAULI_ENSEMBLE, is_symplectic
from .process_shadows import ProcessShadow
from .qcore import MAX_QUBITS
from .state_shadows import ShadowEstimate

FORMAT_TAG = "process-shadow-records"
FORMAT_VERSION = 1

# Byte -> digit lookup tables for a line's digits; -1 marks an invalid byte.
_AXIS_DIGIT = np.full(256, -1, dtype=np.int8)
_AXIS_DIGIT[[ord(a) for a in AXES]] = range(len(AXES))
_BIT_DIGIT = np.full(256, -1, dtype=np.int8)
_BIT_DIGIT[[ord("0"), ord("1")]] = (0, 1)

# canonical JSON: sorted keys, no whitespace
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# between a Clifford frame's sign bits and its tableau rows
_ROWS_SEP = b'],"s":['

_RECORD_ERRORS = (KeyError, TypeError, ValueError, AttributeError)


def _symplectic(rows: np.ndarray, n: int) -> np.ndarray:
    """(k, 2n, 2n) bit matrices of (k, 2n) tableau rows; raises unless
    every one is symplectic."""
    sym = (rows[:, :, None] >> np.arange(2 * n)) & 1
    if not is_symplectic(sym).all():
        raise ValueError("tableau is not symplectic")
    return sym


def _frame_fields(obj, n: int) -> tuple[str, int]:
    """(ensemble, qubit count) of one decoded frame object; a Clifford
    frame is checked in this order: row count, rows are integers in
    [0, 4^n), signs are bits, symplectic form, sign count.  JSON ``true``
    and ``false`` are not integers here."""
    kind = obj.get("kind")
    if kind == "pauli":
        axes = obj["axes"]
        if not isinstance(axes, str):
            raise ValueError(f"Pauli axes {axes!r} are not a string")
        if not axes or axes.strip(AXES):
            raise ValueError(f"invalid Pauli axes {axes!r}")
        return PAULI_ENSEMBLE, len(axes)
    if kind != "clifford":
        raise ValueError(f"unknown frame kind {kind!r}")
    rows, signs = obj["s"], obj["p"]
    if len(rows) != 2 * n:
        raise ValueError("tableau row count does not match header")
    if not (set(map(type, rows)) <= {int} and 0 <= min(rows) and max(rows) < 4**n):
        raise ValueError(f"tableau rows must be integers in [0, {4**n})")
    if not (set(map(type, signs)) <= {int} and set(signs) <= {0, 1}):
        raise ValueError("sign bits must be 0 or 1")
    _symplectic(np.array([rows], dtype=np.int64), n)
    if len(signs) != len(rows):
        raise ValueError("sign vector length does not match tableau")
    return CLIFFORD_ENSEMBLE, n


def _rendered(side: ShadowEstimate) -> list:
    """(bits JSON, frame JSON) of every snapshot, from ``side.distinct()``:
    each distinct label is rendered once, and each used frame once."""
    index, frames, frame_of, bits = side.distinct()
    if side.frames is None:
        frames = [_dump({"kind": PAULI_ENSEMBLE, "axes": axes}) for axes in frames]
    else:  # each tableau row becomes one integer, in one matrix product
        rows = frames[:, :, :-1] @ (1 << np.arange(frames.shape[1]))
        frames = [_dump({"kind": CLIFFORD_ENSEMBLE, "s": r, "p": p})
                  for r, p in zip(rows.tolist(), frames[:, :, -1].tolist())]
    table = [(_dump(b), frames[f]) for b, f in zip(bits, frame_of.tolist())]
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
        header["ensemble_in"] = ps.side_in.ensemble
        header["ensemble_out"] = ps.side_out.ensemble
    # each line is _dump of its record (keys in sorted order, no
    # whitespace), spelled out because an f-string is faster per line
    body = "".join([f'{{"b_in":{b_in},"b_out":{b_out},"u_in":{u_in},"u_out":{u_out}}}\n'
                    for (b_in, u_in), (b_out, u_out)
                    in zip(_rendered(ps.side_in), _rendered(ps.side_out))])
    with open(path, "w") as fh:  # the header, then the body: no joined copy of both
        fh.write(_dump(header) + "\n")
        fh.write(body)


def _parse_header(first: bytes) -> dict:
    try:
        header = json.loads(first.decode(errors="replace"))
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
    if header["n_qubits"] > MAX_QUBITS:
        raise ValueError(f"line 1: {header['n_qubits']} qubits exceed the cap ({MAX_QUBITS})")
    return header


def load_header(path) -> dict:
    """Read and validate only the header line."""
    with open(path, "rb") as fh:
        return _parse_header(fh.readline())


def _template(tags, n: int) -> list | None:
    """The constant chunks of a canonical record line, split where a
    Clifford frame's signs-and-rows text goes; None for an unknown tag.

    Bits are rendered as "0" and axes as "X", which no constant text holds.
    """
    if not all(tag in (PAULI_ENSEMBLE, CLIFFORD_ENSEMBLE) for tag in tags):
        return None  # tags are header values of any JSON type
    u_in, u_out = ({"kind": tag, "axes": "X" * n} if tag == PAULI_ENSEMBLE
                   else {"kind": tag, "p": [], "s": []} for tag in tags)
    line = _dump({"b_in": "0" * n, "b_out": "0" * n, "u_in": u_in, "u_out": u_out})
    return [np.frombuffer(chunk, dtype=np.uint8) for chunk in line.encode().split(_ROWS_SEP)]


def _tableau_pattern(n: int):
    """A canonical signs-and-rows text: 2n sign bits, then 2n rows of at
    most 19 digits, which uint64 holds."""
    row = rb"(?:0|[1-9][0-9]{0,18})"
    return re.compile(rb"[01](?:,[01]){%d}%s%s(?:,%s){%d}" % (
        2 * n - 1, re.escape(_ROWS_SEP), row, row, 2 * n - 1))


def _rows_at(buf: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """(len(starts), width) bytes of buf from each start; a view when the
    starts are evenly spaced, as the lines of a Pauli/Pauli file are."""
    windows = np.lib.stride_tricks.sliding_window_view(buf, width)
    step = int(starts[1] - starts[0]) if starts.size > 1 else 1
    if step > 0 and (np.diff(starts) == step).all():
        return windows[starts[0]::step][:starts.size]
    return windows[starts]


def _positions(buf: np.ndarray, byte: str) -> np.ndarray:
    """Offsets of one byte in buf, found in blocks, which bounds the temporary."""
    step = 1 << 16
    return np.concatenate([np.flatnonzero(buf[i:i + step] == ord(byte)) + i
                           for i in range(0, buf.size or 1, step)])


def _scan(body: bytes, n: int, tags):
    """Check every line of a record body against the canonical template.

    Returns ``(starts, newlines, ok, sides)``: where each line starts and
    where its newline is (or the body ends), whether it is canonical, and
    per side the (tag, frame digits or tableau texts, outcome bits) to
    encode.  A line may end in CRLF.
    """
    buf = np.frombuffer(body, dtype=np.uint8)
    newlines = _positions(buf, "\n")
    if body and body[-1:] != b"\n":
        newlines = np.append(newlines, len(body))
    starts = np.concatenate(([0], newlines[:-1] + 1))[:newlines.size]
    ends = newlines - ((newlines > starts) & (buf[newlines - 1] == ord("\r")))
    chunks = _template(tags, n)
    if not ends.size or chunks is None or buf.size < max(map(len, chunks)):
        return starts, newlines, np.zeros(ends.size, dtype=bool), None
    # the first chunk starts at the line's start and the last ends at its
    # end; a middle one (Clifford/Clifford) starts at the "]}" that closes
    # the input frame, the line's first "}"
    anchors = [starts]
    if len(chunks) == 3:
        braces = _positions(buf, "}")
        anchors.append(np.append(braces, buf.size)[np.searchsorted(braces, starts)] - 1)
    if len(chunks) > 1:
        anchors.append(ends - len(chunks[-1]))
    lengths, fixed = ends - starts, sum(map(len, chunks))
    ok = lengths == fixed if len(chunks) == 1 else lengths >= fixed
    gaps = [(at + len(chunk), after) for at, chunk, after in zip(anchors, chunks, anchors[1:])]
    for start, end in gaps:
        ok &= end >= start
    anchors = [np.where(ok, at, 0) for at in anchors]
    mats = [_rows_at(buf, at, len(chunk)) for chunk, at in zip(chunks, anchors)]
    for mat, chunk in zip(mats, chunks):
        digit = (chunk == ord("0")) | (chunk == ord("X"))
        # in blocks of rows, as _positions does
        ok &= np.concatenate([((mat[i:i + 4096] == chunk) | digit).all(axis=1)
                              for i in range(0, len(mat), 4096)])
    bits = _BIT_DIGIT[mats[0][:, np.flatnonzero(chunks[0] == ord("0"))]]
    ok &= (bits >= 0).all(axis=1)
    sides, gaps = [], iter(gaps)
    for tag, mat, chunk, pick, outcomes in (
            (tags[0], mats[0], chunks[0], slice(None, n), bits[:, :n]),
            (tags[1], mats[-1], chunks[-1], slice(-n, None), bits[:, n:])):
        if tag == PAULI_ENSEMBLE:
            axes = _AXIS_DIGIT[mat[:, np.flatnonzero(chunk == ord("X"))[pick]]]
            ok &= (axes >= 0).all(axis=1)
            sides.append((tag, axes, outcomes))
            continue
        # distinct texts in first-appearance order; -1 marks a rejected line
        start, end = next(gaps)
        index: dict = {}
        idx = np.fromiter((index.setdefault(body[a:b], len(index)) if good else -1
                           for a, b, good in zip(start.tolist(), end.tolist(), ok.tolist())),
                          dtype=np.int64, count=ends.size)
        canonical = _tableau_pattern(n).fullmatch
        ok &= np.array([canonical(text) is not None for text in index] + [False])[idx]
        sides.append((tag, (idx, list(index)), outcomes))
    return starts, newlines, ok, sides


def _encode(tag, frames, outcomes: np.ndarray, n: int) -> ShadowEstimate:
    """Labels of one side of a scanned body, through ``ShadowEstimate.of_stack``:
    a Clifford side's distinct texts become one tableau stack."""
    if tag == CLIFFORD_ENSEMBLE:
        idx, texts = frames
        values = np.fromstring(b",".join(texts).replace(_ROWS_SEP, b","),
                               dtype=np.uint64, sep=",").reshape(len(texts), 4 * n)
        if values.max() >= np.uint64(4**n):  # the sign bits are 0 or 1
            raise ValueError(f"tableau rows must be integers in [0, {4**n})")
        values = values.astype(np.int64)
        # the bits of each tableau row, then the sign bits as a last column
        frames = np.dstack((_symplectic(values[:, 2 * n:], n), values[:, :2 * n]))[idx]
    return ShadowEstimate.of_stack(tag, frames, outcomes @ 2 ** np.arange(n - 1, -1, -1))


def _rerendered(line: bytes) -> bytes:
    """A record line decoded as JSON, with its known fields rendered canonically."""
    obj = json.loads(line.decode())
    known = {"b_in": obj["b_in"], "b_out": obj["b_out"]}
    for side in ("u_in", "u_out"):
        u = obj[side]
        keys = ("kind", "axes") if u["kind"] == PAULI_ENSEMBLE else ("kind", "p", "s")
        known[side] = {k: u[k] for k in keys}
    return _dump(known).encode()


def _normalized(body: bytes, starts, newlines, odd: np.ndarray) -> bytes:
    """The body with its odd lines rendered canonically and blank ones dropped."""
    pieces, pos = [], 0
    for start, end in zip(starts[odd].tolist(), newlines[odd].tolist()):
        pieces.append(body[pos:start])
        line = body[start:end]
        if line.strip():
            pieces.append(_rerendered(line) + b"\n")
        pos = end + 1
    pieces.append(body[pos:])
    return b"".join(pieces)


def _read_body(body: bytes, header: dict) -> tuple[ShadowEstimate, ShadowEstimate]:
    """Both sides' labels; raises without a line number on any bad record."""
    n = header["n_qubits"]
    tags = header.get("ensemble_in"), header.get("ensemble_out")
    starts, newlines, ok, sides = _scan(body, n, tags)
    if not ok.all():
        body = _normalized(body, starts, newlines, ~ok)
        _, newlines, ok, sides = _scan(body, n, tags)
        if not ok.all():
            raise ValueError("a record line is not canonical")
    if not newlines.size:
        return ShadowEstimate([], n), ShadowEstimate([], n)
    return tuple(_encode(tag, frames, outcomes, n) for tag, frames, outcomes in sides)


def _raise_first_bad_record(body: bytes, header: dict) -> None:
    """Check every record on its own, and raise at the first offending line."""
    n = header["n_qubits"]
    for lineno, line in enumerate(body.split(b"\n"), start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line.decode())
            b_in = obj["b_in"]
            kind_in, size = _frame_fields(obj["u_in"], n)
            kind_out, size_out = _frame_fields(obj["u_out"], n)
            b_out = obj["b_out"]
            for bits in (b_in, b_out):
                if not isinstance(bits, str):
                    raise ValueError("bit strings must be JSON strings, got "
                                     f"{type(bits).__name__}")
            if size_out != size:
                raise ValueError("input and output frames act on different sizes")
            for bits in (b_in, b_out):
                if len(bits) != size or bits.strip("01"):
                    raise ValueError(f"bit string {bits!r} does not match {size} qubits")
            if size != n:
                raise ValueError(f"record acts on {size} qubits, header says {n}")
            for tag, kind in (("ensemble_in", kind_in), ("ensemble_out", kind_out)):
                if kind != header.get(tag):
                    raise ValueError(f"{kind} frame does not match the header's "
                                     f"{tag} {header.get(tag)!r}")
        except _RECORD_ERRORS as exc:
            raise ValueError(f"line {lineno}: bad record ({exc})") from exc


def load_records(path) -> ProcessShadow:
    """Read a shadow back; errors carry the offending line number."""
    with open(path, "rb") as fh:
        header = _parse_header(fh.readline())
        body = fh.read()
    try:
        side_in, side_out = _read_body(body, header)
    except _RECORD_ERRORS:
        _raise_first_bad_record(body, header)
        raise  # not reached: the per-record check rejects whatever the reader does
    if len(side_in) != header["count"]:
        raise ValueError(
            f"line {len(side_in) + 1}: expected {header['count']} records, "
            f"found {len(side_in)}")
    return ProcessShadow._of(side_in, side_out)
