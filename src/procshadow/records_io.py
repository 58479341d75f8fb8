"""Line-delimited JSON persistence for acquisition records.

Layout: one header object on the first line (format tag, version,
register size, ensemble tags, record count, plus optional provenance
fields), then one object per record.  Serialization is canonical
(sorted keys, no whitespace) so identical shadows produce byte-identical
files.  Each side of a file holds one frame ensemble: the header's
``ensemble_in`` and ``ensemble_out`` tags name it, and loading rejects
any record whose frame kind differs from its tag.

Files are written in blocks of records, each distinct (input, output)
label pair of a block formatted once, and read in blocks of 256 KB cut
at the last newline, so I/O holds one block besides the label arrays
(and, on saving, one JSON text per label of a side with few labels).
Canonical lines are read as bytes: the header fixes a line template of
constant text, bit and Pauli-axis digits at fixed offsets, and on a
Clifford side one text of variable width, the frame's sign bits and
tableau rows.  Numpy passes check each line's constant bytes and map its
digits to base-6 Pauli keys and outcome bits.  A Clifford side's texts
are numbered in order of first appearance in the file; each new one is
matched against the canonical form and parsed, and
``ShadowEstimate.of_tableaus`` gets the tableau stack and each record's
index.  Lines may end in CRLF.  Any other line (other spacing or key
order, escapes, extra fields) is decoded as JSON, rendered canonically
and read again; blank lines are skipped.  When a line still fails, the
whole body is checked record by record, which names the first offending
line.  No frame object is built from labels to bytes or back.
"""

from __future__ import annotations

import functools
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

_WRITE_BLOCK = 1 << 12  # records rendered and written at a time
_LABEL_SPACE = 6**MAX_QUBITS  # every Pauli label, and every Clifford label up to 2 qubits
_READ_BLOCK = 1 << 18  # body bytes read at a time; a block ends at its last newline


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


def _rendered(side: ShadowEstimate) -> np.ndarray:
    """(2, len(side)) object array: the bits JSON and frame JSON of every
    snapshot, from ``side.distinct()``; each distinct label and used frame
    is rendered once."""
    index, frames, frame_of, bits = side.distinct()
    if side.frames is None:
        frames = [_dump({"kind": PAULI_ENSEMBLE, "axes": axes}) for axes in frames]
    else:  # rows as integers by one matrix product; _dump's JSON from list reprs
        rows = frames[:, :, :-1] @ (1 << np.arange(frames.shape[1]))
        frames = [f'{{"kind":"{CLIFFORD_ENSEMBLE}","p":{p},"s":{r}}}'.replace(" ", "")
                  for r, p in zip(rows.tolist(), frames[:, :, -1].tolist())]
    table = np.empty((2, len(bits)), dtype=object)  # a bit string's JSON is itself in quotes
    table[0], table[1] = [f'"{b}"' for b in bits], np.array(frames, dtype=object)[frame_of]
    return table[:, index]


def _label_table(side: ShadowEstimate) -> np.ndarray | None:
    """``_rendered`` of each used label in its column, once per file; None
    past ``_LABEL_SPACE``, where the table could hold a text per record."""
    top = side.labels.max()
    if top < _LABEL_SPACE:
        used = np.zeros(top + 1, dtype=bool)
        used[side.labels] = True
        table = np.empty((2, top + 1), dtype=object)
        table[:, used] = _rendered(ShadowEstimate(np.flatnonzero(used), side.n_qubits, side.frames))
        return table


def _block_text(ps: ProcessShadow, block: slice, tables: list) -> str:
    """The lines of a block of records; each distinct (input, output) label
    pair is formatted once, and rendered here if its side has no table."""
    l_in, l_out = ps.side_in.labels[block], ps.side_out.labels[block]
    size = l_out.max() + 1
    pairs, inverse = np.unique(l_in * size + l_out, return_inverse=True)
    (b_in, u_in), (b_out, u_out) = (
        (_rendered(ShadowEstimate(labels, side.n_qubits, side.frames)) if table is None
         else table[:, labels]).tolist()
        for side, labels, table in zip((ps.side_in, ps.side_out), np.divmod(pairs, size), tables))
    # each line is _dump of its record (keys in sorted order, no
    # whitespace), spelled out because an f-string is faster per line
    lines = np.array([f'{{"b_in":{bi},"b_out":{bo},"u_in":{ui},"u_out":{uo}}}\n'
                      for bi, bo, ui, uo in zip(b_in, b_out, u_in, u_out)], dtype=object)
    return "".join(lines[inverse].tolist())


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
    tables = [_label_table(side) for side in (ps.side_in, ps.side_out)] if len(ps) else []
    with open(path, "w") as fh:
        fh.write(_dump(header) + "\n")
        for lo in range(0, len(ps), _WRITE_BLOCK):
            fh.write(_block_text(ps, slice(lo, lo + _WRITE_BLOCK), tables))


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


@functools.lru_cache
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


def _scan(body: bytes, n: int, tags, chunks: list | None, seen: tuple):
    """Check every line of a block against the canonical template ``chunks``:
    returns ``(starts, newlines, ok, sides)``, where each line starts and
    where its newline is (or the block ends), whether it is canonical, and
    per side the (tag, frame digits or tableau texts, outcome bits).  A
    tableau text in ``seen`` is known to be canonical.  CRLF ends a line."""
    buf = np.frombuffer(body, dtype=np.uint8)
    newlines = np.flatnonzero(buf == ord("\n"))
    if body and body[-1:] != b"\n":
        newlines = np.append(newlines, len(body))
    starts = np.concatenate(([0], newlines[:-1] + 1))[:newlines.size]
    ends = newlines - ((newlines > starts) & (buf[newlines - 1] == ord("\r")))
    if not ends.size or chunks is None or buf.size < max(map(len, chunks)):
        return starts, newlines, np.zeros(ends.size, dtype=bool), None
    # the first chunk starts at the line's start and the last ends at its
    # end; a middle one (Clifford/Clifford) starts at the "]}" that closes
    # the input frame, the line's first "}"
    anchors = [starts]
    if len(chunks) == 3:
        braces = np.flatnonzero(buf == ord("}"))
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
        ok &= ((mat == chunk) | ((chunk == ord("0")) | (chunk == ord("X")))).all(axis=1)
    bits = _BIT_DIGIT[mats[0][:, np.flatnonzero(chunks[0] == ord("0"))]]
    ok &= (bits >= 0).all(axis=1)
    sides, gaps = [], iter(gaps)
    for tag, mat, chunk, pick, outcomes, known in (
            (tags[0], mats[0], chunks[0], slice(None, n), bits[:, :n], seen[0]),
            (tags[1], mats[-1], chunks[-1], slice(-n, None), bits[:, n:], seen[1])):
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
        ok &= np.array([t in known or canonical(t) is not None for t in index] + [False])[idx]
        sides.append((tag, (idx, list(index)), outcomes))
    return starts, newlines, ok, sides


def _tableaus(texts: list, n: int) -> np.ndarray:
    """The (k, 2n, 2n+1) tableau stack of k canonical signs-and-rows
    texts: the bits of each row, then the sign bits as a last column."""
    values = np.fromstring(b",".join(texts).replace(_ROWS_SEP, b","),
                           dtype=np.uint64, sep=",").reshape(len(texts), 4 * n)
    if values.max(initial=0) >= np.uint64(4**n):  # the sign bits are 0 or 1
        raise ValueError(f"tableau rows must be integers in [0, {4**n})")
    values = values.astype(np.int64)
    return np.dstack((_symplectic(values[:, 2 * n:], n), values[:, :2 * n]))


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


def _read_body(body: bytes, n: int, tags, chunks: list | None, seen: tuple):
    """``(in, out)``, or None for a block without records: per side the
    block's labels, or the stack of tableaus new to the file, each record's
    tableau index and outcomes.  ``seen`` maps each side's tableau texts to
    their index in the file.  Raises without a line number on any bad record."""
    starts, newlines, ok, scanned = _scan(body, n, tags, chunks, seen)
    if not ok.all():
        body = _normalized(body, starts, newlines, ~ok)
        _, newlines, ok, scanned = _scan(body, n, tags, chunks, seen)
        if not ok.all():
            raise ValueError("a record line is not canonical")
    if not newlines.size:
        return None
    parts = []
    for (tag, frames, outcomes), known in zip(scanned, seen):
        outcomes = outcomes @ 2 ** np.arange(n - 1, -1, -1)
        if tag == PAULI_ENSEMBLE:
            parts.append(ShadowEstimate.of_stack(tag, frames, outcomes).labels)
            continue
        idx, texts = frames
        fresh = [text for text in texts if text not in known]
        index = np.array([known.setdefault(text, len(known)) for text in texts], dtype=np.int64)
        parts.append((_tableaus(fresh, n), index[idx], outcomes))
    return tuple(parts)


def _line_blocks(fh):
    """The rest of a file in blocks of about ``_READ_BLOCK`` bytes, each
    ending at a newline or at the end of the file."""
    tail = b""
    for chunk in iter(lambda: fh.read(_READ_BLOCK), b""):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield tail + memoryview(chunk)[:cut]
            tail = chunk[cut:]
        else:  # the chunk is inside one line
            tail += chunk
    yield tail


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
    """Read a shadow back in blocks of lines; errors carry the offending line number."""
    with open(path, "rb") as fh:
        header = _parse_header(fh.readline())
        n, body_start = header["n_qubits"], fh.tell()
        tags = header.get("ensemble_in"), header.get("ensemble_out")
        read = functools.partial(_read_body, n=n, tags=tags, chunks=_template(tags, n),
                                 seen=({}, {}))
        try:
            blocks = [read(body) for body in _line_blocks(fh)]
        except _RECORD_ERRORS:
            fh.seek(body_start)
            _raise_first_bad_record(fh.read(), header)
            raise  # not reached: the per-record check rejects whatever the reader does
    blocks = [block for block in blocks if block is not None]
    side_in, side_out = (
        ShadowEstimate(np.concatenate(parts), n) if tag == PAULI_ENSEMBLE
        else ShadowEstimate.of_tableaus(*map(np.concatenate, zip(*parts)))
        for tag, parts in zip(tags, zip(*blocks))) if blocks else [ShadowEstimate([], n)] * 2
    if len(side_in) != header["count"]:
        raise ValueError(
            f"line {len(side_in) + 1}: expected {header['count']} records, "
            f"found {len(side_in)}")
    return ProcessShadow._of(side_in, side_out)
