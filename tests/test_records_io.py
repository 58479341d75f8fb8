"""Record serialization: JSONL save/load with a self-describing header."""

import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import frame_unitary
from procshadow.applications import purity_estimate
from procshadow.channels import named_channel
from procshadow import records_io
from procshadow.cli import main
from procshadow.ensembles import CliffordFrame, PauliFrame, sample_frames
from procshadow.process_shadows import (
    ProcessShadow,
    ShadowRecord,
    acquire_process_shadow,
    estimate_output_state,
    reconstruct_choi,
)
from procshadow.qcore import basis_projector
from procshadow.records_io import (_READ_BLOCK, _WRITE_BLOCK, load_header, load_records,
                                   save_records)
from procshadow.state_shadows import ShadowEstimate


def _sample(tmp_path, ens_in="pauli", ens_out="pauli", m=12, seed=0, **kw):
    rng = np.random.default_rng(seed)
    ps = acquire_process_shadow(named_channel("hadamard", 1), m, ens_in, ens_out, rng)
    path = tmp_path / "records.jsonl"
    save_records(path, ps, **kw)
    return ps, path


@pytest.mark.parametrize("ens_in,ens_out", [
    ("pauli", "pauli"),
    ("clifford", "clifford"),
    ("pauli", "clifford"),
])
def test_round_trip_preserves_records(tmp_path, ens_in, ens_out):
    ps, path = _sample(tmp_path, ens_in, ens_out)
    loaded = load_records(path)
    assert len(loaded) == len(ps)
    assert loaded.n_qubits == ps.n_qubits
    for a, b in zip(ps.records, loaded.records):
        assert a.b_in == b.b_in and a.b_out == b.b_out
        assert np.array_equal(frame_unitary(a.u_in), frame_unitary(b.u_in))
        assert np.array_equal(frame_unitary(a.u_out), frame_unitary(b.u_out))


def test_round_trip_reconstruction_identical(tmp_path):
    ps, path = _sample(tmp_path, m=40)
    loaded = load_records(path)
    a = reconstruct_choi(ps).matrix
    b = reconstruct_choi(loaded).matrix
    assert np.array_equal(a, b)


def test_load_rejects_explicit_frames(tmp_path):
    ps, path = _sample(tmp_path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[3])
    rec["u_in"] = {"kind": "explicit", "m": [[1, 0], [0, 0], [0, 0], [1, 0]]}
    lines[3] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 4: .*unknown frame kind 'explicit'"):
        load_records(path)


def test_load_rejects_frame_kind_differing_from_header(tmp_path):
    ps, path = _sample(tmp_path, ens_out="clifford")
    lines = path.read_text().splitlines()
    head = json.loads(lines[0])
    head["ensemble_out"] = "pauli"
    lines[0] = json.dumps(head)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 2: .*ensemble_out 'pauli'"):
        load_records(path)


def test_load_rejects_a_side_that_mixes_ensembles(tmp_path):
    ps, path = _sample(tmp_path, ens_in="clifford", ens_out="clifford")
    lines = path.read_text().splitlines()
    rec = json.loads(lines[5])
    rec["u_in"] = {"kind": "pauli", "axes": "X"}
    lines[5] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 6: .*ensemble_in 'clifford'"):
        load_records(path)


_DROP = object()  # an _edit_record value that deletes the field


def _edit_record(path, lineno, **fields):
    lines = path.read_text().splitlines()
    rec = json.loads(lines[lineno - 1])
    rec.update(fields)
    rec = {k: v for k, v in rec.items() if v is not _DROP}
    lines[lineno - 1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("u_in,message", [
    ({"kind": "clifford", "s": [1, 1], "p": [0, 0]}, "not symplectic"),
    ({"kind": "clifford", "s": [1, 4], "p": [0, 0]}, r"integers in \[0, 4\)"),
    ({"kind": "clifford", "s": [1, 2.0], "p": [0, 0]}, r"integers in \[0, 4\)"),
    ({"kind": "clifford", "s": [1, 2], "p": [0, 2]}, "sign bits"),
], ids=["non-symplectic", "row-out-of-range", "row-not-integer", "sign-not-a-bit"])
def test_load_rejects_invalid_clifford_tableaus(tmp_path, u_in, message):
    """X -> X, Z -> X has no unitary; loading it would give a non-Hermitian Choi mean."""
    ps, path = _sample(tmp_path, ens_in="clifford", ens_out="clifford")
    _edit_record(path, 4, u_in=u_in)
    with pytest.raises(ValueError, match=f"line 4: bad record .*{message}"):
        load_records(path)


def test_load_reports_qubit_count_mismatch_with_line(tmp_path):
    ps, path = _sample(tmp_path)
    _edit_record(path, 5, u_in={"kind": "pauli", "axes": "XY"}, b_in="01",
                 u_out={"kind": "pauli", "axes": "XY"}, b_out="01")
    with pytest.raises(ValueError, match="line 5: bad record .*acts on 2 qubits, header says 1"):
        load_records(path)


def test_process_shadow_rejects_a_side_that_mixes_ensembles(tmp_path):
    rng = np.random.default_rng(1)
    tableau = sample_frames(1, "clifford", 1, rng)[0]
    clifford = CliffordFrame(tableau[:, :-1], tableau[:, -1])
    recs = [ShadowRecord("0", PauliFrame("X"), PauliFrame("Z"), "1"),
            ShadowRecord("1", clifford, PauliFrame("Y"), "0")]
    with pytest.raises(ValueError, match="cannot mix Pauli and Clifford frames"):
        ProcessShadow(recs)
    # each side holds one ensemble; the two sides may differ
    ps = ProcessShadow([ShadowRecord("0", PauliFrame("X"), clifford, "1"),
                        ShadowRecord("1", PauliFrame("Y"), clifford, "0")])
    save_records(tmp_path / "sides.jsonl", ps)
    assert load_header(tmp_path / "sides.jsonl")["ensemble_out"] == "clifford"


def test_save_is_byte_deterministic(tmp_path):
    ps, path1 = _sample(tmp_path)
    path2 = tmp_path / "again.jsonl"
    save_records(path2, ps)
    assert path1.read_bytes() == path2.read_bytes()


def test_header_contents(tmp_path):
    _, path = _sample(tmp_path, seed=4, m=7, channel="hadamard", ens_out="clifford")
    head = load_header(path)
    assert head["format"] == "process-shadow-records"
    assert head["version"] == 1
    assert head["count"] == 7
    assert head["n_qubits"] == 1
    assert head["channel"] == "hadamard"
    assert head["ensemble_in"] == "pauli"
    assert head["ensemble_out"] == "clifford"


def test_header_optional_fields_absent(tmp_path):
    _, path = _sample(tmp_path)
    head = load_header(path)
    assert "seed" not in head
    assert "channel" not in head


def test_seed_recorded(tmp_path):
    rng = np.random.default_rng(2)
    ps = acquire_process_shadow(named_channel("identity", 1), 3, "pauli", "pauli", rng)
    path = tmp_path / "r.jsonl"
    save_records(path, ps, seed=2)
    assert load_header(path)["seed"] == 2


def test_load_rejects_wrong_format_tag(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"format": "something-else", "version": 1}) + "\n")
    with pytest.raises(ValueError, match="format"):
        load_header(path)


def test_load_rejects_future_version(tmp_path):
    ps, path = _sample(tmp_path)
    lines = path.read_text().splitlines()
    head = json.loads(lines[0])
    head["version"] = 99
    lines[0] = json.dumps(head)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="version"):
        load_records(path)


def test_load_reports_bad_line_number(tmp_path):
    ps, path = _sample(tmp_path)
    lines = path.read_text().splitlines()
    lines[2] = '{"broken": true'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 3"):
        load_records(path)
    # in the third read block, the line number counts every earlier block
    save_records(path, _drawn_shadow("pauli", "pauli", 1, _SPANNING, seed=2))
    lines = path.read_bytes().split(b"\n")
    body_offsets = np.cumsum([len(line) + 1 for line in lines[1:]])
    lineno = 2 + int(np.searchsorted(body_offsets, 2 * _READ_BLOCK)) + 3
    lines[lineno - 1] = b'{"broken": true'
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError, match=f"^line {lineno}: bad record"):
        load_records(path)


def test_load_detects_truncation(tmp_path):
    ps, path = _sample(tmp_path, m=10)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:6]) + "\n")
    with pytest.raises(ValueError, match="expected 10 records, found 5"):
        load_records(path)


def test_record_io_holds_about_one_block(tmp_path):
    """Saving and loading 2e5 Pauli/Pauli records, a 19 MB file, holds one
    block besides the label arrays, not the file: whole-file saving and
    loading peaked near 48 MB and 37 MB."""
    ps = _drawn_shadow("pauli", "pauli", 1, 200_000, seed=1)
    path = tmp_path / "r.jsonl"
    tracemalloc.start()
    try:
        save_records(path, ps)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loaded = load_records(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 18 * 2**20
    assert save_peak < 4 * 2**20
    assert load_peak < 12 * 2**20
    _same_labels(loaded, ps)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_records(tmp_path / "nope.jsonl")


@pytest.mark.parametrize("field,value", [
    (None, [1, 2]),
    ("n_qubits", _DROP),
    ("count", _DROP),
    ("count", "abc"),
    ("count", 5.7),
    ("count", True),
    ("count", -1),
    ("n_qubits", 0),
    ("n_qubits", True),
    ("n_qubits", 1.0),
    ("n_qubits", 25),
], ids=["list", "no-n_qubits", "no-count", "count-text", "count-float", "count-bool",
        "count-negative", "n_qubits-zero", "n_qubits-bool", "n_qubits-float",
        "n_qubits-beyond-int64-pauli-keys"])
def test_malformed_header_is_a_line_1_error(tmp_path, field, value):
    """Before the header was checked, these raised KeyError, AttributeError or
    OverflowError, or (count 5.7) loaded as 5 records."""
    _, path = _sample(tmp_path, m=5)
    lines = path.read_text().splitlines()
    head = json.loads(lines[0])
    if field is None:
        head = value
    elif value is _DROP:
        del head[field]
    else:
        head[field] = value
    lines[0] = json.dumps(head)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^line 1: "):
        load_records(path)
    assert main(["reconstruct", "--records", str(path)]) == 2


@pytest.mark.parametrize("ens,lineno,fields,message", [
    ("pauli", 6, {"u_in": {"kind": "pauli", "axes": "Q"}}, "invalid Pauli axes 'Q'"),
    ("pauli", 9, {"u_out": {"kind": "pauli", "axes": "x"}}, "invalid Pauli axes 'x'"),
    ("pauli", 3, {"b_in": "2"}, "bit string '2'"),
    ("pauli", 11, {"b_out": 0}, "int"),
    ("pauli", 5, {"b_in": "01"}, "bit string '01'"),
    ("clifford", 7, {"b_out": "10"}, "bit string '10'"),
    ("pauli", 8, {"b_out": _DROP}, "'b_out'"),
    ("pauli", 4, {"b_in": ["0"]}, "JSON strings"),
    ("pauli", 10, {"u_in": {"kind": "pauli", "axes": ["X"]}}, "not a string"),
    ("clifford", 12, {"u_out": [1, 2]}, "'list' object"),
    ("pauli", 7, {"u_in": {"kind": "explicit", "axes": "X"}}, "unknown frame kind"),
], ids=["axes-Q", "axes-lowercase", "bit-2", "bit-int", "pauli-bits-length",
        "clifford-bits-length", "missing-b_out", "bits-list", "axes-list",
        "frame-not-object", "kind-differs-but-axes-present"])
def test_load_rejects_bad_columns_with_line(tmp_path, ens, lineno, fields, message):
    _, path = _sample(tmp_path, ens_in=ens, ens_out=ens)
    _edit_record(path, lineno, **fields)
    with pytest.raises(ValueError, match=f"^line {lineno}: bad record .*{message}"):
        load_records(path)


def test_repeated_bad_tableau_reports_its_first_line(tmp_path):
    _, path = _sample(tmp_path, ens_in="clifford", ens_out="clifford")
    bad = {"kind": "clifford", "s": [1, 1], "p": [0, 0]}
    _edit_record(path, 7, u_out=bad)
    _edit_record(path, 4, u_out=bad)
    with pytest.raises(ValueError, match="^line 4: bad record .*not symplectic"):
        load_records(path)


@pytest.mark.parametrize("s,p", [([1, 2.0], [0, 1]), ([1, 2], [0, 1.0])],
                         ids=["float-row", "float-sign"])
def test_float_in_a_repeated_tableau_is_rejected(tmp_path, s, p):
    """A tableau seen first with integer entries must not let a float copy through."""
    _, path = _sample(tmp_path, ens_in="clifford", ens_out="clifford")
    _edit_record(path, 4, u_in={"kind": "clifford", "s": [1, 2], "p": [0, 1]})
    _edit_record(path, 7, u_in={"kind": "clifford", "s": s, "p": p})
    with pytest.raises(ValueError, match="^line 7: bad record"):
        load_records(path)


def test_first_offending_line_wins_across_columns(tmp_path):
    _, path = _sample(tmp_path)
    _edit_record(path, 9, u_out={"kind": "clifford", "s": [1, 2], "p": [0, 0]})
    _edit_record(path, 7, b_in="x")
    _edit_record(path, 5, u_out={"kind": "pauli", "axes": "W"})
    with pytest.raises(ValueError, match="^line 5: bad record .*'W'"):
        load_records(path)


def test_blank_lines_count_toward_line_numbers(tmp_path):
    _, path = _sample(tmp_path)
    lines = path.read_text().splitlines()
    lines[2:2] = ["", "   "]
    path.write_text("\n".join(lines) + "\n")
    assert len(load_records(path)) == 12
    _edit_record(path, 8, b_out="3")
    with pytest.raises(ValueError, match="^line 8: bad record"):
        load_records(path)


def _random_tableau(n, rng):
    """A random Clifford frame, built from symplectic transvections."""
    s = np.eye(2 * n, dtype=int)
    for h in rng.integers(0, 2, size=(3, 2 * n)):
        inner = (s[:, :n] @ h[n:] + s[:, n:] @ h[:n]) % 2
        s = (s + np.outer(inner, h)) % 2
    return CliffordFrame(s, rng.integers(0, 2, 2 * n))


def _fixed_shadow(ens_in, ens_out, n, m, seed):
    """Records drawn from an RNG without simulating a channel, so the bytes
    depend on the file format alone."""
    rng = np.random.default_rng(seed)
    pool = [_random_tableau(n, rng) for _ in range(5)]

    def frame(ens):
        if ens == "pauli":
            return PauliFrame("".join("XYZ"[i] for i in rng.integers(0, 3, n)))
        return pool[rng.integers(len(pool))]

    def bits():
        return "".join("01"[i] for i in rng.integers(0, 2, n))

    return ProcessShadow([ShadowRecord(bits(), frame(ens_in), frame(ens_out), bits())
                          for _ in range(m)], n)


# records enough for three write blocks, and for three read blocks of any pair's lines
_SPANNING = 20_000


def _drawn_shadow(ens_in, ens_out, n, m, seed):
    """Records drawn as frame stacks, without simulating a channel: many
    records, faster than _fixed_shadow builds them."""
    rng = np.random.default_rng(seed)
    return ProcessShadow._of(*(ShadowEstimate.of_stack(ens, sample_frames(n, ens, m, rng),
                                                       rng.integers(0, 2**n, m))
                               for ens in (ens_in, ens_out)))


def _assert_spans_blocks(path, m):
    assert m >= 3 * _WRITE_BLOCK
    assert len(path.read_bytes().split(b"\n", 1)[1]) >= 3 * _READ_BLOCK


# sha256 of the files that save_records wrote for _fixed_shadow before
# loading and saving went by columns
GOLDEN = [
    ("pauli", "pauli", 1,
     "386385490f5222f9f8b1a6f5eef06c143297d676a7769b1bfd94dac4e40f13f2"),
    ("pauli", "pauli", 2,
     "f5d4dc40456a8896af03c2621a6e67ac3f8f40d467bd891f0e3c0ecf6665dea6"),
    ("pauli", "pauli", 5,
     "9fb9025d6c2c57a5eacbafddcf913475875b52c8fdc704d7403e75b7ed5167dd"),
    ("clifford", "clifford", 2,
     "ef15801202709ab05418d2e1ef0c8546e4bb49a0b5998677d78e720f238a03f7"),
    ("pauli", "clifford", 2,
     "edff8d93a794beab535f5126a479e143e7ee01e867cfbdca9b35a5af496aac0f"),
]


@pytest.mark.parametrize("ens_in,ens_out,n,digest", GOLDEN,
                         ids=[f"{a}-{b}-n{n}" for a, b, n, _ in GOLDEN])
def test_saved_bytes_match_golden_digest(tmp_path, ens_in, ens_out, n, digest):
    ps = _fixed_shadow(ens_in, ens_out, n, 60, seed=n)
    path = tmp_path / "golden.jsonl"
    save_records(path, ps, seed=n, channel="golden")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    loaded = load_records(path)
    again = tmp_path / "again.jsonl"
    save_records(again, loaded, seed=n, channel="golden")
    assert again.read_bytes() == path.read_bytes()
    ref = ProcessShadow(ps.records, n)
    for side, ref_side in ((loaded.side_in, ref.side_in), (loaded.side_out, ref.side_out)):
        assert np.array_equal(side.labels, ref_side.labels)
        assert side.labels.dtype == ref_side.labels.dtype
        assert np.array_equal(side.frames, ref_side.frames)


def _same_labels(loaded, ps):
    assert loaded.n_qubits == ps.n_qubits
    for side, ref in ((loaded.side_in, ps.side_in), (loaded.side_out, ps.side_out)):
        assert np.array_equal(side.labels, ref.labels)
        assert side.labels.dtype == ref.labels.dtype
        assert np.array_equal(side.frames, ref.frames)


PAIRS = [("pauli", "pauli"), ("clifford", "clifford"), ("pauli", "clifford"),
         ("clifford", "pauli")]


@pytest.mark.parametrize("ens_in,ens_out,n,m", [
    *[pytest.param(a, b, n, 40, id=f"{a}-{b}-{n}") for a, b in PAIRS for n in (1, 2, 3)],
    pytest.param("pauli", "pauli", 5, 40, id="pauli-pauli-5"),
    *[pytest.param(a, b, n, _SPANNING, id=f"{a}-{b}-{n}-blocks") for a, b in PAIRS
      for n in (1, 3)]])
def test_round_trip_labels_and_frames(tmp_path, ens_in, ens_out, n, m):
    """Few records, and records over several write and read blocks: a
    Clifford tableau seen in one block keeps its index in the next."""
    ps = (_fixed_shadow if m < _SPANNING else _drawn_shadow)(ens_in, ens_out, n, m, seed=10 + n)
    path = tmp_path / "r.jsonl"
    save_records(path, ps)
    if m == _SPANNING:
        _assert_spans_blocks(path, m)
    _same_labels(load_records(path), ps)


@pytest.mark.parametrize("ens_in,ens_out", PAIRS)
@pytest.mark.parametrize("n", [1, 2])
def test_label_tables_write_the_bytes_of_per_block_rendering(tmp_path, monkeypatch,
                                                             ens_in, ens_out, n):
    """A side below the label space is rendered once per file into a table;
    rendering it in every block instead writes the same bytes."""
    ps = _drawn_shadow(ens_in, ens_out, n, 2 * _WRITE_BLOCK + 7, seed=n)
    assert max(ps.side_in.labels.max(), ps.side_out.labels.max()) < records_io._LABEL_SPACE
    save_records(tmp_path / "table.jsonl", ps)
    monkeypatch.setattr(records_io, "_LABEL_SPACE", 0)
    save_records(tmp_path / "blocks.jsonl", ps)
    assert (tmp_path / "table.jsonl").read_bytes() == (tmp_path / "blocks.jsonl").read_bytes()


def test_round_trip_of_an_empty_shadow(tmp_path):
    ps = ProcessShadow([], 2)
    path = tmp_path / "empty.jsonl"
    save_records(path, ps)
    assert load_header(path)["count"] == 0
    loaded = load_records(path)
    assert len(loaded) == 0
    _same_labels(loaded, ps)


def _shuffled_json(line, rng):
    """Default json.dumps spacing, shuffled keys, an extra field and \\u0030
    escapes in the bit strings: the same record, in no canonical form."""
    def shuffle(obj):
        if not isinstance(obj, dict):
            return obj
        keys = list(obj)
        rng.shuffle(keys)
        return {k: shuffle(obj[k]) for k in keys}

    obj = shuffle({**json.loads(line), "note": "hand-edited"})
    text = json.dumps(obj)
    return re.sub(r'"([01]+)"', lambda m: '"' + m[1].replace("0", "\\u0030") + '"', text)


def _across_read_cuts(text: bytes) -> bytes:
    """A CRLF file with a blank line in front that moves a record's CR to
    the last byte of the first read block, and a blank line across the
    second cut."""
    head, body = text.split(b"\n", 1)
    cr = body.rfind(b"\r", 0, _READ_BLOCK - 2)
    body = b" " * (_READ_BLOCK - 3 - cr) + b"\r\n" + body
    start = body.rfind(b"\n", 0, 2 * _READ_BLOCK - 1) + 1
    body = body[:start] + b" " * (2 * _READ_BLOCK + 1 - start) + b"\r\n" + body[start:]
    record = body[body.rfind(b"\n", 0, _READ_BLOCK - 1) + 1:_READ_BLOCK + 1]
    assert record.startswith(b'{"b_in":') and record.endswith(b"}\r\n")
    assert body[2 * _READ_BLOCK - 1:2 * _READ_BLOCK + 1] == b"  "
    return head + b"\n" + body


@pytest.mark.parametrize("ens_in,ens_out,m", [
    *[pytest.param(a, b, 30, id=f"{a}-{b}") for a, b in PAIRS],
    *[pytest.param(a, b, _SPANNING, id=f"{a}-{b}-blocks") for a, b in PAIRS]])
@pytest.mark.parametrize("layout", ["no-final-newline", "blank-lines", "crlf", "non-canonical",
                                    "long-line"])
def test_other_layouts_load_the_same_labels(tmp_path, ens_in, ens_out, m, layout):
    ps = (_fixed_shadow if m < _SPANNING else _drawn_shadow)(ens_in, ens_out, 2, m, seed=3)
    path = tmp_path / "r.jsonl"
    save_records(path, ps)
    if m == _SPANNING:
        _assert_spans_blocks(path, m)
    text = path.read_text()
    if layout == "no-final-newline":
        text = text.rstrip("\n")
    elif layout == "blank-lines":
        lines = text.splitlines()
        lines[5:5] = ["", "  \t"]
        lines[-2:-2] = [" "]
        text = "\n".join(lines) + "\n\n"
    elif layout == "crlf":  # with a blank line and a line in default spacing
        lines = text.splitlines()
        lines[3] = json.dumps(json.loads(lines[3]))
        lines[6:6] = [""]
        text = "\r\n".join(lines) + "\r\n"
        if m == _SPANNING:
            text = _across_read_cuts(text.encode()).decode()
    elif layout == "long-line":  # a record past the first cut covers a whole read block
        lines = text.splitlines()
        at = len(lines) // 2
        lines[at] = json.dumps({**json.loads(lines[at]), "note": "x" * 2 * _READ_BLOCK})
        text = "\n".join(lines) + "\n"
    else:
        rng = np.random.default_rng(0)
        lines = text.splitlines()
        text = "\n".join(lines[:1] + [_shuffled_json(line, rng) for line in lines[1:]]) + "\n"
        assert "\\u0030" in text and "hand-edited" in text
    path.write_bytes(text.encode())
    _same_labels(load_records(path), ps)


@pytest.mark.parametrize("field,value,message", [
    ("s", [True, 2], r"integers in \[0, 4\)"),
    ("s", [1, 2, False, 3], "row count"),
    ("p", [False, True], "sign bits"),
], ids=["row-true", "row-false-extra", "sign-bools"])
def test_json_booleans_in_a_tableau_are_rejected(tmp_path, field, value, message):
    """true and false are not tableau integers, even where 1 and 0 would be valid."""
    _, path = _sample(tmp_path, ens_in="clifford", ens_out="clifford")
    frame = {"kind": "clifford", "s": [1, 2], "p": [0, 1]}
    _edit_record(path, 4, u_in=frame)
    assert len(load_records(path)) == 12
    _edit_record(path, 6, u_in={**frame, field: value})
    with pytest.raises(ValueError, match=f"^line 6: bad record .*{message}"):
        load_records(path)


@pytest.mark.parametrize("m", [0, 4])
def test_unknown_ensemble_tags_reject_records_only(tmp_path, m):
    """Header tags of any JSON type: an empty file loads, a record names its line."""
    _, path = _sample(tmp_path, m=m)
    lines = path.read_text().splitlines()
    head = json.loads(lines[0])
    head["ensemble_in"] = ["pauli"]
    lines[0] = json.dumps(head)
    path.write_text("\n".join(lines) + "\n")
    if m:
        with pytest.raises(ValueError, match="^line 2: bad record .*ensemble_in"):
            load_records(path)
    else:
        assert len(load_records(path)) == 0


def test_clifford_header_beyond_int64_rows_is_a_line_1_error(tmp_path):
    _, path = _sample(tmp_path, ens_in="clifford", ens_out="clifford", m=3)
    lines = path.read_text().splitlines()
    head = json.loads(lines[0])
    head["n_qubits"] = 32
    lines[0] = json.dumps(head)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^line 1: 32 qubits exceed the cap"):
        load_records(path)
    with pytest.raises(ValueError, match="^line 1: "):
        load_header(path)
    assert main(["reconstruct", "--records", str(path)]) == 2
    head["n_qubits"] = 6
    lines[0] = json.dumps(head)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^line 2: bad record .*row count"):
        load_records(path)


def test_header_beyond_the_register_cap_is_a_line_1_error(tmp_path):
    """A well-formed 7-qubit file (one-qubit records padded with six Z-axis
    qubits) is refused at its header: reconstructing it would allocate 16^7
    coefficients and a 2^14 x 2^14 matrix."""
    _, path = _sample(tmp_path, m=5)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    lines[0]["n_qubits"] = 7
    for rec in lines[1:]:
        rec["b_in"], rec["b_out"] = rec["b_in"] + "0" * 6, rec["b_out"] + "0" * 6
        rec["u_in"]["axes"] += "Z" * 6
        rec["u_out"]["axes"] += "Z" * 6
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with pytest.raises(ValueError, match="^line 1: 7 qubits exceed the cap"):
        load_records(path)
    assert main(["reconstruct", "--records", str(path)]) == 2


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("row", [2**63, 2**64, 10**30], ids=["2^63", "2^64", "10^30"])
def test_oversized_tableau_row_is_a_bad_record(tmp_path, n, row):
    ps = _fixed_shadow("clifford", "clifford", n, 8, seed=n)
    path = tmp_path / "r.jsonl"
    save_records(path, ps)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[4])
    rec["u_out"]["s"][-1] = row
    lines[4] = _dump_canonical(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^line 5: bad record .*integers in \\[0, {4**n}\\)"):
        load_records(path)
    assert main(["reconstruct", "--records", str(path)]) == 2


def _dump_canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _reference_labels(path):
    """Both sides' labels of a file decoded with json and encoded by
    ``ShadowEstimate.encode``."""
    lines = path.read_bytes().split(b"\n")
    n = json.loads(lines[0])["n_qubits"]
    recs = [json.loads(line) for line in lines[1:] if line.strip()]

    def frame(u):
        if u["kind"] == "pauli":
            return PauliFrame(u["axes"])
        rows = np.array(u["s"], dtype=np.int64)
        return CliffordFrame((rows[:, None] >> np.arange(2 * n)) & 1, u["p"])

    return [ShadowEstimate.encode([frame(r[u]) for r in recs], [r[b] for r in recs], n)
            for u, b in (("u_in", "b_in"), ("u_out", "b_out"))]


@settings(max_examples=300)
@given(pair=st.sampled_from(PAIRS), n=st.integers(1, 2), data=st.data())
def test_single_byte_edit_loads_like_json_or_names_its_line(tmp_path_factory, pair, n, data):
    ps = _fixed_shadow(*pair, n, 6, seed=n)
    path = tmp_path_factory.mktemp("fuzz") / "r.jsonl"
    save_records(path, ps)
    lines = path.read_bytes().split(b"\n")
    lineno = data.draw(st.integers(2, len(lines) - 1), label="lineno")
    line = lines[lineno - 1]
    pos = data.draw(st.integers(0, len(line)), label="pos")
    char = data.draw(st.characters(min_codepoint=0x20, max_codepoint=0x7e), label="char")
    edit = data.draw(st.sampled_from(["replace", "insert", "delete"]), label="edit")
    new = b"" if edit == "delete" else char.encode()
    lines[lineno - 1] = line[:pos] + new + line[pos + (edit != "insert"):]
    path.write_bytes(b"\n".join(lines))
    try:
        loaded = load_records(path)
    except ValueError as exc:
        assert str(exc).startswith(f"line {lineno}: "), str(exc)
        return
    for side, ref in zip((loaded.side_in, loaded.side_out), _reference_labels(path)):
        assert np.array_equal(side.labels, ref.labels)
        assert np.array_equal(side.frames, ref.frames)


@pytest.mark.parametrize("ens_in", ["clifford", "pauli"])
def test_no_frame_object_outside_the_views(tmp_path, monkeypatch, ens_in):
    """Acquisition, the estimators and the file round trip work on label
    arrays and tableau stacks: with the CliffordFrame constructor and the
    view decoder both refused, they still run, and give the same numbers
    and bytes as with them."""
    def refuse(*args):
        raise AssertionError("a frame object was built")

    ch = named_channel("hadamard", 2)
    rho = basis_projector("01")
    path = tmp_path / "r.jsonl"

    def pipeline():
        ps = acquire_process_shadow(ch, 60, ens_in, "clifford", np.random.default_rng(4))
        save_records(path, ps, seed=4)
        loaded = load_records(path)
        return ps, loaded, [reconstruct_choi(loaded).matrix, estimate_output_state(loaded, rho),
                            purity_estimate(loaded), path.read_bytes()]

    with monkeypatch.context() as patch:
        patch.setattr(CliffordFrame, "__post_init__", refuse)
        patch.setattr(ShadowEstimate, "_decode", refuse)
        ps, loaded, values = pipeline()
        assert isinstance(loaded.side_out.frames, np.ndarray)
        with pytest.raises(AssertionError, match="frame object was built"):
            loaded.records
    _, _, expected = pipeline()
    for got, want in zip(values, expected):
        assert np.array_equal(got, want)
    assert loaded.records == ps.records
