"""Record serialization: JSONL save/load with a self-describing header."""

import json

import numpy as np
import pytest

from procshadow.channels import named_channel
from procshadow.ensembles import PauliFrame, sample_clifford, to_matrix
from procshadow.process_shadows import ProcessShadow, ShadowRecord, acquire_process_shadow, reconstruct_choi
from procshadow.records_io import load_header, load_records, save_records


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
        assert np.array_equal(to_matrix(a.u_in), to_matrix(b.u_in))
        assert np.array_equal(to_matrix(a.u_out), to_matrix(b.u_out))


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


def _edit_record(path, lineno, **fields):
    lines = path.read_text().splitlines()
    rec = json.loads(lines[lineno - 1])
    rec.update(fields)
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


def test_save_refuses_a_side_that_mixes_ensembles(tmp_path):
    rng = np.random.default_rng(1)
    recs = [ShadowRecord("0", PauliFrame("X"), PauliFrame("Z"), "1"),
            ShadowRecord("1", sample_clifford(1, rng), PauliFrame("Y"), "0")]
    with pytest.raises(ValueError, match="ensemble_in: .*mix"):
        save_records(tmp_path / "mixed.jsonl", ProcessShadow(recs))


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


def test_load_detects_truncation(tmp_path):
    ps, path = _sample(tmp_path, m=10)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:6]) + "\n")
    with pytest.raises(ValueError, match="expected 10 records, found 5"):
        load_records(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_records(tmp_path / "nope.jsonl")
