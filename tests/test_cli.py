"""Command line interface: subcommands, config files, exit codes."""

import json

import numpy as np
import pytest

from procshadow.cli import main
from procshadow.records_io import load_header


def _acquire(tmp_path, *, channel="hadamard", m=200, seed=3, name="rec.jsonl"):
    path = tmp_path / name
    code = main([
        "acquire", "--channel", channel, "--qubits", "1", "--m", str(m),
        "--seed", str(seed), "--records", str(path),
    ])
    assert code == 0
    return path


def test_acquire_writes_records(tmp_path, capsys):
    path = _acquire(tmp_path)
    out = capsys.readouterr().out
    assert "wrote 200 records" in out
    head = load_header(path)
    assert head["count"] == 200
    assert head["channel"] == "hadamard"
    assert head["seed"] == 3


def test_acquire_deterministic(tmp_path):
    a = _acquire(tmp_path, name="a.jsonl")
    b = _acquire(tmp_path, name="b.jsonl")
    assert a.read_bytes() == b.read_bytes()


def test_reconstruct_reports_error_against_channel(tmp_path, capsys):
    path = _acquire(tmp_path, m=2000)
    capsys.readouterr()  # drop the acquire message
    code = main(["reconstruct", "--records", str(path), "--compare-channel", "hadamard"])
    assert code == 0
    out = capsys.readouterr().out
    fields = dict(line.split(" = ") for line in out.strip().splitlines())
    assert fields["records"] == "2000"
    assert abs(float(fields["trace"]) - 1.0) < 0.2
    assert float(fields["operator_norm_error"]) < 0.5


def test_reconstruct_saves_matrix(tmp_path):
    path = _acquire(tmp_path)
    out_npy = tmp_path / "choi.npy"
    assert main(["reconstruct", "--records", str(path), "--output", str(out_npy)]) == 0
    mat = np.load(out_npy)
    assert mat.shape == (4, 4)


def test_estimate_transition(tmp_path, capsys):
    path = _acquire(tmp_path, channel="pauli-x", m=3000)
    capsys.readouterr()
    assert main(["estimate", "--records", str(path), "--initial", "0", "--final", "1"]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(fields["raw"]) == pytest.approx(1.0, abs=0.15)
    assert 0.0 <= float(fields["clipped"]) <= 1.0


def test_compose_two_bit_flips(tmp_path, capsys):
    path = _acquire(tmp_path, channel="pauli-x", m=5000, seed=8)
    capsys.readouterr()
    code = main([
        "compose", "--records", str(path), "--records2", str(path),
        "--compare-channels", "pauli-x,pauli-x",
    ])
    assert code == 0
    out = capsys.readouterr().out
    fields = dict(line.split(" = ") for line in out.strip().splitlines())
    assert fields["pairs"] == str(5000 * 5000)
    assert float(fields["operator_norm_error"]) < 0.3


def test_verify_unitarity(tmp_path, capsys):
    path = _acquire(tmp_path, m=20000)
    capsys.readouterr()
    assert main(["verify-unitarity", "--records", str(path), "--seed", "1"]) == 0
    out = capsys.readouterr().out
    fields = dict(line.split(" = ") for line in out.strip().splitlines())
    assert fields["verdict"] == "unitary"
    assert float(fields["threshold"]) == pytest.approx(3.8)


def test_budget_worked_example(capsys):
    code = main([
        "budget", "--qubits", "1", "--epsilon", "0.1", "--delta", "0.1",
        "--observables", "Z", "--state-supports", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    fields = dict(line.split(" = ") for line in out.strip().splitlines())
    assert fields["k_groups"] == "6"
    assert fields["n_per_group"] == "217600"
    assert fields["total"] == str(6 * 217600)


@pytest.mark.parametrize("ensemble, f_in", [("pauli", "[4.0, 64.0]"),
                                              ("clifford", "[14.0, 14.0]")])
def test_budget_state_supports_at_twelve_qubits(capsys, ensemble, f_in):
    """Pure inputs are known by their support counts alone, so no
    2^12 x 2^12 placeholder state is built or decomposed."""
    code = main(["budget", "--epsilon", "0.1", "--delta", "0.1", "--qubits", "12",
                 "--observables", "Z" + "I" * 11, "--state-supports", "1,3",
                 "--ensemble-in", ensemble])
    assert code == 0
    fields = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
    assert fields["f_in"] == f_in


@pytest.mark.parametrize("ensemble", ["pauli", "clifford"])
def test_budget_rejects_a_support_beyond_the_register(capsys, ensemble):
    code = main(["budget", "--epsilon", "0.1", "--delta", "0.1", "--qubits", "2",
                 "--observables", "ZI", "--state-supports", "1,3", "--ensemble-in", ensemble])
    assert code == 2
    captured = capsys.readouterr()
    assert "support 3 outside [0, 2]" in captured.err and captured.out == ""


def test_budget_state_mode(capsys):
    assert main(["budget", "--qubits", "1", "--epsilon", "0.1", "--delta", "0.1",
                 "--observables", "Z"]) == 0
    out = capsys.readouterr().out
    assert "n_per_group = 13600" in out
    assert "n_per_group_traceless = 13600" in out


def test_experiment_inline(tmp_path, capsys):
    out_dir = tmp_path / "results"
    code = main([
        "experiment", "--experiment", "choi-convergence", "--qubits", "1",
        "--grid", "50,200,800", "--trials", "2", "--seed", "5",
        "--out", str(out_dir),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean_exponent" in out
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "manifest.json").exists()


def test_experiment_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "sign-statistics", "n_qubits": 1,
        "grid": [100, 2000], "trials": 2, "seed": 9,
    }))
    assert main(["experiment", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "sign-statistics" in out
    assert "p_negative" in out


def test_exit_code_config_error(tmp_path, capsys):
    # unknown channel spec
    code = main(["acquire", "--channel", "teleport", "--qubits", "1",
                 "--m", "5", "--records", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_acquire_rejects_negative_count(tmp_path, capsys):
    path = tmp_path / "x.jsonl"
    code = main(["acquire", "--channel", "identity", "--qubits", "1", "--m", "-3",
                 "--ensemble-in", "clifford", "--ensemble-out", "clifford",
                 "--records", str(path)])
    assert code == 2
    assert "record count must be non-negative, got -3" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("flags,message", [
    (["--bootstrap", "0"], "at least one bootstrap replicate, got 0"),
    (["--threshold-fraction", "-1"], "threshold fraction must lie in (0, 1], got -1.0"),
    (["--threshold-fraction", "1.5"], "threshold fraction must lie in (0, 1], got 1.5"),
])
def test_verify_unitarity_rejects_invalid_settings(tmp_path, capsys, flags, message):
    path = _acquire(tmp_path, m=50)
    capsys.readouterr()
    assert main(["verify-unitarity", "--records", str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_verify_unitarity_on_two_records_is_a_configuration_error(tmp_path, capsys):
    path = _acquire(tmp_path, m=2, seed=1)
    capsys.readouterr()
    assert main(["verify-unitarity", "--records", str(path)]) == 2
    captured = capsys.readouterr()
    assert "bootstrap replicates of 2 records" in captured.err and captured.out == ""


@pytest.mark.parametrize("qubits", ["0", "-1"])
def test_experiment_rejects_empty_register(capsys, qubits):
    code = main(["experiment", "--experiment", "choi-convergence", "--qubits", qubits,
                 "--grid", "2,4", "--trials", "1"])
    assert code == 2
    assert f"n_qubits={qubits}" in capsys.readouterr().err


@pytest.mark.parametrize("qubits,observables,message", [
    ("0", "Z", "n_qubits=0"),
    ("2", "Z", "operator on 1 qubits does not match n_qubits=2"),
])
def test_budget_rejects_register_mismatch(capsys, qubits, observables, message):
    code = main(["budget", "--epsilon", "0.1", "--delta", "0.1", "--qubits", qubits,
                 "--observables", observables])
    assert code == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("qubits", ["0", "-1"])
def test_budget_with_state_supports_checks_register_first(capsys, qubits):
    code = main(["budget", "--epsilon", "0.1", "--delta", "0.1", "--qubits", qubits,
                 "--observables", "Z", "--state-supports", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert f"n_qubits={qubits}" in captured.err and captured.out == ""


def test_exit_code_missing_records(capsys):
    assert main(["reconstruct", "--records", "/nonexistent/r.jsonl"]) == 2


def test_exit_code_infeasible(tmp_path, capsys):
    code = main(["acquire", "--channel", "identity", "--qubits", "7",
                 "--m", "5", "--records", str(tmp_path / "x.jsonl")])
    assert code == 3
    assert "infeasible" in capsys.readouterr().err
    # a readable record file on a register above the purity cap
    path = str(tmp_path / "d4.jsonl")
    assert main(["acquire", "--channel", "identity", "--qubits", "4", "--m", "20",
                 "--records", path]) == 0
    capsys.readouterr()
    assert main(["verify-unitarity", "--records", path]) == 3
    assert "infeasible: unitarity on 4 qubits" in capsys.readouterr().err


def test_exit_code_infeasible_experiment(capsys):
    # unitarity past its purity cap; a random full-rank channel on 3 qubits,
    # which dilates past the register cap, named by a seeded spec or redrawn
    for argv in (["--experiment", "unitarity", "--qubits", "4"],
                 ["--experiment", "choi-convergence", "--qubits", "3",
                  "--channel", "random-full-rank:7"],
                 ["--experiment", "choi-convergence", "--qubits", "3",
                  "--channel", "random-full-rank"]):
        code = main(["experiment", *argv, "--grid", "50,100", "--trials", "1"])
        assert code == 3, argv


@pytest.mark.parametrize("argv", [
    ["experiment", "--experiment", "choi-convergence", "--qubits", "5",
     "--channel", "amplitude-damping:0.3", "--grid", "100,300", "--trials", "1"],
    ["acquire", "--channel", "random-unitary:7", "--qubits", "5", "--m", "50",
     "--records", "{tmp}/r.jsonl"],
], ids=["experiment", "acquire-random-unitary"])
def test_five_qubits_are_within_the_register_cap(tmp_path, argv):
    assert main([a.format(tmp=tmp_path) for a in argv]) == 0


def test_unitarity_experiment_below_ten_records_is_a_configuration_error(capsys):
    code = main(["experiment", "--experiment", "unitarity", "--qubits", "1",
                 "--grid", "4,100", "--trials", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert "unitarity grid starts at 4 records" in captured.err and captured.out == ""


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["acquire", "--no-such-flag"])
    assert exc.value.code == 2


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "acq.json"
    cfg.write_text(json.dumps({"channel": "pauli-x", "qubits": 1, "m": 25}))
    path = tmp_path / "r.jsonl"
    code = main(["acquire", "--config", str(cfg), "--seed", "0",
                 "--records", str(path)])
    assert code == 0
    assert load_header(path)["count"] == 25


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "acq.json"
    cfg.write_text(json.dumps({"channel": "identity", "shots": 2}))
    code = main(["acquire", "--config", str(cfg), "--qubits", "1", "--m", "5",
                 "--records", str(tmp_path / "r.jsonl")])
    assert code == 2


def _exit_code(argv):
    """main's return value, or the exit code of argparse's usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


ACQUIRE = ["acquire", "--channel", "hadamard", "--seed", "2", "--records", "{out}/r.jsonl"]
BUDGET = ["budget", "--epsilon", "0.1", "--delta", "0.1", "--qubits", "1", "--observables", "Z"]
CLIFFORD = {"ensemble_in": "clifford", "ensemble-out": "clifford"}
CLIFFORD_FLAGS = ["--ensemble-in", "clifford", "--ensemble-out", "clifford"]


@pytest.mark.parametrize("argv,config,flags,code", [
    ([*ACQUIRE, "--qubits", "1", "--m", "20"], CLIFFORD, CLIFFORD_FLAGS, 0),
    (BUDGET, CLIFFORD, CLIFFORD_FLAGS, 0),
    (["verify-unitarity", "--records", "{rec}"], {"threshold_fraction": 0.5},
     ["--threshold-fraction", "0.5"], 0),
    (["verify-unitarity", "--records", "{rec}"], {"bootstrap": 2.5}, ["--bootstrap", "2.5"], 2),
    (["estimate", "--records", "{rec}", "--initial", "0", "--final", "1"], {"groups": 5},
     ["--groups", "5"], 0),
    ([*ACQUIRE, "--qubits", "1"], {"m": 2.9}, ["--m", "2.9"], 2),
    ([*ACQUIRE, "--m", "20"], {"qubits": True}, ["--qubits", "true"], 2),
    (["experiment", "--trials", "3", "--qubits", "2", "--grid", "5,7", "--out", "{out}"],
     {"experiment": "choi-convergence", "n_qubits": 1, "grid": [50, 200], "trials": 1},
     ["--experiment", "choi-convergence"], 0),
], ids=["acquire-ensembles", "budget-ensembles", "threshold-fraction", "bootstrap-float",
        "groups", "m-float", "qubits-bool", "experiment-flags-win"])
def test_config_value_acts_like_its_flag(tmp_path, capsys, argv, config, flags, code):
    """A --config value gives what the same text gives as a flag (exit code,
    printed lines, written files), and flags typed on the command line win."""
    rec = _acquire(tmp_path, m=200)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    runs = []
    for name, extra in (("config", ["--config", str(cfg)]), ("flags", flags)):
        out = tmp_path / name
        out.mkdir()
        capsys.readouterr()
        rc = _exit_code([a.format(rec=rec, out=out) for a in argv] + extra)
        printed = capsys.readouterr().out.replace(str(out), "OUT")
        runs.append((rc, printed, {p.name: p.read_bytes() for p in out.iterdir()}))
    assert runs[0] == runs[1]
    assert runs[0][0] == code


@pytest.mark.parametrize("argv,flag,value", [
    (["experiment", "--experiment", "sign-statistics", "--grid", "10,20", "--trials", "1"],
     "records", "nowhere.jsonl"),
    (BUDGET, "records", "nowhere.jsonl"),
    (BUDGET, "seed", 5),
    (["reconstruct", "--records", "{rec}"], "seed", 5),
    (["estimate", "--records", "{rec}", "--initial", "0", "--final", "1"], "seed", 5),
    (["compose", "--records", "{rec}", "--records2", "{rec}"], "seed", 5),
], ids=["experiment-records", "budget-records", "budget-seed", "reconstruct-seed",
        "estimate-seed", "compose-seed"])
def test_flags_the_subcommand_does_not_read_exit_two(tmp_path, capsys, argv, flag, value):
    """--seed and --records exist only on the subcommands that read them:
    typed or as a --config key, an unread one is a usage error."""
    rec = _acquire(tmp_path, m=20)
    argv = [a.format(rec=rec) for a in argv]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag: value}))
    assert _exit_code(argv + [f"--{flag}", str(value)]) == 2
    capsys.readouterr()
    assert _exit_code(argv + ["--config", str(cfg)]) == 2
    assert f"config key '{flag}' matches no flag" in capsys.readouterr().err
    assert _exit_code(argv) == 0


@pytest.mark.parametrize("config,message", [
    ({"experiment": "unitarity", "shots": 5}, "config key 'shots' matches no flag"),
    ({"config": "other.json"}, "config key 'config' matches no flag"),
    ({"trials": None}, "config key 'trials' cannot take null"),
    ({"channel": {"name": "identity"}}, "config key 'channel' cannot take {\"name\""),
    ({"grid": [[5, 7]]}, "config key 'grid' cannot take [[5, 7]]"),
    ({"trials": True}, "config key 'trials' cannot take true"),
    ({"gnuplot": "yes"}, "config key 'gnuplot' cannot take \"yes\""),
])
def test_config_rejects_values_no_flag_takes(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "choi-convergence", **config}))
    assert main(["experiment", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_manifest_config_reruns_the_experiment(tmp_path):
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["experiment", "--experiment", "correlator-convergence", "--qubits", "1",
                 "--ensemble-in", "clifford", "--grid", "20,80", "--trials", "2",
                 "--groups", "2", "--seed", "6", "--gnuplot", "--out", str(first)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(json.loads((first / "manifest.json").read_text())["config"]))
    assert main(["experiment", "--config", str(cfg), "--out", str(again)]) == 0
    for name in ("results.csv", "manifest.json"):
        assert (again / name).read_bytes() == (first / name).read_bytes()
