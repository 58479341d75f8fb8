"""Experiment harness: convergence studies, power-law fits, result files."""

import concurrent.futures
import json
import math

import numpy as np
import pytest

from procshadow.experiments import (
    DEFAULT_GRID,
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    InfeasibleError,
    fit_power_law,
    run_experiment,
    write_result_files,
)

SMALL = dict(n_qubits=1, grid=(50, 150, 400), trials=2, seed=7)


def test_default_grid():
    assert DEFAULT_GRID == (100, 300, 1000, 3000, 10000, 30000, 100000)
    assert set(EXPERIMENTS) == {
        "choi-convergence",
        "output-state-convergence",
        "correlator-convergence",
        "composed-correlator",
        "sign-statistics",
        "unitarity",
    }


def test_fit_power_law_exact():
    ms = np.array([100, 1000, 10000])
    b, intercept, r2 = fit_power_law(ms, 3.2 * ms**-0.5)
    assert b == pytest.approx(0.5, abs=1e-12)
    assert math.exp(intercept) == pytest.approx(3.2, abs=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    b1, _, _ = fit_power_law(ms, 2.0 / ms)
    assert b1 == pytest.approx(1.0, abs=1e-12)


def test_fit_power_law_noisy_within_two_stderr():
    rng = np.random.default_rng(0)
    ms = np.array(DEFAULT_GRID)
    x = np.log(ms)
    noise = rng.normal(scale=0.1, size=len(ms))
    errs = np.exp(0.7 - 0.5 * x + noise)
    b, intercept, r2 = fit_power_law(ms, errs)
    # regression standard error of the slope
    resid = np.log(errs) - (intercept - b * x)
    s2 = np.sum(resid**2) / (len(ms) - 2)
    stderr = math.sqrt(s2 / np.sum((x - x.mean()) ** 2))
    assert abs(b - 0.5) < 2 * stderr


def test_fit_power_law_rejects_nonpositive():
    with pytest.raises(ValueError):
        fit_power_law(np.array([10, 100]), np.array([0.0, 0.1]))


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="nope")
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="unitarity", grid=(100, 50))
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="unitarity", grid=(100,))
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="unitarity", trials=0)
    with pytest.raises(ConfigError, match="starts at 9 records; .* at least 10"):
        ExperimentConfig(experiment="unitarity", grid=(9, 100))
    assert ExperimentConfig(experiment="unitarity", grid=(10, 100)).grid == (10, 100)
    assert ExperimentConfig(experiment="choi-convergence", grid=(2, 4)).grid == (2, 4)


@pytest.mark.parametrize("fields,message", [
    ({"n_qubits": 0}, "n_qubits=0"),
    ({"n_qubits": -1}, "n_qubits=-1"),
    ({"ensemble_in": "haar"}, "unknown ensemble_in 'haar'"),
    ({"ensemble_out": "Pauli"}, "unknown ensemble_out 'Pauli'"),
])
def test_config_rejects_bad_register_or_ensemble(fields, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(experiment="choi-convergence", **fields)


@pytest.mark.parametrize("fields,message", [
    ({"trials": 1.5}, "trials must be an integer, got 1.5"),
    ({"trials": True}, "trials must be an integer, got True"),
    ({"n_qubits": 1.5}, "n_qubits must be an integer"),
    ({"n_groups": 2.0}, "n_groups must be an integer"),
    ({"max_workers": "2"}, "max_workers must be an integer"),
    ({"seed": "x"}, "seed must be an integer, got 'x'"),
    ({"grid": [2.7, 4]}, "grid entry must be an integer, got 2.7"),
    ({"grid": ["2", "4"]}, "grid entry must be an integer"),
    ({"grid": "24"}, "grid must be a list of sample counts, got '24'"),
    ({"grid": None}, "grid must be a list"),
    ({"channel": 5}, "channel must be a string, got 5"),
])
def test_config_refuses_fields_of_the_wrong_type(fields, message):
    """A JSON config whose field has the wrong type is a configuration error,
    not a traceback, a truncated grid or a string split into counts."""
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(experiment="choi-convergence", **fields)


def test_config_dict_round_trip():
    cfg = ExperimentConfig(experiment="choi-convergence", **SMALL)
    again = ExperimentConfig(**cfg.to_dict())
    assert again == cfg


def test_choi_convergence_runs():
    cfg = ExperimentConfig(experiment="choi-convergence", **SMALL)
    res = run_experiment(cfg)
    assert res.errors.shape == (2, 3)
    assert np.all(res.errors > 0)
    assert len(res.exponents) == 2
    assert np.isfinite(res.mean_exponent)
    assert {row["m"] for row in res.table} == {50, 150, 400}


def test_errors_shrink_with_m():
    cfg = ExperimentConfig(experiment="choi-convergence", n_qubits=1,
                           grid=(100, 10000), trials=3, seed=2)
    res = run_experiment(cfg)
    mean = res.errors.mean(axis=0)
    assert mean[-1] < mean[0]


def test_output_state_experiment_has_shadow_input_arm():
    cfg = ExperimentConfig(experiment="output-state-convergence", **SMALL)
    res = run_experiment(cfg)
    assert "shadow_input_errors" in res.extra
    shadow_errors = np.asarray(res.extra["shadow_input_errors"])
    assert shadow_errors.shape == res.errors.shape
    assert any("error_shadow_input" in row for row in res.table)


def test_correlator_experiment_runs():
    cfg = ExperimentConfig(experiment="correlator-convergence", **SMALL)
    res = run_experiment(cfg)
    assert res.errors.shape == (2, 3)
    assert np.asarray(res.extra["shadow_input_errors"]).shape == res.errors.shape
    assert len(res.extra["shadow_input_exponents"]) == 2


def test_correlator_shadow_input_errors_shrink_with_m():
    cfg = ExperimentConfig(experiment="correlator-convergence", n_qubits=1,
                           grid=(100, 10000), trials=3, seed=2)
    mean = run_experiment(cfg).extra["shadow_input_errors"].mean(axis=0)
    assert mean[-1] < mean[0]


def test_composed_experiment_runs():
    cfg = ExperimentConfig(experiment="composed-correlator", **SMALL)
    res = run_experiment(cfg)
    assert res.errors.shape == (2, 3)
    assert np.all(np.isfinite(res.errors))


def test_composed_experiment_runs_on_clifford_frames():
    """At n = 1 a Clifford snapshot is a uniform stabilizer state, as a Pauli
    one is, so the Pauli/Pauli rms bound holds: a pair term is
    h = d^2 W Tr[tau A] Tr[tau' X] with E[W^2] = 7, E[Tr(tau A)^2] = 1 for
    A = |+><+| and Tr(tau' X)^2 <= 9, and E[h^2] (2/m + 1/m^2) bounds the
    variance of the two-sample mean."""
    grid = (100, 1000, 10000)
    cfg = dict(experiment="composed-correlator", n_qubits=1, grid=grid, trials=2, seed=7)
    res = run_experiment(ExperimentConfig(**cfg, ensemble_in="clifford",
                                          ensemble_out="clifford"))
    rms = np.sqrt(16 * 7 * 1 * 9 * (2 / np.array(grid) + 1 / np.array(grid) ** 2))
    assert res.errors.shape == (2, 3)
    assert np.all(res.errors <= 4 * rms)
    assert not np.array_equal(res.errors, run_experiment(ExperimentConfig(**cfg)).errors)


def test_sign_statistics_experiment():
    cfg = ExperimentConfig(experiment="sign-statistics", n_qubits=1,
                           grid=(100, 20000), trials=6, seed=5)
    res = run_experiment(cfg)
    # one row per site count, errors against the closed-form probability
    assert len(res.table) == 6
    for row in res.table:
        assert row["p_negative"] == pytest.approx(row["p_negative_exact"], abs=0.05)
    assert np.all(res.errors < 0.05)


def test_unitarity_experiment():
    cfg = ExperimentConfig(experiment="unitarity", n_qubits=1,
                           grid=(200, 2000), trials=2, seed=6)
    res = run_experiment(cfg)
    verdicts = {row["verdict"] for row in res.table if "verdict" in row}
    assert verdicts <= {"unitary", "nonunitary", "inconclusive"}
    assert verdicts


def test_deterministic_across_runs():
    cfg = ExperimentConfig(experiment="choi-convergence", **SMALL)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert np.array_equal(a.errors, b.errors)
    assert a.exponents == b.exponents


def test_parallel_matches_sequential():
    cfg = ExperimentConfig(experiment="choi-convergence", **SMALL)
    seq = run_experiment(cfg)
    par = run_experiment(ExperimentConfig(**{**cfg.to_dict(), "max_workers": 2}))
    assert np.array_equal(seq.errors, par.errors)


@pytest.mark.parametrize("trials, built", [(2, [2]), (1, [])])
def test_worker_pool_never_outnumbers_the_trials(monkeypatch, trials, built):
    sizes = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    run_experiment(ExperimentConfig(experiment="choi-convergence", n_qubits=1,
                                    grid=(20, 40), trials=trials, max_workers=64))
    assert sizes == built


def test_infeasible_configurations():
    with pytest.raises(InfeasibleError):
        run_experiment(ExperimentConfig(experiment="choi-convergence", n_qubits=7,
                                        grid=(50, 100), trials=1))
    with pytest.raises(InfeasibleError):
        run_experiment(ExperimentConfig(experiment="unitarity", n_qubits=4,
                                        grid=(50, 100), trials=1))
    with pytest.raises(InfeasibleError):
        run_experiment(ExperimentConfig(experiment="choi-convergence",
                                        grid=(50, 10_000_000), trials=1))


def test_write_result_files(tmp_path):
    cfg = ExperimentConfig(experiment="choi-convergence", **SMALL)
    res = run_experiment(cfg)
    write_result_files(res, tmp_path, gnuplot=True)
    csv_text = (tmp_path / "results.csv").read_text()
    assert csv_text.splitlines()[0].startswith("trial")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["experiment"] == "choi-convergence"
    assert "exponents" in manifest
    assert (tmp_path / "results.dat").exists()


@pytest.mark.parametrize("experiment, header", [
    ("choi-convergence", "trial,m,error"),
    ("output-state-convergence", "trial,m,error,error_shadow_input"),
    ("correlator-convergence", "trial,m,error,error_shadow_input,exact"),
    ("composed-correlator", "trial,m,error,exact"),
    ("unitarity", "trial,m,error,purity,verdict,exact"),
])
def test_results_csv_header(tmp_path, experiment, header):
    run_experiment(ExperimentConfig(experiment=experiment, n_qubits=1, grid=(20, 60),
                                    trials=1, seed=3), out_dir=tmp_path)
    assert (tmp_path / "results.csv").read_text().splitlines()[0] == header


def test_result_files_byte_deterministic(tmp_path):
    cfg = ExperimentConfig(experiment="choi-convergence", **SMALL)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_result_files(run_experiment(cfg), d1)
    write_result_files(run_experiment(cfg), d2)
    assert (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()
    assert (d1 / "manifest.json").read_bytes() == (d2 / "manifest.json").read_bytes()
