"""Acceptance gate: one test per shipped claim, at its stated tolerance.

Each criterion prints a single PASS/FAIL line (visible with ``pytest -s``,
or in the -v test listing via the test names). The convergence studies
(criteria 3-5) re-run the full sample grids and take a few minutes.
"""

import math
import time

import numpy as np
import numpy.linalg as la

from procshadow.applications import purity_estimate, unitarity_verdict
from procshadow.channels import (
    channel_from_spec,
    named_channel,
    random_full_rank_channel,
    random_unitary_channel,
)
from procshadow.complexity import (
    ComplexityQuery,
    s_operator,
    sample_budget,
    verify_moment_bound,
)
from dense_reference import born_probabilities, channel_of_choi, exact_pauli_snapshot_distribution
from procshadow.ensembles import enumerate_clifford_group, frame_unitaries
from procshadow.experiments import ExperimentConfig, fit_power_law, run_experiment, write_result_files
from procshadow.process_shadows import (
    acquire_process_shadow,
    verify_bin_independence,
)
from procshadow.qcore import (
    PauliString,
    apply_channel,
    basis_projector,
    choi_of_channel,
    operator_norm,
    random_density_matrix,
)
from procshadow.records_io import save_records
from procshadow.shadow_algebra import pair_weight, weight_sign_statistics
from procshadow.state_shadows import TAU1, inverse_map_clifford, qubit_key


def _verdict(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {tag} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_inverse_map_exactness():
    start = time.time()
    worst = 0.0
    snaps = TAU1
    frames = frame_unitaries("clifford", enumerate_clifford_group())
    for seed in range(20):
        rho = random_density_matrix(1, np.random.default_rng(seed))
        # Pauli ensemble: average snapshots over the exact outcome law
        dist = exact_pauli_snapshot_distribution(rho)
        avg = np.einsum("k,kij->ij", dist, snaps)
        worst = max(worst, la.norm(avg - rho))
        # Clifford ensemble: exhaustive frames x outcomes
        avg = np.zeros((2, 2), dtype=complex)
        for u in frames:
            probs = born_probabilities(u, rho)
            for b, pb in zip("01", probs):
                prepared = u.conj().T @ basis_projector(b) @ u
                avg += pb * inverse_map_clifford(prepared) / len(frames)
        worst = max(worst, la.norm(avg - rho))
    elapsed = time.time() - start
    _verdict(1, "exhaustive-average reconstruction at n=1, both ensembles",
             worst < 1e-12 and elapsed < 1.0,
             f"worst dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_choi_round_trip():
    start = time.time()
    worst = 0.0
    count = 0
    for n in (1, 2):
        rng = np.random.default_rng(100 + n)
        for i in range(25):
            ch = (random_unitary_channel(n, rng) if i % 2 == 0
                  else random_full_rank_channel(n, rng))
            rho = random_density_matrix(n, rng)
            direct = apply_channel(ch, rho)
            via_choi = channel_of_choi(choi_of_channel(ch), rho)
            worst = max(worst, la.norm(direct - via_choi))
            count += 1
    elapsed = time.time() - start
    _verdict(2, "Choi round trip on 50 random channels at n in {1,2}",
             count == 50 and worst < 1e-9 and elapsed < 10.0,
             f"worst dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_choi_convergence_rate():
    results = {}
    for channel in ("random-unitary", "random-full-rank"):
        cfg = ExperimentConfig(experiment="choi-convergence", n_qubits=2,
                               channel=channel, trials=10, seed=0)
        results[channel] = run_experiment(cfg).mean_exponent
    ok = all(0.4 <= b <= 0.6 for b in results.values())
    _verdict(3, "Choi error decays like m^-b with b in [0.4, 0.6] at n=2",
             ok, ", ".join(f"{k}: b={v:.3f}" for k, v in results.items()))


def test_criterion_04_output_state_convergence():
    cfg = ExperimentConfig(experiment="output-state-convergence", n_qubits=2,
                           channel="random-unitary", trials=10, seed=0)
    res = run_experiment(cfg)
    exact_b = res.mean_exponent
    shadow_b = float(np.mean(res.extra["shadow_input_exponents"]))
    shadow_errors = np.asarray(res.extra["shadow_input_errors"]).mean(axis=0)
    converges = shadow_errors[-1] < shadow_errors[0]
    _verdict(4, "output-state estimate converges (exact and shadow input)",
             0.4 <= exact_b <= 0.6 and converges and math.isfinite(shadow_b),
             f"exact b={exact_b:.3f}; shadow-input b={shadow_b:.3f} (reported)")


def test_criterion_05_correlator_convergence():
    # one fixed channel, ten independent record acquisitions
    cfg = ExperimentConfig(experiment="correlator-convergence", n_qubits=2,
                           channel="random-unitary:41", trials=10, seed=0)
    res = run_experiment(cfg)
    b, _, r2 = fit_power_law(np.array(res.grid), res.errors.mean(axis=0))

    comp = ExperimentConfig(experiment="composed-correlator", n_qubits=2,
                            trials=10, seed=0)
    comp_res = run_experiment(comp)
    mean_err = comp_res.errors.mean(axis=0)
    monotone = bool(np.all(np.diff(mean_err) < 0))
    _verdict(5, "correlator error decay and composed-correlator monotonicity",
             0.4 <= b <= 0.6 and monotone,
             f"single-channel b={b:.3f} (r2={r2:.3f}); "
             f"composed mean errors {mean_err[0]:.3f}->{mean_err[-1]:.4f} monotone={monotone}")


def test_criterion_06_pair_weight_table():
    start = time.time()
    snaps = TAU1
    exact = True
    for mu in "XYZ":
        for b in (0, 1):
            for mu_p in "XYZ":
                for b_p in (0, 1):
                    dense = 0.5 * np.trace(snaps[qubit_key(mu, b)].T
                                           @ snaps[qubit_key(mu_p, b_p)]).real
                    if pair_weight(mu, b, mu_p, b_p) != dense:
                        exact = False
    five_cases = (
        pair_weight("X", 0, "X", 0) == 2.5
        and pair_weight("X", 0, "X", 1) == -2.0
        and pair_weight("Y", 0, "Y", 0) == -2.0
        and pair_weight("Y", 0, "Y", 1) == 2.5
        and pair_weight("X", 0, "Z", 1) == 0.25
    )
    elapsed = time.time() - start
    _verdict(6, "all 36 contraction weights match the dense trace formula",
             exact and five_cases and elapsed < 1.0,
             f"{elapsed:.2f}s")


def test_criterion_07_sign_statistics():
    start = time.time()
    worst_ratio = 0.0
    rng = np.random.default_rng(7)
    for n in range(1, 11):
        stats = weight_sign_statistics(n, 100000, rng)
        se = math.sqrt(stats.p_negative_exact * stats.p_positive_exact / 100000)
        worst_ratio = max(worst_ratio, abs(stats.p_negative - stats.p_negative_exact) / se)
    elapsed = time.time() - start
    _verdict(7, "negative-weight fraction matches closed form, N=1..10",
             worst_ratio < 3.0 and elapsed < 5.0,
             f"worst deviation {worst_ratio:.2f} binomial SEs, {elapsed:.1f}s")


def test_criterion_08_bin_independence():
    start = time.time()
    worst_norm = 0.0
    worst_pauli = 0.0
    counts_ok = True
    rng = np.random.default_rng(8)
    for i in range(10):
        ch = (random_unitary_channel(2, rng) if i % 2 == 0
              else random_full_rank_channel(2, rng))
        report = verify_bin_independence(ch, 100, rng)
        worst_norm = max(worst_norm, report.max_normalization_dev)
        worst_pauli = max(worst_pauli, report.max_pauli_dev)
        counts_ok = counts_ok and report.n_pauli_checked == 15 and report.n_sampled == 100
    elapsed = time.time() - start
    _verdict(8, "frame-average normalization and input-Pauli cancellation",
             worst_norm < 1e-9 and worst_pauli < 1e-9 and counts_ok and elapsed < 10.0,
             f"norm dev {worst_norm:.2e}, Pauli dev {worst_pauli:.2e}, {elapsed:.1f}s")


def test_criterion_09_second_moment_bound():
    start = time.time()
    report = verify_moment_bound(100, np.random.default_rng(9))
    elapsed = time.time() - start
    _verdict(9, "Clifford 3-design identity and second-moment dominance",
             report.worst_design_residual < 1e-10
             and report.worst_violation <= 1e-9
             and elapsed < 5.0,
             f"design residual {report.worst_design_residual:.2e}, "
             f"worst violation {report.worst_violation:.2e}, {elapsed:.1f}s")


def test_criterion_10_budget_calculator():
    start = time.time()
    q = ComplexityQuery(epsilon=0.1, delta=0.1, n_qubits=1,
                        observables=(PauliString("Z"),),
                        input_states=((basis_projector("0"), 1),))
    a = sample_budget(q)
    budget_ok = a.k_groups == 6 and a.n_per_group == 217600
    worst_s = 0.0
    rng = np.random.default_rng(10)
    for i in range(100):
        rho = random_density_matrix(1 + i % 3, rng)
        worst_s = max(worst_s, operator_norm(s_operator(rho)))
    elapsed = time.time() - start
    _verdict(10, "worked budget example and the |S(rho)| <= 14 bound",
             budget_ok and worst_s <= 14.0 + 1e-9 and elapsed < 5.0,
             f"K={a.k_groups}, N={a.n_per_group}, max |S(rho)| = {worst_s:.3f}, {elapsed:.1f}s")


def test_criterion_11_unitarity_verdicts():
    details = []
    ok = True
    for spec in ("identity", "hadamard", "random-unitary:5"):
        rng = np.random.default_rng(11)
        ps = acquire_process_shadow(channel_from_spec(spec, 1), 100000,
                                    "pauli", "pauli", rng)
        v = unitarity_verdict(ps, rng=np.random.default_rng(0))
        ok = ok and abs(v.purity - 4.0) < 0.5 and v.verdict == "unitary"
        details.append(f"{spec}: {v.purity:.2f}/{v.verdict}")
    rng = np.random.default_rng(11)
    ps = acquire_process_shadow(named_channel("depolarizing", 1, 1.0), 100000,
                                "pauli", "pauli", rng)
    v = unitarity_verdict(ps, rng=np.random.default_rng(0))
    ok = ok and abs(v.purity - 1.0) < 0.5 and v.verdict == "nonunitary"
    details.append(f"depolarizing(1): {v.purity:.2f}/{v.verdict}")
    _verdict(11, "unitarity verdicts at n=1, m=100000", ok, "; ".join(details))


def test_criterion_12_determinism(tmp_path):
    # record files
    paths = []
    for name in ("a.jsonl", "b.jsonl"):
        rng = np.random.default_rng(12)
        ps = acquire_process_shadow(named_channel("hadamard", 1), 2000,
                                    "pauli", "clifford", rng)
        path = tmp_path / name
        save_records(path, ps, seed=12, channel="hadamard")
        paths.append(path)
    records_same = paths[0].read_bytes() == paths[1].read_bytes()

    # result tables
    cfg = ExperimentConfig(experiment="choi-convergence", n_qubits=1,
                           grid=(100, 400, 1600), trials=3, seed=12)
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        write_result_files(run_experiment(cfg), d)
    tables_same = (
        (dirs[0] / "results.csv").read_bytes() == (dirs[1] / "results.csv").read_bytes()
        and (dirs[0] / "manifest.json").read_bytes() == (dirs[1] / "manifest.json").read_bytes()
    )
    _verdict(12, "byte-identical record files and result tables on re-run",
             records_same and tables_same,
             f"records identical={records_same}, tables identical={tables_same}")
