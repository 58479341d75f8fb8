"""The benchmark's workloads.

Each workload turns a seed into inputs (``setup``) and a fixed job list.
A job is one closed-loop call into the package; its ``check`` runs after
the job's timed region and returns failure messages, and its ``digest``
lists the numeric outputs that the run hashes per seed.

The package is reached through module attributes (``P.reconstruct_choi``,
not a name imported once), so the span recorder's wrappers are the ones
called in traced passes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from procshadow import applications as A
from procshadow import channels as C
from procshadow import cli as CLI
from procshadow import experiments as E
from procshadow import process_shadows as P
from procshadow import qcore as Q
from procshadow import records_io as R
from procshadow import shadow_algebra as SA
from procshadow import state_shadows as S

import checks as K


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    digest: Callable[[Any], list]
    info: dict = field(default_factory=dict)


def _seeds(seed: int, count: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def expected_row_occupancy(n: int, m: int) -> float:
    """Expected share of the 6^n input-key rows hit by m uniform input keys."""
    return 1.0 - (1.0 - 6.0**-n) ** m


def measured_row_occupancy(ps) -> float:
    """Share of the 6^n input-key rows that hold at least one record."""
    keys = {S.register_key(r.u_in.axes, r.b_in) for r in ps.records}
    return len(keys) / 6**ps.n_qubits


def _correlator_fixture(n: int):
    """|+><+| on qubit 0, maximally mixed elsewhere, and X on qubit 0.

    This is the fixed input of the correlator experiments, as their
    documentation states it.
    """
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    op = Q.PAULI_X
    for _ in range(n - 1):
        rho = np.kron(rho, np.eye(2) / 2)
        op = np.kron(op, np.eye(2))
    return rho, op


# ---------------------------------------------------------------------------
# records, study-n2 jobs: the five trial-based experiments at n = 1, 2.
# ---------------------------------------------------------------------------

STUDY_EXPERIMENTS = ("choi-convergence", "output-state-convergence",
                     "correlator-convergence", "composed-correlator",
                     "unitarity")


def _study_bound(exp: str, n: int, m: int) -> float:
    if exp == "choi-convergence":
        return K.choi_rms(n, m)
    if exp == "output-state-convergence":
        return K.output_state_rms(n, m, K.sup_pauli_input_moment(n))
    if exp == "unitarity":
        return K.purity_rms(n, m)
    rho, op = _correlator_fixture(n)
    moment = K.input_second_moment("pauli", rho @ op)
    if exp == "correlator-convergence":
        return K.functional_rms(n, m, moment, 9.0)
    return K.compose_functional_rms(n, m, moment, 9.0)


def setup_study(seed: int, workdir: Path, tiny: bool):
    grid = (30, 100, 300) if tiny else (100, 1000, 10000)
    cases = list(itertools.product((1, 2), STUDY_EXPERIMENTS))
    jobs = []
    for (n, exp), s in zip(cases, _seeds(seed, len(cases))):
        cfg = E.ExperimentConfig(experiment=exp, n_qubits=n,
                                 channel="random-unitary", grid=grid,
                                 trials=1, seed=s, max_workers=1)
        out = workdir / f"{exp}-n{n}"

        def check(res, exp=exp, n=n, out=out):
            errs = np.asarray(res.errors, dtype=float)
            fails = []
            if errs.shape != (1, len(grid)) or not np.all(np.isfinite(errs)) \
                    or np.any(errs < 0):
                fails.append(f"{exp} n={n}: bad error table {errs.tolist()}")
                return fails
            for f in ("results.csv", "manifest.json"):
                if not (out / f).is_file():
                    fails.append(f"{exp} n={n}: missing {f}")
            return fails + K.within(f"{exp} n={n} m={grid[-1]}", errs[0, -1],
                                    _study_bound(exp, n, grid[-1]))

        jobs.append(Job(
            name=f"{exp}-n{n}",
            run=lambda cfg=cfg, out=out: E.run_experiment(cfg, out_dir=out),
            check=check,
            digest=lambda res: [np.asarray(res.errors, dtype=float),
                                np.asarray(res.exponents, dtype=float)],
            info={"n": n, "records": grid[-1],
                  "row_occupancy": expected_row_occupancy(n, grid[-1])}))
    desc = {"n": [1, 2], "records_per_job": grid[-1], "grid": list(grid),
            "kraus": 1, "ensembles": "pauli/pauli",
            "experiments": list(STUDY_EXPERIMENTS),
            "row_occupancy": {n: expected_row_occupancy(n, grid[-1])
                              for n in (1, 2)}}
    return desc, jobs


# ---------------------------------------------------------------------------
# dense-n4: the 6^n table and Kronecker loops at n = 4.
# ---------------------------------------------------------------------------

def setup_dense(seed: int, workdir: Path, tiny: bool):
    n, m, prefix = (2, 200, 50) if tiny else (4, 2000, 200)
    rng = np.random.default_rng(seed)
    specs = (f"random-unitary:{int(rng.integers(2**31))}",
             "amplitude-damping:0.3", "depolarizing:0.2")
    channels = [C.channel_from_spec(spec, n) for spec in specs]
    rho = Q.random_density_matrix(n, rng)
    obs = Q.basis_projector("0" * n)
    d = 2**n

    def run(ch, s):
        r = np.random.default_rng(s)
        ps = P.acquire_process_shadow(ch, m, "pauli", "pauli", r)
        choi = P.reconstruct_choi(ps)
        out = P.estimate_output_state(ps, rho)
        vals = P.single_shot_functional_values(ps, rho, obs)
        ss = S.acquire_shadow(rho, m, "pauli", r)
        x = ps.take(prefix)
        y = P.ProcessShadow(ps.records[prefix:2 * prefix], n)
        app = SA.apply_process_to_state_shadow(x, ss.take(prefix)).materialize()
        comp = SA.compose_process_shadows(x, y).materialize()
        return {"ps": ps, "ss": ss, "choi": choi.matrix, "out": out,
                "vals": vals, "app": app, "comp": comp}

    def check(res, ch):
        a, b = K.snapshot_stacks(res["ps"].records, S.materialize_snapshot)
        s = np.array([S.materialize_snapshot(x) for x in res["ss"].snapshots[:prefix]])
        exact = Q.choi_of_channel(ch).matrix
        moment = K.input_second_moment("pauli", rho)
        p2 = 2 * prefix
        return (K.trace_one_hermitian("reconstruct_choi", res["choi"])
                + K.within("choi error", K.op_norm(d * res["choi"] - exact),
                           K.choi_rms(n, m))
                + K.within("output state error",
                           K.op_norm(res["out"] - Q.apply_channel(ch, rho)),
                           K.output_state_rms(n, m, moment))
                + K.close("reconstruct_choi", res["choi"], K.dense_choi_mean(a, b))
                + K.close("estimate_output_state", res["out"],
                          K.dense_output_state(a, b, rho))
                + K.close("single_shot_functional_values", res["vals"],
                          K.dense_functional_values(a, b, rho, obs))
                + K.close("apply materialize", res["app"],
                          K.dense_apply(a[:prefix], b[:prefix], s))
                + K.close("compose materialize", res["comp"],
                          K.dense_compose(a[:prefix], b[:prefix],
                                          a[prefix:p2], b[prefix:p2])))

    jobs = []
    for spec, ch, s in zip(specs, channels, _seeds(seed, len(specs))):
        jobs.append(Job(
            name=spec.split(":")[0],
            run=lambda ch=ch, s=s: run(ch, s),
            check=lambda res, ch=ch: check(res, ch),
            digest=lambda res: [res[k] for k in ("choi", "out", "vals", "app", "comp")],
            info={"n": n, "records": m, "kraus": len(ch.kraus),
                  "row_occupancy": lambda res: measured_row_occupancy(res["ps"])}))
    desc = {"n": n, "records_per_job": m, "compose_prefix": prefix,
            "kraus": [len(ch.kraus) for ch in channels],
            "ensembles": "pauli/pauli", "channels": list(specs),
            "row_occupancy_expected": expected_row_occupancy(n, m)}
    return desc, jobs


# ---------------------------------------------------------------------------
# records, cli-records jobs: the command line on JSONL record files.
# ---------------------------------------------------------------------------

def _parse(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def setup_cli(seed: int, workdir: Path, tiny: bool):
    m = 3000 if tiny else 20000
    registers = ((1, "amplitude-damping:0.3", "1", "0", "nonunitary"),
                 (2, "hadamard", "00", "00", "unitary"))
    seeds = iter(_seeds(seed, 2 * len(registers)))
    jobs = []
    for n, spec, initial, final, verdict in registers:
        path = str(workdir / f"records-n{n}.jsonl")
        steps = {
            "acquire": ["acquire", "--channel", spec, "--qubits", str(n),
                        "--m", str(m), "--seed", str(next(seeds)),
                        "--records", path],
            "reconstruct": ["reconstruct", "--records", path,
                            "--compare-channel", spec],
            "estimate": ["estimate", "--records", path, "--initial", initial,
                         "--final", final],
            "verify-unitarity": ["verify-unitarity", "--records", path,
                                 "--threshold-fraction", "0.85",
                                 "--seed", str(next(seeds))],
            "compose": ["compose", "--records", path, "--records2", path,
                        "--compare-channels", f"{spec},{spec}"],
        }

        def check(res, step, n=n, spec=spec, initial=initial, final=final,
                  verdict=verdict, path=path):
            rc, text = res
            if rc != 0:
                return [f"{step} n={n}: exit code {rc}"]
            v = _parse(text)
            label = f"{step} n={n}"
            try:
                if step == "acquire":
                    ok = text.startswith(f"wrote {m} records") and Path(path).is_file()
                    return [] if ok else [f"{label}: unexpected output {text!r}"]
                if step == "reconstruct":
                    fails = [] if int(v["records"]) == m else [f"{label}: record count"]
                    if not abs(float(v["trace"]) - 1.0) <= 1e-6:
                        fails.append(f"{label}: trace {v['trace']}")
                    return fails + K.within(label, float(v["operator_norm_error"]),
                                            K.choi_rms(n, m))
                if step == "estimate":
                    ch = C.channel_from_spec(spec, n)
                    pi, pf = Q.basis_projector(initial), Q.basis_projector(final)
                    exact = float(np.real(np.trace(Q.apply_channel(ch, pi) @ pf)))
                    rms = K.functional_rms(n, m, K.input_second_moment("pauli", pi),
                                           K.max_pauli_output_value2(pf))
                    return K.within(label, abs(float(v["raw"]) - exact), rms)
                if step == "verify-unitarity":
                    ok = v["verdict"] == verdict
                    return [] if ok else [f"{label}: verdict {v['verdict']}"]
                fails = [] if int(v["pairs"]) == m * m else [f"{label}: pair count"]
                fails += K.within(f"{label} trace", abs(float(v["trace"]) - 1.0),
                                  K.compose_functional_rms(n, m, 1.0, 1.0) / 2**n)
                if not np.isfinite(float(v["operator_norm_error"])):
                    fails.append(f"{label}: operator_norm_error not finite")
                return fails
            except (KeyError, ValueError) as exc:
                return [f"{label}: cannot parse output ({exc!r}): {text!r}"]

        for step, argv in steps.items():
            jobs.append(Job(
                name=f"{step}-n{n}",
                run=lambda argv=argv: _run_cli(argv),
                check=lambda res, step=step, check=check: check(res, step),
                digest=lambda res, step=step, path=path: _cli_digest(res, step, path),
                info={"n": n, "records": m}))
    desc = {"n": [1, 2], "records_per_job": m,
            "channels": [r[1] for r in registers], "kraus": [2, 1],
            "ensembles": "pauli/pauli",
            "commands": ["acquire", "reconstruct", "estimate",
                         "verify-unitarity", "compose"],
            "row_occupancy": {n: expected_row_occupancy(n, m) for n in (1, 2)}}
    return desc, jobs


def _cli_digest(res, step, path):
    """Printed output without the run-specific path; acquire adds the file."""
    out = [res[1].replace(path, "RECORDS")]
    if step == "acquire":
        out.append(Path(path).read_bytes().decode())
    return out


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = CLI.main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# records, per-record jobs: Clifford frames at n = 1..3, Pauli at n = 5.
# ---------------------------------------------------------------------------

def setup_per_record(seed: int, workdir: Path, tiny: bool):
    sizes = {1: 10, 2: 10, 3: 10, 5: 10} if tiny else \
        {1: 400, 2: 280, 3: 175, 5: 425}
    pairs = 50 if tiny else 2000
    rng = np.random.default_rng(seed)
    channels = {n: C.random_unitary_channel(n, rng) for n in (1, 2, 3)}
    channels[5] = C.channel_from_spec("amplitude-damping:0.2", 5)
    states = {n: Q.random_density_matrix(n, rng) for n in (1, 2, 3)}
    observables = {n: Q.PauliString("Z" + "I" * (n - 1)).matrix for n in (1, 2, 3)}

    def run_clifford(n, ens_in, s):
        r = np.random.default_rng(s)
        m, rho, obs = sizes[n], states[n], observables[n]
        ps = P.acquire_process_shadow(channels[n], m, ens_in, "clifford", r)
        res = {"ps": ps, "choi": P.reconstruct_choi(ps).matrix,
               "out": P.estimate_output_state(ps, rho),
               "purity": A.purity_estimate(ps, rng=r, pair_subsample=pairs)}
        prefix = ps.take(min(200, m))
        res["prefix"] = prefix
        res["prefix_choi"] = P.reconstruct_choi(prefix).matrix
        res["prefix_out"] = P.estimate_output_state(prefix, rho)
        res["prefix_vals"] = P.single_shot_functional_values(prefix, rho, obs)
        if ens_in == "clifford":
            path = workdir / f"clifford-n{n}.jsonl"
            R.save_records(path, ps, seed=s)
            res["loaded"] = R.load_records(path)
            ss = S.acquire_shadow(rho, m, "clifford", r)
            res["state"] = S.reconstruct(ss)
            res["state_obs"] = S.estimate_observable(ss, obs)
        return res

    def check_clifford(res, n, ens_in):
        m, rho, obs, d = sizes[n], states[n], observables[n], 2**n
        ch = channels[n]
        a, b = K.snapshot_stacks(res["prefix"].records, S.materialize_snapshot)
        label = f"{ens_in}/clifford n={n}"
        fails = (K.trace_one_hermitian(f"{label} choi", res["choi"])
                 + K.within(f"{label} choi error",
                            K.op_norm(d * res["choi"] - Q.choi_of_channel(ch).matrix),
                            K.choi_rms(n, m, ens_in, "clifford"))
                 + K.within(f"{label} output state error",
                            K.op_norm(res["out"] - Q.apply_channel(ch, rho)),
                            K.output_state_rms(n, m, K.input_second_moment(ens_in, rho),
                                               "clifford"))
                 + K.close(f"{label} reconstruct_choi", res["prefix_choi"],
                           K.dense_choi_mean(a, b))
                 + K.close(f"{label} estimate_output_state", res["prefix_out"],
                           K.dense_output_state(a, b, rho))
                 + K.close(f"{label} single_shot_functional_values",
                           res["prefix_vals"], K.dense_functional_values(a, b, rho, obs)))
        if not np.isfinite(res["purity"]):
            fails.append(f"{label}: purity not finite")
        if "loaded" in res:
            if res["loaded"].records != res["ps"].records:
                fails.append(f"{label}: loaded records differ from saved ones")
            fails += K.trace_one_hermitian(f"{label} state", res["state"])
            exact = float(np.real(np.trace(rho @ obs)))
            fails += K.within(f"{label} state observable",
                              abs(res["state_obs"] - exact), (d + 1) / np.sqrt(m))
        return fails

    def digest_clifford(res):
        out = [res["choi"], res["out"], res["purity"]]
        if "state" in res:
            out += [res["state"], res["state_obs"]]
        return out

    def run_pauli5(s):
        r = np.random.default_rng(s)
        ps = P.acquire_process_shadow(channels[5], sizes[5], "pauli", "pauli", r)
        path = workdir / "pauli-n5.jsonl"
        R.save_records(path, ps, seed=s)
        return {"ps": ps, "loaded": R.load_records(path)}

    def check_pauli5(res):
        fails = []
        if len(res["ps"]) != sizes[5]:
            fails.append("pauli n=5: record count")
        if res["loaded"].records != res["ps"].records:
            fails.append("pauli n=5: loaded records differ from saved ones")
        return fails

    cases = [(n, ens_in) for n in (1, 2, 3) for ens_in in ("clifford", "pauli")]
    seeds = _seeds(seed, len(cases) + 1)
    jobs = []
    for (n, ens_in), s in zip(cases, seeds):
        jobs.append(Job(
            name=f"{ens_in}-clifford-n{n}",
            run=lambda n=n, e=ens_in, s=s: run_clifford(n, e, s),
            check=lambda res, n=n, e=ens_in: check_clifford(res, n, e),
            digest=digest_clifford,
            info={"n": n, "records": sizes[n], "kraus": 1,
                  "ensembles": f"{ens_in}/clifford"}))
    jobs.append(Job(
        name="pauli-pauli-n5",
        run=lambda s=seeds[-1]: run_pauli5(s),
        check=check_pauli5,
        digest=lambda res: [np.array([S.register_key(r.u_in.axes, r.b_in)
                                      for r in res["ps"].records])],
        info={"n": 5, "records": sizes[5], "kraus": len(channels[5].kraus),
              "ensembles": "pauli/pauli",
              "row_occupancy": lambda res: measured_row_occupancy(res["ps"])}))
    desc = {"n": [1, 2, 3, 5], "records_per_job": sizes,
            "purity_pairs": pairs, "kraus": {1: 1, 2: 1, 3: 1, 5: len(channels[5].kraus)},
            "ensembles": ["clifford/clifford", "pauli/clifford", "pauli/pauli (n=5)"],
            "row_occupancy_n5_expected": expected_row_occupancy(5, sizes[5])}
    return desc, jobs


# ---------------------------------------------------------------------------
# records: the study, command-line and per-record job lists in one run.
# ---------------------------------------------------------------------------

def setup_records(seed: int, workdir: Path, tiny: bool):
    """Every job list that works record by record, one after the other.

    One workload of the three gets runs long enough to be steady on a
    shared machine within the benchmark's time limit; the per-job and
    per-layer figures still tell the job lists apart.
    """
    parts = {"study": setup_study, "cli": setup_cli,
             "per_record": setup_per_record}
    desc, jobs = {}, []
    for (name, setup), s in zip(parts.items(), _seeds(seed, len(parts))):
        desc[name], part_jobs = setup(s, workdir, tiny)
        jobs += part_jobs
    return desc, jobs


WORKLOADS = {
    "records": setup_records,
    "dense-n4": setup_dense,
}
