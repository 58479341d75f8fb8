"""Experiment drivers: convergence studies against dense references.

Every experiment draws its randomness from a master seed through
spawned per-trial streams, so a config fully determines the result
(and any emitted files) regardless of worker scheduling.  Errors are
always computed against the exact dense object -- the reconstructed
quantity is never compared against another shadow estimate.
"""

from __future__ import annotations

import concurrent.futures
import csv
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .applications import (MAX_PURITY_QUBITS, MIN_BOOTSTRAP_RECORDS, CorrelatorSpec,
                           multitime_correlator_exact_input,
                           multitime_correlator_shadow_input, purity_estimate,
                           unitarity_verdict)
from .channels import (channel_from_spec, compose_channels, random_full_rank_channel,
                       random_unitary_channel)
from .process_shadows import (ProcessShadow, acquire_process_shadow,
                              estimate_output_state, reconstruct_choi)
from .qcore import (Channel, InfeasibleError, PauliString, apply_channel,
                    check_register, choi_of_channel, operator_norm, random_density_matrix)
from .shadow_algebra import (apply_process_to_state_shadow,
                             compose_process_shadows, weight_sign_statistics)
from .state_shadows import acquire_shadow


class ConfigError(ValueError):
    """The requested run is malformed (unknown name, bad grid, ...)."""


DEFAULT_GRID = (100, 300, 1000, 3000, 10_000, 30_000, 100_000)
MAX_RECORDS = 5_000_000
EXPERIMENTS = (
    "choi-convergence",
    "output-state-convergence",
    "correlator-convergence",
    "composed-correlator",
    "sign-statistics",
    "unitarity",
)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n_qubits: int = 2
    channel: str = "random-unitary"
    ensemble_in: str = "pauli"
    ensemble_out: str = "pauli"
    grid: tuple = DEFAULT_GRID
    trials: int = 10
    n_groups: int = 1
    seed: int = 0
    max_workers: int = 1

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose from {', '.join(EXPERIMENTS)}")
        if not isinstance(self.grid, (list, tuple)):
            raise ConfigError(f"grid must be a list of sample counts, got {self.grid!r}")
        tags = ("n_qubits", "trials", "n_groups", "seed", "max_workers")
        named = [(t, getattr(self, t)) for t in tags] + [("grid entry", m) for m in self.grid]
        for tag, value in named:
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{tag} must be an integer, got {value!r}")
        if not isinstance(self.channel, str):
            raise ConfigError(f"channel must be a string, got {self.channel!r}")
        if self.n_qubits < 1:
            raise ConfigError(f"need at least one qubit, got n_qubits={self.n_qubits}")
        for tag in ("ensemble_in", "ensemble_out"):
            if getattr(self, tag) not in ("pauli", "clifford"):
                raise ConfigError(f"unknown {tag} {getattr(self, tag)!r}; "
                                  "choose pauli or clifford")
        grid = tuple(int(m) for m in self.grid)
        if len(grid) < 2 or any(m < 2 for m in grid) or list(grid) != sorted(grid):
            raise ConfigError("sample grid must be at least two ascending counts")
        if self.experiment == "unitarity" and grid[0] < MIN_BOOTSTRAP_RECORDS:
            raise ConfigError(f"unitarity grid starts at {grid[0]} records; the bootstrap "
                              f"verdict needs at least {MIN_BOOTSTRAP_RECORDS}")
        object.__setattr__(self, "grid", grid)
        if self.trials < 1:
            raise ConfigError("need at least one trial")
        if self.n_groups < 1:
            raise ConfigError("need at least one median-of-means group")
        if self.max_workers < 1:
            raise ConfigError("need at least one worker")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["grid"] = list(self.grid)
        return d


@dataclass
class ConvergenceResult:
    config: ExperimentConfig
    grid: tuple
    errors: np.ndarray              # (trials, len(grid)) nonnegative
    exponents: tuple                # fitted b per trial (nan when unfittable)
    r_squared: tuple
    mean_exponent: float
    std_exponent: float
    table: list                     # CSV rows
    extra: dict = field(default_factory=dict)


def fit_power_law(ms, errs) -> tuple[float, float, float]:
    """Fit err = c * m^(-b) by least squares on the log-log points.

    Returns (b, log-intercept, r_squared); b is the negated slope.
    """
    ms = np.asarray(ms, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if ms.size != errs.size or ms.size < 2:
        raise ValueError("need at least two (m, err) points")
    if (ms <= 0).any() or (errs <= 0).any():
        raise ValueError("power-law fit needs positive samples and errors")
    x, y = np.log(ms), np.log(errs)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - y.mean()
    denom = float(total @ total)
    r2 = 1.0 - float(resid @ resid) / denom if denom > 0 else 1.0
    return float(-slope), float(intercept), r2


def _safe_fit(ms, errs) -> tuple[float, float]:
    """Power-law fit ignoring zero errors; nan when underdetermined."""
    ms = np.asarray(ms, dtype=float)
    errs = np.asarray(errs, dtype=float)
    mask = errs > 0
    if mask.sum() < 2:
        return float("nan"), float("nan")
    b, _, r2 = fit_power_law(ms[mask], errs[mask])
    return b, r2


def _check_feasible(cfg: ExperimentConfig) -> None:
    check_register(cfg.n_qubits)
    if cfg.grid[-1] > MAX_RECORDS:
        raise InfeasibleError(
            f"grid asks for {cfg.grid[-1]} records (cap {MAX_RECORDS})")
    if cfg.experiment == "unitarity" and cfg.n_qubits > MAX_PURITY_QUBITS:
        raise InfeasibleError(
            f"unitarity testing on {cfg.n_qubits} qubits exceeds the "
            f"4^n sample budget (max {MAX_PURITY_QUBITS})")


def _trial_channel(cfg: ExperimentConfig, rng: np.random.Generator) -> Channel:
    """Per-trial channel: random families redraw, named specs are fixed."""
    if cfg.channel == "random-unitary":
        return random_unitary_channel(cfg.n_qubits, rng)
    if cfg.channel == "random-full-rank":
        return random_full_rank_channel(cfg.n_qubits, rng)
    try:
        return channel_from_spec(cfg.channel, cfg.n_qubits)
    except InfeasibleError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _acquire(ch: Channel, cfg: ExperimentConfig, rng) -> ProcessShadow:
    return acquire_process_shadow(ch, cfg.grid[-1], cfg.ensemble_in, cfg.ensemble_out, rng)


def _correlator_fixture(n: int):
    """The two-time fixture: |+><+| on qubit 0, maximally mixed elsewhere."""
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    for _ in range(n - 1):
        rho = np.kron(rho, np.eye(2) / 2)
    op = PauliString("X" + "I" * (n - 1))
    return rho, op


# ---------------------------------------------------------------------------
# Per-trial workers (module level so process pools can pickle them).  Each
# returns its results.csv columns in file order: a list holds one value per
# grid entry, a scalar one value for the whole trial.
# ---------------------------------------------------------------------------

def _trial_choi(cfg: ExperimentConfig, seed_seq) -> dict:
    rng = np.random.default_rng(seed_seq)
    ch = _trial_channel(cfg, rng)
    exact = choi_of_channel(ch).matrix
    ps = _acquire(ch, cfg, rng)
    errs = [operator_norm(reconstruct_choi(ps.take(m)).unnormalized() - exact)
            for m in cfg.grid]
    return {"error": errs}


def _trial_output_state(cfg: ExperimentConfig, seed_seq) -> dict:
    rng = np.random.default_rng(seed_seq)
    ch = _trial_channel(cfg, rng)
    rho = random_density_matrix(cfg.n_qubits, rng)
    exact = apply_channel(ch, rho)
    ps = _acquire(ch, cfg, rng)
    ss = acquire_shadow(rho, cfg.grid[-1], cfg.ensemble_in, rng)
    errs, errs_shadow = [], []
    for m in cfg.grid:
        pm = ps.take(m)
        errs.append(operator_norm(estimate_output_state(pm, rho) - exact))
        est = apply_process_to_state_shadow(pm, ss.take(m)).materialize()
        errs_shadow.append(operator_norm(est - exact))
    return {"error": errs, "error_shadow_input": errs_shadow}


def _trial_correlator(cfg: ExperimentConfig, seed_seq) -> dict:
    rng = np.random.default_rng(seed_seq)
    ch = _trial_channel(cfg, rng)
    rho, op = _correlator_fixture(cfg.n_qubits)
    spec = CorrelatorSpec(rho, op, op)
    exact = float(np.real(np.trace(
        apply_channel(ch, rho @ op.matrix) @ op.matrix)))
    ps = _acquire(ch, cfg, rng)
    ss = acquire_shadow(rho, cfg.grid[-1], cfg.ensemble_in, rng)
    errs, errs_shadow = [], []
    for m in cfg.grid:
        pm = ps.take(m)
        errs.append(abs(multitime_correlator_exact_input(pm, spec, cfg.n_groups) - exact))
        est = multitime_correlator_shadow_input(pm, ss.take(m), op, op, cfg.n_groups)
        errs_shadow.append(abs(est - exact))
    return {"error": errs, "error_shadow_input": errs_shadow, "exact": exact}


def _trial_composed(cfg: ExperimentConfig, seed_seq) -> dict:
    rng = np.random.default_rng(seed_seq)
    ch_x = _trial_channel(cfg, rng)
    ch_y = _trial_channel(cfg, rng)
    composed = compose_channels(ch_x, ch_y)
    rho, op = _correlator_fixture(cfg.n_qubits)
    exact = float(np.real(np.trace(
        apply_channel(composed, rho @ op.matrix) @ op.matrix)))
    d = 2**cfg.n_qubits
    probe = np.kron((rho @ op.matrix).T, op.matrix)
    ps_x = _acquire(ch_x, cfg, rng)
    ps_y = _acquire(ch_y, cfg, rng)
    errs = []
    for m in cfg.grid:
        mean = compose_process_shadows(ps_x.take(m), ps_y.take(m)).materialize()
        est = d * float(np.real(np.trace(mean @ probe)))
        errs.append(abs(est - exact))
    return {"error": errs, "exact": exact}


def _trial_unitarity(cfg: ExperimentConfig, seed_seq) -> dict:
    rng = np.random.default_rng(seed_seq)
    ch = _trial_channel(cfg, rng)
    eta = choi_of_channel(ch).matrix
    exact = float(np.real(np.trace(eta @ eta)))
    ps = _acquire(ch, cfg, rng)
    errs, purities, verdicts = [], [], []
    for m in cfg.grid:
        pm = ps.take(m)
        purities.append(purity_estimate(pm, cfg.n_groups))
        v = unitarity_verdict(pm, n_bootstrap=100,
                              rng=np.random.default_rng(seed_seq.spawn(1)[0]))
        verdicts.append(v.verdict)
        errs.append(abs(purities[-1] - exact))
    return {"error": errs, "purity": purities, "verdict": verdicts, "exact": exact}


_TRIAL_WORKERS = {
    "choi-convergence": _trial_choi,
    "output-state-convergence": _trial_output_state,
    "correlator-convergence": _trial_correlator,
    "composed-correlator": _trial_composed,
    "unitarity": _trial_unitarity,
}


def _run_sign_statistics(cfg: ExperimentConfig) -> ConvergenceResult:
    """Sweep the site count; the largest grid entry sets the draw count."""
    samples = cfg.grid[-1]
    sites = list(range(1, cfg.trials + 1))
    root = np.random.SeedSequence(cfg.seed)
    rows, errs = [], []
    for n_sites, seq in zip(sites, root.spawn(len(sites))):
        st = weight_sign_statistics(n_sites, samples,
                                    np.random.default_rng(seq))
        se = math.sqrt(st.p_negative_exact * (1 - st.p_negative_exact)
                       / samples)
        rows.append({
            "n_sites": n_sites,
            "samples": samples,
            "p_negative": st.p_negative,
            "p_negative_exact": st.p_negative_exact,
            "binomial_se": se,
            "mean_log_abs": st.mean_log_abs,
            "mean_log_abs_exact": st.mean_log_abs_exact,
            "std_log_abs": st.std_log_abs,
            "std_log_abs_lognormal": st.std_log_abs_lognormal,
        })
        errs.append(abs(st.p_negative - st.p_negative_exact))
    errors = np.array(errs)[None, :]
    return ConvergenceResult(config=cfg, grid=tuple(sites), errors=errors,
                             exponents=(), r_squared=(),
                             mean_exponent=float("nan"),
                             std_exponent=float("nan"), table=rows)


def run_experiment(cfg: ExperimentConfig,
                   out_dir=None) -> ConvergenceResult:
    """Run one configured experiment; optionally write CSV + manifest."""
    _check_feasible(cfg)
    if cfg.experiment == "sign-statistics":
        result = _run_sign_statistics(cfg)
    else:
        worker = _TRIAL_WORKERS[cfg.experiment]
        seqs = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
        workers = min(cfg.max_workers, cfg.trials)
        if workers > 1:
            with concurrent.futures.ProcessPoolExecutor(workers) as ex:
                outs = list(ex.map(worker, [cfg] * cfg.trials, seqs))
        else:
            outs = [worker(cfg, s) for s in seqs]
        table = [{"trial": t, "m": m,
                  **{k: v[i] if isinstance(v, list) else v for k, v in o.items()}}
                 for t, o in enumerate(outs) for i, m in enumerate(cfg.grid)]
        errors = np.array([o["error"] for o in outs])
        fits = [_safe_fit(cfg.grid, row) for row in errors]
        exps = tuple(b for b, _ in fits)
        r2s = tuple(r for _, r in fits)
        finite = [b for b in exps if not math.isnan(b)]
        extra = {}
        if "error_shadow_input" in outs[0]:
            shadow_errs = np.array([o["error_shadow_input"] for o in outs])
            sfits = [_safe_fit(cfg.grid, row) for row in shadow_errs]
            extra["shadow_input_errors"] = shadow_errs
            extra["shadow_input_exponents"] = tuple(b for b, _ in sfits)
        result = ConvergenceResult(
            config=cfg, grid=cfg.grid, errors=errors, exponents=exps,
            r_squared=r2s,
            mean_exponent=float(np.mean(finite)) if finite else float("nan"),
            std_exponent=float(np.std(finite)) if finite else float("nan"),
            table=table, extra=extra)
    if out_dir is not None:
        write_result_files(result, out_dir)
    return result


def write_result_files(result: ConvergenceResult, out_dir,
                       gnuplot: bool = False) -> None:
    """Emit results.csv and manifest.json (and optionally results.dat)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = result.table
    cols = list(rows[0].keys())
    with open(out / "results.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})
    manifest = {
        "config": result.config.to_dict(),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "grid": list(result.grid),
        "exponents": [_fmt(b) for b in result.exponents],
        "r_squared": [_fmt(r) for r in result.r_squared],
        "mean_exponent": _fmt(result.mean_exponent),
        "std_exponent": _fmt(result.std_exponent),
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    if gnuplot:
        with open(out / "results.dat", "w") as fh:
            fh.write("# " + " ".join(cols) + "\n")
            for row in rows:
                fh.write(" ".join(str(_fmt(v)) for v in row.values()) + "\n")


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (np.floating, np.integer)):
        return repr(v.item())
    return v
