"""Command-line interface.

Subcommands cover the acquisition-to-analysis pipeline: simulate and
save records, reconstruct a Choi matrix, estimate transition
probabilities, compose two record sets, test unitarity, size a sample
budget, and run the convergence experiments.

``--config file.json`` holds one JSON object of flag values for the
chosen subcommand: each key names a flag's destination (``-`` or
``_``), each value is read as its text would be read on the command
line (a list joined with commas, a switch given as a JSON boolean), and
flags typed on the command line win.

Exit codes: 0 success, 2 configuration error, 3 infeasible size.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .applications import transition_probability, unitarity_verdict
from .channels import channel_from_spec, compose_channels
from .complexity import ComplexityQuery, PureInput, sample_budget
from .experiments import (MAX_RECORDS, ConfigError, ExperimentConfig,
                          InfeasibleError, run_experiment, write_result_files)
from .process_shadows import acquire_process_shadow, reconstruct_choi
from .qcore import PauliString, choi_of_channel, operator_norm
from .records_io import load_records, save_records
from .shadow_algebra import compose_process_shadows


def _add_common(p: argparse.ArgumentParser, func, *, seed: bool, records: bool) -> None:
    """The handler and --config, plus --seed and --records if the handler reads them."""
    if seed:
        p.add_argument("--seed", type=int, default=None, help="master seed for any randomness")
    if records:
        p.add_argument("--records", default=None,
                       help="record file path (input or output per subcommand)")
    p.add_argument("--config", default=None,
                   help="JSON object of flag values; flags typed here win")
    p.set_defaults(parser=p, func=func)


def _add_ensembles(p: argparse.ArgumentParser, default) -> None:
    for side in ("in", "out"):
        p.add_argument(f"--ensemble-{side}", default=default, choices=["pauli", "clifford"])


def _config_argv(parser: argparse.ArgumentParser, path) -> list[str]:
    """The --config JSON object as command-line text for ``parser``."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    flags = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    argv = []
    for key, value in data.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise ConfigError(f"config key {key!r} matches no flag")
        flag = action.option_strings[-1]
        items = value if isinstance(value, list) else [value]
        if action.nargs == 0 and isinstance(value, bool):
            argv += [flag] if value else []
        elif action.nargs != 0 and all(isinstance(v, (str, int, float))
                                       and not isinstance(v, bool) for v in items):
            argv.append(f"{flag}={','.join(map(str, items))}")
        else:
            raise ConfigError(f"config key {key!r} cannot take {json.dumps(value)}")
    return argv


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise ConfigError(f"missing required option --{name}")


def _rng(args) -> np.random.Generator:
    return np.random.default_rng(0 if args.seed is None else args.seed)


def _cmd_acquire(args) -> int:
    _require(args, "channel", "qubits", "m", "records")
    n, m = args.qubits, args.m
    if m > MAX_RECORDS:
        raise InfeasibleError(f"{m} records exceeds the cap ({MAX_RECORDS})")
    ch = channel_from_spec(args.channel, n)
    ps = acquire_process_shadow(ch, m, args.ensemble_in, args.ensemble_out,
                                _rng(args))
    save_records(args.records, ps, seed=args.seed, channel=args.channel)
    print(f"wrote {m} records to {args.records}")
    return 0


def _cmd_reconstruct(args) -> int:
    _require(args, "records")
    ps = load_records(args.records)
    choi = reconstruct_choi(ps)
    print(f"records = {len(ps)}")
    print(f"n_qubits = {ps.n_qubits}")
    print(f"trace = {np.trace(choi.matrix).real:.6f}")
    if args.compare_channel:
        exact = choi_of_channel(channel_from_spec(args.compare_channel,
                                                  ps.n_qubits))
        err = operator_norm(choi.unnormalized() - exact.matrix)
        print(f"operator_norm_error = {err:.6f}")
    if args.output:
        np.save(args.output, choi.matrix)
        print(f"saved normalized Choi matrix to {args.output}")
    return 0


def _cmd_estimate(args) -> int:
    _require(args, "records", "initial", "final")
    ps = load_records(args.records)
    est = transition_probability(ps, args.initial, args.final,
                                 n_groups=args.groups)
    print(f"raw = {est.raw:.6f}")
    print(f"clipped = {est.clipped:.6f}")
    return 0


def _cmd_compose(args) -> int:
    _require(args, "records", "records2")
    ps_x = load_records(args.records)
    ps_y = load_records(args.records2)
    mean = compose_process_shadows(ps_x, ps_y).materialize()
    print(f"pairs = {len(ps_x) * len(ps_y)}")
    print(f"trace = {np.trace(mean).real:.6f}")
    if args.compare_channels:
        try:
            spec_x, spec_y = [s.strip() for s in args.compare_channels.split(",")]
        except ValueError as exc:
            raise ConfigError("--compare-channels wants 'specX,specY'") from exc
        cx, cy = (channel_from_spec(spec, ps_x.n_qubits) for spec in (spec_x, spec_y))
        exact = choi_of_channel(compose_channels(cx, cy)).matrix / 2**ps_x.n_qubits
        print(f"operator_norm_error = {operator_norm(mean - exact):.6f}")
    if args.output:
        np.save(args.output, mean)
        print(f"saved composed Choi estimate to {args.output}")
    return 0


def _cmd_verify_unitarity(args) -> int:
    _require(args, "records")
    ps = load_records(args.records)
    v = unitarity_verdict(ps, threshold_fraction=args.threshold_fraction,
                          n_bootstrap=args.bootstrap, rng=_rng(args))
    print(f"verdict = {v.verdict}")
    print(f"purity = {v.purity:.6f}")
    print(f"interval = [{v.interval[0]:.6f}, {v.interval[1]:.6f}]")
    print(f"threshold = {v.threshold:.6f}")
    return 0


def _cmd_budget(args) -> int:
    _require(args, "epsilon", "delta", "qubits", "observables")
    observables = tuple(PauliString(s.strip())
                        for s in args.observables.split(","))
    q = ComplexityQuery(epsilon=args.epsilon, delta=args.delta,
                        n_qubits=args.qubits, observables=observables,
                        ensemble_in=args.ensemble_in, ensemble_out=args.ensemble_out)
    if args.state_supports:  # each entry is the support count of a pure input state
        q = dataclasses.replace(q, input_states=tuple(
            PureInput(q.n_qubits, int(s)) for s in args.state_supports.split(",")))
    ans = sample_budget(q)
    print(f"k_groups = {ans.k_groups}")
    print(f"n_per_group = {ans.n_per_group}")
    print(f"total = {ans.total}")
    print(f"f_out = {list(ans.f_out)}")
    if ans.f_in:
        print(f"f_in = {list(ans.f_in)}")
    if ans.state_budget_shifted is not None:
        print(f"n_per_group_traceless = {ans.state_budget_shifted}")
    return 0


def _cmd_experiment(args) -> int:
    _require(args, "experiment")
    fields = {f: getattr(args, f) for f in ExperimentConfig.__dataclass_fields__}
    if args.grid is not None:
        fields["grid"] = tuple(int(s) for s in args.grid.split(","))
    cfg = ExperimentConfig(**{k: v for k, v in fields.items() if v is not None})
    result = run_experiment(cfg)
    if args.out:
        write_result_files(result, args.out, gnuplot=args.gnuplot)
        print(f"wrote results to {args.out}")
    print(f"experiment = {cfg.experiment}")
    if result.exponents:
        print(f"mean_exponent = {result.mean_exponent:.4f}")
        print(f"std_exponent = {result.std_exponent:.4f}")
        print(f"exponents = {[round(b, 4) for b in result.exponents]}")
    else:
        for row in result.table:
            print(json.dumps(row, sort_keys=True, default=float))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="procshadow",
        description="Classical-shadow estimation for quantum channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("acquire", help="simulate and save acquisition records")
    p.add_argument("--channel", default=None,
                   help="channel spec, e.g. depolarizing:0.3")
    p.add_argument("--qubits", type=int, default=None)
    p.add_argument("--m", type=int, default=None, help="number of records")
    _add_ensembles(p, "pauli")
    _add_common(p, _cmd_acquire, seed=True, records=True)

    p = sub.add_parser("reconstruct", help="average records into a Choi matrix")
    p.add_argument("--output", default=None, help="write .npy matrix here")
    p.add_argument("--compare-channel", default=None,
                   help="channel spec to compare against")
    _add_common(p, _cmd_reconstruct, seed=False, records=True)

    p = sub.add_parser("estimate", help="transition probability from records")
    p.add_argument("--initial", default=None, help="input bit string")
    p.add_argument("--final", default=None, help="output bit string")
    p.add_argument("--groups", type=int, default=1,
                   help="median-of-means group count")
    _add_common(p, _cmd_estimate, seed=False, records=True)

    p = sub.add_parser("compose", help="compose two record sets")
    p.add_argument("--records2", default=None,
                   help="records of the later channel")
    p.add_argument("--output", default=None, help="write .npy matrix here")
    p.add_argument("--compare-channels", default=None,
                   help="dense reference, written as 'specX,specY'")
    _add_common(p, _cmd_compose, seed=False, records=True)

    p = sub.add_parser("verify-unitarity", help="bootstrap unitarity verdict")
    p.add_argument("--threshold-fraction", type=float, default=0.95)
    p.add_argument("--bootstrap", type=int, default=200)
    _add_common(p, _cmd_verify_unitarity, seed=True, records=True)

    p = sub.add_parser("budget", help="sample-complexity calculator")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--qubits", type=int, default=None)
    p.add_argument("--observables", default=None,
                   help="comma-separated Pauli strings, e.g. 'ZI,XX'")
    p.add_argument("--state-supports", default=None,
                   help="comma-separated support counts of unit-norm inputs")
    _add_ensembles(p, "pauli")
    _add_common(p, _cmd_budget, seed=False, records=False)

    p = sub.add_parser("experiment", help="run a convergence experiment")
    p.add_argument("--experiment", default=None,
                   help="experiment name (required, here or in --config)")
    p.add_argument("--qubits", dest="n_qubits", type=int, default=None)
    p.add_argument("--channel", default=None)
    _add_ensembles(p, None)  # the config or ExperimentConfig's defaults fill them
    p.add_argument("--grid", default=None,
                   help="comma-separated sample counts")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--groups", dest="n_groups", type=int, default=None)
    p.add_argument("--max-workers", type=int, default=None)
    p.add_argument("--out", default=None, help="directory for result files")
    p.add_argument("--gnuplot", action="store_true",
                   help="also write space-separated results.dat")
    _add_common(p, _cmd_experiment, seed=True, records=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the config's text goes first, so flags typed here win
            args = parser.parse_args([argv[0], *_config_argv(args.parser, args.config),
                                      *argv[1:]])
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
