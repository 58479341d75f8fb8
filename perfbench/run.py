"""procshadow benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run repeats the workload's job list,
each pass in a fresh worker process (``worker.py``), while another pass
still fits in ``--seconds``; at least one pass always runs.  A job's
latency is its mean over the untraced passes; ``wall_s`` sums them and
``job_p50_s`` is their median.  Every pass gets the same inputs from the
seed, so passes must agree bit for bit.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced passes (at least one of
each) and reports per-layer self times and counts from the traced ones,
plus the tracing overhead against the untraced ones.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record, with the environment, the workload
descriptors and every pass, goes to ``perfbench/_out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

WORKLOADS = ("records", "dense-n4")
END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s",
              "peak_rss_mb": "MB"}
SETUP_SAMPLES = 11         # set-up is timed in this many fresh processes
PASS_TIMEOUT_S = 170


class PassFailed(RuntimeError):
    pass


def run_worker(workload, seed, index, *, trace=False, setup_only=False,
               tiny=False) -> dict:
    out = HERE / "_out" / f"pass-{workload}-{seed}-{index}-{os.getpid()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass", str(index), "--out", str(out)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only + ["--tiny"] * tiny
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass {index} timed out after {exc.timeout} s") from exc
    if proc.returncode != 0 or not out.is_file():
        raise PassFailed(f"pass {index} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    try:
        return json.loads(out.read_text())
    finally:
        out.unlink()


def tail_percentile(values):
    """Highest of p50/p90/p95/p99 with at least ten samples beyond it."""
    best = None
    for q in (50, 90, 95, 99):
        if len(values) * (100 - q) / 100 >= 10:
            best = q
    if best is None:
        return None
    return best, statistics.quantiles(values, n=100, method="inclusive")[best - 1]


def git_revision() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def measure(workload, seed, seconds, trace, tiny) -> dict:
    """Run passes, then set-up-only probes, within about ``seconds``.

    Another pass starts while it and the set-up probes still owed would
    fit; the probes bring the set-up samples up to ``SETUP_SAMPLES``.
    """
    start = time.perf_counter()
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        t = time.perf_counter()
        passes.append(run_worker(workload, seed, len(passes), trace=traced, tiny=tiny))
        last = time.perf_counter() - t
        probe = passes[-1]["setup_s"] + 0.1    # a set-up-only process
        owed = max(0, SETUP_SAMPLES - len(passes) - 1) * probe
        need_more = trace and len(passes) < 2
        if not need_more and time.perf_counter() - start + last + owed > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        probe = run_worker(workload, seed, len(passes) + len(setups),
                           setup_only=True, tiny=tiny)
        setups.append(probe["setup_s"])
    return {"passes": passes, "setups": setups}


def summarize(workload, seed, trace, data) -> dict:
    passes = data["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    latencies = [x for p in plain for x in p["latencies"]]
    job_means = [statistics.fmean(job) for job in zip(*(p["latencies"] for p in plain))]
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    digests = sorted({p["digest"] for p in passes})
    e2e = {
        "setup_s": statistics.median(data["setups"]),
        # a job's latency is its mean over the passes: the machine's speed
        # shifts between levels from pass to pass, and a median or minimum
        # would jump with whichever level held most passes of a run
        "wall_s": sum(job_means),
        "job_p50_s": statistics.median(job_means),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    layers = {}
    if traced:
        for name in traced[0]["layers"]:
            layers[name] = statistics.fmean(p["layers"][name] for p in traced)
        untraced_wall = statistics.fmean(p["wall_s"] for p in plain)
        layers["trace.overhead_frac"] = layers["trace.wall_s"] / untraced_wall - 1.0
    return {"workload": workload, "seed": seed, "trace": trace,
            "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted,
            "digests": digests, "deterministic": len(digests) == 1,
            "end_to_end": e2e, "layers": layers,
            "jobs": len(latencies), "tail": tail_percentile(latencies),
            "setup_samples": data["setups"],
            "env": {**passes[0]["env"], "git_revision": git_revision(),
                    "nproc": os.cpu_count(), "seed": seed},
            "descriptor": passes[0]["descriptor"],
            "job_info": passes[0]["job_info"],
            "failures": [f for p in passes for f in p["failures"]],
            "passes": [{k: p[k] for k in ("pass", "traced", "setup_s", "wall_s",
                                          "peak_rss_mb", "latencies", "digest")}
                       for p in passes]}


def report(s) -> None:
    print(f"workload {s['workload']}  seed {s['seed']}  trace {s['trace']}")
    print("env " + json.dumps(s["env"], sort_keys=True))
    print("workload descriptor " + json.dumps(s["descriptor"], sort_keys=True))
    for info in s["job_info"]:
        print("job " + json.dumps(info, sort_keys=True))
    for name, unit in END_TO_END.items():
        print(f"{name} = {s['end_to_end'][name]:.6g} {unit}")
    print(f"failed_frac = {s['failed_frac']:.6g} ratio "
          f"({s['failed']} failed of {s['attempted']} jobs attempted)")
    tail = s["tail"]
    tail_text = f"p{tail[0]} = {tail[1]:.6g} s" if tail else \
        "no percentile above p50 has ten jobs beyond it"
    print(f"jobs timed = {s['jobs']} (untraced), {tail_text}")
    print(f"passes = {len(s['passes'])}, digest per pass = "
          + ", ".join(p["digest"][:16] for p in s["passes"]))
    for name, unit in tracing.layer_metric_units().items():
        if name in s["layers"]:
            print(f"{name} = {s['layers'][name]:.6g} {unit}")
    for f in s["failures"]:
        print(f"FAILED {f['job']}: " + "; ".join(f["why"]))
    if not s["deterministic"]:
        print("FAILED: passes with the same seed gave different outputs")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the smoke test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "procshadow" / "__init__.py").is_file():
        print(f"error: no procshadow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (HERE / "_out").mkdir(exist_ok=True)
    try:
        data = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                       args.tiny)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    s = summarize(args.workload, args.seed, args.trace, data)
    (HERE / "_out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(s, indent=1, sort_keys=True))
    report(s)
    if args.trace:
        units = tracing.layer_metric_units()
        metrics = {k: {"value": s["layers"][k], "unit": u} for k, u in units.items()}
    else:
        metrics = {k: {"value": s["end_to_end"][k], "unit": u}
                   for k, u in END_TO_END.items()}
    print(json.dumps({"correct": s["failed"] == 0 and s["deterministic"],
                      "attempted": s["attempted"], "failed": s["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
