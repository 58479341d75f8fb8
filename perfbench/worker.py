"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --pass K --out FILE
                                [--trace] [--setup-only] [--tiny]

The pass imports every ``procshadow`` module and builds the workload's
inputs from the seed (the timed set-up), then runs the job list once as
a closed loop: one client, one thread, the next job starting when the
previous one returns.  Each job is timed alone; its correctness check
and digest run outside the timed region.  The pass writes one JSON
object to ``--out``.  ``run.py`` starts these processes.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# BLAS and OpenMP read these once, when numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import pkgutil  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
import procshadow  # noqa: E402

for _mod in pkgutil.iter_modules(procshadow.__path__):
    importlib.import_module(f"procshadow.{_mod.name}")

import tracing  # noqa: E402
import workloads  # noqa: E402


def _blas() -> str:
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{cfg.get('name')} {cfg.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _digest_update(h, values) -> None:
    for v in values:
        if isinstance(v, str):
            h.update(v.encode())
        else:
            a = np.ascontiguousarray(np.asarray(v))
            h.update(str(a.dtype).encode() + str(a.shape).encode())
            h.update(a.tobytes())


def run_jobs(jobs, recorder=None) -> dict:
    """Run each job once, timed alone; check and digest it untimed.

    A job fails when it raises, when its check raises, or when its check
    reports a failure; the pass goes on with the next job either way.
    """
    digest = hashlib.sha256()
    latencies, failures, infos = [], [], []
    clock = time.perf_counter
    for idx, job in enumerate(jobs):
        if recorder is not None:
            recorder.job = idx
        start = clock()
        try:
            result = job.run()
            ok = True
        except Exception:
            ok = False
            err = traceback.format_exc(limit=3)
        latencies.append(clock() - start)
        if recorder is not None:
            recorder.job = None
        if not ok:
            failures.append({"job": job.name, "why": ["raised: " + err]})
            continue
        try:
            why = job.check(result)
            _digest_update(digest, job.digest(result))
            info = {k: (v(result) if callable(v) else v) for k, v in job.info.items()}
        except Exception:
            why = ["check raised: " + traceback.format_exc(limit=3)]
            info = {}
        infos.append({"job": job.name, **info})
        if why:
            failures.append({"job": job.name, "why": why})
    return {"latencies": latencies, "failures": failures,
            "digest": digest.hexdigest(), "jobs": [j.name for j in jobs],
            "job_info": infos}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_index", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    workdir = HERE / "_out" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        desc, jobs = workloads.WORKLOADS[args.workload](args.seed, workdir, args.tiny)
        setup_s = time.perf_counter() - _T0
        result = {"workload": args.workload, "seed": args.seed,
                  "pass": args.pass_index, "traced": args.trace,
                  "setup_s": setup_s, "descriptor": desc,
                  "env": {"python": sys.version.split()[0],
                          "numpy": np.__version__, "blas": _blas(),
                          "threads": {v: os.environ[v] for v in
                                      ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS")}}}
        if not args.setup_only:
            recorder = None
            if args.trace:
                recorder = tracing.SpanRecorder()
                recorder.install()
            result.update(run_jobs(jobs, recorder))
            result["wall_s"] = sum(result["latencies"])
            result["peak_rss_mb"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if recorder is not None:
                result["layers"] = recorder.summary(result["wall_s"])
                recorder.write(str(HERE / "_out" / "spans"
                                   / f"{args.workload}-seed{args.seed}"
                                   f"-pass{args.pass_index}.jsonl"),
                               args.workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.out).write_text(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
