"""polyseg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload frame_gray --seed 1 --seconds 25 --trace 0

Run from the repository root.  The run generates the workload's input from
the seed, times fresh-interpreter set-up, then starts perfbench/worker.py,
which runs the `polyseg` CLI entry point closed-loop for --seconds and
checks every job's outputs.  It prints a table of every metric with its
unit and sample count, writes the full result with an environment record to
.perfbench/results/, and prints as its last line one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from metrics import end_to_end, per_layer, trace_checks  # noqa: E402
from workloads import WORKLOADS, make_input  # noqa: E402
from workloads import argv as job_argv  # noqa: E402

# Every thread pool capped at one thread: the benchmark is one client on a
# small machine, and the caps keep NumPy from competing with itself.
THREAD_CAPS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS")}
# Set-up is timed this many times before the jobs and again after them, so
# the median spans the run rather than one moment of a drifting machine.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150


def child_env():
    env = dict(os.environ, **THREAD_CAPS)
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def git_record():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"sha": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30).stdout.strip()

    return {"sha": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def measure_setup(input_path, mode):
    """Wall times of fresh interpreters that import polyseg and read."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, probe, input_path, mode], env=child_env(),
                                stdout=subprocess.DEVNULL)
        # wait() with a timeout polls in sleeps of up to 50 ms, which would
        # quantise the figure; a timer enforces the limit instead.
        guard = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        guard.start()
        rc = proc.wait()
        elapsed = time.perf_counter() - t0
        guard.cancel()
        if rc != 0:
            raise subprocess.CalledProcessError(rc, proc.args)
        times.append(elapsed)
    return times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "polyseg", "__init__.py")):
        print(f"perfbench: no polyseg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import polyseg as ps

    w = WORKLOADS[args.workload]
    work = os.path.join(STATE, "work", f"{args.workload}-{args.seed}")
    os.makedirs(work, exist_ok=True)
    input_path = os.path.join(work, "input.ppm" if w.mode == "rgb" else "input.pgm")
    make_input(ps, w, args.seed, input_path)
    setup_times = measure_setup(input_path, w.mode)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = os.path.join(STATE, "results")
    os.makedirs(results, exist_ok=True)
    spec = {"workload": args.workload, "src": SRC, "seconds": args.seconds,
            "trace": bool(args.trace), "out_dir": os.path.join(work, "out"),
            "spans_path": os.path.join(results, f"{name}-spans.json"),
            "argv": job_argv(w, input_path, os.path.join(work, "out"))}
    spec_path = os.path.join(work, "spec.json")
    raw_path = os.path.join(work, "worker.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    if os.path.exists(raw_path):
        os.remove(raw_path)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path, raw_path],
                          env=child_env(), timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    setup_times += measure_setup(input_path, w.mode)
    with open(raw_path) as fh:
        raw = json.load(fh)

    try:
        e2e, extra = end_to_end(w, raw, setup_times)
        layers = per_layer(raw) if args.trace else {}
        top, residual = trace_checks(raw) if args.trace else (None, None)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    jobs = raw["jobs"]
    failed = sum(not j["ok"] for j in jobs)
    env = {
        **git_record(),
        "python": platform.python_version(),
        "numpy": raw["numpy"],
        "backend": raw["backend"],
        "polyseg_file": os.path.relpath(raw["polyseg_file"], ROOT),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu_model(),
        "thread_caps": THREAD_CAPS,
        "loop": "closed, 1 client",
    }
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "argv": spec["argv"],
              "attempted": len(jobs), "failed": failed,
              "errors": sorted({j["error"] for j in jobs if not j["ok"]}),
              "end_to_end": e2e, "extra": extra, "per_layer": layers,
              "top_stage": top, "trace.stage_residual_pct": residual,
              "kernel_probes_ms": raw["probes"], "output_sha256": raw["output_sha256"],
              "samples": {"setup_s": setup_times,
                          "job_s": [j["s"] for j in jobs if j["ok"] and not j["traced"]]}}
    with open(os.path.join(results, f"{name}.json"), "w") as fh:
        json.dump(result, fh, indent=1)

    print(f"{args.workload} seed={args.seed} backend={env['backend']} "
          f"jobs={len(jobs)} failed={failed}")
    for table in (e2e, extra, layers):
        for key, m in table.items():
            n = f"  n={m['n']}" if "n" in m else ""
            print(f"  {key:<48} {m['value']:>14.6g} {m['unit']}{n}")
    if args.trace:
        print(f"  top stage: {top}; run minus stage self times: {residual['value']:.3g} %")
    for err in result["errors"]:
        print(f"  failure: {err}")
    shown = layers if args.trace else e2e
    print(json.dumps({
        "correct": failed == 0, "attempted": len(jobs), "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
