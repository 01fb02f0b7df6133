"""lgnsde benchmark: one workload per run, result as JSON on the last line.

    python3 perfbench/run.py --workload train-cora-sbm --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; lgnsde is imported from ``src/``
next to this directory. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run. The exit code is 0
only if every job passed its correctness checks. See README.md here.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("train-cora-sbm", "predict-cora-sbm", "verify-small")
END_TO_END = (("op_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _pin_blas_threads():
    """Set BLAS threads before numpy loads: 1 unless set, never above nproc.

    One thread keeps runs steady on a shared machine; the drift's matmuls
    (n x 65 by 65 x 64) are too small to gain much from a second one.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(os.environ.get(var, 1))
        except ValueError:
            want = 1
        os.environ[var] = str(max(1, min(want, nproc)))
    return nproc


def _environment(nproc):
    import ctypes
    import platform

    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = getattr(handle, symbol)()
                break
        if threads is not None:
            break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": nproc}


def _import_lgnsde():
    src = ROOT / "src"
    if not (src / "lgnsde" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lgnsde sources under {src}")
    sys.path.insert(0, str(src))
    import lgnsde

    if Path(lgnsde.__file__).resolve().parent != src / "lgnsde":
        sys.exit(f"perfbench: imported lgnsde from {lgnsde.__file__}, not {src}")


class Tally:
    """Counts jobs and failed checks; a raised exception is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.last = None

    def run(self, workload, warm_up=False):
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = workload.job(warm_up)
        except Exception as e:  # a failed job is counted, not fatal
            result, problems = None, [f"{type(e).__name__}: {e}"]
        elapsed = time.perf_counter() - start
        if result is not None:
            problems = workload.check(result)
            self.last = result
        if problems:
            self.failed += 1
            print(f"perfbench: job {self.attempted} failed: {'; '.join(problems)}",
                  file=sys.stderr)
        return elapsed


def _set_up(cls, args, workdir, tally, recorder=None):
    """Build the inputs and warm up; the recorder (if any) traces the build."""
    workload = cls(args.scale, args.seed, workdir)
    start = time.perf_counter()
    if recorder is not None:
        recorder.install()
    try:
        workload.build()
    finally:
        if recorder is not None:
            recorder.uninstall()
    tally.run(workload, warm_up=True)
    return workload, time.perf_counter() - start


def _timed_jobs(workload, tally, seconds, recorder=None):
    """Run jobs for about `seconds`; return seconds per op of each job.

    Another job starts only if a job as long as the last one would still
    end in time; at least one always runs. With a recorder, untraced and
    traced jobs alternate, and the traced ones are returned second.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        plain.append(tally.run(workload) / workload.units)
        if recorder is not None:
            recorder.install()
            recorder.in_ops = True
            try:
                traced.append(tally.run(workload) / workload.units)
            finally:
                recorder.in_ops = False
                recorder.uninstall()
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return plain, traced


def _step_peak_mb(workload):
    """tracemalloc peak of one training step: loss, backward, Adam."""
    from lgnsde import Adam, BrownianPath, backward

    import numpy as np

    model, graph = workload.model, workload.graph
    cfg = model.sde_config
    path = BrownianPath(workload.seed, cfg.steps, graph.n, model.hidden, cfg.t0, cfg.t1)
    rng = np.random.Generator(np.random.PCG64(workload.seed))
    opt = Adam(model.parameters())
    tracemalloc.start()
    try:
        loss = model.training_loss(graph, path, rng=rng)
        backward(loss)
        opt.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        opt.zero_grad()
    return peak / 2**20


def run_workload(args):
    from workloads import WORKLOADS, Train
    from tracing import LAYER_METRICS, Recorder

    cls = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    tally = Tally()
    try:
        if args.trace:
            recorder = Recorder()
            workload, _ = _set_up(cls, args, str(workdir), tally, recorder)
            plain, traced = _timed_jobs(workload, tally, args.seconds, recorder)
            layer = recorder.layer_metrics(len(traced) * workload.units)
            recorder.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
            is_train = cls is Train
            layer.update({
                "train.step_peak_mb": _step_peak_mb(workload) if is_train else 0.0,
                "train.val_nll": Train.val_nll(tally.last) if is_train and tally.last else 0.0,
                "ops_failed_frac": tally.failed / tally.attempted,
                "trace.op_s": statistics.median(traced),
                "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
            })
            metrics = {name: {"value": layer[name], "unit": unit}
                       for name, unit in LAYER_METRICS}
        else:
            setups = []
            for _ in range(SETUP_REPEATS):
                workload, seconds = _set_up(cls, args, str(workdir), tally)
                setups.append(seconds)
            plain, _ = _timed_jobs(workload, tally, args.seconds)
            values = {"op_s": statistics.median(plain),
                      "setup_s": statistics.median(setups),
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
            print(f"perfbench: {args.workload}: seconds per op of {len(plain)} timed jobs "
                  f"({workload.units} op(s) each): {' '.join(f'{s:.4f}' for s in plain)}; "
                  f"set-ups: {' '.join(f'{s:.4f}' for s in setups)}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.exit(f"perfbench: {name} printed no result (exit {proc.returncode})")
        for metric, entry in result["metrics"].items():
            print(f"{name:18s} {metric:32s} {entry['value']:.6g} {entry['unit']}")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{metric}": entry
                                    for metric, entry in result["metrics"].items()})
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy sizes are for the self-test only")
    args = parser.parse_args(argv)
    nproc = _pin_blas_threads()
    _import_lgnsde()
    if args.workload == "all":
        result = run_all(args)
    else:
        print(json.dumps({"environment": _environment(nproc)}))
        result = run_workload(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
