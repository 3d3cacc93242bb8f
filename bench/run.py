"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload pipeline-scale --seed 1 --seconds 20 --trace 0

Workloads: pipeline-scale, equivalence, cli-desk (see BENCHMARK.json for why
each was chosen).  The seed makes every input; the same seed gives the same
inputs.  With ``--trace 0`` the CLI workloads run ``python -m quadmorph.cli``
subprocesses with ``src`` on PYTHONPATH and the last output line carries the
end-to-end metrics; with ``--trace 1`` every job of one cycle runs
in-process (CLI jobs through ``quadmorph.cli.run``) once untraced and once
traced, and the last line carries the per-layer metrics.  The line before it holds the full
result with the run's environment; result and spans are also written under
``bench/out``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402  (these import neither numpy nor quadmorph)
import layers  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = {"pipeline-scale": "pipeline", "equivalence": "equivalence", "cli-desk": "desk"}
# failed_ratio is reported beside these; it is 0 on a healthy run, so it is
# carried by the "failed" and "attempted" counts of the last line instead.
END_TO_END = ["jobs_per_s", "job_p50_ms", "job_tail_ms", "setup_s", "peak_rss_mb",
              "cpu_ms_per_job"]
SETUP_REPEATS = 3
BLAS_THREADS = 1
STARTUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def limit_blas_threads():
    """One BLAS thread per process; must run before numpy loads.

    On a 2-core machine two BLAS threads made the CLI jobs slower, not
    faster (they contend with each other and with the parent), doubled the
    CPU time per job and widened the run-to-run spread.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS, len(os.sched_getaffinity(0))


def machine_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: a record of how fast the
    machine ran, for telling machine noise from program changes."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(1000.0 * (time.perf_counter() - start))
    return statistics.median(times)


def environment(seed, threads, nproc, attempted, jobs_per_cycle):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    try:  # the ceiling keeps git from searching above the checkout
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": threads, "nproc": nproc, "machine": platform.machine(),
            "seed": seed, "jobs": attempted, "jobs_per_cycle": jobs_per_cycle}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quadmorph" / "cli.py").is_file():
        print(f"error: the quadmorph sources are missing from {SRC}", file=sys.stderr)
        return 2
    threads, nproc = limit_blas_threads()
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    sys.path.insert(0, str(SRC))
    import quadmorph.cli  # noqa: F401  (import time belongs to set-up)

    workload = importlib.import_module(WORKLOADS[args.workload])
    import_s = time.perf_counter() - START

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, workload, workdir, import_s, threads, nproc)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, workdir, import_s, threads, nproc) -> int:
    import quadmorph.cli

    child_env = dict(os.environ)

    def in_process(job):  # looks up cli.run per call, so a traced wrapper is used
        return harness.run_in_process(job, lambda argv: quadmorph.cli.run(argv))

    def subprocess_(job):
        return harness.run_subprocess(job, child_env)

    execute = subprocess_ if workload.KIND == "cli" and not args.trace else in_process
    probes = [machine_probe_ms()]
    setups = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        start = time.perf_counter()
        jobs, warmup = workload.setup(args.seed, workdir)
        for job in warmup:
            execute(job)
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)

    if args.trace:
        results, metrics, violations = traced_cycle(jobs, execute, subprocess_, args)
        reported, cycles = [name for name, _, _, _ in layers.METRICS], 2
    else:
        cpu_before = harness.cpu_seconds()
        results, wall, cycles = harness.closed_loop(jobs, execute, args.seconds)
        cpu_used = harness.cpu_seconds() - cpu_before
        harness.check_results(results)
        metrics = harness.end_to_end(results, wall, len(jobs), cpu_used, setup_s)
        reported, violations = END_TO_END, 0

    probes.append(machine_probe_ms())
    failures = {}
    for res in results:
        if res.failure is not None:
            failures.setdefault(res.job.name, {"job": res.job.name, "reason": res.failure,
                                               "defect": res.job.defect, "count": 0})["count"] += 1
    unexpected = [f for f in failures.values() if f["defect"] is None]
    failed = sum(f["count"] for f in failures.values())
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "cycles": cycles, "setup_runs_s": setups,
              "machine_probe_ms": probes,
              "environment": environment(args.seed, threads, nproc, len(results), len(jobs)),
              "metrics": metrics, "failures": list(failures.values()),
              "job_wall_ms": {job.name: [1000.0 * r.wall for r in results if r.job is job]
                              for job in jobs},
              "span_children_exceeding_parent": violations}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    for name, metric in metrics.items():
        print(f"{name:50s} {metric['value']:>14.6g} {metric['unit']}")
    for failure in failures.values():
        print(f"FAILED {failure['job']} x{failure['count']}: {failure['reason']}"
              + (f" [{failure['defect']}]" if failure["defect"] else ""))
    print(json.dumps(detail))
    print(json.dumps({"correct": not unexpected and violations == 0,
                      "attempted": len(results), "failed": failed,
                      "metrics": {name: {"value": metrics[name]["value"],
                                         "unit": metrics[name]["unit"]} for name in reported}}))
    return 0


def traced_cycle(jobs, execute, subprocess_, args):
    """Run every job once untraced and once traced; returns (results, per-layer
    metrics, spans whose children's self times exceed them)."""
    version = harness.Job("version", lambda res: None, argv=["--version"])
    startup_ms = 1000.0 * statistics.median(
        subprocess_(version).wall for _ in range(STARTUP_SAMPLES))
    tracer = tracing.Tracer(layers.TRACED, layers.OBSERVERS)
    plain, traced = [], []
    for index, job in enumerate(jobs):
        # alternate which copy goes first, so that neither pays all first-use costs
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(execute(job))
                continue
            tracer.job = job.name
            tracer.install()
            try:
                traced.append(execute(job))
            finally:
                tracer.uninstall()
    results = plain + traced
    harness.check_results(results)
    selfs = tracing.self_times(tracer.spans)
    metrics = layers.per_layer(tracer.spans, selfs, tracer.counts, startup_ms,
                               [r.exit for r in traced],
                               sum(r.wall for r in traced) / sum(r.wall for r in plain))
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return results, metrics, tracing.children_exceeding_parent(tracer.spans, selfs)


if __name__ == "__main__":
    sys.exit(main())
