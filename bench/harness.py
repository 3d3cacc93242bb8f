"""Closed-loop job runner and the arithmetic behind the end-to-end metrics.

A workload is a fixed list of jobs (one *cycle*).  The runner executes whole
cycles with one client -- each job starts when the previous one has ended --
until the measured interval has passed, so every run sees the same job mix
however fast the program is.  Outputs are kept and checked against their
known answers after the loop, outside the timed interval.
"""

from __future__ import annotations

import io
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Job:
    """One unit of work with a known answer.

    Exactly one of ``argv`` (a ``quadmorph`` command line) and ``call`` (a
    library call) is set.  ``check(result)`` returns None when the output
    matches the known answer and a reason otherwise.  ``out`` names the file
    a CLI job writes with ``--out``; it is read back into ``result.output``.
    ``defect`` names the documented defect that makes the current code fail
    the job; such a failure still counts in ``failed``, but not against
    ``correct``.
    """

    name: str
    check: Callable
    argv: Optional[list] = None
    call: Optional[Callable] = None
    out: Optional[Path] = None
    timeout: float = 60.0
    defect: Optional[str] = None


@dataclass
class Result:
    job: Job
    wall: float
    exit: Optional[int] = None
    output: object = None
    stderr: str = ""
    error: Optional[str] = None
    failure: Optional[str] = None


def _read_out(job: Job) -> Optional[str]:
    if job.out is None or not job.out.exists():
        return None
    return job.out.read_text()


def run_subprocess(job: Job, env: dict) -> Result:
    """Run a CLI job as ``python -m quadmorph.cli``; a timeout kills the child."""
    if job.out is not None and job.out.exists():
        job.out.unlink()
    cmd = [sys.executable, "-m", "quadmorph.cli", *job.argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=job.timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return Result(job, time.perf_counter() - start,
                      error=f"timed out after {job.timeout:g} s")
    wall = time.perf_counter() - start
    error = None
    if "Traceback (most recent call last)" in proc.stderr:
        error = "crashed: " + proc.stderr.strip().splitlines()[-1]
    output = _read_out(job) if job.out is not None else proc.stdout
    return Result(job, wall, exit=proc.returncode, output=output,
                  stderr=proc.stderr, error=error)


def run_in_process(job: Job, cli_run: Optional[Callable] = None) -> Result:
    """Run a library job, or replay a CLI job through ``cli_run(argv)``.

    A job that overruns its timeout cannot be interrupted here; it is marked
    as timed out once it returns.
    """
    if job.out is not None and job.out.exists():
        job.out.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    exit_code, value, error = None, None, None
    try:
        if job.call is not None:
            value = job.call()
        else:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                try:
                    exit_code = cli_run(job.argv)
                except SystemExit as exc:
                    exit_code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is an outcome to count, not a reason to stop
        error = "crashed: " + traceback.format_exc().strip().splitlines()[-1]
    wall = time.perf_counter() - start
    if error is None and wall > job.timeout:
        error = f"timed out: {wall:.1f} s > {job.timeout:g} s"
    if job.call is None:
        value = _read_out(job) if job.out is not None else stdout.getvalue()
    return Result(job, wall, exit=exit_code, output=value,
                  stderr=stderr.getvalue(), error=error)


def closed_loop(jobs, execute: Callable, seconds: float):
    """Run whole cycles of ``jobs`` until at least ``seconds`` have passed.

    Returns (results, loop wall seconds, cycles).
    """
    results = []
    start = time.perf_counter()
    cycles = 0
    while True:
        for job in jobs:
            results.append(execute(job))
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return results, elapsed, cycles


def check_results(results) -> None:
    """Fill ``failure`` on every result whose outcome misses its known answer."""
    for res in results:
        if res.error is not None:
            res.failure = res.error
            continue
        try:
            res.failure = res.job.check(res)
        except Exception as exc:  # a malformed output must fail the job, not the run
            res.failure = f"output check raised {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# metric arithmetic


def tail_percentile(jobs_per_cycle: int) -> int:
    """Highest whole percentile with at least ten of a cycle's jobs beyond it.

    Fixed by the cycle length, not by the run's job count, so a run that
    fits one more cycle reports the same percentile.
    """
    if jobs_per_cycle <= 10:
        return 0
    return (100 * (jobs_per_cycle - 10)) // jobs_per_cycle


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest value with pct% of values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def failed_ratio(results) -> float:
    return sum(1 for r in results if r.failure is not None) / len(results)


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def end_to_end(results, loop_wall: float, jobs_per_cycle: int,
               cpu_used: float, setup_s: float) -> dict:
    """Every end-to-end metric of one run, each as {"value", "unit"}."""
    walls_ms = [r.wall * 1000.0 for r in results]
    pct = tail_percentile(jobs_per_cycle)
    return {
        "jobs_per_s": {"value": len(results) / loop_wall, "unit": "1/s"},
        "job_p50_ms": {"value": statistics.median(walls_ms), "unit": "ms"},
        "job_tail_ms": {"value": percentile(walls_ms, pct), "unit": "ms",
                        "percentile": pct, "samples": len(walls_ms)},
        "failed_ratio": {"value": failed_ratio(results), "unit": "ratio"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "cpu_ms_per_job": {"value": cpu_used * 1000.0 / len(results), "unit": "ms"},
    }
