"""Compare a parent source tree with this checkout in alternating pairs.

    git archive <parent-commit> | tar -x -C /tmp/parent
    python3 scripts/bench_pairs.py --parent /tmp/parent --label NAME

Runs ``bench/run.py --workload W --seed S --seconds 10 --trace 0`` of each
tree (the parent tree and this checkout, the change) one after the other,
in ten pairs per workload: odd pairs run the parent first, even pairs the
change first, because the first run of a pair tends to drift faster.  Pair
p of every workload uses seed 700 + p.  Each run's result (the dict that
bench/run.py prints on its next-to-last line) is kept verbatim, except that
its per-job wall-time lists are condensed to {job: {count, p50, max}}, and every
end-to-end metric of BENCHMARK.json is summarised per workload: medians and
inclusive quartiles of both trees, the relative change of the medians, and
in how many pairs the change did better.  A workload whose parent and
change runs of one pair completed different cycle counts gets
``"cycles_differ": true`` and a warning: the harness keeps every completed
job's output, so its ``peak_rss_mb`` then compares different amounts of
kept work (one pipeline-scale cycle against two), not the program.  Writes
``BENCH_<label>.json`` at the root of this checkout; bench/ is only run, never changed.  Runs are
sequential, so the trees never compete for the machine.  Before the first
pair, ``python -m compileall -q`` writes the bytecode of both trees' src
(it does so even under PYTHONDONTWRITEBYTECODE=1), so no CLI job of either
tree pays for compiling quadmorph from source.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["pipeline-scale", "equivalence", "cli-desk"]
PAIRS = 10
SECONDS = 10.0
SEED_BASE = 700


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent source tree")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--description", default="",
                        help="what the two trees are, put in front of the run description")
    return parser.parse_args(argv)


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One bench/run.py run of the tree; returns its result dict."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    if not json.loads(lines[-1])["correct"]:
        print(f"warning: {workload} seed {seed} in {tree} reported wrong answers", file=sys.stderr)
    return condense(json.loads(lines[-2]))


def condense(result: dict) -> dict:
    """The result with each job's list of wall times in ms replaced by its
    count, median and maximum; nothing else reads the lists."""
    walls = result["job_wall_ms"]
    return {**result, "job_wall_ms": {job: {"count": len(ms), "p50": statistics.median(ms),
                                            "max": max(ms)} for job, ms in walls.items()}}


def compile_sources(trees) -> None:
    """Write the bytecode of every tree's src."""
    for tree in trees:
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src")], check=True)


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q3, 4)]


def summarise(runs, metrics) -> dict:
    """Per-metric medians, quartiles, relative change and pair wins of one
    workload's runs; metrics maps each name to 'higher' or 'lower'."""
    value = {(r["pair"], r["tree"]): r["result"]["metrics"] for r in runs}
    pairs = sorted({r["pair"] for r in runs})
    summary = {"pairs": len(pairs)}
    for name, better in metrics.items():
        parent = [value[p, "parent"][name]["value"] for p in pairs]
        change = [value[p, "change"][name]["value"] for p in pairs]
        wins = sum((c > a) if better == "higher" else (c < a) for a, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        summary[name] = {
            "parent_median": round(p_med, 4), "parent_quartiles": quartiles(parent),
            "change_median": round(c_med, 4), "change_quartiles": quartiles(change),
            "relative_change": round(c_med / p_med - 1.0, 4) if p_med else None,
            "change_better_in_pairs": f"{wins} of {len(pairs)}",
        }
    cycles = {(r["pair"], r["tree"]): r["result"]["cycles"] for r in runs}
    summary["cycles"] = sorted({(tree, count) for (_, tree), count in cycles.items()})
    summary["cycles_differ"] = any(cycles[p, "parent"] != cycles[p, "change"] for p in pairs)
    summary["failed"] = sum(f["count"] for r in runs for f in r["result"]["failures"])
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    compile_sources(trees.values())
    runs = []
    for workload in WORKLOADS:
        for pair in range(1, PAIRS + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            seed = SEED_BASE + pair
            for position, tree in enumerate(order, start=1):
                result = run_once(trees[tree], workload, seed)
                runs.append({"workload": workload, "pair": pair, "seed": seed, "tree": tree,
                             "position": position, "result": result})
                print(f"{workload} pair {pair} {tree}: "
                      + " ".join(f"{k}={result['metrics'][k]['value']:.4g}" for k in metrics),
                      file=sys.stderr)
    description = (
        f"{args.description + ' ' if args.description else ''}"
        f"bench/run.py --seconds {SECONDS:g} --trace 0, alternating parent/change pairs "
        f"with the order flipped every pair (odd pairs: parent first; even pairs: change "
        f"first), seed {SEED_BASE} + pair. Each 'result' is the bench/out/result-*.json "
        f"dict, copied verbatim but for job_wall_ms, condensed to {{job: {{count, p50, "
        f"max}}}}; the environment of each run is in its result.")
    out = {"label": args.label, "description": description,
           "summary": {w: summarise([r for r in runs if r["workload"] == w], metrics)
                       for w in WORKLOADS},
           "runs": runs}
    for workload, summary in out["summary"].items():
        if summary["cycles_differ"]:
            print(f"warning: {workload} parent and change runs completed different cycle "
                  f"counts {summary['cycles']}; its peak_rss_mb compares different amounts "
                  f"of kept output", file=sys.stderr)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps(out["summary"], indent=1))
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
