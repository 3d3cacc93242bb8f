import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(pair, tree, value, cycles):
    return {"pair": pair, "tree": tree,
            "result": {"metrics": {"peak_rss_mb": {"value": value}}, "cycles": cycles,
                       "failures": []}}


def test_summary_flags_pairs_whose_trees_completed_different_cycle_counts():
    summarise = load_bench_pairs().summarise
    metrics = {"peak_rss_mb": "lower"}
    same = [run(1, "parent", 70.0, 1), run(1, "change", 70.5, 1),
            run(2, "parent", 83.0, 2), run(2, "change", 82.0, 2)]
    assert summarise(same, metrics)["cycles_differ"] is False
    crossed = same[:1] + [run(1, "change", 83.0, 2)] + same[2:]
    summary = summarise(crossed, metrics)
    assert summary["cycles_differ"] is True
    assert summary["cycles"] == [("change", 2), ("parent", 1), ("parent", 2)]


def test_both_trees_get_bytecode_even_when_python_writes_none(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    trees = [tmp_path / "parent", tmp_path / "change"]
    for tree in trees:
        (tree / "src" / "pkg").mkdir(parents=True)
        (tree / "src" / "pkg" / "mod.py").write_text("VALUE = 1\n")
    load_bench_pairs().compile_sources(trees)
    for tree in trees:
        assert [path.name.split(".")[0] for path in
                (tree / "src" / "pkg" / "__pycache__").glob("*.pyc")] == ["mod"]


def test_condensed_wall_times_leave_the_summary_unchanged():
    bench_pairs = load_bench_pairs()
    metrics = {"peak_rss_mb": "lower"}
    runs = [run(1, "parent", 70.0, 1), run(1, "change", 70.5, 1),
            run(2, "parent", 83.0, 2), run(2, "change", 82.0, 2)]
    for r, walls in zip(runs, ([5.0, 1.0, 3.0], [2.0], [4.0, 6.0], [7.0, 9.0, 8.0, 1.0])):
        r["result"]["job_wall_ms"] = {"verify": walls, "split": [walls[0]]}
    condensed = [{**r, "result": bench_pairs.condense(r["result"])} for r in runs]
    assert condensed[0]["result"]["job_wall_ms"] == {
        "verify": {"count": 3, "p50": 3.0, "max": 5.0},
        "split": {"count": 1, "p50": 5.0, "max": 5.0}}
    assert condensed[3]["result"]["job_wall_ms"]["verify"] == {"count": 4, "p50": 7.5, "max": 9.0}
    assert bench_pairs.summarise(condensed, metrics) == bench_pairs.summarise(runs, metrics)


def test_every_committed_bench_file_holds_condensed_wall_times():
    files = sorted(SCRIPT.parent.parent.glob("BENCH_*.json"))
    assert files
    for path in files:
        for run in json.loads(path.read_text())["runs"]:
            walls = run["result"]["job_wall_ms"]
            assert walls and all(set(w) == {"count", "p50", "max"} for w in walls.values()), path.name
