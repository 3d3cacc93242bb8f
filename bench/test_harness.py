"""Tests of the benchmark's own arithmetic and checks.

    PYTHONPATH=src python3 -m pytest bench
"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import answers  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from harness import Job, Result  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [Span("parent", 0.0, 10.0, None, "j"),
             Span("first", 1.0, 3.0, 0, "j"),
             Span("second", 4.0, 8.0, 0, "j"),
             Span("grandchild", 5.0, 6.0, 2, "j")]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([4.0, 2.0, 3.0, 1.0])
    assert tracing.children_exceeding_parent(spans, selfs) == 0


def test_covered_time_is_a_union_clipped_to_the_parent():
    assert tracing.covered([(1.0, 3.0), (2.0, 5.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(5.0)
    assert tracing.covered([], 0.0, 10.0) == 0.0


def test_children_exceeding_parent_is_detected():
    spans = [Span("parent", 0.0, 1.0, None, "j"), Span("child", 0.0, 3.0, 0, "j")]
    assert tracing.children_exceeding_parent(spans, [0.0, 3.0]) == 1


def test_tracer_wraps_every_namespace_and_restores_them():
    import quadmorph
    from quadmorph import clifford, core, qhm

    original = core.spectral_decompose
    tracer = tracing.Tracer(["core.spectral_decompose", "qhm.classify"])
    tracer.install()
    try:
        assert qhm.spectral_decompose is core.spectral_decompose is not original
        assert quadmorph.spectral_decompose is core.spectral_decompose
        tracer.job = "classify"
        qhm.classify(qhm.from_clifford(clifford.construct_irreducible(3)))
    finally:
        tracer.uninstall()
    assert core.spectral_decompose is original and qhm.spectral_decompose is original
    names = [span.name for span in tracer.spans]
    assert names[0] == "qhm.classify" and "core.spectral_decompose" in names
    assert all(span.parent == 0 for span in tracer.spans[1:])


def test_tail_percentile_keeps_ten_jobs_beyond_it():
    assert harness.tail_percentile(25) == 60
    assert harness.tail_percentile(100) == 90
    assert harness.tail_percentile(10) == 0
    for jobs in (11, 25, 68, 86, 100, 1000):
        values = list(range(jobs))
        cut = harness.percentile(values, harness.tail_percentile(jobs))
        assert sum(1 for v in values if v > cut) >= 10
        assert sum(1 for v in values if v > cut) < 10 + jobs / 100 + 1


def test_percentile_is_nearest_rank():
    assert harness.percentile([5, 1, 3, 2, 4], 50) == 3
    assert harness.percentile([5, 1, 3, 2, 4], 100) == 5
    assert harness.percentile([5, 1, 3, 2, 4], 0) == 1


def _ok(res):
    return None


def test_timeouts_and_crashes_count_as_failed():
    results = [
        harness.run_in_process(Job("fine", _ok, call=lambda: 1)),
        harness.run_in_process(Job("slow", _ok, call=lambda: time.sleep(0.05), timeout=0.01)),
        harness.run_in_process(Job("crash", _ok, call=lambda: 1 / 0)),
        harness.run_subprocess(Job("killed", _ok, argv=["--version"], timeout=0.001),
                               dict(os.environ)),
    ]
    harness.check_results(results)
    assert [r.failure is None for r in results] == [True, False, False, False]
    assert "timed out" in results[1].failure and "ZeroDivisionError" in results[2].failure
    assert "timed out" in results[3].failure
    assert harness.failed_ratio(results) == 0.75


def test_a_raising_check_fails_the_job_not_the_run():
    res = harness.run_in_process(Job("odd", lambda r: r.output["missing"], call=dict))
    harness.check_results([res])
    assert "KeyError" in res.failure


def test_closed_loop_runs_whole_cycles():
    jobs = [Job(str(i), _ok, call=lambda: time.sleep(0.002)) for i in range(3)]
    results, wall, cycles = harness.closed_loop(jobs, harness.run_in_process, 0.05)
    assert cycles >= 2 and len(results) == 3 * cycles
    assert wall >= 0.05 and wall - wall / cycles < 0.05


def _cli(argv):
    from quadmorph import cli
    return harness.run_in_process(Job("cli", _ok, argv=argv), cli.run)


def test_known_answer_flags_a_wrong_document():
    res = _cli(["construct", "clifford", "--n", "3"])
    check = answers.expect(0, answers.document("clifford", {"two_m": 8, "n": 4}, exact=True))
    assert check(res) is None
    doc = json.loads(res.output)
    doc["matrices"][1][0][1] += 1
    doc["matrices"][1][1][0] += 1
    res.output = json.dumps(doc)
    assert "identities fail" in check(res)
    assert "exit 0, expected 1" in answers.expect(1)(res)


def test_known_answer_flags_a_wrong_split_and_a_wrong_verdict(tmp_path):
    from quadmorph import clifford

    mats = [np.asarray(M) for M in clifford.construct_irreducible(3).matrices]
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"kind": "qhm", "dims": {"m": 8, "n": 4}, "scalars": "rational",
                                "matrices": [M.tolist() for M in mats]}))
    res = _cli(["split", str(path)])
    check = answers.expect(0, answers.split_reassembles(
        [M.astype(float) for M in mats], [1.0], [8]))
    assert check(res) is None
    payload = json.loads(res.output)
    payload["split_change"][0][0] += 1e-3
    res.output = json.dumps(payload)
    assert "does not reassemble" in check(res)

    import equivalence
    a = [M.astype(float) for M in mats]
    verdict = clifford.algebraically_equivalent(clifford.verify_clifford(a),
                                                clifford.verify_clifford(a))
    right = equivalence._pair_answer(a, a, True, True)
    res = Result(Job("eq", _ok), 0.0, output=(verdict, True, True))
    assert right(res) is None
    assert "expected not equivalent" in equivalence._pair_answer(a, a, False, True)(res)
    assert "expected False" in equivalence._pair_answer(a, a, True, False)(res)


def test_sign_rule_matches_the_member_product_trace():
    import equivalence
    from quadmorph import clifford

    for n in (3, 4, 5, 8):
        base = [np.asarray(M, dtype=float) for M in clifford.construct_irreducible(n).matrices]
        flipped = equivalence._flip_last(base)
        assert equivalence._equivalence_answer(base, flipped, n) == (n % 4 != 0)


def test_rejection_probes_accept_only_a_rejection():
    rejected = Result(Job("p", _ok), 0.0, exit=1, output="")
    accepted = Result(Job("p", _ok), 0.0, exit=0, output='{"valid": true}')
    assert answers.expect_rejection(rejected) is None
    assert "accepted" in answers.expect_rejection(accepted)
    assert not answers.integer_clifford_accepts([[[1438793759, 4046803256],
                                                  [4046803256, -1438793759]]])
    assert answers.integer_clifford_accepts([[[1, 0], [0, -1]], [[0, 1], [1, 0]]])


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in layers.METRICS]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
