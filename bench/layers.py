"""Per-layer metrics of the traced run, each with the end-to-end metric it
should move and on which workload.

``calls`` and ``self_s`` are per cycle of the workload's job list: a traced
run replays exactly one cycle, so call counts repeat exactly.
"""

from __future__ import annotations

import inspect

TRACED = [
    "core.spectral_decompose", "core.exact_rank", "core.numeric_rank",
    "qhm.sampled_check", "qhm.verify_qhm", "qhm.classify", "qhm.project_nonsingular",
    "qhm.range_extend",
    "clifford.find_orthogonal_intertwiner", "clifford.symmetric_commutant_dimension",
    "clifford.verify_clifford", "clifford.to_standard_representation",
    "clifford.algebraically_equivalent",
    "osystem.construct_range_maximal", "osystem.verify_osystem",
    "orthomul.verify_orthomul", "orthomul.measure", "orthomul.hopf_construction",
    "serialize.loads", "serialize.decode", "serialize.encode", "serialize.dumps",
    "cli.run",
]

_SAMPLED = "pipeline-scale jobs_per_s and job_p50_ms (2 calls per CLI verify); no change on equivalence"
_CORE = "pipeline-scale job_p50_ms, through the classify, split and convert jobs"
_SEARCH = ("equivalence jobs_per_s, job_tail_ms and peak_rss_mb; a small share of cli-desk "
           "extend jobs; absent from pipeline-scale")
_OSYSTEM = "pipeline-scale setup_s; cli-desk job_p50_ms"
_SERIALIZE = "cli-desk job_p50_ms; a few percent on pipeline-scale; absent from equivalence"

# (name, unit, better, end-to-end metric and workload it should move)
METRICS = [
    ("qhm.sampled_check.calls", "count", "lower", _SAMPLED),
    ("qhm.sampled_check.self_s", "s", "lower", _SAMPLED),
    ("qhm.sampled_check.form_evals", "count", "higher",
     "guards the finite-difference oracle: samples*(2m+1)*n must never drop"),
    ("qhm.verify_qhm.calls", "count", "lower", "pipeline-scale jobs_per_s"),
    ("qhm.verify_qhm.self_s", "s", "lower", "pipeline-scale jobs_per_s (identity route)"),
    ("qhm.classify.calls", "count", "lower", "pipeline-scale jobs_per_s"),
    ("qhm.classify.self_s", "s", "lower", "pipeline-scale jobs_per_s"),
    ("qhm.project_nonsingular.self_s", "s", "lower",
     "cli-desk job_p50_ms (the only rank-deficient maps are there)"),
    ("qhm.range_extend.self_s", "s", "lower", "equivalence jobs_per_s"),
    ("core.spectral_decompose.calls", "count", "lower", _CORE),
    ("core.spectral_decompose.self_s", "s", "lower", _CORE),
    ("core.exact_rank.calls", "count", "lower", _CORE),
    ("core.exact_rank.self_s", "s", "lower", _CORE),
    ("core.numeric_rank.self_s", "s", "lower", _CORE),
    ("clifford.find_orthogonal_intertwiner.calls", "count", "lower", _SEARCH),
    ("clifford.find_orthogonal_intertwiner.self_s", "s", "lower", _SEARCH),
    ("clifford.symmetric_commutant_dimension.calls", "count", "lower", _SEARCH),
    ("clifford.symmetric_commutant_dimension.self_s", "s", "lower", _SEARCH),
    ("clifford.find_orthogonal_intertwiner.found_ratio", "ratio", "higher",
     "equivalence failed_ratio (found intertwiners over searches)"),
    ("clifford.algebraically_equivalent.decided_ratio", "ratio", "higher",
     "equivalence failed_ratio (verdicts other than UNKNOWN over calls)"),
    ("clifford.verify_clifford.calls", "count", "lower", "equivalence jobs_per_s"),
    ("clifford.verify_clifford.self_s", "s", "lower", "equivalence jobs_per_s"),
    ("clifford.to_standard_representation.self_s", "s", "lower", "equivalence jobs_per_s"),
    ("clifford.algebraically_equivalent.self_s", "s", "lower", "equivalence jobs_per_s"),
    ("osystem.construct_range_maximal.self_s", "s", "lower", _OSYSTEM),
    ("osystem.verify_osystem.calls", "count", "lower", _OSYSTEM),
    ("osystem.verify_osystem.self_s", "s", "lower", _OSYSTEM),
    ("orthomul.verify_orthomul.self_s", "s", "lower", "cli-desk job_p50_ms"),
    ("orthomul.measure.calls", "count", "lower", "cli-desk job_p50_ms"),
    ("orthomul.hopf_construction.self_s", "s", "lower", "cli-desk job_p50_ms"),
    ("serialize.loads.self_s", "s", "lower", _SERIALIZE),
    ("serialize.decode.self_s", "s", "lower", _SERIALIZE),
    ("serialize.encode.self_s", "s", "lower", _SERIALIZE),
    ("serialize.dumps.self_s", "s", "lower", _SERIALIZE),
    ("serialize.bytes_in", "bytes", "lower", _SERIALIZE),
    ("serialize.bytes_out", "bytes", "lower", _SERIALIZE),
    ("cli.startup_ms", "ms", "lower",
     "cli-desk jobs_per_s and job_p50_ms (interpreter start plus import, via --version)"),
    ("cli.run.self_s", "s", "lower",
     "cli-desk job_p50_ms (argparse, relation residuals, payload building)"),
    ("cli.exit1_count", "count", "higher", "cli-desk failed_ratio (rejection paths)"),
    ("cli.exit2_count", "count", "higher", "cli-desk failed_ratio (malformed-input paths)"),
    ("trace.overhead_ratio", "ratio", "lower",
     "none: traced over untraced wall time of one in-process cycle"),
]


def _form_evals(counts, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    mats = bound.arguments["candidate"]
    m = len(mats[0])
    counts["qhm.sampled_check.form_evals"] += bound.arguments["samples"] * (2 * m + 1) * len(mats)


def _found(counts, fn, args, kwargs, result):
    counts["clifford.find_orthogonal_intertwiner.found"] += result is not None


def _decided(counts, fn, args, kwargs, result):
    counts["clifford.algebraically_equivalent.decided"] += result.status.value != "unknown"


def _bytes_in(counts, fn, args, kwargs, result):
    counts["serialize.bytes_in"] += len(args[0] if args else kwargs["text"])


def _bytes_out(counts, fn, args, kwargs, result):
    counts["serialize.bytes_out"] += len(result)


OBSERVERS = {"qhm.sampled_check": _form_evals,
             "clifford.find_orthogonal_intertwiner": _found,
             "clifford.algebraically_equivalent": _decided,
             "serialize.loads": _bytes_in,
             "serialize.dumps": _bytes_out}


def per_layer(spans, selfs, counts, startup_ms: float, exit_codes, overhead_ratio: float) -> dict:
    """Every per-layer metric of one traced cycle, each as {"value", "unit"}."""
    calls, own = {}, {}
    for span, seconds in zip(spans, selfs):
        calls[span.name] = calls.get(span.name, 0) + 1
        own[span.name] = own.get(span.name, 0.0) + seconds

    def ratio(hits, function):
        return counts[hits] / calls[function] if calls.get(function) else 0.0

    special = {
        "qhm.sampled_check.form_evals": counts["qhm.sampled_check.form_evals"],
        "clifford.find_orthogonal_intertwiner.found_ratio": ratio(
            "clifford.find_orthogonal_intertwiner.found", "clifford.find_orthogonal_intertwiner"),
        "clifford.algebraically_equivalent.decided_ratio": ratio(
            "clifford.algebraically_equivalent.decided", "clifford.algebraically_equivalent"),
        "serialize.bytes_in": counts["serialize.bytes_in"],
        "serialize.bytes_out": counts["serialize.bytes_out"],
        "cli.startup_ms": startup_ms,
        "cli.exit1_count": sum(1 for code in exit_codes if code == 1),
        "cli.exit2_count": sum(1 for code in exit_codes if code == 2),
        "trace.overhead_ratio": overhead_ratio,
    }
    metrics = {}
    for name, unit, _, _ in METRICS:
        if name in special:
            value = special[name]
        else:
            function, field = name.rsplit(".", 1)
            value = calls.get(function, 0) if field == "calls" else own.get(function, 0.0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics
