"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload reach-churn --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the engine is imported from its `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
The line before it holds the details: sample counts, further percentiles,
the error ratio and the exact engine counts at fixed checkpoints.
A traced run also writes its spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END = {
    "setup_s": "s", "query_s": "s", "update_s": "s", "requery_s": "s",
    "assert_ms.p50": "ms", "retract_ms.p50": "ms", "peak_rss_mb": "MB",
}

_SECONDS = (
    "parser.s", "program.assert.s", "program.retract.s", "program.select.s",
    "terms.unify.s", "terms.rename.s", "terms.canonical_key.s",
    "tables.add_answer.s", "tables.reeval_marks.s", "idg.leaves_matching.s",
    "idg.invalidate.s", "idg.register.s", "idg.collect_dependencies.s",
    "engine.self_s", "engine.reeval.s", "cursors.next.s",
)
_COUNTS = (
    "parser.clauses", "program.assert.calls", "program.retract.calls",
    "program.candidates", "terms.unify.calls", "terms.rename.calls",
    "terms.canonical_key.calls", "tables.add_answer.calls", "tables.settled",
    "idg.leaves_matching.calls", "idg.leaves_matched", "idg.invalidated_nodes",
    "idg.register.calls", "idg.drain_len", "idg.nodes", "idg.leaves",
    "idg.edges", "engine.steps", "engine.reeval.calls", "cursors.next.calls",
    "cursors.preserve.calls",
)
_RATIOS = (
    "program.candidate_hit_ratio", "terms.unify.success_ratio",
    "tables.add_answer.new_ratio", "engine.reeval.changed_ratio",
    "trace.overhead_ratio",
)
PER_LAYER = {**dict.fromkeys(_SECONDS, "s"), **dict.fromkeys(_COUNTS, "count"),
             **dict.fromkeys(_RATIOS, "ratio"), "engine.steps_per_s": "1/s"}


def percentile(samples: list, p: int):
    """The p-th percentile, or None unless at least 10 samples lie beyond it."""
    if len(samples) * (100 - p) < 1000:
        return None
    return statistics.quantiles(samples, n=100)[p - 1]


def median(samples: list):
    return statistics.median(samples) if samples else None


def end_to_end(run) -> dict:
    """Times in reference-host units (see speed.py); memory as measured."""
    values = {
        "setup_s": median(run.setup_s),
        "query_s": median(run.query_s),
        "update_s": median(run.cycle_update_s),
        "requery_s": median(run.cycle_requery_s),
        "assert_ms.p50": percentile(run.assert_ms, 50),
        "retract_ms.p50": percentile(run.retract_ms, 50),
    }
    metrics = {name: {"value": v, "unit": END_TO_END[name]}
               for name, v in values.items() if v is not None}
    metrics["peak_rss_mb"] = {"value": run.peak_rss_mb, "unit": "MB"}
    return metrics


def details(run) -> dict:
    updates = run.assert_ms + run.retract_ms
    extra = {f"{name}.p{p}": percentile(samples, p)
             for name, samples in (("update_ms", updates),
                                   ("requery_ms", run.requery_ms))
             for p in (50, 90, 99)}
    return {
        "workload": run.workload.name,
        "seed": run.seed,
        "cycles": len(run.cycle_update_s),
        "samples": {"setup": len(run.setup_s), "query": len(run.query_s),
                    "assert": len(run.assert_ms), "retract": len(run.retract_ms),
                    "update": len(updates), "requery": len(run.requery_ms)},
        "percentiles": {k: v for k, v in extra.items() if v is not None},
        "speed_factor": run.speed.typical(),
        "error_ratio": run.failed / run.attempted if run.attempted else 0.0,
        "errors": run.errors,
        "mismatches": run.mismatches,
        "checkpoints": run.checkpoints,
    }


def layer_metrics(run) -> dict:
    """Per-layer metrics; times in reference-host units like end_to_end."""
    k = run.speed.typical()
    scale = {"s": k, "1/s": 1 / k}
    return {name: {"value": run.layers[name] * scale.get(unit, 1), "unit": unit}
            for name, unit in PER_LAYER.items() if name in run.layers}


def write_spans(run) -> str:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{run.workload.name}-seed{run.seed}-spans.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for name, start, end, parent in run.spans:
            handle.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
    return str(path.relative_to(HERE.parent))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "incrtab").is_dir():
        print(f"run.py: no engine sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, run_workload

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"run.py: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    run = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    info = details(run)
    if args.trace:
        info["spans"] = write_spans(run)
        metrics = layer_metrics(run)
    else:
        metrics = end_to_end(run)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not run.mismatches and not run.failed,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
