"""Self-checks of the benchmark: tracing restores what it patches, runs
repeat their exact engine counts, and tracing does not change them.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import _CLASS_TARGETS, _MODULE_TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from incrtab.engine import Engine  # noqa: E402


def test_tracer_restores_every_patch():
    targets = _MODULE_TARGETS + _CLASS_TARGETS
    before = [owner.__dict__[attr] for owner, attr, *_ in targets]
    engine = Engine()
    hook = engine.space.preserve_hook
    with Tracer() as tracer:
        tracer.attach(engine)
        assert all(owner.__dict__[attr] is not original for (owner, attr, *_), original
                   in zip(targets, before))
        assert engine.space.preserve_hook is not hook
    assert [owner.__dict__[attr] for owner, attr, *_ in targets] == before
    assert engine.space.preserve_hook is hook


def test_tracer_counts_layers():
    engine = Engine()
    with Tracer() as tracer:
        engine.consult_text(":- table r/2.\n:- dynamic e/2.\n"
                            "r(X,Y) :- e(X,Y).\nr(X,Y) :- r(X,Z), e(Z,Y).\n"
                            "e(1,2).\ne(2,3).\n")
        rows = list(engine.query("r(1,Y)"))
    assert len(rows) == 2
    assert tracer.count["parser.clauses"] == 4
    assert tracer.calls["engine.query"] == 1
    assert tracer.calls["cursors.next"] == 3
    assert tracer.count["terms.unify.success"] <= tracer.calls["terms.unify"]
    assert tracer.count["program.candidate_hits"] <= tracer.count["program.candidates"]
    assert [s[0] for s in tracer.spans] == ["engine.query"]
    assert tracer.layer_self_seconds("engine") > 0


def _run(workload: str, trace: int) -> tuple:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180, check=True)
    *_, info, result = out.stdout.strip().splitlines()
    return json.loads(info), json.loads(result)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_and_tracing_changes_nothing(workload):
    runs = [_run(workload, 0), _run(workload, 0), _run(workload, 1)]
    for info, result in runs:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, info
        assert set(info["checkpoints"]) == {"cold", "cycle0_assert", "cycle0_retract"}
    first = runs[0][0]["checkpoints"]
    assert all(info["checkpoints"] == first for info, _ in runs[1:])
