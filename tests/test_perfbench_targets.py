"""The benchmark tracer (`perfbench/tracing.py`) replaces engine functions
by name and wraps the table space's `preserve_hook`; a rename or a dropped
hook in `src/` must fail here, not only in the slower
`python -m pytest perfbench`."""

import importlib.util
from pathlib import Path

from incrtab import cursors
from incrtab.engine import Engine

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_on_its_owner():
    tracing = load_tracing()
    targets = tracing._MODULE_TARGETS + tracing._CLASS_TARGETS
    assert targets
    missing = [(owner.__name__, attr) for owner, attr, *_ in targets
               if attr not in owner.__dict__]
    assert missing == []


def test_the_traced_instance_hook_is_installed():
    assert Engine().space.preserve_hook is cursors.preserve_views


def test_tracer_counts_candidates_and_hits_exactly():
    """The tracer charges each selected clause to `program.candidates` and
    counts a hit when the next `engine.unify_in` on it succeeds, so the
    evaluator must unify each candidate head exactly once, right after
    selection.  Here the table's one rule is selected and matched, then
    its body call selects three facts of which one matches."""
    tracing = load_tracing()
    engine = Engine()
    engine.consult_text(":- table p/1.\n"
                        "p(X) :- e(X, q).\n"
                        "e(a, r). e(c, r). e(b, q).\n")
    with tracing.Tracer() as tracer:
        got = [terms for terms, _ in engine.query("p(X)")]
    assert [t[0].value for t in got] == ["b"]
    assert tracer.count["program.candidates"] == 4
    assert tracer.count["program.candidate_hits"] == 2
    assert tracer.calls["terms.rename"] == 1    # the rule; facts are ground
