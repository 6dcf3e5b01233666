"""Update/query workloads over the incremental engine.

One engine is driven from one thread as a closed loop: each call returns
before the next is made.  Inputs come only from the seed and the scale.
Facts are parsed before the timed regions; answers are checked after them
(see `_check`), so no timing includes parsing or verification.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

from incrtab import programs
from incrtab.bench import GraphSpec, SplitMix64, gen_graph_facts
from incrtab.engine import Engine
from incrtab.parser import parse_clause
from incrtab.terms import canonical_tuple_key

from speed import SpeedScale
from tracing import Tracer


NODES, EDGES = 10000, 5000   # G(10000/5000): ~10k answers on every seed
BATCH = 100                  # facts asserted, then retracted, per cycle
REPLICAS = 11                # set-ups (each followed by a cold query) per run
MIN_CYCLES = 5               # >= 1000 update calls: 10 beyond the p99 of update_ms


@dataclass(frozen=True)
class GraphWorkload:
    """A tabled closure over a random graph, churned by asserting and then
    retracting batches of fresh `update_pred` facts."""

    name: str
    program: str
    oracle_program: str
    goal: str
    update_pred: str
    hold_cursor: bool


WORKLOADS = {
    w.name: w for w in (
        GraphWorkload(
            name="reach-churn",
            program=programs.reach_program(incremental=True, abstraction=False),
            oracle_program=programs.reach_program(incremental=False),
            goal="reach(X,Y)", update_pred="edge", hold_cursor=True),
        GraphWorkload(
            name="ureach-wfs",
            program=programs.ureach_program(incremental=True, abstraction=True),
            oracle_program=programs.ureach_program(incremental=False),
            goal="ureach(X,Y)", update_pred="edge_1", hold_cursor=False),
    )
}

WALL_LIMIT_S = 110.0   # stop starting cycles; checks and exit fit in 180 s
DEADLINE_S = 150.0     # engine deadline: a runaway query fails, not hangs


class Abort(Exception):
    """An engine call failed; the run stops and reports it."""


@dataclass
class Run:
    workload: GraphWorkload
    seed: int
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    query_s: list = field(default_factory=list)
    assert_ms: list = field(default_factory=list)
    retract_ms: list = field(default_factory=list)
    requery_ms: list = field(default_factory=list)
    cycle_update_s: list = field(default_factory=list)
    cycle_requery_s: list = field(default_factory=list)
    speed: SpeedScale = field(default_factory=SpeedScale)
    checkpoints: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def call(self, what: str, fn, *args):
        """One timed engine operation: (result, seconds)."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # any engine failure counts, then the run stops
            self.failed += 1
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
            raise Abort from exc
        return result, perf_counter() - start

    def expect(self, what: str, got, want) -> None:
        if got != want:
            self.mismatches.append(what)


def drain(cursor) -> list:
    rows = []
    while (row := cursor.next()) is not None:
        rows.append(row)
    return rows


def query_all(engine: Engine, goal: str) -> list:
    return drain(engine.query(goal))


def answer_set(rows) -> frozenset:
    return frozenset((canonical_tuple_key(terms), truth) for terms, truth in rows)


def digest(answers: frozenset) -> str:
    return hashlib.sha256(repr(sorted(answers)).encode()).hexdigest()[:16]


def engine_counts(engine: Engine) -> dict:
    counts = engine.stats.as_dict()
    counts["tables"] = len(engine.space.tables)
    counts.update(engine.idg.stats())
    return counts


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def base_facts(w: GraphWorkload, seed: int) -> list:
    return list(gen_graph_facts(GraphSpec(NODES, EDGES, seed)))


def update_batches(w: GraphWorkload, seed: int, base: list):
    """Endless stream of batches of distinct facts absent from the base."""
    rng = SplitMix64(seed).split()
    present = set(base)
    while True:
        batch = []
        while len(batch) < BATCH:
            fact = f"{w.update_pred}({rng.below(NODES) + 1},{rng.below(NODES) + 1})."
            if fact not in present:
                present.add(fact)
                batch.append(fact)
        present.difference_update(batch)
        yield batch


def oracle_answers(w: GraphWorkload, facts: list) -> frozenset:
    """Answers of a fresh engine under plain (non-incremental) tabling."""
    engine = Engine()
    engine.consult_text(w.oracle_program + "\n".join(facts) + "\n")
    return answer_set(drain(engine.query(w.goal)))


def run_workload(w: GraphWorkload, seed: int, seconds: float, trace: bool) -> Run:
    run = Run(w, seed)
    started = perf_counter()
    base = base_facts(w, seed)
    assert_digests: list = []   # (batch facts, digest of the requery answers)
    try:
        engine, base_answers = _set_up(run, w, base, trace, started)
        tracer = Tracer() if trace else None
        churn_start = engine_counts(engine)
        with tracer or nullcontext():
            if tracer:
                tracer.attach(engine)
            _churn(run, w, engine, base, base_answers, seconds, started, assert_digests)
        if tracer:
            _layer_metrics(run, tracer, engine, churn_start)
    except Abort:
        pass
    if not run.peak_rss_mb:
        run.peak_rss_mb = peak_rss_mb()
    engine = None
    gc.collect()
    _check(run, w, base, assert_digests)
    return run


def _set_up(run: Run, w: GraphWorkload, base: list, trace: bool, started: float):
    """Build REPLICAS engines from scratch, each followed by a cold query,
    and keep the last.  With tracing, replica 1 runs traced, to price the
    tracer against the untraced replicas."""
    untraced_s, traced_s = [], []
    engine = first_answers = None
    for i in range(REPLICAS):
        engine = None
        gc.collect()
        tracer = Tracer() if trace and i == 1 else None
        engine, answers = _replica(run, w, base, started, tracer)
        (traced_s if tracer else untraced_s).append(run.setup_s[-1] + run.query_s[-1])
        if first_answers is None:
            first_answers = answers
        run.expect(f"cold query of replica {i}", answers, first_answers)
    if traced_s:
        run.layers["trace.overhead_ratio"] = traced_s[0] / statistics.median(untraced_s)
    run.checkpoints["cold"] = dict(engine_counts(engine), answers=digest(first_answers))
    return engine, first_answers


def _replica(run: Run, w: GraphWorkload, base: list, started: float, tracer):
    clauses = [parse_clause(f) for f in base]
    run.speed.start()
    with tracer or nullcontext():
        start = perf_counter()
        engine = Engine()
        engine.consult_text(w.program)
        for clause in clauses:
            run.call("set-up assert", engine.store.assert_clause, clause)
        setup_s = perf_counter() - start
        engine.set_deadline(DEADLINE_S - (perf_counter() - started))
        rows, query_s = run.call("cold query", query_all, engine, w.goal)
    scale = run.speed.mark()
    run.setup_s.append(setup_s * scale)
    run.query_s.append(query_s * scale)
    if tracer:
        run.layers["parser.s"] = tracer.excl["parser.parse"]
        run.layers["parser.clauses"] = tracer.count["parser.clauses"]
    return engine, answer_set(rows)


def _churn(run, w, engine, base, base_answers, seconds, started, assert_digests):
    """Cycles of: assert a batch, requery, retract it, requery; until both
    `seconds` of measured time and MIN_CYCLES cycles are done."""
    measured = 0.0
    batches = update_batches(w, run.seed, base)
    store = engine.store
    while len(run.cycle_update_s) < MIN_CYCLES or measured < seconds:
        if perf_counter() - started > WALL_LIMIT_S:
            break
        cycle = len(run.cycle_update_s)
        facts = next(batches)
        clauses = [parse_clause(f) for f in facts]
        gc.collect()
        run.speed.start()
        update_s = requery_s = 0.0
        results = []
        for op, samples in (("assert", run.assert_ms), ("retract", run.retract_ms)):
            held = run.call("held query", engine.query, w.goal)[0] if w.hold_cursor else None
            update = store.assert_clause if op == "assert" else store.retract_clause
            times = [run.call(op, update, clause)[1] for clause in clauses]
            scale = run.speed.mark()
            samples.extend(t * scale * 1000 for t in times)
            update_s += sum(times) * scale
            rows, dt = run.call("requery", query_all, engine, w.goal)
            held_rows = None
            if held is not None:
                held_rows, held_s = run.call("held cursor", drain, held)
                dt += held_s
            scale = run.speed.mark()
            run.requery_ms.append(dt * scale * 1000)
            requery_s += dt * scale
            measured += sum(times) + dt
            results.append((op, rows, held_rows, engine_counts(engine)))
        run.cycle_update_s.append(update_s)
        run.cycle_requery_s.append(requery_s)
        if len(run.cycle_update_s) == MIN_CYCLES:
            run.peak_rss_mb = peak_rss_mb()
        before = base_answers   # what a cursor opened before the update yields
        for op, rows, held_rows, counts in results:
            answers = answer_set(rows)
            if cycle == 0:
                run.checkpoints[f"cycle0_{op}"] = dict(counts, answers=digest(answers))
            if held_rows is not None:
                run.expect(f"held cursor over {op}, cycle {cycle}",
                           answer_set(held_rows), before)
            if op == "assert":
                assert_digests.append((facts, digest(answers)))
                before = answers
            else:
                run.expect(f"requery after retract, cycle {cycle}", answers, base_answers)


def _check(run: Run, w: GraphWorkload, base: list, assert_digests: list) -> None:
    """Compare the incremental answers with fresh plain-tabling engines."""
    if "cold" not in run.checkpoints:
        return
    run.expect("cold query vs fresh engine", run.checkpoints["cold"]["answers"],
               digest(oracle_answers(w, base)))
    for cycle, (facts, answers) in enumerate(assert_digests):
        run.expect(f"requery after assert, cycle {cycle}, vs fresh engine",
                   answers, digest(oracle_answers(w, base + facts)))


def _layer_metrics(run: Run, tracer: Tracer, engine: Engine, start: dict) -> None:
    """Per-layer metrics of the traced churn phase, as means per cycle."""
    cycles = len(run.cycle_update_s)
    if cycles == 0:
        return
    calls, excl, count = tracer.calls, tracer.excl, tracer.count
    end = engine_counts(engine)
    steps = end["steps"] - start["steps"]

    def ratio(num, den):
        return num / den if den else 0.0

    per_cycle = {
        "program.assert.s": excl["program.assert"],
        "program.assert.calls": calls["program.assert"],
        "program.retract.s": excl["program.retract"],
        "program.retract.calls": calls["program.retract"],
        "program.select.s": excl["program.select"],
        "program.candidates": count["program.candidates"],
        "terms.unify.calls": calls["terms.unify"],
        "terms.unify.s": excl["terms.unify"],
        "terms.rename.calls": calls["terms.rename"],
        "terms.rename.s": excl["terms.rename"],
        "terms.canonical_key.calls": calls["terms.canonical_key"],
        "terms.canonical_key.s": excl["terms.canonical_key"],
        "tables.add_answer.calls": calls["tables.add_answer"],
        "tables.add_answer.s": excl["tables.add_answer"],
        "tables.settled": calls["tables.settle"],
        "tables.reeval_marks.s": excl["tables.reeval_marks"],
        "idg.leaves_matching.calls": calls["idg.leaves_matching"],
        "idg.leaves_matching.s": excl["idg.leaves_matching"],
        "idg.leaves_matched": count["idg.leaves_matched"],
        "idg.invalidate.s": excl["idg.invalidate"],
        "idg.invalidated_nodes": count["idg.invalidated_nodes"],
        "idg.register.calls": calls["idg.register"],
        "idg.register.s": excl["idg.register"],
        "idg.collect_dependencies.s": excl["idg.collect_dependencies"],
        "idg.drain_len": count["idg.drain_len"],
        "engine.steps": steps,
        "engine.self_s": tracer.layer_self_seconds("engine"),
        "engine.reeval.calls": calls["engine.reeval"],
        "engine.reeval.s": tracer.incl["engine.reeval"],
        "cursors.next.calls": calls["cursors.next"],
        "cursors.next.s": excl["cursors.next"],
        "cursors.preserve.calls": calls["cursors.preserve"],
    }
    run.layers.update({k: v / cycles for k, v in per_cycle.items()})
    run.layers.update({
        "program.candidate_hit_ratio": ratio(count["program.candidate_hits"],
                                             count["program.candidates"]),
        "terms.unify.success_ratio": ratio(count["terms.unify.success"],
                                           calls["terms.unify"]),
        "tables.add_answer.new_ratio": ratio(count["tables.add_answer.new"],
                                             calls["tables.add_answer"]),
        "engine.reeval.changed_ratio": ratio(count["engine.reeval.changed"],
                                             calls["engine.reeval"]),
        "engine.steps_per_s": ratio(steps, tracer.incl["engine.query"]),
        "idg.nodes": end["nodes"],
        "idg.leaves": end["leaves"],
        "idg.edges": end["edges"],
    })
    run.spans = tracer.spans
