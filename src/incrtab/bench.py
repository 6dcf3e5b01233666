"""Benchmark harness: deterministic fact generation, phase timing and
machine-readable reports.

Fact files are generated with splitmix64, a fixed 64-bit linear generator
with splittable seeds, so identical (N, M, seed) triples produce
bit-identical files on any platform.  Reports are emitted one JSON object
per line under a versioned schema.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from . import programs
from .engine import Engine
from .errors import EvaluationTimeout
from .parser import parse_clause

REPORT_SCHEMA = "incrtab-bench/1"

MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: state advances by the golden gamma; output is the
    finalized mix.  split() derives an independent stream."""

    GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + self.GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        return self.next_u64() % bound

    def split(self) -> "SplitMix64":
        return SplitMix64(self.next_u64())


@dataclass
class GraphSpec:
    """Randomly generated graph G(N/M): M directed edges sampled uniformly
    with replacement over N x N (self-loops allowed)."""

    nodes: int
    edges: int
    seed: int = 1


def gen_graph_facts(spec: GraphSpec, pred_name: str = "edge") -> Iterator[str]:
    rng = SplitMix64(spec.seed)
    for _ in range(spec.edges):
        src = rng.below(spec.nodes) + 1
        dst = rng.below(spec.nodes) + 1
        yield f"{pred_name}({src},{dst})."


def gen_graph(spec: GraphSpec, pred_name: str = "edge",
              path: Optional[str] = None) -> str:
    text = "\n".join(gen_graph_facts(spec, pred_name)) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def gen_graph_tuples(spec: GraphSpec) -> list:
    rng = SplitMix64(spec.seed)
    return [(rng.below(spec.nodes) + 1, rng.below(spec.nodes) + 1)
            for _ in range(spec.edges)]


# -- social-network EDB ------------------------------------------------------


# Relative EDB weights: the chain-forming predicates (friend,
# sexual_partner_report, parent_of_edb) dominate evaluation cost through the
# loves/equals closures, so they get smaller shares of the fact budget.
EDB_WEIGHTS = {
    "friend": 5,
    "returned_needle": 10,
    "obtained_needle": 10,
    "share_needle_report": 8,
    "sexual_partner_report": 5,
    "has_disease": 10,
    "works_for": 10,
    "may_have_unprotected_sex": 8,
    "pastor": 9,
    "parent_of_edb": 5,
    "lives_at": 10,
    "attends_church": 10,
}


def gen_social_edb(n_facts: int, seed: int = 1, population: Optional[int] = None) -> list:
    """Deterministic EDB for the social-network program: n_facts facts
    spread over the twelve EDB predicates by weight."""
    rng = SplitMix64(seed)
    population = population or max(50, n_facts // 2)
    preds = programs.SOCIAL_EDB_PREDICATES
    total_weight = sum(EDB_WEIGHTS[name] for name, _ in preds)
    facts = []

    def person() -> str:
        return f"p{rng.below(population) + 1}"

    def entity(prefix: str, count: int) -> str:
        return f"{prefix}{rng.below(count) + 1}"

    n_needles = max(10, population // 10)
    n_locs = max(10, population // 10)
    n_churches = max(5, population // 50)
    for name, arity in preds:
        share = max(1, n_facts * EDB_WEIGHTS[name] // total_weight)
        for _ in range(share):
            if name in ("friend", "works_for", "may_have_unprotected_sex",
                        "parent_of_edb"):
                facts.append(f"{name}({person()},{person()}).")
            elif name == "has_disease":
                facts.append(f"{name}({person()}).")
            elif name in ("returned_needle", "obtained_needle"):
                facts.append(f"{name}({person()},{entity('n', n_needles)},{entity('loc', n_locs)}).")
            elif name in ("share_needle_report", "sexual_partner_report"):
                facts.append(f"{name}({person()},{person()},{person()}).")
            elif name == "pastor":
                facts.append(f"{name}({entity('ch', n_churches)},{person()}).")
            elif name == "lives_at":
                facts.append(f"{name}({person()},{entity('loc', n_locs)}).")
            elif name == "attends_church":
                facts.append(f"{name}({person()},{entity('ch', n_churches)}).")
    return facts


def gen_update_facts(pred: str, arity_shape: tuple, count: int, seed: int,
                     population: int) -> list:
    """Fresh facts for update batches against one EDB predicate."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        args = []
        for kind, scale in arity_shape:
            if kind == "p":
                args.append(f"p{rng.below(population) + 1}")
            else:
                args.append(f"{kind}{rng.below(scale) + 1}")
        out.append(f"{pred}({','.join(args)}).")
    return out


EDB_SHAPES = {
    "friend": (("p", 0), ("p", 0)),
    "returned_needle": (("p", 0), ("n", 50), ("loc", 50)),
    "obtained_needle": (("p", 0), ("n", 50), ("loc", 50)),
    "share_needle_report": (("p", 0), ("p", 0), ("p", 0)),
    "sexual_partner_report": (("p", 0), ("p", 0), ("p", 0)),
    "has_disease": (("p", 0),),
    "works_for": (("p", 0), ("p", 0)),
    "may_have_unprotected_sex": (("p", 0), ("p", 0)),
    "pastor": (("ch", 10), ("p", 0)),
    "parent_of_edb": (("p", 0), ("p", 0)),
    "lives_at": (("p", 0), ("loc", 50)),
    "attends_church": (("p", 0), ("ch", 10)),
}


# -- reports ------------------------------------------------------------------


@dataclass
class BenchReport:
    program: str
    config: str
    phase: str
    wall_seconds: float
    cpu_seconds: float
    answers: int = 0
    tables: int = 0
    idg_nodes: int = 0
    idg_leaves: int = 0
    idg_edges: int = 0
    store_bytes: int = 0
    timeout: bool = False
    extra: dict = field(default_factory=dict)

    def as_json(self) -> str:
        record = {
            "schema": REPORT_SCHEMA,
            "program": self.program,
            "config": self.config,
            "phase": self.phase,
            "wall_seconds": round(self.wall_seconds, 6),
            "cpu_seconds": round(self.cpu_seconds, 6),
            "answers": self.answers,
            "tables": self.tables,
            "idg_nodes": self.idg_nodes,
            "idg_leaves": self.idg_leaves,
            "idg_edges": self.idg_edges,
            "store_bytes": self.store_bytes,
            "timeout": self.timeout,
        }
        record.update(self.extra)
        return json.dumps(record, sort_keys=True)


def _store_bytes(engine: Engine) -> int:
    """Approximate table space: stored terms weighted by a canonical size."""
    total = 0
    for table in engine.space.tables.values():
        total += 16 * (1 + table.ans_subst_size)
        for answer in table.live_answers():
            total += 16 * len(answer.terms)
            for dl in answer.delay_lists:
                total += 8 * len(dl.literals)
    return total


class _Phase:
    def __init__(self, runner: "BenchRunner", name: str, **extra):
        self.runner = runner
        self.name = name
        self.extra = extra

    def __enter__(self):
        self.wall = time.monotonic()
        self.cpu = time.process_time()
        if self.runner.timeout is not None:
            self.runner.engine.set_deadline(self.runner.timeout)
        return self

    def __exit__(self, exc_type, exc, tb):
        engine = self.runner.engine
        engine.set_deadline(None)
        timeout = exc_type is EvaluationTimeout
        stats = engine.idg.stats()
        report = BenchReport(
            program=self.runner.program,
            config=self.runner.config,
            phase=self.name,
            wall_seconds=time.monotonic() - self.wall,
            cpu_seconds=time.process_time() - self.cpu,
            answers=self.extra.pop("answers", 0),
            tables=len(engine.space.tables),
            idg_nodes=stats["nodes"],
            idg_leaves=stats["leaves"],
            idg_edges=stats["edges"],
            store_bytes=_store_bytes(engine),
            timeout=timeout,
            extra=self.extra,
        )
        self.runner.reports.append(report)
        self.runner.emit(report)
        return timeout  # swallow EvaluationTimeout, propagate other errors


class BenchRunner:
    def __init__(self, program: str, config: str, sink: Optional[Callable] = None,
                 timeout: Optional[float] = None):
        self.program = program
        self.config = config
        self.engine = Engine()
        self.reports: list = []
        self.sink = sink
        self.timeout = timeout

    def emit(self, report: BenchReport) -> None:
        if self.sink is not None:
            self.sink(report)

    def phase(self, name: str, **extra) -> _Phase:
        return _Phase(self, name, **extra)

    @property
    def timed_out(self) -> bool:
        return any(r.timeout for r in self.reports)


def _count(cursor) -> int:
    n = 0
    while cursor.next() is not None:
        n += 1
    return n


def run_reach(scale: dict, sink=None, timeout=None, seed: int = 1,
              oracle: bool = True) -> list:
    """reach/2 benchmark: initial query under three configs, then update
    batches, invalidation and requery under the incremental configs."""
    nodes = int(scale.get("n", 10000))
    edges = int(scale.get("m", nodes // 2))
    batches = [int(b) for b in str(scale.get("batches", "10,100,1000")).split(",")]
    spec = GraphSpec(nodes, edges, seed)
    base_facts = list(gen_graph_facts(spec))
    reports = []
    configs = [
        ("no_incremental", programs.reach_program(False, False)),
        ("incremental", programs.reach_program(True, False)),
        ("incremental_abstract", programs.reach_program(True, True)),
    ]
    for config, source in configs:
        facts = list(base_facts)
        runner = BenchRunner("reach", config, sink, timeout)
        runner.engine.consult_text(source + "\n".join(facts) + "\n")
        with runner.phase("initial_query") as ph:
            ph.extra["answers"] = _count(runner.engine.query("reach(X,Y)"))
        if config == "no_incremental" or runner.timed_out:
            reports.extend(runner.reports)
            continue
        update_rng = SplitMix64(seed + 7)
        for batch in batches:
            new_facts = [
                f"edge({update_rng.below(nodes) + 1},{update_rng.below(nodes) + 1})."
                for _ in range(batch)
            ]
            with runner.phase("update_invalidate", batch=batch):
                for fact in new_facts:
                    runner.engine.store.assert_clause(parse_clause(fact))
            with runner.phase("requery", batch=batch) as ph:
                ph.extra["answers"] = _count(runner.engine.query("reach(X,Y)"))
            if runner.timed_out:
                break
            if oracle and nodes <= 2000:
                fresh = Engine()
                fresh.consult_text(source + "\n".join(facts + new_facts) + "\n")
                want = _count(fresh.query("reach(X,Y)"))
                got = runner.reports[-1].answers
                if want != got:
                    raise AssertionError(
                        f"oracle mismatch after batch {batch}: {got} != {want}")
            facts.extend(new_facts)
        reports.extend(runner.reports)
    return reports


def run_ureach(scale: dict, sink=None, timeout=None, seed: int = 1,
               oracle: bool = True) -> list:
    """ureach/2 benchmark: undefined initial answers; edge_1 inserts flip
    reachable pairs to true."""
    nodes = int(scale.get("n", 1000))
    edges = int(scale.get("m", nodes // 2))
    batches = [int(b) for b in str(scale.get("batches", "10,100")).split(",")]
    spec = GraphSpec(nodes, edges, seed)
    base_facts = list(gen_graph_facts(spec))
    reports = []
    for config, source in [
        ("incremental", programs.ureach_program(True, False)),
        ("incremental_abstract", programs.ureach_program(True, True)),
    ]:
        facts = list(base_facts)
        runner = BenchRunner("ureach", config, sink, timeout)
        runner.engine.consult_text(source + "\n".join(facts) + "\n")
        with runner.phase("initial_query") as ph:
            undef = 0
            total = 0
            cur = runner.engine.query("ureach(X,Y)")
            for _, truth in cur:
                total += 1
                if truth == "undefined":
                    undef += 1
            ph.extra.update(answers=total, undefined=undef)
        update_rng = SplitMix64(seed + 13)
        for batch in batches:
            new_facts = [
                f"edge_1({update_rng.below(nodes) + 1},{update_rng.below(nodes) + 1})."
                for _ in range(batch)
            ]
            with runner.phase("update_invalidate", batch=batch):
                for fact in new_facts:
                    runner.engine.store.assert_clause(parse_clause(fact))
            with runner.phase("requery", batch=batch) as ph:
                true_count = 0
                total = 0
                for _, truth in runner.engine.query("ureach(X,Y)"):
                    total += 1
                    if truth == "true":
                        true_count += 1
                ph.extra.update(answers=total, true_answers=true_count)
            if runner.timed_out:
                break
            if oracle and nodes <= 2000:
                fresh = Engine()
                fresh.consult_text(source + "\n".join(facts + new_facts) + "\n")
                want = sorted(
                    (tuple(t.value for t in a), tv)
                    for a, tv in fresh.query("ureach(X,Y)"))
                got = sorted(
                    (tuple(t.value for t in a), tv)
                    for a, tv in runner.engine.query("ureach(X,Y)"))
                if want != got:
                    raise AssertionError(f"oracle mismatch after batch {batch}")
            facts.extend(new_facts)
        reports.extend(runner.reports)
    return reports


def social_answers(engine: Engine, bindings: list) -> dict:
    """Per-binding answer sets (canonical keys) with truth values."""
    from .terms import canonical_tuple_key

    out = {}
    for person in bindings:
        rows = []
        for terms, truth in engine.query(f"good_influence({person},F)"):
            rows.append((canonical_tuple_key(terms), truth))
        out[person] = sorted(rows, key=repr)
    return out


def fresh_social_oracle(facts: list, bindings: list) -> dict:
    """From-scratch evaluation of the final clause set under plain tabling."""
    engine = Engine()
    engine.consult_text(programs.social_program(True, incremental=False))
    for fact in facts:
        engine.store.load_clause(parse_clause(fact))
    return social_answers(engine, bindings)


def run_social(scale: dict, sink=None, timeout=None, seed: int = 1,
               oracle: bool = True) -> list:
    """Social-network benchmark with specialized equality: initial
    good_influence queries, then assert/retract batches per EDB predicate,
    each followed by a requery (compared against a from-scratch oracle at
    small scales unless disabled)."""
    edb_size = int(scale.get("edb", 1000))
    n_queries = int(scale.get("queries", 10))
    batches = [int(b) for b in str(scale.get("batches", "25")).split(",")]
    population = int(scale.get("population", max(50, edb_size // 2)))
    facts = gen_social_edb(edb_size, seed, population)
    source = programs.social_program(specialized_equals=True)
    runner = BenchRunner("social", "incremental_specialized", sink, timeout)
    runner.engine.consult_text(source)
    for fact in facts:
        runner.engine.store.assert_clause(parse_clause(fact))
    rng = SplitMix64(seed + 23)
    bindings = [f"p{rng.below(population) + 1}" for _ in range(n_queries)]
    check_oracle = oracle and edb_size <= 4000

    with runner.phase("initial_query") as ph:
        initial = social_answers(runner.engine, bindings)
        ph.extra["answers"] = sum(len(v) for v in initial.values())
    if runner.timed_out:
        return runner.reports
    if check_oracle:
        base_oracle = fresh_social_oracle(facts, bindings)
        if initial != base_oracle:
            raise AssertionError("initial query disagrees with oracle")
    update_seed = seed + 31
    for pred, shape in EDB_SHAPES.items():
        for batch in batches:
            update_seed += 1
            new_facts = gen_update_facts(pred, shape, batch, update_seed, population)
            with runner.phase("update_invalidate", predicate=pred, batch=batch, op="assert"):
                for fact in new_facts:
                    runner.engine.store.assert_clause(parse_clause(fact))
            with runner.phase("requery", predicate=pred, batch=batch, op="assert") as ph:
                got = social_answers(runner.engine, bindings)
                ph.extra["answers"] = sum(len(v) for v in got.values())
            assert_ok = not runner.reports[-1].timeout
            if check_oracle and assert_ok:
                want = fresh_social_oracle(facts + new_facts, bindings)
                if got != want:
                    raise AssertionError(
                        f"requery after {pred} batch {batch} disagrees with oracle")
            with runner.phase("update_invalidate", predicate=pred, batch=batch, op="retract"):
                for fact in new_facts:
                    runner.engine.store.retract_clause(parse_clause(fact))
            with runner.phase("requery", predicate=pred, batch=batch, op="retract") as ph:
                got = social_answers(runner.engine, bindings)
                ph.extra["answers"] = sum(len(v) for v in got.values())
            if check_oracle and not runner.reports[-1].timeout:
                # retraction restores the base clause set
                if got != base_oracle:
                    raise AssertionError(
                        f"requery after {pred} retract {batch} disagrees with base")
    return runner.reports


BENCHMARKS = {
    "reach": run_reach,
    "ureach": run_ureach,
    "social": run_social,
}


def run_benchmark(name: str, scale: dict, sink=None, timeout=None,
                  seed: int = 1, oracle: bool = True) -> list:
    try:
        fn = BENCHMARKS[name]
    except KeyError:
        raise ValueError(f"unknown benchmark {name!r}; have {sorted(BENCHMARKS)}")
    return fn(scale, sink=sink, timeout=timeout, seed=seed, oracle=oracle)
