"""Randomized agreement suites: engine truth values vs the independent
alternating-fixpoint oracle, and incremental-vs-scratch equivalence.

Smaller editions of the acceptance criteria run in the regular suite;
the full-scale versions live in test_acceptance.py.
"""

import random
from collections import Counter

from incrtab.engine import Engine
from incrtab.parser import parse_clause
from incrtab.terms import Const, format_term

from genprog import (
    fo_atom_text,
    fo_clause_text,
    fo_program_text,
    ground_fo,
    oracle_rules,
    program_text,
    random_fo_dynamic_rule,
    random_fo_fact,
    random_fo_program,
    random_program,
)
from oracle import well_founded_model
from registry import assert_registry_exact


def engine_truth(engine, atom):
    got = engine.solve(Const(atom)).next()
    return "false" if got is None else got[1]


def test_ground_program_agreement_sample():
    rng = random.Random(1)
    for _ in range(120):
        idb, edb, rules = random_program(rng, n_atoms=10, n_rules=20,
                                         allow_undefined=True)
        model = well_founded_model(oracle_rules(rules, []), atoms=idb)
        engine = Engine()
        engine.consult_text(program_text(idb, edb, rules))
        for atom in idb:
            assert engine_truth(engine, atom) == model[atom], (rules, atom)


# s, t, a, b and c form one component: t calls tnot(c), c and b call each
# other, b calls a and a calls tnot(s).  While u is absent, t has no answer,
# so the first true set holds s, which makes a false.  Simplification then
# deletes a, but the positive loop between b and c keeps both conditional:
# only the second overestimate, read against that true set, shows them
# unfounded.  With u present, t and s are undefined, and so are a, b and c.
NEGATIVE_LOOP = [
    ("s", [("neg", "t")]),
    ("t", [("neg", "c"), ("pos", "u")]),
    ("a", [("neg", "s")]),
    ("b", [("pos", "a")]),
    ("b", [("pos", "c")]),
    ("c", [("pos", "b")]),
]


def test_negative_loop_in_one_component_needs_alternation():
    idb = ["s", "t", "a", "b", "c"]
    engine = Engine()
    engine.consult_text(program_text(idb, ["u"], NEGATIVE_LOOP))

    def oracle(edb_facts):
        model = well_founded_model(oracle_rules(NEGATIVE_LOOP, edb_facts))
        return {atom: model[atom] for atom in idb}

    def truths():
        return {atom: engine_truth(engine, atom) for atom in idb}

    without_u, with_u = oracle([]), oracle(["u"])
    assert without_u == {"s": "true", "t": "false", "a": "false", "b": "false",
                         "c": "false"}
    assert with_u == dict.fromkeys(idb, "undefined")
    assert truths() == without_u
    engine.store.assert_clause(parse_clause("u."))
    assert truths() == with_u
    engine.store.retract_clause(parse_clause("u."))
    assert truths() == without_u


def test_incremental_agreement_sample():
    rng = random.Random(2)
    for _ in range(60):
        idb, edb, rules = random_program(rng, n_atoms=8, n_rules=14, n_edb=4,
                                         allow_undefined=True)
        engine = Engine()
        engine.consult_text(program_text(idb, edb, rules))
        facts = Counter()
        for _ in range(rng.randint(2, 20)):
            roll = rng.random()
            if roll < 0.4:
                f = rng.choice(edb)
                engine.store.assert_clause(parse_clause(f + "."))
                facts[f] += 1
            elif roll < 0.7:
                f = rng.choice(edb)
                engine.store.retract_clause(parse_clause(f + "."))
                if facts[f]:
                    facts[f] -= 1
            else:
                live = [f for f in facts if facts[f] > 0]
                model = well_founded_model(oracle_rules(rules, live),
                                           atoms=idb + edb)
                for atom in idb:
                    assert engine_truth(engine, atom) == model[atom], (
                        rules, sorted(facts.items()), atom)
            assert_registry_exact(engine.space)


def test_incremental_matches_fresh_engine_on_structures():
    program = """
:- table reach/2 as incremental.
:- table ureach/2 as incremental.
:- dynamic edge/2 as incremental.
:- dynamic edge_1/2 as incremental.
reach(X,Y) :- edge(X,Y).
reach(X,Y) :- reach(X,Z), edge(Z,Y).
ureach(X,Y) :- ureach(X,Z), edge(Z,Y).
ureach(X,Y) :- edge(X,Y), undefined.
ureach(X,Y) :- edge_1(X,Y).
"""

    def answers(engine, text):
        return sorted(
            (tuple(t.value for t in terms), truth)
            for terms, truth in engine.query(text))

    rng = random.Random(3)
    for _ in range(25):
        engine = Engine()
        engine.consult_text(program)
        current = []
        for _ in range(10):
            roll = rng.random()
            if roll < 0.45 or not current:
                pred = rng.choice(["edge", "edge_1"])
                fact = f"{pred}({rng.randint(1, 5)},{rng.randint(1, 5)})."
                engine.store.assert_clause(parse_clause(fact))
                current.append(fact)
            elif roll < 0.7:
                fact = current.pop(rng.randrange(len(current)))
                engine.store.retract_clause(parse_clause(fact))
            else:
                fresh = Engine()
                fresh.consult_text(program)
                for fact in current:
                    fresh.store.assert_clause(parse_clause(fact))
                for query in ("reach(X,Y)", "ureach(X,Y)"):
                    assert answers(engine, query) == answers(fresh, query)


def _fo_answers(engine, pred, arity, first=None):
    """{atom text: truth} of the query pred(X) / pred(X,Y), or of pred with
    its first argument fixed to the constant first."""
    args = ["X", "Y"][:arity]
    if first is not None:
        args[0] = first
    out = {}
    for terms, truth in engine.query(f"{pred}({','.join(args)})"):
        values = iter(format_term(t) for t in terms)
        ground = [a if a[0].islower() else next(values) for a in args]
        out[fo_atom_text((pred, tuple(ground)))] = truth
    return out


def _check_fo_state(engine, prog, stored, rng):
    """Every tabled predicate's open query, and one query with a bound
    first argument, against the oracle; the O(1) live counts; and the
    simplification registry, after the update and after the queries."""
    assert_registry_exact(engine.space)
    model = well_founded_model(ground_fo(prog, prog.rules + stored))
    for pred, arity in prog.idb.items():
        first = rng.choice(prog.consts)
        expected = {atom: truth for atom, truth in model.items()
                    if truth != "false" and atom.startswith(pred + "(")}
        queries = [(None, expected), (first, {
            atom: truth for atom, truth in expected.items()
            if atom.startswith(f"{pred}({first},") or atom == f"{pred}({first})"})]
        rng.shuffle(queries)
        for bound, want in queries:
            assert _fo_answers(engine, pred, arity, bound) == want, (
                fo_program_text(prog), stored, pred, bound)
    for table in engine.space.tables.values():
        assert table.live_count() == sum(
            1 for a in table.answers.values() if not a.deleted)
    assert_registry_exact(engine.space)


def test_first_order_incremental_agreement():
    """Random first-order programs under interleaved asserts and retracts of
    facts and dynamic rules agree with the oracle after every update; at
    least half of the runs re-open a table (semi-naive re-evaluation)."""
    runs = reopened = 0
    for seed in range(400):
        rng = random.Random(seed)
        prog = random_fo_program(rng, definite=rng.random() < 0.8)
        engine = Engine()
        engine.consult_text(fo_program_text(prog))
        stored = []   # (head, body) of every stored dynamic clause
        for _ in range(rng.randint(2, 6)):
            stored.append((random_fo_fact(rng, prog), []))
            engine.store.assert_clause(parse_clause(fo_clause_text(*stored[-1])))
        _check_fo_state(engine, prog, stored, rng)
        for _ in range(rng.randint(4, 10)):
            roll = rng.random()
            rules = [c for c in stored if c[1]]
            if roll < 0.15 and rules:
                clause = rng.choice(rules)
            elif roll < 0.35:
                clause = (random_fo_fact(rng, prog), [])
                if stored and rng.random() < 0.8:
                    clause = rng.choice(stored)
            else:
                clause = random_fo_dynamic_rule(rng, prog) if roll < 0.45 else None
                clause = clause or (random_fo_fact(rng, prog), [])
                engine.store.assert_clause(parse_clause(fo_clause_text(*clause)))
                stored.append(clause)
                _check_fo_state(engine, prog, stored, rng)
                continue
            token = engine.store.retract_clause(parse_clause(fo_clause_text(*clause)))
            if token.clause is not None:
                stored.remove(clause)
            _check_fo_state(engine, prog, stored, rng)
        runs += 1
        reopened += engine.stats.semi_naive > 0
    assert 2 * reopened >= runs, (reopened, runs)
