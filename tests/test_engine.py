import gc
import random

import pytest

from incrtab import programs
from incrtab.bench import GraphSpec, gen_graph_facts
from incrtab.engine import Engine
from incrtab.errors import (
    EvaluationTimeout,
    ExistenceError,
    InstantiationError,
    PermissionViolation,
)
from incrtab.parser import parse_clause
from incrtab.terms import Const, Var, format_term, mk

from oracle import well_founded_model
from registry import assert_registry_exact


def answers_of(cursor):
    from incrtab.terms import Const, format_term

    out = []
    for terms, truth in cursor:
        out.append((tuple(t.value if isinstance(t, Const) else format_term(t)
                          for t in terms), truth))
    return sorted(out, key=repr)


def truth_of(engine, atom_name):
    got = engine.solve(Const(atom_name)).next()
    return "false" if got is None else got[1]


def test_example_truth_values():
    engine = Engine()
    engine.consult_text("""
:- table p/1, q/1.
p(1).
p(2) :- tnot(q(2)).
p(2) :- tnot(q(3)).
q(X) :- tnot(p(X)).
""")
    assert answers_of(engine.query("p(X)")) == [((1,), "true"), ((2,), "undefined")]


def test_example_delay_lists_stored():
    engine = Engine()
    engine.consult_text("""
:- table p/1, q/1.
p(1).
p(2) :- tnot(q(2)).
p(2) :- tnot(q(3)).
q(X) :- tnot(p(X)).
""")
    list(engine.query("p(X)"))
    table = engine.space.find_table(mk("p", Var("X")))
    answer = next(a for a in table.live_answers() if a.terms == (Const(2),))
    rendered = sorted(dl.render() for dl in answer.delay_lists)
    assert rendered == ["[not q(2)]", "[not q(3)]"]


def test_reach_transitive_closure():
    engine = Engine()
    engine.consult_text("""
:- table reach/2.
:- dynamic e/2.
reach(X,Y) :- e(X,Y).
reach(X,Y) :- reach(X,Z), e(Z,Y).
e(1,2). e(2,3).
""")
    # brute-force oracle: closure of {(1,2),(2,3)}
    edges = {(1, 2), (2, 3)}
    closure = set(edges)
    while True:
        extra = {(a, d) for (a, b) in closure for (c, d) in edges if b == c}
        if extra <= closure:
            break
        closure |= extra
    assert answers_of(engine.query("reach(X,Y)")) == sorted(
        (pair, "true") for pair in closure)


def test_solve_no_clauses_completes_empty():
    engine = Engine()
    engine.consult_text(":- table p/1.\n:- table q/1.\nq(X) :- p(X).\n")
    assert answers_of(engine.query("p(X)")) == []
    assert answers_of(engine.query("q(X)")) == []


def test_solve_unknown_predicate():
    engine = Engine()
    with pytest.raises(ExistenceError):
        engine.query("mystery(X)")


def test_tnot_nonground_instantiation_error():
    engine = Engine()
    engine.consult_text(
        ":- table p/1, q/1.\np(X) :- q(X).\nq(1).\n"
        ":- table r/1.\nr(X) :- tnot(p(X)).\n")
    with pytest.raises(InstantiationError):
        list(engine.query("r(X)"))


def test_tnot_empty_table_succeeds():
    engine = Engine()
    engine.consult_text(":- table r/1, p/0.\np :- tnot(r(1)).\n")
    assert answers_of(engine.query("p")) == [((), "true")]


def test_sk_not_skolemizes():
    engine = Engine()
    engine.consult_text("""
:- table related/2.
related(a,b).
ok(X) :- sk_not(related(X,Y)).
""")
    # sk_not(related('$sk1','$sk2')) has no answers: succeeds
    assert answers_of(engine.query("ok(c)")) == [((), "true")]


def test_undefined_builtin_conditional_answer():
    engine = Engine()
    engine.consult_text("""
:- table u/1.
:- dynamic e/1.
u(X) :- e(X), undefined.
e(1).
""")
    assert answers_of(engine.query("u(X)")) == [((1,), "undefined")]


def test_undefined_strengthened_by_second_route():
    engine = Engine()
    engine.consult_text("""
:- table u/1.
:- dynamic e/1, f/1.
u(X) :- e(X), undefined.
u(X) :- f(X).
e(1). f(1). e(2).
""")
    assert answers_of(engine.query("u(X)")) == [((1,), "true"), ((2,), "undefined")]


def test_negative_loop_all_undefined():
    engine = Engine()
    engine.consult_text("""
:- table win/1.
:- dynamic move/2.
win(X) :- move(X,Y), tnot(win(Y)).
move(1,2). move(2,3). move(3,1).
""")
    # alternating-fixpoint oracle on the ground 3-cycle
    rules = [(f"win{a}", [("pos", f"move{a}{b}"), ("neg", f"win{b}")])
             for a, b in [(1, 2), (2, 3), (3, 1)]]
    rules += [(f"move{a}{b}", []) for a, b in [(1, 2), (2, 3), (3, 1)]]
    model = well_founded_model(rules)
    for x in (1, 2, 3):
        got = engine.solve(mk("win", x)).next()
        truth = "false" if got is None else got[1]
        assert truth == model[f"win{x}"] == "undefined"


def test_win_with_sink_positions():
    engine = Engine()
    engine.consult_text("""
:- table win/1.
:- dynamic move/2.
win(X) :- move(X,Y), tnot(win(Y)).
move(1,2). move(2,1). move(1,3).
""")
    # 3 is a sink: lost; so win(1) true, win(2) follows the loop through 1
    assert answers_of(engine.query("win(1)")) == [((), "true")]
    assert answers_of(engine.query("win(3)")) == []
    assert answers_of(engine.query("win(2)")) == []


def test_stratified_negation_two_valued():
    engine = Engine()
    engine.consult_text("""
:- table p/1, q/1.
:- dynamic e/1.
p(X) :- e(X), tnot(q(X)).
q(1).
e(1). e(2).
""")
    assert answers_of(engine.query("p(X)")) == [((2,), "true")]


def test_table_hit_no_rederivation():
    engine = Engine()
    engine.consult_text("""
:- table reach/2.
:- dynamic e/2.
reach(X,Y) :- e(X,Y).
reach(X,Y) :- reach(X,Z), e(Z,Y).
e(1,2). e(2,3).
""")
    first = answers_of(engine.query("reach(X,Y)"))
    steps = engine.stats.steps
    second = answers_of(engine.query("reach(X,Y)"))
    assert first == second
    assert engine.stats.steps == steps


def test_subgoal_abstraction_bounds_tables():
    engine = Engine()
    engine.consult_text("""
:- table deep/1, subgoal_abstract(2).
deep(X) :- deep(f(X)).
""")
    # calls grow deeper on every recursion; abstraction folds them into a
    # bounded set of variant subgoals, so evaluation terminates (with no
    # answers: the recursion has no base case)
    assert answers_of(engine.query("deep(a)")) == []
    assert len(engine.space.tables) < 8


def test_answer_abstraction_restrains_deep_answers():
    engine = Engine()
    engine.consult_text("""
:- table grow/1, answer_abstract(3).
:- dynamic seed/1.
grow(f(X)) :- grow(X).
grow(X) :- seed(X).
seed(a).
""")
    results = answers_of(engine.query("grow(X)"))
    assert ((("a",),) and results)
    # shallow answers stay true; deep ones are restrained to undefined
    undefined = [r for r in results if r[1] == "undefined"]
    true = [r for r in results if r[1] == "true"]
    assert undefined and true
    assert len(results) < 12


def test_answer_abstraction_dedups_to_single_conditional():
    engine = Engine()
    engine.consult_text("""
:- table t/1, answer_abstract(1).
:- dynamic s/1.
t(X) :- s(X).
s(f(g(a))).
s(f(g(b))).
""")
    results = answers_of(engine.query("t(X)"))
    # both deep answers abstract to f(V): one conditional answer
    assert len(results) == 1
    assert results[0][1] == "undefined"
    table = engine.space.find_table(mk("t", Var("X")))
    answer = next(iter(table.live_answers()))
    assert len(answer.delay_lists) == 1  # restraint mark deduplicated


def test_answer_abstraction_within_depth_unchanged():
    engine = Engine()
    engine.consult_text("""
:- table t/1, answer_abstract(3).
:- dynamic s/1.
t(X) :- s(X).
s(f(a)).
""")
    assert answers_of(engine.query("t(X)")) == [(("f(a)",), "true")]


def test_cut_once_like():
    engine = Engine()
    engine.consult_text("""
:- table first/1.
:- dynamic e/1.
first(X) :- e(X), !.
e(1). e(2). e(3).
""")
    assert len(answers_of(engine.query("first(X)"))) == 1


def test_cut_not_final_literal_rejected():
    engine = Engine()
    with pytest.raises(PermissionViolation):
        engine.consult_text(
            ":- table a/1.\n:- dynamic e/1.\na(X) :- !, e(X).\n")


def test_builtin_unify_and_not_unify():
    engine = Engine()
    engine.consult_text("""
pair(X,Y) :- X = f(Y).
diff(X,Y) :- X \\= Y.
""")
    assert answers_of(engine.query("pair(Z,a)")) == [(("f(a)",), "true")]
    assert answers_of(engine.query("diff(a,b)")) == [((), "true")]
    assert answers_of(engine.query("diff(a,a)")) == []


def test_builtin_atomic():
    engine = Engine()
    engine.consult_text("at(X) :- atomic(X).\n")
    assert answers_of(engine.query("at(a)")) == [((), "true")]
    assert answers_of(engine.query("at(f(a))")) == []


def test_incremental_calls_non_incremental_table_rejected():
    engine = Engine()
    with pytest.raises(PermissionViolation):
        engine.consult_text("""
:- table a/1 as incremental.
:- table b/1.
a(X) :- b(X).
b(1).
""")


def test_driver_wraps_non_tabled_goal():
    engine = Engine()
    engine.consult_text("""
:- table r/2 as incremental.
:- dynamic e/2 as incremental.
r(X,Y) :- e(X,Y).
helper(X) :- r(X,Y), r(Y,X).
e(1,2). e(2,1).
""")
    assert answers_of(engine.query("helper(X)")) == [((1,), "true"), ((2,), "true")]
    # the driver is incremental: an update flows through to the requery
    engine.store.retract_clause(parse_clause("e(2,1)."))
    assert answers_of(engine.query("helper(X)")) == []


def test_driver_cache_reuses_variants_and_separates_bodies():
    engine = Engine()
    engine.consult_text("""
p(1). p(2).
q(2). q(3).
""")

    def drivers():
        return [row for row in engine.space.snapshot() if "$query" in row["subgoal"]]

    assert answers_of(engine.query("p(X)")) == [((1,), "true"), ((2,), "true")]
    assert len(drivers()) == 1
    # a variant of the same non-tabled query reuses its driver table
    assert answers_of(engine.query("p(Y)")) == [((1,), "true"), ((2,), "true")]
    assert len(drivers()) == 1
    # conjunction and disjunction of the same literals get their own drivers
    assert answers_of(engine.query("p(X), q(X)")) == [((2,), "true")]
    assert answers_of(engine.query("p(X) ; q(X)")) == [
        ((1,), "true"), ((2,), "true"), ((3,), "true")]
    assert len(drivers()) == 3
    assert answers_of(engine.query("p(X), q(X)")) == [((2,), "true")]
    assert len(drivers()) == 3


def _observe(program, goal, update=None):
    """What an engine shows after one query, and after an assert and a
    requery when update is given; serials included."""
    from incrtab.terms import format_term

    engine = Engine()
    engine.consult_text(program)
    list(engine.query(goal))
    invalid = []
    if update is not None:
        engine.store.assert_clause(parse_clause(update))
        invalid = [(format_term(n.table.subgoal), n.serial, n.falsecount)
                   for n in engine.last_invalid_list]
        list(engine.query(goal))
    tables = list(engine.space.tables.values())
    nodes = sorted(n.serial for n in engine.idg.nodes.values())
    return {
        "tables": [(t.serial, format_term(t.subgoal)) for t in tables],
        "nodes": nodes,
        "snapshot": engine.space.snapshot(),
        "edges": engine.idg.dump_edges(),
        "invalid": invalid,
        "delays": [(t.serial, [(dl.render(), dl.canonical())
                               for a in t.answers.values()
                               for dl in a.delay_lists])
                   for t in tables],
    }


def test_serials_are_per_engine():
    """Table and IDG serials start at 1 in every engine, so what one engine
    shows does not depend on the engines that ran before it."""
    from incrtab import programs

    sessions = [(programs.P_INC, "t_1(X)", "p(g(2))."),
                (programs.CONDITIONAL_EXAMPLE, "p(X)")]
    forward = [_observe(*s) for s in sessions]
    backward = [_observe(*s) for s in reversed(sessions)][::-1]
    assert forward == backward
    p_inc, conditional = forward
    assert p_inc["tables"][0][0] == p_inc["nodes"][0] == 1
    assert p_inc["invalid"] == [("t_5(X)", 3, 1), ("t_4(X)", 2, 1),
                                ("t_1(X)", 1, 1)]
    assert conditional["tables"][0][0] == 1 and conditional["nodes"] == []
    assert any(delays for _, delays in conditional["delays"])


# -- clause renaming: only clauses with variables are renamed -----------------------

TWICE = {
    "static": ":- table p/2.\ne(X, f(X)).\n",
    "dynamic": ":- table p/2.\n:- dynamic e/2.\ne(X, f(X)).\n",
}


@pytest.mark.parametrize("code", sorted(TWICE))
def test_non_ground_fact_used_twice_keeps_its_variables_apart(code):
    engine = Engine()
    engine.consult_text(TWICE[code] + "p(A,C) :- e(A,B), e(B,C).\n")
    assert answers_of(engine.query("p(1,C)")) == [(("f(f(1))",), "true")]


def test_non_ground_delta_fact_keeps_its_variables_apart():
    engine = Engine()
    engine.consult_text(":- table p/2 as incremental.\n"
                        ":- dynamic e/2 as incremental.\n"
                        "p(A,C) :- e(A,B), e(B,C).\n"
                        "e(0,0).\n")
    assert answers_of(engine.query("p(1,C)")) == []
    engine.store.assert_clause(parse_clause("e(X, f(X))."))
    assert answers_of(engine.query("p(1,C)")) == [(("f(f(1))",), "true")]
    assert engine.stats.semi_naive == 1


NON_GROUND_ANSWER = """
:- table t/1, q/0, q2/2.
t(f(_)).
q :- t(X), t(Y), X = f(1), Y = f(2).
q2(X,Y) :- t(X), t(Y).
"""


@pytest.mark.parametrize("provider", ["completed", "incomplete"])
def test_non_ground_answer_used_twice_keeps_its_variables_apart(provider):
    """Each use of a non-ground answer gets its own variables, whether the
    answer comes from a completed table or one still being evaluated."""
    engine = Engine()
    engine.consult_text(NON_GROUND_ANSWER)
    if provider == "completed":
        assert len(list(engine.query("t(X)"))) == 1
    assert truth_of(engine, "q") == "true"
    [(terms, truth)] = list(engine.query("q2(X,Y)"))
    a, b = terms
    assert truth == "true" and a.functor == b.functor == "f"
    assert type(a.args[0]) is type(b.args[0]) is Var
    assert a.args[0] is not b.args[0]


def test_ground_facts_are_resolved_without_renaming(monkeypatch):
    import incrtab.program

    renamed = []
    original = incrtab.program.rename_clause

    def counting_rename_clause(head, body):
        renamed.append(head)
        return original(head, body)

    monkeypatch.setattr(incrtab.program, "rename_clause", counting_rename_clause)
    engine = Engine()
    engine.consult_text(":- table e/2, p/1.\n"
                        ":- dynamic d/2.\n"
                        "e(1,2). e(1,3). e(2,4).\n"
                        "d(1,5). d(1,6).\n"
                        "p(Y) :- e(1,X), d(1,Y).\n")
    assert answers_of(engine.query("e(1,X)")) == [((2,), "true"), ((3,), "true")]
    assert renamed == []
    assert answers_of(engine.query("p(Y)")) == [((5,), "true"), ((6,), "true")]
    assert [format_term(head) for head in renamed] == ["p(Y)"]  # the rule only


# -- the cyclic collector across an evaluation ---------------------------------

CHAIN = ":- table reach/2.\n:- dynamic edge/2.\n" \
    "reach(X,Y) :- edge(X,Y).\nreach(X,Y) :- reach(X,Z), edge(Z,Y).\n" \
    + "".join(f"edge({i},{i + 1}).\n" for i in range(1, 30))


@pytest.fixture
def collector_state():
    """The collector's state before the test; restored after it."""
    state = (gc.isenabled(), gc.get_threshold())
    gc.enable()
    yield gc.isenabled(), gc.get_threshold()
    gc.set_threshold(*state[1])
    (gc.enable if state[0] else gc.disable)()


def test_query_leaves_collector_state(collector_state):
    engine = Engine()
    engine.consult_text(CHAIN)
    assert len(list(engine.query("reach(X,Y)"))) == 29 * 30 // 2
    assert (gc.isenabled(), gc.get_threshold()) == collector_state


def test_timed_out_query_leaves_collector_state(collector_state):
    engine = Engine()
    engine.consult_text(CHAIN)
    engine.set_deadline(1e-9)
    with pytest.raises(EvaluationTimeout):
        list(engine.query("reach(X,Y)"))
    assert (gc.isenabled(), gc.get_threshold()) == collector_state


def test_interrupted_query_leaves_collector_state(collector_state, monkeypatch):
    engine = Engine()
    engine.consult_text(CHAIN)
    original_step = Engine._step
    steps = []

    def interrupting_step(self, evaluation, cont):
        steps.append(cont)
        if len(steps) == 5:
            raise KeyboardInterrupt
        return original_step(self, evaluation, cont)

    with monkeypatch.context() as patch:
        patch.setattr(Engine, "_step", interrupting_step)
        with pytest.raises(KeyboardInterrupt):
            list(engine.query("reach(X,Y)"))
    assert (gc.isenabled(), gc.get_threshold()) == collector_state
    assert len(list(engine.query("reach(X,Y)"))) == 29 * 30 // 2


def test_query_keeps_collector_disabled_by_caller(collector_state):
    engine = Engine()
    engine.consult_text(CHAIN)
    gc.disable()
    list(engine.query("reach(X,Y)"))
    assert not gc.isenabled()


def test_collector_is_paused_during_evaluation(collector_state, monkeypatch):
    engine = Engine()
    engine.consult_text(CHAIN)
    seen = set()
    original_step = Engine._step

    def recording_step(self, evaluation, cont):
        seen.add(gc.isenabled())
        return original_step(self, evaluation, cont)

    monkeypatch.setattr(Engine, "_step", recording_step)
    list(engine.query("reach(X,Y)"))
    assert seen == {False}
    assert gc.isenabled()


CHURN_PROGRAMS = pytest.mark.parametrize("program, goal, update_pred", [
    (programs.reach_program(incremental=True), "reach(X,Y)", "edge"),
    (programs.ureach_program(incremental=True, abstraction=True),
     "ureach(X,Y)", "edge_1"),
], ids=["reach", "ureach"])


def churn_cycles(program, goal, update_pred, cycles):
    """An engine over a 60-node, 300-edge graph, yielded after each of
    cycles assert/requery/retract/requery cycles of 20 facts, with a cursor
    held over the assert."""
    engine = Engine()
    engine.consult_text(program + "\n".join(gen_graph_facts(GraphSpec(60, 300, 7))))
    base = answers_of(engine.query(goal))
    rng = random.Random(7)
    gc.collect()
    for _ in range(cycles):
        batch = [parse_clause(f"{update_pred}({rng.randint(1, 60)},{rng.randint(1, 60)}).")
                 for _ in range(20)]
        held = engine.query(goal)
        for clause in batch:
            engine.store.assert_clause(clause)
        assert len(answers_of(engine.query(goal))) >= len(base)
        assert answers_of(held) == base
        for clause in batch:
            engine.store.retract_clause(clause)
        assert answers_of(engine.query(goal)) == base
        yield engine


@CHURN_PROGRAMS
def test_churn_leaves_no_cyclic_garbage(collector_state, program, goal, update_pred):
    """Evaluations make no reference cycles for the paused collector to
    leave behind: after each cycle, a full collection finds nothing."""
    for _ in churn_cycles(program, goal, update_pred, 5):
        assert gc.collect() == 0


@CHURN_PROGRAMS
def test_churn_keeps_heap_flat(collector_state, program, goal, update_pred):
    """The tables' memory follows the live tables, not the update history:
    over 8 cycles, the simplification registry holds exactly the live
    answers' entries, and after a full collection the heap of cycle 8 is
    the size of cycle 2's."""
    sizes = []
    for engine in churn_cycles(program, goal, update_pred, 8):
        assert_registry_exact(engine.space)
        gc.collect()
        entries = sum(len(refs) for refs in engine.space.backrefs.values())
        sizes.append((len(gc.get_objects()), entries))
    (objects_2, entries_2), (objects_8, entries_8) = sizes[1], sizes[7]
    assert entries_8 == entries_2
    assert objects_8 <= objects_2 + 500, sizes


TNOT_LOOP = """
:- table p/1 as incremental.
:- table q/1 as incremental.
:- dynamic f/1 as incremental.
p(X) :- f(X), tnot(q(X)).
q(X) :- f(X), tnot(p(X)).
"""


def registry_tables(engine):
    return {table for refs in engine.space.backrefs.values()
            for table, _ in refs.values()}


def test_abolished_tables_leave_the_registry():
    engine = Engine()
    engine.consult_text(TNOT_LOOP + "f(1). f(2). f(3).\n")
    assert {truth for _, truth in engine.query("p(X)")} == {"undefined"}
    assert sum(len(refs) for refs in engine.space.backrefs.values()) == 9
    engine.abolish_table(mk("p", Var("X")))
    assert registry_tables(engine) <= set(engine.space.tables.values())
    assert_registry_exact(engine.space)
    for table in list(engine.space.tables.values()):
        engine.abolish_table(table.subgoal)
    assert engine.space.tables == {}
    assert engine.space.backrefs == {}
    assert answers_of(engine.query("q(X)")) == [
        ((i,), "undefined") for i in (1, 2, 3)]
    assert_registry_exact(engine.space)


def test_unwound_tables_leave_the_registry(monkeypatch):
    engine = Engine()
    engine.consult_text(TNOT_LOOP + "".join(f"f({i}).\n" for i in range(1, 21)))
    original_step = Engine._step
    steps = []

    def timing_out_step(self, evaluation, cont):
        steps.append(cont)
        if len(steps) == 100:
            assert self.space.backrefs  # conditional answers are registered
            raise EvaluationTimeout("evaluation deadline exceeded")
        return original_step(self, evaluation, cont)

    with monkeypatch.context() as patch:
        patch.setattr(Engine, "_step", timing_out_step)
        with pytest.raises(EvaluationTimeout):
            list(engine.query("p(X)"))
    assert registry_tables(engine) <= set(engine.space.tables.values())
    assert_registry_exact(engine.space)
    assert len(answers_of(engine.query("p(X)"))) == 20
    assert_registry_exact(engine.space)
