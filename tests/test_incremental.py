"""Update pipeline behavior: laziness, re-evaluation outcomes, the five
informational cases, and abolish."""

import pytest

from incrtab.engine import Engine
from incrtab.errors import ExistenceError, InternalStateError, PermissionViolation
from incrtab.idg import Idg
from incrtab.parser import parse_clause
from incrtab.program import Clause
from incrtab.tables import TableSpace
from incrtab.terms import Const, Var, format_term, mk


def answers_of(cursor):
    from incrtab.terms import Const, format_term

    return sorted(
        (tuple(t.value if isinstance(t, Const) else format_term(t) for t in terms), truth)
        for terms, truth in cursor)


def node_of(engine, goal_text):
    from incrtab.parser import parse_goal

    bodies, _ = parse_goal(goal_text)
    table = engine.space.find_table(bodies[0][0].atom)
    return table.idg_node


REACH = """
:- table reach/2 as incremental.
:- dynamic edge/2 as incremental.
reach(X,Y) :- edge(X,Y).
reach(X,Y) :- reach(X,Z), edge(Z,Y).
edge(1,2). edge(2,3).
"""


def test_on_update_invalidates_lazily():
    engine = Engine()
    engine.consult_text(REACH)
    list(engine.query("reach(X,Y)"))
    steps = engine.stats.steps
    engine.store.assert_clause(parse_clause("edge(3,4)."))
    assert engine.stats.steps == steps
    node = node_of(engine, "reach(X,Y)")
    assert node.invalid
    assert answers_of(engine.query("reach(X,Y)")) == answers_of_closure(
        {(1, 2), (2, 3), (3, 4)})
    assert not node.invalid


def answers_of_closure(edges):
    closure = set(edges)
    while True:
        extra = {(a, d) for (a, b) in closure for (c, d) in closure if b == c}
        if extra <= closure:
            break
        closure |= extra
    return sorted(((pair, "true") for pair in closure), key=repr)


def test_reeval_outcome_counts():
    engine = Engine()
    engine.consult_text(REACH)
    list(engine.query("reach(X,Y)"))
    engine.store.assert_clause(parse_clause("edge(3,4)."))
    node = node_of(engine, "reach(X,Y)")
    outcome = engine.incremental_reeval(node)
    assert outcome.changed
    assert outcome.old_count == 3
    assert outcome.new_count == 6


def test_net_noop_update_propagates_validity():
    engine = Engine()
    engine.consult_text(REACH)
    list(engine.query("reach(X,Y)"))
    engine.store.assert_clause(parse_clause("edge(9,9)."))
    engine.store.retract_clause(parse_clause("edge(9,9)."))
    node = node_of(engine, "reach(X,Y)")
    assert node.invalid
    outcome = engine.incremental_reeval(node)
    assert not outcome.changed
    assert answers_of(engine.query("reach(X,Y)")) == answers_of_closure(
        {(1, 2), (2, 3)})


def test_drain_restores_all_falsecounts():
    engine = Engine()
    engine.consult_text("""
:- table a/1, b/1, c/1 as incremental.
:- dynamic e/1 as incremental.
a(X) :- b(X).
b(X) :- c(X).
c(X) :- e(X).
e(1).
""")
    list(engine.query("a(X)"))
    engine.store.assert_clause(parse_clause("e(2)."))
    invalid = list(engine.last_invalid_list)
    assert [format_term(n.table.subgoal) for n in invalid] == ["c(X)", "b(X)", "a(X)"]
    list(engine.query("a(X)"))
    assert all(n.falsecount == 0 for n in invalid)


def test_unchanged_dependency_prevents_parent_reeval():
    engine = Engine()
    engine.consult_text("""
:- table top/1, mid/1 as incremental.
:- dynamic e/1, f/1 as incremental.
mid(X) :- e(X), f(X).
top(X) :- mid(X).
e(1). f(1).
""")
    list(engine.query("top(X)"))
    # e(2) has no matching f: mid is re-derived unchanged, top is revalidated
    # by propagation and never re-derived
    engine.store.assert_clause(parse_clause("e(2)."))
    reevals = engine.stats.reevals
    list(engine.query("top(X)"))
    assert engine.stats.reevals == reevals + 1  # mid only


# -- the five informational cases ---------------------------------------------

UNDEF_PAIR = """
:- table p/1, u1/0, u2/0 as incremental.
:- dynamic e/1, f/1 as incremental.
p(X) :- e(X), tnot(u1).
p(X) :- f(X), tnot(u2).
u1 :- tnot(u1).
u2 :- tnot(u2).
"""


def p_answer(engine):
    table = engine.space.find_table(mk("p", Var("X")))
    answers = list(table.live_answers())
    return answers[0] if answers else None


def test_weakening_1_no_answer_to_conditional():
    engine = Engine()
    engine.consult_text(UNDEF_PAIR)
    assert answers_of(engine.query("p(X)")) == []
    engine.store.assert_clause(parse_clause("e(1)."))
    node = node_of(engine, "p(X)")
    outcome = engine.incremental_reeval(node)
    assert outcome.changed and outcome.new_count == 1
    assert node.new_answer
    assert answers_of(engine.query("p(X)")) == [((1,), "undefined")]


def test_weakening_2_unconditional_to_conditional():
    engine = Engine()
    engine.consult_text("""
:- table p/1, u1/0 as incremental.
:- dynamic e/1, f/1 as incremental.
p(X) :- e(X).
p(X) :- f(X), tnot(u1).
u1 :- tnot(u1).
e(1). f(1).
""")
    assert answers_of(engine.query("p(X)")) == [((1,), "true")]
    engine.store.retract_clause(parse_clause("e(1)."))
    node = node_of(engine, "p(X)")
    outcome = engine.incremental_reeval(node)
    assert outcome.changed
    assert outcome.weakened == 1
    assert node.new_answer  # weakening forces new_answer upstream
    assert answers_of(engine.query("p(X)")) == [((1,), "undefined")]


def test_no_informational_change_propagates_validity():
    engine = Engine()
    engine.consult_text(UNDEF_PAIR)
    engine.store.assert_clause(parse_clause("e(1)."))
    assert answers_of(engine.query("p(X)")) == [((1,), "undefined")]
    answer = p_answer(engine)
    assert len(answer.delay_lists) == 1
    engine.store.assert_clause(parse_clause("f(1)."))
    node = node_of(engine, "p(X)")
    outcome = engine.incremental_reeval(node)
    assert not outcome.changed  # same substitution count, no new answer
    assert node.falsecount == 0
    answer = p_answer(engine)
    assert len(answer.delay_lists) == 2  # conditional_added branch taken
    assert answers_of(engine.query("p(X)")) == [((1,), "undefined")]


def test_strengthening_1_conditional_to_true():
    engine = Engine()
    engine.consult_text("""
:- table p/1, u1/0 as incremental.
:- dynamic e/1, f/1 as incremental.
p(X) :- e(X), tnot(u1).
p(X) :- f(X).
u1 :- tnot(u1).
e(1).
""")
    assert answers_of(engine.query("p(X)")) == [((1,), "undefined")]
    engine.store.assert_clause(parse_clause("f(1)."))
    before = engine.space.stats["strengthened"]
    node = node_of(engine, "p(X)")
    outcome = engine.incremental_reeval(node)
    assert engine.space.stats["strengthened"] > before  # simplification fired
    assert not outcome.changed  # same substitution set: validity propagated
    assert answers_of(engine.query("p(X)")) == [((1,), "true")]


def test_strengthening_2_conditional_to_false():
    engine = Engine()
    engine.consult_text(UNDEF_PAIR)
    engine.store.assert_clause(parse_clause("e(1)."))
    assert answers_of(engine.query("p(X)")) == [((1,), "undefined")]
    engine.store.retract_clause(parse_clause("e(1)."))
    before = engine.space.stats["simplifications"]
    node = node_of(engine, "p(X)")
    outcome = engine.incremental_reeval(node)
    assert outcome.changed and outcome.removed == 1
    assert engine.space.stats["simplifications"] > before  # simplification fired
    assert answers_of(engine.query("p(X)")) == []


def test_simplification_cascade_through_valid_table():
    # q depends on p's answer only through a delay literal; when a re-derived
    # p strengthens, q is fixed by simplification without re-derivation
    engine = Engine()
    engine.consult_text("""
:- table p/0, q/0, u1/0 as incremental.
:- dynamic e/0, f/0 as incremental.
p :- e, tnot(u1).
p :- f.
q :- tnot(p).
u1 :- tnot(u1).
e.
""")
    assert answers_of(engine.query("q")) == [((), "undefined")]
    engine.store.assert_clause(parse_clause("f."))
    assert answers_of(engine.query("p")) == [((), "true")]
    # q's table was never re-derived, its conditional answer was deleted
    # by the cascade when p became true
    assert answers_of(engine.query("q")) == []


EXAMPLE_WITH_EDB = """
:- table p/1, q/1 as incremental.
:- dynamic d/1, dq/1 as incremental.
p(1).
p(2) :- tnot(q(2)).
p(2) :- tnot(q(3)).
p(X) :- d(X).
q(X) :- tnot(p(X)).
q(X) :- dq(X).
"""


def test_update_forces_q2_false_strengthens_p2():
    engine = Engine()
    engine.consult_text(EXAMPLE_WITH_EDB)
    assert answers_of(engine.query("p(X)")) == [((1,), "true"), ((2,), "undefined")]
    # d(2) gives p(2) an unconditional route; q(2) :- tnot(p(2)) goes false
    # and the delay literal [not q(2)] is satisfied
    engine.store.assert_clause(parse_clause("d(2)."))
    assert answers_of(engine.query("p(X)")) == [((1,), "true"), ((2,), "true")]
    assert answers_of(engine.query("q(2)")) == []


def test_update_forces_both_lists_false_removes_p2():
    engine = Engine()
    engine.consult_text(EXAMPLE_WITH_EDB)
    assert answers_of(engine.query("p(X)")) == [((1,), "true"), ((2,), "undefined")]
    # q(2) becomes unconditionally true: both delay lists of p(2) are now
    # falsified ([not q(3)] was dead already) and the answer is removed
    engine.store.assert_clause(parse_clause("dq(2)."))
    assert answers_of(engine.query("p(X)")) == [((1,), "true")]
    assert answers_of(engine.query("q(2)")) == [((), "true")]


def test_abolish_table_recomputes_from_scratch():
    engine = Engine()
    engine.consult_text(REACH)
    before = answers_of(engine.query("reach(X,Y)"))
    engine.abolish_table(mk("reach", Var("X"), Var("Y")))
    assert engine.space.find_table(mk("reach", Var("A"), Var("B"))) is None
    assert answers_of(engine.query("reach(X,Y)")) == before


def test_abolish_invalidates_upstream():
    engine = Engine()
    engine.consult_text("""
:- table a/1, b/1 as incremental.
:- dynamic e/1 as incremental.
a(X) :- b(X).
b(X) :- e(X).
e(1).
""")
    list(engine.query("a(X)"))
    engine.abolish_table(mk("b", Var("X")))
    node = node_of(engine, "a(X)")
    assert node.falsecount >= 1
    assert answers_of(engine.query("a(X)")) == [((1,), "true")]


def test_abolish_unknown_table():
    engine = Engine()
    engine.consult_text(REACH)
    with pytest.raises(ExistenceError):
        engine.abolish_table(mk("reach", Var("X"), Var("Y")))


LEN = """
:- table len/2 as incremental.
:- dynamic lst/1 as incremental.
len(X,N) :- lst(X), N = 1.
lst(nil).
"""


def fail_leaf_matching(self, pred, head):
    raise RuntimeError("injected leaf-matching failure")


def test_failed_assert_stores_nothing(monkeypatch):
    engine = Engine()
    engine.consult_text(LEN)
    before = answers_of(engine.query("len(X,N)"))
    with monkeypatch.context() as patch:
        patch.setattr(Idg, "leaves_matching", fail_leaf_matching)
        with pytest.raises(RuntimeError):
            engine.store.assert_clause(parse_clause("lst(a)."))
    assert len(engine.store.clauses[("lst", 1)].items) == 1
    assert answers_of(engine.query("len(X,N)")) == before
    engine.store.assert_clause(parse_clause("lst(a)."))
    assert answers_of(engine.query("len(X,N)")) == [
        (("a", 1), "true"), (("nil", 1), "true")]


def test_failed_retract_keeps_clause(monkeypatch):
    engine = Engine()
    engine.consult_text(LEN + "lst(a).\n")
    before = answers_of(engine.query("len(X,N)"))
    assert len(before) == 2
    with monkeypatch.context() as patch:
        patch.setattr(Idg, "leaves_matching", fail_leaf_matching)
        with pytest.raises(RuntimeError):
            engine.store.retract_clause(parse_clause("lst(a)."))
    assert len(engine.store.clauses[("lst", 1)].items) == 2
    assert answers_of(engine.query("len(X,N)")) == before
    engine.store.retract_clause(parse_clause("lst(a)."))
    assert answers_of(engine.query("len(X,N)")) == [(("nil", 1), "true")]


def test_recursion_error_leaves_no_incomplete_table():
    engine = Engine()
    engine.consult_text(":- table len/2.\nlen(X,N) :- lst(X), N = 1.\n")
    deep = Const("nil")
    for _ in range(5000):
        deep = mk("s", deep)
    engine.store.load_clause(Clause(mk("lst", deep), []))
    outcomes = []
    for _ in range(2):
        try:
            outcomes.append(answers_of(engine.query("len(X,N)")))
        except RecursionError:
            outcomes.append(RecursionError)
        assert all(row["status"] != "incomplete" for row in engine.space.snapshot())
    assert outcomes[0] == outcomes[1]


def test_interrupt_during_lazy_reeval_leaves_engine_usable(monkeypatch):
    engine = Engine()
    engine.consult_text(REACH)
    list(engine.query("reach(X,Y)"))
    engine.store.assert_clause(parse_clause("edge(3,4)."))
    steps = []
    original_step = Engine._step

    def interrupting_step(self, evaluation, cont):
        steps.append(cont)
        if len(steps) == 3:
            raise KeyboardInterrupt
        return original_step(self, evaluation, cont)

    with monkeypatch.context() as patch:
        patch.setattr(Engine, "_step", interrupting_step)
        with pytest.raises(KeyboardInterrupt):
            list(engine.query("reach(X,Y)"))
    assert engine.stats.reevals == 1
    assert all(row["status"] != "incomplete" for row in engine.space.snapshot())
    fresh = Engine()
    fresh.consult_text(REACH + "edge(3,4).\n")
    for goal in ("reach(X,Y)", "reach(1,Y)", "reach(X,Y)"):
        assert answers_of(engine.query(goal)) == answers_of(fresh.query(goal))


def test_interrupt_while_settling_drops_the_component(monkeypatch):
    """p's answer is conditional on tnot(q) until the component {p, q}
    completes, and strengthened to true when it settles; interrupted there,
    the component is dropped, not kept half settled."""
    program = ":- table p/0, q/0, r/0.\np :- tnot(q).\nq :- tnot(p), r.\n"
    engine = Engine()
    engine.consult_text(program)
    original = TableSpace.strengthen_answer

    def interrupting(self, table, answer):
        monkeypatch.setattr(TableSpace, "strengthen_answer", original)
        raise KeyboardInterrupt

    monkeypatch.setattr(TableSpace, "strengthen_answer", interrupting)
    with pytest.raises(KeyboardInterrupt):
        engine.query("p")
    assert TableSpace.strengthen_answer is original
    # r, its own component, was settled first; p and q were not
    assert [row["subgoal"] for row in engine.space.snapshot()] == ["r"]
    assert answers_of(engine.query("p")) == [((), "true")]


def test_query_during_evaluation_is_refused(monkeypatch):
    engine = Engine()
    engine.consult_text(REACH)
    refused = []
    original_step = Engine._step

    def reentering_step(self, evaluation, cont):
        if not refused:
            with pytest.raises(InternalStateError):
                list(self.query("reach(2,Y)"))
            refused.append(evaluation)
        assert self.current_eval is evaluation
        return original_step(self, evaluation, cont)

    with monkeypatch.context() as patch:
        patch.setattr(Engine, "_step", reentering_step)
        assert answers_of(engine.query("reach(X,Y)")) == answers_of_closure(
            {(1, 2), (2, 3)})
    assert refused


# -- deep terms: every term walker keeps an explicit stack --------------------

DEPTHS = [5000, 100000]


def deep_text(depth):
    return "s(" * depth + "nil" + ")" * depth


def deep_term(depth):
    term = Const("nil")
    for _ in range(depth):
        term = mk("s", term)
    return term


@pytest.mark.parametrize("depth", DEPTHS)
def test_deep_static_fact_answers(depth):
    engine = Engine()
    engine.consult_text(":- table len/2.\nlen(X,N) :- lst(X), N = 1.\n"
                        f"lst({deep_text(depth)}).\n")
    for _ in range(2):
        rows = list(engine.query("len(X,N)"))
        assert len(rows) == 1
        (lst, n), truth = rows[0]
        assert format_term(lst) == deep_text(depth)
        assert (n, truth) == (Const(1), "true")


@pytest.mark.parametrize("depth", DEPTHS)
def test_deep_dynamic_fact_assert_and_retract(depth):
    engine = Engine()
    engine.consult_text(LEN + "lst(a).\n")
    shallow = [(("a", 1), "true"), (("nil", 1), "true")]
    assert answers_of(engine.query("len(X,N)")) == shallow
    fact = Clause(mk("lst", deep_term(depth)), [])
    engine.store.assert_clause(fact)
    rows = answers_of(engine.query("len(X,N)"))
    assert rows == sorted(shallow + [((deep_text(depth), 1), "true")])
    engine.store.retract_clause(Clause(mk("lst", deep_term(depth)), []))
    assert len(engine.store.clauses[("lst", 1)].items) == 2
    assert answers_of(engine.query("len(X,N)")) == shallow


@pytest.mark.parametrize("depth", DEPTHS)
def test_deep_tables_found_again(depth):
    engine = Engine()
    engine.consult_text(":- table q/1.\nq(X) :- lst(X).\n"
                        f"lst({deep_text(depth)}).\nlst(a).\n")
    expected = [(("a",), "true"), ((deep_text(depth),), "true")]
    goal = f"q({deep_text(depth)})"
    for _ in range(2):
        assert answers_of(engine.query("q(X)")) == expected
        assert [truth for _, truth in engine.query(goal)] == ["true"]
        assert len(engine.space.tables) == 2
    assert [format_term(t.subgoal) for t in engine.space.tables.values()] == [
        "q(X)", goal]


# -- semi-naive re-evaluation after inserts ----------------------------------


def fresh_answers(program, goal, facts=()):
    fresh = Engine()
    fresh.consult_text(program)
    for fact in facts:
        fresh.store.assert_clause(parse_clause(fact))
    return answers_of(fresh.query(goal))


def test_semi_naive_assert_then_retract_restores_base():
    engine = Engine()
    engine.consult_text(REACH)
    base = answers_of(engine.query("reach(X,Y)"))
    facts = ["edge(3,4)."]
    for fact in facts:
        engine.store.assert_clause(parse_clause(fact))
    assert answers_of(engine.query("reach(X,Y)")) == fresh_answers(
        REACH, "reach(X,Y)", facts)
    assert engine.stats.semi_naive == 1
    # the re-opened table kept its leaf edges: their contributed flags must
    # have been reset, or this retract would not invalidate it
    for fact in facts:
        engine.store.retract_clause(parse_clause(fact))
    assert node_of(engine, "reach(X,Y)").invalid
    assert answers_of(engine.query("reach(X,Y)")) == base
    assert engine.stats.semi_naive == 1


def test_dynamic_rule_takes_full_path():
    program = """
:- table t/1 as incremental.
:- dynamic d1/1, d2/1 as incremental.
t(X) :- d1(X).
"""
    engine = Engine()
    engine.consult_text(program)
    engine.store.assert_clause(parse_clause("d1(X) :- d2(X)."))
    assert answers_of(engine.query("t(X)")) == []
    engine.store.assert_clause(parse_clause("d2(a)."))
    assert answers_of(engine.query("t(X)")) == [(("a",), "true")]
    assert engine.stats.semi_naive == 0
    assert answers_of(engine.query("t(X)")) == fresh_answers(
        program, "t(X)", ["d1(X) :- d2(X).", "d2(a)."])
    # with the rule gone, d1 holds only facts again: re-opened
    engine.store.retract_clause(parse_clause("d1(X) :- d2(X)."))
    assert answers_of(engine.query("t(X)")) == []
    engine.store.assert_clause(parse_clause("d1(b)."))
    assert answers_of(engine.query("t(X)")) == fresh_answers(
        program, "t(X)", ["d2(a).", "d1(b)."])
    assert engine.stats.semi_naive == 1


def test_retract_matching_no_leaf_keeps_the_table_reopenable():
    program = REACH + "edge(7,8).\n"
    engine = Engine()
    engine.consult_text(program)
    list(engine.query("reach(1,Y)"))
    engine.store.assert_clause(parse_clause("edge(3,4)."))
    # reach(1,Y) never called edge(7,_)
    engine.store.retract_clause(parse_clause("edge(7,8)."))
    got = answers_of(engine.query("reach(1,Y)"))
    assert engine.stats.semi_naive == 1
    assert got == fresh_answers(program.replace("edge(7,8).", ""), "reach(1,Y)",
                                ["edge(3,4)."])


def test_consulted_non_incremental_dynamic_rule():
    """A rule of a non-incremental dynamic predicate, stored by consult, is
    selected like any clause; a re-open is not refused for it, nor for the
    static rules of the table itself."""
    program = REACH + """
:- dynamic hop/2.
hop(X,Y) :- base(X,Z), base(Z,Y).
base(1,2). base(2,3).
"""
    engine = Engine()
    engine.consult_text(program)
    assert answers_of(engine.query("hop(X,Y)")) == [((1, 3), "true")]
    list(engine.query("reach(X,Y)"))
    engine.store.assert_clause(parse_clause("edge(3,4)."))
    assert answers_of(engine.query("reach(X,Y)")) == fresh_answers(
        program, "reach(X,Y)", ["edge(3,4)."])
    assert engine.stats.semi_naive == 1


def test_load_clause_refuses_dynamic_incremental_clauses():
    """A dynamic incremental predicate's clauses go through assert_clause,
    which invalidates the tables they feed; load_clause stores none."""
    engine = Engine()
    engine.consult_text(":- table t/1 as incremental.\n"
                        ":- dynamic p/1 as incremental.\n"
                        "t(X) :- p(X).\np(1).\n")
    assert answers_of(engine.query("t(X)")) == [((1,), "true")]
    with pytest.raises(PermissionViolation):
        engine.store.load_clause(parse_clause("p(2)."))
    assert len(engine.store.clauses[("p", 1)].items) == 1
    assert answers_of(engine.query("p(X)")) == [((1,), "true")]
    assert answers_of(engine.query("t(X)")) == [((1,), "true")]


def test_consult_abolishes_tables_given_static_clauses():
    program = """
:- table t/1 as incremental.
:- dynamic e/1 as incremental.
t(X) :- e(X).
e(1).
"""
    engine = Engine()
    engine.consult_text(program)
    assert answers_of(engine.query("t(X)")) == [((1,), "true")]
    engine.consult_text("t(9).")
    assert answers_of(engine.query("t(X)")) == fresh_answers(
        program + "t(9).\n", "t(X)") == [((1,), "true"), ((9,), "true")]
    engine.store.assert_clause(parse_clause("e(2)."))
    assert answers_of(engine.query("t(X)")) == [
        ((1,), "true"), ((2,), "true"), ((9,), "true")]


def test_cursor_held_across_semi_naive_reeval_keeps_its_view():
    engine = Engine()
    engine.consult_text(REACH)
    base = answers_of(engine.query("reach(X,Y)"))
    held = engine.query("reach(X,Y)")
    first = next(held)
    engine.store.assert_clause(parse_clause("edge(3,1)."))
    grown = answers_of(engine.query("reach(X,Y)"))
    assert engine.stats.semi_naive == 1
    assert len(grown) > len(base)
    assert answers_of([first] + list(held)) == base


def test_semi_naive_table_called_from_another_evaluation():
    program = REACH + """
:- table top/2 as incremental.
top(X,Y) :- reach(X,Y), Y \\= 1.
"""
    engine = Engine()
    engine.consult_text(program)
    list(engine.query("reach(X,Y)"))
    engine.store.assert_clause(parse_clause("edge(3,1)."))
    # top is new: its evaluation re-opens the invalid reach table and must
    # receive both its old answers and the new ones
    got = answers_of(engine.query("top(X,Y)"))
    assert engine.stats.semi_naive == 1
    assert got == fresh_answers(program, "top(X,Y)", ["edge(3,1)."])
    assert ((1, 3), "true") in got and ((3, 2), "true") in got
    assert answers_of(engine.query("reach(X,Y)")) == fresh_answers(
        program, "reach(X,Y)", ["edge(3,1)."])


def test_semi_naive_assert_round_steps():
    from incrtab.bench import GraphSpec, gen_graph_facts

    program = REACH.replace("edge(1,2). edge(2,3).\n", "")
    facts = list(gen_graph_facts(GraphSpec(2000, 1000, seed=1)))
    batch = [f"edge({n},{n + 7})." for n in range(1, 2000, 100)]
    engine = Engine()
    engine.consult_text(program + "\n".join(facts) + "\n")
    list(engine.query("reach(X,Y)"))
    rounds = []
    for update in (engine.store.assert_clause, engine.store.retract_clause):
        for fact in batch:
            update(parse_clause(fact))
        steps = engine.stats.steps
        list(engine.query("reach(X,Y)"))
        rounds.append(engine.stats.steps - steps)
    assert engine.stats.semi_naive == 1 and engine.stats.reevals == 2
    assert rounds[0] <= 0.15 * rounds[1], rounds


FALLBACKS = {
    "tnot": ("""
:- table t/1, s/1 as incremental.
:- dynamic e/1, f/1 as incremental.
s(X) :- f(X).
t(X) :- e(X), tnot(s(X)).
e(1). e(2). f(2).
""", "t(X)", ["e(3)."]),
    "undefined": ("""
:- table t/2 as incremental.
:- dynamic edge/2 as incremental.
t(X,Y) :- t(X,Z), edge(Z,Y).
t(X,Y) :- edge(X,Y), undefined.
edge(1,2).
""", "t(X,Y)", ["edge(2,3)."]),
    "cut": ("""
:- table t/1 as incremental.
:- dynamic e/1 as incremental.
t(X) :- e(X), !.
e(1).
""", "t(X)", ["e(2)."]),
    "answer_abstract": ("""
:- table t/2 as incremental, answer_abstract(3).
:- dynamic edge/2 as incremental.
t(X,Y) :- edge(X,Y).
t(X,Y) :- t(X,Z), edge(Z,Y).
edge(1,2).
""", "t(X,Y)", ["edge(2,3)."]),
    "conditional": ("""
:- table t/1, u/0 as incremental.
:- dynamic e/1 as incremental.
u :- tnot(u).
t(X) :- e(X), u.
e(1).
""", "t(X)", ["e(2)."]),
    "retract": (REACH, "reach(X,Y)", ["edge(3,1).", "-edge(1,2)."]),
    "through_table": ("""
:- table t/1, s/1 as incremental.
:- dynamic e/1, f/1 as incremental.
s(X) :- f(X).
t(X) :- s(X).
t(X) :- e(X).
f(1). e(2).
""", "t(X)", ["f(3).", "e(4)."]),
}


@pytest.mark.parametrize("reason", sorted(FALLBACKS))
def test_semi_naive_fallbacks(reason):
    program, goal, updates = FALLBACKS[reason]
    engine = Engine()
    engine.consult_text(program)
    list(engine.query(goal))
    final = []
    for update in updates:
        if update.startswith("-"):
            engine.store.retract_clause(parse_clause(update[1:]))
            final.remove(update[1:]) if update[1:] in final else None
        else:
            engine.store.assert_clause(parse_clause(update))
            final.append(update)
    assert node_of(engine, goal).invalid
    got = answers_of(engine.query(goal))
    # through_table: s, invalidated by a leaf only, is re-opened; t is not
    reopened = 1 if reason == "through_table" else 0
    assert engine.stats.semi_naive == reopened
    assert engine.stats.reevals == reopened + 1
    expected_program = program
    for update in updates:
        if update.startswith("-"):
            expected_program = expected_program.replace(update[1:], "")
    assert got == fresh_answers(expected_program, goal, final)
