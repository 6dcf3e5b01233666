import pytest

from incrtab.engine import Engine
from incrtab.errors import InternalStateError
from incrtab.program import PredicateDecl
from incrtab.tables import (
    CONDITIONAL_ADDED,
    NEG,
    NEW_SUBSTITUTION,
    REPEATED,
    STRENGTHENED,
    UNDEF,
    UNDELETED,
    COMPLETED,
    DelayLiteral,
    Table,
    TableSpace,
)
from incrtab.terms import Const, Var, canonical_tuple_key, mk


def ground_table(space, name="g"):
    table, _ = space.find_or_create_table(Const(name), PredicateDecl(name, 0, tabled=True))
    return table


def make_table(space):
    decl = PredicateDecl("p", 1, tabled=True)
    table, _ = space.find_or_create_table(mk("p", Var("X")), decl)
    return table


def add_answer(space, table, terms, delays):
    return space.add_answer(table, canonical_tuple_key(terms), terms, delays)


def undef_lit():
    return DelayLiteral(UNDEF)


def neg_lit(provider, atom):
    return DelayLiteral(NEG, provider, atom=atom)


def test_find_or_create_variant_hit():
    space = TableSpace()
    decl = PredicateDecl("reach", 2, tabled=True)
    t1, new1 = space.find_or_create_table(mk("reach", Var("X"), Var("Y")), decl)
    t2, new2 = space.find_or_create_table(mk("reach", Var("A"), Var("B")), decl)
    assert t1 is t2 and new1 and not new2


def test_find_or_create_distinct_bindings_distinct_tables():
    space = TableSpace()
    decl = PredicateDecl("reach", 2, tabled=True)
    t1, _ = space.find_or_create_table(mk("reach", "a", Var("Y")), decl)
    t2, _ = space.find_or_create_table(mk("reach", "b", Var("Y")), decl)
    assert t1 is not t2


def test_add_answer_statuses():
    space = TableSpace()
    table = make_table(space)
    table.status = "incomplete"
    q2 = ground_table(space, "q2")
    q3 = ground_table(space, "q3")
    assert add_answer(space, table, (Const(1),), []) == NEW_SUBSTITUTION
    assert add_answer(space, table, (Const(1),), []) == REPEATED
    assert add_answer(space, table, (Const(2),), [neg_lit(q2, Const("q2"))]) == NEW_SUBSTITUTION
    assert add_answer(space, table, (Const(2),), [neg_lit(q3, Const("q3"))]) == CONDITIONAL_ADDED
    assert add_answer(space, table, (Const(2),), [neg_lit(q3, Const("q3"))]) == REPEATED
    assert add_answer(space, table, (Const(2),), []) == STRENGTHENED
    answer = table.answers[next(iter(k for k, a in table.answers.items()
                                     if a.terms == (Const(2),)))]
    assert answer.unconditional and not answer.delay_lists


def test_add_answer_completed_table_rejected():
    space = TableSpace()
    table = make_table(space)
    table.status = COMPLETED
    with pytest.raises(InternalStateError):
        add_answer(space, table, (Const(1),), [])


def test_reeval_marks_and_undelete():
    space = TableSpace()
    table = make_table(space)
    table.status = "incomplete"
    add_answer(space, table, (Const(1),), [])
    add_answer(space, table, (Const(2),), [undef_lit()])
    table.status = COMPLETED
    space.begin_reeval_marks(table)
    marks = {a.terms[0].value: (a.deleted, a.was_unconditional)
             for a in table.answers.values()}
    assert marks == {1: (True, True), 2: (True, False)}
    # idempotent
    space.begin_reeval_marks(table)
    assert marks == {a.terms[0].value: (a.deleted, a.was_unconditional)
                     for a in table.answers.values()}
    table.in_reeval = True
    assert add_answer(space, table, (Const(1),), []) == UNDELETED
    removed, weakened = space.finalize_reeval(table)
    assert [a.terms[0].value for a in removed] == [2]
    assert weakened == []
    assert all(not a.deleted for a in table.answers.values())


def test_finalize_reports_weakened():
    space = TableSpace()
    table = make_table(space)
    table.status = "incomplete"
    add_answer(space, table, (Const(1),), [])
    table.status = COMPLETED
    space.begin_reeval_marks(table)
    table.in_reeval = True
    add_answer(space, table, (Const(1),), [undef_lit()])
    removed, weakened = space.finalize_reeval(table)
    assert removed == []
    assert [a.terms[0].value for a in weakened] == [1]


def test_simplify_satisfied_literal_strengthens_dependent():
    space = TableSpace()
    provider = ground_table(space, "q")
    provider.status = "incomplete"
    dep = make_table(space)
    dep.status = "incomplete"
    add_answer(space, provider, (), [undef_lit()])
    add_answer(space, dep, (Const(1),), [neg_lit(provider, Const("q"))])
    provider.status = COMPLETED
    dep.status = COMPLETED
    # provider's only answer goes away: not q becomes true
    answer = next(iter(provider.answers.values()))
    space.delete_answer(provider, answer)
    dep_answer = next(iter(dep.answers.values()))
    assert dep_answer.unconditional


def test_simplify_falsified_literal_deletes_dependent():
    space = TableSpace()
    provider = ground_table(space, "q")
    provider.status = "incomplete"
    dep = make_table(space)
    dep.status = "incomplete"
    add_answer(space, provider, (), [undef_lit()])
    add_answer(space, dep, (Const(1),), [neg_lit(provider, Const("q"))])
    provider.status = COMPLETED
    dep.status = COMPLETED
    # provider's answer becomes unconditional: not q is falsified
    answer = next(iter(provider.answers.values()))
    space.strengthen_answer(provider, answer)
    assert not dep.answers


def test_falsified_list_is_kept_until_all_lists_fail():
    space = TableSpace()
    q1 = ground_table(space, "q1")
    q2 = ground_table(space, "q2")
    for t in (q1, q2):
        t.status = "incomplete"
        add_answer(space, t, (), [undef_lit()])
        t.status = COMPLETED
    dep = make_table(space)
    dep.status = "incomplete"
    add_answer(space, dep, (Const(1),), [neg_lit(q1, Const("q1"))])
    add_answer(space, dep, (Const(1),), [neg_lit(q2, Const("q2"))])
    dep.status = COMPLETED
    dep_answer = next(iter(dep.answers.values()))
    assert len(dep_answer.delay_lists) == 2
    space.strengthen_answer(q1, next(iter(q1.answers.values())))
    # one derivation falsified, the record stays, the answer survives
    assert len(dep_answer.delay_lists) == 2
    assert sum(1 for dl in dep_answer.delay_lists if dl.falsified) == 1
    assert not dep_answer.unconditional
    space.strengthen_answer(q2, next(iter(q2.answers.values())))
    assert not dep.answers


def test_simplify_noop_without_dependents():
    space = TableSpace()
    provider = ground_table(space, "q")
    provider.status = "incomplete"
    # a new unconditional answer propagates its truth at once; with no
    # dependents that has no effect
    assert add_answer(space, provider, (), []) == NEW_SUBSTITUTION
    provider.status = COMPLETED
    answer = next(iter(provider.answers.values()))
    assert answer.unconditional
    assert space.stats["simplifications"] == 0
    assert provider.answers


def test_no_answer_holds_empty_and_nonempty_lists():
    space = TableSpace()
    table = make_table(space)
    table.status = "incomplete"
    add_answer(space, table, (Const(1),), [undef_lit()])
    add_answer(space, table, (Const(1),), [])
    answer = next(iter(table.answers.values()))
    assert answer.unconditional
    assert answer.delay_lists == []


def test_snapshot_rows():
    space = TableSpace()
    table = make_table(space)
    table.status = "incomplete"
    add_answer(space, table, (Const(1),), [])
    add_answer(space, table, (Const(2),), [undef_lit()])
    table.status = COMPLETED
    rows = space.snapshot()
    assert rows == [{"subgoal": "p(X)", "status": "completed", "answers": 2,
                     "conditional": 1, "occp_num": 0}]


def test_live_count_upkeep_is_constant_per_delete(monkeypatch):
    """Each answer deleted during completion updates its table's IDG count
    without scanning the table."""
    n = 2000
    engine = Engine()
    engine.consult_text(
        ":- table p/1, q/1 as incremental.\n:- dynamic e/1 as incremental.\n"
        "p(X) :- e(X), tnot(q(X)).\nq(X) :- e(X).\n"
        + "".join(f"e({i}).\n" for i in range(n)))
    visited = [0]
    live_answers = Table.live_answers

    def counting(table):
        for answer in live_answers(table):
            visited[0] += 1
            yield answer

    monkeypatch.setattr(Table, "live_answers", counting)
    assert list(engine.query("p(X)")) == []
    assert visited[0] < 10 * n, visited[0]
