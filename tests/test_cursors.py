import pytest

from incrtab import cursors
from incrtab.engine import Engine
from incrtab.errors import InternalStateError
from incrtab.parser import parse_clause
from incrtab.terms import Const, Var, mk

REACH = """
:- table reach/2 as incremental.
:- dynamic edge/2 as incremental.
reach(X,Y) :- edge(X,Y).
reach(X,Y) :- reach(X,Z), edge(Z,Y).
edge(1,2). edge(2,3). edge(3,4).
"""


def values(pairs):
    return [(tuple(t.value for t in terms), truth) for terms, truth in pairs]


def reach_table(engine):
    return engine.space.find_table(mk("reach", Var("X"), Var("Y")))


def test_open_cursor_counts():
    engine = Engine()
    engine.consult_text(REACH)
    cursor = engine.query("reach(X,Y)")
    table = reach_table(engine)
    assert table.occp_num == 1
    second = engine.query("reach(X,Y)")
    assert table.occp_num == 2
    cursor.close()
    second.close()
    assert table.occp_num == 0


def test_exhaustion_decrements_occp():
    engine = Engine()
    engine.consult_text(REACH)
    cursor = engine.query("reach(X,Y)")
    table = reach_table(engine)
    while cursor.next() is not None:
        pass
    assert table.occp_num == 0
    assert cursor.next() is None  # exhausted value, not an error


def test_open_on_incomplete_table_is_internal_error():
    engine = Engine()
    engine.consult_text(REACH)
    cursor = engine.query("reach(X,Y)")
    table = reach_table(engine)
    table.status = "incomplete"
    with pytest.raises(InternalStateError):
        cursors.open_cursor(table)
    table.status = "completed"


def test_iteration_order_is_insertion_order():
    engine = Engine()
    engine.consult_text(REACH)
    first = values(engine.query("reach(X,Y)"))
    again = values(engine.query("reach(X,Y)"))
    assert first == again


def test_preserved_view_survives_update():
    engine = Engine()
    engine.consult_text(REACH)
    cursor = engine.query("reach(X,Y)")
    consumed = [cursor.next() for _ in range(2)]
    pre_update = values(engine.query("reach(X,Y)"))
    engine.store.assert_clause(parse_clause("edge(4,5)."))
    fresh = engine.query("reach(X,Y)")  # triggers the re-evaluation
    post = values(fresh)
    rest = values(iter(cursor.next, None))
    assert values(consumed) + rest == pre_update
    assert len(post) > len(pre_update)
    assert cursor.mode == "done"


def test_snapshot_preserves_undefined_markers():
    engine = Engine()
    engine.consult_text("""
:- table u/1 as incremental.
:- dynamic e/1, f/1 as incremental.
u(X) :- e(X), undefined.
u(X) :- f(X).
e(1). e(2). f(3).
""")
    cursor = engine.query("u(X)")
    first = cursor.next()
    engine.store.assert_clause(parse_clause("f(1)."))
    list(engine.query("u(X)"))  # re-evaluation strengthens u(1)
    rest = values(iter(cursor.next, None))
    combined = values([first]) + rest
    # the cursor keeps the truth values from its open time
    assert ((1,), "undefined") in combined or first[1] == "undefined"
    assert all(truth == "undefined" for pair, truth in combined if pair != (3,))


def test_snapshot_immutable_after_close_of_table():
    engine = Engine()
    engine.consult_text(REACH)
    cursor = engine.query("reach(X,Y)")
    cursor.next()
    engine.store.assert_clause(parse_clause("edge(1,9)."))
    list(engine.query("reach(X,Y)"))
    snap_before = cursor.snapshot
    engine.store.assert_clause(parse_clause("edge(9,9)."))
    list(engine.query("reach(X,Y)"))
    assert cursor.snapshot == snap_before


def test_close_released_snapshot_noop():
    engine = Engine()
    engine.consult_text(REACH)
    cursor = engine.query("reach(X,Y)")
    cursor.next()
    engine.store.assert_clause(parse_clause("edge(4,5)."))
    list(engine.query("reach(X,Y)"))
    cursor.close()
    cursor.close()  # double close is a no-op
    assert cursor.next() is None


def test_occp_zeroed_after_preservation():
    engine = Engine()
    engine.consult_text(REACH)
    cursor = engine.query("reach(X,Y)")
    table = reach_table(engine)
    assert table.occp_num == 1
    cursors.preserve_views(table)
    assert table.occp_num == 0
    assert cursor.mode == "snapshot"
    # preserved cursors still deliver the unconsumed suffix
    assert len(list(iter(cursor.next, None))) == 6


def test_cascade_strengthening_preserves_open_cursor_view():
    # q's only answer is conditional on p staying undefined; re-deriving p
    # as true fixes q purely by simplification (q is never re-derived), so
    # an open cursor on q must be snapshotted before the cascade mutates it
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
    cursor = engine.query("q")
    engine.store.assert_clause(parse_clause("f."))
    assert [tv for _, tv in engine.query("p")] == ["true"]
    # live table for q lost its answer through the cascade...
    assert list(engine.query("q")) == []
    # ...but the cursor still yields its open-time view
    assert values(iter(cursor.next, None)) == [((), "undefined")]


def test_view_consistency_random_interleavings():
    import random

    rng = random.Random(11)
    for trial in range(25):
        engine = Engine()
        engine.consult_text(REACH)
        cursor = engine.query("reach(X,Y)")
        expected = values(engine.query("reach(X,Y)"))
        seen = []
        position = 0
        while True:
            action = rng.random()
            if action < 0.3:
                fact = f"edge({rng.randint(1, 6)},{rng.randint(1, 6)})."
                engine.store.assert_clause(parse_clause(fact))
            elif action < 0.45:
                list(engine.query("reach(X,Y)"))
            else:
                step = cursor.next()
                if step is None:
                    break
                seen.append(step)
                position += 1
        assert values(seen) == expected
