import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from incrtab.errors import ExistenceError, ParseError, PermissionViolation
from incrtab.parser import parse_clause, parse_program
from incrtab.program import (
    Clause,
    Literal,
    POS,
    PredicateDecl,
    ProgramStore,
    _clause_variant_key,
)
from incrtab.terms import Const, Var, arg1_key, canonical_key, mk, unify


def make_store():
    store = ProgramStore()
    store.declare(PredicateDecl("reach", 2, tabled=True, incremental=True))
    store.declare(PredicateDecl("edge", 2, dynamic=True, incremental=True,
                                idg_abstraction=0))
    return store


def test_declare_incremental_table():
    store = ProgramStore()
    store.declare(PredicateDecl("reach", 2, tabled=True, incremental=True))
    assert store.decl_of(("reach", 2)).incremental


def test_declare_dynamic_with_abstraction():
    store = ProgramStore()
    store.declare(PredicateDecl("edge", 2, dynamic=True, incremental=True,
                                idg_abstraction=0))
    assert store.decl_of(("edge", 2)).idg_abstraction == 0


def test_declare_incremental_table_over_dynamic_is_permission_error():
    store = ProgramStore()
    store.declare(PredicateDecl("p", 1, dynamic=True, incremental=True))
    store.assert_clause(parse_clause("p(1)."))
    with pytest.raises(PermissionViolation):
        store.declare(PredicateDecl("p", 1, tabled=True, incremental=True))


def test_declare_dynamic_incremental_table_mixture_rejected():
    store = ProgramStore()
    with pytest.raises(PermissionViolation):
        store.declare(PredicateDecl("p", 1, dynamic=True, tabled=True,
                                    incremental=True))


def test_abstraction_requires_dynamic_incremental():
    store = ProgramStore()
    with pytest.raises(PermissionViolation):
        store.declare(PredicateDecl("p", 1, tabled=True, idg_abstraction=0))


def test_load_clause_source_order():
    store = make_store()
    c1 = parse_clause("reach(X,Y) :- edge(X,Y).")
    c2 = parse_clause("reach(X,Y) :- reach(X,Z), edge(Z,Y).")
    store.load_clause(c1)
    store.load_clause(c2)
    goal = mk("reach", Var("A"), Var("B"))
    assert store.static_candidates(("reach", 2), goal) == [c1, c2]


def test_load_clause_dynamic_head_rejected():
    store = make_store()
    with pytest.raises(PermissionViolation):
        store.load_clause(parse_clause("edge(1,2)."))


def test_load_tnot_on_non_tabled_rejected():
    store = ProgramStore()
    store.declare(PredicateDecl("p", 1, tabled=True))
    store.declare(PredicateDecl("q", 1))
    with pytest.raises(PermissionViolation):
        store.load_clause(parse_clause("p(X) :- tnot(q(X))."))


def test_incremental_table_calling_non_incremental_dynamic_rejected():
    store = ProgramStore()
    store.declare(PredicateDecl("p", 1, tabled=True, incremental=True))
    store.declare(PredicateDecl("d", 1, dynamic=True))
    with pytest.raises(PermissionViolation):
        store.load_clause(parse_clause("p(X) :- d(X)."))


def test_assert_requires_dynamic_incremental():
    store = make_store()
    with pytest.raises(PermissionViolation):
        store.assert_clause(parse_clause("reach(1,2)."))


def test_assert_then_retract_roundtrip():
    store = make_store()
    store.assert_clause(parse_clause("edge(1,2)."))
    token = store.retract_clause(parse_clause("edge(1,2)."))
    assert token.clause is not None
    assert not store.clauses[("edge", 2)].items


def test_retract_absent_fact_is_noop_token():
    store = make_store()
    token = store.retract_clause(parse_clause("edge(9,9)."))
    assert token.clause is None


def test_retract_removes_first_variant_only():
    store = make_store()
    store.assert_clause(parse_clause("edge(1,2)."))
    store.assert_clause(parse_clause("edge(1,2)."))
    store.retract_clause(parse_clause("edge(1,2)."))
    assert len(store.clauses[("edge", 2)].items) == 1


def test_matching_clauses_unknown_predicate():
    store = make_store()
    with pytest.raises(ExistenceError):
        store.require_decl(("nope", 1))


def test_matching_clauses_first_argument_indexing():
    store = ProgramStore()
    store.declare(PredicateDecl("p", 1, dynamic=True, incremental=True))
    store.assert_clause(parse_clause("p(f(1))."))
    store.assert_clause(parse_clause("p(g(2))."))
    goal = mk("p", mk("f", Var("X")))
    matches = store.static_candidates(("p", 1), goal)
    assert len(matches) == 1
    head, _ = matches[0].rename()
    assert unify(goal, head) is not None
    assert canonical_key(head) == canonical_key(mk("p", mk("f", 1)))


def test_clause_order_stable_across_interleaved_updates():
    store = ProgramStore()
    store.declare(PredicateDecl("p", 1, dynamic=True, incremental=True))
    store.assert_clause(parse_clause("p(1)."))
    store.assert_clause(parse_clause("p(2)."))
    store.assert_clause(parse_clause("p(3)."))
    store.retract_clause(parse_clause("p(2)."))
    store.assert_clause(parse_clause("p(4)."))
    goal = mk("p", Var("X"))
    values = [clause.head.args[0].value
              for clause in store.static_candidates(("p", 1), goal)]
    assert values == [1, 3, 4]


def test_reasserted_clause_object_is_stored_twice():
    store = ProgramStore()
    store.declare(PredicateDecl("p", 2, dynamic=True, incremental=True))
    clause = parse_clause("p(a,1).")
    store.assert_clause(clause)
    store.assert_clause(clause)
    pred = ("p", 2)
    assert store.static_candidates(pred, mk("p", "a", Var("Y"))) == [clause, clause]
    assert store.static_candidates(pred, mk("p", Var("X"), Var("Y"))) == [clause, clause]
    store.retract_clause(parse_clause("p(a,1)."))
    index = store.clauses[pred]
    assert list(index.items.values()) == [clause]
    assert list(index.buckets.values()) == [list(index.items.items())]


def test_keyed_and_open_goals_list_clauses_in_assert_order():
    store = ProgramStore()
    store.declare(PredicateDecl("p", 2, dynamic=True, incremental=True))
    first_parsed = parse_clause("p(a,1).")
    second_parsed = parse_clause("p(a,2).")
    store.assert_clause(second_parsed)
    store.assert_clause(first_parsed)
    for goal in (mk("p", "a", Var("Y")), mk("p", Var("X"), Var("Y"))):
        values = [c.head.args[1].value
                  for c in store.static_candidates(("p", 2), goal)]
        assert values == [2, 1]


def test_retract_takes_first_variant_in_assert_order():
    store = ProgramStore()
    store.declare(PredicateDecl("p", 2, dynamic=True, incremental=True))
    parsed_first = parse_clause("p(X,b).")
    parsed_second = parse_clause("p(Z,b).")
    store.assert_clause(parsed_second)
    store.assert_clause(parsed_first)
    token = store.retract_clause(parse_clause("p(Y,b)."))
    assert token.clause is parsed_second
    assert list(store.clauses[("p", 2)].items.values()) == [parsed_first]


_CLAUSE_TEXTS = st.builds(
    "p({},{}){}.".format,
    st.sampled_from(["a", "1", "'1'", "f(X)", "f(a)", "g(X)", "X", "Y"]),
    st.sampled_from(["b", "1", "X", "Y"]),
    st.sampled_from(["", " :- q(X)"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["assert", "retract"]), _CLAUSE_TEXTS),
                max_size=20))
@example([("assert", "p(X,b)."), ("assert", "p(X,b)."), ("retract", "p(Y,b).")])
def test_retract_matches_brute_force_first_variant(ops):
    store = ProgramStore()
    store.declare(PredicateDecl("p", 2, dynamic=True, incremental=True))
    pred = ("p", 2)
    model = []   # stored clauses in assert order
    for op, text in ops:
        clause = parse_clause(text)
        if op == "assert":
            store.assert_clause(clause)
            model.append(clause)
            continue
        target = _clause_variant_key(clause)
        first = next((i for i, c in enumerate(model)
                      if _clause_variant_key(c) == target), None)
        token = store.retract_clause(clause)
        if first is None:
            assert token.clause is None
        else:
            assert token.clause is model.pop(first)
        stored = store.clauses[pred]
        assert list(stored.items.values()) == model
        for key, entries in stored.buckets.items():
            seqs = [seq for seq, _ in entries]
            assert seqs == sorted(seqs)
            assert all(arg1_key(c.head) == key and stored.items[seq] is c
                       for seq, c in entries)
        assert sum(map(len, stored.buckets.values())) == len(model)
        assert all(stored.buckets.values())

    # The same heads loaded as static clauses: candidates are the clauses
    # whose first-argument key is compatible, in source order.
    static_store = ProgramStore()
    static_store.declare(PredicateDecl("p", 2))
    loaded = [parse_clause(text) for _, text in ops]
    for clause in loaded:
        static_store.load_clause(clause)
    goals = [(c.head, None) for c in loaded] + [(mk("p", Var("X"), Var("Y")), None)]
    bound = Var("X")
    goals += [(mk("p", bound, Var("Y")), {bound: c.head.args[0]}) for c in loaded[:3]]
    for goal, env in goals:
        key = arg1_key(goal, env)

        def brute(clauses):
            return [c for c in clauses
                    if key is None or arg1_key(c.head) in (key, None)]

        candidates = static_store.static_candidates(pred, goal, env)
        assert candidates == brute(loaded)
        resolved = goal.args[0] if env is None else env[bound]
        assert all(c in candidates for c in loaded
                   if unify(mk("p", resolved, Var("Y")), mk("p", c.head.args[0], Var("Z")))
                   is not None)
        assert store.static_candidates(pred, goal, env) == brute(model)


def test_update_tokens_reference_dynamic_incremental():
    store = make_store()
    token = store.assert_clause(parse_clause("edge(5,6)."))
    assert token.decl.dynamic and token.decl.incremental


# -- parser ------------------------------------------------------------------


def test_parse_directive_multiple_predicates():
    units = parse_program(":- table t_1/1, t_2/1 as incremental.")
    decls = units[0].decls
    assert [(d.name, d.arity, d.incremental) for d in decls] == [
        ("t_1", 1, True), ("t_2", 1, True)]


def test_parse_directive_options():
    units = parse_program(
        ":- table equals/2 as incremental, subgoal_abstract(3), answer_abstract(2).\n"
        ":- dynamic edge/2 as incremental, abstract(0).")
    table_decl = units[0].decls[0]
    assert table_decl.subgoal_abstraction == 3
    assert table_decl.answer_abstraction == 2
    dyn_decl = units[1].decls[0]
    assert dyn_decl.idg_abstraction == 0


def test_parse_disjunction_expands_clauses():
    units = parse_program("a(X) :- b(X), (c(X) ; d(X)), e(X).")
    clauses = units[0]
    assert len(clauses) == 2
    assert [lit.atom.functor for lit in clauses[0].body] == ["b", "c", "e"]
    assert [lit.atom.functor for lit in clauses[1].body] == ["b", "d", "e"]


def test_parse_builtins():
    units = parse_program(
        "a(X,Y) :- X = Y, X \\= f(Y), atomic(X), undefined, tnot(b(X)), !.")
    body = units[0][0].body
    assert [lit.kind for lit in body] == ["=", "\\=", "atomic", "undefined",
                                          "tnot", "!"]


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_program("p(1).\nq(2]).")
    assert err.value.line == 2


def test_parse_reserved_atom_rejected():
    with pytest.raises(ParseError):
        parse_program("p('$sk1').")


def test_parse_quoted_atom_and_negative_int():
    units = parse_program("p('Hello world', -3).")
    clause = units[0][0]
    assert clause.head.args[0] == Const("Hello world")
    assert clause.head.args[1] == Const(-3)


def test_parse_comments_and_anonymous_vars():
    units = parse_program("""
% a comment
p(_, _Named) :- q(_).  /* block */
""")
    clause = units[0][0]
    a1, a2 = clause.head.args
    assert a1 is not a2
