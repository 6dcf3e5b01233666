import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incrtab.idg
import incrtab.program
from incrtab import bench, programs
from incrtab.engine import Engine
from incrtab.errors import InstantiationError, InternalStateError, PermissionViolation
from incrtab.idg import Idg, abstract0_key
from incrtab.parser import parse_clause
from incrtab.program import PredicateDecl
from incrtab.tables import COMPLETED, TableSpace
from incrtab.terms import (
    Const,
    Struct,
    Var,
    abstract_depth,
    arg1_key,
    canonical_key,
    format_term,
    mk,
    resolve,
    unify,
)

P_INC = """
:- table t_1/1, t_2/1, t_4/1, t_5/1 as incremental.
t_1(X) :- t_4(X), tnot(t_2(X)).
t_4(X) :- t_5(X).
t_4(X) :- t_4(Y), t_5(X).
t_5(X) :- nt_1(X).
t_2(X) :- q(X).
nt_1(X) :- p(f(X)).
nt_1(X) :- p(g(X)).
:- dynamic p/1, q/1 as incremental.
p(f(1)).
q(1).
"""


def loaded_engine():
    engine = Engine()
    engine.consult_text(P_INC)
    list(engine.query("t_1(X)"))
    return engine


def node_names(nodes):
    return [format_term(n.table.subgoal) for n in nodes]


def test_p_inc_idg_shape():
    engine = loaded_engine()
    stats = engine.idg.stats()
    assert stats["nodes"] == 4
    # leaf patterns created by the query: p(f(X)), p(g(X)) and q(1)
    assert stats["leaves"] == 3
    assert engine.idg.dump_edges() == [
        "p(f(X)) -> t_5(X)",
        "p(g(X)) -> t_5(X)",
        "q(1) -> t_2(1)",
        "t_2(1) -> t_1(X)",
        "t_4(X) -> t_1(X)",
        "t_4(X) -> t_4(X)",
        "t_5(X) -> t_4(X)",
    ]


def test_invalidate_from_p_update():
    engine = loaded_engine()
    engine.store.assert_clause(parse_clause("p(g(2))."))
    invalid = engine.last_invalid_list
    assert node_names(invalid) == ["t_5(X)", "t_4(X)", "t_1(X)"]
    assert [n.falsecount for n in invalid] == [1, 1, 1]


def test_invalidate_from_unmatched_update():
    engine = loaded_engine()
    engine.store.assert_clause(parse_clause("q(g(2))."))
    assert engine.last_invalid_list == []


def test_second_update_hits_falsecount_guard():
    engine = loaded_engine()
    engine.store.assert_clause(parse_clause("p(g(2))."))
    first = {format_term(n.table.subgoal): n for n in engine.last_invalid_list}
    engine.store.assert_clause(parse_clause("p(g(3))."))
    assert engine.last_invalid_list == []
    # falsecounts unchanged: the same leaf wave cannot contribute twice
    assert all(n.falsecount == 1 for n in first.values())


def test_register_call_edge_idempotent():
    idg = Idg()
    space = TableSpace()
    t1, _ = space.find_or_create_table(
        mk("a", Var("X")), PredicateDecl("a", 1, tabled=True, incremental=True))
    t2, _ = space.find_or_create_table(
        mk("b", Var("X")), PredicateDecl("b", 1, tabled=True, incremental=True))
    n1, n2 = idg.node_for(t1), idg.node_for(t2)
    idg.register_call_edge(n1, n2)
    idg.register_call_edge(n1, n2)
    assert len(n1.affected_edges) == 1
    assert len(n2.dependent_edges) == 1


def test_self_loop_edge_permitted():
    engine = loaded_engine()
    assert "t_4(X) -> t_4(X)" in engine.idg.dump_edges()


def test_leaf_abstraction_single_leaf():
    engine = Engine()
    engine.consult_text(
        ":- table reach/2 as incremental.\n"
        ":- dynamic edge/2 as incremental, abstract(0).\n"
        "reach(X,Y) :- edge(X,Y).\n"
        "reach(X,Y) :- reach(X,Z), edge(Z,Y).\n"
        "edge(1,2). edge(2,3). edge(3,4).\n")
    list(engine.query("reach(X,Y)"))
    assert engine.idg.stats()["leaves"] == 1


def test_leaf_per_binding_without_abstraction():
    engine = Engine()
    engine.consult_text(
        ":- table reach/2 as incremental.\n"
        ":- dynamic edge/2 as incremental.\n"
        "reach(X,Y) :- edge(X,Y).\n"
        "reach(X,Y) :- reach(X,Z), edge(Z,Y).\n"
        "edge(1,2). edge(2,3). edge(3,4).\n")
    list(engine.query("reach(X,Y)"))
    assert engine.idg.stats()["leaves"] > 1


def test_non_incremental_table_registers_no_leaf():
    """Only a table with an IDG node can be invalidated through a leaf."""
    engine = Engine()
    engine.consult_text(":- table t/1.\n:- dynamic p/1 as incremental.\n"
                        "t(X) :- p(X).\np(1).\n")
    assert len(list(engine.query("t(X)"))) == 1
    assert engine.idg.stats()["leaves"] == 0


def test_propagate_validity_underflow_detected():
    idg = Idg()
    space = TableSpace()
    t1, _ = space.find_or_create_table(
        mk("a", Var("X")), PredicateDecl("a", 1, tabled=True, incremental=True))
    t2, _ = space.find_or_create_table(
        mk("b", Var("X")), PredicateDecl("b", 1, tabled=True, incremental=True))
    n1, n2 = idg.node_for(t1), idg.node_for(t2)
    idg.register_call_edge(n1, n2)
    n1.affected_edges[n2] = True  # pending contribution, but falsecount is 0
    with pytest.raises(InternalStateError):
        idg.propagate_validity(n1)


ABORTED_DRAIN = """
:- table x/1, z/1, w/1, v/1, q/1 as incremental.
:- dynamic e/1, f/1, g/1 as incremental.
x(X) :- z(X).
x(X) :- w(X).
w(X) :- v(X).
v(X) :- e(X), f(X).
z(X) :- g(X), tnot(q(X)).
q(X) :- f(X).
e(1).
f(1).
g(1).
"""


def aborted_drain_engine():
    """x's drain runs z before w and v; z raises on the non-ground g(W)."""
    engine = Engine()
    engine.consult_text(ABORTED_DRAIN)
    list(engine.query("x(X)"))
    engine.store.assert_clause(parse_clause("e(2)."))
    engine.store.assert_clause(parse_clause("g(W)."))
    return engine


def test_aborted_drain_does_not_change_later_lazy_calls():
    engine = aborted_drain_engine()
    with pytest.raises(InstantiationError):
        list(engine.query("x(X)"))
    engine.store.retract_clause(parse_clause("g(W)."))
    before = engine.stats.reevals
    assert [t for t, _ in engine.query("w(X)")] == [(Const(1),)]
    # as in a fresh engine: v comes back unchanged and revalidates w
    assert engine.stats.reevals == before + 1


def test_collect_dependencies_dependency_first_order():
    engine = loaded_engine()
    engine.store.assert_clause(parse_clause("p(g(2))."))
    nodes = {format_term(n.table.subgoal): n for n in engine.last_invalid_list}
    drain = engine.idg.collect_dependencies(nodes["t_1(X)"])
    names = node_names(drain)
    assert names[-1] == "t_1(X)"
    assert names.index("t_5(X)") < names.index("t_4(X)") < names.index("t_1(X)")
    # valid dependency t_2(1) is present but drains as a no-op
    assert "t_2(1)" in names


def test_collect_dependencies_is_repeatable():
    engine = loaded_engine()
    engine.store.assert_clause(parse_clause("p(g(2))."))
    nodes = {format_term(n.table.subgoal): n for n in engine.last_invalid_list}
    first = engine.idg.collect_dependencies(nodes["t_1(X)"])
    again = engine.idg.collect_dependencies(nodes["t_1(X)"])
    assert again == first and len(first) > 1


def test_inline_reevaluation_keeps_its_outcome_on_the_node():
    engine = aborted_drain_engine()
    nodes = {format_term(n.table.subgoal): n for n in engine.idg.nodes.values()}
    assert nodes["v(X)"].outcome is None
    # w re-evaluated directly calls the invalid v, re-evaluated inline
    outcome = engine.incremental_reeval(nodes["w(X)"])
    assert outcome is nodes["w(X)"].outcome
    inline = nodes["v(X)"].outcome
    assert (inline.changed, inline.old_count, inline.new_count) == (False, 1, 1)


def test_update_during_incomplete_affected_table_is_permission_error():
    engine = loaded_engine()
    engine.store.assert_clause(parse_clause("p(g(2))."))
    nodes = {format_term(n.table.subgoal): n for n in engine.last_invalid_list}
    nodes["t_5(X)"].table.status = "incomplete"
    with pytest.raises(PermissionViolation):
        engine.store.assert_clause(parse_clause("p(g(9))."))
    nodes["t_5(X)"].table.status = COMPLETED


def test_falsecount_conservation_over_updates():
    engine = loaded_engine()
    for fact in ["p(g(2)).", "p(g(3)).", "q(7)."]:
        engine.store.assert_clause(parse_clause(fact))
    list(engine.query("t_1(X)"))
    assert all(n.falsecount == 0 for n in engine.idg.nodes.values())
    engine.store.retract_clause(parse_clause("p(g(2))."))
    list(engine.query("t_1(X)"))
    assert all(n.falsecount == 0 for n in engine.idg.nodes.values())


def test_idg_stats_empty_engine():
    engine = Engine()
    assert engine.idg.stats() == {"nodes": 0, "leaves": 0, "edges": 0,
                                  "invalid": 0}


# -- the per-node delta log ---------------------------------------------------

P_DELTA = """
:- table a/1, b/1, c/1 as incremental.
:- dynamic p/1, q/1 as incremental.
a(X) :- p(X).
b(X) :- p(X), p(1).
c(X) :- a(X).
p(2).
"""


def delta_engine():
    """Nodes a(X) (leaf p(X)), b(X) (leaves p(X) and p(1)) and c(X),
    which depends on a(X) only."""
    engine = Engine()
    engine.consult_text(P_DELTA)
    for goal in ("a(X)", "b(X)", "c(X)"):
        list(engine.query(goal))
    return engine, {format_term(n.table.subgoal): n
                    for n in engine.idg.nodes.values()}


def test_assert_logs_the_fact_once_in_each_node_it_reaches_from_a_leaf():
    engine, nodes = delta_engine()
    assert all(node.delta == [] for node in nodes.values())
    first = parse_clause("p(1).")
    engine.store.assert_clause(first)   # two leaves of b(X) match it
    assert nodes["a(X)"].delta == [first] and nodes["b(X)"].delta == [first]
    assert nodes["c(X)"].delta is None  # reached from a(X), a node
    second = parse_clause("p(3).")
    engine.store.assert_clause(second)  # a(X) is invalid already
    assert nodes["a(X)"].delta == [first, second]
    assert nodes["b(X)"].delta == [first, second]


@pytest.mark.parametrize("update", ["retract", "rule", "abolish"])
def test_other_invalidations_clear_the_log(update):
    engine, nodes = delta_engine()
    if update == "abolish":
        # c(X) is reached from the node of the abolished table
        engine.abolish_table(nodes["a(X)"].table.subgoal)
        cleared = ["c(X)"]
    else:
        engine.store.assert_clause(parse_clause("p(4)."))
        if update == "retract":
            engine.store.retract_clause(parse_clause("p(2)."))
        else:
            engine.store.assert_clause(parse_clause("p(X) :- q(X)."))
        cleared = ["a(X)", "b(X)"]
    assert [nodes[name].delta for name in cleared] == [None] * len(cleared)


def test_revalidation_resets_the_log():
    engine, nodes = delta_engine()
    engine.store.assert_clause(parse_clause("p(2)."))  # a duplicate
    assert nodes["c(X)"].delta is None
    list(engine.query("a(X)"))
    # a(X) finished its re-evaluation unchanged; propagate_validity made
    # c(X) valid again
    assert nodes["a(X)"].delta == [] and not nodes["c(X)"].invalid
    assert nodes["c(X)"].delta == []
    engine.store.retract_clause(parse_clause("p(2)."))
    assert nodes["b(X)"].delta is None
    list(engine.query("b(X)"))
    assert nodes["b(X)"].delta == []


# -- first-argument leaf index ---------------------------------------------------

_CONSTS = [Const(1), Const("1"), Const(2), Const("a")]


@st.composite
def _arg(draw, variables, kind=None):
    """A constant, a variable, or f/g applied to one of those."""
    kind = kind or draw(st.sampled_from(["const", "var", "struct"]))
    if kind == "const":
        return draw(st.sampled_from(_CONSTS))
    if kind == "var":
        return draw(st.sampled_from(variables))
    inner = draw(st.sampled_from(_CONSTS + variables))
    return Struct(draw(st.sampled_from(["f", "g"])), (inner,))


@st.composite
def _leaf_goal(draw):
    variables = [Var("X"), Var("Y")]
    return mk("p", draw(_arg(variables)), draw(_arg(variables)))


@st.composite
def _update_head(draw):
    variables = [Var("A"), Var("B")]
    kind = draw(st.sampled_from(["ground", "var", "struct"]))
    if kind == "ground":
        first = draw(st.one_of(st.sampled_from(_CONSTS),
                               st.sampled_from(_CONSTS).map(lambda c: mk("f", c))))
        second = draw(st.sampled_from(_CONSTS))
    else:
        first = draw(_arg(variables, kind))
        second = draw(_arg(variables))
    return mk("p", first, second)


# One predicate, leaves registered as plain, abstract(0) and abstract(1) patterns.
_LEAF_DECLS = [PredicateDecl("p", 2, dynamic=True, incremental=True, idg_abstraction=k)
               for k in (None, 0, 1)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_leaf_goal(), st.sampled_from(_LEAF_DECLS)), max_size=12),
       _update_head())
def test_leaves_matching_equals_brute_force_scan(goals, head):
    idg = Idg()
    for goal, decl in goals:
        idg.register_dynamic_leaf(goal, decl)
    every_leaf = sorted(idg.leaves.get(("p", 2), {}).values(), key=lambda l: l.serial)
    expected = [leaf for leaf in every_leaf if unify(leaf.pattern, head) is not None]
    assert idg.leaves_matching(("p", 2), head) == expected


def test_update_tests_only_indexed_leaves_and_retract_only_one_bucket(monkeypatch):
    """Guard on criterion 8's graph without abstract(0): an update must not
    fall back to testing every leaf or re-keying every stored clause."""
    facts = bench.gen_graph(bench.GraphSpec(5000, 2500, seed=8))
    engine = Engine()
    engine.consult_text(programs.reach_program(True, False) + facts)
    list(engine.query("reach(X,Y)"))
    assert engine.idg.stats()["leaves"] > 100
    source = parse_clause(facts.splitlines()[0]).head.args[0].value
    fresh = parse_clause(f"edge({source},0).")

    leaf_tests = []
    original_unify_in = incrtab.idg.unify_in

    def counting_unify_in(t1, t2, env):
        leaf_tests.append(t1)
        return original_unify_in(t1, t2, env)

    monkeypatch.setattr(incrtab.idg, "unify_in", counting_unify_in)
    engine.store.assert_clause(fresh)
    assert 1 <= len(leaf_tests) <= 2
    assert engine.last_invalid_list

    pred = ("edge", 2)
    bucket_size = len(engine.store.clauses[pred].buckets[arg1_key(fresh.head)])
    assert bucket_size >= 2
    variant_keys = []
    original_variant_key = incrtab.program._clause_variant_key

    def counting_variant_key(clause):
        variant_keys.append(clause)
        return original_variant_key(clause)

    monkeypatch.setattr(incrtab.program, "_clause_variant_key", counting_variant_key)
    stored = len(engine.store.clauses[pred].items)
    token = engine.store.retract_clause(parse_clause(f"edge({source},0)."))
    assert token.clause is fresh
    assert len(variant_keys) <= bucket_size + 1  # the bucket and the target
    assert len(engine.store.clauses[pred].items) == stored - 1


def test_leaves_without_affected_edges_are_dropped():
    """Reach without abstract(0): rounds of asserts, requery, retracts and
    requery leave exactly the leaves that some table still calls, and no
    emptied index bucket."""
    engine = Engine()
    engine.consult_text(programs.reach_program(True, False)
                        + bench.gen_graph(bench.GraphSpec(1000, 500, seed=1)))
    list(engine.query("reach(X,Y)"))
    pred = ("edge", 2)

    def leaves():
        every_leaf = list(engine.idg.leaves[pred].values())
        assert engine.idg.stats()["leaves"] == len(every_leaf)
        assert list(engine.idg.leaf_index[pred].items.values()) == every_leaf
        assert all(leaf.affected_edges for leaf in every_leaf)
        assert all(engine.idg.leaf_index[pred].buckets.values())
        assert all(engine.store.clauses[pred].buckets.values())
        return every_leaf

    base = leaves()
    rng = bench.SplitMix64(7)
    for _ in range(5):
        facts = [f"edge({rng.below(1000) + 1},{rng.below(1000) + 1})." for _ in range(50)]
        for text in facts:
            engine.store.assert_clause(parse_clause(text))
        list(engine.query("reach(X,Y)"))
        leaves()
        for text in facts:
            engine.store.retract_clause(parse_clause(text))
        list(engine.query("reach(X,Y)"))
        assert leaves() == base  # same leaf objects, serials and order
    head = mk("edge", base[0].pattern.args[0], Var("Y"))
    assert engine.idg.leaves_matching(pred, head) == [
        leaf for leaf in base if unify(leaf.pattern, head) is not None]


# -- registration: the abstract(0) leaf key and registering once -------------------

def _general_abstract0_key(goal, env=None):
    return canonical_key(abstract_depth(resolve(goal, env or {}), 0)[0])


@st.composite
def _bound_goal(draw):
    """An atom of arity 0 to 4 over the variables V0..V2, with an acyclic env
    binding some of them: Vi only to a constant, a compound or a later Vj."""
    variables = [Var(f"V{i}") for i in range(3)]

    def term(pool, depth):
        choices = ["const"] + (["var", "var"] if pool else []) + (["struct"] if depth else [])
        kind = draw(st.sampled_from(choices))
        if kind == "const":
            return draw(st.sampled_from(_CONSTS))
        if kind == "var":
            return draw(st.sampled_from(pool))
        width = draw(st.integers(1, 2))
        return Struct(draw(st.sampled_from(["f", "g"])),
                      tuple(term(pool, depth - 1) for _ in range(width)))

    env = {}
    for i, v in enumerate(variables):
        if draw(st.booleans()):
            env[v] = term(variables[i + 1:], 2)
    arity = draw(st.integers(0, 4))
    if arity == 0:
        return Const("e"), env
    return Struct("e", tuple(term(variables, 2) for _ in range(arity))), env


@settings(max_examples=300, deadline=None)
@given(_bound_goal())
def test_abstract0_key_equals_the_general_path(goal_env):
    goal, env = goal_env
    assert abstract0_key(goal, env) == _general_abstract0_key(goal, env)
    assert abstract0_key(resolve(goal, env)) == _general_abstract0_key(goal, env)


def test_abstract0_key_keeps_aliasing_of_unbound_arguments():
    X, Y, Z = Var("X"), Var("Y"), Var("Z")
    keys = {text: abstract0_key(goal, {Z: X}) for text, goal in [
        ("e(X,X)", mk("e", X, X)), ("e(X,Y)", mk("e", X, Y)),
        ("e(X,Z)", mk("e", X, Z)), ("e(a,b)", mk("e", "a", "b")),
        ("e(f(X),X)", mk("e", mk("f", X), X)), ("e", Const("e")),
        ("e(X,X,a)", mk("e", X, X, "a")), ("e(X,X,Y)", mk("e", X, X, Y))]}
    assert keys["e(X,X)"] == keys["e(X,Z)"] != keys["e(X,Y)"]
    assert keys["e(X,X,a)"] == keys["e(X,X,Y)"] == ("s", "e", 3, ("v", 0), ("v", 0), ("v", 1))
    assert keys["e(a,b)"] == keys["e(X,Y)"] == keys["e(f(X),X)"]
    assert keys["e"] == "e"


ABSTRACT0 = """
:- table t/2 as incremental.
:- dynamic e/2, z/0 as incremental, abstract(0).
t(X,Y) :- e(X,X), e(X,Y).
t(X,Y) :- e(X,Y), e(Y,f(X)).
t(X,Y) :- z, e(g(X),Y).
e(1,1). e(1,2). e(2,f(1)). e(g(3),4). e(g(3),3).
z.
"""


def _abstract0_engine():
    engine = Engine()
    engine.consult_text(ABSTRACT0)
    answers = sorted(format_term(Struct("t", terms)) for terms, _ in engine.query("t(X,Y)"))
    return engine, answers


def test_abstract0_calls_register_the_same_leaves_and_edges(monkeypatch):
    engine, answers = _abstract0_engine()
    assert answers == ["t(1,1)", "t(1,2)", "t(3,3)", "t(3,4)"]
    assert engine.idg.dump_edges() == [
        "e(X,X) -> t(X,Y)",
        "e(X,Y) -> t(X,Y)",
        "z -> t(X,Y)",
    ]
    assert engine.idg.stats() == {"nodes": 1, "leaves": 3, "edges": 3, "invalid": 0}
    monkeypatch.setattr(incrtab.idg, "abstract0_key", _general_abstract0_key)
    general, general_answers = _abstract0_engine()
    assert general_answers == answers
    assert general.idg.dump_edges() == engine.idg.dump_edges()
    assert general.idg.stats() == engine.idg.stats()


def test_each_dependency_is_registered_once(monkeypatch):
    edges = []
    original = Idg.register_call_edge

    def counting_register_call_edge(self, child, parent):
        edges.append((child, parent))
        return original(self, child, parent)

    monkeypatch.setattr(Idg, "register_call_edge", counting_register_call_edge)
    engine, _ = _abstract0_engine()
    assert len(edges) == len(set(edges)) == engine.idg.stats()["edges"]
    engine = Engine()
    engine.consult_text(programs.reach_program(True, False) + "edge(1,2). edge(2,3).\n")
    edges.clear()
    list(engine.query("reach(X,Y)"))
    # reach(X,Y) calls edge(X,Y), edge(2,Y), edge(3,Y) and itself
    assert len(edges) == len(set(edges)) == engine.idg.stats()["edges"] == 4


SWITCHED = """
:- table t/1 as incremental.
:- dynamic sw/1, d/2 as incremental{}.
t(Y) :- sw(X), d(X,Y).
sw(a).
d(a,0).
"""


@pytest.mark.parametrize("abstraction", ["", ", abstract(0)"], ids=["plain", "abstract0"])
def test_a_dropped_leaf_is_registered_again_when_called_again(abstraction):
    """A re-derivation that no longer calls d drops its leaf: an assert into
    d then invalidates nothing, until a call to d registers it again."""
    engine = Engine()
    engine.consult_text(SWITCHED.format(abstraction))
    assert [t for t, _ in engine.query("t(Y)")] == [(Const(0),)]
    node = engine.space.find_table(mk("t", Var("Y"))).idg_node
    engine.store.retract_clause(parse_clause("sw(a)."))
    assert list(engine.query("t(Y)")) == []
    assert not engine.idg.leaves.get(("d", 2))
    engine.store.assert_clause(parse_clause("d(a,1)."))
    assert engine.last_invalid_list == [] and not node.invalid
    engine.store.assert_clause(parse_clause("sw(a)."))
    assert sorted(t[0].value for t, _ in engine.query("t(Y)")) == [0, 1]
    assert len(engine.idg.leaves[("d", 2)]) == 1
    engine.store.assert_clause(parse_clause("d(a,2)."))
    assert engine.last_invalid_list == [node]
    assert sorted(t[0].value for t, _ in engine.query("t(Y)")) == [0, 1, 2]
