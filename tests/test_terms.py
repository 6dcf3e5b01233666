import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incrtab.parser
import incrtab.terms
from incrtab.program import POS, Literal
from incrtab.terms import (
    Const,
    Struct,
    Var,
    abstract_depth,
    apply,
    canonical_key,
    canonicalize_terms,
    format_term,
    is_ground,
    is_variant,
    mk,
    occurs,
    rename_clause,
    resolve,
    skolemize,
    term_vars,
    unify,
    unify_in,
)


def test_unify_textbook_mgu():
    x, y = Var("X"), Var("Y")
    t1 = mk("p", x, mk("f", y))
    t2 = mk("p", "a", mk("f", "b"))
    mgu = unify(t1, t2)
    assert mgu == {x: Const("a"), y: Const("b")}


def test_unify_symbol_clash():
    x = Var("X")
    assert unify(mk("p", x), mk("q", x)) is None


def test_unify_occurs_check():
    x = Var("X")
    assert unify(x, mk("f", x)) is None


def test_unify_shared_structure():
    x, y, z = Var("X"), Var("Y"), Var("Z")
    mgu = unify(mk("p", x, x), mk("p", mk("g", y), mk("g", z)))
    assert mgu is not None
    lhs = apply(mgu, mk("p", x, x))
    rhs = apply(mgu, mk("p", mk("g", y), mk("g", z)))
    assert canonical_key(lhs) == canonical_key(rhs)


def test_unify_result_idempotent():
    x, y = Var("X"), Var("Y")
    mgu = unify(mk("p", x, y), mk("p", mk("f", y), "c"))
    assert mgu is not None
    t = mk("p", x, y)
    once = apply(mgu, t)
    twice = apply(mgu, once)
    assert canonical_key(once) == canonical_key(twice)


def test_is_variant_renaming():
    assert is_variant(mk("p", Var("X"), Var("Y")), mk("p", Var("A"), Var("B")))


def test_is_variant_shared_vs_distinct():
    x = Var("X")
    assert not is_variant(mk("p", x, x), mk("p", Var("A"), Var("B")))


def test_is_variant_ground_identity():
    assert is_variant(mk("p", "a"), mk("p", "a"))
    assert not is_variant(mk("p", "a"), mk("p", "b"))


def test_abstract_depth_level_one():
    t = mk("q", mk("f", 1))
    abstracted, binding = abstract_depth(t, 1)
    assert format_term(abstracted).startswith("q(f(")
    assert isinstance(abstracted.args[0].args[0], Var)
    assert canonical_key(apply(binding, abstracted)) == canonical_key(t)


def test_abstract_depth_level_zero():
    t = mk("q", mk("f", 1))
    abstracted, binding = abstract_depth(t, 0)
    assert isinstance(abstracted.args[0], Var)
    assert canonical_key(apply(binding, abstracted)) == canonical_key(t)


def test_abstract_depth_shallow_unchanged():
    t = mk("q", "a")
    abstracted, binding = abstract_depth(t, 1)
    assert abstracted == t
    assert binding == {}


def test_abstract_depth_distinct_positions_distinct_vars():
    t = mk("p", mk("f", 1), mk("f", 1))
    abstracted, binding = abstract_depth(t, 0)
    v1, v2 = abstracted.args
    assert v1 is not v2
    assert len(binding) == 2


def test_apply_identity_and_binding():
    x, y = Var("X"), Var("Y")
    assert apply({}, mk("p", x)) == mk("p", x)
    assert apply({x: Const("a")}, mk("p", x, y)) == mk("p", Const("a"), y)


def test_apply_simultaneous():
    x, z = Var("X"), Var("Z")
    result = apply({x: mk("f", z)}, mk("g", x, x))
    assert result == mk("g", mk("f", z), mk("f", z))


def test_skolemize_nonground():
    t = mk("related", "a", Var("Y"))
    sk = skolemize(t)
    assert is_ground(sk)
    assert sk.args[0] == Const("a")
    assert isinstance(sk.args[1], Const)
    assert str(sk.args[1].value).startswith("$sk")
    assert unify(sk, mk("related", "a", "anything")) is None


def test_skolemize_ground_unchanged():
    t = mk("p", "a", "b")
    assert skolemize(t) == t


def test_skolemize_shared_variable():
    x = Var("X")
    sk = skolemize(mk("p", x, x))
    assert sk.args[0] == sk.args[1]


def test_skolemize_preserves_variance():
    a = Var("A")
    t1 = mk("p", Var("X"), Var("Y"))
    t2 = mk("p", Var("A"), Var("B"))
    t3 = mk("p", a, a)
    assert is_variant(skolemize(t1), skolemize(t2))
    assert not is_variant(skolemize(t1), skolemize(t3))


# -- hypothesis property tests ------------------------------------------------

_names = st.sampled_from(["a", "b", "c", "f", "g", "p"])
_varnames = st.sampled_from(["X", "Y", "Z"])


def _terms(max_depth=3):
    base = st.one_of(
        _names.map(Const),
        st.integers(min_value=0, max_value=9).map(Const),
        _varnames.map(_shared_var),
    )
    return st.recursive(
        base,
        lambda children: st.tuples(_names, st.lists(children, min_size=1, max_size=3))
        .map(lambda fa: Struct(fa[0], tuple(fa[1]))),
        max_leaves=8,
    )


_var_pool = {}


def _shared_var(name):
    return _var_pool.setdefault(name, Var(name))


@settings(max_examples=200, deadline=None)
@given(_terms(), _terms())
def test_unify_produces_common_instance(t1, t2):
    mgu = unify(t1, t2)
    if mgu is not None:
        assert canonical_key(apply(mgu, t1)) == canonical_key(apply(mgu, t2))


@settings(max_examples=200, deadline=None)
@given(_terms(), st.integers(min_value=0, max_value=3))
def test_abstract_depth_roundtrip(t, k):
    if not isinstance(t, (Const, Struct)):
        return
    if isinstance(t, Const) and not isinstance(t.value, str):
        return
    abstracted, binding = abstract_depth(t, k)
    assert canonical_key(apply(binding, abstracted)) == canonical_key(t)
    again, _ = abstract_depth(abstracted, k)
    assert is_variant(again, abstracted)


@settings(max_examples=200, deadline=None)
@given(_terms())
def test_variant_reflexive(t):
    assert is_variant(t, t)


@settings(max_examples=150, deadline=None)
@given(_terms(), _terms())
def test_variant_iff_equal_canonical_keys(t1, t2):
    assert (canonical_key(t1) == canonical_key(t2)) == is_variant(t1, t2)


@settings(max_examples=150, deadline=None)
@given(_terms())
def test_skolemize_ground_and_variant_preserving(t):
    sk = skolemize(t)
    assert is_ground(sk)
    assert is_variant(skolemize(t), sk)


# -- deep terms ---------------------------------------------------------------

DEPTHS = [5000, 100000]


def deep_term(depth, leaf="nil"):
    term = leaf if isinstance(leaf, Var) else Const(leaf)
    for _ in range(depth):
        term = mk("s", term)
    return term


@pytest.mark.parametrize("depth", DEPTHS)
def test_deep_terms_format_compare_and_hash(depth):
    a, b = deep_term(depth), deep_term(depth)
    assert format_term(a) == "s(" * depth + "nil" + ")" * depth
    assert a == b and hash(a) == hash(b)
    assert a != deep_term(depth, "zero") and a != mk("s", a)
    x = Var("X")
    assert deep_term(depth, x) == deep_term(depth, x)
    assert deep_term(depth, x) != deep_term(depth, Var("X"))
    assert {canonical_key(a): 1}[canonical_key(b)] == 1
    assert canonical_key(deep_term(depth, Var("X"))) == canonical_key(
        deep_term(depth, Var("Y")))


@pytest.mark.parametrize("depth", DEPTHS)
def test_deep_terms_unify_resolve_and_copy(depth):
    x = Var("X")
    open_term = deep_term(depth, x)
    env = {}
    assert unify_in(open_term, deep_term(depth), env)
    assert resolve(open_term, env) == deep_term(depth)
    assert not unify_in(x, open_term, {})  # occurs check
    assert occurs(x, open_term, {})
    head, _ = rename_clause(mk("lst", open_term), [])
    assert is_variant(head, mk("lst", open_term)) and term_vars(head) != [x]
    assert skolemize(open_term) == deep_term(depth, "$sk1")
    assert apply({x: Const("nil")}, open_term) == deep_term(depth)
    atom = mk("lst", open_term)
    assert abstract_depth(atom, depth) == (atom, {})
    abstracted, binding = abstract_depth(atom, depth // 2)
    assert len(binding) == 1 and apply(binding, abstracted) == atom
    assert is_ground(deep_term(depth)) and not is_ground(atom)


# -- the walkers against recursive references ---------------------------------
# Each reference is the plain recursive definition, kept here only to check
# the iterative walkers of incrtab.terms on shallow terms.

def ref_same(a, b):
    """Structural equality, variables by identity."""
    if isinstance(a, Var) or isinstance(b, Var):
        return a is b
    if isinstance(a, Const) or isinstance(b, Const):
        return a == b
    return (a.functor == b.functor and len(a.args) == len(b.args)
            and all(ref_same(x, y) for x, y in zip(a.args, b.args)))


def ref_show(t):
    """Shape of t with variables shown by name."""
    if isinstance(t, Var):
        return ("v", t.name)
    if isinstance(t, Const):
        return ("c", type(t.value).__name__, t.value)
    return ("s", t.functor, tuple(ref_show(a) for a in t.args))


def ref_walk(t, env):
    while isinstance(t, Var) and t in env:
        t = env[t]
    return t


def ref_resolve(t, env):
    t = ref_walk(t, env)
    if isinstance(t, Struct):
        return Struct(t.functor, tuple(ref_resolve(a, env) for a in t.args))
    return t


def ref_apply(s, t):
    if isinstance(t, Var):
        return s.get(t, t)
    if isinstance(t, Struct):
        return Struct(t.functor, tuple(ref_apply(s, a) for a in t.args))
    return t


def ref_rename(t, mapping, make):
    if isinstance(t, Var):
        if t not in mapping:
            mapping[t] = make(t, len(mapping))
        return mapping[t]
    if isinstance(t, Struct):
        return Struct(t.functor, tuple(ref_rename(a, mapping, make) for a in t.args))
    return t


def ref_occurs(v, t, env):
    t = ref_walk(t, env)
    if isinstance(t, Struct):
        return any(ref_occurs(v, a, env) for a in t.args)
    return t is v


def ref_format(t):
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return str(t.value)
    return f"{t.functor}({','.join(ref_format(a) for a in t.args)})"


def ref_abstract(t, k, binding, depth=0):
    if isinstance(t, Var):
        return t
    if depth > k:
        v = Var(f"$abs{len(binding) + 1}")
        binding[v] = t
        return v
    if isinstance(t, Struct):
        return Struct(t.functor, tuple(ref_abstract(a, k, binding, depth + 1)
                                       for a in t.args))
    return t


def ref_key(t, numbering):
    """The nested canonical key the flat one replaced."""
    if isinstance(t, Const):
        return t.value
    if isinstance(t, Var):
        return ("v", numbering.setdefault(t, len(numbering)))
    return ("s", t.functor, len(t.args)) + tuple(ref_key(a, numbering) for a in t.args)


def outcome(compare):
    try:
        return compare()
    except TypeError:
        return TypeError


_pool = [_shared_var(name) for name in ("X", "Y", "Z")]


def _terms_to(depth):
    base = st.one_of(_names.map(Const),
                     st.integers(min_value=0, max_value=3).map(Const),
                     st.sampled_from(_pool))
    if depth == 0:
        return base
    return st.one_of(base, st.tuples(
        _names, st.lists(_terms_to(depth - 1), min_size=1, max_size=2),
    ).map(lambda fa: Struct(fa[0], tuple(fa[1]))))


_shallow = _terms_to(6)


@settings(max_examples=300, deadline=None)
@given(_shallow, _shallow, _shallow)
def test_walkers_match_recursive_references(t, u, w):
    env = {}
    unify_in(u, w, env)  # partial or complete, always acyclic
    assert ref_same(resolve(t, env), ref_resolve(t, env))
    assert occurs(_pool[0], t, env) == ref_occurs(_pool[0], t, env)
    s = {v: b for v, b in env.items() if v is not _pool[1]}
    assert ref_same(apply(s, t), ref_apply(s, t))
    head, (lit,) = rename_clause(t, [Literal(POS, u)])
    pair = Struct("c", (head, lit.atom))
    assert is_variant(pair, Struct("c", (t, u)))
    assert not set(term_vars(pair)) & set(_pool)
    assert [v.name for v in term_vars(pair)] == [
        v.name for v in term_vars(Struct("c", (t, u)))]
    skolem = ref_rename(t, {}, lambda v, n: Const(f"$sk{n + 1}"))
    assert ref_show(skolemize(t)) == ref_show(skolem)
    canon = ref_rename(Struct("c", (t, u)), {}, lambda v, n: Var(f"_A{n}"))
    assert [ref_show(x) for x in canonicalize_terms((t, u))] == [
        ref_show(x) for x in canon.args]
    assert format_term(t) == ref_format(t)
    for k in range(4):
        atom = Struct("p", (t, u))
        binding = {}
        got, got_binding = abstract_depth(atom, k)
        assert ref_show(got) == ref_show(ref_abstract(atom, k, binding))
        assert {v.name: ref_show(b) for v, b in got_binding.items()} == {
            v.name: ref_show(b) for v, b in binding.items()}
    for a, b in ((t, u), (t, resolve(t, {})), (t, ref_resolve(t, {}))):
        assert (a == b) == ref_same(a, b)
        if a == b:
            assert hash(a) == hash(b)
        flat = canonical_key(a), canonical_key(b)
        nested = ref_key(a, {}), ref_key(b, {})
        assert (flat[0] == flat[1]) == (nested[0] == nested[1])
        assert outcome(lambda: flat[0] < flat[1]) == outcome(
            lambda: nested[0] < nested[1])


# -- guard: no walker recurses --------------------------------------------------

def _self_calls(functions):
    for fn in functions:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                callee = node.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(
                    callee, "attr", None)
                if name == fn.name:
                    yield fn.name


def _functions(module):
    tree = ast.parse(Path(module.__file__).read_text())
    return [n for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_no_term_walker_calls_itself():
    """Term depth is unbounded, so no function of incrtab.terms (nested ones
    included) and not Parser.parse_term may recurse."""
    functions = _functions(incrtab.terms) + [
        fn for fn in _functions(incrtab.parser) if fn.name == "parse_term"]
    assert len(functions) > 20
    assert sorted(set(_self_calls(functions))) == []


# -- guard: no stored field goes unread ------------------------------------------

def _stored_fields(tree):
    """(class, name) for each `__slots__` entry and dataclass field."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        dataclass = any(getattr(d, "id", None) == "dataclass"
                        for d in cls.decorator_list)
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign) and any(
                    getattr(t, "id", None) == "__slots__" for t in stmt.targets):
                for elt in stmt.value.elts:
                    yield cls.name, elt.value
            elif dataclass and isinstance(stmt, ast.AnnAssign):
                yield cls.name, stmt.target.id


def test_every_stored_field_is_read():
    """Every slot and dataclass field of incrtab is read (an attribute load)
    somewhere in incrtab: the engine keeps no state it never uses."""
    trees = [ast.parse(path.read_text())
             for path in Path(incrtab.terms.__file__).parent.glob("*.py")]
    fields = [f for tree in trees for f in _stored_fields(tree)]
    loads = {node.attr for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert len(fields) > 40
    assert sorted(f"{cls}.{name}" for cls, name in fields
                  if name not in loads) == []
