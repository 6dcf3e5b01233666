import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incrtab.terms import (
    Const,
    Struct,
    Var,
    abstract_depth,
    apply,
    canonical_key,
    format_term,
    is_ground,
    is_variant,
    mk,
    skolemize,
    term_vars,
    unify,
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
