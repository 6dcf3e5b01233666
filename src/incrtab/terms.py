"""First-order terms, substitutions, unification and depth abstraction.

Terms are immutable. Variables compare by identity: the parser creates one
Var object per distinct name within a clause, and resolution renames clauses
apart by allocating fresh Var objects.
"""

from __future__ import annotations

import itertools
from typing import Optional, Union

Value = Union[str, int]

# Reserved namespaces, invisible to user programs (the parser rejects them).
ABSTRACT_PREFIX = "$abs"
SKOLEM_PREFIX = "$sk"


class Term:
    __slots__ = ()


class Var(Term):
    """A logic variable; equality and hashing are by object identity."""

    __slots__ = ("name",)

    def __init__(self, name: str = "_"):
        self.name = name

    def __repr__(self) -> str:
        return f"Var({self.name}@{id(self):x})"


class Const(Term):
    """An atomic constant: a symbol (arity 0) or an integer."""

    __slots__ = ("value",)

    def __init__(self, value: Value):
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and self.value == other.value and type(self.value) is type(other.value)

    def __hash__(self) -> int:
        return hash(("c", self.value))

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


class Struct(Term):
    """A compound term: functor applied to one or more arguments."""

    __slots__ = ("functor", "args", "_hash", "_ground")

    def __init__(self, functor: str, args: tuple):
        self.functor = functor
        self.args = args
        self._hash: Optional[int] = None
        self._ground: Optional[bool] = None

    def __eq__(self, other: object) -> bool:
        return (
            self is other
            or isinstance(other, Struct)
            and self.functor == other.functor
            and self.args == other.args
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(("s", self.functor, self.args))
        return h

    def __repr__(self) -> str:
        return f"Struct({self.functor}, {self.args!r})"


Subst = dict  # Var -> Term


def mk(functor: str, *args) -> Term:
    """Convenience constructor: atoms for arity 0, compounds otherwise."""
    terms = tuple(a if isinstance(a, Term) else Const(a) for a in args)
    if not terms:
        return Const(functor)
    return Struct(functor, terms)


def functor_of(t: Term) -> tuple:
    """(name, arity) of a callable atom."""
    if isinstance(t, Const) and isinstance(t.value, str):
        return (t.value, 0)
    if isinstance(t, Struct):
        return (t.functor, len(t.args))
    raise TypeError(f"not a callable atom: {t!r}")


def walk(t: Term, env: Subst) -> Term:
    while type(t) is Var:
        bound = env.get(t)
        if bound is None:
            return t
        t = bound
    return t


def arg1_key(t: Term, env: Optional[Subst] = None):
    """Index key of the first argument of atom t, None when it is unbound.

    Constants key on type and value, compounds on name and arity, so two
    atoms whose first-argument keys differ (neither None) cannot unify.
    """
    if type(t) is Struct and t.args:
        a = t.args[0]
        if env is not None:
            a = walk(a, env)
        tp = type(a)
        if tp is Const:
            return ("c", type(a.value).__name__, a.value)
        if tp is Struct:
            return ("f", a.functor, len(a.args))
    return None


class Arg1Index:
    """Items in insertion order, each filed under the `arg1_key` of the atom
    it was added with; buckets hold (seq, item) pairs in insertion order."""

    __slots__ = ("items", "buckets", "_seq")

    def __init__(self):
        self.items: dict = {}    # seq -> item
        self.buckets: dict = {}  # arg1 key (None: unbound) -> [(seq, item)]
        self._seq = 0

    def add(self, atom: Term, item) -> None:
        self._seq = seq = self._seq + 1
        self.items[seq] = item
        self.buckets.setdefault(arg1_key(atom), []).append((seq, item))

    def matching(self, goal: Term, env: Optional[Subst] = None):
        """(seq, item) pairs whose atom may unify with goal, in insertion
        order: the goal's keyed bucket merged with the unbound bucket, or
        every pair when the goal's first argument is unbound.  The result
        may be a bucket itself, so callers only read it."""
        key = arg1_key(goal, env)
        if key is None:
            return self.items.items()
        keyed = self.buckets.get(key)
        open_first = self.buckets.get(None)
        if not open_first:
            return keyed or ()
        if not keyed:
            return open_first
        return sorted(keyed + open_first)

    def remove(self, key, pos: int) -> None:
        """Remove the entry at position pos of the bucket filed under key."""
        bucket = self.buckets[key]
        seq, _ = bucket.pop(pos)
        del self.items[seq]


def resolve(t: Term, env: Subst) -> Term:
    """Fully substitute bindings from env into t."""
    t = walk(t, env)
    if type(t) is Struct:
        if t._ground:
            return t
        args = tuple(resolve(a, env) for a in t.args)
        if all(a is b for a, b in zip(args, t.args)):
            return t
        out = Struct(t.functor, args)
        if all(type(a) is Const or (type(a) is Struct and a._ground)
               for a in args):
            out._ground = True
        return out
    return t


def occurs(v: Var, t: Term, env: Subst) -> bool:
    t = walk(t, env)
    if t is v:
        return True
    if type(t) is Struct:
        if t._ground:
            return False
        return any(occurs(v, a, env) for a in t.args)
    return False


def unify_in(t1: Term, t2: Term, env: Subst) -> bool:
    """Destructively extend env with the mgu of t1 and t2 (occurs-check on).

    On failure env may hold partial bindings; callers are expected to unify
    into a scratch copy.
    """
    get = env.get
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        while type(a) is Var:
            nxt = get(a)
            if nxt is None:
                break
            a = nxt
        while type(b) is Var:
            nxt = get(b)
            if nxt is None:
                break
            b = nxt
        if a is b:
            continue
        ta = type(a)
        tb = type(b)
        if ta is Var:
            if tb is not Const and occurs(a, b, env):
                return False
            env[a] = b
        elif tb is Var:
            if ta is not Const and occurs(b, a, env):
                return False
            env[b] = a
        elif ta is Const:
            if not (tb is Const and a == b):
                return False
        elif tb is Const:
            return False
        else:
            if a.functor != b.functor or len(a.args) != len(b.args):
                return False
            stack.extend(zip(a.args, b.args))
    return True


def unify(t1: Term, t2: Term) -> Optional[Subst]:
    """Most general unifier of t1 and t2, or None.

    The returned substitution is idempotent: every binding is fully resolved.
    """
    env: Subst = {}
    if not unify_in(t1, t2, env):
        return None
    return {v: resolve(t, env) for v, t in env.items()}


def apply(s: Subst, t: Term) -> Term:
    """Simultaneous replacement of bound variables in t."""
    tp = type(t)
    if tp is Var:
        return s.get(t, t)
    if tp is Struct and not t._ground:
        args = tuple(apply(s, a) for a in t.args)
        if all(a is b for a, b in zip(args, t.args)):
            return t
        return Struct(t.functor, args)
    return t


def is_variant(t1: Term, t2: Term) -> bool:
    """True iff t1 and t2 are equal up to a renaming of variables.

    One pass with a bidirectional renaming map.
    """
    fwd: dict = {}
    bwd: dict = {}
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        if isinstance(a, Var):
            if not isinstance(b, Var):
                return False
            if a in fwd:
                if fwd[a] is not b:
                    return False
            elif b in bwd:
                return False
            else:
                fwd[a] = b
                bwd[b] = a
        elif isinstance(a, Const):
            if not (isinstance(b, Const) and a == b):
                return False
        else:
            if not (
                isinstance(b, Struct)
                and a.functor == b.functor
                and len(a.args) == len(b.args)
            ):
                return False
            stack.extend(zip(a.args, b.args))
    return True


def term_vars(t: Term) -> list:
    """Distinct variables of t in first-occurrence (left-to-right) order."""
    seen: dict = {}
    stack = [t]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Var):
            if cur not in seen:
                seen[cur] = None
        elif isinstance(cur, Struct):
            stack.extend(reversed(cur.args))
    return list(seen)


def canonical_key(t: Term, env: Optional[Subst] = None, _numbering: Optional[dict] = None):
    """Hashable structural key with variables numbered by first occurrence.

    Two terms are variants iff their canonical keys are equal, so the key
    serves as the variant-based table index.  Constants map to their raw
    value (str/int never collide with the tuple-shaped var/struct keys).
    """
    numbering = _numbering if _numbering is not None else {}

    def go(u: Term):
        if env is not None:
            u = walk(u, env)
        tp = type(u)
        if tp is Const:
            return u.value
        if tp is Var:
            idx = numbering.get(u)
            if idx is None:
                idx = numbering[u] = len(numbering)
            return ("v", idx)
        return ("s", u.functor, len(u.args)) + tuple([go(a) for a in u.args])

    return go(t)


def canonical_tuple_key(terms: tuple, env: Optional[Subst] = None) -> tuple:
    numbering: dict = {}
    return tuple(canonical_key(t, env, numbering) for t in terms)


def abstract_depth(t: Term, k: int) -> tuple:
    """Replace subterms of the atom t deeper than k by distinct fresh variables.

    Arguments of the atom are at depth 1.  Returns (abstracted, binding) with
    apply(binding, abstracted) == t.
    """
    if k < 0:
        raise ValueError("abstraction depth must be non-negative")
    binding: Subst = {}
    counter = itertools.count(1)

    def go(u: Term, depth: int) -> Term:
        if depth > k and (isinstance(u, Struct) or not isinstance(u, Var)):
            # Replacement point: anything but an already-free variable.
            v = Var(f"{ABSTRACT_PREFIX}{next(counter)}")
            binding[v] = u
            return v
        if isinstance(u, Struct):
            return Struct(u.functor, tuple(go(a, depth + 1) for a in u.args))
        return u

    if isinstance(t, Const):
        return t, binding
    if not isinstance(t, Struct):
        raise TypeError("abstract_depth expects a callable atom")
    return Struct(t.functor, tuple(go(a, 1) for a in t.args)), binding


def needs_abstraction(t: Term, k: int, env: Optional[Subst] = None) -> bool:
    """True iff some non-variable subterm of atom t sits deeper than k
    (atom arguments are at depth 1)."""
    if type(t) is Const or not isinstance(t, Struct):
        return False
    stack = [(a, 1) for a in t.args]
    while stack:
        u, depth = stack.pop()
        if env is not None:
            u = walk(u, env)
        if type(u) is Var:
            continue
        if depth > k:
            return True
        if type(u) is Struct:
            stack.extend((a, depth + 1) for a in u.args)
    return False


def skolemize(t: Term) -> Term:
    """Replace each distinct free variable by a distinct reserved constant."""
    mapping: dict = {}

    def go(u: Term) -> Term:
        if isinstance(u, Var):
            c = mapping.get(u)
            if c is None:
                c = mapping[u] = Const(f"{SKOLEM_PREFIX}{len(mapping) + 1}")
            return c
        if isinstance(u, Struct):
            return Struct(u.functor, tuple(go(a) for a in u.args))
        return u

    return go(t)


def canonicalize_terms(terms: tuple) -> tuple:
    """Rename the variables of an answer tuple to fresh canonical ones."""
    if all(is_ground(t) for t in terms):
        return terms
    mapping: dict = {}

    def go(u: Term) -> Term:
        if isinstance(u, Var):
            v = mapping.get(u)
            if v is None:
                v = mapping[u] = Var(f"_A{len(mapping)}")
            return v
        if isinstance(u, Struct) and not is_ground(u):
            return Struct(u.functor, tuple(go(a) for a in u.args))
        return u

    return tuple(go(t) for t in terms)


def is_ground(t: Term) -> bool:
    tp = type(t)
    if tp is Const:
        return True
    if tp is Var:
        return False
    g = t._ground
    if g is None:
        g = t._ground = all(is_ground(a) for a in t.args)
    return g


def rename_clause(head: Term, body, mapping: Optional[dict] = None) -> tuple:
    """Copy a clause with all variables renamed apart.

    Ground substructure is shared, not copied.
    """
    mapping = mapping if mapping is not None else {}

    def go(u: Term) -> Term:
        tp = type(u)
        if tp is Var:
            v = mapping.get(u)
            if v is None:
                v = mapping[u] = Var(u.name)
            return v
        if tp is Struct and not is_ground(u):
            return Struct(u.functor, tuple(go(a) for a in u.args))
        return u

    return go(head), [lit.map_terms(go) for lit in body]


def _plain_atom(s: str) -> bool:
    return bool(s) and s[0].islower() and all(c.isalnum() or c == "_" for c in s)


def format_term(t: Term, env: Optional[Subst] = None) -> str:
    if env is not None:
        t = walk(t, env)
    if isinstance(t, Var):
        return t.name if t.name != "_" else f"_G{id(t) & 0xFFFF:04x}"
    if isinstance(t, Const):
        if isinstance(t.value, int):
            return str(t.value)
        return t.value if _plain_atom(t.value) else f"'{t.value}'"
    args = ",".join(format_term(a, env) for a in t.args)
    return f"{t.functor}({args})"
