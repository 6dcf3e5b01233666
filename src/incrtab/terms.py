"""First-order terms, substitutions, unification and depth abstraction.

Terms are immutable. Variables compare by identity: the parser creates one
Var object per distinct name within a clause, and resolution renames clauses
apart by allocating fresh Var objects.
"""

from __future__ import annotations

from operator import is_
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
    ground = False

    def __init__(self, name: str = "_"):
        self.name = name

    def __repr__(self) -> str:
        return f"Var({self.name}@{id(self):x})"


class Const(Term):
    """An atomic constant: a symbol (arity 0) or an integer."""

    __slots__ = ("value",)
    ground = True

    def __init__(self, value: Value):
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and self.value == other.value and type(self.value) is type(other.value)

    def __hash__(self) -> int:
        return hash(("c", self.value))

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


class Struct(Term):
    """A compound term: functor applied to one or more arguments.

    Equal terms have equal canonical keys and the same variables in
    first-occurrence order."""

    __slots__ = ("functor", "args", "ground")

    def __init__(self, functor: str, args: tuple):
        self.functor = functor
        self.args = args
        for a in args:
            if not a.ground:
                self.ground = False
                break
        else:
            self.ground = True

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Struct)
            and canonical_key(self) == canonical_key(other)
            and term_vars(self) == term_vars(other)
        )

    def __hash__(self) -> int:
        return hash(canonical_key(self))

    def __repr__(self) -> str:
        return f"Struct({format_term(self)})"


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
    it was added with; buckets hold (seq, item) pairs in insertion order.
    `_seq` is the seq of the last item added."""

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
        """Remove the entry at position pos of the bucket filed under key,
        and the bucket once it is empty."""
        bucket = self.buckets[key]
        seq, _ = bucket.pop(pos)
        del self.items[seq]
        if not bucket:
            del self.buckets[key]


def _rebuild(t: Term, leaf, env: Optional[Subst] = None) -> Term:
    """Copy of t with each variable v replaced by leaf(v), in left-to-right
    order, each subterm first walked through env when one is given.
    Unchanged subterms are shared, not copied."""
    if env is not None:
        t = walk(t, env)
    if type(t) is Var:
        return leaf(t)
    if t.ground:
        return t
    stack = [(t, iter(t.args), [])]   # open compounds: (term, rest, new args)
    while True:
        s, rest, out = stack[-1]
        for a in rest:
            if env is not None:
                a = walk(a, env)
            if type(a) is Var:
                out.append(leaf(a))
            elif a.ground:
                out.append(a)
            else:
                stack.append((a, iter(a.args), []))
                break
        else:
            stack.pop()
            if not all(map(is_, out, s.args)):
                s = Struct(s.functor, tuple(out))
            if not stack:
                return s
            stack[-1][2].append(s)


def _fresh(make):
    """A `_rebuild` leaf mapping each distinct variable to make(v, n), where
    n numbers the distinct variables from 0 in first-occurrence order."""
    mapping: dict = {}
    return lambda v: mapping.get(v) or mapping.setdefault(v, make(v, len(mapping)))


def resolve(t: Term, env: Subst) -> Term:
    """Fully substitute bindings from env into t."""
    return _rebuild(t, lambda v: v, env)


def occurs(v: Var, t: Term, env: Subst) -> bool:
    stack = [t]
    while stack:
        u = walk(stack.pop(), env)
        if u is v:
            return True
        if type(u) is Struct and not u.ground:
            stack.extend(u.args)
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
            if tb is Struct and not b.ground and occurs(a, b, env):
                return False
            env[a] = b
        elif tb is Var:
            if ta is Struct and not a.ground and occurs(b, a, env):
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
    return _rebuild(t, lambda v: s.get(v, v))


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


def canonical_key(t: Term, env: Optional[Subst] = None, numbering: Optional[dict] = None):
    """Hashable structural key with variables numbered by first occurrence.

    Two terms are variants iff their canonical keys are equal, so the key
    serves as the variant-based table index.  A constant's key is its raw
    value (str/int never collide with the tuple-shaped keys), a variable's
    is ("v", n).  A compound's key is flat: "s", functor, arity, then each
    subterm below it in pre-order, a compound as a ("s", functor, arity)
    token, a variable as ("v", n), a constant as its value.  Arities make
    the pre-order unambiguous, and keys order as nested per-subterm tuples
    would.  Flat, because CPython hashes and compares nested tuples
    recursively, so a deep term's nested key would exhaust the recursion
    limit.  Pass numbering (variable -> n) to number several terms as one.
    """
    if numbering is None:
        numbering = {}
    out = []
    stack = [t]
    while stack:
        u = stack.pop()
        if env is not None:
            u = walk(u, env)
        tp = type(u)
        if tp is Const:
            out.append(u.value)
        elif tp is Var:
            idx = numbering.get(u)
            if idx is None:
                idx = numbering[u] = len(numbering)
            out.append(("v", idx))
        else:
            out.append(("s", u.functor, len(u.args)))
            stack.extend(reversed(u.args))
    if len(out) == 1:
        return out[0]
    out[:1] = out[0]
    return tuple(out)


def canonical_tuple_key(terms: tuple, env: Optional[Subst] = None) -> tuple:
    numbering: dict = {}
    return tuple(canonical_key(t, env, numbering) for t in terms)


def abstract_depth(t: Term, k: int) -> tuple:
    """Replace subterms of the atom t deeper than k by distinct fresh variables.

    Arguments of the atom are at depth 1.  Returns (abstracted, binding) with
    apply(binding, abstracted) == t; binding is empty, and abstracted is t,
    when no non-variable subterm is deeper than k.
    """
    if k < 0:
        raise ValueError("abstraction depth must be non-negative")
    binding: Subst = {}
    if isinstance(t, Const):
        return t, binding
    if not isinstance(t, Struct):
        raise TypeError("abstract_depth expects a callable atom")
    # open compounds: (term, depth of its arguments, rest, new args)
    stack = [(t, 1, iter(t.args), [])]
    while True:
        s, depth, rest, out = stack[-1]
        for a in rest:
            if type(a) is not Var and depth > k:
                v = Var(f"{ABSTRACT_PREFIX}{len(binding) + 1}")
                binding[v] = a
                a = v
            elif type(a) is Struct:
                stack.append((a, depth + 1, iter(a.args), []))
                break
            out.append(a)
        else:
            stack.pop()
            if not all(map(is_, out, s.args)):
                s = Struct(s.functor, tuple(out))
            if not stack:
                return s, binding
            stack[-1][3].append(s)


def skolemize(t: Term) -> Term:
    """Replace each distinct free variable by a distinct reserved constant."""
    return _rebuild(t, _fresh(lambda v, n: Const(f"{SKOLEM_PREFIX}{n + 1}")))


def canonicalize_terms(terms: tuple) -> tuple:
    """Rename the variables of an answer tuple to fresh canonical ones."""
    if all(t.ground for t in terms):
        return terms
    leaf = _fresh(lambda v, n: Var(f"_A{n}"))
    return tuple(_rebuild(t, leaf) for t in terms)


def is_ground(t: Term) -> bool:
    return t.ground


def rename_clause(head: Term, body) -> tuple:
    """Copy a clause with all variables renamed apart.

    Ground substructure is shared, not copied.
    """
    leaf = _fresh(lambda v, n: Var(v.name))
    return _rebuild(head, leaf), [lit.map_terms(lambda u: _rebuild(u, leaf))
                                  for lit in body]


def _plain_atom(s: str) -> bool:
    return bool(s) and s[0].islower() and all(c.isalnum() or c == "_" for c in s)


def format_term(t: Term, env: Optional[Subst] = None) -> str:
    out = []
    stack = [t]   # terms still to print, and the "," and ")" between them
    while stack:
        u = stack.pop()
        if env is not None:
            u = walk(u, env)
        if type(u) is str:
            out.append(u)
        elif isinstance(u, Var):
            out.append(u.name if u.name != "_" else f"_G{id(u) & 0xFFFF:04x}")
        elif isinstance(u, Const):
            if isinstance(u.value, int):
                out.append(str(u.value))
            else:
                out.append(u.value if _plain_atom(u.value) else f"'{u.value}'")
        else:
            out.append(f"{u.functor}(")
            stack.append(")")
            stack.extend([x for a in reversed(u.args) for x in (a, ",")][:-1])
    return "".join(out)
