"""Clause database: predicate declarations, one clause index per
predicate, and the assert/retract entry points that feed invalidation.

Each predicate's clauses live in one `terms.Arg1Index`, filed under the
key of their first argument: a static predicate's clauses in source order,
a dynamic one's in assert order.  Consult stores static clauses and those
of non-incremental dynamic predicates (`load_clause`); a dynamic
incremental predicate changes only through `assert_clause` and
`retract_clause`, which invalidate before they store or remove.  Variants
share their first-argument key, so `retract_clause` looks for the first
stored variant in one index bucket only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import ExistenceError, PermissionViolation
from .terms import (
    Arg1Index,
    Term,
    arg1_key,
    canonical_key,
    format_term,
    functor_of,
    rename_clause,
)

# Literal kinds
POS = "pos"            # ordinary atom (tabled, static or dynamic predicate)
TNOT = "tnot"          # tabled negation, ground goals only
SK_NOT = "sk_not"      # tabled negation after skolemization
UNDEFINED = "undefined"  # built-in: delays with a permanently undefined literal
UNIFY = "="            # built-in unification
NOT_UNIFY = "\\="      # built-in non-unifiability test
ATOMIC = "atomic"      # built-in atomic/1 test
CUT = "!"              # once-like cut, final literal only

BUILTIN_KINDS = (UNDEFINED, UNIFY, NOT_UNIFY, ATOMIC, CUT)


class Literal:
    __slots__ = ("kind", "atom", "args")

    def __init__(self, kind: str, atom: Optional[Term] = None, args: tuple = ()):
        self.kind = kind
        self.atom = atom   # POS/TNOT/SK_NOT: the wrapped atom
        self.args = args   # UNIFY/NOT_UNIFY/ATOMIC arguments

    def map_terms(self, f: Callable[[Term], Term]) -> "Literal":
        return Literal(
            self.kind,
            f(self.atom) if self.atom is not None else None,
            tuple(f(a) for a in self.args),
        )

    def __repr__(self) -> str:
        if self.kind == POS:
            return format_term(self.atom)
        if self.kind in (TNOT, SK_NOT):
            return f"{self.kind}({format_term(self.atom)})"
        if self.kind in (UNIFY, NOT_UNIFY):
            return f"{format_term(self.args[0])} {self.kind} {format_term(self.args[1])}"
        if self.kind == ATOMIC:
            return f"atomic({format_term(self.args[0])})"
        return self.kind


class Clause:
    __slots__ = ("head", "body")

    def __init__(self, head: Term, body: list):
        self.head = head
        self.body = body

    def rename(self) -> tuple:
        """Head and body with the variables renamed apart; a ground fact,
        which has none, comes back as stored."""
        if not self.body and self.head.ground:
            return self.head, self.body
        return rename_clause(self.head, self.body)

    def __repr__(self) -> str:
        if not self.body:
            return f"{format_term(self.head)}."
        return f"{format_term(self.head)} :- {', '.join(map(repr, self.body))}."


@dataclass
class PredicateDecl:
    name: str
    arity: int
    dynamic: bool = False
    tabled: bool = False
    incremental: bool = False
    idg_abstraction: Optional[int] = None       # dynamic incremental only
    subgoal_abstraction: Optional[int] = None   # tabled only
    answer_abstraction: Optional[int] = None    # tabled only

    @property
    def indicator(self) -> str:
        return f"{self.name}/{self.arity}"


@dataclass
class UpdateToken:
    op: str                    # "assert" | "retract"
    clause: Optional[Clause]   # None for a retract that matched nothing
    decl: PredicateDecl


class ProgramStore:
    """Declarations plus one clause index per declared predicate.

    A predicate's clauses are indexed on the key of their first argument,
    static ones in source order, dynamic ones in assert order.  A clause
    asserted twice is stored twice.
    """

    def __init__(self):
        self.decls: dict = {}     # (name, arity) -> PredicateDecl
        self.clauses: dict = {}   # (name, arity) -> Arg1Index of Clause
        self.rules: dict = {}     # (name, arity) -> number of its stored rules
        self.on_update = None     # hook installed by the engine

    # -- declarations --------------------------------------------------

    def decl_of(self, pred: tuple) -> Optional[PredicateDecl]:
        return self.decls.get(pred)

    def require_decl(self, pred: tuple) -> PredicateDecl:
        decl = self.decls.get(pred)
        if decl is None:
            raise ExistenceError(f"undeclared predicate {pred[0]}/{pred[1]}")
        return decl

    def declare(self, decl: PredicateDecl) -> None:
        key = (decl.name, decl.arity)
        if decl.tabled and decl.dynamic and decl.incremental:
            raise PermissionViolation(
                f"{decl.indicator}: predicates tabled as incremental must use static code"
            )
        if decl.idg_abstraction is not None and not (decl.dynamic and decl.incremental):
            raise PermissionViolation(
                f"{decl.indicator}: abstract/1 requires a dynamic incremental predicate"
            )
        if (decl.subgoal_abstraction is not None or decl.answer_abstraction is not None) and not decl.tabled:
            raise PermissionViolation(
                f"{decl.indicator}: subgoal/answer abstraction requires a tabled predicate"
            )
        existing = self.decls.get(key)
        if existing is not None:
            if (existing.dynamic, existing.tabled, existing.incremental) != (
                decl.dynamic,
                decl.tabled,
                decl.incremental,
            ):
                raise PermissionViolation(
                    f"{decl.indicator}: conflicting redeclaration"
                )
            # Redeclaration with identical attributes is a no-op.
            return
        self.decls[key] = decl
        self.clauses[key] = Arg1Index()

    def ensure_declared(self, pred: tuple) -> PredicateDecl:
        """pred's declaration, declaring it static when it has none."""
        decl = self.decls.get(pred)
        if decl is None:
            decl = PredicateDecl(pred[0], pred[1])
            self.declare(decl)
        return decl

    # -- loading -------------------------------------------------------

    def _validate_body(self, head_decl: PredicateDecl, clause: Clause) -> None:
        for i, lit in enumerate(clause.body):
            if lit.kind == CUT:
                if i != len(clause.body) - 1:
                    raise PermissionViolation(
                        f"{head_decl.indicator}: cut is only supported as the final body literal"
                    )
                if not head_decl.tabled:
                    raise PermissionViolation(
                        f"{head_decl.indicator}: cut is only supported in tabled predicate bodies"
                    )
                continue
            if lit.kind in BUILTIN_KINDS:
                continue
            pred = functor_of(lit.atom)
            ref = self.decls.get(pred)
            if lit.kind in (TNOT, SK_NOT):
                if ref is None or not ref.tabled:
                    raise PermissionViolation(
                        f"{head_decl.indicator}: {lit.kind}/1 applied to non-tabled {pred[0]}/{pred[1]}"
                    )
            if ref is not None and head_decl.tabled and head_decl.incremental:
                if ref.dynamic and not ref.incremental:
                    raise PermissionViolation(
                        f"{head_decl.indicator}: calls non-incremental dynamic {ref.indicator}"
                    )
                if ref.tabled and not ref.incremental:
                    raise PermissionViolation(
                        f"{head_decl.indicator}: calls non-incremental table {ref.indicator}"
                    )

    def load_clause(self, clause: Clause) -> None:
        """Consult-time entry point: store a clause without producing an
        update token.  A dynamic incremental predicate's clauses must go
        through `assert_clause`, which invalidates the tables they feed."""
        pred = functor_of(clause.head)
        decl = self.ensure_declared(pred)
        if decl.dynamic and decl.incremental:
            raise PermissionViolation(
                f"{decl.indicator} is dynamic incremental; use assert_clause"
            )
        self._validate_body(decl, clause)
        self._add(pred, clause)

    def _add(self, pred: tuple, clause: Clause) -> None:
        self.clauses[pred].add(clause.head, clause)
        if clause.body:
            self.rules[pred] = self.rules.get(pred, 0) + 1

    # -- dynamic updates -----------------------------------------------

    def assert_clause(self, clause: Clause) -> UpdateToken:
        pred = functor_of(clause.head)
        decl = self.require_decl(pred)
        if not (decl.dynamic and decl.incremental):
            raise PermissionViolation(
                f"assert requires a dynamic incremental predicate, got {pred[0]}/{pred[1]}"
            )
        self._validate_body(decl, clause)
        token = UpdateToken("assert", clause, decl)
        # Invalidate before storing, so that a failed update changes nothing.
        if self.on_update is not None:
            self.on_update(token)
        self._add(pred, clause)
        return token

    def retract_clause(self, clause: Clause) -> UpdateToken:
        pred = functor_of(clause.head)
        decl = self.require_decl(pred)
        if not (decl.dynamic and decl.incremental):
            raise PermissionViolation(
                f"retract requires a dynamic incremental predicate, got {pred[0]}/{pred[1]}"
            )
        # Variants share their first-argument key: the first stored variant
        # is the first one in that key's bucket.
        index = self.clauses[pred]
        target_key = _clause_variant_key(clause)
        for _, stored in index.buckets.get(arg1_key(clause.head), ()):
            if _clause_variant_key(stored) == target_key:
                break
        else:
            return UpdateToken("retract", None, decl)
        token = UpdateToken("retract", stored, decl)
        if self.on_update is not None:
            self.on_update(token)
        index.remove(stored.head, stored)
        if stored.body:
            self.rules[pred] -= 1
        return token

    # -- resolution feed -------------------------------------------------

    def static_candidates(self, pred: tuple, goal: Term,
                          env: Optional[dict] = None) -> list:
        """Clauses of pred possibly matching goal, in source or assert
        order."""
        return [c for _, c in self.clauses[pred].matching(goal, env)]

    # The engine selects through `static_candidates` only; this alias stays
    # bound because perfbench/tracing.py wraps both names.
    _dynamic_candidates = static_candidates


def literal_key(lit: Literal, numbering: dict) -> tuple:
    """Variant key of a body literal, numbering variables through numbering."""
    parts = [lit.kind]
    if lit.atom is not None:
        parts.append(canonical_key(lit.atom, None, numbering))
    for a in lit.args:
        parts.append(canonical_key(a, None, numbering))
    return tuple(parts)


def _clause_variant_key(clause: Clause):
    numbering: dict = {}
    head_key = canonical_key(clause.head, None, numbering)
    if not clause.body:
        return (head_key, ())
    return (head_key, tuple([literal_key(lit, numbering) for lit in clause.body]))
