"""Query evaluation to completion under the well-founded semantics.

The evaluator is a worklist interpreter over derivation continuations.
Negation on a not-yet-completed table delays eagerly, recording a negative
delay literal; positive resolution against a conditional answer records a
positive delay literal.  When the evaluation quiesces, the dependency graph
among the incomplete tables is decomposed into strongly connected
components, and each component is completed bottom-up: a three-valued
residual reduction over its conditional answers settles every answer to
true (strengthened), false (deleted) or undefined (kept conditional).

Tables invalidated by earlier updates re-enter evaluation through the same
machinery: a call to an invalid table enlists it inside the active
evaluation, in one of two ways chosen by `Engine._can_reopen`:

- re-opened (semi-naive, after inserts only): a definite table that only
  facts asserted through its own call patterns invalidated keeps its
  answers and IDG edges, and derives only what uses one of those facts
  (its node's `delta` log) or one of its own new answers;
- re-derived (every other table): its answers are marked, derived again
  from scratch, and the marked answers not derived again are removed.

Either way `_finish_reeval` compares the answers before and after, keeps
the result on the table's IDG node (`IdgNode.outcome`), and the IDG
propagates validity when nothing changed.

A query on an invalid table (`Engine.lazy_call`) drains the tables it
depends on, dependencies first, in a list the IDG collects afresh for each
call; an unchanged dependency revalidates its parents, which then drain as
no-ops.

Each call and answer is paid again by every lazy re-evaluation, so the call
path does each job once: a dynamic call finds its IDG leaf by key and a
tabled call its table, and either adds its IDG edge only when it is
missing; a derived answer's canonical key is computed once, for the table
and the delivery log; and a selected rule or non-ground fact is renamed
apart (a ground fact is unified as stored), then head-unified once.  The
cyclic collector is paused for an evaluation's span: the heap it builds is
long-lived and holds no cyclic garbage, so a collection there finds nothing.
"""

from __future__ import annotations

import gc
import time
from collections import deque
from typing import Optional

from . import cursors
from .errors import (
    EvaluationTimeout,
    ExistenceError,
    InstantiationError,
    InternalStateError,
    PermissionViolation,
)
from .idg import Idg
from .program import (
    ATOMIC,
    CUT,
    NOT_UNIFY,
    POS,
    SK_NOT,
    TNOT,
    UNDEFINED,
    UNIFY,
    Clause,
    Literal,
    PredicateDecl,
    ProgramStore,
    literal_key,
)
from .tables import (
    COMPLETED,
    INCOMPLETE,
    NEG,
    NEW,
    NEW_SUBSTITUTION,
    RESTRAINT,
    RESTRAINT_LITERAL,
    UNDEF,
    UNDEFINED_LITERAL,
    UNDELETED,
    DelayLiteral,
    Table,
    TableSpace,
)
from .tables import POS as POS_LIT
from .terms import (
    Arg1Index,
    Const,
    Struct,
    Term,
    Var,
    abstract_depth,
    canonical_key,
    canonical_tuple_key,
    canonicalize_terms,
    format_term,
    functor_of,
    is_ground,
    rename_clause,
    resolve,
    skolemize,
    term_vars,
    unify_in,
    walk,
)

# Call kinds that only a re-opened table's seed continuations hold (see
# `Engine._reopen`): DELTA resolves against the facts the table's IDG node
# logged since it was last valid, NEW_ANSWERS reads the table's own answers
# added since it was re-opened.
DELTA = "delta"
NEW_ANSWERS = "new_answers"


class Continuation:
    __slots__ = ("owner", "literals", "idx", "env", "delays", "committed")

    def __init__(self, owner: Table, literals: tuple, idx: int, env: dict,
                 delays: tuple, committed: bool = False):
        self.owner = owner
        self.literals = literals
        self.idx = idx
        self.env = env
        self.delays = delays
        self.committed = committed


class Subscription:
    __slots__ = ("cont", "goal", "provider", "next_idx", "delta")

    def __init__(self, cont: Continuation, goal: Term, provider: Table,
                 delta: Optional[Arg1Index] = None, next_idx: int = 0):
        self.cont = cont
        self.goal = goal
        self.provider = provider
        self.next_idx = next_idx
        self.delta = delta     # clauses of cont's next literal, a DELTA call


class EngineStats:
    def __init__(self):
        self.steps = 0
        self.answers = 0
        self.reevals = 0
        self.semi_naive = 0    # re-evaluations that re-opened their table
        self.drains = 0
        self.invalidations = 0
        self.queries = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class ReevalOutcome:
    __slots__ = ("changed", "old_count", "new_count", "weakened", "removed")

    def __init__(self, changed, old_count, new_count, weakened=0, removed=0):
        self.changed = changed
        self.old_count = old_count
        self.new_count = new_count
        self.weakened = weakened
        self.removed = removed

    def __repr__(self):
        return (f"ReevalOutcome(changed={self.changed}, {self.old_count}->"
                f"{self.new_count}, -{self.removed} ~{self.weakened})")


class Evaluation:
    """One entry into the evaluator: a top-level call or re-derivation."""

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.pending: deque = deque()
        self.managed: dict = {}        # serial -> Table (unsettled here)
        self.dep_edges: dict = {}      # serial -> set of serials
        self.subs: dict = {}           # serial -> list[Subscription]
        self.delivery_log: dict = {}   # serial -> list[answer key]
        self.dirty: deque = deque()    # providers with undelivered answers
        self.dirty_set: set = set()
        self.catchup: deque = deque()  # fresh subscriptions with backlog
        self.deltas: dict = {}         # (serial, pred) -> Arg1Index of delta clauses

    # -- table management -------------------------------------------------

    def manage(self, table: Table) -> None:
        table.status = INCOMPLETE
        self.managed[table.serial] = table
        self.dep_edges.setdefault(table.serial, set())
        self.subs.setdefault(table.serial, [])
        self.delivery_log.setdefault(table.serial, [])

    def seed(self, table: Table) -> None:
        self.manage(table)
        for clause in self.engine._clauses_for(table.subgoal):
            head, body = clause.rename()
            env: dict = {}
            if unify_in(table.subgoal, head, env):
                self.pending.append(
                    Continuation(table, tuple(body), 0, env, ()))

    def record_dep(self, owner: Table, provider: Table) -> None:
        if provider.serial in self.managed and owner.serial in self.managed:
            self.dep_edges[owner.serial].add(provider.serial)

    # -- main loop ----------------------------------------------------------

    def run(self) -> None:
        engine = self.engine
        while True:
            while self.pending:
                engine._step(self, self.pending.popleft())
            if not self._pump():
                break
        self._complete_all()

    def _pump(self) -> bool:
        """Deliver logged answers until some continuation is resumed; False
        when nothing is left to deliver."""
        while self.dirty or self.catchup:
            while self.catchup:
                self._deliver(self.catchup.popleft())
                if self.pending:
                    return True
            if not self.dirty:
                break
            serial = self.dirty.popleft()
            self.dirty_set.discard(serial)
            for sub in self.subs[serial]:
                self._deliver(sub)
            if self.pending:
                return True
        return bool(self.pending)

    def _deliver(self, sub: "Subscription") -> None:
        table = sub.provider
        log = self.delivery_log[table.serial]
        backlog = len(log)
        while sub.next_idx < backlog:
            key = log[sub.next_idx]
            sub.next_idx += 1
            answer = table.answers.get(key)
            if answer is None or answer.deleted:
                continue
            self.engine._resume_with(self, sub.cont, sub.goal, table, answer,
                                     sub.delta)

    def log_delivery(self, table: Table, key) -> None:
        self.delivery_log[table.serial].append(key)
        if table.serial not in self.dirty_set:
            self.dirty_set.add(table.serial)
            self.dirty.append(table.serial)

    # -- completion ---------------------------------------------------------

    def _complete_all(self) -> None:
        for scc in self._sccs():
            self.engine._complete_scc(self, scc)

    def _sccs(self) -> list:
        """Tarjan over the managed tables; components come out dependencies
        first."""
        index: dict = {}
        lowlink: dict = {}
        on_stack: set = set()
        stack: list = []
        out: list = []
        counter = [0]

        def strongconnect(v):
            work = [(v, iter(self.dep_edges.get(v, ())))]
            index[v] = lowlink[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            while work:
                node, it = work[-1]
                advanced = False
                for w in it:
                    if w not in index:
                        index[w] = lowlink[w] = counter[0]
                        counter[0] += 1
                        stack.append(w)
                        on_stack.add(w)
                        work.append((w, iter(self.dep_edges.get(w, ()))))
                        advanced = True
                        break
                    elif w in on_stack:
                        lowlink[node] = min(lowlink[node], index[w])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(self.managed[w])
                        if w == node:
                            break
                    out.append(comp)

        for serial in list(self.managed):
            if serial not in index:
                strongconnect(serial)
        return out


class Engine:
    """One engine session: program store, table space, IDG and evaluator."""

    def __init__(self):
        self.store = ProgramStore()
        self.space = TableSpace()
        self.idg = Idg()
        self.stats = EngineStats()
        self.current_eval: Optional[Evaluation] = None
        self.deadline: Optional[float] = None
        self.last_invalid_list: list = []
        self._driver_cache: dict = {}
        self._driver_counter = 0
        self._abstract_alias: dict = {}
        self.store.on_update = self._on_update
        self.space.preserve_hook = cursors.preserve_views

    # -- plumbing -----------------------------------------------------------

    def set_deadline(self, seconds: Optional[float]) -> None:
        self.deadline = None if seconds is None else time.monotonic() + seconds

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise EvaluationTimeout("evaluation deadline exceeded")

    def _clauses_for(self, goal: Term, env: Optional[dict] = None):
        """The clauses of goal's declared predicate that may match it, in
        store order (first-argument indexed)."""
        return self.store.static_candidates(functor_of(goal), goal, env)

    # -- program loading -------------------------------------------------------

    def consult_text(self, text: str) -> None:
        """Load a program: directives first, then clauses, each in file
        order.  Stops at the first failing unit, leaving earlier units
        applied.  The completed tables of an incremental tabled predicate
        given static clauses are abolished: a re-opened table would never
        see those clauses."""
        from .parser import Directive, parse_program

        units = parse_program(text)
        reloaded: set = set()
        for unit in units:
            if isinstance(unit, Directive):
                for decl in unit.decls:
                    self.store.declare(decl)
        for unit in units:
            if isinstance(unit, Directive):
                continue
            for clause in unit:
                pred = functor_of(clause.head)
                decl = self.store.decl_of(pred)
                if decl is not None and decl.dynamic and decl.incremental:
                    self.store.assert_clause(clause)
                else:
                    self.store.load_clause(clause)
                    if decl is not None and decl.tabled and decl.incremental \
                            and pred not in reloaded:
                        reloaded.add(pred)
                        for table in [t for t in self.space.tables.values()
                                      if t.status == COMPLETED
                                      and functor_of(t.subgoal) == pred]:
                            self.abolish_table(table.subgoal)

    def consult_file(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as handle:
            self.consult_text(handle.read())

    def query(self, text: str) -> cursors.Cursor:
        """Parse and evaluate a goal; the cursor yields answer tuples whose
        positions follow the query variables in first-occurrence order."""
        from .parser import parse_goal

        bodies, out_vars = parse_goal(text)
        return self.solve_goal(bodies, out_vars)

    # -- public query API ----------------------------------------------------

    def solve(self, goal: Term) -> cursors.Cursor:
        """Evaluate goal to completion and open a cursor on its table."""
        return self.solve_goal([[Literal(POS, goal)]], term_vars(goal))

    def solve_goal(self, bodies: list, out_vars: list) -> cursors.Cursor:
        """Evaluate a parsed query (alternative literal lists over shared
        variables) via a driver table."""
        self.stats.queries += 1
        if (
            len(bodies) == 1
            and len(bodies[0]) == 1
            and bodies[0][0].kind == POS
            and (d := self.store.decl_of(functor_of(bodies[0][0].atom))) is not None
            and d.tabled
            and (d.subgoal_abstraction is None
                 or not abstract_depth(bodies[0][0].atom, d.subgoal_abstraction)[1])
            and list(term_vars(bodies[0][0].atom)) == list(out_vars)
        ):
            table = self._ensure_valid_table(bodies[0][0].atom, d)
            return cursors.open_cursor(table)
        goal, decl = self._wrap_driver(bodies, out_vars)
        table = self._ensure_valid_table(goal, decl)
        return cursors.open_cursor(table)

    def _wrap_driver(self, bodies: list, out_vars: list) -> tuple:
        """Wrap a goal in a fresh tabled driver predicate, reusing drivers
        for variant goals."""
        numbering: dict = {}
        key_parts = []
        for body in bodies:
            key_parts.extend(literal_key(lit, numbering) for lit in body)
            key_parts.append(("|",))
        key = (tuple(key_parts), tuple(numbering.get(v) for v in out_vars))
        cached = self._driver_cache.get(key)
        if cached is not None:
            name, decl = cached
        else:
            self._driver_counter += 1
            name = f"$query{self._driver_counter}"
            incremental = self._touches_incremental(
                [lit for body in bodies for lit in body])
            decl = PredicateDecl(name, len(out_vars), tabled=True,
                                 incremental=incremental)
            self.store.declare(decl)
            head = Struct(name, tuple(out_vars)) if out_vars else Const(name)
            for body in bodies:
                self.store.load_clause(Clause(head, list(body)))
            self._driver_cache[key] = (name, decl)
        head = Struct(name, tuple(out_vars)) if out_vars else Const(name)
        return head, decl

    def _touches_incremental(self, literals: list) -> bool:
        seen: set = set()
        work = []
        for lit in literals:
            if lit.atom is not None:
                work.append(functor_of(lit.atom))
        while work:
            pred = work.pop()
            if pred in seen:
                continue
            seen.add(pred)
            decl = self.store.decl_of(pred)
            if decl is None:
                continue
            if decl.incremental:
                return True
            if decl.tabled:
                continue  # tabled non-incremental boundary
            for clause in self.store.clauses[pred].items.values():
                for lit in clause.body:
                    if lit.atom is not None:
                        work.append(functor_of(lit.atom))
        return False

    def _ensure_valid_table(self, goal: Term, decl: PredicateDecl) -> Table:
        table, _ = self.space.find_or_create_table(goal, decl)
        if table.status == NEW:
            if decl.incremental:
                self.idg.node_for(table)
            self._evaluate(Evaluation.seed, table)
            return table
        if table.status == COMPLETED:
            node = table.idg_node
            if node is not None and node.invalid:
                self.lazy_call(table)
            return table
        raise InternalStateError("table left incomplete outside evaluation")

    # -- incremental controller ----------------------------------------------

    def _on_update(self, token) -> list:
        pred = (token.decl.name, token.decl.arity)
        clause = token.clause
        leaves = self.idg.leaves_matching(pred, clause.head)
        fact = clause if token.op == "assert" and not clause.body else None
        invalid = self.idg.invalidate_from(leaves, fact)
        self.stats.invalidations += 1
        self.last_invalid_list = invalid
        return invalid

    def lazy_call(self, table: Table) -> None:
        """Bring a completed-but-invalid table back to validity: drain its
        dependencies, collected afresh, dependencies first.  A table whose
        dependencies all came back unchanged was revalidated by them and
        drains as a no-op.  An evaluation error aborts the drain with the
        failing table abolished and earlier entries valid."""
        node = table.idg_node
        if node is None or not node.invalid:
            return
        self.stats.drains += 1
        for dep in self.idg.collect_dependencies(node):
            self.incremental_reeval(dep)

    def incremental_reeval(self, node) -> ReevalOutcome:
        """Re-evaluate node's table if it is still invalid; the outcome is
        also kept on the node."""
        table = node.table
        if node.falsecount == 0:
            count = table.live_count()
            return ReevalOutcome(False, count, count)
        self._evaluate(self._begin_reeval, table)
        return node.outcome

    def _evaluate(self, start, table: Table) -> None:
        """Run one evaluation begun by start(evaluation, table).  On any
        exception, KeyboardInterrupt and RecursionError included, the tables
        it left incomplete are dropped before the exception propagates;
        leaves it detached are dropped either way.  The cyclic collector is
        paused for the span and left as the caller had it."""
        if self.current_eval is not None:
            raise InternalStateError("evaluation re-entered")
        evaluation = Evaluation(self)
        self.current_eval = evaluation
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start(evaluation, table)
            evaluation.run()
        except BaseException:
            self._unwind(evaluation)
            raise
        finally:
            self.current_eval = None
            self.idg.drop_detached_leaves()
            if was_enabled:
                gc.enable()

    def _begin_reeval(self, evaluation: Evaluation, table: Table) -> None:
        """Enlist a completed, invalid table for re-evaluation: re-opened
        when `_can_reopen` allows it, else re-derived from scratch."""
        node = table.idg_node
        self.stats.reevals += 1
        node.previous_count = table.live_count()
        node.new_answer = False
        table.in_reeval = True
        table.cut_hit = False
        if self._can_reopen(table):
            self._reopen(evaluation, table)
            return
        cursors.preserve_views(table)
        self.space.begin_reeval_marks(table)
        self.idg.clear_dependencies(node)
        evaluation.seed(table)

    def _can_reopen(self, table: Table) -> bool:
        """The one test for semi-naive re-evaluation: its node's `delta`
        is a list, so only facts asserted through its call patterns
        invalidated it; it has no answer or subgoal abstraction; its clauses
        are definite, each positive literal calling a tabled or a dynamic
        predicate (a non-tabled static one would be inlined, hiding new
        facts); no dynamic predicate they call holds a rule (it would be
        inlined too); and it has no conditional answer."""
        decl = table.decl
        if table.idg_node.delta is None or decl is None \
                or decl.answer_abstraction is not None \
                or decl.subgoal_abstraction is not None:
            return False
        for clause in self.store.clauses[functor_of(table.subgoal)].items.values():
            for lit in clause.body:
                if lit.kind in (TNOT, SK_NOT, UNDEFINED, CUT):
                    return False
                if lit.kind != POS:
                    continue
                if type(lit.atom) is Var:
                    return False
                pred = functor_of(lit.atom)
                ref = self.store.decl_of(pred)
                if ref is None or not (ref.tabled or ref.dynamic) \
                        or ref.dynamic and self.store.rules.get(pred):
                    return False
        return all(answer.unconditional for answer in table.answers.values())

    def _reopen(self, evaluation: Evaluation, table: Table) -> None:
        """Semi-naive re-evaluation after inserts (Bancilhon & Ramakrishnan,
        SIGMOD 1986): keep the table's answers and IDG edges, and derive
        only what uses a fact its node's `delta` logged (a delta clause) or
        one of its own new answers.  Each clause gets one continuation per
        body literal that calls a predicate with delta clauses (made a
        DELTA call) or the table's own (a NEW_ANSWERS call); the other
        literals stay ordinary calls, so every derivation through a delta
        clause or a new answer is found.  Answers are only appended, so
        open cursors keep their views."""
        node = table.idg_node
        self.stats.semi_naive += 1
        for child in node.dependent_edges:
            # the edges are kept: a later update through them must count
            child.affected_edges[node] = False
        evaluation.manage(table)
        evaluation.delivery_log[table.serial].extend(table.answers)
        for fact in node.delta:
            key = (table.serial, functor_of(fact.head))
            evaluation.deltas.setdefault(key, Arg1Index()).add(fact.head, fact)
        own = functor_of(table.subgoal)
        for clause in self._clauses_for(table.subgoal):
            head, body = clause.rename()
            env: dict = {}
            if not unify_in(table.subgoal, head, env):
                continue
            body = tuple(body)
            for k, lit in enumerate(body):
                if lit.kind != POS:
                    continue
                pred = functor_of(lit.atom)
                if (table.serial, pred) in evaluation.deltas:
                    kind = DELTA
                elif pred == own:
                    kind = NEW_ANSWERS
                else:
                    continue
                literals = body[:k] + (Literal(kind, lit.atom),) + body[k + 1:]
                evaluation.pending.append(
                    Continuation(table, literals, 0, dict(env), ()))

    def _finish_reeval(self, table: Table) -> None:
        node = table.idg_node
        removed, weakened = self.space.finalize_reeval(table)
        if weakened:
            node.new_answer = True
        new_count = table.live_count()
        old_count = node.previous_count
        table.in_reeval = False
        node.delta = []
        changed = node.new_answer or new_count != old_count
        if changed:
            self.idg.clear_contributions(node)
        else:
            self.idg.propagate_validity(node)
        node.falsecount = 0
        node.outcome = ReevalOutcome(
            changed, old_count, new_count,
            weakened=len(weakened), removed=len(removed))

    def abolish_table(self, goal: Term) -> None:
        table = self.space.find_table(goal)
        if table is None or table.status != COMPLETED:
            raise ExistenceError(f"no completed table for {format_term(goal)}")
        cursors.preserve_views(table)
        node = table.idg_node
        if node is not None:
            self.idg.invalidate_from([node])
        self._drop_table(table)
        self.idg.drop_detached_leaves()

    def _drop_table(self, table: Table) -> None:
        """Forget a table, its IDG node and any subgoal alias to it."""
        node = table.idg_node
        if node is not None:
            self.idg.drop_node(node)
        self.space.remove_table(table)
        if table.decl is not None and table.decl.subgoal_abstraction is not None:
            self._abstract_alias.clear()

    def _unwind(self, evaluation: Evaluation) -> None:
        """Exception recovery: drop every table left incomplete or not yet
        settled, after invalidating their completed dependents."""
        doomed = list(evaluation.managed.values())
        doomed += [t for t in self.space.tables.values()
                   if t.status == NEW and t not in doomed]
        for table in doomed:
            # neutralize the incomplete-table check for the invalidations
            table.status = NEW
            table.in_reeval = False
        for table in doomed:
            node = table.idg_node
            if node is not None:
                self.idg.invalidate_from([node])
        for table in doomed:
            self._drop_table(table)

    # -- evaluator ------------------------------------------------------------

    def _step(self, evaluation: Evaluation, cont: Continuation) -> None:
        self.stats.steps += 1
        self._check_deadline()
        owner = cont.owner
        if owner.cut_hit and not cont.committed:
            return
        env = cont.env
        idx = cont.idx
        literals = cont.literals
        delays = cont.delays
        while True:
            if idx >= len(literals):
                self._emit(evaluation, owner, env, delays)
                return
            lit = literals[idx]
            kind = lit.kind
            if kind == POS:
                self._call_atom(evaluation, cont, lit.atom, idx, env, delays)
                return
            if kind in (TNOT, SK_NOT):
                atom = resolve(lit.atom, env)
                if kind == SK_NOT:
                    atom = skolemize(atom)
                elif not is_ground(atom):
                    raise InstantiationError(
                        f"tnot/1 on non-ground goal {format_term(atom)}")
                result = self._call_negative(evaluation, owner, atom)
                if result is None:
                    return  # failed
                delays = delays + result
                idx += 1
                continue
            if kind == UNIFY:
                if not unify_in(lit.args[0], lit.args[1], env):
                    return
                idx += 1
                continue
            if kind == NOT_UNIFY:
                probe = dict(env)
                if unify_in(lit.args[0], lit.args[1], probe):
                    return
                idx += 1
                continue
            if kind == ATOMIC:
                if not isinstance(resolve(lit.args[0], env), Const):
                    return
                idx += 1
                continue
            if kind == UNDEFINED:
                delays = delays + (UNDEFINED_LITERAL,)
                idx += 1
                continue
            if kind == CUT:
                owner.cut_hit = True
                cont.committed = True
                idx += 1
                continue
            if kind == DELTA:
                self._call_delta(evaluation, cont, lit.atom, idx, env, delays)
                return
            if kind == NEW_ANSWERS:
                self._call_new_answers(evaluation, cont, lit.atom, idx, env, delays)
                return
            raise InternalStateError(f"unknown literal kind {kind}")

    def _call_atom(self, evaluation: Evaluation, cont: Continuation,
                   atom: Term, idx: int, env: dict, delays: tuple) -> None:
        root = walk(atom, env)
        if isinstance(root, Var):
            raise InstantiationError("call to an unbound goal")
        pred = functor_of(root)
        decl = self.store.decl_of(pred)
        if decl is None:
            raise ExistenceError(f"undeclared predicate {pred[0]}/{pred[1]}")
        owner = cont.owner
        literals = cont.literals
        if decl.tabled:
            provider = self._provider_table(evaluation, owner, root, env, decl)
            template = Continuation(owner, literals, idx + 1, env,
                                    delays, cont.committed)
            delta = None
            if idx + 1 < len(literals) and literals[idx + 1].kind == DELTA:
                delta = evaluation.deltas[
                    (owner.serial, functor_of(literals[idx + 1].atom))]
            if provider.status == COMPLETED:
                for answer in list(provider.live_answers()):
                    self._resume_with(evaluation, template, root, provider,
                                      answer, delta)
            else:
                evaluation.record_dep(owner, provider)
                sub = Subscription(template, root, provider, delta)
                evaluation.subs[provider.serial].append(sub)
                evaluation.catchup.append(sub)
            return
        if decl.dynamic:
            self._register_leaf(owner, root, env, decl)
            if owner.decl is not None and owner.decl.incremental and not decl.incremental:
                raise PermissionViolation(
                    f"incremental table calls non-incremental dynamic {decl.indicator}")
        pending = evaluation.pending
        for clause in self._clauses_for(root, env):
            head, body = clause.rename()
            env2 = dict(env)
            if not unify_in(root, head, env2):
                continue
            if body:
                pending.append(Continuation(
                    owner, literals[:idx] + tuple(body) + literals[idx + 1:],
                    idx, env2, delays, cont.committed))
            else:
                pending.append(Continuation(
                    owner, literals, idx + 1, env2, delays, cont.committed))

    def _call_delta(self, evaluation: Evaluation, cont: Continuation,
                    atom: Term, idx: int, env: dict, delays: tuple) -> None:
        """Resolve a DELTA call against its delta clauses, all facts.  It
        registers no leaf: an old call pattern has one already, and a new
        one is also called in full by the continuation of an earlier
        position."""
        owner = cont.owner
        delta = evaluation.deltas[(owner.serial, functor_of(atom))]
        for _, clause in delta.matching(atom, env):
            env2 = dict(env)
            if unify_in(atom, clause.rename()[0], env2):
                evaluation.pending.append(Continuation(
                    owner, cont.literals, idx + 1, env2, delays, cont.committed))

    def _call_new_answers(self, evaluation: Evaluation, cont: Continuation,
                          atom: Term, idx: int, env: dict, delays: tuple) -> None:
        """Subscribe a NEW_ANSWERS call to the answers its re-opened table
        adds, when the call is a variant of that table.  A call to any
        other table fails: only leaves invalidated the re-opened table, so
        no table it calls has changed."""
        owner = cont.owner
        if self.space.tables.get(canonical_key(atom, env)) is not owner:
            return
        template = Continuation(owner, cont.literals, idx + 1, env, delays,
                                cont.committed)
        sub = Subscription(template, atom, owner,
                           next_idx=owner.idg_node.previous_count)
        evaluation.subs[owner.serial].append(sub)
        evaluation.catchup.append(sub)

    def _register_leaf(self, owner: Table, atom: Term, env: dict,
                       decl: PredicateDecl) -> None:
        node = owner.idg_node
        if decl.incremental and node is not None:
            leaf = self.idg.register_dynamic_leaf(atom, decl, env)
            if node not in leaf.affected_edges:
                self.idg.register_call_edge(leaf, node)

    def _provider_table(self, evaluation: Evaluation, owner: Table,
                        atom: Term, env: Optional[dict], decl: PredicateDecl) -> Table:
        key = canonical_key(atom, env)
        table = self.space.tables.get(key) or self._abstract_alias.get(key)
        is_new = table is None
        if is_new:
            goal = resolve(atom, env) if env else atom
            binding = None
            if decl.subgoal_abstraction is not None:
                abstracted, binding = abstract_depth(goal, decl.subgoal_abstraction)
            if binding:
                # Deep subgoals fold into their depth-bounded abstraction;
                # the raw key becomes an alias of the abstracted table.
                table, is_new = self.space.find_or_create_table(abstracted, decl)
                self._abstract_alias[key] = table
            else:
                table = self.space.add_table(key, goal, decl)
        if decl.incremental:
            node = self.idg.node_for(table)
            parent = owner.idg_node
            if parent is not None and parent not in node.affected_edges:
                self.idg.register_call_edge(node, parent)
        elif owner.decl is not None and owner.decl.incremental:
            raise PermissionViolation(
                f"incremental table calls non-incremental table {decl.indicator}")
        if is_new:
            evaluation.seed(table)
        elif table.status == COMPLETED:
            node = table.idg_node
            if node is not None and node.invalid:
                self._begin_reeval(evaluation, table)
        elif table.status == INCOMPLETE and table.serial not in evaluation.managed:
            raise InternalStateError(
                f"call to incomplete foreign table {format_term(table.subgoal)}")
        return table

    def _call_negative(self, evaluation: Evaluation, owner: Table,
                       atom: Term) -> Optional[tuple]:
        """Resolve a ground negative call: None = fail, () = plain success,
        (lit,) = success with a delay literal."""
        pred = functor_of(atom)
        decl = self.store.decl_of(pred)
        if decl is None:
            raise ExistenceError(f"undeclared predicate {pred[0]}/{pred[1]}")
        if not decl.tabled:
            raise PermissionViolation(
                f"tabled negation on non-tabled predicate {decl.indicator}")
        provider = self._provider_table(evaluation, owner, atom, None, decl)
        if provider.status == COMPLETED:
            if provider.has_unconditional_covering(atom):
                return None
            if not provider.has_answer_covering(atom):
                return ()
            return (DelayLiteral(NEG, provider, atom=atom),)
        evaluation.record_dep(owner, provider)
        return (DelayLiteral(NEG, provider, atom=atom),)

    def _resume_with(self, evaluation: Evaluation, template: Continuation,
                     goal: Term, provider: Table, answer,
                     delta: Optional[Arg1Index] = None) -> None:
        """Queue template resumed with answer unified into goal.  A
        non-ground answer is renamed apart first, so separate uses of it do
        not share its variables.  When the next literal is a DELTA call,
        delta holds its clauses, and an answer that leaves it no candidate
        is dropped here."""
        instance = provider.answer_instance(answer)
        unified = instance if instance.ground else rename_clause(instance, ())[0]
        env2 = dict(template.env)
        if not unify_in(goal, unified, env2):
            return
        if delta is not None and not delta.matching(
                template.literals[template.idx].atom, env2):
            return
        delays = template.delays
        if not answer.unconditional:
            delays = delays + (DelayLiteral(
                POS_LIT, provider, answer_key=answer.key, atom=instance),)
        evaluation.pending.append(Continuation(
            template.owner, template.literals, template.idx, env2, delays,
            template.committed))

    def _emit(self, evaluation: Evaluation, owner: Table, env: dict,
              delays: tuple) -> None:
        terms = tuple(resolve(v, env) for v in owner.subst_vars)
        decl = owner.decl
        if decl is not None and decl.answer_abstraction is not None:
            terms, forced = self._abstract_answer(terms, decl.answer_abstraction)
            if forced:
                delays = delays + (RESTRAINT_LITERAL,)
        key = canonical_tuple_key(terms)
        status = self.space.add_answer(owner, key, terms, list(delays))
        self.stats.answers += 1
        if status in (NEW_SUBSTITUTION, UNDELETED):
            evaluation.log_delivery(owner, key)
            if owner.in_reeval and status == NEW_SUBSTITUTION:
                owner.idg_node.new_answer = True

    @staticmethod
    def _abstract_answer(terms: tuple, bound: int) -> tuple:
        fake = Struct("$ans", terms) if terms else Const("$ans")
        abstracted, binding = abstract_depth(fake, bound)
        if not binding:
            return terms, False
        return canonicalize_terms(abstracted.args), True

    # -- completion ------------------------------------------------------------

    def _complete_scc(self, evaluation: Evaluation, tables: list) -> None:
        """Complete a component and settle its answers.  Its tables stay
        managed until they are settled, so an exception raised meanwhile
        drops them (`_unwind`) rather than leaving them half settled."""
        in_scc = {t.serial for t in tables}
        for table in tables:
            table.status = COMPLETED
        self._residual_reduction(tables, in_scc)
        for table in tables:
            if table.in_reeval:
                self._finish_reeval(table)
        for table in tables:
            del evaluation.managed[table.serial]

    def _residual_reduction(self, tables: list, in_scc: set) -> None:
        """Settle the conditional answers of a completed component to their
        well-founded truth values."""
        rules: dict = {}      # (serial, key) -> list of delay-lists (literal lists)
        facts: set = set()
        conditional: list = []
        for table in tables:
            for answer in table.live_answers():
                prop = (table.serial, answer.key)
                if answer.unconditional:
                    facts.add(prop)
                else:
                    conditional.append((table, answer))
                    rules[prop] = [dl for dl in answer.delay_lists if not dl.falsified]
        if not conditional:
            return

        def literal_eval(lit: DelayLiteral, interp: set, undef_val: bool,
                         current: set) -> bool:
            if lit.sign in (UNDEF, RESTRAINT):
                return undef_val
            ptable = lit.table
            if lit.sign == POS_LIT:
                prop = (ptable.serial, lit.answer_key)
                pans = ptable.answers.get(lit.answer_key)
                if pans is None or pans.deleted:
                    return False
                if ptable.serial in in_scc:
                    return prop in facts or prop in current
                return pans.unconditional or undef_val
            # negative literal
            if ptable.serial in in_scc:
                for pans in ptable.covering_answers(lit.atom):
                    prop = (ptable.serial, pans.key)
                    if prop in facts or prop in interp:
                        return False
                return True
            if ptable.has_unconditional_covering(lit.atom):
                return False
            if ptable.has_answer_covering(lit.atom):
                return undef_val
            return True

        def gamma(interp: set, undef_val: bool) -> set:
            result = set(facts)
            changed = True
            while changed:
                changed = False
                for prop, dls in rules.items():
                    if prop in result:
                        continue
                    for dl in dls:
                        if all(literal_eval(lit, interp, undef_val, result)
                               for lit in dl.literals):
                            result.add(prop)
                            changed = True
                            break
            return result

        # gamma reads interp only through a negative literal on a table of
        # this component; without one, the next overestimate would equal
        # this one, so the alternation stops after its first true set.
        negative_loop = any(
            lit.sign == NEG and lit.table.serial in in_scc
            for dls in rules.values() for dl in dls for lit in dl.literals)
        overestimate = gamma(set(), True)
        true_set = gamma(overestimate, False)
        while negative_loop:
            new_over = gamma(true_set, True)
            if new_over == overestimate:
                break
            overestimate = new_over
            true_set = gamma(overestimate, False)

        for table, answer in conditional:
            prop = (table.serial, answer.key)
            if prop in true_set:
                self.space.strengthen_answer(table, answer)
            elif prop not in overestimate:
                self.space.delete_answer(table, answer)
        # Physical cleanup of surviving lists against settled truths: a
        # literal is settled true if it holds with undefined read as false,
        # settled false if it fails with undefined read as true.
        for table, answer in conditional:
            if table.answers.get(answer.key) is not answer or answer.unconditional:
                continue
            for dl in answer.delay_lists:
                if dl.falsified:
                    continue
                for lit in list(dl.literals):
                    if literal_eval(lit, overestimate, False, true_set):
                        self.space.remove_literal(dl, lit)
                    elif not literal_eval(lit, true_set, True, overestimate):
                        self.space.falsify(dl)
                        break
            if not any(not dl.falsified for dl in answer.delay_lists):
                raise InternalStateError("undefined answer lost all delay lists")
