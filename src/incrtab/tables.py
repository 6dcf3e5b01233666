"""Subgoal tables keyed by variant: answer stores with delay lists,
re-evaluation marks, and simplification with direct back-references
from waited-on answers/tables to their dependent conditional answers.

The simplification registry (`TableSpace.backrefs`) holds exactly the
positive and negative literals of the unfalsified delay lists of the
answers in `TableSpace.tables`: under each literal's `registry_key`, the
list maps to its (table, answer).  Whatever drops such a list or literal
-- re-deriving, strengthening, deleting or removing an answer, satisfying
or falsifying a literal, dropping a table -- unregisters it, at a cost in
the literals it drops.  So the registry follows the live tables, not the
update history.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .errors import InternalStateError
from .terms import (  # noqa: F401 -- perfbench/tracing.py wraps canonical_tuple_key here
    Term,
    apply,
    canonical_key,
    canonical_tuple_key,
    format_term,
    term_vars,
    unify,
)

# Table status
NEW = "new"
INCOMPLETE = "incomplete"
COMPLETED = "completed"

# add_answer outcomes
NEW_SUBSTITUTION = "new_substitution"
REPEATED = "repeated"
UNDELETED = "undeleted"
CONDITIONAL_ADDED = "conditional_added"
STRENGTHENED = "strengthened_to_unconditional"

# Delay literal signs
POS = "+"      # waits on a specific answer of a table
NEG = "-"      # waits on the falsity of a (ground) atom against a table
UNDEF = "u"    # permanently undefined (the `undefined' built-in)
RESTRAINT = "r"  # permanently undefined restraint mark from answer abstraction


class DelayLiteral:
    __slots__ = ("sign", "table", "answer_key", "atom", "registry_key", "_skey")

    def __init__(self, sign: str, table: Optional["Table"] = None,
                 answer_key=None, atom: Optional[Term] = None):
        self.sign = sign
        self.table = table          # provider table (POS/NEG)
        self.answer_key = answer_key  # POS: provider answer key
        self.atom = atom            # NEG: the negated ground atom; POS: answer atom
        # the simplification registry's key: the answer or table waited on
        self.registry_key = (("a", table.serial, answer_key) if sign == POS
                             else ("t", table.serial) if sign == NEG else None)
        self._skey = None

    def sort_key(self):
        """(sign, provider serial, answer key, atom key).  Only a negative
        literal keys its atom: a positive one is named by its answer key."""
        key = self._skey
        if key is None:
            key = self._skey = (
                self.sign, self.table.serial if self.table else -1,
                self.answer_key if self.answer_key is not None else (),
                canonical_key(self.atom) if self.sign == NEG else ())
        return key

    def render(self) -> str:
        if self.sign == NEG:
            return f"not {format_term(self.atom)}"
        if self.sign == POS:
            return format_term(self.atom) if self.atom is not None else f"<{self.table.serial}:{self.answer_key}>"
        if self.sign == RESTRAINT:
            return "$restraint"
        return "undefined"

    def __repr__(self):
        return self.render()


# Literals with no provider are never removed from a list: every list shares one.
UNDEFINED_LITERAL = DelayLiteral(UNDEF)
RESTRAINT_LITERAL = DelayLiteral(RESTRAINT)


class DelayList:
    __slots__ = ("literals", "falsified", "_canon")

    def __init__(self, literals):
        self.literals = sorted(literals, key=DelayLiteral.sort_key)
        self.falsified = False
        self._canon = None

    def canonical(self):
        canon = self._canon
        if canon is None:
            canon = self._canon = tuple(lit.sort_key() for lit in self.literals)
        return canon

    def invalidate_canon(self):
        self._canon = None

    def render(self) -> str:
        return "[" + ",".join(lit.render() for lit in self.literals) + "]"

    def __repr__(self):
        return self.render() + ("*" if self.falsified else "")


class Answer:
    __slots__ = ("terms", "key", "delay_lists", "deleted", "was_unconditional",
                 "_instance")

    def __init__(self, terms: tuple, key: tuple):
        self.terms = terms
        self.key = key
        self.delay_lists: list = []
        self.deleted = False
        self.was_unconditional = False
        self._instance = None

    @property
    def unconditional(self) -> bool:
        return not self.delay_lists

    def __repr__(self):
        mark = "!" if self.deleted else ""
        cond = "" if self.unconditional else " if " + ";".join(dl.render() for dl in self.delay_lists)
        return f"<{self.terms}{cond}{mark}>"


class Table:
    """Per-variant subgoal record."""

    __slots__ = (
        "serial", "subgoal", "subst_vars", "decl", "answers", "status",
        "idg_node", "cursors", "in_reeval", "cut_hit", "_live",
    )

    def __init__(self, serial: int, subgoal: Term, decl):
        self.serial = serial
        self.subgoal = subgoal
        self.subst_vars = term_vars(subgoal)
        self.decl = decl
        self.answers: dict = {}      # canonical key -> Answer, insertion ordered
        self.status = NEW
        self.idg_node = None
        self.cursors: list = []      # open live cursors (see cursors.py)
        self.in_reeval = False
        self.cut_hit = False
        self._live = 0               # answers not marked deleted

    @property
    def occp_num(self) -> int:
        """Open live cursors on the table."""
        return len(self.cursors)

    @property
    def ans_subst_size(self) -> int:
        return len(self.subst_vars)

    def live_answers(self) -> Iterator[Answer]:
        for ans in self.answers.values():
            if not ans.deleted:
                yield ans

    def live_count(self) -> int:
        return self._live

    def answer_instance(self, answer: Answer) -> Term:
        """The subgoal instantiated by an answer substitution (cached)."""
        instance = answer._instance
        if instance is None:
            if not self.subst_vars:
                instance = self.subgoal
            else:
                instance = apply(dict(zip(self.subst_vars, answer.terms)), self.subgoal)
            answer._instance = instance
        return instance

    def has_unconditional_covering(self, atom: Term) -> bool:
        for ans in self.live_answers():
            if ans.unconditional and unify(atom, self.answer_instance(ans)) is not None:
                return True
        return False

    def has_answer_covering(self, atom: Term) -> bool:
        for ans in self.live_answers():
            if unify(atom, self.answer_instance(ans)) is not None:
                return True
        return False

    def covering_answers(self, atom: Term) -> list:
        return [ans for ans in self.live_answers()
                if unify(atom, self.answer_instance(ans)) is not None]

    def __repr__(self):
        return f"Table({format_term(self.subgoal)}, {self.status}, {len(self.answers)} answers)"


class TableSpace:
    """All tables of one engine session plus the simplification registry."""

    def __init__(self):
        self.tables: dict = {}        # canonical subgoal key -> Table
        self.backrefs: dict = {}      # registry key -> {DelayList: (table, answer)}
        self.preserve_hook = None     # set by the engine: preserve cursor views
        self.stats = {
            "simplifications": 0,
            "strengthened": 0,
            "simplify_deleted": 0,
        }
        self._event_queue: list = []
        self._serial = 0              # serial of the last table added

    # -- lookup ----------------------------------------------------------

    def find_table(self, goal: Term) -> Optional[Table]:
        return self.tables.get(canonical_key(goal))

    def find_or_create_table(self, goal: Term, decl) -> tuple:
        key = canonical_key(goal)
        table = self.tables.get(key)
        if table is not None:
            return table, False
        return self.add_table(key, goal, decl), True

    def add_table(self, key, goal: Term, decl) -> Table:
        """A new table for goal, filed under key, its canonical key."""
        self._serial += 1
        table = self.tables[key] = Table(self._serial, goal, decl)
        return table

    def remove_table(self, table: Table) -> None:
        key = canonical_key(table.subgoal)
        if self.tables.get(key) is table:
            del self.tables[key]
        for answer in table.answers.values():
            self._unregister_answer(answer)

    def snapshot(self) -> list:
        """Introspection rows: subgoal text, status, answer count,
        conditional count, occp_num."""
        rows = []
        for table in self.tables.values():
            live = list(table.live_answers())
            rows.append({
                "subgoal": format_term(table.subgoal),
                "status": table.status,
                "answers": len(live),
                "conditional": sum(1 for a in live if not a.unconditional),
                "occp_num": table.occp_num,
            })
        return rows

    # -- answer store ------------------------------------------------------

    def add_answer(self, table: Table, key: tuple, terms: tuple, delays) -> str:
        """Record one derived answer, filed under key, the
        `canonical_tuple_key` of terms; delays is a list of DelayLiteral
        (empty for an unconditional derivation)."""
        if table.status == COMPLETED and not table.in_reeval:
            raise InternalStateError(
                f"answer added to completed table {format_term(table.subgoal)}")
        existing = table.answers.get(key)
        if existing is None:
            answer = Answer(terms, key)
            if delays:
                dl = DelayList(delays)
                answer.delay_lists.append(dl)
                self._register(table, answer, dl)
            table.answers[key] = answer
            table._live += 1
            if answer.unconditional:
                self._queue(("true", table, answer))
                self._run_events()
            return NEW_SUBSTITUTION

        if existing.deleted:
            existing.deleted = False
            table._live += 1
            was_cond = not existing.was_unconditional
            self._unregister_answer(existing)
            existing.delay_lists = []
            if delays:
                dl = DelayList(delays)
                existing.delay_lists.append(dl)
                self._register(table, existing, dl)
            else:
                if was_cond:
                    self.stats["strengthened"] += 1
                    self._queue(("true", table, existing))
                    self._run_events()
            return UNDELETED

        if not delays:
            if existing.unconditional:
                return REPEATED
            self._strengthen(table, existing)
            self._run_events()
            return STRENGTHENED

        if existing.unconditional:
            return REPEATED
        dl = DelayList(delays)
        canon = dl.canonical()
        if any(d.canonical() == canon for d in existing.delay_lists):
            return REPEATED
        existing.delay_lists.append(dl)
        self._register(table, existing, dl)
        return CONDITIONAL_ADDED

    # -- re-evaluation marks -------------------------------------------

    def begin_reeval_marks(self, table: Table) -> None:
        for answer in table.answers.values():
            if not answer.deleted:
                answer.was_unconditional = answer.unconditional
            answer.deleted = True
        table._live = 0

    def finalize_reeval(self, table: Table) -> tuple:
        """Remove still-deleted answers; report (removed, weakened)."""
        removed = []
        weakened = []
        for key in [k for k, a in table.answers.items() if a.deleted]:
            removed.append(table.answers.pop(key))
        for answer in table.answers.values():
            if answer.was_unconditional and not answer.unconditional:
                weakened.append(answer)
        for answer in removed:
            self._unregister_answer(answer)
            if not answer.was_unconditional:
                self.stats["simplifications"] += 1
            self._queue(("false", table, answer))
        self._run_events()
        return removed, weakened

    # -- simplification ----------------------------------------------------

    def strengthen_answer(self, table: Table, answer: Answer) -> None:
        """Settle a conditional answer to true and propagate."""
        if table.answers.get(answer.key) is not answer or answer.unconditional:
            return
        self._strengthen(table, answer)
        self._run_events()

    def delete_answer(self, table: Table, answer: Answer) -> None:
        """Settle a conditional answer to false and propagate."""
        if table.answers.get(answer.key) is not answer:
            return
        self._delete_answer(table, answer)
        self._run_events()

    def remove_literal(self, dl: DelayList, lit: DelayLiteral) -> None:
        """Remove a literal settled true from dl; dl keeps its entry under
        the literal's key while another of its literals has that key."""
        dl.literals.remove(lit)
        dl.invalidate_canon()
        key = lit.registry_key
        if all(other.registry_key != key for other in dl.literals):
            self._unregister_key(key, dl)

    def falsify(self, dl: DelayList) -> None:
        """Mark dl false (a literal of it settled false) and unregister it."""
        dl.falsified = True
        self._unregister(dl)

    def _register(self, table: Table, answer: Answer, dl: DelayList) -> None:
        backrefs = self.backrefs
        for lit in dl.literals:
            key = lit.registry_key
            if key is not None:
                refs = backrefs.get(key)
                if refs is None:
                    refs = backrefs[key] = {}
                refs[dl] = (table, answer)

    def _unregister(self, dl: DelayList) -> None:
        for lit in dl.literals:
            self._unregister_key(lit.registry_key, dl)

    def _unregister_key(self, key, dl: DelayList) -> None:
        """Drop dl's entry under key (None, an unregistered literal's key,
        has no entries)."""
        refs = self.backrefs.get(key)
        if refs is not None and refs.pop(dl, None) is not None and not refs:
            del self.backrefs[key]

    def _unregister_answer(self, answer: Answer) -> None:
        """Unregister the lists of an answer about to lose them; a falsified
        list was unregistered when it was falsified."""
        for dl in answer.delay_lists:
            if not dl.falsified:
                self._unregister(dl)

    def _strengthen(self, table: Table, answer: Answer) -> None:
        if table.status == COMPLETED and table.cursors and self.preserve_hook:
            self.preserve_hook(table)
        self.stats["strengthened"] += 1
        self._unregister_answer(answer)
        answer.delay_lists = []
        self._queue(("true", table, answer))

    def _delete_answer(self, table: Table, answer: Answer) -> None:
        if answer.key not in table.answers:
            return
        if table.status == COMPLETED and table.cursors and self.preserve_hook:
            self.preserve_hook(table)
        del table.answers[answer.key]
        self._unregister_answer(answer)
        if not answer.deleted:
            table._live -= 1
        self.stats["simplify_deleted"] += 1
        self._queue(("false", table, answer))

    def _queue(self, event) -> None:
        self._event_queue.append(event)

    def _run_events(self) -> None:
        while self._event_queue:
            kind, table, answer = self._event_queue.pop()
            if kind == "true":
                self._on_answer_true(table, answer)
            else:
                self._on_answer_false(table, answer)

    def _dependents(self, key) -> Iterator[tuple]:
        """(table, answer, dlist, literal) for each literal registered under
        key, over a snapshot of the entries.  An entry dropped while the
        snapshot is processed is skipped, and so is an answer marked for
        re-derivation: its lists wait to be derived again or removed."""
        refs = self.backrefs.get(key)
        if not refs:
            return
        for dlist, (dep_table, dep_answer) in list(refs.items()):
            if dep_answer.deleted:
                continue
            for lit in [lit for lit in dlist.literals if lit.registry_key == key]:
                if dlist not in refs:
                    break
                yield dep_table, dep_answer, dlist, lit

    def _on_answer_true(self, table: Table, answer: Answer) -> None:
        # Positive waits on this answer are satisfied.
        for dep in self._dependents(("a", table.serial, answer.key)):
            self._satisfy_literal(*dep)
        # Negative waits on atoms this answer now covers are falsified.
        instance = table.answer_instance(answer)
        for dep in self._dependents(("t", table.serial)):
            _, _, _, lit = dep
            if unify(lit.atom, instance) is not None:
                self._falsify_list(*dep)

    def _on_answer_false(self, table: Table, answer: Answer) -> None:
        # Absence only settles once the table is completed: an incomplete
        # table may still re-derive the substitution or add covering answers.
        if table.status != COMPLETED:
            return
        # Positive waits on this answer are falsified.
        for dep in self._dependents(("a", table.serial, answer.key)):
            self._falsify_list(*dep)
        # Negative waits on atoms with no remaining covering answer succeed.
        instance = table.answer_instance(answer)
        for dep in self._dependents(("t", table.serial)):
            _, _, _, lit = dep
            if unify(lit.atom, instance) is not None and not table.has_answer_covering(lit.atom):
                self._satisfy_literal(*dep)

    def _satisfy_literal(self, dep_table: Table, dep_answer: Answer,
                         dlist: DelayList, lit: DelayLiteral) -> None:
        self.stats["simplifications"] += 1
        self.remove_literal(dlist, lit)
        if not dlist.literals:
            self._strengthen(dep_table, dep_answer)

    def _falsify_list(self, dep_table: Table, dep_answer: Answer,
                      dlist: DelayList, lit: DelayLiteral) -> None:
        self.stats["simplifications"] += 1
        self.falsify(dlist)
        if all(dl.falsified for dl in dep_answer.delay_lists):
            self._delete_answer(dep_table, dep_answer)
