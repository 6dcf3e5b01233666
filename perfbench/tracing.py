"""Per-layer tracing installed from outside the engine.

Wrappers replace engine functions at the names their callers look up at
call time (module attributes, class methods, one instance hook), and
`Tracer.uninstall` puts every original back.  Each wrapped call is charged
to a name such as `terms.unify`; the part before the first dot is the
layer.  Time is attributed to the innermost active wrapper, so a name's
exclusive time never includes the wrapped calls made inside it.

Hot calls (unification, renaming, variant keys, answer insertion, cursor
steps) only update in-memory counters.  Coarse boundaries (query, update
call, lazy call, re-evaluation, leaf matching, invalidation) also record a
span: name, start, end and the index of the enclosing span.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

import incrtab.cursors
import incrtab.engine
import incrtab.parser
import incrtab.program
import incrtab.tables
from incrtab.cursors import Cursor
from incrtab.engine import Engine
from incrtab.idg import Idg
from incrtab.parser import Directive
from incrtab.program import ProgramStore
from incrtab.tables import NEW_SUBSTITUTION, UNDELETED, TableSpace


def _count_clauses(tracer, units):
    tracer.count["parser.clauses"] += sum(
        len(u) for u in units if not isinstance(u, Directive))


def _count_unify(tracer, ok):
    if ok:
        tracer.count["terms.unify.success"] += 1
    if tracer.candidate_budget > 0:
        # The evaluator unifies each selected clause head exactly once,
        # right after selection: these calls measure selection precision.
        tracer.candidate_budget -= 1
        if ok:
            tracer.count["program.candidate_hits"] += 1


def _count_candidates(tracer, clauses):
    tracer.count["program.candidates"] += len(clauses)
    tracer.candidate_budget = len(clauses)


def _count_new_answer(tracer, status):
    if status in (NEW_SUBSTITUTION, UNDELETED):
        tracer.count["tables.add_answer.new"] += 1


def _counter(key, measure=len):
    def count(tracer, result):
        tracer.count[key] += measure(result)
    return count


# (owner, attribute, traced name, span?, result hook)
_MODULE_TARGETS = [
    (incrtab.parser, "parse_program", "parser.parse", False, _count_clauses),
    (incrtab.parser, "parse_goal", "parser.parse", False, None),
    (incrtab.engine, "unify_in", "terms.unify", False, _count_unify),
    (incrtab.engine, "canonical_key", "terms.canonical_key", False, None),
    (incrtab.engine, "canonical_tuple_key", "terms.canonical_key", False, None),
    (incrtab.tables, "unify", "terms.unify", False,
     lambda tracer, r: _count_unify(tracer, r is not None)),
    (incrtab.tables, "canonical_key", "terms.canonical_key", False, None),
    (incrtab.tables, "canonical_tuple_key", "terms.canonical_key", False, None),
    (incrtab.program, "rename_clause", "terms.rename", False, None),
    (incrtab.cursors, "preserve_views", "cursors.preserve", False, None),
]

_CLASS_TARGETS = [
    (ProgramStore, "assert_clause", "program.assert", True, None),
    (ProgramStore, "retract_clause", "program.retract", True, None),
    (ProgramStore, "static_candidates", "program.select", False, _count_candidates),
    (ProgramStore, "_dynamic_candidates", "program.select", False, _count_candidates),
    (TableSpace, "add_answer", "tables.add_answer", False, _count_new_answer),
    (TableSpace, "strengthen_answer", "tables.settle", False, None),
    (TableSpace, "delete_answer", "tables.settle", False, None),
    (TableSpace, "begin_reeval_marks", "tables.reeval_marks", False, None),
    (TableSpace, "finalize_reeval", "tables.reeval_marks", False, None),
    (Idg, "leaves_matching", "idg.leaves_matching", True,
     _counter("idg.leaves_matched")),
    (Idg, "invalidate_from", "idg.invalidate", True,
     _counter("idg.invalidated_nodes")),
    (Idg, "register_dynamic_leaf", "idg.register", False, None),
    (Idg, "register_call_edge", "idg.register", False, None),
    (Idg, "collect_dependencies", "idg.collect_dependencies", False,
     _counter("idg.drain_len")),
    (Engine, "query", "engine.query", True, None),
    (Engine, "lazy_call", "engine.lazy_call", True, None),
    (Engine, "incremental_reeval", "engine.reeval", True,
     _counter("engine.reeval.changed", lambda outcome: int(outcome.changed))),
    (Cursor, "next", "cursors.next", False, None),
]


class Tracer:
    """Counters, exclusive and inclusive times per traced name, and spans."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.excl = defaultdict(float)
        self.count = defaultdict(int)
        self.spans: list = []
        self.candidate_budget = 0
        self._stack: list = []       # active traced names, innermost last
        self._span_stack: list = []  # indices into spans of open spans
        self._last = 0.0
        self._origin = perf_counter()
        self._saved: list = []
        self._hooked: list = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, span, hook in _MODULE_TARGETS + _CLASS_TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, span, hook))

    def attach(self, engine: Engine) -> None:
        """Wrap the preserve hook an engine stored on its table space."""
        space = engine.space
        self._hooked.append((space, space.preserve_hook))
        space.preserve_hook = self._wrap(space.preserve_hook, "cursors.preserve",
                                         False, None)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        for space, hook in reversed(self._hooked):
            space.preserve_hook = hook
        self._saved.clear()
        self._hooked.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str, span: bool, hook):
        tracer = self
        stack = self._stack
        calls, incl, excl = self.calls, self.incl, self.excl

        def traced(*args, **kwargs):
            start = perf_counter()
            if stack:
                excl[stack[-1]] += start - tracer._last
            stack.append(name)
            tracer._last = start
            if span:
                tracer._open_span(name, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                excl[name] += end - tracer._last
                tracer._last = end
                incl[name] += end - start
                calls[name] += 1
                if span:
                    tracer._close_span(end)
            if hook is not None:
                hook(tracer, result)
            return result

        return traced

    def _open_span(self, name: str, start: float) -> None:
        parent = self._span_stack[-1] if self._span_stack else None
        self._span_stack.append(len(self.spans))
        self.spans.append([name, start - self._origin, None, parent])

    def _close_span(self, end: float) -> None:
        self.spans[self._span_stack.pop()][2] = end - self._origin

    # -- reporting -----------------------------------------------------------

    def layer_self_seconds(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for name, t in self.excl.items() if name.startswith(prefix))
