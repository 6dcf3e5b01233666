"""View-consistent answer cursors over completed tables.

A cursor iterates the live answer store in insertion order, over the keys
present when it was opened.  A re-evaluation that only appends answers (a
re-opened table, see `engine.Engine._reopen`) leaves open cursors live.
When the table is about to be re-derived from scratch, or an answer of it
is about to change in place (strengthened or deleted by simplification,
also while a re-opened table evaluates), while cursors are open, the
unconsumed suffix of every open cursor is copied into an immutable
snapshot and the cursor switches to snapshot mode.  Either way it yields
exactly the answers, with the truth values, present when it was opened.
"""

from __future__ import annotations

from typing import Optional

from .errors import InternalStateError
from .tables import COMPLETED, Table

TRUE = "true"
UNDEFINED = "undefined"

LIVE = "live"
SNAPSHOT = "snapshot"
DONE = "done"


class Cursor:
    __slots__ = ("table", "mode", "pos", "snapshot", "_keys")

    def __init__(self, table: Table):
        self.table = table
        self.mode = LIVE
        self.pos = 0
        self.snapshot: Optional[tuple] = None   # ((terms, marker), ...)
        # Insertion order frozen at open time; deletions are checked at
        # yield time, and answers added after open are not in the list.
        self._keys = list(table.answers.keys())

    def __iter__(self):
        return self

    def __next__(self):
        nxt = self.next()
        if nxt is None:
            raise StopIteration
        return nxt

    def next(self) -> Optional[tuple]:
        """(substitution tuple, truth value) or None when exhausted."""
        if self.mode == DONE:
            return None
        if self.mode == SNAPSHOT:
            if self.pos >= len(self.snapshot):
                self._release()
                return None
            terms, marker = self.snapshot[self.pos]
            self.pos += 1
            if self.pos >= len(self.snapshot):
                self._release()
            return terms, marker
        while self.pos < len(self._keys):
            answer = self.table.answers.get(self._keys[self.pos])
            self.pos += 1
            if answer is None or answer.deleted:
                continue
            if self.pos >= len(self._keys):
                self._exhaust_live()
            return answer.terms, TRUE if answer.unconditional else UNDEFINED
        self._exhaust_live()
        return None

    def close(self) -> None:
        if self.mode == LIVE:
            self._exhaust_live()
        elif self.mode == SNAPSHOT:
            self._release()

    def _exhaust_live(self) -> None:
        if self.mode == LIVE:
            self.mode = DONE
            self.table.cursors.remove(self)

    def _release(self) -> None:
        if self.mode == SNAPSHOT:
            self.mode = DONE
            self.snapshot = None


def open_cursor(table: Table) -> Cursor:
    if table.status != COMPLETED:
        raise InternalStateError("cursor opened on incomplete table")
    cursor = Cursor(table)
    table.cursors.append(cursor)
    return cursor


def preserve_views(table: Table) -> None:
    """Snapshot the unconsumed suffix of every open cursor on table.

    Called before a re-derivation, an abolish or a simplification mutates a
    table.  The cursors leave `table.cursors`, which holds live
    cursors only: a snapshot cursor no longer reads the table.
    """
    live = table.cursors
    if not live:
        return
    table.cursors = []
    for cursor in live:
        entries = []
        for key in cursor._keys[cursor.pos:]:
            answer = table.answers.get(key)
            if answer is None or answer.deleted:
                continue
            marker = TRUE if answer.unconditional else UNDEFINED
            entries.append((answer.terms, marker))
        cursor.snapshot = tuple(entries)
        cursor.mode = SNAPSHOT
        cursor.pos = 0
