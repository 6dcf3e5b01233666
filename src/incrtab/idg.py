"""The incremental dependency graph: nodes for incremental tabled subgoals,
leaf patterns for dynamic incremental calls, falsecount invalidation,
validity propagation and dependency collection for lazy recomputation.

Each predicate's leaf patterns live in one `terms.Arg1Index`, so an update
tests only the leaves whose first argument can unify with that of the
updated clause head: those with the same key and those with a variable
first argument.  A leaf that loses its last affected edge is dropped when
the evaluation that detached it finishes, unless a call re-attached it.

Every dynamic incremental call looks its leaf up by key in
`register_dynamic_leaf`: the call's canonical key, or under `abstract(0)`
the key `abstract0_key` computes in one pass over the arguments (that
pattern depends only on which arguments are unbound variables and how they
alias).  The pattern is built only when the leaf is new.  The engine adds a
leaf -> node or node -> node edge only when the child does not have it yet,
so each dependency is registered once, and a dropped leaf is simply made
again by the next call that needs it.
"""

from __future__ import annotations

from typing import Optional

from .errors import InternalStateError, PermissionViolation
from .terms import (
    Arg1Index,
    Struct,
    Term,
    Var,
    abstract_depth,
    canonical_key,
    format_term,
    resolve,
    unify_in,
    walk,
)


class IdgNode:
    """Node for an incremental tabled subgoal.

    Edge dicts are insertion-ordered; sibling order in traversals is edge
    insertion order, pinned by golden tests.  `delta` logs what changed for
    the node since it was last valid: the facts asserted since then that
    matched one of its leaves, each once, in assert order; or None once
    anything else invalidated it (a retract or a rule matching one of its
    leaves, another node, `abolish_table` or the unwinding of a failed
    evaluation).  Only `Idg.invalidate_from` writes it; the engine reads it
    to choose semi-naive re-evaluation.  `outcome` is the `ReevalOutcome`
    of the node's last re-evaluation, None before the first.
    """

    __slots__ = (
        "serial", "table", "affected_edges", "dependent_edges",
        "previous_count", "new_answer", "falsecount", "delta", "outcome",
    )

    def __init__(self, serial: int, table):
        self.serial = serial
        self.table = table
        self.affected_edges: dict = {}     # nodes that depend on this one
        self.dependent_edges: dict = {}    # nodes/leaves this one depends on
        self.previous_count: Optional[int] = None
        self.new_answer = False
        self.falsecount = 0
        self.delta: Optional[list] = []
        self.outcome = None

    @property
    def invalid(self) -> bool:
        return self.falsecount > 0

    def __repr__(self):
        return f"IdgNode({format_term(self.table.subgoal)}, fc={self.falsecount})"


class DynamicLeaf:
    """Leaf pattern for a dynamic incremental call (possibly depth-abstracted)."""

    __slots__ = ("serial", "pattern", "pred", "key", "affected_edges")

    def __init__(self, serial: int, pattern: Term, pred: tuple, key):
        self.serial = serial
        self.pattern = pattern
        self.pred = pred
        self.key = key     # canonical key of the pattern in Idg.leaves
        self.affected_edges: dict = {}

    def __repr__(self):
        return f"DynamicLeaf({format_term(self.pattern)})"


class Idg:
    def __init__(self):
        self.nodes: dict = {}     # table serial -> IdgNode
        self.leaves: dict = {}    # pred -> {pattern canonical key -> DynamicLeaf}
        self.leaf_index: dict = {}  # pred -> Arg1Index of its leaves
        self._detached: dict = {}   # leaves that lost their last affected edge
        self._serial = 0            # serial of the last node or leaf made

    # -- construction ----------------------------------------------------

    def node_for(self, table) -> IdgNode:
        node = self.nodes.get(table.serial)
        if node is None:
            self._serial += 1
            node = IdgNode(self._serial, table)
            self.nodes[table.serial] = node
            table.idg_node = node
        return node

    def register_call_edge(self, child, parent: IdgNode) -> None:
        """child directly affects parent; idempotent."""
        child.affected_edges.setdefault(parent, False)
        parent.dependent_edges.setdefault(child)

    def register_dynamic_leaf(self, goal: Term, decl, env=None) -> DynamicLeaf:
        """The leaf of a dynamic call, made on first use.  Its key costs
        one `canonical_key` of the call, or one pass over the arguments
        under `abstract(0)`; the pattern is built only for a new leaf."""
        pred = (decl.name, decl.arity)
        bucket = self.leaves.setdefault(pred, {})
        depth = decl.idg_abstraction
        pattern = None
        if depth is None:
            key = canonical_key(goal, env)
        elif depth == 0:
            key = abstract0_key(goal, env)
        else:
            pattern = _leaf_pattern(goal, depth, env)
            key = canonical_key(pattern)
        leaf = bucket.get(key)
        if leaf is None:
            if pattern is None:
                pattern = _leaf_pattern(goal, depth, env)
            self._serial += 1
            leaf = DynamicLeaf(self._serial, pattern, pred, key)
            bucket[key] = leaf
            self.leaf_index.setdefault(pred, Arg1Index()).add(pattern, leaf)
        return leaf

    def leaves_matching(self, pred: tuple, head: Term) -> list:
        """Leaf patterns of pred unifying with an updated clause head, in
        serial order."""
        index = self.leaf_index.get(pred)
        if index is None:
            return []
        return [leaf for _, leaf in index.matching(head)
                if unify_in(leaf.pattern, head, {})]

    def clear_dependencies(self, node: IdgNode) -> None:
        """Remove node's dependent edges, noting the leaves left without an
        affected edge for `drop_detached_leaves`."""
        for child in node.dependent_edges:
            child.affected_edges.pop(node, None)
            if type(child) is DynamicLeaf and not child.affected_edges:
                self._detached[child] = None
        node.dependent_edges.clear()

    def drop_detached_leaves(self) -> None:
        """Forget the noted leaves that still have no affected edge."""
        for leaf in self._detached:
            if leaf.affected_edges:
                continue  # a later call re-attached it
            del self.leaves[leaf.pred][leaf.key]
            self.leaf_index[leaf.pred].remove(leaf.pattern, leaf)
        self._detached.clear()

    def drop_node(self, node: IdgNode) -> None:
        for parent in node.affected_edges:
            parent.dependent_edges.pop(node, None)
        self.clear_dependencies(node)
        self.nodes.pop(node.table.serial, None)
        node.table.idg_node = None

    # -- invalidation -----------------------------------------------------

    def invalidate_from(self, leaves, fact=None) -> list:
        """Depth-first falsecount invalidation from updated leaves (or from
        the nodes of dropped tables).

        Each traversed edge carries at most one pending contribution
        (affected_edges maps parent -> contributed flag), so decrements in
        propagate_validity undo exactly the increments made here.  Returns
        the invalid list: affected table nodes in traversal order, whose
        in-order drain updates tables bottom-up.  Self-loop edges do not
        contribute (a table cannot invalidate itself).  A node reached from
        a leaf logs fact, the asserted fact, in its `delta`; one reached
        from a node, or from a leaf without a fact, gets a `delta` of None.
        """
        invalid_list: list = []
        for leaf in leaves:
            stack = [(leaf, iter(leaf.affected_edges))]
            while stack:
                origin, edge_iter = stack[-1]
                aff = next(edge_iter, None)
                if aff is None:
                    stack.pop()
                    continue
                if aff is origin:
                    continue
                if aff.table.status == "incomplete":
                    raise PermissionViolation(
                        "update affects the incomplete table "
                        f"{format_term(aff.table.subgoal)}")
                delta = aff.delta
                if origin is not leaf or fact is None:
                    aff.delta = None
                elif delta is not None and (not delta or delta[-1] is not fact):
                    delta.append(fact)
                transitioned = False
                if not origin.affected_edges.get(aff, False):
                    origin.affected_edges[aff] = True
                    aff.falsecount += 1
                    transitioned = aff.falsecount == 1
                if transitioned:
                    invalid_list.append(aff)
                    stack.append((aff, iter(aff.affected_edges)))
        return invalid_list

    def propagate_validity(self, node: IdgNode) -> None:
        """Undo node's pending invalidation contributions; cascade through
        parents that become valid (and are not themselves mid-reevaluation)."""
        stack = [node]
        while stack:
            cur = stack.pop()
            for aff, contributed in cur.affected_edges.items():
                if aff is cur or not contributed:
                    continue
                if aff.falsecount <= 0:
                    raise InternalStateError(
                        f"falsecount underflow on {format_term(aff.table.subgoal)}")
                cur.affected_edges[aff] = False
                aff.falsecount -= 1
                if aff.falsecount == 0 and not aff.table.in_reeval:
                    aff.delta = []
                    stack.append(aff)

    def clear_contributions(self, node: IdgNode) -> None:
        """Retire node's pending contributions without revalidating parents
        (used when a re-evaluation concludes the answers changed)."""
        for aff, contributed in node.affected_edges.items():
            if contributed:
                node.affected_edges[aff] = False

    def collect_dependencies(self, node: IdgNode) -> list:
        """Dependency-first drain list for a lazy call of node: every table
        node reachable through dependent edges, each once, after the nodes
        it depends on (depth-first, in edge insertion order).  The called
        node itself comes last, so draining the list alone restores its
        validity.  The visited set is local to the walk, so the list
        depends only on the graph, never on earlier calls.
        """
        collected: list = []
        seen = {node}
        stack = [(node, iter(node.dependent_edges))]
        while stack:
            cur, edge_iter = stack[-1]
            dep = next(edge_iter, None)
            if dep is None:
                stack.pop()
                if cur is not node:
                    collected.append(cur)
                continue
            if isinstance(dep, DynamicLeaf) or dep in seen:
                continue
            seen.add(dep)
            stack.append((dep, iter(dep.dependent_edges)))
        collected.append(node)
        return collected

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict:
        edges = sum(len(n.dependent_edges) for n in self.nodes.values())
        return {
            "nodes": len(self.nodes),
            "leaves": sum(len(b) for b in self.leaves.values()),
            "edges": edges,
            "invalid": sum(1 for n in self.nodes.values() if n.invalid),
        }

    def dump_edges(self) -> list:
        """Text lines "child -> parent" for golden tests."""
        lines = []
        for node in sorted(self.nodes.values(), key=lambda n: n.serial):
            for dep in node.dependent_edges:
                child = (format_term(dep.pattern) if isinstance(dep, DynamicLeaf)
                         else format_term(dep.table.subgoal))
                lines.append(f"{child} -> {format_term(node.table.subgoal)}")
        return sorted(lines)


def _leaf_pattern(goal: Term, depth: Optional[int], env) -> Term:
    """The call resolved, then abstracted below depth when one is given."""
    pattern = resolve(goal, env) if env else goal
    return pattern if depth is None else abstract_depth(pattern, depth)[0]


def abstract0_key(goal: Term, env=None):
    """`canonical_key(abstract_depth(resolve(goal, env), 0)[0])` in one pass
    over the arguments of the atom goal: an argument bound to anything but
    an unbound variable becomes a fresh variable, and unbound ones keep
    their aliasing, so `e(X,X)` and `e(X,Y)` differ and `e(a,b)` is
    `e(X,Y)`."""
    if type(goal) is not Struct:
        return goal.value
    key = ["s", goal.functor, len(goal.args)]
    numbering: dict = {}
    count = 0         # variables numbered so far, fresh ones included
    for a in goal.args:
        if env:
            a = walk(a, env)
        n = numbering.setdefault(a, count) if type(a) is Var else count
        if n == count:
            count += 1
        key.append(("v", n))
    return tuple(key)
