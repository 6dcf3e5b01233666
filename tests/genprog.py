"""Random normal program generation shared by the oracle suites.

`random_program` makes propositional programs: IDB atoms are tabled, EDB
atoms (when used) are dynamic incremental facts toggled by updates.
`random_fo_program` makes first-order programs over a few constants, which
`ground_fo` grounds for the oracle, in one of three modes: definite,
negation-free (rules may hold `undefined`) or normal.  Negation is applied
to tabled atoms only, matching the load-time restriction on tnot/1.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


def random_program(rng: random.Random, n_atoms: int = 12, n_rules: int = 25,
                   n_edb: int = 0, allow_undefined: bool = False):
    """Returns (idb_atoms, edb_atoms, rules) with rules as (head, body)
    over literal tuples ("pos", a) / ("neg", a) / ("undef",)."""
    idb = [f"a{i}" for i in range(1, n_atoms + 1)]
    edb = [f"e{i}" for i in range(1, n_edb + 1)]
    rules = []
    for _ in range(rng.randint(1, n_rules)):
        head = rng.choice(idb)
        body = []
        for _ in range(rng.randint(0, 3)):
            roll = rng.random()
            if allow_undefined and roll < 0.08:
                body.append(("undef",))
            elif edb and roll < 0.45:
                body.append(("pos", rng.choice(edb)))
            else:
                sign = "neg" if rng.random() < 0.4 else "pos"
                body.append((sign, rng.choice(idb)))
        rules.append((head, body))
    return idb, edb, rules


def program_text(idb, edb, rules) -> str:
    """Engine source text for a generated program (without EDB facts)."""
    lines = [f":- table {a}/0 as incremental." for a in idb]
    lines += [f":- dynamic {e}/0 as incremental." for e in edb]
    for head, body in rules:
        if not body:
            lines.append(f"{head}.")
            continue
        parts = []
        for lit in body:
            if lit[0] == "pos":
                parts.append(lit[1])
            elif lit[0] == "neg":
                parts.append(f"tnot({lit[1]})")
            else:
                parts.append("undefined")
        lines.append(f"{head} :- {', '.join(parts)}.")
    return "\n".join(lines) + "\n"


def oracle_rules(rules, edb_facts) -> list:
    """Ground rules for the oracle: generated rules plus EDB facts."""
    out = list(rules)
    for fact in edb_facts:
        out.append((fact, []))
    return out


# -- first-order programs ------------------------------------------------------
#
# An atom is (pred, args) with args a tuple of strings: constants are
# lower-case, variables upper-case.  A body literal is ("pos", atom),
# ("tnot", atom), ("sk_not", atom) or ("undef",).  Every rule is range
# restricted: each head variable occurs in a positive body literal, and the
# positive literals come first, so every answer is ground and every tnot/1
# call is ground.  Variables named S<n> occur only in sk_not/1 literals,
# where they are free and so skolemized.

FO_CONSTANTS = ("a", "b", "c", "d")
DEFINITE = "definite"            # no tnot/1, sk_not/1 or undefined
NEGATION_FREE = "negation_free"  # undefined, but no tnot/1 or sk_not/1
NORMAL = "normal"                # any of them
SKOLEMS = ("$sk1", "$sk2")
_VARS = ("X", "Y", "Z")


@dataclass
class FoProgram:
    consts: tuple
    idb: dict          # tabled predicate -> arity
    edb: dict          # dynamic predicate -> arity
    options: dict      # predicate -> declaration options text (may be "")
    rules: list        # (head, body) for the tabled predicates


def _fo_args(rng: random.Random, arity: int, consts: tuple, pool) -> tuple:
    return tuple(rng.choice(consts) if rng.random() < 0.2 else rng.choice(pool)
                 for _ in range(arity))


def _fo_rule(rng: random.Random, head_pred: str, arity: int, callees: dict,
             consts: tuple, negatable: dict, mode: str) -> tuple:
    body = []
    own = [head_pred] if head_pred in callees else []
    chain = rng.random() < 0.5   # a path X -> ... -> last, as in reach/2
    last, fresh = "X", iter(("Y", "Z", "W"))
    for _ in range(rng.randint(1, 3)):
        # half the calls go to dynamic predicates or the head's own, so
        # that many tables depend on no other table
        pool = sorted(callees) if rng.random() < 0.5 else sorted(
            set(callees) - set(negatable)) + own
        pred = rng.choice(pool)
        if not chain:
            args = _fo_args(rng, callees[pred], consts, _VARS)
        elif callees[pred] == 2:
            args = (last, next(fresh))
            last = args[1]
        else:
            args = (last,)
        body.append(("pos", (pred, args)))
    bound = sorted({a for _, (_, args) in body for a in args if a.isupper()})
    if chain:
        head = (head_pred, ("X", last)[2 - arity:])
    else:
        head = (head_pred, _fo_args(rng, arity, consts, bound or consts))
    if mode == NEGATION_FREE and rng.random() < 0.7:
        body.append(("undef",))
    elif mode == NORMAL:
        for _ in range(rng.randint(0, 2)):
            roll = rng.random()
            pred = rng.choice(sorted(negatable))
            if roll < 0.45:
                body.append(("tnot", (pred, _fo_args(
                    rng, negatable[pred], consts, bound or consts))))
            elif roll < 0.8:
                local = ("S1", "S1", "S2")
                args = _fo_args(rng, negatable[pred], consts, (bound or []) + ["S1"])
                if not any(a.startswith("S") for a in args):
                    args = (rng.choice(local),) + args[1:]
                body.append(("sk_not", (pred, args)))
            else:
                body.append(("undef",))
    return head, body


def random_fo_program(rng: random.Random, mode: str) -> FoProgram:
    """2-4 tabled and 1-3 dynamic predicates of arity 1 or 2 over 2-4
    constants, with rules of the given mode."""
    consts = FO_CONSTANTS[:rng.randint(2, 4)]
    idb = {f"p{i}": rng.randint(1, 2) for i in range(rng.randint(2, 4))}
    edb = {f"e{i}": rng.randint(1, 2) for i in range(rng.randint(1, 3))}
    options = {}
    for pred in idb:
        options[pred] = ", subgoal_abstract(0)" if rng.random() < 0.15 else ""
    for pred in edb:
        roll = rng.random()
        options[pred] = (", abstract(0)" if roll < 0.15
                         else ", abstract(1)" if roll < 0.3 else "")
    callees = dict(edb, **idb)
    rules = [_fo_rule(rng, head, idb[head], callees, consts, idb, mode)
             for head in [rng.choice(sorted(idb)) for _ in range(rng.randint(2, 6))]]
    return FoProgram(consts, idb, edb, options, rules)


def random_fo_fact(rng: random.Random, prog: FoProgram) -> tuple:
    pred = rng.choice(sorted(prog.edb))
    return (pred, tuple(rng.choice(prog.consts) for _ in range(prog.edb[pred])))


def random_fo_dynamic_rule(rng: random.Random, prog: FoProgram):
    """A rule for a dynamic predicate whose body calls only dynamic
    predicates earlier in name order, so dynamic rules never recurse; None
    when there is one dynamic predicate."""
    preds = sorted(prog.edb)
    if len(preds) < 2:
        return None
    i = rng.randrange(1, len(preds))
    lower = {p: prog.edb[p] for p in preds[:i]}
    return _fo_rule(rng, preds[i], prog.edb[preds[i]], lower, prog.consts,
                    {}, DEFINITE)


def fo_atom_text(atom: tuple) -> str:
    pred, args = atom
    return f"{pred}({','.join(args)})" if args else pred


def fo_clause_text(head: tuple, body) -> str:
    parts = []
    for lit in body:
        if lit[0] == "pos":
            parts.append(fo_atom_text(lit[1]))
        elif lit[0] == "undef":
            parts.append("undefined")
        else:
            parts.append(f"{lit[0]}({fo_atom_text(lit[1])})")
    if not parts:
        return fo_atom_text(head) + "."
    return f"{fo_atom_text(head)} :- {', '.join(parts)}."


def fo_program_text(prog: FoProgram) -> str:
    """Declarations and tabled rules (dynamic clauses are asserted)."""
    lines = [f":- table {p}/{n} as incremental{prog.options[p]}."
             for p, n in prog.idb.items()]
    lines += [f":- dynamic {p}/{n} as incremental{prog.options[p]}."
              for p, n in prog.edb.items()]
    lines += [fo_clause_text(head, body) for head, body in prog.rules]
    return "\n".join(lines) + "\n"


def ground_fo(prog: FoProgram, clauses) -> list:
    """Ground rules for `oracle.well_founded_model` over the constants, plus
    the skolem constants when a sk_not/1 literal occurs.  clauses holds the
    tabled rules, the stored dynamic rules and the facts (each once per
    stored copy; duplicates do not matter).  Instances whose positive
    literal on a dynamic predicate without rules is not a fact are dropped,
    which keeps the program small without changing its model."""
    clauses = list(clauses)
    has_rules = {head[0] for head, body in clauses if body}
    facts = {fo_atom_text(head) for head, body in clauses if not body}
    universe = prog.consts
    if any(lit[0] == "sk_not" for _, body in clauses for lit in body):
        universe += SKOLEMS
    out = []
    for head, body in clauses:
        names = []
        for atom in [head] + [lit[1] for lit in body if len(lit) > 1]:
            for a in atom[1]:
                if a[0].isupper() and a[0] != "S" and a not in names:
                    names.append(a)
        for values in itertools.product(universe, repeat=len(names)):
            env = dict(zip(names, values))
            ground_body = []
            for lit in body:
                if lit[0] == "undef":
                    ground_body.append(lit)
                    continue
                pred, args = lit[1]
                skolem: dict = {}
                args = tuple(
                    env.get(a) or skolem.setdefault(a, SKOLEMS[len(skolem)])
                    if a[0].isupper() else a for a in args)
                text = fo_atom_text((pred, args))
                if lit[0] != "pos":
                    ground_body.append(("neg", text))
                elif pred in prog.edb and pred not in has_rules:
                    if text not in facts:
                        break
                else:
                    ground_body.append(("pos", text))
            else:
                head_args = tuple(env.get(a, a) for a in head[1])
                out.append((fo_atom_text((head[0], head_args)), ground_body))
    return out
