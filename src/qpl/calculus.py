"""Calculus variants, rule-instance matching, and derivation checking.

A derivation is a finite DAG of labeled nodes, each its position in the
listing and its rule. A hypothesis node names no rule and is a leaf;
every other node is an instance of its rule, an axiom being a rule with
no premises, and lists its premises by position, in the order the rule
schema states them. Every parent is listed before its child, so a node
cites only earlier nodes, as a formula row cites earlier rows, and the
listing itself shows the graph acyclic: the checker needs no cycle
search. It judges each node in the same pass that validates the
structure, and stops judging at the first structural error, whose report
lists structural errors only: a malformed graph never produces rule
verdicts.

A Derivation is held as node columns, one per node field, and written as
the same JSON columns, with labels citing the rows of a formula table
(FormulaTable); it is read back by building those rows with the interning
constructors. The engine, the writer, the reader and the checker work on
the columns and build no DerivationNode: Derivation.nodes builds those
for a reader of the proof, and Derivation.of_nodes builds the columns of
hand-made nodes. JSON columns are the one shape read: a derivation
written before formula tables, with rendered labels, or with 'id' and
'kind' columns, is refused.

The proof document format lives here too, as one writer and one reader
(proof_document_to_json, proof_document_from_json): one node table, with
a (query, root) pair per proof, and one formula table that all of it cites.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import partial
from itertools import accumulate, chain, count
from operator import attrgetter
from typing import NamedTuple

from .syntax import (
    _FORMULAS,
    And,
    Atom,
    Bot,
    Exists,
    Forall,
    Formula,
    Imp,
    Or,
    RESERVED_PREFIX,
    Top,
    VAR,
    atom,
    bot,
    conj,
    const,
    disj,
    exists,
    forall,
    gc_paused,
    imp,
    render,
    top,
    var,
)


class CalculusVariant(IntEnum):
    ORIGINAL = 0
    L1 = 1
    L2 = 2
    PFQPL = 3
    QPL = 4

    @property
    def cli_name(self) -> str:
        return _VARIANT_NAMES[self]

    @classmethod
    def from_name(cls, name: str) -> "CalculusVariant":
        try:
            return _VARIANTS_BY_NAME[name.lower()]
        except KeyError:
            raise ValueError(
                f"unknown variant {name!r}; expected one of "
                f"{', '.join(_VARIANTS_BY_NAME)}"
            ) from None


_VARIANT_NAMES = {
    CalculusVariant.ORIGINAL: "orig",
    CalculusVariant.L1: "l1",
    CalculusVariant.L2: "l2",
    CalculusVariant.PFQPL: "pfqpl",
    CalculusVariant.QPL: "qpl",
}
_VARIANTS_BY_NAME = {name: v for v, name in _VARIANT_NAMES.items()}

UNKNOWN_RULE = "unknown_rule"
SHAPE = "shape"
SIDE_CONDITION = "side_condition"


# A rule check gets the premises, as many as the rule has, and the conclusion.
# It returns a (code, message) fault, or falls through to None on an instance.

def _top_i(ps, c):
    if not isinstance(c, Top):
        return SHAPE, "conclusion must be the truth constant"


def _and_i(ps, c):
    if not (isinstance(c, And) and c.l is ps[0] and c.r is ps[1]):
        return SHAPE, "conclusion must conjoin the premises in order"


def _and_e_l(ps, c):
    if not (isinstance(ps[0], And) and ps[0].l is c):
        return SHAPE, "conclusion must be the left conjunct"


def _and_e_r(ps, c):
    if not (isinstance(ps[0], And) and ps[0].r is c):
        return SHAPE, "conclusion must be the right conjunct"


def _or_i_l(ps, c):
    if not (isinstance(c, Or) and c.l is ps[0]):
        return SHAPE, "premise must be the left disjunct"


def _or_i_r(ps, c):
    if not (isinstance(c, Or) and c.r is ps[0]):
        return SHAPE, "premise must be the right disjunct"


def _or_e(ps, c):
    prem = ps[0]
    if not isinstance(prem, Or) or (c is not prem.l and c is not prem.r):
        return SHAPE, "premise must be a disjunction of the conclusion"
    if prem.l is not prem.r:
        return SIDE_CONDITION, "premise disjuncts must be equal"


def _imp_i(ps, c):
    if not (isinstance(c, Imp) and c.r is ps[0]):
        return SHAPE, "premise must be the consequent of the conclusion"


def _imp_e(ps, c):
    if not (isinstance(ps[1], Imp) and ps[1].l is ps[0] and ps[1].r is c):
        return SHAPE, "premises must read antecedent, implication"


def _imp_ax(ps, c):
    if not (isinstance(c, Imp) and c.l is c.r):
        return SHAPE, "axiom instances are implications with equal sides"


def _bot_e(ps, c):
    if not isinstance(ps[0], Bot):
        return SHAPE, "premise must be the falsity constant"


def _forall_i(ps, c):
    if not (isinstance(c, Forall) and c.body is ps[0]):
        return SHAPE, "conclusion must quantify the premise"
    if c.var in ps[0].free:
        return SIDE_CONDITION, f"{c.var} occurs free in the premise"


def _exists_e(ps, c):
    if not (isinstance(ps[0], Exists) and ps[0].body is c):
        return SHAPE, "conclusion must be the premise body"
    if ps[0].var in c.free:
        return SIDE_CONDITION, f"{ps[0].var} occurs free in the conclusion"


def _instance_fault(body: Formula, v: str, instance: Formula, mismatch: str):
    """None when instance is body[v := t] for a term t substitutable for v,
    else (SHAPE, mismatch), or a side-condition fault when t is captured.

    One walk over both finds t. Every binder it passes has a free v below,
    so t is captured exactly when it is a variable named by one of them.
    A repeated (body, instance) pair, from shared subformulas, is skipped.
    """
    witness = None
    binders = set()
    walked = set()
    stack = [(body, instance)]
    while stack:
        pair = stack.pop()
        if pair in walked:
            continue
        walked.add(pair)
        b, i = pair
        if v not in b.free:
            if b is not i:
                return SHAPE, mismatch
            continue
        cls = b.__class__
        if cls is not i.__class__:
            return SHAPE, mismatch
        if cls is Atom:
            if b.rel != i.rel or len(b.args) != len(i.args):
                return SHAPE, mismatch
            for u, w in zip(b.args, i.args):
                if u.kind == VAR and u.name == v:
                    if witness is None:
                        witness = w
                    elif witness is not w:
                        return SHAPE, mismatch
                elif u is not w:
                    return SHAPE, mismatch
        elif cls is Forall or cls is Exists:
            # v is free below, so this binder is not v
            if b.var != i.var:
                return SHAPE, mismatch
            binders.add(b.var)
            stack.append((b.body, i.body))
        else:  # And, Or, Imp
            stack.append((b.r, i.r))
            stack.append((b.l, i.l))
    if witness is not None and witness.kind == VAR and witness.name in binders:
        return SIDE_CONDITION, f"term {witness.name} is not substitutable (clash)"
    return None


def _forall_e(ps, c):
    prem = ps[0]
    if not isinstance(prem, Forall):
        return SHAPE, "premise must be universally quantified"
    return _instance_fault(
        prem.body, prem.var, c, "conclusion is not an instance of the premise body"
    )


def _exists_i(ps, c):
    if not isinstance(c, Exists):
        return SHAPE, "conclusion must be existentially quantified"
    return _instance_fault(
        c.body, c.var, ps[0], "premise is not an instance of the conclusion body"
    )


# name -> (earliest variant carrying the rule, premise count, check); the
# rule sets are cumulative. The order is the engine's: a rule's code is its
# position here.
RULES = {
    "ImpI": (CalculusVariant.ORIGINAL, 1, _imp_i),
    "ImpE": (CalculusVariant.ORIGINAL, 2, _imp_e),
    "AndI": (CalculusVariant.ORIGINAL, 2, _and_i),
    "AndE_L": (CalculusVariant.ORIGINAL, 1, _and_e_l),
    "AndE_R": (CalculusVariant.ORIGINAL, 1, _and_e_r),
    "OrI_L": (CalculusVariant.L1, 1, _or_i_l),
    "OrI_R": (CalculusVariant.L1, 1, _or_i_r),
    "OrE": (CalculusVariant.L1, 1, _or_e),
    "ForallE": (CalculusVariant.QPL, 1, _forall_e),
    "ForallI": (CalculusVariant.QPL, 1, _forall_i),
    "ExistsI": (CalculusVariant.QPL, 1, _exists_i),
    "ExistsE": (CalculusVariant.QPL, 1, _exists_e),
    "ImpAx": (CalculusVariant.PFQPL, 0, _imp_ax),
    "TopI": (CalculusVariant.ORIGINAL, 0, _top_i),
    "BotE": (CalculusVariant.L2, 1, _bot_e),
}


def match_rule(variant: CalculusVariant, name: str, ps, conclusion: Formula):
    """None when the premises ps and conclusion form an instance of the
    named rule in variant, else the (code, message) of the first fault."""
    entry = RULES.get(name)
    if entry is None:
        return UNKNOWN_RULE, f"unknown rule {name!r}"
    first, arity, check = entry
    if variant < first:
        msg = f"rule {name} is not part of the {variant.cli_name} calculus"
        return UNKNOWN_RULE, msg
    if len(ps) != arity:
        return SHAPE, f"{name} expects {arity} premise(s), got {len(ps)}"
    fault = check(ps, conclusion)
    if fault is None:
        return None
    return fault[0], f"{name}: {fault[1]}"


# -------------------------------------------------------------- derivations

class DerivationNode(NamedTuple):
    """One node of a derivation, as Derivation.nodes shows it."""

    label: Formula
    rule: str | None
    parents: tuple[int, ...]


class Derivation(NamedTuple):
    """A derivation as node columns, the proof document's own shape: node
    i is labeled labels[i], with the rule name rules[i] (None on
    hypotheses), and its premises[i] parents are the next node positions
    of the flat parents column, in the order the rule states them. root
    is a node position, or None on a proof document's node table, whose
    proofs claim the roots."""

    root: int | None
    labels: tuple[Formula, ...]
    rules: tuple[str | None, ...]
    premises: tuple[int, ...]
    parents: tuple[int, ...]

    @property
    def nodes(self) -> tuple[DerivationNode, ...]:
        """The nodes in order, built on each access: node i's parents are
        the slice of parents from the sum of the counts before it."""
        counts = self.premises
        spans = map(self.parents.__getitem__, map(
            slice, accumulate(counts, initial=0), accumulate(counts)
        ))
        return tuple(map(_new_node, zip(self.labels, self.rules, spans)))

    @classmethod
    def of_nodes(cls, root: int, nodes) -> "Derivation":
        """The derivation of root and nodes, DerivationNode tuples (or any
        (label, rule, parents) tuples) in order."""
        labels, rules, parents = tuple(zip(*nodes)) or ((),) * 3
        return cls(root, labels, rules, tuple(map(len, parents)),
                   tuple(chain.from_iterable(parents)))


# DerivationNode(*fields) and Derivation(*fields) without the Python-level
# __new__ of a named tuple
_new_node = partial(tuple.__new__, DerivationNode)
_new_derivation = partial(tuple.__new__, Derivation)


class NodeResult(NamedTuple):
    node_id: int
    reason: str


@dataclass
class Report:
    """failures lists the nodes that do not check, in document order."""

    structural_errors: list[str]
    failures: list[NodeResult]
    conclusion_ok: bool = True

    @property
    def ok(self) -> bool:
        return not (self.structural_errors or self.failures) and self.conclusion_ok


@gc_paused
def check_derivation(
    d: Derivation,
    variant: CalculusVariant,
    hyps,
    expected_conclusion: Formula | None = None,
) -> Report:
    """Check every node of d under variant's rules from the hypotheses
    hyps, and that the root concludes expected_conclusion when one is
    given.

    The nodes judged are those d.nodes shows. Structural errors (a parent
    not listed before its child, a root that is no node) come first and
    alone: when there is any, the report lists them and no node failures.
    A root of None, as on a proof document's table, claims no node.
    Otherwise each node is judged once, and every failing node gets one
    reason, in document order. A node without a rule name is a
    hypothesis; every other node, an axiom included, is judged by
    match_rule alone.
    """
    root, labels, rules, counts, flat = d
    n = min(len(labels), len(rules), len(counts))  # the nodes d.nodes shows
    late = []  # (child, parent) positions where the parent is not before it
    hypset = set(hyps)
    failures = []
    j = 0  # where the node's parents start in flat
    for i, label, rule, k in zip(count(), labels, rules, counts):
        parents = flat[j:j + k] if k else ()
        j += k
        if parents and (min(parents) < 0 or max(parents) >= i):
            late += [(i, p) for p in parents if not 0 <= p < i]
        if late:
            continue  # the report lists structural errors only
        if rule is None:
            if parents:
                reason = "hypothesis node has parents"
            elif label in hypset:
                continue
            else:
                reason = f"{render(label)} is not among the hypotheses"
        else:
            fault = match_rule(variant, rule, [labels[p] for p in parents], label)
            if fault is None:
                continue
            reason = "%s: %s" % fault
        failures.append(NodeResult(i, reason))
    structural = (
        [] if root is None or 0 <= root < n else [f"root {root} is not a node"]
    )
    for i, p in late:
        if p < 0 or p >= n:
            structural.append(f"node {i} references missing parent {p}")
        else:
            structural.append(
                f"node {i} references parent {p}, which is not listed "
                "before it"
            )
    if structural:
        return Report(structural, [])
    conclusion_ok = (
        expected_conclusion is None or labels[root] is expected_conclusion
    )
    return Report([], failures, conclusion_ok)


# ------------------------------------------------------------ serialization

WRITTEN_BEFORE_TABLES = (
    "proof written in an older format; re-run qpl prove or "
    "qpl check --proof to write it again"
)
_COLUMNS = ("label", "rule", "premises", "parents")
_INT = frozenset({int})
_STR = frozenset({str})
_RULE_TYPES = frozenset({str, type(None)})

# The opcodes of a formula table's rows. A row is its opcode and operands:
# TRUE and FALSE have none; ATOM is followed by the relation's name index,
# the argument count k and k terms, a constant as its name index i and a
# variable as -1 - i; AND, OR and IMP by the row ids of their operands;
# FORALL and EXISTS by the bound variable's name index and the body's row.
TRUE, FALSE, ATOM, AND, OR, IMP, FORALL, EXISTS = range(8)
_OPCODES = {
    Top: TRUE, Bot: FALSE, Atom: ATOM, And: AND, Or: OR, Imp: IMP,
    Forall: FORALL, Exists: EXISTS,
}
# the constructors of the compound opcodes, and the tag their key in the
# intern table starts with
_MAKERS = (None, None, None, conj, disj, imp, forall, exists)
_TAGS = (None, None, "A", "&", "|", ">", "!", "?")


def _only(types: frozenset, items) -> bool:
    """Every item's exact type is in types (so a bool is no int)."""
    return types.issuperset(map(type, items))


class FormulaTable:
    """The formula table of one proof document, filled as it is written.

    names lists each relation, variable and constant name once; formulas
    is one flat integer array of rows, each citing only earlier rows (the
    opcodes above). Formulas are interned, so each distinct formula is one
    row.
    """

    __slots__ = ("formulas", "_names", "_rows")

    def __init__(self):
        self.formulas: list[int] = []
        self._names: dict[str, int] = {}  # name -> index, in index order
        self._rows: dict[Formula, int] = {}

    @property
    def names(self) -> list[str]:
        return list(self._names)

    def rows(self, formulas) -> list[int]:
        """The row id of each of formulas. The first time a formula is met,
        the rows of its subformulas not written yet are written, then its
        own: left operand, right operand (or bound variable and body), then
        the formula. An atom operand is written at once; any other operand
        without a row waits on an explicit stack, so nesting depth is
        bounded by memory only."""
        rows, out, names = self._rows, self.formulas, self._names

        def atom_row(a) -> int:
            args = a.args
            out.extend((ATOM, names.setdefault(a.rel, len(names)), len(args)))
            for t in args:
                code = names.setdefault(t.name, len(names))
                out.append(-1 - code if t.kind == VAR else code)
            i = rows[a] = len(rows)
            return i

        ids = []
        stack = []  # formulas waiting for an operand's row
        for f in formulas:
            i = rows.get(f)
            if i is None:
                g = f
                while True:
                    cls = g.__class__
                    if cls is Atom:
                        i = atom_row(g)
                    else:
                        op = _OPCODES[cls]
                        if op >= AND:
                            if op <= IMP:
                                sub = g.l
                                a = rows.get(sub)
                                if a is None:
                                    if sub.__class__ is not Atom:
                                        stack.append(g)
                                        g = sub
                                        continue
                                    a = atom_row(sub)
                                sub = g.r
                            else:
                                sub = g.body
                            b = rows.get(sub)
                            if b is None:
                                if sub.__class__ is not Atom:
                                    stack.append(g)
                                    g = sub
                                    continue
                                b = atom_row(sub)
                            if op > IMP:
                                a = names.setdefault(g.var, len(names))
                            out += (op, a, b)
                        else:
                            out.append(op)
                        i = rows[g] = len(rows)
                    if not stack:
                        break
                    g = stack.pop()
            ids.append(i)
        return ids


def _node_columns(d: Derivation, table: FormulaTable) -> dict:
    """d's node columns, its labels written as rows of table."""
    return {
        "label": table.rows(d.labels),
        "rule": list(d.rules),
        "premises": list(d.premises),
        "parents": list(d.parents),
    }


@gc_paused
def derivation_to_json(d: Derivation) -> dict:
    """The JSON shape of d: the root, one array per node field, and d's
    own formula table as names and formulas. Node i is the formula row
    label[i], rule[i] (null on hypotheses) and the next premises[i] node
    positions of parents, in the order the rule states them.
    """
    table = FormulaTable()
    doc = _node_columns(d, table)
    doc["root"] = d.root
    doc["names"] = table.names
    doc["formulas"] = table.formulas
    return doc


@gc_paused
def proof_document_to_json(variant: CalculusVariant, hyps, vars, proofs) -> dict:
    """The proof document of proofs, (query, derivation) pairs from hyps
    in variant whose derivations share their node columns, as a Session's
    do: it holds the columns once, each proof as its query and root, and
    one formula table whose rows the hyps, queries and labels cite. vars
    names the variables that may occur free in them."""
    d = proofs[0][1] if proofs else Derivation.of_nodes(-1, ())
    if any(p[1:] != d[1:] for _, p in proofs):
        raise ValueError("the proofs of one document must share one node table")
    table = FormulaTable()
    hyp_rows = table.rows(hyps)
    entries = [
        {"query": row, "root": p.root}
        for row, (_, p) in zip(table.rows([q for q, _ in proofs]), proofs)
    ]
    return {
        "variant": variant.cli_name,
        "vars": sorted(vars),
        **_node_columns(d, table),
        "names": table.names,
        "formulas": table.formulas,
        "hyps": hyp_rows,
        "proofs": entries,
    }


def _table_rows(obj: dict) -> list[Formula]:
    """The formulas of obj's names and formulas, one per row, built with
    the interning constructors."""
    names, formulas = obj.get("names"), obj.get("formulas")
    if type(names) is not list or type(formulas) is not list:
        raise ValueError("a formula table needs 'names' and 'formulas' arrays")
    if not _only(_STR, names):
        raise ValueError("'names' entries must be strings")
    if not _only(_INT, formulas):
        raise ValueError("'formulas' must be an integer array")
    n_names = len(names)
    arities: dict[str, int] = {}
    terms: dict[int, object] = {}
    rows: list[Formula] = []
    append = rows.append
    # a formula met before is found in the intern table under its
    # constructor's key, without the constructor's frames; a miss builds it
    interned = _FORMULAS.get
    i, end = 0, len(formulas)
    try:
        while i < end:
            op = formulas[i]
            if AND <= op <= IMP:
                left, right = formulas[i + 1], formulas[i + 2]
                i += 3
                n = len(rows)
                if not (0 <= left < n and 0 <= right < n):
                    bad = right if 0 <= left < n else left
                    raise ValueError(
                        f"formula row {n} cites row {bad}, which is not an "
                        "earlier row"
                    )
                left, right = rows[left], rows[right]
                append(
                    interned((_TAGS[op], left, right))
                    or _MAKERS[op](left, right)
                )
            elif op == ATOM:
                rel, k = formulas[i + 1], formulas[i + 2]
                i += 3
                if not 0 <= rel < n_names or k < 0:
                    raise ValueError(
                        f"formula row {len(rows)}: bad relation {rel} or "
                        f"argument count {k}"
                    )
                rel = names[rel]
                if k == 0:
                    if arities.setdefault(rel, 0):
                        raise ValueError(_arity_fault(len(rows), rel, 0, arities))
                    append(interned(("A", rel)) or atom(rel))
                    continue
                if i + k > end:
                    raise IndexError
                args = []
                for t in formulas[i:i + k]:
                    term = terms.get(t)
                    if term is None:
                        term = terms[t] = _table_term(names, t, len(rows))
                    args.append(term)
                i += k
                if arities.setdefault(rel, k) != k:
                    raise ValueError(_arity_fault(len(rows), rel, k, arities))
                append(interned(("A", rel, *args)) or atom(rel, *args))
            elif op == FORALL or op == EXISTS:
                v, body = formulas[i + 1], formulas[i + 2]
                i += 3
                n = len(rows)
                if not 0 <= v < n_names or not 0 <= body < n:
                    raise ValueError(
                        f"formula row {n}: bad variable {v} or body row {body}"
                        ", which must be an earlier row"
                    )
                v, body = names[v], rows[body]
                append(interned((_TAGS[op], v, body)) or _MAKERS[op](v, body))
            elif op == TRUE:
                append(top())
                i += 1
            elif op == FALSE:
                append(bot())
                i += 1
            else:
                raise ValueError(f"formula row {len(rows)}: unknown opcode {op}")
    except IndexError:
        raise ValueError(
            f"formula row {len(rows)} runs past the end of 'formulas'"
        ) from None
    return rows


def _arity_fault(row: int, rel: str, k: int, arities: dict) -> str:
    return (f"formula row {row}: relation {rel!r} has {k} argument(s) but "
            f"{arities[rel]} in an earlier row")


def _table_term(names: list, code: int, row: int):
    """The term an atom row writes as code."""
    try:
        return const(names[code]) if code >= 0 else var(names[-1 - code])
    except (IndexError, ValueError):
        raise ValueError(f"formula row {row}: bad term {code}") from None


def _cited_formulas(rows: list, ids, declared: frozenset, what: str) -> list:
    """The formulas of rows at ids, where a proof document cites them as
    its hyps or a query: each id an integer row id, each formula's free
    variables among declared, and no name in it reserved, as in a problem
    file (parse_formula). Node labels may hold reserved names."""
    if not isinstance(ids, list) or not _only(_INT, ids):
        raise ValueError(f"{what} must cite rows of 'formulas' by integer id")
    if ids and (min(ids) < 0 or max(ids) >= len(rows)):
        bad = min(ids) if min(ids) < 0 else max(ids)
        raise ValueError(
            f"{what} cites row {bad}, but 'formulas' has {len(rows)} row(s)"
        )
    cited = [rows[i] for i in ids]
    for f in cited:
        if not f.free <= declared:
            raise ValueError(_undeclared(what, f.free - declared))
    seen = set()
    stack = cited[:]
    while stack:
        f = stack.pop()
        if f in seen:
            continue
        seen.add(f)
        cls = f.__class__
        if cls is Atom:
            names = (f.rel, *(t.name for t in f.args))
        elif cls is Forall or cls is Exists:
            names = (f.var,)
            stack.append(f.body)
        else:
            names = ()
            if cls is And or cls is Or or cls is Imp:
                stack += (f.l, f.r)
        for name in names:
            if name.startswith(RESERVED_PREFIX):
                raise ValueError(
                    f"identifiers starting with {RESERVED_PREFIX!r} are "
                    f"reserved: {name!r}"
                )
    return cited


def _undeclared(what: str, names) -> str:
    return (f"{what} holds the variable {min(names)!r}, which is neither "
            "bound above it nor declared in 'vars'")


@gc_paused
def derivation_from_json(obj, declared_vars=()) -> Derivation:
    """Read a derivation back from derivation_to_json's shape: its labels
    are rows of its own formula table, and a variable free in a label must
    be one of declared_vars. The node columns are checked a whole column at
    a time before any label's free variables, so a derivation with faults
    of both kinds reports a column's.

    A derivation written before formula tables holds a 'nodes' array of
    rendered labels instead, and one written before nodes were their
    positions holds 'id' and 'kind' columns; both are refused with
    WRITTEN_BEFORE_TABLES.
    """
    if not isinstance(obj, dict):
        raise ValueError("derivation must be a JSON object")
    if "nodes" in obj or "id" in obj or "kind" in obj:
        raise ValueError(WRITTEN_BEFORE_TABLES)
    if type(obj.get("root")) is not int:  # bool is an int subclass
        raise ValueError("derivation needs an integer 'root'")
    rows = _table_rows(obj)
    return _derivation_from_rows(obj, rows, frozenset(declared_vars), obj["root"])


def _derivation_from_rows(obj, rows: list, declared: frozenset, root):
    """The derivation of root and obj's node columns, whose labels cite
    rows; derivation_from_json says what is checked."""
    columns = label, rule, premises, parents = [obj.get(key) for key in _COLUMNS]
    for key, column in zip(_COLUMNS, columns):
        if type(column) is not list:
            raise ValueError(f"derivation needs a {key!r} array")
    if not len(label) == len(rule) == len(premises):
        raise ValueError("node columns 'label', 'rule' and 'premises' must "
                         "have one entry per node")
    for key, column in zip(_COLUMNS, columns):
        if key != "rule" and not _only(_INT, column):
            raise ValueError(f"{key!r} must be an integer array")
    n_rows = len(rows)
    if label and (min(label) < 0 or max(label) >= n_rows):
        bad = next(i for i in label if not 0 <= i < n_rows)
        raise ValueError(
            f"'label' cites row {bad}, but 'formulas' has {n_rows} row(s)"
        )
    if not _only(_RULE_TYPES, rule):
        raise ValueError("'rule' entries must be strings or null")
    if premises and min(premises) < 0:
        raise ValueError("'premises' must be counts")
    if sum(premises) != len(parents):
        raise ValueError(f"'premises' add up to {sum(premises)} parent(s), but "
                         f"'parents' holds {len(parents)}")
    labels = tuple(map(rows.__getitem__, label))
    if not frozenset().union(*map(attrgetter("free"), labels)) <= declared:
        # the first label in node order with an undeclared variable
        for f in labels:
            if not f.free <= declared:
                raise ValueError(_undeclared("'label'", f.free - declared))
    return _new_derivation((root, labels, tuple(rule), tuple(premises),
                            tuple(parents)))


@gc_paused
def proof_document_from_json(doc) -> tuple[CalculusVariant, list, Derivation, list]:
    """Read a proof document back from proof_document_to_json's shape, as
    (variant, hyps, d, proofs): d is the node table, with root None, and
    proofs lists the (query, root) pairs that claim its roots.

    The whole document is read before any proof is judged, so a malformed
    one raises a ValueError and no verdict is due. A fault in proof i's
    query or root is prefixed "proof i: ". A node table that no proof
    claims is refused, since no proof would judge it; older shapes, among
    them a node table with 'id' or 'kind' columns, are refused too.
    """
    if not isinstance(doc, dict):
        raise ValueError("proof document must be a JSON object")
    for key in ("hyps", "proofs"):
        if not isinstance(doc.get(key), list):
            raise ValueError(f"proof document needs a {key!r} array")
    if "formulas" not in doc or "id" in doc or "kind" in doc or any(
        isinstance(e, dict) and "derivation" in e for e in doc["proofs"]
    ):
        raise ValueError(WRITTEN_BEFORE_TABLES)
    declared = doc.get("vars", [])
    if not isinstance(declared, list):
        raise ValueError("'vars' must be an array")
    if not all(isinstance(s, str) for s in declared):
        raise ValueError("'vars' entries must be strings")
    name = doc.get("variant")
    if not isinstance(name, str):
        raise ValueError("proof document needs a 'variant' string")
    variant = CalculusVariant.from_name(name)
    rows = _table_rows(doc)
    declared = frozenset(declared)
    hyps = _cited_formulas(rows, doc["hyps"], declared, "'hyps'")
    proofs = []
    for i, entry in enumerate(doc["proofs"]):
        if not isinstance(entry, dict) or type(entry.get("root")) is not int:
            raise ValueError(f"proof {i}: needs an integer 'root'")
        (query,) = _cited_formulas(rows, [entry.get("query")], declared,
                                   f"proof {i}: 'query'")
        proofs.append((query, entry["root"]))
    d = _derivation_from_rows(doc, rows, declared, None)
    if d.labels and not proofs:
        raise ValueError(f"'proofs' is empty, but the node table has "
                         f"{len(d.labels)} node(s)")
    return variant, hyps, d, proofs

