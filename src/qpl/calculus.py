"""Calculus variants, rule-instance matching, and derivation checking.

A derivation is a finite DAG of labeled nodes. Hypothesis and axiom nodes
are leaves; rule nodes list their premises as parent node ids, in the order
the rule schema states them. Every parent is listed before its child, so a
node cites only earlier nodes and the listing itself shows the graph
acyclic: the checker needs no cycle search. It validates structure first
and only then judges each node, so a malformed graph never produces rule
verdicts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import IntEnum
from functools import partial
from typing import NamedTuple

from .syntax import (
    And,
    Atom,
    Bot,
    Exists,
    Forall,
    Formula,
    Imp,
    Or,
    SymbolTable,
    Top,
    VAR,
    gc_paused,
    parse_formula,
    render,
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
# rule sets are cumulative
RULES = {
    "TopI": (CalculusVariant.ORIGINAL, 0, _top_i),
    "AndI": (CalculusVariant.ORIGINAL, 2, _and_i),
    "AndE_L": (CalculusVariant.ORIGINAL, 1, _and_e_l),
    "AndE_R": (CalculusVariant.ORIGINAL, 1, _and_e_r),
    "ImpI": (CalculusVariant.ORIGINAL, 1, _imp_i),
    "ImpE": (CalculusVariant.ORIGINAL, 2, _imp_e),
    "OrI_L": (CalculusVariant.L1, 1, _or_i_l),
    "OrI_R": (CalculusVariant.L1, 1, _or_i_r),
    "OrE": (CalculusVariant.L1, 1, _or_e),
    "BotE": (CalculusVariant.L2, 1, _bot_e),
    "ImpAx": (CalculusVariant.PFQPL, 0, _imp_ax),
    "ForallI": (CalculusVariant.QPL, 1, _forall_i),
    "ForallE": (CalculusVariant.QPL, 1, _forall_e),
    "ExistsI": (CalculusVariant.QPL, 1, _exists_i),
    "ExistsE": (CalculusVariant.QPL, 1, _exists_e),
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
    id: int
    label: Formula
    kind: str  # "hypothesis" | "axiom" | "rule"
    rule: str | None
    parents: tuple[int, ...]


@dataclass(frozen=True)
class Derivation:
    root: int
    nodes: tuple[DerivationNode, ...]


class NodeResult(NamedTuple):
    node_id: int
    ok: bool
    reason: str | None


@dataclass
class Report:
    """failures lists the nodes that do not check, in document order."""

    ok: bool
    structural_errors: list[str]
    failures: list[NodeResult]
    conclusion_ok: bool = True


def _check_node(node, node_map, variant, hypset):
    """Why node does not check, or None when it does."""
    if node.kind == "hypothesis":
        if node.parents:
            return "hypothesis node has parents"
        if node.rule is not None:
            return "hypothesis node carries a rule name"
        if node.label not in hypset:
            return f"{render(node.label)} is not among the hypotheses"
    elif node.kind == "axiom":
        if node.parents:
            return "axiom node has parents"
        label = node.label
        expected = "TopI" if isinstance(label, Top) else "ImpAx"
        first, _, check = RULES[expected]
        if check((), label) is not None:
            return f"{render(label)} is not an axiom"
        if variant < first:
            return (
                f"axiom {render(label)} is not part of the "
                f"{variant.cli_name} calculus"
            )
        if node.rule is not None and node.rule != expected:
            return f"axiom node labeled with rule {node.rule!r}"
    elif node.kind == "rule":
        if node.rule is None:
            return "rule node is missing its rule name"
        prems = [node_map[pid].label for pid in node.parents]
        fault = match_rule(variant, node.rule, prems, node.label)
        if fault is not None:
            return f"{fault[0]}: {fault[1]}"
    else:
        return f"unknown node kind {node.kind!r}"
    return None


@gc_paused
def check_derivation(
    d: Derivation,
    variant: CalculusVariant,
    hyps,
    expected_conclusion: Formula | None = None,
) -> Report:
    structural: list[str] = []
    node_map: dict[int, DerivationNode] = {}
    late = []  # (child, parent) ids where the parent was not listed yet
    for n in d.nodes:
        for pid in n.parents:
            if pid not in node_map:
                late.append((n.id, pid))
        if n.id in node_map:
            structural.append(f"duplicate node id {n.id}")
        else:
            node_map[n.id] = n
    if d.root not in node_map:
        structural.append(f"root {d.root} is not a node")
    for nid, pid in late:
        if pid in node_map:
            structural.append(
                f"node {nid} references parent {pid}, which is not listed "
                "before it"
            )
        else:
            structural.append(f"node {nid} references missing parent {pid}")
    if structural:
        return Report(False, structural, [])

    hypset = set(hyps)
    failures = []
    for n in d.nodes:
        reason = _check_node(n, node_map, variant, hypset)
        if reason is not None:
            failures.append(NodeResult(n.id, False, reason))
    conclusion_ok = (
        expected_conclusion is None
        or node_map[d.root].label is expected_conclusion
    )
    return Report(not failures and conclusion_ok, [], failures, conclusion_ok)


# ------------------------------------------------------------ serialization

_NODE_KINDS = ("hypothesis", "axiom", "rule")


def render_cached(texts: dict, f: Formula) -> str:
    """render(f), rendered once per texts dict: texts maps each formula
    rendered through it so far to its text."""
    text = texts.get(f)
    if text is None:
        text = texts[f] = render(f)
    return text


@gc_paused
def derivation_to_json(d: Derivation, texts: dict | None = None) -> dict:
    """The JSON shape of d: {"root": id, "nodes": [...]}, each node the
    five-element array [id, label, kind, rule, parents], where label is the
    rendered formula, rule is null on hypotheses and parents is an id array.

    A caller that passes its own texts dict (one per proof document, the
    mirror of derivation_from_json's symbols) shares rendered labels across
    calls: each distinct formula is rendered once, and the dict maps it to
    its text. Without a dict every label is rendered, and nothing is cached.
    """
    label = render if texts is None else partial(render_cached, texts)
    return {
        "root": d.root,
        "nodes": [
            [nid, label(f), kind, rule, list(parents)]
            for nid, f, kind, rule, parents in d.nodes
        ],
    }


@gc_paused
def derivation_from_json(
    obj,
    declared_vars=(),
    symbols: SymbolTable | None = None,
) -> Derivation:
    """Read a derivation back from derivation_to_json's shape.

    A node may also be the object {"id", "label", "kind", "rule",
    "parents"} that documents written before the array shape hold; both
    are checked alike and may be mixed. Labels are parsed with reserved
    names allowed, reading declared_vars as variables. A caller that
    passes its own symbols table (one per proof document) shares arities
    and parsed labels across calls: each distinct label text is parsed
    once per declared set (SymbolTable labels), and a repeat gets the same
    formula. Without a table every label is parsed, and nothing is cached.
    """
    if not isinstance(obj, dict):
        raise ValueError("derivation must be a JSON object")
    if type(obj.get("root")) is not int:  # bool is an int subclass
        raise ValueError("derivation needs an integer 'root'")
    items = obj.get("nodes")
    if not isinstance(items, list):
        raise ValueError("derivation needs a 'nodes' array")
    declared = frozenset(declared_vars)
    if symbols is None:
        symbols = SymbolTable()
        labels = None
    else:
        labels = symbols.labels.setdefault(declared, {})
    nodes = []
    for item in items:
        if isinstance(item, list):
            if len(item) != 5:
                raise ValueError(
                    f"node at index {_index(items, item)}: expected [id, "
                    f"label, kind, rule, parents], got {len(item)} element(s)"
                )
            nid, label, kind, rule, parents = item
            if type(nid) is not int:
                raise ValueError(
                    f"node at index {_index(items, item)}: id must be an "
                    f"integer, got {nid!r}"
                )
        elif isinstance(item, dict):
            nid = item.get("id")
            label = item.get("label")
            kind = item.get("kind")
            rule = item.get("rule")
            parents = item.get("parents")
            if type(nid) is not int:
                raise ValueError("node id must be an integer")
        else:
            raise ValueError("every node must be a JSON array or object")
        if not isinstance(label, str):
            raise ValueError(f"node {nid}: label must be a string")
        if kind not in _NODE_KINDS:
            raise ValueError(f"node {nid}: unknown kind {kind!r}")
        if rule is not None and not isinstance(rule, str):
            raise ValueError(f"node {nid}: rule must be a string or null")
        if not isinstance(parents, list):
            raise ValueError(f"node {nid}: parents must be an integer array")
        for x in parents:
            if type(x) is not int:
                raise ValueError(
                    f"node {nid}: parents must be an integer array"
                )
        formula = None if labels is None else labels.get(label)
        if formula is None:
            formula = parse_formula(
                label, declared, symbols=symbols, allow_reserved=True
            )
            if labels is not None:
                labels[label] = formula
        nodes.append(DerivationNode(nid, formula, kind, rule, tuple(parents)))
    return Derivation(root=obj["root"], nodes=tuple(nodes))


@gc_paused
def load_derivation(
    text: str,
    declared_vars=(),
    symbols: SymbolTable | None = None,
) -> Derivation:
    """Read a derivation from the JSON text of derivation_to_json's shape:
    json.loads and derivation_from_json (same arguments) under one pause of
    the collector. A caller's own json.loads of a large proof runs with the
    collector on, which walks the growing heap again and again and finds
    nothing."""
    return derivation_from_json(json.loads(text), declared_vars, symbols)


def _index(items: list, item) -> int:
    """The position of item in items; only an error message needs it."""
    return next(i for i, x in enumerate(items) if x is item)
