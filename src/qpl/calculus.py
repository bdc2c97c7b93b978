"""Calculus variants, rule-instance matching, and derivation checking.

A derivation is a finite DAG of labeled nodes. Hypothesis and axiom nodes
are leaves; rule nodes list their premises as parent node ids, in the order
the rule schema states them. The checker validates structure first and only
then judges each node, so a malformed graph never produces rule verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .syntax import (
    And,
    Atom,
    Bot,
    ClashError,
    Exists,
    Forall,
    Formula,
    Imp,
    Or,
    SymbolTable,
    Term,
    Top,
    VAR,
    parse_formula,
    render,
    substitute,
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

# earliest variant carrying each rule; the sets are cumulative
RULE_MIN_VARIANT = {
    "TopI": CalculusVariant.ORIGINAL,
    "AndI": CalculusVariant.ORIGINAL,
    "AndE_L": CalculusVariant.ORIGINAL,
    "AndE_R": CalculusVariant.ORIGINAL,
    "ImpI": CalculusVariant.ORIGINAL,
    "ImpE": CalculusVariant.ORIGINAL,
    "OrI_L": CalculusVariant.L1,
    "OrI_R": CalculusVariant.L1,
    "OrE": CalculusVariant.L1,
    "BotE": CalculusVariant.L2,
    "ImpAx": CalculusVariant.PFQPL,
    "ForallI": CalculusVariant.QPL,
    "ForallE": CalculusVariant.QPL,
    "ExistsI": CalculusVariant.QPL,
    "ExistsE": CalculusVariant.QPL,
}

_RULE_ARITY = {
    "TopI": 0,
    "ImpAx": 0,
    "AndI": 2,
    "ImpE": 2,
}

UNKNOWN_RULE = "unknown_rule"
SHAPE = "shape"
SIDE_CONDITION = "side_condition"


@dataclass(frozen=True)
class RuleInstance:
    name: str
    premises: tuple[Formula, ...]
    conclusion: Formula


@dataclass(frozen=True)
class RejectReason:
    code: str
    message: str


def _infer_witness(body: Formula, v: str, instance: Formula):
    """Find the unique term t with body[v := t] == instance.

    Returns (True, t), (True, None) when v has no free occurrence and the
    instance equals the body, or (False, None) when no such t exists.
    """
    if v not in body.free:
        return (True, None) if body is instance else (False, None)
    found: list[Term] = []

    def walk(b: Formula, i: Formula) -> bool:
        # invariant: v occurs free in b
        cb = b.__class__
        if cb is not i.__class__:
            return False
        if cb is Atom:
            if b.rel != i.rel or len(b.args) != len(i.args):
                return False
            for u, w in zip(b.args, i.args):
                if u.kind == VAR and u.name == v:
                    if found:
                        if found[0] is not w:
                            return False
                    else:
                        found.append(w)
                elif u is not w:
                    return False
            return True
        if cb in (And, Or, Imp):
            for bb, ii in ((b.l, i.l), (b.r, i.r)):
                if v in bb.free:
                    if not walk(bb, ii):
                        return False
                elif bb is not ii:
                    return False
            return True
        # quantifier; v free below, so the binder differs from v
        if b.var != i.var:
            return False
        return walk(b.body, i.body)

    if not walk(body, instance):
        return (False, None)
    return (True, found[0])


def match_rule(
    variant: CalculusVariant,
    name: str,
    premises,
    conclusion: Formula,
) -> RuleInstance | RejectReason:
    minv = RULE_MIN_VARIANT.get(name)
    if minv is None:
        return RejectReason(UNKNOWN_RULE, f"unknown rule {name!r}")
    if variant < minv:
        return RejectReason(
            UNKNOWN_RULE,
            f"rule {name} is not part of the {variant.cli_name} calculus",
        )
    ps = tuple(premises)
    want = _RULE_ARITY.get(name, 1)
    if len(ps) != want:
        return RejectReason(
            SHAPE, f"{name} expects {want} premise(s), got {len(ps)}"
        )

    def shape(msg: str) -> RejectReason:
        return RejectReason(SHAPE, f"{name}: {msg}")

    def side(msg: str) -> RejectReason:
        return RejectReason(SIDE_CONDITION, f"{name}: {msg}")

    if name == "TopI":
        if not isinstance(conclusion, Top):
            return shape("conclusion must be the truth constant")
    elif name == "AndI":
        if not (
            isinstance(conclusion, And)
            and conclusion.l is ps[0]
            and conclusion.r is ps[1]
        ):
            return shape("conclusion must conjoin the premises in order")
    elif name == "AndE_L":
        if not (isinstance(ps[0], And) and ps[0].l is conclusion):
            return shape("conclusion must be the left conjunct")
    elif name == "AndE_R":
        if not (isinstance(ps[0], And) and ps[0].r is conclusion):
            return shape("conclusion must be the right conjunct")
    elif name == "OrI_L":
        if not (isinstance(conclusion, Or) and conclusion.l is ps[0]):
            return shape("premise must be the left disjunct")
    elif name == "OrI_R":
        if not (isinstance(conclusion, Or) and conclusion.r is ps[0]):
            return shape("premise must be the right disjunct")
    elif name == "OrE":
        prem = ps[0]
        if not isinstance(prem, Or) or (
            conclusion is not prem.l and conclusion is not prem.r
        ):
            return shape("premise must be a disjunction of the conclusion")
        if prem.l is not prem.r:
            return side("premise disjuncts must be equal")
    elif name == "ImpI":
        if not (isinstance(conclusion, Imp) and conclusion.r is ps[0]):
            return shape("premise must be the consequent of the conclusion")
    elif name == "ImpE":
        if not (
            isinstance(ps[1], Imp)
            and ps[1].l is ps[0]
            and ps[1].r is conclusion
        ):
            return shape("premises must read antecedent, implication")
    elif name == "ImpAx":
        if not (isinstance(conclusion, Imp) and conclusion.l is conclusion.r):
            return shape("axiom instances are implications with equal sides")
    elif name == "BotE":
        if not isinstance(ps[0], Bot):
            return shape("premise must be the falsity constant")
    elif name == "ForallI":
        if not (isinstance(conclusion, Forall) and conclusion.body is ps[0]):
            return shape("conclusion must quantify the premise")
        if conclusion.var in ps[0].free:
            return side(f"{conclusion.var} occurs free in the premise")
    elif name == "ExistsE":
        if not (isinstance(ps[0], Exists) and ps[0].body is conclusion):
            return shape("conclusion must be the premise body")
        if ps[0].var in conclusion.free:
            return side(f"{ps[0].var} occurs free in the conclusion")
    elif name == "ForallE":
        prem = ps[0]
        if not isinstance(prem, Forall):
            return shape("premise must be universally quantified")
        ok, t = _infer_witness(prem.body, prem.var, conclusion)
        if not ok:
            return shape("conclusion is not an instance of the premise body")
        if t is not None:
            try:
                result = substitute(prem.body, prem.var, t)
            except ClashError:
                return side(f"term {t.name} is not substitutable (clash)")
            if result is not conclusion:
                return shape("conclusion is not an instance of the premise body")
    elif name == "ExistsI":
        if not isinstance(conclusion, Exists):
            return shape("conclusion must be existentially quantified")
        ok, t = _infer_witness(conclusion.body, conclusion.var, ps[0])
        if not ok:
            return shape("premise is not an instance of the conclusion body")
        if t is not None:
            try:
                result = substitute(conclusion.body, conclusion.var, t)
            except ClashError:
                return side(f"term {t.name} is not substitutable (clash)")
            if result is not ps[0]:
                return shape("premise is not an instance of the conclusion body")

    return RuleInstance(name, ps, conclusion)


# -------------------------------------------------------------- derivations

@dataclass(frozen=True)
class DerivationNode:
    id: int
    label: Formula
    kind: str  # "hypothesis" | "axiom" | "rule"
    rule: str | None
    parents: tuple[int, ...]


@dataclass(frozen=True)
class Derivation:
    root: int
    nodes: tuple[DerivationNode, ...]


@dataclass
class NodeResult:
    node_id: int
    ok: bool
    reason: str | None


@dataclass
class Report:
    ok: bool
    structural_errors: list[str]
    node_results: list[NodeResult]
    conclusion_ok: bool = True

    def failures(self) -> list[NodeResult]:
        return [r for r in self.node_results if not r.ok]


def _check_node(node, node_map, variant, hypset):
    if node.kind == "hypothesis":
        if node.parents:
            return False, "hypothesis node has parents"
        if node.rule is not None:
            return False, "hypothesis node carries a rule name"
        if node.label not in hypset:
            return False, f"{render(node.label)} is not among the hypotheses"
        return True, None
    if node.kind == "axiom":
        if node.parents:
            return False, "axiom node has parents"
        label = node.label
        if isinstance(label, Top):
            expected = "TopI"
        elif isinstance(label, Imp) and label.l is label.r:
            if variant < CalculusVariant.PFQPL:
                return False, (
                    f"axiom {render(label)} is not part of the "
                    f"{variant.cli_name} calculus"
                )
            expected = "ImpAx"
        else:
            return False, f"{render(label)} is not an axiom"
        if node.rule is not None and node.rule != expected:
            return False, f"axiom node labeled with rule {node.rule!r}"
        return True, None
    if node.kind == "rule":
        if node.rule is None:
            return False, "rule node is missing its rule name"
        prems = tuple(node_map[pid].label for pid in node.parents)
        res = match_rule(variant, node.rule, prems, node.label)
        if isinstance(res, RejectReason):
            return False, f"{res.code}: {res.message}"
        return True, None
    return False, f"unknown node kind {node.kind!r}"


def check_derivation(
    d: Derivation,
    variant: CalculusVariant,
    hyps,
    expected_conclusion: Formula | None = None,
) -> Report:
    structural: list[str] = []
    node_map: dict[int, DerivationNode] = {}
    for n in d.nodes:
        if n.id in node_map:
            structural.append(f"duplicate node id {n.id}")
        else:
            node_map[n.id] = n
    if d.root not in node_map:
        structural.append(f"root {d.root} is not a node")
    for n in d.nodes:
        for pid in n.parents:
            if pid not in node_map:
                structural.append(
                    f"node {n.id} references missing parent {pid}"
                )
    if not structural:
        state: dict[int, int] = {}  # 0 in progress, 1 finished
        for start in node_map:
            if start in state:
                continue
            stack = [(start, iter(node_map[start].parents))]
            state[start] = 0
            while stack:
                nid, it = stack[-1]
                pid = next(it, None)
                if pid is None:
                    state[nid] = 1
                    stack.pop()
                    continue
                seen = state.get(pid)
                if seen == 0:
                    structural.append(f"cycle through node {pid}")
                    stack.clear()
                    break
                if seen is None:
                    state[pid] = 0
                    stack.append((pid, iter(node_map[pid].parents)))
            if structural:
                break
    if structural:
        return Report(False, structural, [])

    hypset = set(hyps)
    results = []
    all_ok = True
    for n in d.nodes:
        ok, reason = _check_node(n, node_map, variant, hypset)
        results.append(NodeResult(n.id, ok, reason))
        all_ok = all_ok and ok
    conclusion_ok = (
        expected_conclusion is None
        or node_map[d.root].label is expected_conclusion
    )
    return Report(all_ok and conclusion_ok, [], results, conclusion_ok)


# ------------------------------------------------------------ serialization

_NODE_KINDS = ("hypothesis", "axiom", "rule")


def derivation_to_json(d: Derivation) -> dict:
    return {
        "root": d.root,
        "nodes": [
            {
                "id": n.id,
                "label": render(n.label),
                "kind": n.kind,
                "rule": n.rule,
                "parents": list(n.parents),
            }
            for n in d.nodes
        ],
    }


def derivation_from_json(
    obj,
    declared_vars=(),
    symbols: SymbolTable | None = None,
) -> Derivation:
    if not isinstance(obj, dict):
        raise ValueError("derivation must be a JSON object")
    if not isinstance(obj.get("root"), int):
        raise ValueError("derivation needs an integer 'root'")
    if not isinstance(obj.get("nodes"), list):
        raise ValueError("derivation needs a 'nodes' array")
    if symbols is None:
        symbols = SymbolTable()
    nodes = []
    for item in obj["nodes"]:
        if not isinstance(item, dict):
            raise ValueError("every node must be a JSON object")
        nid = item.get("id")
        label = item.get("label")
        kind = item.get("kind")
        rule = item.get("rule")
        parents = item.get("parents")
        if not isinstance(nid, int):
            raise ValueError("node id must be an integer")
        if not isinstance(label, str):
            raise ValueError(f"node {nid}: label must be a string")
        if kind not in _NODE_KINDS:
            raise ValueError(f"node {nid}: unknown kind {kind!r}")
        if rule is not None and not isinstance(rule, str):
            raise ValueError(f"node {nid}: rule must be a string or null")
        if not isinstance(parents, list) or not all(
            isinstance(x, int) for x in parents
        ):
            raise ValueError(f"node {nid}: parents must be an integer array")
        formula = parse_formula(
            label, declared_vars, symbols=symbols, allow_reserved=True
        )
        nodes.append(DerivationNode(nid, formula, kind, rule, tuple(parents)))
    return Derivation(root=obj["root"], nodes=tuple(nodes))
