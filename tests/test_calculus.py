"""Rule matching, derivation checking, serialization."""

from __future__ import annotations

import json

import pytest

from qpl import calculus as ca
from qpl.calculus import (
    CalculusVariant as V,
    Derivation,
    DerivationNode,
    RejectReason,
    RuleInstance,
    check_derivation,
    derivation_from_json,
    derivation_to_json,
    match_rule,
)
from qpl.syntax import (
    atom,
    bot,
    conj,
    const,
    disj,
    exists,
    forall,
    imp,
    top,
    var,
)

p, q, r = atom("p"), atom("q"), atom("r")
x, y = var("x"), var("y")
c, d = const("c"), const("d")


def _accepted(result):
    assert isinstance(result, RuleInstance), result
    return result


def _rejected(result, code):
    assert isinstance(result, RejectReason), result
    assert result.code == code, result
    return result


# ----------------------------------------------------------------- variants

def test_variant_names_and_order():
    assert V.from_name("orig") is V.ORIGINAL
    assert V.from_name("QPL") is V.QPL
    assert [v.cli_name for v in V] == ["orig", "l1", "l2", "pfqpl", "qpl"]
    assert V.ORIGINAL < V.L1 < V.L2 < V.PFQPL < V.QPL
    with pytest.raises(ValueError):
        V.from_name("classic")


# --------------------------------------------------------------- match_rule

def test_match_rule_spec_vectors():
    _accepted(match_rule(V.QPL, "ImpE", [p, imp(p, q)], q))
    res = match_rule(V.QPL, "ForallI", [atom("R", x)], forall("x", atom("R", x)))
    _rejected(res, ca.SIDE_CONDITION)
    res = match_rule(V.ORIGINAL, "OrI_L", [p], disj(p, q))
    _rejected(res, ca.UNKNOWN_RULE)


@pytest.mark.parametrize(
    "name,premises,conclusion,minv",
    [
        ("TopI", [], top(), V.ORIGINAL),
        ("AndI", [p, q], conj(p, q), V.ORIGINAL),
        ("AndE_L", [conj(p, q)], p, V.ORIGINAL),
        ("AndE_R", [conj(p, q)], q, V.ORIGINAL),
        ("ImpI", [q], imp(p, q), V.ORIGINAL),
        ("ImpE", [p, imp(p, q)], q, V.ORIGINAL),
        ("OrI_L", [p], disj(p, q), V.L1),
        ("OrI_R", [q], disj(p, q), V.L1),
        ("OrE", [disj(p, p)], p, V.L1),
        ("BotE", [bot()], r, V.L2),
        ("ImpAx", [], imp(p, p), V.PFQPL),
        ("ForallI", [p], forall("x", p), V.QPL),
        ("ForallE", [forall("x", atom("R", x))], atom("R", c), V.QPL),
        ("ExistsI", [atom("R", c)], exists("x", atom("R", x)), V.QPL),
        ("ExistsE", [exists("x", p)], p, V.QPL),
    ],
)
def test_rule_availability_boundary(name, premises, conclusion, minv):
    _accepted(match_rule(minv, name, premises, conclusion))
    _accepted(match_rule(V.QPL, name, premises, conclusion))
    if minv > V.ORIGINAL:
        below = V(minv - 1)
        _rejected(match_rule(below, name, premises, conclusion), ca.UNKNOWN_RULE)


def test_match_rule_unknown_name():
    _rejected(match_rule(V.QPL, "Cut", [p], p), ca.UNKNOWN_RULE)


@pytest.mark.parametrize(
    "name,premises,conclusion",
    [
        ("TopI", [], p),
        ("AndI", [q, p], conj(p, q)),
        ("AndI", [p], conj(p, q)),
        ("AndE_L", [conj(p, q)], q),
        ("AndE_R", [conj(p, q)], p),
        ("AndE_L", [p], p),
        ("OrI_L", [q], disj(p, q)),
        ("OrI_R", [p], disj(p, q)),
        ("OrE", [disj(p, p)], q),
        ("ImpI", [p], imp(p, q)),
        ("ImpE", [imp(p, q), p], q),
        ("ImpE", [p, imp(p, q)], r),
        ("ImpE", [p, q], q),
        ("ImpAx", [], imp(p, q)),
        ("BotE", [p], q),
        ("ForallI", [p], exists("x", p)),
        ("ForallE", [forall("x", atom("S", x, c))], atom("S", c, d)),
        ("ForallE", [atom("R", c)], atom("R", c)),
        ("ExistsI", [atom("S", c, d)], exists("x", atom("S", x, x))),
        ("ExistsE", [forall("x", p)], p),
    ],
)
def test_match_rule_shape_rejections(name, premises, conclusion):
    _rejected(match_rule(V.QPL, name, premises, conclusion), ca.SHAPE)


def test_match_rule_side_conditions():
    # vacuity violations
    _rejected(
        match_rule(V.QPL, "ExistsE", [exists("x", atom("R", x))], atom("R", x)),
        ca.SIDE_CONDITION,
    )
    # OrE needs equal disjuncts
    _rejected(match_rule(V.QPL, "OrE", [disj(p, q)], p), ca.SIDE_CONDITION)
    # substitution would capture: forall x. exists y. R(x,y) at t=y
    prem = forall("x", exists("y", atom("R", x, y)))
    _rejected(
        match_rule(V.QPL, "ForallE", [prem], exists("y", atom("R", y, y))),
        ca.SIDE_CONDITION,
    )
    # same for ExistsI read backwards
    concl = exists("x", exists("y", atom("R", x, y)))
    _rejected(
        match_rule(V.QPL, "ExistsI", [exists("y", atom("R", y, y))], concl),
        ca.SIDE_CONDITION,
    )


def test_match_forall_elim_witnesses():
    # one witness used in several positions
    f = forall("x", atom("S", x, x))
    _accepted(match_rule(V.QPL, "ForallE", [f], atom("S", d, d)))
    _rejected(match_rule(V.QPL, "ForallE", [f], atom("S", c, d)), ca.SHAPE)
    # identity instance: conclusion keeps the bound variable free
    g = forall("x", atom("R", x))
    _accepted(match_rule(V.QPL, "ForallE", [g], atom("R", x)))
    # vacuous elimination
    h = forall("x", imp(p, q))
    _accepted(match_rule(V.QPL, "ForallE", [h], imp(p, q)))
    # witness must not leak across an inner binder for the same name
    k = forall("x", conj(atom("R", x), exists("x", atom("R", x))))
    _accepted(
        match_rule(
            V.QPL, "ForallE", [k],
            conj(atom("R", c), exists("x", atom("R", x))),
        )
    )
    _rejected(
        match_rule(
            V.QPL, "ForallE", [k],
            conj(atom("R", c), exists("x", atom("R", c))),
        ),
        ca.SHAPE,
    )


def test_match_exists_intro_witnesses():
    concl = exists("x", atom("S", x, c))
    _accepted(match_rule(V.QPL, "ExistsI", [atom("S", d, c)], concl))
    _accepted(match_rule(V.QPL, "ExistsI", [atom("S", c, c)], concl))
    _rejected(match_rule(V.QPL, "ExistsI", [atom("S", c, d)], concl), ca.SHAPE)
    # vacuous introduction
    _accepted(match_rule(V.QPL, "ExistsI", [p], exists("x", p)))


def test_rule_instance_payload():
    inst = _accepted(match_rule(V.QPL, "AndI", [p, q], conj(p, q)))
    assert inst.name == "AndI"
    assert inst.premises == (p, q)
    assert inst.conclusion is conj(p, q)


# --------------------------------------------------------- check_derivation

def _node(nid, label, kind, rule=None, parents=()):
    return DerivationNode(nid, label, kind, rule, tuple(parents))


def test_check_single_axiom():
    d = Derivation(root=0, nodes=(_node(0, top(), "axiom", "TopI"),))
    rep = check_derivation(d, V.ORIGINAL, set())
    assert rep.ok and not rep.structural_errors


def test_check_three_node_imp_e():
    d = Derivation(
        root=2,
        nodes=(
            _node(0, p, "hypothesis"),
            _node(1, imp(p, q), "hypothesis"),
            _node(2, q, "rule", "ImpE", (0, 1)),
        ),
    )
    rep = check_derivation(d, V.ORIGINAL, {p, imp(p, q)}, expected_conclusion=q)
    assert rep.ok

    swapped = Derivation(
        root=2,
        nodes=(
            _node(0, p, "hypothesis"),
            _node(1, imp(p, q), "hypothesis"),
            _node(2, q, "rule", "ImpE", (1, 0)),
        ),
    )
    rep = check_derivation(swapped, V.ORIGINAL, {p, imp(p, q)})
    assert not rep.ok
    assert [f.node_id for f in rep.failures()] == [2]


def test_check_hypothesis_membership():
    d = Derivation(root=0, nodes=(_node(0, p, "hypothesis"),))
    assert check_derivation(d, V.QPL, {p}).ok
    rep = check_derivation(d, V.QPL, {q})
    assert not rep.ok and "hypothes" in rep.failures()[0].reason


def test_check_axiom_shapes_and_variants():
    ax = Derivation(root=0, nodes=(_node(0, imp(p, p), "axiom"),))
    assert check_derivation(ax, V.PFQPL, set()).ok
    assert check_derivation(ax, V.QPL, set()).ok
    assert not check_derivation(ax, V.L2, set()).ok
    bad = Derivation(root=0, nodes=(_node(0, imp(p, q), "axiom"),))
    assert not check_derivation(bad, V.QPL, set()).ok


def test_check_axiom_rule_name_consistency():
    d = Derivation(root=0, nodes=(_node(0, top(), "axiom", "ImpAx"),))
    assert not check_derivation(d, V.QPL, set()).ok


def test_check_unknown_kind():
    d = Derivation(root=0, nodes=(_node(0, p, "assumption"),))
    rep = check_derivation(d, V.QPL, {p})
    assert not rep.ok and "kind" in rep.failures()[0].reason


def test_check_expected_conclusion():
    d = Derivation(root=0, nodes=(_node(0, p, "hypothesis"),))
    rep = check_derivation(d, V.QPL, {p}, expected_conclusion=q)
    assert not rep.ok and not rep.conclusion_ok
    assert not rep.failures()  # every node fine, only the root is wrong


def test_check_structural_errors():
    dup = Derivation(
        root=0, nodes=(_node(0, p, "hypothesis"), _node(0, q, "hypothesis"))
    )
    rep = check_derivation(dup, V.QPL, {p, q})
    assert not rep.ok and any("duplicate" in s for s in rep.structural_errors)

    dangling = Derivation(root=0, nodes=(_node(0, p, "rule", "AndE_L", (7,)),))
    rep = check_derivation(dangling, V.QPL, set())
    assert not rep.ok and any("missing" in s for s in rep.structural_errors)

    missing_root = Derivation(root=3, nodes=(_node(0, p, "hypothesis"),))
    rep = check_derivation(missing_root, V.QPL, {p})
    assert not rep.ok and any("root" in s for s in rep.structural_errors)

    cyc = Derivation(
        root=0,
        nodes=(
            _node(0, p, "rule", "AndE_L", (1,)),
            _node(1, conj(p, q), "rule", "AndE_L", (0,)),
        ),
    )
    rep = check_derivation(cyc, V.QPL, set())
    assert not rep.ok and any("cycle" in s for s in rep.structural_errors)


def test_check_rule_node_without_name():
    d = Derivation(root=0, nodes=(_node(0, p, "rule", None, ()),))
    assert not check_derivation(d, V.QPL, set()).ok


# ------------------------------------------------------------ serialization

def _sample_derivation():
    pq = conj(p, q)
    return Derivation(
        root=3,
        nodes=(
            _node(0, pq, "hypothesis"),
            _node(1, q, "rule", "AndE_R", (0,)),
            _node(2, p, "rule", "AndE_L", (0,)),
            _node(3, conj(q, p), "rule", "AndI", (1, 2)),
        ),
    )


def test_json_round_trip():
    d = _sample_derivation()
    blob = derivation_to_json(d)
    assert blob["root"] == 3
    assert blob["nodes"][0] == {
        "id": 0,
        "label": "p & q",
        "kind": "hypothesis",
        "rule": None,
        "parents": [],
    }
    back = derivation_from_json(json.loads(json.dumps(blob)))
    assert back == d
    assert check_derivation(back, V.ORIGINAL, {conj(p, q)}).ok
    # byte determinism
    assert json.dumps(blob) == json.dumps(derivation_to_json(_sample_derivation()))


def test_json_labels_with_declared_vars():
    d = Derivation(root=0, nodes=(_node(0, atom("R", y), "hypothesis"),))
    blob = derivation_to_json(d)
    back = derivation_from_json(blob, declared_vars=("y",))
    assert back.nodes[0].label is atom("R", y)
    other = derivation_from_json(blob)
    assert other.nodes[0].label is atom("R", const("y"))


def test_json_reserved_labels_accepted():
    z = const("_0")
    d = Derivation(root=0, nodes=(_node(0, atom("R", z), "hypothesis"),))
    back = derivation_from_json(derivation_to_json(d))
    assert back.nodes[0].label is atom("R", z)


@pytest.mark.parametrize(
    "blob",
    [
        {},
        {"root": 0},
        {"root": "a", "nodes": []},
        {"root": 0, "nodes": [{"id": 0, "kind": "axiom"}]},
        {"root": 0, "nodes": [{"id": 0, "label": "p", "kind": "guess",
                               "rule": None, "parents": []}]},
        {"root": 0, "nodes": [{"id": 0, "label": "p", "kind": "rule",
                               "rule": "AndI", "parents": "no"}]},
        {"root": 0, "nodes": [{"id": 0, "label": "p &", "kind": "hypothesis",
                               "rule": None, "parents": []}]},
    ],
)
def test_json_malformed(blob):
    with pytest.raises(ValueError):
        derivation_from_json(blob)
