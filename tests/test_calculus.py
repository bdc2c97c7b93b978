"""Rule matching, derivation checking, serialization."""

from __future__ import annotations

import ast
import json
import pathlib
import random

import pytest
from test_golden import _document as golden_document
from test_golden import _sessions as golden_sessions

from qpl import calculus as ca
from qpl import cli
from qpl.calculus import (
    CalculusVariant as V,
    Derivation,
    DerivationNode,
    NodeResult,
    check_derivation,
    derivation_from_json,
    derivation_to_json,
    match_rule,
)
from qpl.engine import Session, entails
from qpl.generators import (
    bounded_halting_instance,
    chain_family,
    parse_machine,
    random_instance,
)
from qpl.syntax import (
    VAR,
    Atom,
    atom,
    bot,
    conj,
    const,
    disj,
    exists,
    forall,
    imp,
    parse_formula,
    parse_problem,
    render,
    top,
    var,
)

p, q, r = atom("p"), atom("q"), atom("r")
x, y = var("x"), var("y")
c, d = const("c"), const("d")


def _accepted(result):
    assert result is None, result


def _rejected(result, code):
    assert result is not None and result[0] == code, result


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


# Relation, arity and binder name are each compared on their own: without
# any one of those comparisons, the instance below would be accepted.
@pytest.mark.parametrize(
    "name,premise,conclusion",
    [
        ("ForallE", forall("x", atom("R", x)), atom("S", c)),
        ("ForallE", forall("x", atom("R", x)), atom("R", c, d)),
        (
            "ForallE",
            forall("x", forall("y", atom("R", x, y))),
            forall("z", atom("R", c, y)),
        ),
        ("ExistsI", atom("S", c), exists("x", atom("R", x))),
        ("ExistsI", atom("R", c, d), exists("x", atom("R", x))),
        (
            "ExistsI",
            forall("z", atom("R", c, y)),
            exists("x", forall("y", atom("R", x, y))),
        ),
    ],
    ids=[
        "forall-relation", "forall-arity", "forall-binder",
        "exists-relation", "exists-arity", "exists-binder",
    ],
)
def test_match_instance_compares_relation_arity_and_binder(
    name, premise, conclusion
):
    _rejected(match_rule(V.QPL, name, [premise], conclusion), ca.SHAPE)


# --------------------------------------------------------- check_derivation

def _node(nid, label, kind, rule=None, parents=()):
    return DerivationNode(nid, label, kind, rule, tuple(parents))


def test_check_single_axiom():
    d = Derivation.of_nodes(root=0, nodes=(_node(0, top(), "axiom", "TopI"),))
    rep = check_derivation(d, V.ORIGINAL, set())
    assert rep.ok and not rep.structural_errors


def test_check_three_node_imp_e():
    d = Derivation.of_nodes(
        root=2,
        nodes=(
            _node(0, p, "hypothesis"),
            _node(1, imp(p, q), "hypothesis"),
            _node(2, q, "rule", "ImpE", (0, 1)),
        ),
    )
    rep = check_derivation(d, V.ORIGINAL, {p, imp(p, q)}, expected_conclusion=q)
    assert rep.ok

    swapped = Derivation.of_nodes(
        root=2,
        nodes=(
            _node(0, p, "hypothesis"),
            _node(1, imp(p, q), "hypothesis"),
            _node(2, q, "rule", "ImpE", (1, 0)),
        ),
    )
    rep = check_derivation(swapped, V.ORIGINAL, {p, imp(p, q)})
    assert not rep.ok
    assert [f.node_id for f in rep.failures] == [2]


def test_check_hypothesis_membership():
    d = Derivation.of_nodes(root=0, nodes=(_node(0, p, "hypothesis"),))
    assert check_derivation(d, V.QPL, {p}).ok
    rep = check_derivation(d, V.QPL, {q})
    assert not rep.ok and "hypothes" in rep.failures[0].reason


def test_check_axiom_shapes_and_variants():
    ax = Derivation.of_nodes(root=0, nodes=(_node(0, imp(p, p), "axiom"),))
    assert check_derivation(ax, V.PFQPL, set()).ok
    assert check_derivation(ax, V.QPL, set()).ok
    assert not check_derivation(ax, V.L2, set()).ok
    bad = Derivation.of_nodes(root=0, nodes=(_node(0, imp(p, q), "axiom"),))
    assert not check_derivation(bad, V.QPL, set()).ok


def test_check_axiom_rule_name_consistency():
    d = Derivation.of_nodes(root=0, nodes=(_node(0, top(), "axiom", "ImpAx"),))
    assert not check_derivation(d, V.QPL, set()).ok


def test_check_unknown_kind():
    d = Derivation.of_nodes(root=0, nodes=(_node(0, p, "assumption"),))
    rep = check_derivation(d, V.QPL, {p})
    assert not rep.ok and "kind" in rep.failures[0].reason


def test_check_expected_conclusion():
    d = Derivation.of_nodes(root=0, nodes=(_node(0, p, "hypothesis"),))
    rep = check_derivation(d, V.QPL, {p}, expected_conclusion=q)
    assert not rep.ok and not rep.conclusion_ok
    assert not rep.failures  # every node fine, only the root is wrong


def test_check_structural_errors():
    dup = Derivation.of_nodes(
        root=0, nodes=(_node(0, p, "hypothesis"), _node(0, q, "hypothesis"))
    )
    rep = check_derivation(dup, V.QPL, {p, q})
    assert not rep.ok and any("duplicate" in s for s in rep.structural_errors)

    dangling = Derivation.of_nodes(root=0, nodes=(_node(0, p, "rule", "AndE_L", (7,)),))
    rep = check_derivation(dangling, V.QPL, set())
    assert not rep.ok and any("missing" in s for s in rep.structural_errors)

    missing_root = Derivation.of_nodes(root=3, nodes=(_node(0, p, "hypothesis"),))
    rep = check_derivation(missing_root, V.QPL, {p})
    assert not rep.ok and any("root" in s for s in rep.structural_errors)

    cyc = Derivation.of_nodes(
        root=0,
        nodes=(
            _node(0, p, "rule", "AndE_L", (1,)),
            _node(1, conj(p, q), "rule", "AndE_L", (0,)),
        ),
    )
    rep = check_derivation(cyc, V.QPL, set())
    assert rep == ca.Report(
        False, ["node 0 references parent 1, which is not listed before it"], []
    )


def test_check_rule_node_without_name():
    d = Derivation.of_nodes(root=0, nodes=(_node(0, p, "rule", None, ()),))
    assert not check_derivation(d, V.QPL, set()).ok


def test_node_types_are_named_tuples():
    assert DerivationNode._fields == ("id", "label", "kind", "rule", "parents")
    assert NodeResult._fields == ("node_id", "ok", "reason")
    n = DerivationNode(0, atom("p0"), "hypothesis", None, ())
    assert repr(n) == (
        "DerivationNode(id=0, label=Formula('p0'), kind='hypothesis', "
        "rule=None, parents=())"
    )
    same = DerivationNode(
        id=0, label=atom("p0"), kind="hypothesis", rule=None, parents=()
    )
    assert same == n and hash(same) == hash(n)
    assert n._replace(kind="axiom") == (0, atom("p0"), "axiom", None, ())
    with pytest.raises(AttributeError):
        n.label = atom("q0")
    res = NodeResult(3, False, "why")
    assert repr(res) == "NodeResult(node_id=3, ok=False, reason='why')"
    assert NodeResult(node_id=3, ok=False, reason="why") == res
    assert hash(NodeResult(3, False, "why")) == hash(res)
    with pytest.raises(AttributeError):
        res.ok = True
    # a derivation is its node columns; nodes is a view built from them
    assert Derivation._fields == (
        "root", "ids", "labels", "kinds", "rules", "premises", "parents"
    )
    d = Derivation.of_nodes(root=0, nodes=(n,))
    assert d == (0, (0,), (atom("p0"),), ("hypothesis",), (None,), (0,), ())
    assert d.nodes == (n,)
    with pytest.raises(AttributeError):
        d.root = 1


def _extracted_proofs():
    """Proofs as the engine extracts them: every parent before its child."""
    hyps, goal = chain_family(200)
    out = [(entails(hyps, goal, V.PFQPL).proof, V.PFQPL, hyps)]
    rng = random.Random(17)
    while len(out) < 25:
        variant = V(rng.randrange(5))
        hs, queries = random_instance(rng, variant=variant)
        v = entails(hs, queries[0], variant)
        if v.entailed and len(v.proof.nodes) > 2:
            out.append((v.proof, variant, hs))
    return out


def _relisted(d, nodes):
    return Derivation.of_nodes(root=d.root, nodes=tuple(nodes))


def _late_references(nodes):
    """The structural errors of a listing whose parents are all nodes."""
    seen = set()
    out = []
    for n in nodes:
        out += [
            f"node {n.id} references parent {pid}, which is not listed before it"
            for pid in n.parents
            if pid not in seen
        ]
        seen.add(n.id)
    return out


def test_check_rejects_valid_proofs_not_listed_parent_first():
    rng = random.Random(23)
    for d, variant, hyps in _extracted_proofs():
        assert check_derivation(d, variant, hyps).ok
        assert _late_references(d.nodes[::-1])  # the root comes first
        for nodes in (d.nodes[::-1], rng.sample(d.nodes, len(d.nodes))):
            want = _late_references(nodes)
            rep = check_derivation(_relisted(d, nodes), variant, hyps)
            if want:
                assert rep == ca.Report(False, want, [])
            else:  # a draw that happens to list every parent first
                assert rep.ok


def test_check_lists_failures_in_document_order():
    for d, variant, hyps in _extracted_proofs()[:8]:
        rep = check_derivation(d, variant, set())
        leaves = [n.id for n in d.nodes if n.kind == "hypothesis"]
        assert rep.ok == (not leaves)
        assert [r.node_id for r in rep.failures] == leaves
        for r in rep.failures:
            assert not r.ok and r.reason.endswith("among the hypotheses")


def test_check_reports_a_back_edge_in_parent_first_order():
    # one back edge, 1 -> 3, in an otherwise parent-first listing
    pq = conj(p, q)
    d = Derivation.of_nodes(
        root=3,
        nodes=(
            _node(0, pq, "hypothesis"),
            _node(1, p, "rule", "AndE_L", (0, 3)),
            _node(2, q, "rule", "AndE_R", (0,)),
            _node(3, pq, "rule", "AndI", (1, 2)),
        ),
    )
    rep = check_derivation(d, V.ORIGINAL, {pq})
    assert rep == ca.Report(
        False, ["node 1 references parent 3, which is not listed before it"], []
    )
    # a self-loop is the shortest back edge
    loop = Derivation.of_nodes(root=0, nodes=(_node(0, p, "rule", "OrE", (0,)),))
    assert check_derivation(loop, V.QPL, set()) == ca.Report(
        False, ["node 0 references parent 0, which is not listed before it"], []
    )
    # the same in extracted proofs: node 0, a leaf, now cites the root
    for d, variant, hyps in _extracted_proofs()[:5]:
        first = d.nodes[0]
        back = _relisted(
            d, (first._replace(parents=(d.root,)), *d.nodes[1:])
        )
        rep = check_derivation(back, variant, hyps)
        assert rep.structural_errors == [
            f"node {first.id} references parent {d.root}, which is not "
            "listed before it"
        ]
        assert not rep.ok and not rep.failures


def test_check_reports_missing_parents_of_a_duplicate_node():
    # parent-first apart from the duplicate, whose parent is missing
    d = Derivation.of_nodes(
        root=1,
        nodes=(
            _node(0, p, "hypothesis"),
            _node(1, p, "rule", "OrE", (0,)),
            _node(0, q, "rule", "AndE_L", (5,)),
        ),
    )
    rep = check_derivation(d, V.QPL, {p})
    assert rep.structural_errors == [
        "duplicate node id 0",
        "node 0 references missing parent 5",
    ]


def _read_back(d):
    return derivation_from_json(json.loads(json.dumps(derivation_to_json(d))))


def test_check_takes_node_ids_as_given():
    # ids 7, 3 and 11 are no positions: the checker keys labels by id, and
    # a copy read back from JSON gets the same report
    pq = conj(p, q)
    hyp_p, hyp_q = _node(7, p, "hypothesis"), _node(3, q, "hypothesis")
    both = _node(11, pq, "rule", "AndI", (7, 3))
    cases = [
        ((hyp_p, hyp_q, both), ca.Report(True, [], [])),
        ((hyp_p, hyp_q, _node(3, p, "hypothesis"), both),
         ca.Report(False, ["duplicate node id 3"], [])),
        ((hyp_p, both, hyp_q), ca.Report(
            False,
            ["node 11 references parent 3, which is not listed before it"],
            [],
        )),
        ((hyp_p, _node(3, p, "hypothesis"), both, hyp_q), ca.Report(
            False, ["duplicate node id 3"], []
        )),
        ((both, hyp_q, hyp_q), ca.Report(False, [
            "duplicate node id 3",
            "node 11 references missing parent 7",
            "node 11 references parent 3, which is not listed before it",
        ], [])),
    ]
    for nodes, want in cases:
        d = Derivation.of_nodes(11, nodes)
        assert d.ids == tuple(n.id for n in nodes)
        for copy in (d, _read_back(d)):
            assert copy == d
            assert check_derivation(copy, V.ORIGINAL, {p, q}, pq) == want
    d = Derivation.of_nodes(11, (hyp_p, hyp_q, both))
    assert check_derivation(d, V.ORIGINAL, {p}, pq) == ca.Report(
        False, [], [NodeResult(3, False, "q is not among the hypotheses")]
    )


def test_check_judges_the_nodes_the_view_shows():
    # columns of unequal lengths, and premise counts that do not match the
    # parents column, are judged as Derivation.nodes shows them
    ok = Derivation.of_nodes(1, (_node(0, p, "hypothesis"),
                                 _node(1, disj(p, q), "rule", "OrI_L", (0,))))
    assert check_derivation(ok, V.QPL, {p}).ok
    changed = [
        ok._replace(ids=(0,)),
        ok._replace(labels=(p, p, p)),
        ok._replace(kinds=("hypothesis",)),
        ok._replace(rules=()),
        ok._replace(premises=(0, 2)),
        ok._replace(premises=(1, 0)),
        ok._replace(premises=(2, -1), parents=(0,)),
        ok._replace(parents=(0, 0)),
    ]
    for d in changed:
        shown = Derivation.of_nodes(d.root, d.nodes)
        assert check_derivation(d, V.QPL, {p}) == check_derivation(
            shown, V.QPL, {p}
        )
        assert _read_back(shown) == shown


def _proofs_in_every_variant(per_variant=40):
    """(proof, variant, hyps) of random_instance draws in all five
    variants."""
    out = []
    for variant in V:
        rng = random.Random(2900 + int(variant))
        found = 0
        while found < per_variant:
            hyps, queries = random_instance(rng, variant=variant)
            for v in Session(hyps, queries, variant).verdicts():
                if v.entailed:
                    out.append((v.proof, variant, hyps))
                    found += 1
    return out


def test_columns_round_trip_and_view_on_random_proofs():
    for d, variant, hyps in _proofs_in_every_variant():
        declared = frozenset().union(*(f.free for f in d.labels))
        back = derivation_from_json(derivation_to_json(d), declared)
        assert back == d
        assert Derivation.of_nodes(d.root, d.nodes) == d
        assert [n.id for n in d.nodes] == list(d.ids)
        for hypset in (hyps, ()):
            assert check_derivation(back, variant, hypset) == check_derivation(
                d, variant, hypset
            )


# ---------------------------------------- one judgment per repeated inference

def _counter_document(t=12):
    """The proof document of the counter machine state 0: inc 1 -> 0 at
    bound t, with one query per configuration its run visits, K0(n0, n0)
    .. K0(nt, n0): each proof repeats every inference of the one before."""
    hyps, _ = bounded_halting_instance(parse_machine("state 0: inc 1 -> 0"), t)
    queries = [atom("K0", const(f"n{k}"), const("n0")) for k in range(t + 1)]
    return golden_document(Session(hyps, queries, V.QPL))[0]


def _shared_documents():
    """(name, proof document) of every golden session with two or more
    entailed queries, and of the counter machine."""
    for name, hyps, queries, variant in golden_sessions():
        doc = golden_document(Session(hyps, queries, variant))[0]
        if len(doc["proofs"]) >= 2:
            yield name, doc
    yield "counter/t12", _counter_document()


def _reports(doc, judged):
    variant, hyps, proofs = ca.proof_document_from_json(doc)
    return [check_derivation(d, variant, hyps, q, judged=judged)
            for q, d in proofs]


def _rule_nodes(doc) -> dict:
    """(rule, label row, parent label rows) -> the (proof index, node
    index) of every rule node of doc with that inference, in document
    order."""
    held = {}
    for i, entry in enumerate(doc["proofs"]):
        blob = entry["derivation"]
        label_of = dict(zip(blob["id"], blob["label"]))
        j = 0
        for at, (kind, rule, k) in enumerate(
            zip(blob["kind"], blob["rule"], blob["premises"])
        ):
            parents = blob["parents"][j:j + k]
            j += k
            if kind == "rule":
                key = (rule, blob["label"][at], *map(label_of.get, parents))
                held.setdefault(key, []).append((i, at))
    return held


def _mutants(doc):
    """(what, copy of doc, holders): one inference that several proofs
    hold, changed so that the node fails, first in every node that holds
    it and then in the last holder only, where the clean copies in earlier
    proofs are judged first; a rule name replaced, an ImpE's two parents
    swapped, the label pointed at another row, the last parent dropped."""
    held = _rule_nodes(doc)
    # the inferences several proofs hold, those held most often first
    shared = sorted((key for key in held if len(held[key]) > 1),
                    key=lambda key: -len(held[key]))
    if not shared:
        return
    rows = ca._table_rows(doc)
    variant = V.from_name(doc["variant"])
    label_rows = sorted({r for e in doc["proofs"] for r in e["derivation"]["label"]})

    def faults(rule, label, parents):
        return match_rule(variant, rule, [rows[r] for r in parents],
                          rows[label]) is not None

    def changed(what, key, change):
        for holders in (held[key], held[key][-1:]):
            copy = json.loads(json.dumps(doc))
            for i, at in holders:
                blob = copy["proofs"][i]["derivation"]
                j = sum(blob["premises"][:at])
                change(blob, at, j)
            yield what, copy, holders

    rule, label, *parents = key = shared[0]
    name = next(
        n for n in sorted(ca.RULES, key=lambda n: ca.RULES[n][1] != len(parents))
        if n != rule and faults(n, label, parents)
    )
    other = next(r for r in label_rows if r != label and faults(rule, r, parents))

    def rename(blob, at, j):
        blob["rule"][at] = name

    def relabel(blob, at, j):
        blob["label"][at] = other

    yield from changed("rule name", key, rename)
    yield from changed("label", key, relabel)
    dropped = next((k for k in shared if len(k) > 2), None)
    if dropped is not None:
        def drop(blob, at, j):
            blob["premises"][at] -= 1
            del blob["parents"][j + blob["premises"][at]]

        yield from changed("dropped parent", dropped, drop)
    imp_e = next((k for k in shared if k[0] == "ImpE"), None)
    if imp_e is not None:
        def swap(blob, at, j):
            ps = blob["parents"]
            ps[j], ps[j + 1] = ps[j + 1], ps[j]

        yield from changed("swapped parents", imp_e, swap)


def test_shared_judgments_give_the_reports_of_separate_ones():
    # one judged dict for a whole document gives every proof the report it
    # gets alone, on clean documents and on mutants of an inference that
    # several proofs hold: each holder reports it, under its own node id
    kinds = set()
    for name, doc in _shared_documents():
        clean = _reports(doc, None)
        assert all(rep.ok for rep in clean), name
        assert _reports(doc, {}) == clean, name
        for what, mutant, holders in _mutants(doc):
            kinds.add(what)
            alone = _reports(mutant, None)
            assert _reports(mutant, {}) == alone, (name, what)
            reasons = set()
            for i, at in holders:
                nid = mutant["proofs"][i]["derivation"]["id"][at]
                failed = {f.node_id: f.reason for f in alone[i].failures}
                assert nid in failed, (name, what, i)
                reasons.add(failed[nid])
            assert len(reasons) == 1, (name, what)
    assert kinds == {"rule name", "label", "dropped parent", "swapped parents"}


def test_judged_outcomes_stay_within_their_variant():
    # a ForallE judged under qpl is not carried into pfqpl, which lacks it
    hyps, query = [forall("x", atom("P", x))], atom("P", c)
    proof = entails(hyps, query, V.QPL).proof
    judged = {}
    assert check_derivation(proof, V.QPL, hyps, query, judged=judged).ok
    alone = check_derivation(proof, V.PFQPL, hyps, query)
    assert [f.reason for f in alone.failures] == [
        "unknown_rule: rule ForallE is not part of the pfqpl calculus"
    ]
    assert check_derivation(proof, V.PFQPL, hyps, query, judged=judged) == alone


def test_verify_proof_matches_each_distinct_inference_once(
    tmp_path, monkeypatch, capsys
):
    # the document of the queries benchmark: the 4-state machine at t=6,
    # whose 10 proofs hold 280 nodes but far fewer distinct inferences
    doc = next(
        golden_document(Session(hyps, queries, variant))[0]
        for name, hyps, queries, variant in golden_sessions()
        if name == "machine/t6"
    )
    held = _rule_nodes(doc)
    assert sum(len(e["derivation"]["id"]) for e in doc["proofs"]) == 280
    assert sum(map(len, held.values())) > 5 * len(held)
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(doc))
    calls = []

    def counted(variant, rule, ps, conclusion):
        calls.append((rule, conclusion, *ps))
        return match_rule(variant, rule, ps, conclusion)

    monkeypatch.setattr(ca, "match_rule", counted)
    assert cli.main(["verify-proof", str(path)]) == 0
    assert capsys.readouterr().out == "ok: 10 proof(s) verified\n"
    assert len(calls) == len(set(calls)) == len(held)


def test_verify_proof_shares_a_memo_only_across_proofs(tmp_path, monkeypatch):
    # a document of two or more proofs gets one judged dict for all of
    # them; a single proof repeats no inference and is judged without one
    memos = []

    def recorded(*args, judged):
        memos.append(judged)
        return check_derivation(*args, judged=judged)

    monkeypatch.setattr(cli, "check_derivation", recorded)
    path = tmp_path / "proof.json"
    single = Session([conj(p, q)], [conj(q, p)], V.ORIGINAL)
    for doc, proofs in ((_counter_document(), 13),
                        (golden_document(single)[0], 1)):
        memos.clear()
        path.write_text(json.dumps(doc))
        assert cli.main(["verify-proof", str(path)]) == 0
        assert len(memos) == proofs
        if proofs == 1:
            assert memos == [None]
        else:
            assert isinstance(memos[0], dict) and memos[0]
            assert all(m is memos[0] for m in memos)


# ------------------------------------------------------------ serialization

def _sample_derivation():
    pq = conj(p, q)
    return Derivation.of_nodes(
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
    assert blob == {
        "root": 3,
        # rows: p, q, p & q, q & p
        "names": ["p", "q"],
        "formulas": [ca.ATOM, 0, 0, ca.ATOM, 1, 0, ca.AND, 0, 1, ca.AND, 1, 0],
        "id": [0, 1, 2, 3],
        "label": [2, 1, 0, 3],
        "kind": ["hypothesis", "rule", "rule", "rule"],
        "rule": [None, "AndE_R", "AndE_L", "AndI"],
        "premises": [0, 1, 1, 2],
        "parents": [0, 0, 1, 2],
    }
    back = derivation_from_json(json.loads(json.dumps(blob)))
    assert back == d
    assert check_derivation(back, V.ORIGINAL, {conj(p, q)}).ok
    # byte determinism
    assert json.dumps(blob) == json.dumps(derivation_to_json(_sample_derivation()))


def test_json_rows_carry_term_kinds():
    # a constant named like a variable, and a constant under a binder of
    # its own name, read back as written: no name is read by context
    cx = const("x")
    labels = [
        atom("R", const("y"), y),
        forall("x", atom("R", cx, x)),
        exists("x", forall("y", disj(atom("R", x, y), imp(top(), bot())))),
    ]
    d = Derivation.of_nodes(root=0, nodes=tuple(
        _node(i, f, "hypothesis") for i, f in enumerate(labels)
    ))
    blob = json.loads(json.dumps(derivation_to_json(d)))
    assert blob["names"] == ["R", "y", "x"]
    back = derivation_from_json(blob, declared_vars=("y",))
    assert [n.label for n in back.nodes] == labels
    assert all(a is b for a, b in zip((n.label for n in back.nodes), labels))


def test_json_refuses_derivations_written_before_formula_tables():
    # those hold a 'nodes' array of rendered labels, one object or
    # five-element array per node
    d = _sample_derivation()
    keys = ("id", "label", "kind", "rule", "parents")
    arrays = [[n.id, render(n.label), n.kind, n.rule, list(n.parents)]
              for n in d.nodes]
    objects = [dict(zip(keys, n)) for n in arrays]
    for blob in ({"root": 0, "nodes": []}, {"root": 3, "nodes": arrays},
                 {"root": 3, "nodes": objects}):
        with pytest.raises(ValueError) as info:
            derivation_from_json(blob)
        assert str(info.value) == ca.WRITTEN_BEFORE_TABLES


def test_json_labels_with_declared_vars():
    # a variable free in a label must be declared; rows carry term kinds,
    # so declaring y does not turn the constant y into it
    d = Derivation.of_nodes(root=0, nodes=(
        _node(0, atom("R", y), "hypothesis"),
        _node(1, atom("R", const("y")), "hypothesis"),
    ))
    blob = json.loads(json.dumps(derivation_to_json(d)))
    back = derivation_from_json(blob, declared_vars=("y",))
    assert [n.label for n in back.nodes] == [atom("R", y), atom("R", const("y"))]
    with pytest.raises(ValueError, match="nor declared in 'vars'"):
        derivation_from_json(blob)


def test_json_reserved_labels_accepted():
    z = const("_0")
    d = Derivation.of_nodes(root=0, nodes=(_node(0, atom("R", z), "hypothesis"),))
    back = derivation_from_json(derivation_to_json(d))
    assert back.nodes[0].label is atom("R", z)


# p & q from the hyps p and q, with its own formula table: rows p, q, p & q
TABLE_PROOF = {
    "root": 2,
    "names": ["p", "q"],
    "formulas": [ca.ATOM, 0, 0, ca.ATOM, 1, 0, ca.AND, 0, 1],
    "id": [0, 1, 2],
    "label": [0, 1, 2],
    "kind": ["hypothesis", "hypothesis", "rule"],
    "rule": [None, None, "AndI"],
    "premises": [0, 0, 2],
    "parents": [0, 1],
}

# (id, changed fields of TABLE_PROOF); each must be refused as malformed
TABLE_MUTANTS = [
    ("forward-row", {"formulas": [ca.ATOM, 0, 0, ca.AND, 0, 2, ca.ATOM, 1, 0]}),
    ("operand-past-end", {"formulas": [ca.ATOM, 0, 0, ca.ATOM, 1, 0, ca.AND, 0]}),
    ("unknown-opcode", {"formulas": [ca.ATOM, 0, 0, ca.ATOM, 1, 0, 9, 0, 1]}),
    # row 3 is the atom p(q), after row 0 gave p no argument
    ("arity-clash",
     {"formulas": [ca.ATOM, 0, 0, ca.ATOM, 1, 0, ca.AND, 0, 1,
                   ca.ATOM, 0, 1, 1]}),
    # row 3 is R(<variable x>), and the first node's label; x is not in vars
    ("free-variable",
     {"names": ["p", "q", "R", "x"],
      "formulas": [ca.ATOM, 0, 0, ca.ATOM, 1, 0, ca.AND, 0, 1,
                   ca.ATOM, 2, 1, -4],
      "label": [3, 1, 2]}),
    ("label-out-of-range", {"label": [0, 1, 3]}),
    ("formulas-not-integer",
     {"formulas": [ca.ATOM, 0, 0, ca.ATOM, 1, 0, ca.AND, 0, 1.0]}),
    ("parents-not-integer", {"parents": [0, True]}),
    ("premises-sum", {"premises": [0, 0, 1]}),
]


def test_json_table_proof_reads_and_checks():
    d = derivation_from_json(TABLE_PROOF)
    assert [n.label for n in d.nodes] == [p, q, conj(p, q)]
    assert d.nodes[2].parents == (0, 1)
    assert check_derivation(d, V.ORIGINAL, {p, q}, conj(p, q)).ok
    # a variable bound above it needs no declaration
    bound = {**TABLE_PROOF, "names": ["p", "q", "R", "x"],
             "formulas": [ca.ATOM, 2, 1, -4, ca.FORALL, 3, 0],
             "id": [0], "label": [1], "kind": ["hypothesis"], "rule": [None],
             "premises": [0], "parents": [], "root": 0}
    assert derivation_from_json(bound).nodes[0].label is forall("x", atom("R", x))


def test_json_table_of_a_deep_formula():
    # the writer walks with an explicit stack and the reader reads flat
    # rows, so nesting depth is bounded by memory only
    f = atom("p0")
    for i in range(1, 5000):
        f = imp(atom(f"p{i}"), f)
    d = Derivation.of_nodes(root=0, nodes=(_node(0, f, "hypothesis"),))
    back = derivation_from_json(json.loads(json.dumps(derivation_to_json(d))))
    assert back.nodes[0].label is f


@pytest.mark.parametrize(
    "changes", [m[1] for m in TABLE_MUTANTS], ids=[m[0] for m in TABLE_MUTANTS]
)
def test_json_table_mutants_are_malformed(changes):
    with pytest.raises(ValueError):
        derivation_from_json(json.loads(json.dumps({**TABLE_PROOF, **changes})))


# ------------------------------------------ differential tests of the proof path

class _ReferenceTable:
    """FormulaTable's writer before its single loop, kept as the reference
    the writer's bytes must equal: every label without a row gets its own
    stack, and every operand is pushed and popped."""

    def __init__(self):
        self.formulas = []
        self.names = {}
        self.table = {}

    def rows(self, formulas):
        rows, out, names = self.table, self.formulas, self.names
        ids = []
        for f in formulas:
            i = rows.get(f)
            if i is None:
                stack = [f]
                while stack:
                    g = stack.pop()
                    if g in rows:
                        continue
                    cls = g.__class__
                    if cls is Atom:
                        args = g.args
                        out += (ca.ATOM, names.setdefault(g.rel, len(names)),
                                len(args))
                        for t in args:
                            code = names.setdefault(t.name, len(names))
                            out.append(-1 - code if t.kind == VAR else code)
                    else:
                        op = ca._OPCODES[cls]
                        if ca.AND <= op <= ca.IMP:
                            left, right = rows.get(g.l), rows.get(g.r)
                            if left is None or right is None:
                                stack += (g, g.r, g.l)
                                continue
                            out += (op, left, right)
                        elif op >= ca.FORALL:
                            body = rows.get(g.body)
                            if body is None:
                                stack += (g, g.body)
                                continue
                            out += (op, names.setdefault(g.var, len(names)), body)
                        else:
                            out.append(op)
                    rows[g] = len(rows)
                i = rows[f]
            ids.append(i)
        return ids


def _assert_writes_as_reference(label_lists):
    """One FormulaTable and one reference table, each fed label_lists in
    turn, as a proof document shares its table: equal row ids per call,
    and equal names and formulas at the end."""
    table, ref = ca.FormulaTable(), _ReferenceTable()
    for labels in label_lists:
        assert table.rows(labels) == ref.rows(labels)
    assert table.names == list(ref.names)
    assert table.formulas == ref.formulas


def test_writer_matches_reference_on_golden_proofs():
    for name, hyps, queries, variant in golden_sessions():
        verdicts = Session(hyps, queries, variant).verdicts()
        _assert_writes_as_reference([
            hyps, queries,
            *([n.label for n in v.proof.nodes] for v in verdicts if v.proof),
        ])


def test_writer_matches_reference_on_random_formulas():
    # a closure universe lists subformulas around the formulas that hold
    # them; reversed, compounds come before their operands
    for variant in V:
        rng = random.Random(2200 + int(variant))
        for _ in range(60):
            hyps, queries = random_instance(rng, None, 2, variant)
            universe = Session(hyps, queries, variant).closure_table.universe
            _assert_writes_as_reference([hyps, queries])
            _assert_writes_as_reference([universe[::-1], hyps])
            _assert_writes_as_reference([universe])


def test_writer_matches_reference_on_operand_orders():
    pq = conj(p, q)
    cases = [
        # a compound before its operands, and after them
        [imp(pq, disj(q, r)), p, q, pq],
        [p, q, pq, imp(pq, r)],
        # an unwritten compound on the left that holds the right operand
        [conj(conj(q, p), p)],
        [imp(disj(r, forall("x", atom("R", x))), atom("R", x))],
        # shared operands, and l is r
        [conj(pq, imp(q, pq))],
        [conj(p, p), imp(conj(q, q), conj(q, q)), disj(pq, pq)],
        [conj(atom("R", x, c), atom("R", x, c))],
        # a bound variable named after its body's names, constants as operands
        [forall("y", atom("R", x)), exists("x", imp(top(), bot()))],
        [conj(bot(), p), imp(top(), imp(top(), q))],
        [exists("y", forall("x", conj(atom("S", x, y), exists("y", p))))],
    ]
    for labels in cases:
        _assert_writes_as_reference([labels])
        _assert_writes_as_reference([[f] for f in labels])


def test_writer_matches_reference_on_deep_formulas():
    right = left = atom("p0")
    for i in range(1, 5000):
        right = imp(atom(f"p{i}"), right)
        left = conj(left, atom(f"q{i}"))
    _assert_writes_as_reference([[right]])
    _assert_writes_as_reference([[left, right]])


def _only(types, items):
    return set(map(type, items)) <= types


def _reference_table_rows(obj, arities):
    """_table_rows before ATOM rows with no arguments had a path of their
    own and rows were looked up in the intern table."""
    names, formulas = obj.get("names"), obj.get("formulas")
    if type(names) is not list or type(formulas) is not list:
        raise ValueError("a formula table needs 'names' and 'formulas' arrays")
    if not _only({str}, names):
        raise ValueError("'names' entries must be strings")
    if not _only({int}, formulas):
        raise ValueError("'formulas' must be an integer array")
    makers = (None, None, None, conj, disj, imp)
    n_names = len(names)
    terms = {}
    rows = []
    append = rows.append
    i, end = 0, len(formulas)
    try:
        while i < end:
            op = formulas[i]
            if ca.AND <= op <= ca.IMP:
                left, right = formulas[i + 1], formulas[i + 2]
                i += 3
                n = len(rows)
                if not (0 <= left < n and 0 <= right < n):
                    bad = right if 0 <= left < n else left
                    raise ValueError(
                        f"formula row {n} cites row {bad}, which is not an "
                        "earlier row"
                    )
                append(makers[op](rows[left], rows[right]))
            elif op == ca.ATOM:
                rel, k = formulas[i + 1], formulas[i + 2]
                i += 3
                if not 0 <= rel < n_names or k < 0:
                    raise ValueError(
                        f"formula row {len(rows)}: bad relation {rel} or "
                        f"argument count {k}"
                    )
                rel = names[rel]
                if i + k > end:
                    raise IndexError
                args = []
                for t in formulas[i:i + k]:
                    term = terms.get(t)
                    if term is None:
                        term = terms[t] = ca._table_term(names, t, len(rows))
                    args.append(term)
                i += k
                if arities.setdefault(rel, k) != k:
                    raise ValueError(
                        f"formula row {len(rows)}: relation {rel!r} has {k} "
                        f"argument(s) but {arities[rel]} in an earlier row"
                    )
                append(atom(rel, *args))
            elif op == ca.FORALL or op == ca.EXISTS:
                v, body = formulas[i + 1], formulas[i + 2]
                i += 3
                n = len(rows)
                if not 0 <= v < n_names or not 0 <= body < n:
                    raise ValueError(
                        f"formula row {n}: bad variable {v} or body row {body}"
                        ", which must be an earlier row"
                    )
                append((forall if op == ca.FORALL else exists)(names[v], rows[body]))
            elif op == ca.TRUE:
                append(top())
                i += 1
            elif op == ca.FALSE:
                append(bot())
                i += 1
            else:
                raise ValueError(f"formula row {len(rows)}: unknown opcode {op}")
    except IndexError:
        raise ValueError(
            f"formula row {len(rows)} runs past the end of 'formulas'"
        ) from None
    return rows


def _reference_column_fault(columns: list, n_rows: int) -> str:
    """What is wrong with a derivation's node columns, whose labels cite
    n_rows rows: the reader's own message search before it checked its
    columns in one sequence, kept apart from the reader it is checked
    against."""
    for key, column in zip(ca._COLUMNS, columns):
        if type(column) is not list:
            return f"derivation needs a {key!r} array"
    ids, label, kind, rule, premises, parents = columns
    if not len(ids) == len(label) == len(kind) == len(rule) == len(premises):
        return ("node columns 'id', 'label', 'kind', 'rule' and 'premises' "
                "must have one entry per node")
    for key, column in zip(ca._COLUMNS, columns):
        if key not in ("kind", "rule") and not _only({int}, column):
            return f"{key!r} must be an integer array"
    bad = next((i for i in label if not 0 <= i < n_rows), None)
    if bad is not None:
        return f"'label' cites row {bad}, but 'formulas' has {n_rows} row(s)"
    # search by index: a null kind is a fault, not "no match"
    at = next((i for i, k in enumerate(kind) if k not in ca._NODE_KINDS), None)
    if at is not None:
        return f"node at index {at}: unknown kind {kind[at]!r}"
    if not _only({str, type(None)}, rule):
        return "'rule' entries must be strings or null"
    if any(p < 0 for p in premises):
        return "'premises' must be counts"
    return (f"'premises' add up to {sum(premises)} parent(s), but "
            f"'parents' holds {len(parents)}")


def _reference_reader(obj, declared_vars=()):
    """derivation_from_json, for a derivation with its own table, before
    its node columns were checked a whole column at a time: one loop
    checks and builds each node in turn."""
    if not isinstance(obj, dict):
        raise ValueError("derivation must be a JSON object")
    if type(obj.get("root")) is not int:
        raise ValueError("derivation needs an integer 'root'")
    rows = _reference_table_rows(obj, {})
    columns = ids, label, kind, rule, premises, parents = [
        obj.get(key) for key in ca._COLUMNS
    ]
    n_rows = len(rows)
    if not (
        type(ids) is type(label) is type(kind) is type(rule) is list
        and type(premises) is type(parents) is list
        and len(ids) == len(label) == len(kind) == len(rule) == len(premises)
        and _only({int}, parents)
    ):
        raise ValueError(_reference_column_fault(columns, n_rows))
    declared = frozenset(declared_vars)
    flat = tuple(parents)
    nodes = []
    j = 0
    for nid, i, k, r, n in zip(ids, label, kind, rule, premises):
        if (
            type(nid) is not int
            or type(i) is not int or not 0 <= i < n_rows
            or k not in ca._NODE_KINDS
            or (r is not None and r.__class__ is not str)
            or type(n) is not int or n < 0
        ):
            raise ValueError(_reference_column_fault(columns, n_rows))
        f = rows[i]
        if f.free and not f.free <= declared:
            raise ValueError(ca._undeclared("'label'", f.free - declared))
        nodes.append(DerivationNode(nid, f, k, r, flat[j:j + n]))
        j += n
    if j != len(flat):
        raise ValueError(_reference_column_fault(columns, n_rows))
    return Derivation.of_nodes(obj["root"], tuple(nodes))


def _read(reader, obj, declared_vars):
    try:
        return reader(obj, declared_vars)
    except ValueError as e:
        return f"ValueError: {e}"


# wrong types, bools, negatives, rows and counts out of range, unknown and
# known kinds and rule names, and in-range values that move a premises sum
_BAD_ENTRIES = [
    "x", "guess", "rule", "hypothesis", "axiom", "AndI", "", 1.5, None, [0],
    {}, True, False, -1, -4, 0, 1, 2, 3, 7, 10**6,
]


def _column_mutants(blob):
    """Each copy of blob that has one entry of one array replaced by a bad
    value, or one entry appended or dropped; and each that moves one parent
    between neighbouring premises counts, which keeps their sum."""
    for key in ("names", "formulas", *ca._COLUMNS):
        column = blob[key]
        for i in range(len(column)):
            for bad in _BAD_ENTRIES:
                yield {**blob, key: [*column[:i], bad, *column[i + 1:]]}
        yield {**blob, key: [*column, 0]}
        yield {**blob, key: column[:-1]}
    counts = blob["premises"]
    for i in range(len(counts) - 1):
        for step in (1, -1):
            moved = counts[:]
            moved[i] += step
            moved[i + 1] -= step
            yield {**blob, "premises": moved}


def _quantified_blob():
    """The proof of S(c, y) from R(y) and R(y) -> (forall x. S(x, y)): a
    free variable in labels, a quantifier row and ForallE."""
    problem = parse_problem("@vars y\nR(y)\nR(y) -> (forall x. S(x, y))\n")
    query = parse_formula("S(c, y)", problem.declared_vars,
                          symbols=problem.symbols)
    v = entails(problem.formulas, query, V.QPL)
    return json.loads(json.dumps(derivation_to_json(v.proof)))


def test_reader_matches_reference_on_column_mutants():
    # one fault per mutant: the same message as the reference, or an
    # equal derivation
    for blob, declared in ((TABLE_PROOF, ()), (_quantified_blob(), ("y",))):
        for mutant in _column_mutants(blob):
            got = _read(derivation_from_json, mutant, declared)
            assert got == _read(_reference_reader, mutant, declared), mutant


def test_reader_reports_a_column_fault_before_an_undeclared_label():
    # with y undeclared a mutant has two faults; the reference reported
    # whichever its node loop met first, and the reader reports a column
    # fault before any undeclared variable
    undeclared = "ValueError: " + ca._undeclared("'label'", {"y"})
    moved = 0
    for mutant in _column_mutants(_quantified_blob()):
        got = _read(derivation_from_json, mutant, ())
        want = _read(_reference_reader, mutant, ())
        if got != want:
            assert want == undeclared
            assert got == _read(_reference_reader, mutant, ("y",))
            moved += 1
    assert moved > 0


@pytest.mark.parametrize(
    "kind,at",
    [([None, "hypothesis", "rule"], 0), (["hypothesis", "hypothesis", None], 2)],
)
def test_reader_names_the_node_of_an_unknown_kind(kind, at):
    # a null kind is an unknown kind too, not the end of the search
    with pytest.raises(ValueError) as info:
        derivation_from_json({**TABLE_PROOF, "kind": kind})
    assert str(info.value) == f"node at index {at}: unknown kind {kind[at]!r}"


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
        {"root": 0, "nodes": [[0, "p", "hypothesis", None]]},
        {"root": 0, "nodes": [[0, "p", "hypothesis", None, [], 1]]},
        {"root": 0, "nodes": [["0", "p", "hypothesis", None, []]]},
        {"root": 0, "nodes": [[0, "p", "guess", None, []]]},
        {"root": 0, "nodes": [[0, "p", "rule", "AndI", "no"]]},
        {"root": 0, "nodes": [[0, "p &", "hypothesis", None, []]]},
        {"root": 0, "nodes": [(0, "p", "hypothesis", None, [])]},
    ],
)
def test_json_malformed(blob):
    with pytest.raises(ValueError):
        derivation_from_json(blob)


# ------------------------------------------------------ pinned verdicts

def _f(text):
    return parse_formula(text, ("x", "y"))


# (variant, rule, premises, conclusion, code, message), every rejection
# match_rule can give
_MATCH_REJECTIONS = [
    ("qpl", "Cut", ["p"], "p", "unknown_rule", "unknown rule 'Cut'"),
    ("l1", "BotE", ["false"], "p", "unknown_rule",
     "rule BotE is not part of the l1 calculus"),
    ("qpl", "ImpE", ["p"], "q", "shape", "ImpE expects 2 premise(s), got 1"),
    ("qpl", "ImpAx", ["p"], "p -> p", "shape",
     "ImpAx expects 0 premise(s), got 1"),
    ("qpl", "TopI", [], "p", "shape",
     "TopI: conclusion must be the truth constant"),
    ("qpl", "AndI", ["q", "p"], "p & q", "shape",
     "AndI: conclusion must conjoin the premises in order"),
    ("qpl", "AndE_L", ["p & q"], "q", "shape",
     "AndE_L: conclusion must be the left conjunct"),
    ("qpl", "AndE_R", ["p"], "p", "shape",
     "AndE_R: conclusion must be the right conjunct"),
    ("qpl", "OrI_L", ["q"], "p | q", "shape",
     "OrI_L: premise must be the left disjunct"),
    ("qpl", "OrI_R", ["p"], "p | q", "shape",
     "OrI_R: premise must be the right disjunct"),
    ("qpl", "OrE", ["p | p"], "q", "shape",
     "OrE: premise must be a disjunction of the conclusion"),
    ("qpl", "OrE", ["p | q"], "q", "side_condition",
     "OrE: premise disjuncts must be equal"),
    ("qpl", "ImpI", ["p"], "p -> q", "shape",
     "ImpI: premise must be the consequent of the conclusion"),
    ("qpl", "ImpE", ["p -> q", "p"], "q", "shape",
     "ImpE: premises must read antecedent, implication"),
    ("qpl", "ImpAx", [], "p -> q", "shape",
     "ImpAx: axiom instances are implications with equal sides"),
    ("qpl", "BotE", ["p"], "q", "shape",
     "BotE: premise must be the falsity constant"),
    ("qpl", "ForallI", ["p"], "exists x. p", "shape",
     "ForallI: conclusion must quantify the premise"),
    ("qpl", "ForallI", ["R(x)"], "forall x. R(x)", "side_condition",
     "ForallI: x occurs free in the premise"),
    ("qpl", "ExistsE", ["forall x. p"], "p", "shape",
     "ExistsE: conclusion must be the premise body"),
    ("qpl", "ExistsE", ["exists x. R(x)"], "R(x)", "side_condition",
     "ExistsE: x occurs free in the conclusion"),
    ("qpl", "ForallE", ["R(c)"], "R(c)", "shape",
     "ForallE: premise must be universally quantified"),
    ("qpl", "ForallE", ["forall x. S(x, x)"], "S(c, d)", "shape",
     "ForallE: conclusion is not an instance of the premise body"),
    ("qpl", "ForallE", ["forall x. p"], "q", "shape",
     "ForallE: conclusion is not an instance of the premise body"),
    ("qpl", "ForallE", ["forall x. exists y. S(x, y)"], "exists y. S(y, y)",
     "side_condition", "ForallE: term y is not substitutable (clash)"),
    ("qpl", "ExistsI", ["R(c)"], "forall x. R(x)", "shape",
     "ExistsI: conclusion must be existentially quantified"),
    ("qpl", "ExistsI", ["S(c, d)"], "exists x. S(x, x)", "shape",
     "ExistsI: premise is not an instance of the conclusion body"),
    ("qpl", "ExistsI", ["exists y. S(y, y)"], "exists x. exists y. S(x, y)",
     "side_condition", "ExistsI: term y is not substitutable (clash)"),
]


@pytest.mark.parametrize(
    "variant,name,premises,conclusion,code,message", _MATCH_REJECTIONS
)
def test_match_rule_rejection_table(
    variant, name, premises, conclusion, code, message
):
    res = match_rule(
        V.from_name(variant), name, [_f(s) for s in premises], _f(conclusion)
    )
    assert res == (code, message)


# (variant, kind, rule, parent labels, label, reason); each parent is a
# hypothesis node, the judged node comes last
_NODE_REJECTIONS = [
    ("qpl", "hypothesis", None, ["p"], "p", "hypothesis node has parents"),
    ("qpl", "hypothesis", "AndI", [], "p",
     "hypothesis node carries a rule name"),
    ("qpl", "hypothesis", None, [], "p & q",
     "p & q is not among the hypotheses"),
    ("qpl", "axiom", None, ["p"], "true", "axiom node has parents"),
    ("l2", "axiom", None, [], "p -> p",
     "axiom p -> p is not part of the l2 calculus"),
    ("qpl", "axiom", "ImpAx", [], "p -> q", "p -> q is not an axiom"),
    ("qpl", "axiom", "ImpAx", [], "true", "axiom node labeled with rule 'ImpAx'"),
    ("qpl", "rule", None, [], "p", "rule node is missing its rule name"),
    ("qpl", "assumption", None, [], "p", "unknown node kind 'assumption'"),
    ("qpl", "rule", "ImpE", ["p -> q", "p"], "q",
     "shape: ImpE: premises must read antecedent, implication"),
    ("pfqpl", "rule", "ForallE", ["forall x. R(x)"], "R(c)",
     "unknown_rule: rule ForallE is not part of the pfqpl calculus"),
    ("qpl", "rule", "TopI", ["p"], "true",
     "shape: TopI expects 0 premise(s), got 1"),
    ("qpl", "rule", "ExistsI", ["exists y. S(y, y)"],
     "exists x. exists y. S(x, y)",
     "side_condition: ExistsI: term y is not substitutable (clash)"),
]


@pytest.mark.parametrize(
    "variant,kind,rule,parents,label,reason", _NODE_REJECTIONS
)
def test_check_node_rejection_table(variant, kind, rule, parents, label, reason):
    nodes = [_node(i, _f(s), "hypothesis") for i, s in enumerate(parents)]
    k = len(parents)
    nodes.append(_node(k, _f(label), kind, rule, range(k)))
    hyps = {n.label for n in nodes[:k]}
    rep = check_derivation(Derivation.of_nodes(k, tuple(nodes)), V.from_name(variant), hyps)
    assert not rep.ok and not rep.structural_errors
    assert [(r.node_id, r.reason) for r in rep.failures] == [(k, reason)]


def _deep_instance_pair(depth=5000):
    """exists y. (S(x, y) -> ... -> S(x, y)), depth implications deep,
    with x replaced by the constant c and by the captured variable y."""
    bodies = []
    for t in (x, c, y):
        g = atom("S", t, y)
        for _ in range(depth):
            g = imp(atom("S", t, y), g)
        bodies.append(exists("y", g))
    return bodies


def test_instance_rules_on_deep_bodies():
    body, inst, captured = _deep_instance_pair()
    prem = forall("x", body)
    _accepted(match_rule(V.QPL, "ForallE", [prem], inst))
    _accepted(match_rule(V.QPL, "ExistsI", [inst], exists("x", body)))
    res = match_rule(V.QPL, "ForallE", [prem], captured)
    assert res == (
        "side_condition", "ForallE: term y is not substitutable (clash)"
    )
    res = match_rule(V.QPL, "ExistsI", [captured], exists("x", body))
    assert res == (
        "side_condition", "ExistsI: term y is not substitutable (clash)"
    )


def _shared_instance_triple(depth=60):
    """exists y. S(x, y) conjoined with itself depth times, a DAG of depth
    + 2 formulas, with x replaced by c and by the captured y."""
    bodies = []
    for t in (x, c, y):
        g = exists("y", atom("S", t, y))
        for _ in range(depth):
            g = conj(g, g)
        bodies.append(g)
    return bodies


def test_instance_rules_on_shared_bodies(within):
    body, inst, captured = _shared_instance_triple()
    prem, concl = forall("x", body), exists("x", body)
    clash = "term y is not substitutable (clash)"
    with within(1.0):
        _accepted(match_rule(V.QPL, "ForallE", [prem], inst))
        _accepted(match_rule(V.QPL, "ExistsI", [inst], concl))
        res = match_rule(V.QPL, "ForallE", [prem], captured)
        assert res == ("side_condition", f"ForallE: {clash}")
        res = match_rule(V.QPL, "ExistsI", [captured], concl)
        assert res == ("side_condition", f"ExistsI: {clash}")
        # two witnesses, c on the left and y on the right
        res = match_rule(V.QPL, "ForallE", [prem], conj(inst.l, captured.r))
        assert res == (
            "shape", "ForallE: conclusion is not an instance of the premise body"
        )


def test_checker_is_independent_of_the_engine():
    """The checker must not share the engine's instance construction."""
    tree = ast.parse(pathlib.Path(ca.__file__).read_text())
    imported, used = set(), set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom):
            imported.add(("." * n.level) + (n.module or ""))
            used.update(a.name for a in n.names)
        elif isinstance(n, ast.Import):
            imported.update(a.name for a in n.names)
        elif isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
    assert not imported & {".engine", "qpl.engine", "engine"}
    assert not used & {"substitute", "_instances", "closure", "compile_rules"}
