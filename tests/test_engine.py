"""Rule compilation, saturation, entailment, proof extraction."""

from __future__ import annotations

import gc
import json
import random
import tracemalloc

import pytest

from qpl import engine as en
from qpl.calculus import CalculusVariant as V
from qpl.calculus import (
    RULES,
    check_derivation,
    derivation_from_json,
    derivation_to_json,
)
from qpl.engine import (
    Session,
    compile_rules,
    entails,
    extract_proof,
    saturate,
)
from qpl.generators import (
    Dec,
    Inc,
    TwoRegisterMachine,
    bounded_halting_instance,
    chain_family,
    random_instance,
)
from qpl.semantics import (
    satisfies,
    semantic_yields_bruteforce,
    verdict_countermodel,
)
from qpl.syntax import (
    ResourceLimit,
    atom,
    bot,
    closure,
    conj,
    const,
    disj,
    exists,
    forall,
    imp,
    top,
    var,
)

p, q, r, s = atom("p"), atom("q"), atom("r"), atom("s")
x, y = var("x"), var("y")
c, d = const("c"), const("d")
A, B, C = atom("A"), atom("B"), atom("C")


def _instances(ct, variant):
    """The rule instances the compiled uses index stands for, as (rule name,
    premise ids, conclusion id), ordered by the member each belongs to (the
    compound it introduces or takes apart) and then by rule code."""
    c = compile_rules(ct, variant)
    intros = {en.IMP_I, en.OR_I_L, en.OR_I_R, en.FORALL_I, en.EXISTS_I}
    steps = []  # (owner, rule code, premise ids, conclusion id)
    for m, uses in enumerate(c.uses):
        for x, code in zip(uses[::2], uses[1::2]):
            if code in intros:
                steps.append((x, code, (m,), x))
            elif code == en.IMP_E:  # listed under the antecedent and x
                if m == x:
                    steps.append((x, code, (c.left[x], x), c.right[x]))
            elif code == en.AND_I:  # listed under each distinct conjunct
                if m == c.left[x]:
                    steps.append((x, code, (m, c.right[x]), x))
            else:  # an elimination
                steps.append((m, code, (m,), x))
    assert len(steps) == len(c.instances)
    steps.sort(key=lambda step: step[:2])
    return [(en.RULE_NAMES[code], ps, concl) for _, code, ps, concl in steps]


def _provenance(state):
    """Each member's provenance as (kind, rule name, premise ids), or None
    when it is not derived."""
    out = []
    for m, derived in enumerate(state.derived):
        code, a, b = state.rule[m], state.premise1[m], state.premise2[m]
        if not derived:
            out.append(None)
        elif code == en.HYPOTHESIS:
            out.append(("hypothesis", None, ()))
        elif a < 0:
            out.append(("axiom", en.RULE_NAMES[code], ()))
        else:
            out.append(("rule", en.RULE_NAMES[code], (a,) if b < 0 else (a, b)))
    return out


# ---------------------------------------------------------------- compiling

def test_compile_conjunction():
    ct = closure([conj(p, q)])
    assert ct.universe == [conj(p, q), p, q]
    assert _instances(ct, V.ORIGINAL) == [
        ("AndI", (1, 2), 0),
        ("AndE_L", (0,), 1),
        ("AndE_R", (0,), 2),
    ]


def test_compile_disjunction():
    ct = closure([disj(p, q)])
    assert _instances(ct, V.L1) == [("OrI_L", (1,), 0), ("OrI_R", (2,), 0)]
    assert _instances(ct, V.ORIGINAL) == []
    ct = closure([disj(p, p)])
    assert _instances(ct, V.L1) == [("OrI_L", (1,), 0), ("OrE", (0,), 1)]


def test_compile_implication():
    ct = closure([imp(p, q)])
    assert _instances(ct, V.ORIGINAL) == [
        ("ImpI", (2,), 0),
        ("ImpE", (1, 0), 2),
    ]


def test_compile_quantifiers():
    ct = closure([forall("x", atom("R", x)), atom("R", c)])
    assert _instances(ct, V.QPL) == [("ForallE", (0,), 1)]
    assert _instances(ct, V.PFQPL) == []

    ct = closure([forall("x", p)])
    assert _instances(ct, V.QPL) == [
        ("ForallE", (0,), 1),
        ("ForallI", (1,), 0),
    ]

    ct = closure([exists("x", atom("R", x)), atom("R", c)])
    assert _instances(ct, V.QPL) == [("ExistsI", (1,), 0)]

    ct = closure([exists("x", p)])
    assert _instances(ct, V.QPL) == [
        ("ExistsI", (1,), 0),
        ("ExistsE", (0,), 1),
    ]


def test_compile_bottom_trigger_and_seeds():
    ct = closure([bot(), q])
    assert compile_rules(ct, V.L2).bottom_id == 0
    assert compile_rules(ct, V.L1).bottom_id == -1

    ct = closure([imp(imp(q, q), r)])
    assert compile_rules(ct, V.PFQPL).axiom_seeds == [(1, en.IMP_AX)]
    assert compile_rules(ct, V.L2).axiom_seeds == []

    ct = closure([conj(top(), p)])
    assert compile_rules(ct, V.ORIGINAL).axiom_seeds == [(1, en.TOP_I)]


def _emitted(compiled):
    """The rule codes of a compiled index: its uses entries, its axiom
    seeds, and BotE when it floods from the falsity constant."""
    codes = {code for uses in compiled.uses for code in uses[1::2]}
    codes.update(code for _, code in compiled.axiom_seeds)
    if compiled.bottom_id >= 0:
        codes.add(en.BOT_E)
    return codes


def test_every_use_is_a_rule_code():
    """Each uses entry names its step by its rule code, the two-premise
    steps ImpE and AndI too. A code is the rule's position in
    calculus.RULES, and a variant's index emits exactly the rules RULES
    gives that variant."""
    assert en.RULE_NAMES == tuple(RULES)
    rng = random.Random(27)
    for variant in V:
        for _ in range(40):
            hyps, queries = random_instance(rng, None, 2, variant)
            ct = closure([*hyps, *queries])
            for code in _emitted(compile_rules(ct, variant)):
                assert variant >= RULES[en.RULE_NAMES[code]][0]
    # every rule has a step over this closure
    ct = closure([
        disj(p, p), disj(p, q), imp(p, p), top(), bot(), conj(p, q),
        forall("x", p), forall("x", atom("R", x)),
        exists("x", p), exists("x", atom("R", x)),
    ])
    for variant in V:
        carried = {
            code for code, (first, _, _) in enumerate(RULES.values())
            if variant >= first
        }
        assert _emitted(compile_rules(ct, variant)) == carried


# --------------------------------------------------------------- saturation

def test_saturate_modus_ponens():
    ct = closure([p, imp(p, q)])
    state = saturate([p, imp(p, q)], ct, compile_rules(ct, V.ORIGINAL))
    assert all(state.derived)
    qid = ct.index[q]
    assert _provenance(state)[qid] == (
        "rule", "ImpE", (ct.index[p], ct.index[imp(p, q)])
    )


def test_saturate_axiom_seeding():
    hyp = imp(imp(q, q), r)
    ct = closure([hyp, r])
    state = saturate([hyp], ct, compile_rules(ct, V.PFQPL))
    assert state.derived[ct.index[r]]
    state = saturate([hyp], ct, compile_rules(ct, V.L2))
    assert not state.derived[ct.index[r]]


def test_saturate_existential_is_inert():
    f = exists("x", atom("R", x))
    ct = closure([f, atom("R", c)])
    state = saturate([f], ct, compile_rules(ct, V.QPL))
    assert state.derived[ct.index[f]]
    assert not state.derived[ct.index[atom("R", c)]]
    assert state.derived_count == 1


def test_saturate_bottom_floods_at_fixpoint():
    ct = closure([imp(p, bot()), p, q])
    state = saturate([imp(p, bot()), p], ct, compile_rules(ct, V.L2))
    assert state.bot_flag
    assert all(state.derived)
    assert _provenance(state)[ct.index[q]] == ("rule", "BotE", (ct.index[bot()],))


def test_saturate_bottom_inactive_below_l2():
    ct = closure([bot(), q])
    state = saturate([bot()], ct, compile_rules(ct, V.L1))
    assert state.derived[ct.index[bot()]]
    assert not state.derived[ct.index[q]]
    assert not state.bot_flag


def test_saturate_rejects_foreign_formulas():
    ct = closure([p])
    with pytest.raises(ValueError):
        saturate([q], ct, compile_rules(ct, V.QPL))


def test_compiled_rules_and_fixpoint_stay_small():
    """tracemalloc on the 4-state machine of the queries benchmark at t=12
    (23,207 members, 57,538 instances). Compiled rules took 214 B per
    instance as two tuples each and 110 B as instance columns with a watch
    list per member; the uses index takes 70 B. The state kept after them
    took 1.01 MiB."""
    machine = TwoRegisterMachine(
        {0: Inc(1, 2), 2: Inc(2, 3), 3: Dec(1, 4, 2), 4: Dec(2, 1, 4)}
    )
    hyps, query = bounded_halting_instance(machine, 12)
    ct = closure([*hyps, query])
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        compiled = compile_rules(ct, V.QPL)
        compiled_bytes = tracemalloc.get_traced_memory()[0] - base
        n_instances = len(compiled.instances)
        state = saturate(hyps, ct, compiled)
        del compiled
        state_bytes = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        gc.enable()
    assert n_instances == 57_538
    assert compiled_bytes <= 100 * n_instances
    assert state_bytes <= 1.01 * 2**20
    # flat columns of numbers only, so no uses list stays reachable
    for v in vars(state).values():
        assert type(v) in (bytearray, bool, int) or all(type(x) is int for x in v)
    assert state.derived[ct.index[query]]


def test_derivation_columns_stay_small():
    """tracemalloc on the chain_family(50_000) proof (33,333 nodes). As one
    tuple per node with a parents tuple each, extract_proof's result took
    152 B per node and derivation_from_json's 124 B; as node columns they
    take 76 B and 48 B."""
    hyps, goal = chain_family(50_000)
    session = Session(hyps, [goal], V.PFQPL)
    state, ct = session.state, session.closure_table
    blob = json.loads(json.dumps(derivation_to_json(extract_proof(state, ct, goal))))
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        extracted = extract_proof(state, ct, goal)
        extract_bytes = tracemalloc.get_traced_memory()[0] - base
        base = tracemalloc.get_traced_memory()[0]
        read = derivation_from_json(blob)
        read_bytes = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        gc.enable()
    n = len(extracted.labels)
    assert n == 33_333 and read == extracted
    assert extract_bytes <= 95 * n
    assert read_bytes <= 60 * n


# --------------------------------------------------------------- entailment

@pytest.mark.parametrize(
    "hyps,query,variant,expected",
    [
        ([imp(A, B), imp(B, C)], imp(A, C), V.QPL, False),
        ([forall("x", atom("R", x))], atom("R", c), V.QPL, True),
        ([bot()], forall("x", exists("y", atom("S", x, y))), V.QPL, True),
        ([atom("R", c)], exists("x", atom("R", x)), V.QPL, True),
        ([exists("x", atom("R", x))], atom("R", c), V.QPL, False),
        ([p], forall("x", p), V.QPL, True),
        ([forall("x", p)], p, V.QPL, True),
        ([exists("x", p)], p, V.QPL, True),
        ([atom("R", c)], forall("x", atom("R", x)), V.QPL, False),
        ([p], disj(p, q), V.L1, True),
        ([p], disj(p, q), V.ORIGINAL, False),
        ([], top(), V.ORIGINAL, True),
        ([], imp(p, p), V.PFQPL, True),
        ([], imp(p, p), V.L2, False),
        ([conj(p, q)], conj(q, p), V.ORIGINAL, True),
    ],
)
def test_entails_vectors(hyps, query, variant, expected):
    v = entails(hyps, query, variant)
    assert v.entailed is expected
    if expected:
        assert v.proof is not None
        rep = check_derivation(v.proof, variant, set(hyps),
                               expected_conclusion=query)
        assert rep.ok
    else:
        assert v.proof is None


def test_entails_stats():
    v = entails([p, imp(p, q)], q, V.ORIGINAL)
    assert v.stats["universe_size"] == 3
    assert v.stats["instances_compiled"] == 2
    assert v.stats["derived_count"] == 3
    assert v.stats["instances_fired"] >= 1


def test_entails_closure_cap():
    f = forall("x", atom("R", x, const("c1"), const("c2"), const("c3")))
    with pytest.raises(ResourceLimit):
        entails([f], atom("R", c, c, c, c), V.QPL, closure_cap=3)


def _joint(hyps, queries, variant):
    return [v.entailed
            for v in Session(hyps, queries, variant).verdicts(with_proof=False)]


def test_session_verdicts_vectors():
    assert _joint([p, imp(p, conj(q, r))], [q, r, s], V.ORIGINAL) == [
        True, True, False,
    ]
    assert _joint([disj(p, p)], [p], V.L1) == [True]
    assert _joint([], [top(), bot()], V.QPL) == [True, False]


# --------------------------------------------------------------- extraction

def test_extract_modus_ponens_proof():
    v = entails([p, imp(p, q)], q, V.ORIGINAL)
    nodes = v.proof.nodes
    assert len(nodes) == 3
    assert v.proof.root == 2
    assert nodes[2].rule == "ImpE"
    assert [n.rule for n in nodes] == [None, None, "ImpE"]
    assert nodes[2].parents == (0, 1)


def test_extract_commuted_conjunction_proof():
    v = entails([conj(p, q)], conj(q, p), V.ORIGINAL)
    nodes = v.proof.nodes
    # full sharing: the hypothesis leaf is reused, so 4 nodes not 5
    assert len(nodes) == 4
    assert v.proof.root == 3
    assert nodes[0].rule is None and nodes[0].label is conj(p, q)
    assert {n.rule for n in nodes[1:]} == {"AndE_R", "AndE_L", "AndI"}
    assert nodes[3].rule == "AndI"
    rep = check_derivation(v.proof, V.ORIGINAL, {conj(p, q)},
                           expected_conclusion=conj(q, p))
    assert rep.ok


def test_extract_bottom_proof():
    v = entails([bot()], r, V.L2)
    nodes = v.proof.nodes
    assert len(nodes) == 2
    assert nodes[1].rule == "BotE"
    assert nodes[0].label is bot()


def test_extract_forall_proof_shape():
    v = entails([forall("x", atom("R", x))], atom("R", c), V.QPL)
    assert len(v.proof.nodes) == 2
    assert v.proof.nodes[1].rule == "ForallE"


def test_extract_is_postorder_and_within_closure():
    v = entails([conj(p, q), imp(p, imp(q, r))], r, V.ORIGINAL)
    assert v.entailed
    members = set(v.closure_table.universe)
    for i, n in enumerate(v.proof.nodes):
        assert n.label in members
        for pid in n.parents:
            assert pid < i
    assert v.proof.root == len(v.proof.nodes) - 1


def test_extract_requires_derived_target():
    ct = closure([p, q])
    state = saturate([p], ct, compile_rules(ct, V.QPL))
    with pytest.raises(ValueError):
        extract_proof(state, ct, q)


def test_proofs_are_deterministic():
    def run():
        v = entails([conj(p, q), imp(p, imp(q, r))], r, V.ORIGINAL)
        return json.dumps(derivation_to_json(v.proof))

    assert run() == run()


# ---------------------------------------------------------------- chains

def test_small_chain_entails():
    links = [atom("p0")]
    for i in range(1, 40):
        links.append(imp(atom(f"p{i-1}"), atom(f"p{i}")))
    v = entails(links, atom("p39"), V.PFQPL)
    assert v.entailed
    assert check_derivation(v.proof, V.PFQPL, set(links)).ok
    assert len(v.proof.nodes) == 2 * 40 - 1


# ------------------------------------------------------- randomized checks

def _random_formula(rng, depth, variant):
    choices = 4 if depth > 0 else 2
    if variant >= V.QPL and depth > 0:
        choices = 6
    kind = rng.randrange(choices)
    if kind == 0:
        pool = [p, q, top()]
        if variant >= V.L2:
            pool.append(bot())
        return rng.choice(pool)
    if kind == 1:
        return atom("R", rng.choice([c, d]))
    if kind == 2:
        ctor = conj if rng.random() < 0.5 else imp
        return ctor(
            _random_formula(rng, depth - 1, variant),
            _random_formula(rng, depth - 1, variant),
        )
    if kind == 3:
        if variant >= V.L1:
            return disj(
                _random_formula(rng, depth - 1, variant),
                _random_formula(rng, depth - 1, variant),
            )
        return imp(
            _random_formula(rng, depth - 1, variant),
            _random_formula(rng, depth - 1, variant),
        )
    ctor = forall if kind == 4 else exists
    return ctor("x", _random_formula(rng, depth - 1, variant))


def test_variant_monotonicity_on_random_instances():
    rng = random.Random(123)
    for _ in range(80):
        hyps = [_random_formula(rng, 2, V.QPL) for _ in range(rng.randrange(3))]
        query = _random_formula(rng, 2, V.QPL)
        verdicts = [entails(hyps, query, v).entailed for v in V]
        assert verdicts == sorted(verdicts), (hyps, query, verdicts)


def test_session_verdicts_agree_with_single_queries():
    rng = random.Random(456)
    for _ in range(60):
        variant = V(rng.randrange(5))
        hyps = [_random_formula(rng, 2, variant) for _ in range(rng.randrange(3))]
        queries = [_random_formula(rng, 2, variant) for _ in range(1, 4)]
        joint = _joint(hyps, queries, variant)
        single = [entails(hyps, qq, variant).entailed for qq in queries]
        assert joint == single


def test_entails_matches_fixpoint_membership():
    rng = random.Random(789)
    for _ in range(60):
        variant = V(rng.randrange(5))
        hyps = [_random_formula(rng, 2, variant) for _ in range(rng.randrange(3))]
        query = _random_formula(rng, 2, variant)
        v = entails(hyps, query, variant)
        ct = closure([*hyps, query])
        full = saturate(list(dict.fromkeys(hyps)), ct, compile_rules(ct, variant))
        assert v.entailed == bool(full.derived[ct.index[query]])


def test_every_random_proof_checks():
    rng = random.Random(321)
    seen_true = 0
    for _ in range(120):
        variant = V(rng.randrange(5))
        hyps = [_random_formula(rng, 2, variant) for _ in range(rng.randrange(1, 4))]
        query = _random_formula(rng, 2, variant)
        v = entails(hyps, query, variant)
        if v.entailed:
            seen_true += 1
            rep = check_derivation(v.proof, variant, set(hyps),
                                   expected_conclusion=query)
            assert rep.ok, rep
    assert seen_true >= 20


def test_entails_without_proof():
    pp, qq = atom("p"), atom("q")
    v = entails([pp, imp(pp, qq)], qq, V.ORIGINAL, with_proof=False)
    assert v.entailed and v.proof is None
    v2 = entails([pp, imp(pp, qq)], qq, V.ORIGINAL)
    assert v2.entailed and v2.proof is not None


def _shared_conjunction(depth):
    """R(c) conjoined with itself depth times: depth + 1 distinct formulas,
    2^depth leaves when read as a tree."""
    f = atom("R", c)
    for _ in range(depth):
        f = conj(f, f)
    return f


def test_shared_subformulas_are_walked_once(within):
    f = _shared_conjunction(60)
    with within(1.0):
        assert closure([f]).stats.size == 61
        v = entails([f], atom("R", c), V.QPL)
        assert v.entailed and v.stats["universe_size"] == 61
        session = Session([f], [atom("R", c), f], V.QPL)
        verdicts = session.verdicts()
    assert session.stats["universe_size"] == 61
    for v in verdicts:
        assert v.entailed
        assert check_derivation(v.proof, V.QPL, [f], v.query).ok


# ------------------------------------------------------------------ session

def test_session_state_does_not_depend_on_the_queries():
    hyps = [p, imp(p, q), imp(q, r)]
    first, second = Session(hyps, [q], V.ORIGINAL), Session(hyps, [q, r], V.ORIGINAL)
    assert first.closure_table.universe == second.closure_table.universe
    assert first.state.derived == second.state.derived
    assert _provenance(first.state) == _provenance(second.state)
    assert first.stats == second.stats
    assert first.state.derived[first.closure_table.index[r]]


def test_saturate_bottom_derives_every_target():
    hyps = [p, imp(p, bot())]
    queries = [q, r, s]
    session = Session(hyps, queries, V.L2)
    state, idx = session.state, session.closure_table.index
    assert state.bot_flag and all(state.derived)
    prov = _provenance(state)
    for f in queries:
        assert prov[idx[f]] == ("rule", "BotE", (idx[bot()],))
    assert [v.entailed for v in session.verdicts()] == [True, True, True]


def test_session_builds_one_closure_for_all_queries(monkeypatch):
    calls = []
    real = en.closure
    monkeypatch.setattr(en, "closure", lambda *a, **k: calls.append(1) or real(*a, **k))
    session = Session([p, imp(p, q)], [q, r, imp(p, q)], V.ORIGINAL)
    got = session.verdicts()
    assert len(calls) == 1
    assert [v.entailed for v in got] == [True, False, True]
    assert all(v.stats == session.stats for v in got)
    assert all(v.closure_table is session.closure_table for v in got)
    assert got[1].proof is None


def test_session_resaturates_once_for_weaker_variant(monkeypatch):
    from qpl import semantics

    calls = []
    real = semantics.saturate
    monkeypatch.setattr(
        semantics, "saturate", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    session = Session([p], [q, r, disj(p, q)], V.ORIGINAL)
    models = [verdict_countermodel(v) for v in session.verdicts()]
    assert len(calls) == 1
    assert models[0] is not None and models[1] is not None
    assert models[2] is None


def test_session_agrees_with_single_queries_and_oracle():
    """Differential gate for the shared session: on random multi-query
    instances of every variant, joint verdicts equal single-query ones,
    every proof checks, every countermodel refutes its query on the joint
    closure, and under qpl the verdicts equal the brute-force oracle's."""
    rng = random.Random(2307)
    counts = {"instances": 0, "proofs": 0, "models": 0, "oracle": 0}
    for i in range(600):
        variant = V(i % 5)
        hyps, queries = random_instance(rng, None, rng.randrange(3, 6), variant)
        session = Session(hyps, queries, variant)
        verdicts = session.verdicts()
        ct = session.closure_table
        assert [v.query for v in verdicts] == queries
        for v, q in zip(verdicts, queries):
            single = entails(hyps, q, variant, with_proof=False)
            assert v.entailed == single.entailed, (hyps, q, variant)
            if v.entailed:
                rep = check_derivation(v.proof, variant, set(hyps),
                                       expected_conclusion=q)
                assert rep.ok, (hyps, q, variant, rep)
                counts["proofs"] += 1
                continue
            mo = verdict_countermodel(v)
            if mo is None:
                assert entails(hyps, q, V.QPL, with_proof=False).entailed
            else:
                m, o = mo
                memo: dict = {}
                assert all(satisfies(m, o, h, ct, memo) for h in hyps)
                assert not satisfies(m, o, q, ct, memo)
                counts["models"] += 1
        if variant == V.QPL:
            for v, q in zip(verdicts, queries):
                assert v.entailed == semantic_yields_bruteforce(hyps, q), (hyps, q)
                counts["oracle"] += 1
        counts["instances"] += 1
    assert counts["instances"] == 600
    assert counts["proofs"] >= 300 and counts["models"] >= 300
    assert counts["oracle"] >= 360
