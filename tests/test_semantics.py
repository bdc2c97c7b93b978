"""Override-semantics tests: evaluator clauses, brute-force yield,
countermodel construction, and the consistency equation between the
derived set and the constructed model."""

import itertools
import json
import random

import pytest

from qpl import semantics, syntax
from qpl.calculus import CalculusVariant as V
from qpl.engine import HYPOTHESIS, SaturationState, Session, entails
from qpl.semantics import (
    CountermodelError,
    OverrideFn,
    StandardModel,
    TooLarge,
    countermodel,
    countermodel_json,
    ground_atoms,
    satisfies,
    override_domain,
    relation_arities,
    semantic_yields_bruteforce,
    verdict_countermodel,
)
from qpl.syntax import (
    And,
    Atom,
    Bot,
    Forall,
    Imp,
    Or,
    Top,
    atom,
    bot,
    closure,
    conj,
    const,
    disj,
    exists,
    forall,
    imp,
    render,
    top,
    var,
)

p = atom("p")
q = atom("q")
r = atom("r")
A = atom("A")
B = atom("B")
C = atom("C")


def Rc():
    return atom("R", const("c"))


def Rd():
    return atom("R", const("d"))


def model_from_true(ct, true_formulas):
    rel = {}
    true_set = set(true_formulas)
    for a in ground_atoms(ct):
        rel[a] = a in true_set
    return StandardModel(ct.params, rel)


def enumerate_semantics(ct):
    slots = ground_atoms(ct)
    dom = override_domain(ct)
    for bits in itertools.product([False, True], repeat=len(slots)):
        rel = dict(zip(slots, bits))
        m = StandardModel(ct.params, rel)
        for obits in itertools.product([False, True], repeat=len(dom)):
            yield m, OverrideFn(dict(zip(dom, obits)))


def naive_holds(m, o, f, ct):
    """The override semantics read clause by clause on booleans, apart from
    the library's evaluator, as an independent reference for it."""
    def ev(g):
        return naive_holds(m, o, g, ct)

    cls = type(f)
    if cls is Atom:
        return m.holds(f)
    if cls in (Top, Bot):
        return cls is Top
    if cls is And:
        return ev(f.l) and ev(f.r)
    if cls is Or:
        return ev(f.l) or ev(f.r) or (f.l is not f.r and o.assignment[f])
    if cls is Imp:
        return f.l is f.r or ev(f.r) or (not ev(f.l) and o.assignment[f])
    if f.var not in f.body.free:
        return ev(f.body)
    insts = [ev(g) for g in ct.sub_instances[f]]
    if cls is Forall:
        return o.assignment[f] and all(insts)
    return o.assignment[f] or any(insts)


def naive_yields(hyps, query, ct):
    for m, o in enumerate_semantics(ct):
        if all(naive_holds(m, o, h, ct) for h in hyps):
            if not naive_holds(m, o, query, ct):
                return False
    return True


# ------------------------------------------------------ override domain

def test_override_domain_skips_reflexive_implication():
    ct = closure([disj(p, q), imp(p, p)])
    assert override_domain(ct) == [disj(p, q)]


def test_override_domain_includes_open_quantifier():
    ct = closure([forall("x", atom("R", var("x"))), Rc()])
    assert override_domain(ct) == [forall("x", atom("R", var("x")))]


def test_override_domain_skips_equal_disjuncts():
    ct = closure([disj(p, p)])
    assert override_domain(ct) == []


def test_override_domain_skips_vacuous_quantifiers():
    ct = closure([exists("x", atom("R", var("x"))), forall("y", p)])
    assert override_domain(ct) == [exists("x", atom("R", var("x")))]


def test_override_domain_universe_order():
    ct = closure([conj(imp(p, q), disj(q, r))])
    dom = override_domain(ct)
    idx = ct.index
    assert dom == sorted(dom, key=lambda f: idx[f])
    assert set(dom) == {imp(p, q), disj(q, r)}
    assert override_domain(ct) == dom


# ------------------------------------------- relation symbols and slots

def test_relation_arities_first_occurrence():
    ct = closure([conj(atom("S"), atom("K", const("c"), const("d"))), Rc()])
    assert relation_arities(ct) == {"S": 0, "K": 2, "R": 1}
    assert list(relation_arities(ct)) == ["S", "K", "R"]


def test_relation_arities_sees_bound_bodies():
    f = forall("x", exists("y", atom("K", var("x"), var("y"))))
    ct = closure([conj(f, atom("M", const("e")))])
    assert relation_arities(ct) == {"K": 2, "M": 1}


def test_relation_arities_rejects_mixed_arity():
    ct = closure([conj(atom("R"), atom("R", const("c")))])
    with pytest.raises(ValueError):
        relation_arities(ct)


def test_ground_atoms_full_table_order():
    ct = closure([conj(atom("K", const("c"), const("d")), atom("S"))])
    c, d = const("c"), const("d")
    assert ground_atoms(ct) == [
        atom("K", c, c),
        atom("K", c, d),
        atom("K", d, c),
        atom("K", d, d),
        atom("S"),
    ]


def test_model_holds_and_default():
    ct = closure([Rc()])
    m = model_from_true(ct, [Rc()])
    assert m.holds(Rc())
    assert not m.holds(atom("R", const("zz")))


# ------------------------------------------------------------ evaluator

def test_truth_constants():
    ct = closure([conj(top(), bot())])
    m = model_from_true(ct, [])
    o = OverrideFn({})
    assert satisfies(m, o, top(), ct)
    assert not satisfies(m, o, bot(), ct)


def test_conjunction_needs_both():
    ct = closure([conj(p, q)])
    o = OverrideFn({})
    assert satisfies(model_from_true(ct, [p, q]), o, conj(p, q), ct)
    assert not satisfies(model_from_true(ct, [p]), o, conj(p, q), ct)


def test_transitivity_countermodel_values():
    s = [imp(A, B), imp(B, C), imp(A, C)]
    ct = closure(s)
    m = model_from_true(ct, [])
    o = OverrideFn({imp(A, B): True, imp(B, C): True, imp(A, C): False})
    assert satisfies(m, o, imp(A, B), ct)
    assert satisfies(m, o, imp(B, C), ct)
    assert not satisfies(m, o, imp(A, C), ct)


def test_disjunction_override_bit():
    ct = closure([disj(p, q)])
    m = model_from_true(ct, [])
    assert satisfies(m, OverrideFn({disj(p, q): True}), disj(p, q), ct)
    assert not satisfies(m, OverrideFn({disj(p, q): False}), disj(p, q), ct)


def test_equal_disjuncts_follow_the_disjunct():
    ct = closure([disj(p, p)])
    o = OverrideFn({})
    assert satisfies(model_from_true(ct, [p]), o, disj(p, p), ct)
    assert not satisfies(model_from_true(ct, []), o, disj(p, p), ct)


def test_reflexive_implication_always_holds():
    ct = closure([imp(p, p)])
    assert satisfies(model_from_true(ct, []), OverrideFn({}), imp(p, p), ct)


def test_implication_clause_table():
    ct = closure([imp(p, q)])
    f = imp(p, q)
    on = OverrideFn({f: True})
    off = OverrideFn({f: False})
    assert satisfies(model_from_true(ct, [q]), off, f, ct)
    assert not satisfies(model_from_true(ct, [p]), on, f, ct)
    assert satisfies(model_from_true(ct, []), on, f, ct)
    assert not satisfies(model_from_true(ct, []), off, f, ct)


def test_universal_needs_instances_and_bit():
    fa = forall("x", atom("R", var("x")))
    ct = closure([fa, Rc(), Rd()])
    on = OverrideFn({fa: True})
    off = OverrideFn({fa: False})
    assert satisfies(model_from_true(ct, [Rc(), Rd()]), on, fa, ct)
    assert not satisfies(model_from_true(ct, [Rc(), Rd()]), off, fa, ct)
    assert not satisfies(model_from_true(ct, [Rc()]), on, fa, ct)


def test_existential_instance_or_bit():
    ex = exists("x", atom("R", var("x")))
    ct = closure([ex, Rc()])
    on = OverrideFn({ex: True})
    off = OverrideFn({ex: False})
    assert satisfies(model_from_true(ct, []), on, ex, ct)
    assert not satisfies(model_from_true(ct, []), off, ex, ct)
    assert satisfies(model_from_true(ct, [Rc()]), off, ex, ct)


def test_vacuous_quantifiers_follow_the_body():
    fa = forall("y", p)
    ex = exists("y", q)
    ct = closure([conj(fa, ex)])
    o = OverrideFn({})
    assert satisfies(model_from_true(ct, [p]), o, fa, ct)
    assert not satisfies(model_from_true(ct, []), o, fa, ct)
    assert satisfies(model_from_true(ct, [q]), o, ex, ct)
    assert not satisfies(model_from_true(ct, []), o, ex, ct)


def test_override_recursion_sees_inner_override():
    f = imp(disj(p, q), r)
    ct = closure([f])
    m = model_from_true(ct, [])
    o = OverrideFn({f: True, disj(p, q): True})
    # antecedent is override-true, consequent false: implication fails
    assert not satisfies(m, o, f, ct)
    o2 = OverrideFn({f: True, disj(p, q): False})
    assert satisfies(m, o2, f, ct)


def test_evaluator_rejects_foreign_formula():
    ct = closure([p])
    with pytest.raises(ValueError):
        satisfies(model_from_true(ct, []), OverrideFn({}), q, ct)


# ------------------------------------------------------ brute-force yield

YIELD_VECTORS = [
    ([A], disj(A, B), True),
    ([], imp(A, A), True),
    ([imp(A, B), imp(B, C)], imp(A, C), False),
    ([p], q, False),
    ([conj(p, q)], conj(q, p), True),
    ([disj(p, q)], p, False),
    ([p], disj(p, q), True),
    ([exists("x", atom("R", var("x")))], Rc(), False),
    ([Rc()], exists("x", atom("R", var("x"))), True),
    ([forall("x", atom("R", var("x")))], Rc(), True),
    ([Rc()], forall("x", atom("R", var("x"))), False),
    ([imp(top(), bot())], bot(), True),
    ([disj(imp(top(), bot()), bot())], bot(), False),
    ([], top(), True),
    ([bot()], q, True),
]


@pytest.mark.parametrize("hyps,query,want", YIELD_VECTORS)
def test_semantic_yield_vectors(hyps, query, want):
    assert semantic_yields_bruteforce(hyps, query) is want


@pytest.mark.parametrize("hyps,query,want", YIELD_VECTORS)
def test_semantic_yield_matches_engine(hyps, query, want):
    assert entails(hyps, query, V.QPL).entailed is want


def test_bruteforce_matches_naive_enumeration():
    rng = random.Random(20260817)
    checked = 0
    while checked < 40:
        hyps, query, ct = _draw_instance(rng, max_exponent=10)
        if ct is None:
            continue
        fast = semantic_yields_bruteforce(hyps, query)
        slow = naive_yields(hyps, query, ct)
        assert fast is slow
        checked += 1


def test_satisfies_matches_naive_evaluator():
    rng = random.Random(20261018)
    checked = 0
    while checked < 20:
        hyps, query, ct = _draw_instance(rng, max_exponent=8)
        if ct is None:
            continue
        for m, o in enumerate_semantics(ct):
            memo = {}
            for f in ct.universe:
                assert satisfies(m, o, f, ct, memo) is naive_holds(m, o, f, ct)
        checked += 1


def test_too_large_binary_relation():
    cs = [const(n) for n in "abcde"]
    hyps = [atom("K", cs[0], cs[1]), atom("K", cs[4], cs[4])]
    query = atom("K", cs[2], cs[3])
    with pytest.raises(TooLarge):
        semantic_yields_bruteforce(hyps, query)


def test_too_large_is_refused_before_the_atoms_are_built():
    # 10^5 ground atoms over 10 parameters; counting them builds none
    cs = [const(f"c{i}") for i in range(10)]
    before = len(syntax._FORMULAS)
    with pytest.raises(TooLarge, match="exponent 100000 exceeds cap 24"):
        semantic_yields_bruteforce([atom("R", *cs[:5])], atom("R", *cs[5:]))
    assert len(syntax._FORMULAS) - before < 1000


def test_oracle_builds_no_ground_atom_outside_the_universe():
    # R(d) and P(c) are ground atoms over {c, d} that no member contains:
    # the oracle gives them no bit and builds neither, but its cap still
    # counts all four ground atoms
    hyps = [atom("R", const("c")), atom("P", const("d"))]
    query = conj(*hyps)
    before = len(syntax._FORMULAS)
    assert semantic_yields_bruteforce(hyps, query) is True
    assert semantic_yields_bruteforce(hyps[:1], query) is False
    assert len(syntax._FORMULAS) == before
    with pytest.raises(TooLarge, match="exponent 4 exceeds cap 3"):
        semantic_yields_bruteforce(hyps, query, exponent_cap=3)


def test_exponent_cap_kwarg():
    with pytest.raises(TooLarge):
        semantic_yields_bruteforce([disj(p, q)], p, exponent_cap=2)
    assert semantic_yields_bruteforce([disj(p, q)], p, exponent_cap=3) is False
    for cap in (0, -1):
        with pytest.raises(ValueError, match="^oracle cap must be positive$"):
            semantic_yields_bruteforce([disj(p, q)], p, exponent_cap=cap)


# -------------------------------------------------- random dual routing

def _draw_formula(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        k = rng.randrange(6)
        if k == 0:
            return p
        if k == 1:
            return q
        if k == 2:
            return atom("R", const(rng.choice("cd")))
        if k == 3:
            return atom("R", var("x"))
        if k == 4:
            return top()
        return bot()
    k = rng.randrange(5)
    if k == 0:
        return conj(_draw_formula(rng, depth - 1), _draw_formula(rng, depth - 1))
    if k == 1:
        return disj(_draw_formula(rng, depth - 1), _draw_formula(rng, depth - 1))
    if k == 2:
        return imp(_draw_formula(rng, depth - 1), _draw_formula(rng, depth - 1))
    body = _draw_formula(rng, depth - 1)
    if k == 3:
        return forall("x", body)
    return exists("x", body)


def _close_formula(f):
    if "x" in f.free:
        return forall("x", f)
    return f


def _draw_instance(rng, max_exponent):
    nh = rng.randrange(1, 4)
    hyps = [_close_formula(_draw_formula(rng, rng.randrange(1, 4))) for _ in range(nh)]
    query = _close_formula(_draw_formula(rng, rng.randrange(1, 4)))
    ct = closure([*hyps, query])
    k = len(ground_atoms(ct)) + len(override_domain(ct))
    if k > max_exponent:
        return hyps, query, None
    return hyps, query, ct


def test_engine_agrees_with_bruteforce_random():
    rng = random.Random(99)
    seen = {True: 0, False: 0}
    checked = 0
    while checked < 60:
        hyps, query, ct = _draw_instance(rng, max_exponent=14)
        if ct is None:
            continue
        want = semantic_yields_bruteforce(hyps, query)
        got = entails(hyps, query, V.QPL).entailed
        assert got is want, (list(map(render, hyps)), render(query))
        seen[want] += 1
        checked += 1
    assert seen[True] >= 5
    assert seen[False] >= 5


def test_proof_labels_hold_in_every_model_of_hyps():
    rng = random.Random(424242)
    checked = 0
    while checked < 12:
        hyps, query, ct0 = _draw_instance(rng, max_exponent=9)
        if ct0 is None:
            continue
        v = entails(hyps, query, V.QPL)
        if not v.entailed:
            continue
        ct = v.closure_table
        labels = [n.label for n in v.proof.nodes]
        for m, o in enumerate_semantics(ct):
            if all(satisfies(m, o, h, ct) for h in hyps):
                for lab in labels:
                    assert satisfies(m, o, lab, ct)
        checked += 1
    assert checked == 12


# ----------------------------------------------------------- countermodel

def test_countermodel_transitivity_exact():
    hyps = [imp(A, B), imp(B, C)]
    v = entails(hyps, imp(A, C), V.QPL)
    assert not v.entailed
    m, o = countermodel(hyps, imp(A, C), v.session.state, v.closure_table)
    assert m.universe == (const("_0"),)
    assert all(val is False for val in m.relations.values())
    assert o.assignment == {imp(A, B): True, imp(B, C): True, imp(A, C): False}


def test_countermodel_atomic():
    v = entails([p], q, V.QPL)
    m, o = countermodel([p], q, v.session.state, v.closure_table)
    assert m.holds(p)
    assert not m.holds(q)
    assert o.assignment == {}


def test_countermodel_existential():
    ex = exists("x", atom("R", var("x")))
    v = entails([ex], Rc(), V.QPL)
    assert not v.entailed
    m, o = countermodel([ex], Rc(), v.session.state, v.closure_table)
    assert not m.holds(Rc())
    assert o.assignment == {ex: True}


def test_countermodel_guarded_bottom():
    h = disj(imp(top(), bot()), bot())
    v = entails([h], bot(), V.QPL)
    assert not v.entailed
    m, o = countermodel([h], bot(), v.session.state, v.closure_table)
    assert o.assignment == {h: True, imp(top(), bot()): False}
    assert not any(m.relations.values())


def test_unguarded_bottom_is_entailed():
    v = entails([imp(top(), bot())], bot(), V.QPL)
    assert v.entailed
    assert verdict_countermodel(v) is None


def test_countermodel_free_variable_is_a_parameter():
    ry = atom("R", var("y"))
    v = entails([ry], Rc(), V.QPL)
    m, o = countermodel([ry], Rc(), v.session.state, v.closure_table)
    assert m.universe == (var("y"), const("c"))
    assert m.holds(ry)
    assert not m.holds(Rc())


def test_countermodel_relations_hold_universe_atoms():
    h = atom("K", const("c"), const("d"))
    g = atom("K", const("d"), const("c"))
    v = entails([h], g, V.QPL)
    m, _ = countermodel([h], g, v.session.state, v.closure_table)
    c, d = const("c"), const("d")
    assert m.relations == {h: True, g: False}
    assert m.holds(h) and not m.holds(g)
    assert not m.holds(atom("K", c, c)) and not m.holds(atom("K", d, d))


def test_countermodel_keeps_ground_atom_order():
    # params are (d, c), and the universe lists q and S(c) before p, and
    # R(c, d) before R(d, c); the relations follow ground_atoms instead:
    # relation first seen, then parameter indices
    c, d = const("c"), const("d")
    hyps = [
        atom("T", d, c),
        conj(conj(p, conj(atom("R", c, d), atom("R", d, c))), atom("S", c)),
    ]
    v = entails(hyps, q, V.QPL)
    m, o = verdict_countermodel(v)
    ct = v.closure_table
    assert [a for a in ct.universe if a.__class__ is Atom][:4] == [
        atom("T", d, c), q, atom("S", c), p
    ]
    assert list(m.relations) == [a for a in ground_atoms(ct) if a in ct.index]
    assert countermodel_json(m, o)["atoms_true"] == [
        "T(d, c)", "p", "R(d, c)", "R(c, d)", "S(c)"
    ]


def test_countermodel_builds_no_ground_atom_outside_the_universe():
    # 10 parameters: a full table of R/6 and S/4 would be 1,010,000 atoms
    k = [const(n) for n in "abcdefghij"]
    hyps = [atom("R", *k[:6]), atom("S", *k[6:])]
    query = atom("S", k[0], k[0], k[0], k[0])
    v = entails(hyps, query, V.QPL)
    before = len(syntax._FORMULAS)
    m, o = verdict_countermodel(v)
    assert len(syntax._FORMULAS) - before < 1000
    assert countermodel_json(m, o)["atoms_true"] == [
        "R(a, b, c, d, e, f)", "S(g, h, i, j)"
    ]


def test_countermodel_rejects_derived_query():
    v = entails([p], p, V.QPL)
    with pytest.raises(ValueError):
        countermodel([p], p, v.session.state, v.closure_table)


def test_countermodel_rejects_foreign_hypothesis():
    v = entails([p], q, V.QPL)
    with pytest.raises(ValueError):
        countermodel([r], q, v.session.state, v.closure_table)


def test_countermodel_detects_inconsistent_state():
    ct = closure([conj(p, q)])
    idx = ct.index
    n = len(ct.universe)
    derived = bytearray(n)
    for f in (p, q):
        derived[idx[f]] = 1
    fake = SaturationState(
        derived=derived,
        rule=bytearray([HYPOTHESIS] * n),
        premise1=[-1] * n,
        premise2=[-1] * n,
        bot_flag=False,
        instances_fired=0,
        derived_count=2,
    )
    with pytest.raises(CountermodelError):
        countermodel([p, q], conj(p, q), fake, ct)


def test_verdict_countermodel_reroutes_subvariant():
    v = entails([p], forall("x", p), V.L2)
    assert not v.entailed
    assert verdict_countermodel(v) is None

    v2 = entails([p], q, V.ORIGINAL)
    got = verdict_countermodel(v2)
    assert got is not None
    m, o = got
    assert m.holds(p) and not m.holds(q)

    v3 = entails([p], p, V.QPL)
    assert verdict_countermodel(v3) is None


def test_weaker_session_resaturates_at_qpl_strength_once(monkeypatch):
    # l2 refuses all four queries; the qpl fixpoint derives forall x. p, which
    # gets no countermodel, and leaves q, r and q & r underived, which share
    # one model: one re-saturation, however many refusals ask for it
    session = Session([p], [q, forall("x", p), r, conj(q, r)], V.L2)
    verdicts = session.verdicts()
    assert not any(v.entailed for v in verdicts)
    assert session.qpl_fixpoint is None
    calls = []

    def saturate(*args):
        calls.append(args[0])
        return real(*args)

    real = semantics.saturate
    monkeypatch.setattr(semantics, "saturate", saturate)
    got = [verdict_countermodel(v) for v in verdicts + verdicts]
    assert calls == [session.hyps]
    assert isinstance(session.qpl_fixpoint, SaturationState)
    assert session.qpl_fixpoint is not session.state
    assert got[1] is got[5] is None
    models = [got[i] for i in (0, 2, 3, 4, 6, 7)]
    assert all(m is models[0] for m in models)
    assert models[0] is session.qpl_countermodel


def test_countermodel_random_sweep():
    rng = random.Random(7)
    checked = 0
    while checked < 40:
        hyps, query, ct0 = _draw_instance(rng, max_exponent=14)
        if ct0 is None:
            continue
        v = entails(hyps, query, V.QPL)
        if v.entailed:
            continue
        m, o = countermodel(hyps, query, v.session.state, v.closure_table)
        ct = v.closure_table
        assert all(satisfies(m, o, h, ct) for h in hyps)
        assert not satisfies(m, o, query, ct)
        checked += 1


# ------------------------------------------------------------------ JSON

def test_countermodel_json_transitivity():
    hyps = [imp(A, B), imp(B, C)]
    v = entails(hyps, imp(A, C), V.QPL)
    m, o = countermodel(hyps, imp(A, C), v.session.state, v.closure_table)
    doc = countermodel_json(m, o)
    assert doc == {
        "universe": ["_0"],
        "atoms_true": [],
        "override": {"A -> B": True, "B -> C": True, "A -> C": False},
    }
    assert json.dumps(doc) == json.dumps(countermodel_json(m, o))


def test_countermodel_json_atoms_and_quantifier():
    ex = exists("x", atom("R", var("x")))
    hyps = [ex, atom("K", const("c"), const("d"))]
    v = entails(hyps, Rc(), V.QPL)
    m, o = countermodel(hyps, Rc(), v.session.state, v.closure_table)
    doc = countermodel_json(m, o)
    assert doc["universe"] == ["c", "d"]
    assert doc["atoms_true"] == ["K(c, d)"]
    assert doc["override"] == {"exists x. R(x)": True}
