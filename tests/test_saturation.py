"""Differential gate for saturation: engine.saturate against a naive
fixpoint over enumerated rule instances.

The reference enumerates every rule instance over the closure universe
from the members' classes, one (rule name, premises, conclusion) triple
each, and applies them all until nothing changes. It shares nothing with
compile_rules and saturate but the closure they both run on. The engine
must derive the same members, fire as many instances as have every
premise derived (unless falsity stops its run early), and leave
provenance that calculus.match_rule accepts entry by entry.
"""

from __future__ import annotations

import random

from qpl import engine as en
from qpl.calculus import CalculusVariant as V
from qpl.calculus import match_rule
from qpl.engine import Session, compile_rules
from qpl.generators import classical_horn_bottom, random_horn, random_instance
from qpl.semantics import semantic_yields_bruteforce
from qpl.syntax import And, Exists, Forall, Imp, Or, Top, bot


def _rule_instances(ct, variant):
    """Every rule instance over the universe, axioms apart: (instances,
    axioms) with instances as (rule name, premises, conclusion)."""
    out, axioms = [], []
    for f in ct.universe:
        if isinstance(f, Imp):
            out.append(("ImpI", (f.r,), f))
            out.append(("ImpE", (f.l, f), f.r))
            if variant >= V.PFQPL and f.l is f.r:
                axioms.append(("ImpAx", f))
        elif isinstance(f, And):
            out.append(("AndI", (f.l, f.r), f))
            out.append(("AndE_L", (f,), f.l))
            out.append(("AndE_R", (f,), f.r))
        elif isinstance(f, Or) and variant >= V.L1:
            out.append(("OrI_L", (f.l,), f))
            if f.l is f.r:
                out.append(("OrE", (f,), f.l))
            else:
                out.append(("OrI_R", (f.r,), f))
        elif isinstance(f, (Forall, Exists)) and variant >= V.QPL:
            vacuous = f.var not in f.body.free
            for g in ct.sub_instances[f]:
                if isinstance(f, Forall):
                    out.append(("ForallE", (f,), g))
                else:
                    out.append(("ExistsI", (g,), f))
            if vacuous and isinstance(f, Forall):
                out.append(("ForallI", (f.body,), f))
            elif vacuous:
                out.append(("ExistsE", (f,), f.body))
        elif isinstance(f, Top):
            axioms.append(("TopI", f))
    return out, axioms


def _naive_fixpoint(hyps, ct, variant):
    """(derived members, how many instances have every premise derived,
    whether falsity flooded the universe, how many instances there are),
    by applying every instance until none adds a member."""
    instances, axioms = _rule_instances(ct, variant)
    derived = set(hyps) | {f for _, f in axioms}
    grew = True
    while grew:
        grew = False
        for _, premises, conclusion in instances:
            if conclusion not in derived and all(p in derived for p in premises):
                derived.add(conclusion)
                grew = True
    flooded = variant >= V.L2 and bot() in derived
    if flooded:
        derived = set(ct.universe)
    applicable = sum(all(p in derived for p in ps) for _, ps, _ in instances)
    return derived, applicable, flooded, len(instances)


def _check_session(hyps, queries, variant):
    session = Session(hyps, queries, variant)
    ct, state = session.closure_table, session.state
    universe = ct.universe
    derived, applicable, flooded, n_instances = _naive_fixpoint(
        session.hyps, ct, variant
    )
    case = (hyps, queries, variant)
    assert {universe[m] for m, d in enumerate(state.derived) if d} == derived, case
    assert state.bot_flag == flooded, case
    assert session.stats["instances_compiled"] == n_instances, case
    assert len(compile_rules(ct, variant).instances) == n_instances, case
    if not flooded:
        assert state.instances_fired == applicable, case
    hypset = set(session.hyps)
    for m, f in enumerate(universe):
        if not state.derived[m]:
            continue
        code, a, b = state.rule[m], state.premise1[m], state.premise2[m]
        if code == en.HYPOTHESIS:
            assert f in hypset, case
            continue
        premises = [universe[i] for i in (a, b) if i >= 0]
        assert all(state.derived[i] for i in (a, b) if i >= 0), case
        assert match_rule(variant, en.RULE_NAMES[code], premises, f) is None, (
            case, f, en.RULE_NAMES[code], premises
        )
    return session


def test_saturate_matches_naive_fixpoint_on_random_instances():
    rng = random.Random(2511)
    oracle = 0
    for variant in V:
        for _ in range(1000):
            hyps, queries = random_instance(rng, None, rng.randrange(1, 4), variant)
            session = _check_session(hyps, queries, variant)
            if variant is V.QPL:
                for v in session.verdicts(with_proof=False):
                    assert v.entailed == semantic_yields_bruteforce(hyps, v.query), (
                        hyps, v.query
                    )
                    oracle += 1
    assert oracle >= 1000


def test_saturate_matches_naive_fixpoint_on_horn_sets():
    """Query false; under qpl the verdict is the classical Horn one (the
    brute-force oracle's exponent is out of reach here)."""
    rng = random.Random(2512)
    floods = 0
    for _ in range(200):
        clauses = random_horn(rng, rng.randrange(1, 7))
        hyps = [c.to_formula() for c in clauses]
        for variant in V:
            session = _check_session(hyps, [bot()], variant)
            floods += session.state.bot_flag
            if variant is V.QPL:
                params = session.closure_table.params
                want = classical_horn_bottom(clauses, params)
                assert session.state.bot_flag == want, hyps
    assert floods >= 50
