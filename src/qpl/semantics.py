"""Override semantics over standard structures.

A structure lives on the parameter set of the closure: parameters name
themselves, relation symbols are those occurring in the input. On top of
the classical truth of ground atoms, an override function fixes a truth
value for every non-degenerate disjunction and implication and for every
quantified closure formula whose bound variable really occurs; those
bits replace the classical value at exactly those formulas. Entailment
against this semantics is decidable by finite enumeration, which is what
the brute-force oracle does, and every failed engine verdict can be
turned into an explicit countermodel whose override bits mirror the
derived set.

One evaluator, truth_mask, implements the semantics: it computes a
formula's truth in a batch of models at once, one bit per model.
satisfies and the agreement check inside countermodel run it on a batch
of one; the oracle runs it once on the batch of every model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .calculus import CalculusVariant
from .engine import SaturationState, Verdict, saturate
from .syntax import (
    And,
    Atom,
    Bot,
    ClosureTable,
    DEFAULT_CLOSURE_CAP,
    Exists,
    Forall,
    Formula,
    Imp,
    Or,
    ResourceLimit,
    Term,
    Top,
    atom,
    closure,
    render,
)


class TooLarge(ResourceLimit):
    """Enumeration would exceed the exponent cap; use the engine instead."""


class CountermodelError(RuntimeError):
    """The constructed model disagrees with the derived set somewhere."""


@dataclass(frozen=True)
class StandardModel:
    universe: tuple[Term, ...]
    relations: dict  # (relation name, argument tuple) -> bool, full tables

    def holds(self, f: Atom) -> bool:
        return self.relations.get((f.rel, f.args), False)


@dataclass(frozen=True)
class OverrideFn:
    assignment: dict  # Formula -> bool, keyed on the override domain


def relation_arities(ct: ClosureTable) -> dict:
    """Relation symbols occurring anywhere in the universe, in first
    left-to-right occurrence order, mapped to their arity."""
    out: dict = {}
    for f in ct.universe:
        stack = [f]
        while stack:
            g = stack.pop()
            cls = g.__class__
            if cls is Atom:
                ar = len(g.args)
                old = out.setdefault(g.rel, ar)
                if old != ar:
                    raise ValueError(
                        f"relation {g.rel} used with arities {old} and {ar}"
                    )
            elif cls in (And, Or, Imp):
                stack.append(g.r)
                stack.append(g.l)
            elif cls in (Forall, Exists):
                stack.append(g.body)
    return out


def ground_atoms(ct: ClosureTable) -> list[Formula]:
    """Every atom over the parameter set, grouped by relation in
    first-occurrence order, argument tuples in parameter-index order."""
    params = ct.params.elements
    out: list[Formula] = []
    for rel, ar in relation_arities(ct).items():
        for combo in itertools.product(params, repeat=ar):
            out.append(atom(rel, *combo))
    return out


def override_domain(ct: ClosureTable) -> list[Formula]:
    out: list[Formula] = []
    for f in ct.universe:
        cls = f.__class__
        if cls in (Or, Imp):
            if f.l is not f.r:
                out.append(f)
        elif cls in (Forall, Exists):
            if f.var in f.body.free:
                out.append(f)
    return out


def truth_mask(f, atoms, overrides, full, ct, memo):
    """Truth of the closure member f in a batch of models, as a bit mask.

    Bit i of a mask is f's value in the i-th model of the batch and full
    has one bit per model. atoms maps a ground atom, and overrides an
    override-domain formula, to its mask; memo caches masks per formula
    across calls over the same batch. A single model is the batch of one,
    with full = 1 and each mask a plain truth value.
    """
    got = memo.get(f)
    if got is not None:
        return got
    cls = f.__class__
    if cls is Atom:
        m = atoms(f)
    elif cls is Top:
        m = full
    elif cls is Bot:
        m = 0
    elif cls is And:
        m = truth_mask(f.l, atoms, overrides, full, ct, memo)
        m &= truth_mask(f.r, atoms, overrides, full, ct, memo)
    elif cls is Or:
        m = truth_mask(f.l, atoms, overrides, full, ct, memo)
        if f.l is not f.r:
            m |= truth_mask(f.r, atoms, overrides, full, ct, memo)
            m |= overrides(f)
    elif cls is Imp:
        if f.l is f.r:
            m = full
        else:
            m = truth_mask(f.r, atoms, overrides, full, ct, memo)
            lhs = truth_mask(f.l, atoms, overrides, full, ct, memo)
            m |= full & ~lhs & overrides(f)
    elif f.var not in f.body.free:
        m = truth_mask(f.body, atoms, overrides, full, ct, memo)
    elif cls is Forall:
        m = overrides(f)
        for g in ct.sub_instances[f]:
            m &= truth_mask(g, atoms, overrides, full, ct, memo)
    else:
        m = overrides(f)
        for g in ct.sub_instances[f]:
            m |= truth_mask(g, atoms, overrides, full, ct, memo)
    memo[f] = m
    return m


def satisfies(model: StandardModel, override: OverrideFn, x: Formula,
             ct: ClosureTable, memo: dict | None = None) -> bool:
    if x not in ct.index:
        raise ValueError("formula outside the closure universe")
    return bool(
        truth_mask(x, model.holds, override.assignment.__getitem__, 1, ct,
                   {} if memo is None else memo)
    )


def semantic_yields_bruteforce(
    hyps,
    query: Formula,
    *,
    exponent_cap: int = 24,
    closure_cap: int = DEFAULT_CLOSURE_CAP,
) -> bool:
    """Exhaustively quantify over structures and override functions.

    Every combination of atom and override bits is one model of a single
    batch of 2^k, so truth of every closure formula in all of them comes
    out of one truth_mask pass over the closure.
    """
    hyp_list = list(hyps)
    ct = closure([*hyp_list, query], cap=closure_cap)
    slots = ground_atoms(ct)
    dom = override_domain(ct)
    k = len(slots) + len(dom)
    if k > exponent_cap:
        raise TooLarge(f"enumeration exponent {k} exceeds cap {exponent_cap}")
    total = 1 << k  # combinations; masks below carry one bit per combination
    full = (1 << total) - 1
    masks: list[int] = []
    for j in range(k):
        half = 1 << j
        m = ((1 << half) - 1) << half
        width = half << 1
        while width < total:
            m |= m << width
            width <<= 1
        masks.append(m)
    bits = dict(zip([*slots, *dom], masks)).__getitem__
    memo: dict = {}
    hm = full
    for h in hyp_list:
        hm &= truth_mask(h, bits, bits, full, ct, memo)
    return hm & ~truth_mask(query, bits, bits, full, ct, memo) & full == 0


def countermodel(
    hyps, query: Formula, state: SaturationState, ct: ClosureTable
) -> tuple[StandardModel, OverrideFn]:
    """Build the model whose atoms and override bits copy the derived
    set, then verify that its semantic values agree with that set on the
    whole universe. Disagreement raises CountermodelError and means the
    saturation and the semantics have drifted apart."""
    qid = ct.index.get(query)
    if qid is None:
        raise ValueError("query outside the closure universe")
    if state.derived[qid]:
        raise ValueError("query is derived; no countermodel exists")
    if not state.fixpoint:
        raise ValueError("state is not a fixpoint")
    if state.bot_flag:
        raise ValueError("falsity was derived; the derived set is everything")
    for h in hyps:
        hid = ct.index.get(h)
        if hid is None or not state.derived[hid]:
            raise ValueError("hypothesis not derived in this state")
    relations = {}
    for a in ground_atoms(ct):
        fid = ct.index.get(a)
        relations[(a.rel, a.args)] = bool(
            fid is not None and state.derived[fid]
        )
    model = StandardModel(ct.params.elements, relations)
    override = OverrideFn(
        {f: bool(state.derived[ct.index[f]]) for f in override_domain(ct)}
    )
    derived, index, memo = state.derived, ct.index, {}

    def bits(f):
        return derived[index[f]]

    for fid, f in enumerate(ct.universe):
        if truth_mask(f, bits, bits, 1, ct, memo) != derived[fid]:
            raise CountermodelError(
                f"semantic value of {render(f)} disagrees with the derived set"
            )
    return model, override


def verdict_countermodel(
    verdict: Verdict,
) -> tuple[StandardModel, OverrideFn] | None:
    """Countermodel for a failed verdict, or None when none exists.

    The construction is complete only for the full calculus, so it reads
    the session's qpl fixpoint. Under a weaker variant that means one
    re-saturation at full strength, made on the first refusal and kept on
    the session for the rest; if it derives the query there is no
    countermodel to give. The model copies that fixpoint, not the query,
    so it is built on the first refusal and kept on the session too: every
    query the fixpoint leaves underived is refuted by the same model.
    """
    if verdict.entailed:
        return None
    session = verdict.session
    ct = session.closure_table
    state = session.qpl_fixpoint
    if state is None:
        state = saturate(session.hyps, ct, CalculusVariant.QPL)
        session.qpl_fixpoint = state
    if state.derived[ct.index[verdict.query]]:
        return None
    if session.qpl_countermodel is None:
        session.qpl_countermodel = countermodel(
            verdict.hyps, verdict.query, state, ct
        )
    return session.qpl_countermodel


def countermodel_json(model: StandardModel, override: OverrideFn) -> dict:
    return {
        "universe": [t.name for t in model.universe],
        "atoms_true": [
            render(atom(rel, *args))
            for (rel, args), v in model.relations.items()
            if v
        ],
        "override": {render(f): bool(v) for f, v in override.assignment.items()},
    }
