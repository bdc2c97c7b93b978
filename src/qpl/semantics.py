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


def _sat(model, override, f, ct, memo):
    got = memo.get(f)
    if got is not None:
        return got
    cls = f.__class__
    if cls is Atom:
        v = model.holds(f)
    elif cls is Top:
        v = True
    elif cls is Bot:
        v = False
    elif cls is And:
        v = _sat(model, override, f.l, ct, memo) and _sat(
            model, override, f.r, ct, memo
        )
    elif cls is Or:
        if f.l is f.r:
            v = _sat(model, override, f.l, ct, memo)
        else:
            v = (
                _sat(model, override, f.l, ct, memo)
                or _sat(model, override, f.r, ct, memo)
                or override.assignment[f]
            )
    elif cls is Imp:
        if f.l is f.r:
            v = True
        else:
            v = _sat(model, override, f.r, ct, memo) or (
                not _sat(model, override, f.l, ct, memo)
                and override.assignment[f]
            )
    elif cls is Forall:
        if f.var not in f.body.free:
            v = _sat(model, override, f.body, ct, memo)
        else:
            v = override.assignment[f] and all(
                _sat(model, override, g, ct, memo) for g in ct.sub_instances[f]
            )
    else:
        if f.var not in f.body.free:
            v = _sat(model, override, f.body, ct, memo)
        else:
            v = any(
                _sat(model, override, g, ct, memo) for g in ct.sub_instances[f]
            ) or override.assignment[f]
    memo[f] = v
    return v


def satisfies(model: StandardModel, override: OverrideFn, x: Formula,
             ct: ClosureTable, memo: dict | None = None) -> bool:
    if x not in ct.index:
        raise ValueError("formula outside the closure universe")
    return _sat(model, override, x, ct, {} if memo is None else memo)


def semantic_yields_bruteforce(
    hyps,
    query: Formula,
    *,
    exponent_cap: int = 24,
    closure_cap: int = DEFAULT_CLOSURE_CAP,
) -> bool:
    """Exhaustively quantify over structures and override functions.

    Truth of every closure formula across all 2^k assignment
    combinations is carried as one k-bit-per-combination integer, so the
    enumeration is a single bottom-up pass over the closure.
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
    bit = {a: masks[j] for j, a in enumerate(slots)}
    omask = {f: masks[len(slots) + j] for j, f in enumerate(dom)}
    memo: dict = {}

    def ev(f):
        got = memo.get(f)
        if got is not None:
            return got
        cls = f.__class__
        if cls is Atom:
            m = bit[f]
        elif cls is Top:
            m = full
        elif cls is Bot:
            m = 0
        elif cls is And:
            m = ev(f.l) & ev(f.r)
        elif cls is Or:
            if f.l is f.r:
                m = ev(f.l)
            else:
                m = ev(f.l) | ev(f.r) | omask[f]
        elif cls is Imp:
            if f.l is f.r:
                m = full
            else:
                m = ev(f.r) | (full & ~ev(f.l) & omask[f])
        elif cls is Forall:
            if f.var not in f.body.free:
                m = ev(f.body)
            else:
                m = omask[f]
                for g in ct.sub_instances[f]:
                    m &= ev(g)
        else:
            if f.var not in f.body.free:
                m = ev(f.body)
            else:
                m = 0
                for g in ct.sub_instances[f]:
                    m |= ev(g)
                m |= omask[f]
        memo[f] = m
        return m

    hm = full
    for h in hyp_list:
        hm &= ev(h)
    return hm & ~ev(query) & full == 0


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
    memo: dict = {}
    for fid, f in enumerate(ct.universe):
        if _sat(model, override, f, ct, memo) != bool(state.derived[fid]):
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
    countermodel to give.
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
    return countermodel(verdict.hyps, verdict.query, state, ct)


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
