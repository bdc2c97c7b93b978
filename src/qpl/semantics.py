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
derived set. Such a model lists the atoms and override bits of the
session's guarded closure; any other override bit is true and any other
atom false.

One evaluator, truth_mask, implements the semantics: it computes a
formula's truth in a batch of models at once, one bit per model.
satisfies and the agreement check inside countermodel run it on a batch
of one; the oracle runs it once on the batch of every model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .calculus import CalculusVariant
from .engine import SaturationState, Verdict, compile_rules, saturate
from .syntax import (
    And,
    Atom,
    Bot,
    ClosureTable,
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


# The largest oracle exponent (ground atoms plus override bits) by default
DEFAULT_ORACLE_CAP = 24


class TooLarge(ResourceLimit):
    """Enumeration would exceed the exponent cap; use the engine instead."""


class CountermodelError(RuntimeError):
    """The constructed model disagrees with the derived set somewhere."""


@dataclass(frozen=True)
class StandardModel:
    universe: tuple[Term, ...]
    relations: dict  # ground atom -> bool; an atom not in it is false

    def holds(self, f: Atom) -> bool:
        return self.relations.get(f, False)


@dataclass(frozen=True)
class OverrideFn:
    assignment: dict  # Formula -> bool, keyed on the override domain


def relation_arities(ct: ClosureTable) -> dict:
    """Relation symbols occurring anywhere in the universe, in first
    left-to-right occurrence order, mapped to their arity."""
    out: dict = {}
    seen: set = set()
    for f in ct.universe:
        stack = [f]
        while stack:
            g = stack.pop()
            # a formula seen before had its whole subtree walked then
            if g in seen:
                continue
            seen.add(g)
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
    return [
        atom(rel, *args)
        for rel, ar in relation_arities(ct).items()
        for args in itertools.product(ct.params, repeat=ar)
    ]


def _exponent(ct: ClosureTable, arities: dict, dom: list) -> int:
    """The exponent the oracle's cap reads, one per ground atom and per
    override domain member, counted without building the atoms."""
    n = len(ct.params)
    return sum(n**ar for ar in arities.values()) + len(dom)


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
    exponent_cap: int = DEFAULT_ORACLE_CAP,
) -> bool:
    """Exhaustively quantify over structures and override functions.

    Every combination of atom and override bits is one model of a single
    batch, so truth of every closure formula in all of them comes out of
    one truth_mask pass over the closure. truth_mask reads no atom outside
    the universe, so only the universe's atoms get a bit; the cap still
    counts every ground atom.
    """
    if exponent_cap < 1:
        raise ValueError("oracle cap must be positive")
    hyp_list = list(hyps)
    ct = closure([*hyp_list, query])
    arities = relation_arities(ct)
    dom = override_domain(ct)
    k = _exponent(ct, arities, dom)
    if k > exponent_cap:
        raise TooLarge(f"enumeration exponent {k} exceeds cap {exponent_cap}")
    slots = [f for f in ct.universe if f.__class__ is Atom] + dom
    total = 1 << len(slots)  # combinations; a mask has one bit for each
    full = (1 << total) - 1
    masks: list[int] = []
    for j in range(len(slots)):
        half = 1 << j
        m = ((1 << half) - 1) << half
        width = half << 1
        while width < total:
            m |= m << width
            width <<= 1
        masks.append(m)
    bits = dict(zip(slots, masks)).__getitem__
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
    saturation and the semantics have drifted apart.

    Only universe members can be derived, so the model's relations hold
    the universe's atoms alone, in ground_atoms order (relation, then
    parameter indices); every other ground atom is false."""
    qid = ct.index.get(query)
    if qid is None:
        raise ValueError("query outside the closure universe")
    if state.derived[qid]:
        raise ValueError("query is derived; no countermodel exists")
    if state.bot_flag:
        raise ValueError("falsity was derived; the derived set is everything")
    for h in hyps:
        hid = ct.index.get(h)
        if hid is None or not state.derived[hid]:
            raise ValueError("hypothesis not derived in this state")
    derived, index, memo = state.derived, ct.index, {}
    rank = {rel: i for i, rel in enumerate(relation_arities(ct))}
    pos = {t: i for i, t in enumerate(ct.params)}
    atoms = sorted(
        (f for f in ct.universe if f.__class__ is Atom),
        key=lambda a: (rank[a.rel], [pos[t] for t in a.args]),
    )
    model = StandardModel(ct.params, {a: derived[index[a]] == 1 for a in atoms})
    override = OverrideFn({f: derived[index[f]] == 1 for f in override_domain(ct)})

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
    the session's qpl fixpoint over the session's closure table: under a
    weaker variant, one saturation at full strength made on the first
    refusal and kept on the session. If it derives the query there is no
    countermodel to give. The model copies that fixpoint, not the query,
    so it is built once and kept on the session too: every query the
    fixpoint leaves underived is refuted by the same model. It lists the
    guarded universe's atoms and override bits; over the paper's closure,
    an unlisted override bit is true and an unlisted atom false.
    """
    if verdict.entailed:
        return None
    session = verdict.session
    ct, state = session.closure_table, session.qpl_fixpoint
    if state is None:
        state = saturate(session.hyps, ct, compile_rules(ct, CalculusVariant.QPL))
        session.qpl_fixpoint = state
    if state.derived[ct.index[verdict.query]]:
        return None
    if session.qpl_countermodel is None:
        session.qpl_countermodel = countermodel(
            session.hyps, verdict.query, state, ct
        )
    return session.qpl_countermodel


def countermodel_json(model: StandardModel, override: OverrideFn) -> dict:
    return {
        "universe": [t.name for t in model.universe],
        "atoms_true": [render(a) for a, v in model.relations.items() if v],
        "override": {render(f): bool(v) for f, v in override.assignment.items()},
    }
