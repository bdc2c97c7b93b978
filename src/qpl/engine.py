"""Entailment by saturation.

The decision procedure works on the closure universe of the problem: every
rule of the selected calculus is compiled to finitely many instances whose
premises and conclusion are universe members, each instance carries a
counter of its not-yet-derived distinct premises, and a worklist drives
counters down until every query is reached or nothing fires. Every derived
formula records one provenance entry (first derivation wins), which makes
proof extraction a pure graph walk.

A Session is the one owner of a problem's closure, compiled rules and
fixpoint: it builds the closure over the hypotheses and every query at
once, compiles the rules over it once, saturates once, and hands out each
query's verdict and proof from that shared state. entails and
multi_entails are thin wrappers over it.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field

from .calculus import CalculusVariant, Derivation, DerivationNode
from .syntax import (
    And,
    Bot,
    ClosureTable,
    DEFAULT_CLOSURE_CAP,
    Exists,
    Forall,
    Formula,
    Imp,
    Or,
    Top,
    closure,
)

_HYP = ("hyp",)


@dataclass(frozen=True)
class CompiledRules:
    instances: list[tuple[str, tuple[int, ...], int]]
    watch: list[list[int]]
    counters: list[int]
    axiom_seeds: list[tuple[int, str]]
    bottom_id: int  # -1 when absent or the variant lacks the bottom rule


def compile_rules(ct: ClosureTable, variant: CalculusVariant) -> CompiledRules:
    idx = ct.index
    instances: list[tuple[str, tuple[int, ...], int]] = []
    axiom_seeds: list[tuple[int, str]] = []
    bottom_id = -1
    use_or = variant >= CalculusVariant.L1
    use_bot = variant >= CalculusVariant.L2
    use_ax = variant >= CalculusVariant.PFQPL
    use_quant = variant >= CalculusVariant.QPL
    add = instances.append
    for fid, f in enumerate(ct.universe):
        cls = f.__class__
        if cls is Imp:
            l, r = idx[f.l], idx[f.r]
            add(("ImpI", (r,), fid))
            add(("ImpE", (l, fid), r))
            if use_ax and f.l is f.r:
                axiom_seeds.append((fid, "ImpAx"))
        elif cls is And:
            l, r = idx[f.l], idx[f.r]
            add(("AndI", (l, r), fid))
            add(("AndE_L", (fid,), l))
            add(("AndE_R", (fid,), r))
        elif cls is Or:
            if use_or:
                l, r = idx[f.l], idx[f.r]
                if f.l is f.r:
                    add(("OrI_L", (l,), fid))
                    add(("OrE", (fid,), l))
                else:
                    add(("OrI_L", (l,), fid))
                    add(("OrI_R", (r,), fid))
        elif cls is Forall:
            if use_quant:
                for g in ct.sub_instances[f]:
                    add(("ForallE", (fid,), idx[g]))
                if f.var not in f.body.free:
                    add(("ForallI", (idx[f.body],), fid))
        elif cls is Exists:
            if use_quant:
                for g in ct.sub_instances[f]:
                    add(("ExistsI", (idx[g],), fid))
                if f.var not in f.body.free:
                    add(("ExistsE", (fid,), idx[f.body]))
        elif cls is Bot:
            if use_bot:
                bottom_id = fid
        elif cls is Top:
            axiom_seeds.append((fid, "TopI"))
    watch: list[list[int]] = [[] for _ in ct.universe]
    counters: list[int] = []
    for i, (_, premids, _) in enumerate(instances):
        if len(premids) == 1:
            watch[premids[0]].append(i)
            counters.append(1)
        else:
            a, b = premids
            watch[a].append(i)
            if b != a:
                watch[b].append(i)
                counters.append(2)
            else:
                counters.append(1)
    return CompiledRules(instances, watch, counters, axiom_seeds, bottom_id)


@dataclass
class SaturationState:
    derived: bytearray
    provenance: list
    bot_flag: bool
    fixpoint: bool
    instances_fired: int
    derived_count: int


def saturate(
    hyps,
    ct: ClosureTable,
    variant: CalculusVariant,
    stop_at: Formula | Iterable[Formula] | None = None,
    compiled: CompiledRules | None = None,
) -> SaturationState:
    """Derive members of the closure from hyps under the variant's rules.

    stop_at is one target formula or a collection of them. Propagation may
    halt as soon as every target is derived, in which case the state is not
    a fixpoint; without targets it runs to the fixpoint. Deriving the
    falsity constant (in variants that have its elimination rule) derives
    every target at once, or floods the whole universe when there are none.
    """
    if compiled is None:
        compiled = compile_rules(ct, variant)
    idx = ct.index
    n = len(ct.universe)
    derived = bytearray(n)
    prov: list = [None] * n
    counters = list(compiled.counters)
    watch = compiled.watch
    instances = compiled.instances
    agenda: deque[int] = deque()
    push = agenda.append
    if stop_at is None:
        stop_at = ()
    elif isinstance(stop_at, Formula):
        stop_at = (stop_at,)
    targets = set()
    for f in stop_at:
        tid = idx.get(f, -1)
        if tid < 0:
            raise ValueError("stop_at must be a member of the closure universe")
        targets.add(tid)
    bid = compiled.bottom_id
    for h in hyps:
        hid = idx.get(h, -1)
        if hid < 0:
            raise ValueError("hypothesis outside the closure universe")
        if not derived[hid]:
            derived[hid] = 1
            prov[hid] = _HYP
            push(hid)
    for fid, name in compiled.axiom_seeds:
        if not derived[fid]:
            derived[fid] = 1
            prov[fid] = ("axiom", name)
            push(fid)
    fired = 0
    pending = targets.difference(agenda)  # all derived so far is queued
    stopped = bool(targets) and not pending
    bot_hit = bid >= 0 and derived[bid] == 1
    if not stopped and not bot_hit:
        pop = agenda.popleft
        while agenda:
            fid = pop()
            brk = False
            for i in watch[fid]:
                cnt = counters[i] - 1
                counters[i] = cnt
                if cnt == 0:
                    fired += 1
                    name, premids, conc = instances[i]
                    if not derived[conc]:
                        derived[conc] = 1
                        prov[conc] = ("rule", name, premids)
                        if conc in pending:
                            pending.discard(conc)
                            if not pending:
                                stopped = True
                                brk = True
                                break
                        if conc == bid:
                            bot_hit = True
                            brk = True
                            break
                        push(conc)
            if brk:
                break
    fixpoint = not stopped and not agenda
    if bot_hit:
        botprem = (bid,)
        if targets:
            for t in targets:
                if not derived[t]:
                    derived[t] = 1
                    prov[t] = ("rule", "BotE", botprem)
            fixpoint = False
        else:
            for j in range(n):
                if not derived[j]:
                    derived[j] = 1
                    prov[j] = ("rule", "BotE", botprem)
            fixpoint = True
    return SaturationState(
        derived=derived,
        provenance=prov,
        bot_flag=bid >= 0 and derived[bid] == 1,
        fixpoint=fixpoint,
        instances_fired=fired,
        derived_count=sum(derived),
    )


@dataclass(frozen=True)
class Verdict:
    entailed: bool
    proof: Derivation | None
    stats: dict
    closure_table: ClosureTable
    state: SaturationState
    hyps: tuple[Formula, ...]
    query: Formula
    variant: CalculusVariant
    session: Session = field(repr=False, compare=False)


class Session:
    """One problem: hypotheses and every query known up front.

    The session builds one closure over the hypotheses plus all queries,
    compiles the variant's rules over it once, and saturates once, stopping
    when every query is derived or at the fixpoint. Verdicts, their proofs
    and their stats all come from that shared state, so with several
    queries the stats describe the whole session, closure_cap bounds the
    joint universe, and a countermodel lives on the joint parameter set.

    qpl_fixpoint is the full-strength fixpoint countermodels are read
    from: the session's own state under qpl once it is a fixpoint, and for
    a weaker variant None until semantics.verdict_countermodel builds it on
    the first refusal and keeps it here for the rest. qpl_countermodel is
    the (model, override) pair read from that fixpoint, likewise built on
    the first refusal and shared by every refused query.
    """

    def __init__(
        self,
        hyps,
        queries,
        variant: CalculusVariant,
        *,
        closure_cap: int = DEFAULT_CLOSURE_CAP,
    ):
        self.hyps = tuple(hyps)
        self.queries = tuple(queries)
        self.variant = variant
        ct = closure([*self.hyps, *self.queries], cap=closure_cap)
        compiled = compile_rules(ct, variant)
        state = saturate(self.hyps, ct, variant, stop_at=self.queries,
                         compiled=compiled)
        self.closure_table = ct
        self.state = state
        self.qpl_fixpoint: SaturationState | None = (
            state if state.fixpoint and variant is CalculusVariant.QPL else None
        )
        self.qpl_countermodel: tuple | None = None
        self.stats = {
            "universe_size": ct.stats.size,
            "instances_compiled": len(compiled.instances),
            "instances_fired": state.instances_fired,
            "derived_count": state.derived_count,
        }

    def verdicts(self, *, with_proof: bool = True) -> list[Verdict]:
        """One verdict per query, in query order."""
        ct, state = self.closure_table, self.state
        out = []
        for q in self.queries:
            ok = state.derived[ct.index[q]] == 1
            proof = extract_proof(state, ct, q) if ok and with_proof else None
            out.append(Verdict(ok, proof, dict(self.stats), ct, state,
                               self.hyps, q, self.variant, self))
        return out


def entails(
    hyps,
    query: Formula,
    variant: CalculusVariant,
    *,
    closure_cap: int = DEFAULT_CLOSURE_CAP,
    with_proof: bool = True,
) -> Verdict:
    session = Session(hyps, [query], variant, closure_cap=closure_cap)
    return session.verdicts(with_proof=with_proof)[0]


def multi_entails(
    hyps,
    queries,
    variant: CalculusVariant,
    *,
    closure_cap: int = DEFAULT_CLOSURE_CAP,
) -> list[bool]:
    session = Session(hyps, queries, variant, closure_cap=closure_cap)
    return [v.entailed for v in session.verdicts(with_proof=False)]


def extract_proof(
    state: SaturationState, ct: ClosureTable, target: Formula
) -> Derivation:
    """Read one derivation DAG out of the provenance records.

    Nodes come out in post-order (premises before conclusions, root last)
    and shared subderivations appear once.
    """
    tid = ct.index.get(target, -1)
    if tid < 0 or not state.derived[tid]:
        raise ValueError("target is not derived in this state")
    prov = state.provenance
    universe = ct.universe
    memo: dict[int, int] = {}
    nodes: list[DerivationNode] = []
    stack: list[tuple[int, bool]] = [(tid, False)]
    while stack:
        fid, expanded = stack.pop()
        if fid in memo:
            continue
        entry = prov[fid]
        if entry is None:
            raise RuntimeError("derived formula lacks provenance")
        tag = entry[0]
        if tag == "rule" and not expanded:
            stack.append((fid, True))
            for pid in reversed(entry[2]):
                if pid not in memo:
                    stack.append((pid, False))
            continue
        if tag == "hyp":
            kind, rule, parents = "hypothesis", None, ()
        elif tag == "axiom":
            kind, rule, parents = "axiom", entry[1], ()
        else:
            kind, rule = "rule", entry[1]
            parents = tuple(memo[pid] for pid in entry[2])
        nid = len(nodes)
        memo[fid] = nid
        nodes.append(DerivationNode(nid, universe[fid], kind, rule, parents))
    return Derivation(root=memo[tid], nodes=tuple(nodes))
