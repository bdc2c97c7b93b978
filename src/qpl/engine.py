"""Entailment by saturation.

The decision procedure works on the closure universe of the problem: every
rule of the selected calculus is compiled to finitely many instances whose
premises and conclusion are universe members, each instance carries a
counter of its not-yet-derived distinct premises, and a worklist drives
counters down until nothing fires: one linear-time run to the fixpoint
(Dowling and Gallier's counter-per-clause propagation), whatever the
queries. Every derived formula records one provenance entry, a (kind,
rule, premise ids) triple (first derivation wins), which makes proof
extraction a pure graph walk.

A Session is the one owner of a problem's closure, compiled rules and
fixpoint: it builds the closure over the hypotheses and every query at
once, compiles the rules over it once, saturates once, and hands out each
query's verdict and proof from that shared state. entails is the
one-query wrapper over it.
"""

from __future__ import annotations

from collections import deque
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
    gc_paused,
)

_HYP = ("hypothesis", None, ())


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
                l = idx[f.l]
                add(("OrI_L", (l,), fid))
                if f.l is f.r:
                    add(("OrE", (fid,), l))
                else:
                    add(("OrI_R", (idx[f.r],), fid))
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
    instances_fired: int
    derived_count: int


def saturate(hyps, ct: ClosureTable, compiled: CompiledRules) -> SaturationState:
    """Derive the fixpoint of hyps in the closure under the compiled rules
    (compile_rules over the same closure table).

    Each provenance record is a (kind, rule, premise ids) triple. Deriving
    the falsity constant (in variants that have its elimination rule)
    floods the rest of the universe by BotE from it.
    """
    idx = ct.index
    n = len(ct.universe)
    derived = bytearray(n)
    prov: list = [None] * n
    counters = list(compiled.counters)
    watch = compiled.watch
    instances = compiled.instances
    agenda: deque[int] = deque()
    push = agenda.append
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
            prov[fid] = ("axiom", name, ())
            push(fid)
    fired = 0
    bot_hit = bid >= 0 and derived[bid] == 1
    pop = agenda.popleft
    while agenda and not bot_hit:
        fid = pop()
        for i in watch[fid]:
            cnt = counters[i] - 1
            counters[i] = cnt
            if cnt == 0:
                fired += 1
                name, premids, conc = instances[i]
                if not derived[conc]:
                    derived[conc] = 1
                    prov[conc] = ("rule", name, premids)
                    if conc == bid:
                        bot_hit = True
                        break
                    push(conc)
    if bot_hit:
        botprem = ("rule", "BotE", (bid,))
        for j in range(n):
            if not derived[j]:
                derived[j] = 1
                prov[j] = botprem
    return SaturationState(
        derived=derived,
        provenance=prov,
        bot_flag=bot_hit,
        instances_fired=fired,
        derived_count=sum(derived),
    )


@dataclass(frozen=True)
class Verdict:
    """One query's answer. stats is the session's own dict, not a copy;
    the fixpoint and the variant are read from session."""

    entailed: bool
    proof: Derivation | None
    stats: dict
    closure_table: ClosureTable
    hyps: tuple[Formula, ...]
    query: Formula
    session: Session = field(repr=False, compare=False)


class Session:
    """One problem: hypotheses and every query known up front.

    The session builds one closure over the hypotheses plus all queries,
    compiles the variant's rules over it once, and saturates once to the
    fixpoint. Verdicts, their proofs and their stats all come from that
    shared state, so with several queries the stats describe the whole
    session's fixpoint, closure_cap bounds the joint universe, and a
    countermodel lives on the joint parameter set.

    qpl_fixpoint is the full-strength fixpoint countermodels are read
    from: the session's own state under qpl, and for a weaker variant None
    until semantics.verdict_countermodel builds it on the first refusal and
    keeps it here for the rest. qpl_countermodel is the (model, override)
    pair read from that fixpoint, likewise built on the first refusal and
    shared by every refused query.
    """

    @gc_paused
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
        state = saturate(self.hyps, ct, compiled)
        self.closure_table = ct
        self.state = state
        self.qpl_fixpoint: SaturationState | None = (
            state if variant is CalculusVariant.QPL else None
        )
        self.qpl_countermodel: tuple | None = None
        self.stats = {
            "universe_size": ct.stats.size,
            "instances_compiled": len(compiled.instances),
            "instances_fired": state.instances_fired,
            "derived_count": state.derived_count,
        }

    @gc_paused
    def verdicts(self, *, with_proof: bool = True) -> list[Verdict]:
        """One verdict per query, in query order."""
        ct, state = self.closure_table, self.state
        out = []
        for q in self.queries:
            ok = state.derived[ct.index[q]] == 1
            proof = extract_proof(state, ct, q) if ok and with_proof else None
            out.append(Verdict(ok, proof, self.stats, ct, self.hyps, q, self))
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


def extract_proof(
    state: SaturationState, ct: ClosureTable, target: Formula
) -> Derivation:
    """Read one derivation DAG out of the provenance records.

    Nodes come out in post-order (premises before conclusions, root last)
    and shared subderivations appear once. The walk visits a formula with
    premises twice: its id first, then ~id (negative) once its premises
    are done.
    """
    tid = ct.index.get(target, -1)
    if tid < 0 or not state.derived[tid]:
        raise ValueError("target is not derived in this state")
    prov = state.provenance
    universe = ct.universe
    memo: dict[int, int] = {}
    nodes: list[DerivationNode] = []
    stack = [tid]
    while stack:
        fid = stack.pop()
        if fid < 0:
            fid = ~fid
            kind, rule, premids = prov[fid]
        else:
            if fid in memo:
                continue
            entry = prov[fid]
            if entry is None:
                raise RuntimeError("derived formula lacks provenance")
            kind, rule, premids = entry
            if premids:
                stack.append(~fid)
                for pid in reversed(premids):
                    if pid not in memo:
                        stack.append(pid)
                continue
        parents = tuple(map(memo.__getitem__, premids))
        nid = len(nodes)
        memo[fid] = nid
        nodes.append(DerivationNode(nid, universe[fid], kind, rule, parents))
    return Derivation(root=memo[tid], nodes=tuple(nodes))
