"""Entailment by saturation.

The decision procedure works on the closure universe of the problem. Every
rule relates a formula to its immediate parts, so saturation runs on the
closure DAG itself, with no rule instances built (as in Gurevich and
Neeman's linear-time primal infon logic). compile_rules indexes each
member by the steps it is a premise of, each as the compound the step
belongs to and its rule code: the introductions into the compounds it is
an immediate part of, the eliminations that take it apart, and the
two-premise steps (ImpE, AndI) it is a premise of. A worklist pops each
derived member once and walks that index; a step fires when its later
premise is popped, so the run to the fixpoint is linear in the index,
whatever the queries. A rule code is the rule's position in
calculus.RULES, and compile_rules emits a rule's steps only in the
variants RULES gives it. Every derived formula records one provenance entry
(first derivation wins) in per-member columns of the state: a rule code,
or HYPOTHESIS, and the ids of the premises it was derived from. The index
is dropped once the fixpoint is reached, and proof extraction is a pure
graph walk over those columns.

A Session is the one owner of a problem's closure, compiled rules and
fixpoint: it builds the closure over the hypotheses and every query at
once, compiles the rules over it once, saturates once, and hands out each
query's verdict and proof from that shared state. entails is the
one-query wrapper over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .calculus import (
    RULES,
    CalculusVariant,
    Derivation,
    DerivationNode,
    _new_derivation,
    _new_node,
)
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
    Top,
    closure,
    gc_paused,
)

# Rule names of saturation steps and provenance entries; a rule code is an
# index into this tuple, the rule's position in calculus.RULES.
RULE_NAMES = tuple(RULES)
(IMP_I, IMP_E, AND_I, AND_E_L, AND_E_R, OR_I_L, OR_I_R, OR_E, FORALL_E,
 FORALL_I, EXISTS_I, EXISTS_E, IMP_AX, TOP_I, BOT_E) = range(len(RULE_NAMES))
HYPOTHESIS = 255  # provenance rule code of a hypothesis
_NO_RULE = bytearray([HYPOTHESIS])


@dataclass
class CompiledRules:
    """A variant's rules over one closure, indexed by premise: no rule
    instance is built.

    uses[m] is a flat list of (x, code) pairs, one for each step that takes
    member m as a premise, ordered by the member the step belongs to (the
    compound it introduces or takes apart) in universe order; code is the
    step's rule code:
    - ImpE: x is the implication, m is its antecedent or x itself, and the
      step derives right[x] from left[x] and x;
    - AndI: x is the conjunction, m is one of its conjuncts, and the step
      derives x from left[x] and right[x]. A conjunction of a formula with
      itself is listed once;
    - any other code is a one-premise step deriving x from m. An
      introduction (ImpI, OrI_L, OrI_R, ForallI, ExistsI) concludes the
      compound x that m is a part of; an elimination (AndE_L, AndE_R, OrE
      from l | l, ExistsE from a vacuous body, ForallE to each of
      ct.sub_instances[m]) concludes the part x of m.
    left[m] and right[m] are the ids of the parts of an implication or a
    conjunction m, else -1. Every id is the closure index's own int object,
    so an entry costs one pointer and provenance copied from it allocates
    nothing. instance_count is the number of rule instances the index
    stands for."""

    uses: list[list[int]]
    left: list[int]
    right: list[int]
    instance_count: int
    axiom_seeds: list[tuple[int, int]]  # (member id, rule code)
    bottom_id: int  # -1 when absent or the variant lacks the bottom rule

    @property
    def instances(self) -> range:
        return range(self.instance_count)


def compile_rules(ct: ClosureTable, variant: CalculusVariant) -> CompiledRules:
    idx = ct.index
    n = len(ct.universe)
    uses: list[list[int]] = [[] for _ in range(n)]
    left = [-1] * n
    right = [-1] * n
    count = 0
    axiom_seeds: list[tuple[int, int]] = []
    bottom_id = -1
    # has[code]: variant carries the rule. The rules a branch emits all
    # start at one variant, so it is gated on one of them.
    has = [variant >= first for first, _, _ in RULES.values()]
    for f, fid in idx.items():  # universe order
        cls = f.__class__
        if cls is Atom:  # no rule takes an atom apart
            continue
        if cls is Imp:
            l = left[fid] = idx[f.l]
            r = right[fid] = idx[f.r]
            uses[r] += fid, IMP_I
            uses[l] += fid, IMP_E
            uses[fid] += fid, IMP_E
            count += 2
            if f.l is f.r and has[IMP_AX]:
                axiom_seeds.append((fid, IMP_AX))
        elif cls is And:
            l = left[fid] = idx[f.l]
            r = right[fid] = idx[f.r]
            uses[l] += fid, AND_I
            if f.l is not f.r:
                uses[r] += fid, AND_I
            uses[fid] += l, AND_E_L, r, AND_E_R
            count += 3
        elif cls is Or:
            if has[OR_I_L]:
                l = idx[f.l]
                uses[l] += fid, OR_I_L
                if f.l is f.r:
                    uses[fid] += l, OR_E
                else:
                    uses[idx[f.r]] += fid, OR_I_R
                count += 2
        elif cls is Forall:
            if has[FORALL_E]:
                insts = ct.sub_instances[f]
                own = uses[fid]
                for g in insts:
                    own += idx[g], FORALL_E
                count += len(insts)
                if f.var not in f.body.free:
                    uses[idx[f.body]] += fid, FORALL_I
                    count += 1
        elif cls is Exists:
            if has[EXISTS_I]:
                insts = ct.sub_instances[f]
                for g in insts:
                    uses[idx[g]] += fid, EXISTS_I
                count += len(insts)
                if f.var not in f.body.free:
                    uses[fid] += idx[f.body], EXISTS_E
                    count += 1
        elif cls is Bot:
            if has[BOT_E]:
                bottom_id = fid
        elif cls is Top:
            axiom_seeds.append((fid, TOP_I))
    return CompiledRules(uses, left, right, count, axiom_seeds, bottom_id)


@dataclass
class SaturationState:
    """The fixpoint, with one provenance entry per derived member m (first
    derivation wins): rule[m] is HYPOTHESIS or a rule code, and premise1[m]
    and premise2[m] are its premises' member ids, -1 when absent; an axiom
    has no premises. Entries of underived members are meaningless. The
    premise columns are lists of the closure index's own ints: an array's
    reads and writes cost more, which tiny problems feel."""

    derived: bytearray
    rule: bytearray
    premise1: list[int]
    premise2: list[int]
    bot_flag: bool
    instances_fired: int
    derived_count: int


def saturate(hyps, ct: ClosureTable, compiled: CompiledRules) -> SaturationState:
    """Derive the fixpoint of hyps in the closure under the compiled rules
    (compile_rules over the same closure table).

    Popping a member m from the agenda walks uses[m] in order: each step
    m is a premise of fires then, unless its other premise has not been
    popped yet, and that pop fires it instead. So every step fires once,
    when its later premise is popped; done marks the popped members.

    Deriving the falsity constant (in variants that have its elimination
    rule) floods the rest of the universe by BotE from it.
    """
    idx = ct.index
    n = len(ct.universe)
    derived = bytearray(n)
    done = bytearray(n)  # popped
    why = _NO_RULE * n  # every entry starts as HYPOTHESIS
    why1 = [-1] * n
    why2 = [-1] * n
    uses, left, right = compiled.uses, compiled.left, compiled.right
    # the members to pop, in FIFO order: the loop below reads it by index
    # while steps append to it, so each derived member is read once
    agenda: list[int] = []
    push = agenda.append
    bid = compiled.bottom_id
    for h in hyps:
        hid = idx.get(h, -1)
        if hid < 0:
            raise ValueError("hypothesis outside the closure universe")
        if not derived[hid]:
            derived[hid] = 1
            push(hid)
    for fid, code in compiled.axiom_seeds:
        if not derived[fid]:
            derived[fid] = 1
            why[fid] = code
            push(fid)
    fired = 0
    bot_hit = bid >= 0 and derived[bid] == 1
    step = next
    for m in agenda:
        if bot_hit:
            break
        done[m] = 1
        it = iter(uses[m])
        # a step that fires derives c by rule code from a (and b)
        for x in it:
            code = step(it)
            if code == IMP_E:
                a = left[x]
                b = x
                if not (done[a] and done[b]):
                    continue
                c = right[x]
            elif code == AND_I:
                a = left[x]
                b = right[x]
                if not (done[a] and done[b]):
                    continue
                c = x
            else:
                a = m
                b = -1
                c = x
            fired += 1
            if not derived[c]:
                derived[c] = 1
                why[c] = code
                why1[c] = a
                why2[c] = b
                if c == bid:
                    bot_hit = True
                    break
                push(c)
    if bot_hit:
        for j in range(n):
            if not derived[j]:
                derived[j] = 1
                why[j] = BOT_E
                why1[j] = bid
    return SaturationState(
        derived=derived,
        rule=why,
        premise1=why1,
        premise2=why2,
        bot_flag=bot_hit,
        instances_fired=fired,
        derived_count=derived.count(1),
    )


@dataclass(slots=True)
class Verdict:
    """One query's answer. stats is the session's own dict, not a copy;
    the fixpoint and the variant are read from session. Not frozen: a
    frozen dataclass sets each field through object.__setattr__, which
    tiny problems feel."""

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
    """Read one derivation DAG out of the state's provenance columns.

    Nodes come out in post-order (premises before conclusions, root last)
    and shared subderivations appear once. The walk visits a formula with
    premises twice: its id first, then ~id (negative) once its premises
    are done.
    """
    tid = ct.index.get(target, -1)
    if tid < 0 or not state.derived[tid]:
        raise ValueError("target is not derived in this state")
    why, why1, why2 = state.rule, state.premise1, state.premise2
    universe = ct.universe
    memo: dict[int, int] = {}
    nodes: list[DerivationNode] = []
    stack = [tid]
    while stack:
        fid = stack.pop()
        if fid < 0:
            fid = ~fid
            a, b = why1[fid], why2[fid]
            kind, rule = "rule", RULE_NAMES[why[fid]]
            parents = (memo[a],) if b < 0 else (memo[a], memo[b])
        else:
            if fid in memo:
                continue
            code = why[fid]
            if code == HYPOTHESIS:
                kind, rule = "hypothesis", None
            else:
                a = why1[fid]
                if a >= 0:
                    stack.append(~fid)
                    b = why2[fid]
                    if b >= 0 and b not in memo:
                        stack.append(b)
                    if a not in memo:
                        stack.append(a)
                    continue
                kind, rule = "axiom", RULE_NAMES[code]
            parents = ()
        nid = len(nodes)
        memo[fid] = nid
        nodes.append(_new_node((nid, universe[fid], kind, rule, parents)))
    return _new_derivation((memo[tid], tuple(nodes)))
