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
graph walk over those columns that appends to the node columns of a
calculus.Derivation, building no per-node object.

A Session is the one owner of a problem's closure, compiled rules and
fixpoint: it builds the closure over the hypotheses and every query at
once, compiles the rules over it once, saturates once, and hands out each
query's verdict and proof from that shared state, each proof rooted in
one derivation DAG. entails is the one-query wrapper over it.

The session's universe is the guarded closure (syntax.closure with
guarded=True): an instance I = forall y1 .. forall yk. (G_t -> B_t) of a
member forall x. forall y1 .. forall yk. (G -> B), whose atom G has x
free and no yi free, joins only once its guard G_t = G[x := t] is a
member. Call I left out when G_t never joins, and the members of the
paper's closure that the guarded one lacks left-out members. Why the
guarded fixpoint is the eager one's, restricted to the guarded universe,
in every variant:
- Every part of a guarded member is a guarded member, except a left-out
  instance; so a left-out member is reached only through a left-out
  instance.
- No ForallE descendant D of a left-out instance I (I itself, a partial
  instance or a matrix instance) is a guarded member. Every quantifier of
  D after I's is ungated, as no yi is free in G_t, so D's parts would
  reach its matrix, whose part is G_t, and I would have joined.
- An introduction's premises are parts of its conclusion, and an axiom
  has none; eliminating an introduced compound or an axiom gives back a
  member derived before it. An atom or falsity is concluded only by an
  elimination, or by BotE once falsity is derived.
- So, until the eager engine derives a left-out guard, each left-out
  member it derives is introduced, an axiom, or a ForallE descendant of
  a left-out instance (eliminating a guarded compound into a left-out
  member is ForallE into a left-out instance). Eliminating a descendant
  gives another descendant, except by ImpE on a matrix instance, which
  needs its guard first. So the first left-out guard, or left-out
  falsity, could be derived by no step at all: the eager engine derives
  none of them.
- Then each eager step whose conclusion is a guarded member has only
  guarded premises: an introduction's are its parts, an elimination of
  an introduced left-out compound gives back an earlier member, and a
  descendant's eliminations give no guarded member. compile_rules over
  the guarded universe emits every step among guarded members, so the
  two fixpoints agree on it, flooding from falsity included.
Countermodels are read off the guarded fixpoint. Extended by a true
override bit outside the guarded universe and a false atom outside it,
such a model is one over the paper's closure too: a member's truth
depends only on its parts, and a part of a guarded member outside the
guarded universe is a left-out instance I. Its guard G_t is false, and
every ForallE descendant of I is outside too, so each, down to the
matrix instances G_t -> B_t', is true by its override bit. So a gated
universal is as true over the paper's instances as over its joined
sub_instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .calculus import (
    RULES,
    CalculusVariant,
    Derivation,
    _new_derivation,
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
    nothing. instances numbers the rule instances the index stands for."""

    uses: list[list[int]]
    left: list[int]
    right: list[int]
    instances: range
    axiom_seeds: list[tuple[int, int]]  # (member id, rule code)
    bottom_id: int  # -1 when absent or the variant lacks the bottom rule


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
    return CompiledRules(uses, left, right, range(count), axiom_seeds, bottom_id)


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

    The closure is the guarded one (module docstring), so the stats count
    the guarded universe and closure_cap bounds it.

    qpl_fixpoint is the qpl state over the closure table that countermodels
    are read from: the session's own under qpl, else None until
    semantics.verdict_countermodel saturates at qpl on the first refusal.
    qpl_countermodel is the (model, override) pair read from that
    fixpoint, likewise built on the first refusal and shared by every
    refused query.
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
        ct = closure([*self.hyps, *self.queries], cap=closure_cap, guarded=True)
        compiled = compile_rules(ct, variant)
        state = saturate(self.hyps, ct, compiled)
        self.closure_table = ct
        self.state = state
        self.qpl_fixpoint = state if variant is CalculusVariant.QPL else None
        self.qpl_countermodel: tuple | None = None
        self.stats = {
            "universe_size": ct.stats.size,
            "instances_compiled": len(compiled.instances),
            "instances_fired": state.instances_fired,
            "derived_count": state.derived_count,
        }

    @gc_paused
    def verdicts(self, *, with_proof: bool = True) -> list[Verdict]:
        """One verdict per query, in query order; the proofs share one DAG."""
        ct, state = self.closure_table, self.state
        out, entailed, targets = [], [], []
        for q in self.queries:
            ok = state.derived[ct.index[q]] == 1
            out.append(Verdict(ok, None, self.stats, ct, self.hyps, q, self))
            if ok and with_proof:
                entailed.append(out[-1])
                targets.append(q)
        if targets:
            *others, last = entailed
            dag = last.proof = extract_proof(state, ct, *targets)
            if others:  # a member labels one node, so a label finds its node
                node_of = {label: i for i, label in enumerate(dag.labels)}
                for v in others:
                    v.proof = dag._replace(root=node_of[v.query])
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
    state: SaturationState, ct: ClosureTable, *targets: Formula
) -> Derivation:
    """Read one derivation DAG out of the state's provenance columns into
    the derivation's node columns: the proofs of targets in turn, rooted
    at the last target's node.

    Nodes come out in post-order (premises before conclusions) and shared
    subderivations appear once. The walk visits a formula with premises
    twice: its id first, then ~id (negative) once its premises are done.
    """
    stack = []  # the targets' ids, the last target's first
    for t in reversed(targets):
        tid = ct.index.get(t, -1)
        if tid < 0 or not state.derived[tid]:
            raise ValueError("target is not derived in this state")
        stack.append(tid)
    tid = stack[0]
    why, why1, why2 = state.rule, state.premise1, state.premise2
    universe = ct.universe
    memo: dict[int, int] = {}  # member id -> node position
    labels: list[Formula] = []
    rules: list[str | None] = []
    counts: list[int] = []
    parents: list[int] = []
    while stack:
        fid = stack.pop()
        if fid < 0:
            fid = ~fid
            a, b = why1[fid], why2[fid]
            rule = RULE_NAMES[why[fid]]
            if b < 0:
                parents.append(memo[a])
                k = 1
            else:
                parents += memo[a], memo[b]
                k = 2
        else:
            if fid in memo:
                continue
            code = why[fid]
            if code == HYPOTHESIS:
                rule = None
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
                rule = RULE_NAMES[code]
            k = 0
        memo[fid] = len(labels)
        labels.append(universe[fid])
        rules.append(rule)
        counts.append(k)
    return _new_derivation((
        memo[tid], tuple(labels), tuple(rules), tuple(counts), tuple(parents),
    ))
