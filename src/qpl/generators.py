"""Problem generators.

Two-register counter machines and their encoding as bounded-halting
entailment instances, Horn clause sets with a classical saturation
oracle, random instances sized to fit the semantic oracle, the long
implication chains used for scaling runs, and the binary counter whose
derivation is exponential in its number of quantifiers.
"""

import itertools
import re
from dataclasses import dataclass
from random import Random
from typing import Optional, Union

from .calculus import CalculusVariant
from .semantics import (
    DEFAULT_ORACLE_CAP,
    _exponent,
    override_domain,
    relation_arities,
)
from .syntax import (
    VAR,
    Atom,
    Bot,
    Formula,
    Term,
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

HALT_STATE = 1


# ------------------------------------------------------------- machines

@dataclass(frozen=True)
class Inc:
    reg: int
    target: int


@dataclass(frozen=True)
class Dec:
    reg: int
    if_zero: int
    if_positive: int


Instruction = Union[Inc, Dec]


@dataclass(frozen=True)
class TwoRegisterMachine:
    """Counter machine over registers 1 and 2.

    State 0 is initial, state 1 is halting and carries no instruction,
    and every other state up to the largest one mentioned carries exactly
    one. Dec branches to if_zero without touching the register when it is
    zero and otherwise decrements and branches to if_positive.
    """

    instructions: dict[int, Instruction]

    def __post_init__(self):
        ins = dict(self.instructions)
        object.__setattr__(self, "instructions", ins)
        if 0 not in ins:
            raise ValueError("no instruction for the initial state 0")
        if HALT_STATE in ins:
            raise ValueError("state 1 halts and takes no instruction")
        states = set(ins) | {HALT_STATE}
        for i, op in ins.items():
            if isinstance(op, Inc):
                targets = (op.target,)
            elif isinstance(op, Dec):
                targets = (op.if_zero, op.if_positive)
            else:
                raise TypeError(f"state {i}: not an instruction: {op!r}")
            if op.reg not in (1, 2):
                raise ValueError(f"state {i}: register must be 1 or 2")
            states.update(targets)
        if min(states) < 0:
            raise ValueError("negative state")
        top = max(states)
        if len(ins) != top:  # ins holds 0..top but 1 exactly when it is full
            missing = (
                s for s in range(top + 1) if s != HALT_STATE and s not in ins
            )
            shown = list(itertools.islice(missing, 10))
            more = top - len(ins) - len(shown)
            tail = f" and {more} more" if more else ""
            raise ValueError(f"states without instructions: {shown}{tail}")


@dataclass(frozen=True)
class SimResult:
    halts: bool
    steps: int
    final: tuple[int, int, int]


def simulate(m: TwoRegisterMachine, max_steps: int) -> SimResult:
    """Run from (0, 0, 0) for at most max_steps instruction executions."""
    state = 0
    regs = [0, 0, 0]
    steps = 0
    while state != HALT_STATE and steps < max_steps:
        op = m.instructions[state]
        if isinstance(op, Inc):
            regs[op.reg] += 1
            state = op.target
        elif regs[op.reg] == 0:
            state = op.if_zero
        else:
            regs[op.reg] -= 1
            state = op.if_positive
        steps += 1
    return SimResult(state == HALT_STATE, steps, (state, regs[1], regs[2]))


# ------------------------------------------------------------- encoding

def _config(i: int, a: Term, b: Term) -> Formula:
    return atom(f"K{i}", a, b)


def _delta(i: int, op: Instruction) -> Formula:
    x, xp, y = var("x"), var("x'"), var("y")
    n0 = const("n0")
    if isinstance(op, Inc):
        if op.reg == 1:
            return imp(_config(i, x, y), _config(op.target, xp, y))
        return imp(_config(i, y, x), _config(op.target, y, xp))
    if op.reg == 1:
        return conj(
            imp(_config(i, n0, y), _config(op.if_zero, n0, y)),
            imp(_config(i, xp, y), _config(op.if_positive, x, y)),
        )
    return conj(
        imp(_config(i, y, n0), _config(op.if_zero, y, n0)),
        imp(_config(i, y, xp), _config(op.if_positive, y, x)),
    )


def _step_axiom(m: TwoRegisterMachine) -> Formula:
    body: Optional[Formula] = None
    for i in sorted(m.instructions):
        d = _delta(i, m.instructions[i])
        body = d if body is None else conj(body, d)
    x, xp = var("x"), var("x'")
    guarded = imp(atom("S", x, xp), body)
    return forall("x", forall("x'", forall("y", guarded)))


def encode_phi(m: TwoRegisterMachine) -> Formula:
    """Single formula whose halting query is underivable exactly when the
    machine runs forever; the successor relation S is axiomatised serial."""
    x, xp = var("x"), var("x'")
    seriality = forall("x", exists("x'", atom("S", x, xp)))
    start = _config(0, const("n0"), const("n0"))
    return conj(conj(seriality, start), _step_axiom(m))


def bounded_halting_instance(
    m: TwoRegisterMachine, t: int
) -> tuple[list[Formula], Formula]:
    """Hypotheses and query deciding whether the machine halts while both
    registers stay within 0..t: the start configuration, the step axiom,
    and an explicit successor chain n0 .. n<t> standing in for the
    seriality conjunct. The chain bounds register values, not steps, and
    its links are reusable, so halting within t steps implies entailment
    but a run longer than t steps is entailed too once t reaches its peak
    register value."""
    if t < 0:
        raise ValueError("register bound must be nonnegative")
    hyps = [_config(0, const("n0"), const("n0")), _step_axiom(m)]
    for k in range(t):
        hyps.append(atom("S", const(f"n{k}"), const(f"n{k + 1}")))
    query = exists("x", exists("y", _config(HALT_STATE, var("x"), var("y"))))
    return hyps, query


# -------------------------------------------------------- machine files

_INC_LINE = re.compile(r"state\s+(\d+)\s*:\s*inc\s+(\d+)\s*->\s*(\d+)\s*$")
_DEC_LINE = re.compile(
    r"state\s+(\d+)\s*:\s*dec\s+(\d+)\s*zero->\s*(\d+)\s*else->\s*(\d+)\s*$"
)


def parse_machine(text: str) -> TwoRegisterMachine:
    """Read one instruction per line; # starts a comment.

    Line formats:
        state <i>: inc <r> -> <j>
        state <i>: dec <r> zero-> <j> else-> <l>
    """
    ins: dict[int, Instruction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        g = _INC_LINE.match(line)
        if g:
            i, r, j = (int(x) for x in g.groups())
            op: Instruction = Inc(r, j)
        else:
            g = _DEC_LINE.match(line)
            if not g:
                raise ValueError(f"line {lineno}: cannot parse: {line!r}")
            i, r, j, l = (int(x) for x in g.groups())
            op = Dec(r, j, l)
        if i in ins:
            raise ValueError(f"line {lineno}: state {i} appears twice")
        ins[i] = op
    return TwoRegisterMachine(ins)


def machine_to_text(m: TwoRegisterMachine) -> str:
    """Canonical text form: one line per state in ascending order."""
    lines = []
    for i in sorted(m.instructions):
        op = m.instructions[i]
        if isinstance(op, Inc):
            lines.append(f"state {i}: inc {op.reg} -> {op.target}")
        else:
            lines.append(
                f"state {i}: dec {op.reg} zero-> {op.if_zero}"
                f" else-> {op.if_positive}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------- horn clauses

@dataclass(frozen=True)
class HornClause:
    """Universally closed clause A1 -> (A2 -> ... -> C) with atomic
    antecedents and an atomic or false consequent."""

    bound_vars: tuple[str, ...]
    antecedents: tuple[Formula, ...]
    consequent: Formula

    def __post_init__(self):
        object.__setattr__(self, "bound_vars", tuple(self.bound_vars))
        object.__setattr__(self, "antecedents", tuple(self.antecedents))
        if len(set(self.bound_vars)) != len(self.bound_vars):
            raise ValueError("duplicate bound variable")
        for a in self.antecedents:
            if not isinstance(a, Atom):
                raise ValueError("antecedents must be atoms")
        if not isinstance(self.consequent, (Atom, Bot)):
            raise ValueError("consequent must be an atom or the false constant")

    def to_formula(self) -> Formula:
        f = self.consequent
        for a in reversed(self.antecedents):
            f = imp(a, f)
        for v in reversed(self.bound_vars):
            f = forall(v, f)
        return f


def _ground(a: Formula, env: dict[str, Term]) -> Formula:
    if not isinstance(a, Atom) or not a.args:
        return a
    return atom(
        a.rel, *(env.get(t.name, t) if t.kind == VAR else t for t in a.args)
    )


def classical_horn_bottom(clauses, params: tuple[Term, ...]) -> bool:
    """Classical saturation verdict: the clause set derives falsity.

    Bound variables range over params; clause bodies are
    quantifier free, so grounding is plain argument replacement and a
    naive modus ponens fixpoint decides the question.
    """
    rules: list[tuple[tuple[Formula, ...], Optional[Formula]]] = []
    for cl in clauses:
        for combo in itertools.product(params, repeat=len(cl.bound_vars)):
            env = dict(zip(cl.bound_vars, combo))
            ants = tuple(_ground(a, env) for a in cl.antecedents)
            cons = (
                None
                if isinstance(cl.consequent, Bot)
                else _ground(cl.consequent, env)
            )
            rules.append((ants, cons))
    facts: set[Formula] = set()
    changed = True
    while changed:
        changed = False
        for ants, cons in rules:
            if cons is not None and cons in facts:
                continue
            if all(a in facts for a in ants):
                if cons is None:
                    return True
                facts.add(cons)
                changed = True
    return False


_BOUND_POOL = ("u1", "u2", "u3")
_HORN_RELATIONS = ("R1", "R2", "R3")


def _horn_atom(rng: Random, arity, bound, params) -> Formula:
    r = rng.choice(_HORN_RELATIONS)
    args = []
    for _ in range(arity[r]):
        if bound and rng.random() < 0.5:
            args.append(var(rng.choice(bound)))
        else:
            args.append(rng.choice(params))
    return atom(r, *args)


def random_horn(rng: Random, n_clauses: int) -> list[HornClause]:
    """Random clause set over relations R1..R3 of arity at most 2, whose
    bound variables (u1..u3) never collide with its parameters (constants
    a, b and the free variable y), so every ground instance the classical
    oracle uses is substitutable."""
    if n_clauses < 0:
        raise ValueError("clause count must be nonnegative")
    arity = {r: rng.randrange(3) for r in _HORN_RELATIONS}
    params = (const("a"), const("b"), var("y"))
    clauses = []
    for _ in range(n_clauses):
        bound = _BOUND_POOL[: rng.randrange(3)]
        ants = tuple(
            _horn_atom(rng, arity, bound, params)
            for _ in range(rng.randrange(3))
        )
        cons = (
            bot()
            if rng.random() < 0.3
            else _horn_atom(rng, arity, bound, params)
        )
        clauses.append(HornClause(bound, ants, cons))
    return clauses


# ------------------------------------------------------ random instances

_NULLARY = ("p", "q", "r", "s")
_UNARY = ("R", "T")


def _leaf(rng: Random, use_quant: bool) -> Formula:
    k = rng.random()
    if k < 0.55:
        return atom(rng.choice(_NULLARY))
    if k < 0.8:
        rel = rng.choice(_UNARY)
        if use_quant and rng.random() < 0.4:
            return atom(rel, var("x"))
        return atom(rel, const(rng.choice(("c", "d"))))
    if k < 0.9:
        return top()
    return bot()


def _draw_formula(rng: Random, depth: int, use_quant: bool) -> Formula:
    if depth == 0 or rng.random() < 0.25:
        return _leaf(rng, use_quant)
    n = rng.randrange(5) if use_quant else rng.randrange(3)
    if n == 3:
        return forall("x", _draw_formula(rng, depth - 1, use_quant))
    if n == 4:
        return exists("x", _draw_formula(rng, depth - 1, use_quant))
    l = _draw_formula(rng, depth - 1, use_quant)
    r = _draw_formula(rng, depth - 1, use_quant)
    return (conj, disj, imp)[n](l, r)


def _draw_closed(rng: Random, use_quant: bool) -> Formula:
    f = _draw_formula(rng, rng.randrange(1, 4), use_quant)
    if "x" in f.free:
        f = forall("x", f)
    return f


_OVERRIDE_LIMIT = 12


def random_instance(
    rng: Random,
    n_hyps: Optional[int] = None,
    n_queries: int = 1,
    variant: CalculusVariant = CalculusVariant.QPL,
) -> tuple[list[Formula], list[Formula]]:
    """Hypotheses and queries drawn small enough for the semantic oracle:
    the override assignment stays within 12 entries and the oracle's total
    exponent within its default cap. Propositional variants get
    quantifier-free output."""
    if n_hyps is not None and n_hyps < 0:
        raise ValueError("hypothesis count must be nonnegative")
    if n_queries < 1:
        raise ValueError("query count must be positive")
    use_quant = variant >= CalculusVariant.QPL
    if n_hyps is None:
        n_hyps = rng.randrange(1, 5)
    while True:
        hyps = [_draw_closed(rng, use_quant) for _ in range(n_hyps)]
        queries = [_draw_closed(rng, use_quant) for _ in range(n_queries)]
        ct = closure([*hyps, *queries])
        dom = override_domain(ct)
        if len(dom) > _OVERRIDE_LIMIT:
            continue
        if _exponent(ct, relation_arities(ct), dom) > DEFAULT_ORACLE_CAP:
            continue
        return hyps, queries


# --------------------------------------------------------- chain family

def chain_family(n_symbols: int) -> tuple[list[Formula], Formula]:
    """Implication chain p0, p0 -> p1, .., with query the last link, sized
    to a total symbol budget of n_symbols; actual total is 3m + 2."""
    if n_symbols < 5:
        raise ValueError("budget too small for one link")
    m = (n_symbols - 2) // 3
    ps = [atom(f"p{i}") for i in range(m + 1)]
    hyps: list[Formula] = [ps[0]]
    hyps.extend(imp(ps[i], ps[i + 1]) for i in range(m))
    return hyps, ps[m]


# ------------------------------------------------------- counter family

def counter_family(d: int) -> tuple[list[Formula], Formula]:
    """The d-bit binary counter over the constants c0 and c1, most
    significant bit first: the hypothesis C(c0, .., c0), for each bit k the
    step forall x0 .. x(k-1). C(x0 .. x(k-1), c0, c1 .. c1) -> C(x0 ..
    x(k-1), c1, c0 .. c0), and the query C(c1, .., c1).

    Deriving the query runs the counter through all 2^d values, so every
    member of the closure, 3 * 2^d - (d + 2) of them, is derived and in
    its proof; the input length grows as d^2."""
    if d < 1:
        raise ValueError("a counter needs at least one bit")
    c0, c1 = const("c0"), const("c1")
    hyps: list[Formula] = [atom("C", *[c0] * d)]
    for k in range(d):
        xs = [var(f"x{i}") for i in range(k)]
        rest = d - k - 1
        step = imp(atom("C", *xs, c0, *[c1] * rest),
                   atom("C", *xs, c1, *[c0] * rest))
        for i in reversed(range(k)):
            step = forall(f"x{i}", step)
        hyps.append(step)
    return hyps, atom("C", *[c1] * d)
