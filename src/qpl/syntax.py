"""Formula syntax: interned terms and formulas, parsing, printing,
parameter extraction, and the instantiation closure, which builds each
subformula's instances for one bound variable once per closure call.

Formulas and terms are hash-interned. Building the same shape twice returns
the same object, so equality is identity, membership tests are pointer
comparisons, and dictionaries keyed by formulas behave like dictionaries
keyed by small integers. Interned objects must never be mutated.

The symbol-length convention used throughout: nullary atoms and the truth
constants count 1; an atom with k >= 1 arguments counts 2k + 2 (relation
symbol, two parentheses, k arguments, k - 1 commas); a binary connective
adds 1 to the lengths of its operands; a quantification (quantifier plus
bound variable) adds 1 to the length of its body.

Every empty free-variable set is the one shared _EMPTY, and a connective
whose operand's free set contains the other's shares that set, so closed
formulas allocate no sets of their own.

The entry points that build data in proportion to their input (parse_problem,
engine.Session, the proof JSON conversions, the proof checker and cli.main)
run under gc_paused, with the cyclic garbage collector off. That is safe
because nothing they build can form a reference cycle: an interned formula
refers only to formulas built before it, closure tables, proof nodes and
JSON trees are trees or DAGs over them, and compiled rules and provenance
are columns of integers.
Reference counting frees all of it as soon as it is dropped, and a cycle
made during a paused call (an exception's traceback, say) is found by the
first collection after the call. The switch is process-wide: other threads
run without the collector for as long as a paused call lasts.
"""

from __future__ import annotations

import functools
import gc
import re
from dataclasses import dataclass
from typing import NamedTuple

VAR = "var"
CONST = "const"

RESERVED_PREFIX = "_"
FIXED_CONSTANT = "_0"

DEFAULT_CLOSURE_CAP = 10_000_000

_IDENT_FULL = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")
_KEYWORDS = frozenset({"true", "false", "forall", "exists"})


def gc_paused(fn):
    """Run fn with the cyclic garbage collector off, switching it back on
    when fn returns or raises; a caller that has it off already keeps it
    off. Only for calls whose data cannot form cycles (module docstring)."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


class ResourceLimit(RuntimeError):
    """A configured size cap would be exceeded."""


class ParseError(ValueError):
    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.message = message
        self.position = position

    def __str__(self) -> str:
        if self.position is None:
            return self.message
        return f"{self.message} (column {self.position})"


class ArityError(ParseError):
    pass


class ReservedNameError(ParseError):
    pass


# ----------------------------------------------------------------- terms

class Term:
    __slots__ = ("kind", "name")

    def __init__(self, kind: str, name: str):
        self.kind = kind
        self.name = name

    def __repr__(self) -> str:
        return f"Term({self.kind}, {self.name})"


_TERMS: dict[tuple[str, str], Term] = {}


def _mk_term(kind: str, name: str) -> Term:
    key = (kind, name)
    t = _TERMS.get(key)
    if t is None:
        if not _IDENT_FULL.match(name) or name in _KEYWORDS:
            raise ValueError(f"not an identifier: {name!r}")
        t = _TERMS[key] = Term(kind, name)
    return t


def var(name: str) -> Term:
    return _mk_term(VAR, name)


def const(name: str) -> Term:
    return _mk_term(CONST, name)


# -------------------------------------------------------------- formulas

class Formula:
    # free: the free variable names; length: the symbol count defined above
    __slots__ = ("free", "qdepth", "length")

    def __repr__(self) -> str:
        return f"Formula({render(self)!r})"


class Top(Formula):
    __slots__ = ()


class Bot(Formula):
    __slots__ = ()


class Atom(Formula):
    __slots__ = ("rel", "args")


class And(Formula):
    __slots__ = ("l", "r")


class Or(Formula):
    __slots__ = ("l", "r")


class Imp(Formula):
    __slots__ = ("l", "r")


class Forall(Formula):
    __slots__ = ("var", "body")


class Exists(Formula):
    __slots__ = ("var", "body")


_FORMULAS: dict[tuple, Formula] = {}

_EMPTY: frozenset[str] = frozenset()


def _mk_const_formula(cls) -> Formula:
    f = cls()
    f.free = _EMPTY
    f.qdepth = 0
    f.length = 1
    return f


_TOP = _mk_const_formula(Top)
_BOT = _mk_const_formula(Bot)


def top() -> Formula:
    return _TOP


def bot() -> Formula:
    return _BOT


def atom(rel: str, *args: Term) -> Formula:
    key = ("A", rel, *args)
    f = _FORMULAS.get(key)
    if f is None:
        if not _IDENT_FULL.match(rel) or rel in _KEYWORDS:
            raise ValueError(f"not a relation symbol: {rel!r}")
        names = []
        for t in args:
            if not isinstance(t, Term):
                raise TypeError(f"atom argument is not a Term: {t!r}")
            if t.kind == VAR:
                names.append(t.name)
        f = Atom()
        f.rel = rel
        f.args = args
        f.free = frozenset(names) if names else _EMPTY
        f.qdepth = 0
        f.length = 2 * len(args) + 2 if args else 1
        _FORMULAS[key] = f
    return f


def _mk_binary(tag: str, cls, l: Formula, r: Formula) -> Formula:
    key = (tag, l, r)
    f = _FORMULAS.get(key)
    if f is None:
        if not isinstance(l, Formula) or not isinstance(r, Formula):
            raise TypeError("binary connective needs Formula operands")
        f = cls()
        f.l = l
        f.r = r
        lf, rf = l.free, r.free
        f.free = lf if rf <= lf else rf if lf <= rf else lf | rf
        f.qdepth = l.qdepth if l.qdepth >= r.qdepth else r.qdepth
        f.length = l.length + r.length + 1
        _FORMULAS[key] = f
    return f


def conj(l: Formula, r: Formula) -> Formula:
    return _mk_binary("&", And, l, r)


def disj(l: Formula, r: Formula) -> Formula:
    return _mk_binary("|", Or, l, r)


def imp(l: Formula, r: Formula) -> Formula:
    return _mk_binary(">", Imp, l, r)


def _mk_quant(tag: str, cls, v: str, body: Formula) -> Formula:
    key = (tag, v, body)
    f = _FORMULAS.get(key)
    if f is None:
        if not _IDENT_FULL.match(v) or v in _KEYWORDS:
            raise ValueError(f"not a variable name: {v!r}")
        if not isinstance(body, Formula):
            raise TypeError("quantifier body must be a Formula")
        f = cls()
        f.var = v
        f.body = body
        f.free = (body.free - {v} or _EMPTY) if v in body.free else body.free
        f.qdepth = body.qdepth + 1
        f.length = body.length + 1
        _FORMULAS[key] = f
    return f


def forall(v: str, body: Formula) -> Formula:
    return _mk_quant("!", Forall, v, body)


def exists(v: str, body: Formula) -> Formula:
    return _mk_quant("?", Exists, v, body)


# ------------------------------------------------------------- rendering

def render(f: Formula) -> str:
    cls = f.__class__
    if cls is Atom:
        if not f.args:
            return f.rel
        return f"{f.rel}({', '.join(t.name for t in f.args)})"
    if cls is Top:
        return "true"
    if cls is Bot:
        return "false"
    if cls is And:
        return f"{_wrap(f.l)} & {_wrap(f.r)}"
    if cls is Or:
        return f"{_wrap(f.l)} | {_wrap(f.r)}"
    if cls is Imp:
        return f"{_wrap(f.l)} -> {_wrap(f.r)}"
    if cls is Forall:
        return f"forall {f.var}. {render(f.body)}"
    return f"exists {f.var}. {render(f.body)}"


def _wrap(g: Formula) -> str:
    s = render(g)
    if g.__class__ in (Atom, Top, Bot):
        return s
    return f"({s})"


# --------------------------------------------------------- instantiation

def _instances(body: Formula, v: str, params, done: dict) -> list:
    """body[v := t] for each t in params, in order, or None where a binder
    in body would capture the variable t; there is no renaming.

    One explicit-stack post-order walk: each shared subformula is visited
    once, and that visit builds its instances at every parameter. done
    maps each subformula walked so far to its instance list; it is the
    caller's table for v over these params, so a subformula met again in
    a later call, under another enclosing instance, is not walked again.
    """
    n = len(params)
    x = var(v)
    stack = [body]
    while stack:
        f = stack.pop()
        if f in done:
            continue
        cls = f.__class__
        if v not in f.free:
            done[f] = [f] * n
        elif cls is Atom:
            done[f] = [atom(f.rel, *[t if u is x else u for u in f.args])
                       for t in params]
        elif cls is Forall or cls is Exists:
            sub = done.get(f.body)
            if sub is None:
                stack += (f, f.body)
                continue
            w, mk = f.var, forall if cls is Forall else exists
            captured = var(w)
            done[f] = [None if g is None or t is captured else mk(w, g)
                       for t, g in zip(params, sub)]
        else:
            ls, rs = done.get(f.l), done.get(f.r)
            if ls is None or rs is None:
                stack += (f, f.l, f.r)
                continue
            mk = conj if cls is And else disj if cls is Or else imp
            done[f] = [None if g is None or h is None else mk(g, h)
                       for g, h in zip(ls, rs)]
    return done[body]


# ------------------------------------------------------------ parameters

def _collect_params(formulas) -> list[Term]:
    """Constants and free variables of formulas, first occurrence first.
    Under each quantifier body the explicit stack holds the binder set
    outside it, so popping that marker restores it after the body. A
    connective already walked under the same binder set (visits maps each
    binder set to those) would find nothing new, so it is skipped.
    """
    seen: set = set()
    out: list = []
    bound = _EMPTY
    visits: dict = {}
    done = visits[bound] = set()
    stack: list = []
    push, pop = stack.append, stack.pop
    for f in formulas:
        while True:
            cls = f.__class__
            if cls is Atom:
                for t in f.args:
                    if (t.kind == CONST or t.name not in bound) and t not in seen:
                        seen.add(t)
                        out.append(t)
            elif cls is Imp or cls is And or cls is Or:
                if f not in done:
                    done.add(f)
                    push(f.r)
                    f = f.l
                    continue
            elif cls is Forall or cls is Exists:
                push(bound)
                bound = bound | {f.var}
                done = visits.setdefault(bound, set())
                f = f.body
                continue
            elif cls is frozenset:
                bound = f
                done = visits[f]
            if not stack:
                break
            f = pop()
    return out


def parameters_star(formulas) -> tuple[Term, ...]:
    """The parameter set P of formulas: their constants and free variables
    in first-occurrence order, with the fixed reserved constant appended
    when they have no constant of their own."""
    out = _collect_params(formulas)
    if not any(t.kind == CONST for t in out):
        out.append(const(FIXED_CONSTANT))
    return tuple(out)


# -------------------------------------------------------------- closure

class ClosureStats(NamedTuple):
    size: int
    depth: int
    input_length: int
    closure_length: int
    left_out: int  # guarded instances whose guard never joined; 0 unguarded


class ClosureTable(NamedTuple):
    """The instantiation closure of an input set.

    universe lists every formula reachable from the inputs by taking
    immediate subformulas, where a quantified formula contributes the
    substitutable instances of its body over params, the inputs'
    parameters_star; each is numbered when first met, breadth-first from
    the inputs. sub_instances records those instance tuples per quantified
    member, in parameter order. Like ClosureStats, it is a named tuple,
    which closure builds without its Python-level __new__.
    """

    universe: list[Formula]
    index: dict[Formula, int]
    sub_instances: dict[Formula, tuple[Formula, ...]]
    params: tuple[Term, ...]
    stats: ClosureStats


def _guard(body: Formula, v: str) -> Formula | None:
    """The guard atom G of forall v. body when body is forall y1 .. forall
    yk. (G -> B), k >= 0, with v free in G and no yi free in G, else None.
    A yi free in G is bound in body, so the last test reads G.free <=
    body.free."""
    g = body
    while g.__class__ is Forall:
        g = g.body
    if g.__class__ is Imp:
        g = g.l
        if g.__class__ is Atom and v in g.free and g.free <= body.free:
            return g
    return None


def closure(
    s, cap: int = DEFAULT_CLOSURE_CAP, *, guarded: bool = False
) -> ClosureTable:
    """The closure table of the formulas s; ResourceLimit once the universe
    passes cap members.

    guarded=False gives the paper's closure. guarded=True gives the
    engine's universe: an instance forall y1 .. forall yk. (G -> B)[x := t]
    of a member forall x. forall y1 .. forall yk. (G -> B), where G is an
    atom with x free in it and no yi free in it (_guard), joins only once
    its guard G[x := t] is a member. Until then it waits, keyed by that
    atom, and joins when the atom is walked; an instance whose guard never
    joins is left out, and stats.left_out counts those. The engine module
    docstring says why that keeps every verdict.
    """
    if cap < 1:
        raise ValueError("closure cap must be positive")
    inputs = list(dict.fromkeys(s))
    params = parameters_star(inputs)
    # universe is the breadth-first queue: each formula is numbered when
    # first reached, and the walk takes members in that order
    universe = inputs.copy()
    index = {f: i for i, f in enumerate(universe)}
    subs: dict[Formula, tuple[Formula, ...]] = {}
    # one instantiation table per bound variable name, for this call only
    tables: dict[str, dict[Formula, list]] = {}
    # guarded only: guard atom -> the members and instances waiting for it,
    # flat: [member, instance, member, instance, ...]
    waiting: dict[Formula, list[Formula]] = {}
    for f in universe:
        if len(universe) > cap:
            raise ResourceLimit(
                f"closure exceeds cap of {cap} formulas; raise the cap to "
                f"proceed"
            )
        cls = f.__class__
        if cls in (And, Or, Imp):
            parts = (f.l, f.r)
        elif cls in (Forall, Exists):
            parts = (f.body,)
            v = f.var
            guard = None
            if v in f.body.free:
                done = tables.setdefault(v, {})
                insts = _instances(f.body, v, params, done)
                # drop captures (None); distinct parameters give distinct
                # instances
                parts = tuple(filter(None, insts))
                if guarded and cls is Forall:
                    guard = _guard(f.body, v)
            subs[f] = parts
            if guard is not None:
                # the instances whose guard is a member join now, the
                # others wait for it
                parts = []
                for h, a in zip(insts, done[guard]):
                    if h is None:
                        continue
                    if a in index:
                        parts.append(h)
                    elif a in waiting:
                        waiting[a] += f, h
                    else:
                        waiting[a] = [f, h]
        elif waiting:  # an atom wakes the instances waiting for it
            parts = waiting.pop(f, ())[1::2]
        else:
            continue
        for g in parts:
            if g not in index:
                index[g] = len(universe)
                universe.append(g)
    # a member with an instance left out lists only those that joined
    for f in {f for w in waiting.values() for f in w[::2]}:
        subs[f] = tuple([h for h in subs[f] if h in index])
    stats = _new_stats((
        len(universe),
        max((f.qdepth for f in inputs), default=0),
        sum(f.length for f in inputs),
        sum(f.length for f in universe),
        sum(map(len, waiting.values())) // 2,
    ))
    return _new_table((universe, index, subs, params, stats))


# ClosureStats(*fields) and ClosureTable(*fields) without the Python-level
# __new__ of a named tuple
_new_stats = functools.partial(tuple.__new__, ClosureStats)
_new_table = functools.partial(tuple.__new__, ClosureTable)


# --------------------------------------------------------------- parsing

# A token is "->", one of "&|~().,", or an identifier; whitespace separates
# tokens. _TOKEN skips any other character, so a text holds an unexpected
# character exactly when its tokens are shorter than its non-whitespace
# characters; _SCAN then finds the first one.
_TOKEN = re.compile(r"->|[&|~().,]|[A-Za-z_][A-Za-z0-9_']*")
_SCAN = re.compile(_TOKEN.pattern + r"|(\S)")

# Every token that is not an identifier; "" marks the end of input.
_NON_IDENT = frozenset(
    {"", "->", "&", "|", "~", "(", ")", ".", ",", *_KEYWORDS}
)

# Binary connectives: binding strength and constructor. "&" binds tighter
# than "|", which binds tighter than "->".
_BINARY = {"&": (3, conj), "|": (2, disj), "->": (1, imp)}

# The token after an operand folds every pending operator at least as
# strong as its reach: a connective's own strength, so that "&" and "|"
# group to the left, but 2 for the right-associative "->"; any other
# token reaches 1 and folds back to the nearest '(', quantifier or start.
_REACH = {"&": 3, "|": 2, "->": 2}

# Stack frames are (strength, left operand or binder names, constructor).
# A pending "~" is the strongest; '(', a quantifier scope and the start of
# input have strength 0, so that no token's reach folds them.
_NOT = (4, None, None)
_OPEN = (0, "(", None)
_START = (0, "", None)


def _got(tok: str) -> str:
    return repr(tok) if tok else "end of input"


def _column(text: str, i: int) -> int:
    """Column of token i of text, or len(text) for the end of input;
    recomputed only for an error, so that parsing keeps no positions."""
    starts = [m.start() for m in _TOKEN.finditer(text)]
    return starts[i] if i < len(starts) else len(text)


def _error(message: str, text: str, i: int) -> ParseError:
    return ParseError(message, _column(text, i))


def _reserved(name: str, text: str, i: int) -> ReservedNameError:
    return ReservedNameError(
        f"identifiers starting with {RESERVED_PREFIX!r} are reserved: "
        f"{name!r}",
        _column(text, i),
    )


def _arity_error(rel: str, n: int, prev: int, text: str, i: int) -> ArityError:
    return ArityError(
        f"relation {rel!r} used with {n} argument(s) but earlier with {prev}",
        _column(text, i),
    )


def parse_formula(
    text: str,
    declared_vars=(),
    *,
    symbols: dict[str, int] | None = None,
) -> Formula:
    """Parse one formula; raise ParseError (or its subclasses ArityError
    and ReservedNameError) with the column of the first error. symbols
    maps each relation seen so far to its arity, and gains this text's.

    An iterative operator-precedence parser: open parentheses, prefix
    negations, quantifier scopes and binary connectives awaiting their
    right operand sit on an explicit stack, so nesting depth is bounded
    by memory only. A quantifier may open the whole text, a parenthesized
    formula or a quantifier body, and extends as far right as possible.
    """
    toks = _TOKEN.findall(text)
    if len("".join(toks)) != len("".join(text.split())):
        m = next(m for m in _SCAN.finditer(text) if m.group(1))
        raise ParseError(f"unexpected character {m.group(1)!r}", m.start())
    toks.append("")
    declared = frozenset(declared_vars)
    arities = {} if symbols is None else symbols
    bound: list[str] = []
    stack: list[tuple] = [_START]
    i = 0
    while True:
        # Prefixes, then one atomic formula f.
        t = toks[i]
        i += 1
        if t not in _NON_IDENT:
            if t.startswith(RESERVED_PREFIX):
                raise _reserved(t, text, i - 1)
            if toks[i] == "(":
                rel_at = i - 1
                args = []
                while True:
                    i += 1
                    u = toks[i]
                    if u in _NON_IDENT:
                        raise _error(f"expected a term, got {_got(u)}", text, i)
                    if u.startswith(RESERVED_PREFIX):
                        raise _reserved(u, text, i)
                    args.append(
                        var(u) if u in bound or u in declared else const(u)
                    )
                    i += 1
                    if toks[i] != ",":
                        break
                if toks[i] != ")":
                    raise _error(f"expected ')', got {_got(toks[i])}", text, i)
                i += 1
                if arities.setdefault(t, len(args)) != len(args):
                    raise _arity_error(t, len(args), arities[t], text, rel_at)
                f = atom(t, *args)
            else:
                if arities.setdefault(t, 0) != 0:
                    raise _arity_error(t, 0, arities[t], text, i - 1)
                f = atom(t)
        elif t == "~":
            stack.append(_NOT)
            continue
        elif t == "(":
            stack.append(_OPEN)
            continue
        elif t == "true":
            f = _TOP
        elif t == "false":
            f = _BOT
        elif t == "forall" or t == "exists":
            if stack[-1][0]:  # not where a formula starts
                raise _error(
                    f"{t!r} must be parenthesized in this position", text, i - 1
                )
            names = []
            while toks[i] not in _NON_IDENT:
                if toks[i].startswith(RESERVED_PREFIX):
                    raise _reserved(toks[i], text, i)
                names.append(toks[i])
                i += 1
            if not names:
                raise _error("expected bound variable", text, i)
            if toks[i] != ".":
                raise _error(f"expected '.', got {_got(toks[i])}", text, i)
            i += 1
            bound.extend(names)
            stack.append((0, names, forall if t == "forall" else exists))
            continue
        else:
            raise _error(f"expected a formula, got {_got(t)}", text, i - 1)
        # Connectives and closing tokens after f.
        while True:
            t = toks[i]
            reach = _REACH.get(t, 1)
            while stack[-1][0] >= reach:
                _, left, ctor = stack.pop()
                f = imp(f, _BOT) if ctor is None else ctor(left, f)
            op = _BINARY.get(t)
            if op is not None:
                stack.append((op[0], f, op[1]))
                i += 1
                break
            frame = stack.pop()
            if frame is _OPEN:
                if t != ")":
                    raise _error(f"expected ')', got {_got(t)}", text, i)
                i += 1
            elif frame is _START:
                if t:
                    raise _error(f"unexpected {t!r}", text, i)
                return f
            else:
                _, names, ctor = frame
                del bound[-len(names):]
                for name in reversed(names):
                    f = ctor(name, f)


@dataclass
class Problem:
    formulas: list[Formula]
    declared_vars: tuple[str, ...]
    symbols: dict[str, int]  # relation name -> arity


@gc_paused
def parse_problem(
    text: str, declared_vars=(), symbols: dict[str, int] | None = None
) -> Problem:
    """One formula per line; '#' comments; '@vars x y' declares free vars.

    declared_vars and symbols continue an earlier problem's, so a file of
    queries reads against its hypothesis file; the Problem returned holds
    this text's formulas, the names declared so far and the shared arities.
    """
    formulas: list[Formula] = []
    declared: list[str] = list(declared_vars)
    if symbols is None:
        symbols = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        cut = raw.find("#")
        line = (raw if cut < 0 else raw[:cut]).strip()
        if not line:
            continue
        if line.startswith("@"):
            words = line.split()
            if words[0] != "@vars":
                raise ParseError(f"line {lineno}: unknown directive {words[0]!r}")
            for name in words[1:]:
                if not _IDENT_FULL.match(name) or name in _KEYWORDS:
                    raise ParseError(
                        f"line {lineno}: not a variable name: {name!r}"
                    )
                if name.startswith(RESERVED_PREFIX):
                    raise ReservedNameError(
                        f"line {lineno}: identifiers starting with "
                        f"{RESERVED_PREFIX!r} are reserved: {name!r}"
                    )
                if name not in declared:
                    declared.append(name)
            continue
        try:
            formulas.append(parse_formula(line, declared, symbols=symbols))
        except ParseError as e:
            raise type(e)(f"line {lineno}: {e.message}", e.position) from None
    return Problem(formulas, tuple(declared), symbols)
