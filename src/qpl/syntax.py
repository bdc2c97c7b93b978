"""Formula syntax: interned terms and formulas, parsing, printing,
substitution, parameter extraction, and the instantiation closure.

Formulas and terms are hash-interned. Building the same shape twice returns
the same object, so equality is identity, membership tests are pointer
comparisons, and dictionaries keyed by formulas behave like dictionaries
keyed by small integers. Interned objects must never be mutated.

The symbol-length convention used throughout: nullary atoms and the truth
constants count 1; an atom with k >= 1 arguments counts 2k + 2 (relation
symbol, two parentheses, k arguments, k - 1 commas); a binary connective
adds 1 to the lengths of its operands; a quantification (quantifier plus
bound variable) adds 1 to the length of its body.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass

VAR = "var"
CONST = "const"

RESERVED_PREFIX = "_"
FIXED_CONSTANT = "_0"

DEFAULT_CLOSURE_CAP = 10_000_000

_IDENT_FULL = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")
_KEYWORDS = frozenset({"true", "false", "forall", "exists"})


class ClashError(Exception):
    """Substitution would move a variable under a binder of the same name."""


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
        if not _IDENT_FULL.match(name):
            raise ValueError(f"not an identifier: {name!r}")
        t = _TERMS[key] = Term(kind, name)
    return t


def var(name: str) -> Term:
    return _mk_term(VAR, name)


def const(name: str) -> Term:
    return _mk_term(CONST, name)


# -------------------------------------------------------------- formulas

class Formula:
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
        for t in args:
            if not isinstance(t, Term):
                raise TypeError(f"atom argument is not a Term: {t!r}")
        f = Atom()
        f.rel = rel
        f.args = args
        f.free = frozenset(t.name for t in args if t.kind == VAR) or _EMPTY
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
        f.free = l.free | r.free
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
        f.free = body.free - {v} if v in body.free else body.free
        f.qdepth = body.qdepth + 1
        f.length = body.length + 1
        _FORMULAS[key] = f
    return f


def forall(v: str, body: Formula) -> Formula:
    return _mk_quant("!", Forall, v, body)


def exists(v: str, body: Formula) -> Formula:
    return _mk_quant("?", Exists, v, body)


def free_vars(a: Formula) -> frozenset[str]:
    return a.free


def formula_length(a: Formula) -> int:
    """Symbol count under the module's length convention."""
    return a.length


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


# ---------------------------------------------------------- substitution

def substitute(a: Formula, x: str, t: Term) -> Formula:
    """Replace every free occurrence of the variable x in a by t.

    Raises ClashError when t is a variable and some replaced occurrence
    would fall under a binder for t; there is no renaming.
    """
    if x not in a.free:
        return a
    if t.kind == VAR and t.name == x:
        return a
    cls = a.__class__
    if cls is Atom:
        return atom(
            a.rel,
            *[t if (u.kind == VAR and u.name == x) else u for u in a.args],
        )
    if cls is And:
        return conj(substitute(a.l, x, t), substitute(a.r, x, t))
    if cls is Or:
        return disj(substitute(a.l, x, t), substitute(a.r, x, t))
    if cls is Imp:
        return imp(substitute(a.l, x, t), substitute(a.r, x, t))
    # quantifier with x free below; binder cannot equal x
    if t.kind == VAR and t.name == a.var:
        raise ClashError(
            f"substituting {t.name} for {x} is captured by the binder in "
            f"{render(a)}"
        )
    if cls is Forall:
        return forall(a.var, substitute(a.body, x, t))
    return exists(a.var, substitute(a.body, x, t))


# ------------------------------------------------------------ parameters

@dataclass(frozen=True)
class ParamSet:
    """Constants and free variables, in first-occurrence order.

    contains_fixed marks that the fixed reserved constant was appended
    because the input had no constants of its own.
    """

    elements: tuple[Term, ...]
    contains_fixed: bool

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.elements)


def _collect_params(f: Formula, bound: frozenset[str], seen: set, out: list) -> None:
    cls = f.__class__
    if cls is Atom:
        for t in f.args:
            if t.kind == CONST or t.name not in bound:
                if t not in seen:
                    seen.add(t)
                    out.append(t)
    elif cls in (And, Or, Imp):
        _collect_params(f.l, bound, seen, out)
        _collect_params(f.r, bound, seen, out)
    elif cls in (Forall, Exists):
        _collect_params(f.body, bound | {f.var}, seen, out)


def parameters(f: Formula) -> tuple[Term, ...]:
    """Constants and free variables of one formula, first occurrence first."""
    seen: set = set()
    out: list = []
    _collect_params(f, _EMPTY, seen, out)
    return tuple(out)


def parameters_star(formulas) -> ParamSet:
    seen: set = set()
    out: list = []
    for f in formulas:
        _collect_params(f, _EMPTY, seen, out)
    if not any(t.kind == CONST for t in out):
        out.append(const(FIXED_CONSTANT))
        return ParamSet(tuple(out), True)
    return ParamSet(tuple(out), False)


# -------------------------------------------------------------- closure

@dataclass(frozen=True)
class ClosureStats:
    size: int
    n_params: int
    depth: int
    input_length: int
    closure_length: int


@dataclass(frozen=True)
class ClosureTable:
    """The instantiation closure of an input set.

    universe lists every formula reachable from the inputs by taking
    immediate subformulas, where a quantified formula contributes the
    substitutable instances of its body over the parameter set; order is
    breadth-first from the inputs. sub_instances records those instance
    tuples per quantified member.
    """

    universe: list[Formula]
    index: dict[Formula, int]
    sub_instances: dict[Formula, tuple[Formula, ...]]
    params: ParamSet
    stats: ClosureStats


def closure(s, cap: int = DEFAULT_CLOSURE_CAP) -> ClosureTable:
    inputs = list(dict.fromkeys(s))
    params = parameters_star(inputs)
    elements = params.elements
    universe: list[Formula] = []
    index: dict[Formula, int] = {}
    subs: dict[Formula, tuple[Formula, ...]] = {}
    queue: deque[Formula] = deque(inputs)
    while queue:
        f = queue.popleft()
        if f in index:
            continue
        index[f] = len(universe)
        universe.append(f)
        if len(universe) > cap:
            raise ResourceLimit(
                f"closure exceeds cap of {cap} formulas; raise the cap to "
                f"proceed"
            )
        cls = f.__class__
        if cls in (And, Or, Imp):
            queue.append(f.l)
            queue.append(f.r)
        elif cls in (Forall, Exists):
            insts: list[Formula] = []
            inst_seen: set[Formula] = set()
            body, v = f.body, f.var
            for t in elements:
                try:
                    g = substitute(body, v, t)
                except ClashError:
                    continue
                if g not in inst_seen:
                    inst_seen.add(g)
                    insts.append(g)
            subs[f] = tuple(insts)
            queue.extend(insts)
    stats = ClosureStats(
        size=len(universe),
        n_params=len(elements),
        depth=max((f.qdepth for f in inputs), default=0),
        input_length=sum(f.length for f in inputs),
        closure_length=sum(f.length for f in universe),
    )
    return ClosureTable(universe, index, subs, params, stats)


# --------------------------------------------------------------- parsing

class SymbolTable:
    """Relation arities seen so far; one table spans one problem."""

    def __init__(self):
        self.arities: dict[str, int] = {}

    def observe(self, rel: str, arity: int, pos: int | None = None) -> None:
        prev = self.arities.get(rel)
        if prev is None:
            self.arities[rel] = arity
        elif prev != arity:
            raise ArityError(
                f"relation {rel!r} used with {arity} argument(s) but "
                f"earlier with {prev}",
                pos,
            )


_PUNCT = {
    "&": "amp",
    "|": "bar",
    "~": "tilde",
    "(": "lparen",
    ")": "rparen",
    ".": "dot",
    ",": "comma",
}

_TOKEN_RE = re.compile(r"(->)|([&|~().,])|([A-Za-z_][A-Za-z0-9_']*)|(\s+)|(.)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    for m in _TOKEN_RE.finditer(text):
        pos = m.start()
        if m.group(1):
            out.append(("arrow", "->", pos))
        elif m.group(2):
            ch = m.group(2)
            out.append((_PUNCT[ch], ch, pos))
        elif m.group(3):
            word = m.group(3)
            out.append(("kw" if word in _KEYWORDS else "ident", word, pos))
        elif m.group(4):
            continue
        else:
            raise ParseError(f"unexpected character {m.group(5)!r}", pos)
    out.append(("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, text, declared_vars, symbols, allow_reserved):
        self.toks = _tokenize(text)
        self.i = 0
        self.declared = frozenset(declared_vars)
        self.symbols = symbols if symbols is not None else SymbolTable()
        self.allow_reserved = allow_reserved
        self.bound: list[str] = []

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind, what):
        tok = self.next()
        if tok[0] != kind:
            got = repr(tok[1]) if tok[0] != "eof" else "end of input"
            raise ParseError(f"expected {what}, got {got}", tok[2])
        return tok

    def check_name(self, name, pos):
        if name.startswith(RESERVED_PREFIX) and not self.allow_reserved:
            raise ReservedNameError(
                f"identifiers starting with {RESERVED_PREFIX!r} are reserved: "
                f"{name!r}",
                pos,
            )

    def parse(self) -> Formula:
        f = self.formula()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return f

    def formula(self) -> Formula:
        tok = self.peek()
        if tok[0] == "kw" and tok[1] in ("forall", "exists"):
            return self.quantified()
        return self.implication()

    def quantified(self) -> Formula:
        tok = self.next()
        ctor = forall if tok[1] == "forall" else exists
        names = []
        while self.peek()[0] == "ident":
            name_tok = self.next()
            self.check_name(name_tok[1], name_tok[2])
            names.append(name_tok[1])
        if not names:
            raise ParseError("expected bound variable", self.peek()[2])
        self.expect("dot", "'.'")
        self.bound.extend(names)
        body = self.formula()
        del self.bound[-len(names):]
        for name in reversed(names):
            body = ctor(name, body)
        return body

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "arrow":
            self.next()
            return imp(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek()[0] == "bar":
            self.next()
            f = disj(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek()[0] == "amp":
            self.next()
            f = conj(f, self.unary())
        return f

    def unary(self) -> Formula:
        if self.peek()[0] == "tilde":
            self.next()
            return imp(self.unary(), _BOT)
        return self.atomic()

    def atomic(self) -> Formula:
        tok = self.next()
        kind, text, pos = tok
        if kind == "kw":
            if text == "true":
                return _TOP
            if text == "false":
                return _BOT
            raise ParseError(
                f"{text!r} must be parenthesized in this position", pos
            )
        if kind == "lparen":
            f = self.formula()
            self.expect("rparen", "')'")
            return f
        if kind == "ident":
            self.check_name(text, pos)
            if self.peek()[0] == "lparen":
                self.next()
                args = [self.term()]
                while self.peek()[0] == "comma":
                    self.next()
                    args.append(self.term())
                self.expect("rparen", "')'")
                self.symbols.observe(text, len(args), pos)
                return atom(text, *args)
            self.symbols.observe(text, 0, pos)
            return atom(text)
        got = repr(text) if kind != "eof" else "end of input"
        raise ParseError(f"expected a formula, got {got}", pos)

    def term(self) -> Term:
        tok = self.next()
        if tok[0] != "ident":
            got = repr(tok[1]) if tok[0] != "eof" else "end of input"
            raise ParseError(f"expected a term, got {got}", tok[2])
        name = tok[1]
        self.check_name(name, tok[2])
        if name in self.bound or name in self.declared:
            return var(name)
        return const(name)


def parse_formula(
    text: str,
    declared_vars=(),
    *,
    symbols: SymbolTable | None = None,
    allow_reserved: bool = False,
) -> Formula:
    return _Parser(text, declared_vars, symbols, allow_reserved).parse()


@dataclass
class Problem:
    formulas: list[Formula]
    declared_vars: tuple[str, ...]
    symbols: SymbolTable


def parse_problem(
    text: str, declared_vars=(), symbols: SymbolTable | None = None
) -> Problem:
    """One formula per line; '#' comments; '@vars x y' declares free vars.

    declared_vars and symbols continue an earlier problem's, so a file of
    queries reads against its hypothesis file; the Problem returned holds
    this text's formulas, the names declared so far and the shared table.
    """
    formulas: list[Formula] = []
    declared: list[str] = list(declared_vars)
    if symbols is None:
        symbols = SymbolTable()
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
