"""Infon terms: a join semilattice with zero and a weak pseudocomplement.

A term is an `orig` formula, interned like every formula: 0 is truth, a
generator is a nullary atom, + (join) is conjunction and * (weak
pseudocomplement) is implication. The original calculus decides the term
order, s >= t exactly when s entails t; there is no normal form here.
"""

from __future__ import annotations

import re

from .calculus import CalculusVariant
from .engine import entails
from .syntax import And, Atom, Formula, Imp, Top, atom, conj, imp, top
from .syntax import ParseError, ReservedNameError

Zero, Gen, Join, PComp = top, atom, conj, imp


def term_geq(s: Formula, t: Formula) -> bool:
    """Whether s >= t in the free algebra, decided through the calculus."""
    return entails([s], t, CalculusVariant.ORIGINAL, with_proof=False).entailed


def term_equal(s: Formula, t: Formula) -> bool:
    return term_geq(s, t) and term_geq(t, s)


# ------------------------------------------------------------- grammar

_TOKEN = re.compile(r"[0+*()]|[A-Za-z_][A-Za-z0-9_']*|(\s+)|(.)")

# Operators: strength and constructor. Both group to the left, so the token
# after an operand folds every pending operator at least as strong as its
# own; any other token folds back to the nearest '(' or the start.
_BINARY = {"+": (1, conj), "*": (2, imp)}
_OPEN = (0, "(", None)
_START = (0, "", None)


def parse_term(text: str) -> Formula:
    """Parse one term, or raise ParseError (or ReservedNameError) with the
    column of the first error; a character no token covers comes first.
    Operator precedence with an explicit stack, so depth is unbounded."""
    toks = []
    for m in _TOKEN.finditer(text):
        if m.group(2) is not None:
            raise ParseError(f"unexpected character {m.group(2)!r}", m.start())
        if m.group(1) is None:
            toks.append((m.group(), m.start()))
    toks.append(("", len(text)))  # "" ends the input
    take = iter(toks).__next__
    stack: list[tuple] = [_START]
    while True:
        # Open parentheses, then one generator or 0 as f.
        tok, at = take()
        if tok == "(":
            stack.append(_OPEN)
            continue
        if tok == "0":
            f = top()
        elif tok[:1] == "_":
            raise ReservedNameError(f"identifier {tok!r} uses the reserved prefix", at)
        elif tok[:1].isalpha():
            f = atom(tok)
        else:
            raise _unexpected(tok, at)
        # Operators and closing tokens after f; each one is consumed.
        while True:
            tok, at = take()
            op = _BINARY.get(tok)
            reach = op[0] if op else 1
            while stack[-1][0] >= reach:
                _, left, ctor = stack.pop()
                f = ctor(left, f)
            if op is not None:
                stack.append((op[0], f, op[1]))
                break
            frame = stack.pop()
            if frame is _START and not tok:
                return f
            if frame is not _OPEN or tok != ")":
                raise _unexpected(tok, at, frame is _OPEN)


def _unexpected(tok: str, at: int, closing: bool = False) -> ParseError:
    message = "expected ')'" if closing else f"unexpected token {tok!r}"
    return ParseError(message if tok else "unexpected end of input", at)


# Strength and infix of each operator. An operand is parenthesized when it
# binds more loosely than its parent, or as loosely and on the right.
_INFIX = {And: (1, " + "), Imp: (2, " * ")}


def render_term(t: Formula) -> str:
    """The text parse_term reads back as t, with no redundant parentheses;
    TypeError when the formula t is not a term."""
    out: list[str] = []
    stack: list = [t]
    while stack:
        f = stack.pop()
        cls = f.__class__
        if cls is str:
            out.append(f)
        elif cls is Top:
            out.append("0")
        elif cls is Atom and not f.args:
            out.append(f.rel)
        elif cls in _INFIX:
            strength, infix = _INFIX[cls]
            for operand, right in ((f.r, 1), (f.l, 0)):
                inner = _INFIX.get(operand.__class__)
                if inner is not None and inner[0] < strength + right:
                    stack += (")", operand, "(")
                else:
                    stack.append(operand)
                if right:
                    stack.append(infix)
        else:
            raise TypeError(f"not an infon term: {f!r}")
    return "".join(out)


_GENERATORS = ("a", "b", "c")


def random_term(rng, max_nodes: int = 12) -> Formula:
    """Uniform-ish term over a, b, c: at most max_nodes nodes, at least one."""
    if max_nodes < 3 or rng.random() < 0.3:
        if rng.random() < 0.15:
            return top()
        return atom(rng.choice(_GENERATORS))
    left = rng.randrange(1, max_nodes - 1)
    ctor = conj if rng.random() < 0.5 else imp
    right = max_nodes - 1 - left
    return ctor(random_term(rng, left), random_term(rng, right))
