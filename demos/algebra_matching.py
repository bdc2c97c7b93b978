#!/usr/bin/env python3
"""Decide term-order questions as entailments.

Terms are built from generators, join, and a left-annihilating
composition. A term is itself a formula of the original calculus (join
is conjunction, composition is implication, 0 is truth), and the order
s >= t is defined through the engine: s >= t exactly when s yields t at
the smallest calculus variant.
"""

from qpl.algebra import parse_term, render_term, term_equal, term_geq
from qpl import CalculusVariant, entails, render

PAIRS = [
    ("a + b", "a"),
    ("a", "a + b"),
    ("a + b", "b + a"),
    ("(a * b) + b", "b"),
    ("a * b", "b * a"),
    ("a + 0", "a"),
]

print(f"{'s':>12}  {'t':>12}   s>=t  t>=s  equal")
for left, right in PAIRS:
    s, t = parse_term(left), parse_term(right)
    ge = term_geq(s, t)
    le = term_geq(t, s)
    eq = term_equal(s, t)
    print(f"{render_term(s):>12}  {render_term(t):>12}   {str(ge):5} {str(le):5} {eq}")

print()
s = parse_term("(a * b) + b")
print(f"{render_term(s)!r} is the formula {render(s)!r}")
v = entails([s], parse_term("b"), CalculusVariant.ORIGINAL)
print(f"and the engine confirms it yields 'b': {v.entailed}")
