#!/usr/bin/env python3
"""Measure the instance closure: polynomial bound, exponential family.

The closure of an input set is every subformula instantiated at every
parameter tuple the decision procedure may need. Its size is capped by
len(S) * |P|^d where d is the quantifier nesting depth, so for fixed d
it grows polynomially. Nesting d itself is what blows up: a family of
inputs with r nested quantifiers over r parameters forces r^r growth.
"""

from qpl import closure, parse_formula, render
from qpl.syntax import atom, const, forall, var


def family(r):
    # R(p1, x1, ..., pr, xr) under r nested universals
    args = []
    for i in range(1, r + 1):
        args.append(const(f"p{i}"))
        args.append(var(f"x{i}"))
    f = atom("R", *args)
    for i in range(r, 0, -1):
        f = forall(f"x{i}", f)
    return f


print("A small closed input first:")
f = parse_formula("forall x. (R(x) -> (exists y. S(x, y)))")
ct = closure([f])
names = [t.name for t in ct.params]
print(f"  input length {ct.stats.input_length}, parameters {names}")
print(f"  universe has {ct.stats.size} formulas, total length {ct.stats.closure_length}")
for g in ct.universe:
    print("    " + render(g))

print()
print("Nested-quantifier family, r = 2..5:")
print(f"  {'r':>2} {'input':>6} {'universe':>9} {'total len':>10} {'n*r^r':>9}")
for r in range(2, 6):
    f = family(r)
    ct = closure([f])
    n = f.length
    print(f"  {r:>2} {n:>6} {ct.stats.size:>9} {ct.stats.closure_length:>10} {n * r**r:>9}")
print()
print("The universe count stays within len(S) * |P|^d while the total")
print("written-out length crosses n * r^r: the same few shapes recur at")
print("exponentially many parameter tuples.")
