#!/usr/bin/env python3
"""Walk through the decision procedure on a few small judgments.

Shows how verdicts differ across the calculus variants, what an
extracted derivation looks like, and what comes back when a query is
refused.
"""

from qpl import (
    CalculusVariant,
    atom,
    bot,
    check_derivation,
    countermodel_json,
    disj,
    entails,
    imp,
    parse_formula,
    render,
    top,
    verdict_countermodel,
)


def show(title):
    print()
    print(title)
    print("-" * len(title))


def main():
    p, q = atom("p"), atom("q")

    show("Conjunction commutes")
    hyps = [parse_formula("p & q")]
    goal = parse_formula("q & p")
    v = entails(hyps, goal, CalculusVariant.QPL)
    print(f"{render(hyps[0])} |- {render(goal)}: {v.entailed}")
    # node i cites its premises by position; a node naming no rule is a
    # hypothesis, and one naming a rule but citing no premise an axiom
    for i, node in enumerate(v.proof.nodes):
        tag = node.rule if node.parents else "axiom" if node.rule else "hypothesis"
        parents = ",".join(str(j) for j in node.parents)
        print(f"  [{i}] {render(node.label)}  ({tag}{' <- ' + parents if parents else ''})")
    report = check_derivation(v.proof, CalculusVariant.QPL, hyps, goal)
    print(f"independent check: ok={report.ok}")

    show("Disjunction needs the first extension")
    hyps = [p]
    goal = disj(p, q)
    for variant in (CalculusVariant.ORIGINAL, CalculusVariant.L1):
        v = entails(hyps, goal, variant)
        print(f"at {variant.cli_name}: p |- p | q is {v.entailed}")

    show("Falsity is quarantined until the second extension")
    hyps = [bot()]
    for variant in (CalculusVariant.L1, CalculusVariant.L2):
        v = entails(hyps, q, variant)
        print(f"at {variant.cli_name}: false |- q is {v.entailed}")

    show("Implication does not chain")
    hyps = [parse_formula("A -> B"), parse_formula("B -> C")]
    goal = parse_formula("A -> C")
    v = entails(hyps, goal, CalculusVariant.QPL)
    print(f"A -> B, B -> C |- A -> C: {v.entailed}")
    model, override = verdict_countermodel(v)
    doc = countermodel_json(model, override)
    print("countermodel over universe", doc["universe"])
    print("  atoms true:", doc["atoms_true"] or "none")
    for key, val in doc["override"].items():
        print(f"  override {key!r} = {val}")

    show("But detachment works")
    v = entails([p, imp(p, q)], q, CalculusVariant.ORIGINAL)
    print(f"p, p -> q |- q: {v.entailed} "
          f"({v.stats['universe_size']} formulas in the search universe)")
    v = entails([imp(top(), bot())], bot(), CalculusVariant.ORIGINAL)
    print(f"T -> F |- F: {v.entailed}  (the guard is dischargeable)")


if __name__ == "__main__":
    main()
