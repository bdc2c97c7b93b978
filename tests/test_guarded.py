"""The guarded closure against the paper's: a Session decides on the
guarded universe, and every verdict must equal the eager engine's
(closure, compile_rules and saturate over the paper's closure) in the same
variant. Every proof must pass check_derivation, and the guarded universe
must lie inside the paper's closure. Every countermodel, read off the
guarded fixpoint and extended over the paper's closure (an override bit
it does not list is true, an atom it does not list is false), must make
every hypothesis true and its query false there.

The tests run a subset of each family. ``PYTHONPATH=src python
tests/test_guarded.py`` runs the full sizes (2,000 random draws per
variant, 1,000 Horn sets, machines up to t=8, counters up to 10 bits)
and prints the tallies.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import random
import sys
import textwrap
from dataclasses import dataclass, field

import pytest

from qpl import cli, engine, semantics, syntax
from qpl.calculus import CalculusVariant as V
from qpl.calculus import check_derivation
from qpl.engine import Session, compile_rules, saturate
from qpl.generators import (
    bounded_halting_instance,
    classical_horn_bottom,
    counter_family,
    parse_machine,
    random_horn,
    random_instance,
)
from qpl.semantics import countermodel, truth_mask, verdict_countermodel
from qpl.syntax import (
    atom,
    bot,
    closure,
    const,
    parameters_star,
    parse_problem,
    render,
)
from test_golden import MACHINE

# the golden 4-state machine, the one-state counter CI runs, and the
# three-state machine of demos/machine_reduction.py
MACHINES = {
    "golden": MACHINE,
    "count": parse_machine("state 0: inc 1 -> 0\n"),
    "demo": parse_machine(
        "state 0: inc 1 -> 2\nstate 2: inc 1 -> 3\nstate 3: inc 1 -> 1\n"
    ),
}


@dataclass
class Tally:
    sessions: int = 0
    smaller: int = 0  # sessions whose guarded universe is smaller
    proofs: int = 0
    mismatches: list = field(default_factory=list)


def differential(cases, tally: Tally | None = None) -> Tally:
    """Decide every (name, hyps, queries, variant) case both ways: by a
    Session, and by the eager engine, one saturation over the paper's
    closure."""
    tally = Tally() if tally is None else tally
    for name, hyps, queries, variant in cases:
        session = Session(hyps, queries, variant)
        got = session.verdicts()
        ct = closure([*hyps, *queries])
        state = saturate(hyps, ct, compile_rules(ct, variant))
        tally.sessions += 1
        if [v.entailed for v in got] != [
            state.derived[ct.index[q]] == 1 for q in queries
        ]:
            tally.mismatches.append(name)
            continue
        universe = session.closure_table.universe
        paper = ct.index
        assert all(f in paper for f in universe), name
        tally.smaller += len(universe) < len(paper)
        assert (session.closure_table.stats.left_out > 0) == (
            len(universe) < len(paper)
        ), name
        for v in got:
            if v.proof is not None:
                assert check_derivation(v.proof, variant, hyps, v.query).ok, name
                tally.proofs += 1
    return tally


def random_cases(draws: int, variants=tuple(V)):
    for variant in variants:
        rng = random.Random(3500 + int(variant))
        for k in range(draws):
            hyps, queries = random_instance(rng, None, 2, variant)
            yield f"random/{variant.cli_name}/{k}", hyps, queries, variant


def horn_sets(count: int):
    """(name, clauses) for count seeded random_horn sets."""
    for k in range(count):
        rng = random.Random(3600 + k)
        yield f"horn/{k}", random_horn(rng, rng.randrange(2, 7))


def machine_inputs(m, t: int):
    """The machine's hypotheses at bound t, and as queries its halting
    formula and every configuration with both registers at most t."""
    states = sorted({0, 1, *m.instructions})
    hyps, halting = bounded_halting_instance(m, t)
    configs = [
        atom(f"K{i}", const(f"n{a}"), const(f"n{b}"))
        for i in states
        for a in range(t + 1)
        for b in range(t + 1)
    ]
    return hyps, [halting, *configs]


def machine_cases(max_t: int):
    for name, m in MACHINES.items():
        for t in range(max_t + 1):
            yield f"machine/{name}/t{t}", *machine_inputs(m, t), V.QPL


def counter_cases(max_d: int):
    # every guard of the counter's last quantifier joins after its member
    # is walked, so each instance waits and is woken
    for d in range(1, max_d + 1):
        hyps, query = counter_family(d)
        yield f"counter/{d}", hyps, [query], V.QPL


def check_horn(count: int, tally: Tally) -> Tally:
    # falsity under qpl and pfqpl; under qpl, against classical saturation
    # too (pfqpl has no ForallE)
    for name, clauses in horn_sets(count):
        forms = [c.to_formula() for c in clauses]
        for variant in (V.QPL, V.PFQPL):
            differential([(f"{name}/{variant.cli_name}", forms, [bot()], variant)],
                         tally)
        params = parameters_star([*forms, bot()])
        got = Session(forms, [bot()], V.QPL).verdicts()[0].entailed
        if got is not classical_horn_bottom(clauses, params):
            tally.mismatches.append(f"{name}/classical")
    return tally


def test_random_draws_match_the_eager_engine():
    tally = differential(random_cases(200))
    assert tally.mismatches == []
    assert tally.smaller > 0 and tally.proofs > 0


def test_horn_sets_match_the_eager_engine_and_classical_saturation():
    tally = check_horn(200, Tally())
    assert tally.mismatches == []
    assert tally.smaller > 0


def test_machines_match_the_eager_engine():
    tally = differential(machine_cases(4))
    assert tally.mismatches == []
    assert tally.smaller > 0 and tally.proofs > 0


def test_counters_match_the_eager_engine():
    tally = differential(counter_cases(6))
    assert tally.mismatches == []
    assert tally.smaller == 0 and tally.proofs == 6


@pytest.mark.parametrize("hyp, query", [
    # the query is the hypothesis's instance at c, and a partial instance
    # of its instance at c: its guard S(c) is met only inside the query
    ("forall x. forall y. S(x) -> B(x, y)", "forall y. S(c) -> B(c, y)"),
    ("forall x. forall y. forall z. S(x) -> B(x, y, z)",
     "forall z. S(c) -> B(c, c, z)"),
])
def test_an_instance_met_elsewhere_is_reached_through_its_guard(hyp, query):
    prob = parse_problem(f"{hyp}\n")
    q = syntax.parse_formula(query, symbols=prob.symbols)
    tally = differential([(query, prob.formulas, [q], V.QPL)])
    assert tally.mismatches == [] and tally.proofs == 1


def test_step_axiom_reaches_the_matrix_only_at_held_successor_pairs():
    # queries' machine at t=6: the step axiom is guarded at x' by S(a, x'),
    # so only the 6 S pairs the hypotheses hold reach its matrix
    hyps, halting = bounded_halting_instance(MACHINE, 6)
    session = Session(hyps, [halting], V.QPL)
    step = hyps[1]
    ct = session.closure_table
    # forall x'. forall y. S(a, x') -> ... at each parameter a, then the
    # instances of those at x' that joined
    per_a = ct.sub_instances[step]
    assert len(per_a) == 7
    reached = [g for f in per_a for g in ct.sub_instances[f]]
    assert len(reached) == 6
    assert ct.stats.left_out == 7 * 7 - 6
    assert len(ct.universe) < len(closure([*hyps, halting]).universe)


def test_countermodels_read_the_session_fixpoint_once(monkeypatch):
    # the golden machine at t=2 leaves instances out, yet no refusal builds
    # the paper's closure: every refusal shares one model, read off the
    # session's own fixpoint
    hyps, halting = bounded_halting_instance(MACHINE, 2)
    queries = [halting, *(atom("K0", const(f"n{a}"), const("n0"))
                          for a in range(3))]
    session = Session(hyps, queries, V.QPL)
    assert session.closure_table.stats.left_out > 0
    assert session.qpl_fixpoint is session.state
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return closure(*args, **kwargs)

    monkeypatch.setattr(semantics, "closure", counted)
    verdicts = session.verdicts()
    refused = [v for v in verdicts if not v.entailed]
    assert refused
    models = [verdict_countermodel(v) for v in refused + refused]
    assert calls == []
    assert all(m is models[0] for m in models)
    assert models[0] == countermodel(
        hyps, refused[0].query, session.state, session.closure_table
    )


def test_countermodel_at_the_guarded_cap_exits_0(tmp_path, capsys):
    # the guarded universe fits the cap and the paper's closure does not;
    # the countermodel is read off the guarded fixpoint, so it fits too
    hyps, halting = bounded_halting_instance(MACHINE, 2)
    query = "K0(n2, n2)"
    path = tmp_path / "h.qpl"
    path.write_text("".join(render(h) + "\n" for h in hyps))
    prob = parse_problem(path.read_text())
    q = syntax.parse_formula(query, symbols=prob.symbols)
    n = len(Session(prob.formulas, [q], V.QPL).closure_table.universe)
    assert n < len(closure([*prob.formulas, q]).universe)
    argv = ["check", str(path), query, "--closure-cap", str(n)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == f"not entailed: {query}\n"
    model = tmp_path / "cm.json"
    assert cli.main([*argv, "--countermodel", str(model)]) == 0
    assert capsys.readouterr().out == f"not entailed: {query}\n"
    doc = json.loads(model.read_text())
    assert doc["refusals"] == [{"query": query, "refuted": True}]
    assert doc["model"] is not None


def extended_refutes(hyps, query, model, paper, memo, outside=True) -> bool:
    """The countermodel, extended over the paper's closure table paper,
    satisfies every hypothesis and falsifies the query: an override bit
    the model does not list reads outside, an atom it does not list is
    false. memo caches truth values for one model over paper."""
    structure, override = model
    bits = override.assignment.get

    def holds(f):
        return truth_mask(f, structure.holds, lambda g: bits(g, outside), 1,
                          paper, memo)

    return all(holds(h) for h in hyps) and not holds(query)


@dataclass
class ModelTally:
    refusals: int = 0  # refusals with a model
    left_out: int = 0  # of those, in sessions that left an instance out
    failures: list = field(default_factory=list)


def extended_models(cases, outside=True) -> ModelTally:
    """Check every refusal's countermodel over the paper's closure of its
    (name, hyps, queries, variant) case, extended as extended_refutes
    says."""
    tally = ModelTally()
    for name, hyps, queries, variant in cases:
        session = Session(hyps, queries, variant)
        paper, memo = closure([*hyps, *queries]), {}
        for v in session.verdicts(with_proof=False):
            model = verdict_countermodel(v)
            if model is None:
                continue
            tally.refusals += 1
            tally.left_out += session.closure_table.stats.left_out > 0
            if not extended_refutes(hyps, v.query, model, paper, memo, outside):
                tally.failures.append(f"{name}: {render(v.query)}")
    return tally


def model_cases(draws: int, horn: int, max_t: int):
    yield from random_cases(draws)
    for name, clauses in horn_sets(horn):
        forms = [c.to_formula() for c in clauses]
        for variant in (V.QPL, V.PFQPL):
            yield f"{name}/{variant.cli_name}", forms, [bot()], variant
    yield from machine_cases(max_t)


def test_countermodels_extend_to_the_paper_closure():
    tally = extended_models(model_cases(200, 200, 4))
    assert tally.failures == []
    assert tally.left_out > 0


def test_false_bits_outside_the_guarded_universe_fail_the_extension():
    # a left-out instance is true only by its override bit
    tally = extended_models(model_cases(200, 200, 4), outside=False)
    assert 0 < len(tally.failures) <= tally.left_out


def _mutant(fn, statement: str, replacement: str):
    """fn, a function of syntax, with one statement of its source replaced,
    built over syntax's globals (so it interns into syntax's tables)."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert statement in source
    namespace = dict(vars(syntax))
    exec(source.replace(statement, replacement), namespace)
    return namespace[fn.__name__]


def _never_waking_closure():
    """syntax.closure with the wake of waiting instances cut out: an atom
    that some instances wait for wakes none of them."""
    return _mutant(syntax.closure, "woken = waiting.pop(f, ())", "woken = ()")


def test_a_closure_that_never_wakes_fails_the_differential(monkeypatch):
    monkeypatch.setattr(engine, "closure", _never_waking_closure())
    tally = differential(counter_cases(4))
    assert tally.mismatches == ["counter/3", "counter/4"]


@contextlib.contextmanager
def fresh_tables():
    """Run the body on empty intern tables, as in a fresh process, and
    restore the tables after it, so that formulas built before it are
    interned again."""
    formulas, terms = dict(syntax._FORMULAS), dict(syntax._TERMS)
    syntax._FORMULAS.clear()
    syntax._TERMS.clear()
    try:
        yield
    finally:
        syntax._FORMULAS.clear()
        syntax._FORMULAS.update(formulas)
        syntax._TERMS.clear()
        syntax._TERMS.update(terms)


@pytest.mark.parametrize("machine", ["count", "golden"])
def test_the_guarded_closure_interns_no_left_out_instance(machine):
    with fresh_tables():
        hyps, queries = machine_inputs(MACHINES[machine], 6)
        guarded = closure([*hyps, *queries], guarded=True)
        interned = set(syntax._FORMULAS.values())
        paper = closure([*hyps, *queries])
    left_out = [
        h
        for f, joined in guarded.sub_instances.items()
        if f.__class__ is syntax.Forall and f.var in f.body.free
        and syntax._guard(f.body, f.var) is not None
        for h in set(paper.sub_instances[f]) - set(joined)
    ]
    assert len(left_out) == guarded.stats.left_out > 0
    assert [render(h) for h in left_out if h in interned] == []


def interning_faults() -> list:
    """The interned formulas that the public constructor of their kind
    would not give back, or whose free set, quantifier depth or length
    differs from a recomputation from their parts; an atom's arguments
    must be a tuple of interned terms, and an empty free set the shared
    one."""
    faults = []
    # a constructor called on a fault's parts interns a formula of its own
    for f in list(syntax._FORMULAS.values()):
        cls = f.__class__
        if cls is syntax.Atom:
            args = f.args
            ok = type(args) is tuple and all(
                syntax._TERMS.get((t.kind, t.name)) is t for t in args
            ) and atom(f.rel, *args) is f
            expect = (
                frozenset(t.name for t in args if t.kind == syntax.VAR),
                0,
                2 * len(args) + 2 if args else 1,
            )
        elif cls is syntax.Forall or cls is syntax.Exists:
            make = syntax.forall if cls is syntax.Forall else syntax.exists
            ok = make(f.var, f.body) is f
            b = f.body
            expect = (b.free - {f.var}, b.qdepth + 1, b.length + 1)
        else:
            make = {syntax.And: syntax.conj, syntax.Or: syntax.disj,
                    syntax.Imp: syntax.imp}[cls]
            ok = make(f.l, f.r) is f
            l, r = f.l, f.r
            expect = (l.free | r.free, max(l.qdepth, r.qdepth),
                      l.length + r.length + 1)
        if (not ok or (f.free, f.qdepth, f.length) != expect
                or not f.free and f.free is not syntax._EMPTY):
            faults.append(f)
    return faults


def build_both_closures(cases):
    for _, hyps, queries, _ in cases:
        closure([*hyps, *queries], guarded=True)
        closure([*hyps, *queries])


def test_instance_atoms_are_the_formulas_the_constructors_build():
    with fresh_tables():
        build_both_closures(random_cases(500, (V.QPL,)))
        build_both_closures(machine_cases(6))
        build_both_closures(counter_cases(6))
        assert len(syntax._FORMULAS) > 1_000
        assert interning_faults() == []


def test_an_instance_atom_that_keeps_its_variable_free_is_a_fault(monkeypatch):
    mutant = _mutant(
        syntax._instances, "rest = f.free - {v} or _EMPTY", "rest = f.free"
    )
    monkeypatch.setattr(syntax, "_instances", mutant)
    with fresh_tables():
        build_both_closures(counter_cases(3))
        assert interning_faults() != []


if __name__ == "__main__":
    full = Tally()
    differential(random_cases(2000), full)
    check_horn(1000, full)
    differential(machine_cases(8), full)
    differential(counter_cases(10), full)
    print(f"sessions {full.sessions}, mismatches {len(full.mismatches)}, "
          f"smaller universe {full.smaller}, proofs checked {full.proofs}")
    models = extended_models(model_cases(2000, 1000, 8))
    print(f"refusals with a model {models.refusals}, in sessions that left "
          f"an instance out {models.left_out}, failures {len(models.failures)}")
    sys.exit(bool(full.mismatches or models.failures))
