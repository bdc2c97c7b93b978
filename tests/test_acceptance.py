"""Acceptance harness.

One test per stated criterion, each run end to end at its stated
tolerance and finishing with a single printed pass line. Random suites
are cached at module level so the proof round-trip criterion replays
exactly the instances the earlier criteria decided.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from qpl import cli
from qpl.algebra import (
    Join,
    PComp,
    Zero,
    random_term,
    term_equal,
    term_geq,
)
from qpl.calculus import (
    CalculusVariant as V,
    check_derivation,
    proof_document_to_json,
)
from qpl.engine import entails
from qpl.generators import (
    Dec,
    Inc,
    TwoRegisterMachine,
    bounded_halting_instance,
    chain_family,
    classical_horn_bottom,
    random_horn,
    random_instance,
    simulate,
)
from qpl.semantics import (
    countermodel_json,
    semantic_yields_bruteforce,
    verdict_countermodel,
)
from qpl.syntax import (
    atom,
    bot,
    closure,
    conj,
    const,
    disj,
    exists,
    forall,
    imp,
    parameters_star,
    top,
    var,
)

ROOT = Path(__file__).resolve().parent.parent
_SUITES: dict = {}


def _suite_c1():
    if "c1" not in _SUITES:
        rng = random.Random(101)
        rows = []
        t0 = time.perf_counter()
        for _ in range(1000):
            hyps, queries = random_instance(rng)
            q = queries[0]
            v = entails(hyps, q, V.QPL)
            y = semantic_yields_bruteforce(hyps, q)
            rows.append((v, y))
        dt = time.perf_counter() - t0
        _SUITES["c1"] = (rows, dt)
    return _SUITES["c1"]


# one timing of entails on chain_family(argv[1]), in a fresh interpreter
_C3_RUN = """
import gc, sys, time
from qpl.calculus import CalculusVariant as V
from qpl.engine import entails
from qpl.generators import chain_family
hyps, q = chain_family(int(sys.argv[1]))
gc.collect()
t0 = time.perf_counter()
v = entails(hyps, q, V.PFQPL, with_proof=False)
dt = time.perf_counter() - t0
assert v.entailed
print(dt)
"""


def _suite_c3_times():
    if "c3" not in _SUITES:
        # round-robin over the sizes, best of 3 rounds, so that a burst of
        # host load falls on every size alike rather than on one ratio. Each
        # timing runs in a fresh interpreter: in one process a size timed
        # after a larger one inherits the heap that one grew, and 200k ran
        # up to 25% faster after 800k, which biased the 400k/200k ratio
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        times = {}
        for _ in range(3):
            for n in (200_000, 400_000, 800_000):
                done = subprocess.run(
                    [sys.executable, "-c", _C3_RUN, str(n)],
                    capture_output=True,
                    text=True,
                    env=env,
                    timeout=120,
                )
                assert done.returncode == 0, done.stderr
                dt = float(done.stdout)
                times[n] = min(times.get(n, dt), dt)
        _SUITES["c3"] = times
    return _SUITES["c3"]


def _suite_c5():
    if "c5" not in _SUITES:
        rng = random.Random(505)
        rows = []
        for _ in range(500):
            s = random_term(rng)
            t = random_term(rng)
            v = entails([s], t, V.ORIGINAL)
            via_order = term_equal(Join(s, t), s)
            rows.append((s, t, v, via_order))
        _SUITES["c5"] = rows
    return _SUITES["c5"]


def _suite_c6():
    if "c6" not in _SUITES:
        rng = random.Random(606)
        rows = []
        for _ in range(200):
            clauses = random_horn(rng, rng.randrange(2, 7))
            forms = [c.to_formula() for c in clauses]
            params = parameters_star([*forms, bot()])
            want = classical_horn_bottom(clauses, params)
            v = entails(forms, bot(), V.QPL)
            rows.append((v, want))
        _SUITES["c6"] = rows
    return _SUITES["c6"]


# Halting runs whose registers peak exactly at the step count (single
# register incremented at every step, or a one-step zero test), so the
# least sufficient successor chain coincides with the simulated step
# count; plus one diverging machine where both clauses are vacuous.
_C7_MACHINES = (
    ("inc1", TwoRegisterMachine({0: Inc(1, 1)})),
    ("zero1", TwoRegisterMachine({0: Dec(1, 1, 0)})),
    ("count2_r2", TwoRegisterMachine({0: Inc(2, 2), 2: Inc(2, 1)})),
    ("count3", TwoRegisterMachine({0: Inc(1, 2), 2: Inc(1, 3), 3: Inc(1, 1)})),
    (
        "count5",
        TwoRegisterMachine(
            {0: Inc(1, 2), 2: Inc(1, 3), 3: Inc(1, 4), 4: Inc(1, 5), 5: Inc(1, 1)}
        ),
    ),
    ("loop", TwoRegisterMachine({0: Inc(1, 0)})),
)


def _suite_c7():
    if "c7" not in _SUITES:
        rows = []
        for name, m in _C7_MACHINES:
            sim_full = simulate(m, 50)
            first_true = None
            for t in range(9):
                hyps, query = bounded_halting_instance(m, t)
                v = entails(hyps, query, V.QPL)
                sim = simulate(m, t)
                want = sim.halts and sim.steps <= t
                assert v.entailed is want, (name, t, v.entailed, want)
                if v.entailed and first_true is None:
                    first_true = t
                if v.entailed:
                    rows.append(v)
            if sim_full.halts:
                assert first_true == sim_full.steps, name
            else:
                assert first_true is None, name
        _SUITES["c7"] = rows
    return _SUITES["c7"]


def test_criterion_1_oracle_equivalence():
    rows, dt = _suite_c1()
    wrong = [r for r in rows if r[0].entailed is not r[1]]
    assert not wrong
    assert len(rows) == 1000
    assert dt < 120.0
    n_true = sum(1 for v, _ in rows if v.entailed)
    print(
        f"criterion 1: PASS engine = oracle on 1000/1000 random instances"
        f" ({n_true} entailed), {dt:.1f}s"
    )


def test_criterion_2_pinned_non_entailments():
    a, b, c = atom("A"), atom("B"), atom("C")
    v = entails([imp(a, b), imp(b, c)], imp(a, c), V.QPL)
    assert v.entailed is False
    mo = verdict_countermodel(v)
    assert mo is not None
    doc = countermodel_json(*mo)
    assert doc["atoms_true"] == []
    assert doc["override"] == {"A -> B": True, "B -> C": True, "A -> C": False}

    v2 = entails([exists("x", atom("R", var("x")))], atom("R", const("c")), V.QPL)
    assert v2.entailed is False

    v3 = entails([disj(imp(top(), bot()), bot())], bot(), V.QPL)
    assert v3.entailed is False
    v4 = entails([imp(top(), bot())], bot(), V.QPL)
    assert v4.entailed is True
    _SUITES["c2"] = [v4]
    print(
        "criterion 2: PASS transitivity/instantiation refused with pinned"
        " countermodel; guarded vs bare falsity split as required"
    )


def test_criterion_3_chain_scaling():
    times = _suite_c3_times()
    r1 = times[400_000] / times[200_000]
    r2 = times[800_000] / times[400_000]
    assert r1 <= 2.5, times
    assert r2 <= 2.5, times
    assert times[800_000] < 5.0, times
    print(
        f"criterion 3: PASS chain timings "
        f"{times[200_000]:.3f}s/{times[400_000]:.3f}s/{times[800_000]:.3f}s,"
        f" doubling ratios {r1:.2f} and {r2:.2f}"
    )


def _family(r):
    args = []
    for i in range(1, r + 1):
        args.append(const(f"p{i}"))
        args.append(var(f"x{i}"))
    f = atom("R", *args)
    for i in range(r, 0, -1):
        f = forall(f"x{i}", f)
    return f


def test_criterion_4_closure_bound():
    rng = random.Random(404)
    for _ in range(500):
        hyps, queries = random_instance(rng)
        s = [*hyps, *queries]
        ct = closure(s)
        d = max(f.qdepth for f in s)
        p = len(ct.params)
        assert ct.stats.size <= ct.stats.input_length * p**d
    growth = []
    for r in range(2, 6):
        f = _family(r)
        ct = closure([f])
        assert ct.stats.closure_length >= f.length * r**r
        growth.append(ct.stats.closure_length)
    print(
        f"criterion 4: PASS cardinality bound held on 500 closures;"
        f" family lengths {growth} exceed n*r^r for r=2..5"
    )


def test_criterion_5_matching():
    rows = _suite_c5()
    wrong = [r for r in rows if r[2].entailed is not r[3]]
    assert not wrong
    assert len(rows) == 500
    rng = random.Random(515)
    for _ in range(200):
        a = random_term(rng, max_nodes=8)
        b = random_term(rng, max_nodes=8)
        c = random_term(rng, max_nodes=8)
        assert term_equal(Join(a, Join(b, c)), Join(Join(a, b), c))
        assert term_equal(Join(a, b), Join(b, a))
        assert term_equal(Join(a, a), a)
        assert term_equal(Join(a, Zero()), a)
        assert term_equal(Join(PComp(a, b), b), b)
        assert term_equal(Join(b, Join(a, PComp(a, b))), Join(a, PComp(a, b)))
        assert term_geq(b, PComp(a, b))
        assert term_geq(Join(a, PComp(a, b)), b)
    n_true = sum(1 for r in rows if r[2].entailed)
    print(
        f"criterion 5: PASS matching equivalence on 500/500 term pairs"
        f" ({n_true} entailed); join and pseudo laws held on 200 triples"
    )


def test_criterion_6_horn_conservativity():
    rows = _suite_c6()
    wrong = [r for r in rows if r[0].entailed is not r[1]]
    assert not wrong
    assert len(rows) == 200
    n_true = sum(1 for _, want in rows if want)
    print(
        f"criterion 6: PASS engine matches classical saturation on 200/200"
        f" Horn sets ({n_true} inconsistent)"
    )


def test_criterion_7_machine_encoding():
    rows = _suite_c7()
    assert len(_C7_MACHINES) >= 5
    assert rows
    print(
        f"criterion 7: PASS verdict = simulation for 6 machines, bounds 0..8;"
        f" halting thresholds equal simulated step counts"
    )


def _cli_verifies(v, path) -> bool:
    names = set(v.query.free)
    for f in v.hyps:
        names |= f.free
    doc = proof_document_to_json(
        v.session.variant, v.hyps, names, [(v.query, v.proof)]
    )
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["verify-proof", str(path)]) == 0


def _put(column, i, *values):
    """column with its entry i replaced by values."""
    return (*column[:i], *values, *column[i + 1:])


def _mutants(d, hypset, rng, count):
    """count copies of d, each with one node changed; the node's columns are
    changed in place of building the nodes, which a 133k-node chain proof
    would pay for on every mutant."""
    max_id = len(d.labels) - 1
    out = []
    while len(out) < count:
        i = rng.randrange(len(d.labels))
        rule, label = d.rules[i], d.labels[i]
        start, k = sum(d.premises[:i]), d.premises[i]
        parents = d.parents[start:start + k]
        op = rng.randrange(4)
        if op == 0:
            # every rule forces its conclusion shape except BotE
            if k > 0 and rule == "BotE":
                continue
            new_label = disj(label, label)
            if new_label in hypset:
                continue
            m = d._replace(labels=_put(d.labels, i, new_label))
        elif k == 0:  # a hypothesis or an axiom
            continue
        elif op == 2:
            m = d._replace(
                rules=_put(d.rules, i, "AndI" if k != 2 else "AndE_L")
            )
        else:
            if op == 1:
                parents = (*parents, parents[0])
            else:
                parents = (max_id + 1, *parents[1:])
            flat = d.parents
            m = d._replace(
                premises=_put(d.premises, i, len(parents)),
                parents=(*flat[:start], *parents, *flat[start + k:]),
            )
        out.append(m)
    return out


def _labels_local(v) -> bool:
    index = v.closure_table.index
    return all(f in index for f in v.proof.labels)


def test_criterion_8_proof_round_trip(tmp_path):
    rng = random.Random(808)
    path = tmp_path / "proof.json"
    suites = {
        "c1": [v for v, _ in _suite_c1()[0] if v.entailed],
        "c2": _SUITES.get("c2") or [entails([imp(top(), bot())], bot(), V.QPL)],
        "c5": [r[2] for r in _suite_c5() if r[2].entailed],
        "c6": [v for v, want in _suite_c6() if want],
        "c7": _suite_c7(),
    }

    verified = 0
    for name, rows in suites.items():
        assert rows, name
        for v in rows:
            assert v.proof is not None, name
            assert _labels_local(v), name
            assert _cli_verifies(v, path), name
            verified += 1

    rejected = 0
    for name, rows in suites.items():
        hypsets = {id(v): set(v.hyps) for v in rows}
        for _ in range(100):
            v = rows[rng.randrange(len(rows))]
            (mut,) = _mutants(v.proof, hypsets[id(v)], rng, 1)
            rep = check_derivation(mut, v.session.variant, v.hyps, v.query)
            assert not rep.ok, name
            rejected += 1

    # the scaling suite is re-decided with proofs on (criterion 3 timed
    # proof-free runs), one size at a time to bound peak memory; the two
    # smaller chains round-trip through the command line, the largest
    # goes through the checker in process
    small_chain = None
    for n in (200_000, 400_000, 800_000):
        hyps, q = chain_family(n)
        v = entails(hyps, q, V.PFQPL)
        assert v.proof is not None
        assert _labels_local(v)
        if n < 800_000:
            assert _cli_verifies(v, path)
        else:
            rep = check_derivation(v.proof, v.session.variant, v.hyps, v.query)
            assert rep.ok
        verified += 1
        if small_chain is None:
            small_chain = v
        else:
            del v
    chain_hyps = set(small_chain.hyps)
    for _ in range(100):
        (mut,) = _mutants(small_chain.proof, chain_hyps, rng, 1)
        rep = check_derivation(
            mut, small_chain.session.variant, small_chain.hyps, small_chain.query
        )
        assert not rep.ok
        rejected += 1

    print(
        f"criterion 8: PASS {verified} proofs verified via the command"
        f" line, labels closure-local, {rejected} mutants rejected"
    )


def test_criterion_9_consequence_laws():
    rng = random.Random(909)
    sampled = 0
    # reflexivity: every hypothesis follows from its own set
    for _ in range(100):
        hyps, _ = random_instance(rng, n_hyps=3)
        h = hyps[rng.randrange(len(hyps))]
        assert entails(hyps, h, V.QPL, with_proof=False).entailed
        sampled += 1
    # monotonicity: adding a hypothesis never loses a verdict
    mono_hits = 0
    for i in range(100):
        hyps, queries = random_instance(rng, n_hyps=3)
        q = hyps[0] if i % 2 == 0 else queries[0]
        before = entails(hyps[:2], q, V.QPL, with_proof=False).entailed
        after = entails(hyps, q, V.QPL, with_proof=False).entailed
        if before:
            assert after
            mono_hits += 1
        sampled += 1
    # transitivity: a derivable lemma adds no consequences
    cut_hits = 0
    for i in range(100):
        hyps, queries = random_instance(rng, n_hyps=2, n_queries=1)
        lemma = atom("p") if i % 3 == 0 else conj(hyps[0], hyps[1])
        if not entails(hyps, lemma, V.QPL, with_proof=False).entailed:
            sampled += 1
            continue
        with_lemma = entails([*hyps, lemma], queries[0], V.QPL, with_proof=False)
        if with_lemma.entailed:
            assert entails(hyps, queries[0], V.QPL, with_proof=False).entailed
            cut_hits += 1
        sampled += 1
    assert sampled >= 300
    assert mono_hits >= 20
    assert cut_hits >= 5
    print(
        f"criterion 9: PASS {sampled} triples sampled with zero violations"
        f" ({mono_hits} monotonicity hits, {cut_hits} cut hits)"
    )
