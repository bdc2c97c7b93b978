"""Golden corpus: digests of what the pipeline outputs on fixed inputs.

Each case is one problem session. Its tier (a) digest covers the verdicts,
the four Verdict.stats counters, the closure universe in order and the
countermodel JSON; its tier (b) digest covers the proof JSON of every
entailed query. tests/golden.json holds the digests. A change may move a
tier (a) digest only with a reason and the oracle's agreement on the case,
and a tier (b) digest only if every new proof passes check_derivation.

Regenerate the file with ``PYTHONPATH=src python tests/test_golden.py``;
never edit it by hand.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from qpl.calculus import CalculusVariant as V
from qpl.calculus import (
    check_derivation,
    derivation_from_json,
    derivation_to_json,
    proof_document_from_json,
    proof_document_to_json,
)
from qpl.engine import Session
from qpl.generators import (
    Dec,
    Inc,
    TwoRegisterMachine,
    bounded_halting_instance,
    chain_family,
    random_horn,
    random_instance,
)
from qpl.semantics import countermodel_json, verdict_countermodel
from qpl.syntax import (
    VAR,
    atom,
    bot,
    const,
    parse_formula,
    parse_problem,
    render,
)

GOLDEN = Path(__file__).with_name("golden.json")

# A 4-state program: 0: inc 1 -> 2, 2: inc 2 -> 3,
# 3: dec 1 zero -> 4 else -> 2, 4: dec 2 zero -> 1 (halt) else -> 4.
MACHINE = TwoRegisterMachine(
    {0: Inc(1, 2), 2: Inc(2, 3), 3: Dec(1, 4, 2), 4: Dec(2, 1, 4)}
)
MACHINE_BOUNDS = (1, 2, 4, 6)

# Capture cases: the parameter y would fall under the binder of exists y,
# and the instance of forall x. S(x) at the parameter x is its own body.
CAPTURES = {
    "capture/exists-y": ("@vars y\nforall x. exists y. R(x, y)\n",
                         "exists x. R(y, x)"),
    "capture/own-body": ("@vars x\nforall x. S(x)\n", "S(x)"),
}


def _sessions():
    """(name, hypotheses, queries, variant) for every case, in order."""
    for variant in V:
        rng = random.Random(1000 + int(variant))
        for k in range(40):
            hyps, queries = random_instance(rng, None, 2, variant)
            yield f"random/{variant.cli_name}/{k:02d}", hyps, queries, variant
    hyps, query = chain_family(5000)
    yield "chain/5000", hyps, [query], V.PFQPL
    for t in MACHINE_BOUNDS:
        hyps, halting = bounded_halting_instance(MACHINE, t)
        configs = [
            atom(f"K{i}", const(f"n{a}"), const(f"n{b}"))
            for i in sorted({0, 1, *MACHINE.instructions})
            for a in range(t + 1)
            for b in range(t + 1)
        ]
        yield f"machine/t{t}", hyps, [halting, *configs], V.QPL
    for k in range(40):
        clauses = random_horn(random.Random(k), 5)
        yield f"horn/{k:02d}", [c.to_formula() for c in clauses], [bot()], V.QPL
    for name, (text, query) in CAPTURES.items():
        problem = parse_problem(text)
        q = parse_formula(query, problem.declared_vars, symbols=problem.symbols)
        yield name, problem.formulas, [q], V.QPL


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _case(hyps, queries, variant) -> dict:
    session = Session(hyps, queries, variant)
    verdicts = session.verdicts()
    refuted = [verdict_countermodel(v) is not None for v in verdicts]
    model = session.qpl_countermodel
    tier_a = {
        "verdicts": [v.entailed for v in verdicts],
        "refuted": refuted,
        "stats": session.stats,
        "universe": [render(f) for f in session.closure_table.universe],
        "countermodel": None if model is None else countermodel_json(*model),
    }
    tier_b = [
        None if v.proof is None else derivation_to_json(v.proof) for v in verdicts
    ]
    return {"a": _digest(tier_a), "b": _digest(tier_b)}


def corpus() -> dict:
    return {name: _case(*rest) for name, *rest in _sessions()}


def test_golden_corpus():
    want = json.loads(GOLDEN.read_text())
    names = []
    for name, *rest in _sessions():
        names.append(name)
        assert name in want, f"new case {name}; regenerate golden.json"
        try:
            got = _case(*rest)
        except Exception as e:  # a case that no longer runs has changed
            raise AssertionError(
                f"first differing case: {name}, tier (a): {e!r}"
            ) from e
        for tier in ("a", "b"):
            assert got[tier] == want[name][tier], (
                f"first differing case: {name}, tier ({tier})"
            )
    assert names == list(want), "case list changed; regenerate golden.json"


def _declared(session):
    return [t.name for t in session.closure_table.params if t.kind == VAR]


def _document(session):
    """The session's proof document as JSON text read back, and the
    (query, proof) pairs of its entailed verdicts."""
    pairs = [(v.query, v.proof) for v in session.verdicts() if v.entailed]
    doc = proof_document_to_json(
        session.variant, session.hyps, _declared(session), pairs
    )
    return json.loads(json.dumps(doc)), pairs


def test_proofs_in_one_table_read_back_as_written():
    # one node table per session, which a proof document holds once: each
    # proof is its query and root, and the table reads back to the
    # session's derivation DAG
    for name, hyps, queries, variant in _sessions():
        doc, pairs = _document(Session(hyps, queries, variant))
        assert all(sorted(entry) == ["query", "root"] for entry in doc["proofs"])
        _, _, d, proofs = proof_document_from_json(doc)
        assert [d._replace(root=root) for _, root in proofs] == [
            p for _, p in pairs
        ], name


def test_proof_documents_round_trip():
    # the reader gives back the writer's variant, hyps and (query, root)
    # pairs, the very formulas, and every proof checks
    for name, hyps, queries, variant in _sessions():
        session = Session(hyps, queries, variant)
        doc, pairs = _document(session)
        got_variant, got_hyps, d, proofs = proof_document_from_json(doc)
        assert got_variant is variant, name
        assert len(got_hyps) == len(session.hyps), name
        assert all(a is b for a, b in zip(got_hyps, session.hyps)), name
        assert len(proofs) == len(pairs), name
        for (query, root), (want_query, want_d) in zip(proofs, pairs):
            assert query is want_query and root == want_d.root, name
            d = d._replace(root=root)
            assert check_derivation(d, variant, got_hyps, query).ok, name


_FLAT = {int, str, type(None)}


def test_proofs_round_trip_through_json_text():
    # each proof is written as its own formula table and one flat array per
    # node field, with no JSON container per node or per row; the text
    # reads back to an equal derivation, which checks
    for name, hyps, queries, variant in _sessions():
        session = Session(hyps, queries, variant)
        for v in session.verdicts():
            if v.proof is None:
                continue
            blob = json.loads(json.dumps(derivation_to_json(v.proof)))
            assert sorted(blob) == sorted([
                "root", "names", "formulas", "label", "rule", "premises",
                "parents",
            ])
            for key, column in blob.items():
                assert key == "root" or {*map(type, column)} <= _FLAT, key
            back = derivation_from_json(blob, _declared(session))
            assert back == v.proof, name
            assert check_derivation(back, variant, hyps, v.query).ok, name


def test_golden_digests_do_not_depend_on_the_hash_seed():
    script = (
        "import json, test_golden; print(json.dumps(test_golden.corpus()))"
    )
    want = json.loads(GOLDEN.read_text())
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [str(GOLDEN.parent.parent / "src"), str(GOLDEN.parent)]
        ))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert json.loads(done.stdout) == want, f"PYTHONHASHSEED={seed}"


if __name__ == "__main__":
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in corpus().items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
