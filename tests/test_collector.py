"""The collector pause: entry points that build data in proportion to their
input run with the cyclic garbage collector off (syntax.gc_paused).

Every such entry point switches the collector back on when it returns or
raises, leaves it off for a caller that switched it off, and builds no
reference cycles, so nothing is left for the collector to find.
"""

import gc
import json
import random

import pytest

from qpl import cli
from qpl.calculus import (
    CalculusVariant as V,
    check_derivation,
    derivation_from_json,
    derivation_to_json,
    load_derivation,
    proof_document_from_json,
    proof_document_to_json,
)
from qpl.engine import Session
from qpl.generators import chain_family, random_instance
from qpl.semantics import countermodel_json, verdict_countermodel
from qpl.syntax import (
    ParseError,
    ResourceLimit,
    gc_paused,
    parse_problem,
    render,
)

PROBLEM = "@vars x\nR(c)\nforall x. R(x) -> S(x)\np & q\n"


def _entry_points(tmp_path):
    """(name, call) for every paused entry point, each call succeeding."""
    prob = parse_problem(PROBLEM)
    session = Session(prob.formulas, parse_problem("S(c)\nq\n").formulas, V.QPL)
    verdict = session.verdicts()[0]
    doc = derivation_to_json(verdict.proof)
    pairs = [(verdict.query, verdict.proof)]
    proof_doc = proof_document_to_json(V.QPL, prob.formulas, ["x"], pairs)
    hyps = tmp_path / "h.qpl"
    hyps.write_text(PROBLEM)
    return [
        ("parse_problem", lambda: parse_problem(PROBLEM)),
        ("Session", lambda: Session(prob.formulas, [verdict.query], V.QPL)),
        ("Session.verdicts", session.verdicts),
        ("derivation_to_json", lambda: derivation_to_json(verdict.proof)),
        ("derivation_from_json", lambda: derivation_from_json(doc, ("x",))),
        ("load_derivation", lambda: load_derivation(json.dumps(doc), ("x",))),
        ("proof_document_to_json",
         lambda: proof_document_to_json(V.QPL, prob.formulas, ["x"], pairs)),
        ("proof_document_from_json",
         lambda: proof_document_from_json(proof_doc)),
        ("check_derivation", lambda: check_derivation(
            verdict.proof, V.QPL, prob.formulas, verdict.query)),
        ("cli.main", lambda: cli.main(["check", str(hyps), "S(c)"])),
    ]


def _failing_calls(tmp_path):
    """(name, call, exception or exit code) for calls that raise or exit 2."""
    hyps = tmp_path / "h.qpl"
    hyps.write_text(PROBLEM)
    return [
        ("parse_problem", lambda: parse_problem("p &\n"), ParseError),
        ("derivation_from_json", lambda: derivation_from_json([]), ValueError),
        ("load_derivation", lambda: load_derivation("[1,"), ValueError),
        ("proof_document_from_json", lambda: proof_document_from_json({}),
         ValueError),
        ("Session", lambda: Session(parse_problem(PROBLEM).formulas, [],
                                    V.QPL, closure_cap=1), ResourceLimit),
        ("cli.main", lambda: cli.main(["check", str(hyps), "p &"]), 2),
        ("cli.main", lambda: cli.main(["check"]), SystemExit),
    ]


def _run(call, outcome):
    if isinstance(outcome, int):
        assert call() == outcome
    else:
        with pytest.raises(outcome):
            call()


@pytest.fixture
def collector_on():
    gc.enable()
    yield
    gc.enable()


def test_paused_entry_points_keep_their_names():
    for fn in (parse_problem, Session.__init__, Session.verdicts,
               derivation_to_json, derivation_from_json, load_derivation,
               proof_document_to_json, proof_document_from_json,
               check_derivation, cli.main):
        assert fn.__qualname__ == fn.__wrapped__.__qualname__
        assert fn.__module__ == fn.__wrapped__.__module__


def test_collector_back_on_after_return(tmp_path, capsys, collector_on):
    for name, call in _entry_points(tmp_path):
        call()
        assert gc.isenabled(), name


def test_collector_back_on_after_raise(tmp_path, capsys, collector_on):
    for name, call, outcome in _failing_calls(tmp_path):
        _run(call, outcome)
        assert gc.isenabled(), name


def test_collector_stays_off_for_a_caller_that_switched_it_off(
    tmp_path, capsys, collector_on
):
    calls = [(name, call, None) for name, call in _entry_points(tmp_path)]
    gc.disable()
    for name, call, outcome in calls + _failing_calls(tmp_path):
        if outcome is None:
            call()
        else:
            _run(call, outcome)
        assert not gc.isenabled(), name


def test_paused_inside_the_call(collector_on):
    seen = []
    gc_paused(lambda: seen.append(gc.isenabled()))()
    assert seen == [False] and gc.isenabled()


def test_load_derivation_reads_a_large_proof_without_a_collection(collector_on):
    hyps, query = chain_family(50_000)
    verdict = Session(hyps, [query], V.PFQPL).verdicts()[0]
    text = json.dumps(derivation_to_json(verdict.proof))
    collections = []

    def record(phase, info):
        collections.append(info["generation"])

    gc.callbacks.append(record)
    try:
        proof = load_derivation(text)
    finally:
        gc.callbacks.remove(record)
    assert collections == []
    assert proof == derivation_from_json(json.loads(text))
    assert len(proof.nodes) == len(verdict.proof.nodes)


def _chain_pipeline():
    hyps, query = chain_family(2000)
    verdict = Session(hyps, [query], V.PFQPL).verdicts()[0]
    text = json.dumps(derivation_to_json(verdict.proof))
    proof = derivation_from_json(json.loads(text))
    assert check_derivation(proof, V.PFQPL, hyps, query).ok


def _random_pipeline():
    rng = random.Random(8)
    refused = 0
    for _ in range(50):
        hyps, queries = random_instance(rng)
        verdict = Session(hyps, queries, V.QPL).verdicts()[0]
        if not verdict.entailed:
            model = verdict_countermodel(verdict)
            countermodel_json(*model)
            refused += 1
    assert refused


def _cli_pipeline(tmp_path):
    """Writes two compact JSON documents: the verdicts and the proof."""
    hyps, query = chain_family(2000)
    problem = tmp_path / "h.qpl"
    problem.write_text("".join(render(h) + "\n" for h in hyps))
    proof = tmp_path / "proof.json"
    argv = ["check", str(problem), render(query), "p0", "--json",
            "--proof", str(proof)]
    assert cli.main(argv) == 0
    assert cli.main(["verify-proof", str(proof)]) == 0


@pytest.mark.parametrize("pipeline", ["chain", "random", "cli"])
def test_pipelines_leave_no_cycles(pipeline, tmp_path, capsys, collector_on):
    run = {
        "chain": _chain_pipeline,
        "random": _random_pipeline,
        "cli": lambda: _cli_pipeline(tmp_path),
    }[pipeline]
    cli.build_parser()  # once per process; building it leaves argparse's cycles
    gc.collect()
    run()
    assert gc.collect() == 0
