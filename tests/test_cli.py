"""Command-line surface: verdicts, artifacts, exit codes, determinism.

All invocations go through cli.main in process. Exit convention: 0 for a
successful decision regardless of verdict, 2 for input errors, 3 for
resource limits; verify-proof returns 1 for a well-formed but invalid
proof, prove returns 1 when no derivation exists.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import qpl
from qpl import algebra, cli, semantics
from qpl.calculus import (
    CalculusVariant as V,
    Derivation,
    DerivationNode,
    derivation_to_json,
    proof_document_from_json,
    proof_document_to_json,
)
from qpl.engine import Session, entails
from qpl.generators import bounded_halting_instance, parse_machine, random_horn
from qpl.syntax import (
    atom,
    conj,
    const,
    forall,
    imp,
    parse_formula,
    parse_problem,
    render,
    var,
)
from test_calculus import TABLE_MUTANTS, TABLE_PROOF
from test_golden import MACHINE

CHAIN = "A -> B\nB -> C\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def compact(doc) -> str:
    """The text the CLI prints or writes for doc."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


# ----------------------------------------------------------------- check

def test_check_true_and_false_verdicts(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", CHAIN)
    assert cli.main(["check", hyps, "A -> C"]) == 0
    assert "not entailed" in capsys.readouterr().out
    assert cli.main(["check", hyps, "A -> B"]) == 0
    out = capsys.readouterr().out
    assert "entailed" in out and "not entailed" not in out


def test_check_output_order_follows_input(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", CHAIN)
    assert cli.main(["check", hyps, "A -> C", "A -> B"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "A -> C" in lines[0] and lines[0].startswith("not entailed")
    assert "A -> B" in lines[1] and lines[1].startswith("entailed")


def test_check_json_deterministic(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", CHAIN)
    assert cli.main(["check", hyps, "A -> C", "--json"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["check", hyps, "A -> C", "--json"]) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["variant"] == "qpl"
    assert doc["results"][0]["query"] == "A -> C"
    assert doc["results"][0]["entailed"] is False
    assert doc["results"][0]["stats"]["universe_size"] > 0


def test_check_query_file(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", CHAIN)
    qf = write(tmp_path, "q.qpl", "# two queries\nA -> C\nA -> B\n")
    assert cli.main(["check", hyps, "--query-file", qf, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["entailed"] for r in doc["results"]] == [False, True]


def test_check_variant_changes_verdict(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", "false\n")
    assert cli.main(["check", hyps, "q", "--variant", "l2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["entailed"] is True
    assert cli.main(["check", hyps, "q", "--variant", "orig", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["entailed"] is False


def test_check_countermodel_file(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", CHAIN)
    out = tmp_path / "cm.json"
    assert cli.main(["check", hyps, "A -> C", "--countermodel", str(out)]) == 0
    doc = json.loads(out.read_text())
    entry = doc["countermodels"][0]
    assert entry["query"] == "A -> C"
    assert entry["model"]["atoms_true"] == []
    assert entry["model"]["override"] == {
        "A -> B": True,
        "B -> C": True,
        "A -> C": False,
    }


def test_check_countermodel_note_when_unavailable(tmp_path, capsys):
    # underivable at orig yet derivable in the full calculus
    hyps = write(tmp_path, "h.qpl", "p\n")
    out = tmp_path / "cm.json"
    assert cli.main(
        ["check", hyps, "p | q", "--variant", "orig", "--countermodel", str(out)]
    ) == 0
    entry = json.loads(out.read_text())["countermodels"][0]
    assert entry["model"] is None
    assert "full calculus" in entry["note"]


def test_check_several_queries_write_one_verifiable_proof(tmp_path, capsys):
    hyps = write(
        tmp_path,
        "h.qpl",
        "@vars x\nR(c)\nforall x. R(x) -> S(x)\np & q\nq -> r\n",
    )
    qf = write(tmp_path, "q.qpl", "S(c)\nr\nR(d)\nq & p\nexists x. S(x)\n")
    out = tmp_path / "proof.json"
    assert cli.main(
        ["check", hyps, "--query-file", qf, "--json", "--proof", str(out)]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["entailed"] for r in doc["results"]] == [True, True, False, True, True]
    assert len(json.loads(out.read_text())["proofs"]) == 4
    assert cli.main(["verify-proof", str(out)]) == 0
    assert capsys.readouterr().out == "ok: 4 proof(s) verified\n"


def test_proof_file_declares_variables_of_refused_queries(tmp_path, capsys):
    # y occurs free only in the refused query Q(y), yet the session
    # instantiates over it, so the labels of P's proof carry R(y)
    text = "@vars y\nforall x. R(x) -> P\nforall x. R(x)\n"
    hyps = write(tmp_path, "h.qpl", text)
    qf = write(tmp_path, "q.qpl", "P\nQ(y)\n")
    out = tmp_path / "proof.json"
    assert cli.main(["check", hyps, "--query-file", qf, "--proof", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["vars"] == ["y"]
    prob = parse_problem(text)
    queries = parse_problem("P\nQ(y)\n", prob.declared_vars, prob.symbols).formulas
    verdicts = Session(prob.formulas, queries, V.QPL).verdicts()
    extracted = [v.proof for v in verdicts if v.entailed]
    assert len(doc["proofs"]) == len(extracted) == 1
    labels = set()
    for (_, back), proof in zip(proof_document_from_json(doc)[2], extracted):
        assert len(back.nodes) == len(proof.nodes)
        for read, made in zip(back.nodes, proof.nodes):
            assert read.label is made.label
            labels.add(read.label)
    assert {atom("R", var("y")), imp(atom("R", var("y")), atom("P"))} <= labels
    assert cli.main(["verify-proof", str(out)]) == 0


def test_check_several_queries_share_one_session(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", "R(c)\n")
    out = tmp_path / "cm.json"
    assert cli.main(
        ["check", hyps, "q", "R(d)", "--json", "--countermodel", str(out)]
    ) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results[0]["stats"] == results[1]["stats"]
    assert results[0]["stats"]["universe_size"] == 3
    entries = json.loads(out.read_text())["countermodels"]
    # the model for q lives on the joint parameter set, d included
    assert [e["model"]["universe"] for e in entries] == [["c", "d"], ["c", "d"]]


def test_check_builds_one_countermodel_for_all_refusals(
    tmp_path, capsys, monkeypatch
):
    calls = []
    arities = semantics.relation_arities
    monkeypatch.setattr(
        semantics, "relation_arities", lambda ct: calls.append(1) or arities(ct)
    )
    hyps = write(tmp_path, "h.qpl", CHAIN)
    out = tmp_path / "cm.json"
    assert cli.main(
        ["check", hyps, "A -> C", "C", "B -> C", "C | A", "--countermodel", str(out)]
    ) == 0
    assert len(calls) == 1
    model = {
        "atoms_true": [],
        "override": {"A -> B": True, "A -> C": False, "B -> C": True, "C | A": False},
        "universe": ["_0"],
    }
    want = {
        "countermodels": [
            {"model": model, "note": None, "query": q}
            for q in ("A -> C", "C", "C | A")
        ]
    }
    assert out.read_text() == compact(want)


def test_check_renders_shared_countermodel_once(tmp_path, capsys, monkeypatch):
    calls = []
    render_model = cli.countermodel_json
    monkeypatch.setattr(
        cli, "countermodel_json", lambda *mo: calls.append(1) or render_model(*mo)
    )
    hyps = write(tmp_path, "h.qpl", CHAIN)
    out = tmp_path / "cm.json"
    assert cli.main(
        ["check", hyps, "A -> C", "C", "B -> C", "C | A", "--countermodel", str(out)]
    ) == 0
    assert len(calls) == 1
    model = {
        "atoms_true": [],
        "override": {"A -> B": True, "A -> C": False, "B -> C": True, "C | A": False},
        "universe": ["_0"],
    }
    want = {
        "countermodels": [
            {"model": dict(model), "note": None, "query": q}
            for q in ("A -> C", "C", "C | A")
        ]
    }
    assert out.read_text() == compact(want)


def test_check_query_file_continues_problem_vars(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", "@vars x\nR(x)\n")
    qf = write(tmp_path, "q.qpl", "R(x)\n@vars y\nR(y)\nR(x) & R(y)\n")
    assert cli.main(["check", hyps, "--query-file", qf, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["entailed"] for r in doc["results"]] == [True, False, False]


@pytest.mark.parametrize(
    "text,line",
    [
        ("p\n@vars forall\n", 2),
        ("@vars _z\np\n", 1),
        ("@vars 1x\n", 1),
        ("p\n\n@var x\n", 3),
        ("# comment\np &\n", 2),
    ],
)
def test_check_query_file_bad_line_exits_2(tmp_path, capsys, text, line):
    hyps = write(tmp_path, "h.qpl", CHAIN)
    qf = write(tmp_path, "q.qpl", text)
    assert cli.main(["check", hyps, "--query-file", qf]) == 2
    assert capsys.readouterr().err.startswith(f"error: line {line}: ")


def test_check_no_queries_is_input_error(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", CHAIN)
    assert cli.main(["check", hyps]) == 2
    assert capsys.readouterr().err == "error: no queries given\n"


def test_check_malformed_query_exits_2(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", CHAIN)
    assert cli.main(["check", hyps, "p &"]) == 2
    assert capsys.readouterr().err != ""


def test_check_missing_file_exits_2(tmp_path, capsys):
    assert cli.main(["check", str(tmp_path / "absent.qpl"), "p"]) == 2


def test_check_closure_cap_exits_3(tmp_path, capsys):
    hyps = write(
        tmp_path, "h.qpl", "R(c, d)\nforall x. forall y. R(x, y) -> R(y, x)\n"
    )
    assert cli.main(["check", hyps, "R(d, c)", "--closure-cap", "4"]) == 3
    assert "limit" in capsys.readouterr().err


# ----------------------------------------------------------------- prove

def test_prove_writes_verifiable_proof(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", CHAIN)
    out = tmp_path / "proof.json"
    assert cli.main(["prove", hyps, "A -> B", "--proof", str(out)]) == 0
    assert cli.main(["verify-proof", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["variant"] == "qpl"
    _, hyps, proofs = proof_document_from_json(doc)
    assert [render(h) for h in hyps] == ["A -> B", "B -> C"]
    assert len(proofs) == 1
    assert render(proofs[0][0]) == "A -> B"


def test_prove_json_stdout(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", "p\nq\n")
    assert cli.main(["prove", hyps, "p & q", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    d = doc["proofs"][0]["derivation"]
    assert set(d["kind"]) == {"hypothesis", "rule"}
    assert "AndI" in d["rule"]


def test_prove_not_entailed_exits_1(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", CHAIN)
    assert cli.main(["prove", hyps, "A -> C"]) == 1
    assert "not entailed" in capsys.readouterr().err


def test_prove_human_tree(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", "p\nq\n")
    assert cli.main(["prove", hyps, "p & q", "--expand-tree"]) == 0
    out = capsys.readouterr().out
    assert "AndI" in out and "hypothesis" in out


def test_prove_tree_prints_a_shared_subproof_once(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", "p & q\n")
    assert cli.main(["prove", hyps, "p & p", "--expand-tree"]) == 0
    assert capsys.readouterr().out == (
        "entailed: p & p\n"
        "[2] p & p  (AndI)\n"
        "  [1] p  (AndE_L)\n"
        "    [0] p & q  (hypothesis)\n"
        "  [1] p  (AndE_L, shown above)\n"
    )


def test_prove_text_builds_no_proof_document(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("text output needs no proof document")

    monkeypatch.setattr(cli, "proof_document_to_json", refuse)
    hyps = write(tmp_path, "h.qpl", "p\nq\n")
    assert cli.main(["prove", hyps, "p & q"]) == 0
    assert capsys.readouterr().out.startswith("entailed: p & q\n")


# ---------------------------------------------------------- verify-proof

def test_verify_proof_rejects_mutations(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", "p\nq\n")
    out = tmp_path / "proof.json"
    assert cli.main(["prove", hyps, "p & q", "--proof", str(out)]) == 0
    doc = json.loads(out.read_text())
    d = doc["proofs"][0]["derivation"]
    d["rule"][d["kind"].index("rule")] = "AndE_L"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["verify-proof", str(bad)]) == 1
    assert capsys.readouterr().err != ""


def test_verify_proof_rejects_wrong_conclusion(tmp_path):
    hyps = write(tmp_path, "h.qpl", "p\nq\n")
    out = tmp_path / "proof.json"
    assert cli.main(["prove", hyps, "p & q", "--proof", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["proofs"][0]["query"] = doc["hyps"][0]  # the row of p
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["verify-proof", str(bad)]) == 1


def test_verify_proof_foreign_hypothesis_fails(tmp_path):
    hyps = write(tmp_path, "h.qpl", "p\nq\n")
    out = tmp_path / "proof.json"
    assert cli.main(["prove", hyps, "p & q", "--proof", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["hyps"] = doc["hyps"][:1]  # the row of p
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["verify-proof", str(bad)]) == 1


def test_verify_proof_malformed_exits_2(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", "{not json")
    assert cli.main(["verify-proof", bad]) == 2
    assert cli.main(["verify-proof", write(tmp_path, "o.json", "{}")]) == 2


P, Q = atom("p"), atom("q")


_HYP_P = DerivationNode(0, P, "hypothesis", None, ())


def _derivation_doc(root, nodes, hyps=(P,), query=P, **columns):
    """A document of one proof of query from hyps, as proof_document_to_json
    writes it. root and nodes (DerivationNode fields) are written as they
    are, and columns replace the derivation's."""
    doc = proof_document_to_json(
        V.QPL, hyps, [], [(query, Derivation(root, tuple(nodes)))]
    )
    doc["proofs"][0]["derivation"].update(columns)
    return json.dumps(doc)


_GOOD_DOC = _derivation_doc(0, [_HYP_P])


def _doc_with(**changes):
    doc = json.loads(_GOOD_DOC)
    for key, value in changes.items():
        if key == "query":
            doc["proofs"][0]["query"] = value
        else:
            doc[key] = value
    return json.dumps(doc)


def _doc_without(key):
    doc = json.loads(_GOOD_DOC)
    del doc[key]
    return json.dumps(doc)


# a valid proof of p from p & q, listed root first
_ROOT_FIRST = _derivation_doc(
    1,
    [
        DerivationNode(1, P, "rule", "AndE_L", (0,)),
        DerivationNode(0, conj(P, Q), "hypothesis", None, ()),
    ],
    hyps=[conj(P, Q)],
)

_VERIFY_CASES = [
    ("good", _doc_with(), 0),
    ("good-null-query", _doc_with(query=None), 0),
    ("foreign-hypothesis", _doc_with(hyps=[]), 1),  # well-formed, rejected
    ("wrong-conclusion", _derivation_doc(0, [_HYP_P], query=Q), 1),  # rejected
    ("not-json", "{not json", 2),
    ("not-object", "[]", 2),
    ("empty-object", "{}", 2),
    ("hyps-string", _doc_with(hyps="p"), 2),
    ("hyps-int", _doc_with(hyps=[1]), 2),
    ("hyps-null", _doc_with(hyps=[None]), 2),
    ("vars-string", _doc_with(vars="x"), 2),
    ("vars-int", _doc_with(vars=[3]), 2),
    ("variant-int", _doc_with(variant=5), 2),
    ("variant-null", _doc_with(variant=None), 2),
    ("variant-unknown", _doc_with(variant="classical"), 2),
    ("variant-missing", _doc_without("variant"), 2),
    ("query-int", _doc_with(query=7), 2),
    ("query-array", _doc_with(query=["p"]), 2),
    ("proof-int", _doc_with(proofs=[1]), 2),
    ("proof-no-derivation", _doc_with(proofs=[{"query": 0}]), 2),
    ("derivation-array", _doc_with(proofs=[{"query": 0, "derivation": []}]), 2),
    # a label must be a row id, not a rendered formula
    ("node-not-object", _derivation_doc(0, [_HYP_P], label=["p"]), 2),
    ("rule-int", _derivation_doc(0, [_HYP_P._replace(rule=5)]), 2),
    # JSON true/false are not node numbers, although Python's bool is an int
    ("root-bool", _derivation_doc(False, [_HYP_P]), 2),
    ("id-bool", _derivation_doc(0, [_HYP_P._replace(id=False)]), 2),
    (
        "parents-bool",
        _derivation_doc(
            2,
            [
                _HYP_P,
                DerivationNode(1, Q, "hypothesis", None, ()),
                DerivationNode(2, conj(P, Q), "rule", "AndI", (False, True)),
            ],
            hyps=[P, Q],
            query=conj(P, Q),
        ),
        2,
    ),
    # every parent must be listed before its child
    ("root-first", _ROOT_FIRST, 1),
    (
        "self-loop",
        _derivation_doc(0, [DerivationNode(0, P, "rule", "OrE", (0,))]),
        1,
    ),
]


@pytest.mark.parametrize(
    "text,code",
    [case[1:] for case in _VERIFY_CASES],
    ids=[case[0] for case in _VERIFY_CASES],
)
def test_verify_proof_exit_codes(tmp_path, capsys, text, code):
    path = write(tmp_path, "doc.json", text)
    assert cli.main(["verify-proof", path]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: ")


def test_verify_proof_prints_structural_errors(tmp_path, capsys):
    path = write(tmp_path, "doc.json", _derivation_doc(9, [_HYP_P]))
    assert cli.main(["verify-proof", path]) == 1
    assert capsys.readouterr().err == (
        "proof 0: root 9 is not a node\n1 of 1 proofs failed\n"
    )


def test_verify_proof_prints_a_parent_listed_late(tmp_path, capsys):
    path = write(tmp_path, "doc.json", _ROOT_FIRST)
    assert cli.main(["verify-proof", path]) == 1
    assert capsys.readouterr().err == (
        "proof 0: node 1 references parent 0, which is not listed before it\n"
        "1 of 1 proofs failed\n"
    )


def test_verify_proof_reads_the_whole_document_before_judging(tmp_path, capsys):
    # proof 0 concludes another query and proof 2 is malformed: the input
    # error names proof 2, and no verdict on proof 0 is printed before it
    hyps = write(tmp_path, "h.qpl", "p\nq\n")
    out = tmp_path / "proof.json"
    assert cli.main(["check", hyps, "p", "q", "p & q", "--proof", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    proofs = doc["proofs"]
    assert len(proofs) == 3
    proofs[0]["query"] = proofs[1]["query"]
    proofs[2]["derivation"]["root"] = "x"
    path = write(tmp_path, "bad.json", json.dumps(doc))
    assert cli.main(["verify-proof", path]) == 2
    assert capsys.readouterr() == (
        "", "error: proof 2: derivation needs an integer 'root'\n"
    )


# Documents written before formula tables: hyps, queries and labels are
# rendered formulas, and each node an object or, later, a five-element
# array. The last shape held string hyps beside a derivation with its own
# table.
WRITTEN_BEFORE_TABLES = (
    "proof written before formula tables; re-run qpl prove or "
    "qpl check --proof to write it again"
)


def _assert_refused(tmp_path, capsys, derivation):
    doc = {"variant": "qpl", "vars": [], "hyps": ["p", "(p -> q)"],
           "proofs": [{"query": "q", "derivation": derivation}]}
    path = write(tmp_path, "doc.json", json.dumps(doc))
    assert cli.main(["verify-proof", path]) == 2
    assert capsys.readouterr() == ("", f"error: {WRITTEN_BEFORE_TABLES}\n")


def test_verify_proof_refuses_documents_written_before_formula_tables(
    tmp_path, capsys
):
    _assert_refused(tmp_path, capsys, derivation_to_json(Derivation(0, (_HYP_P,))))


# p, p -> q |- q by ImpE, as object nodes; "mutated" concludes r from a
# parent listed late. Both once verified (exit 0 and 1), and the others
# were refused node by node.
_HYP_OBJECT = {"id": 0, "kind": "hypothesis", "rule": None, "label": "p",
               "parents": []}
_OBJECT_NODES = [
    _HYP_OBJECT,
    {"id": 1, "kind": "hypothesis", "rule": None, "label": "(p -> q)",
     "parents": []},
    {"id": 2, "kind": "rule", "rule": "ImpE", "label": "q", "parents": [1, 0]},
]
_OBJECT_NODE_CASES = {
    "as-written": _OBJECT_NODES,
    "mutated": [*_OBJECT_NODES[:2], {**_OBJECT_NODES[2], "label": "r",
                                     "parents": [1, 9]}],
    "id-string": [{**_HYP_OBJECT, "id": "0"}],
    "kind-unknown": [{**_HYP_OBJECT, "kind": "guess"}],
    "parents-string": [{**_HYP_OBJECT, "parents": "no"}],
    "label-int": [{**_HYP_OBJECT, "label": 3}],
    "rule-int": [{**_HYP_OBJECT, "rule": 5}],
    "label-missing": [{k: v for k, v in _HYP_OBJECT.items() if k != "label"}],
    "label-unparsable": [{**_HYP_OBJECT, "label": "p &"}],
}


# The names below are those of the tests from when these shapes were read.
# Now every such document, well formed or not, is refused whole with one
# message before any node is looked at.
@pytest.mark.parametrize("nodes", list(_OBJECT_NODE_CASES.values()),
                         ids=list(_OBJECT_NODE_CASES))
def test_verify_proof_reads_object_nodes_as_before(tmp_path, capsys, nodes):
    _assert_refused(tmp_path, capsys, {"root": 2, "nodes": nodes})


_ARRAY_NODES = [[n["id"], n["label"], n["kind"], n["rule"], n["parents"]]
                for n in _OBJECT_NODES]
_ARRAY_NODE_CASES = {
    "as-written": _ARRAY_NODES,
    "mutated": [*_ARRAY_NODES[:2], [2, "r", "rule", "ImpE", [1, 9]]],
}


@pytest.mark.parametrize("nodes", list(_ARRAY_NODE_CASES.values()),
                         ids=list(_ARRAY_NODE_CASES))
def test_verify_proof_reads_array_nodes_as_before(tmp_path, capsys, nodes):
    _assert_refused(tmp_path, capsys, {"root": 2, "nodes": nodes})


_ARRAY_MUTANTS = {
    "four-elements": [[0, "p", "hypothesis", None]],
    "six-elements": [[0, "p", "hypothesis", None, [], []]],
    "id-string": [[0, "p", "hypothesis", None, []],
                  ["1", "p", "hypothesis", None, []]],
    "parents-not-list": [[0, "p", "hypothesis", None, 0]],
    "kind-unknown": [[0, "p", "lemma", None, []]],
}


@pytest.mark.parametrize("nodes", list(_ARRAY_MUTANTS.values()),
                         ids=list(_ARRAY_MUTANTS))
def test_verify_proof_names_a_malformed_array_node(tmp_path, capsys, nodes):
    _assert_refused(tmp_path, capsys, {"root": 0, "nodes": nodes})


# ------------------------------------------------ names read by context

# Labels read a name as a variable or a constant by context, which these
# two problems defeat; formula rows carry term kinds, so their documents
# read back to the session's own formulas.

# the instance forall x. R(<constant x>, x) of the first hypothesis at the
# constant x would render as forall x. R(x, x)
_CONST_UNDER_BINDER = (
    "forall y. forall x. R(y, x)\n"
    "forall y. ((forall x. R(y, x)) -> Q(y))\n"
    "S(x)\n"
)


def _round_trip(tmp_path, capsys, argv, paths, hyps, queries):
    """Run argv; when it writes a proof document, check that verify-proof
    accepts it and that it reads back to hyps and queries, the very
    formulas, and to a proof of each query."""
    argv = [paths.get(a, a) for a in argv]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if "--proof" in argv:
        doc = json.loads(Path(argv[argv.index("--proof") + 1]).read_text())
    elif "--json" in argv and argv[0] == "prove":
        doc = json.loads(out)
    else:
        assert out.startswith("entailed: ")
        return
    _, got, proofs = proof_document_from_json(doc)
    assert len(got) == len(hyps) and all(a is b for a, b in zip(got, hyps))
    read = [query for query, _ in proofs]
    assert len(read) == len(queries) and all(a is b for a, b in zip(read, queries))
    for (_, d), query in zip(proofs, queries):
        assert d.nodes[-1].label is query
    path = write(tmp_path, "doc.json", json.dumps(doc))
    assert cli.main(["verify-proof", path]) == 0
    assert capsys.readouterr() == (f"ok: {len(queries)} proof(s) verified\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{hyps}", "Q(x)", "--proof", "{proof}"],
        ["check", "{hyps}", "S(x)", "Q(x)", "--json", "--proof", "{proof}"],
        ["prove", "{hyps}", "Q(x)", "--proof", "{proof}"],
        ["prove", "{hyps}", "Q(x)", "--json"],
        ["prove", "{hyps}", "Q(x)"],
    ],
    ids=["check", "check-json", "prove-proof", "prove-json", "prove-text"],
)
def test_proof_with_a_constant_under_its_binder_round_trips(
    tmp_path, capsys, argv
):
    paths = {
        "{hyps}": write(tmp_path, "h.qpl", _CONST_UNDER_BINDER),
        "{proof}": str(tmp_path / "proof.json"),
    }
    prob = parse_problem(_CONST_UNDER_BINDER)
    queries = [parse_formula(q, symbols=prob.symbols)
               for q in argv[2:] if not q.startswith(("-", "{"))]
    _round_trip(tmp_path, capsys, argv, paths, prob.formulas, queries)
    if argv[-1] == "{proof}":
        # the instance that labels would misread is in the proof
        cx = const("x")
        misread = forall("x", atom("R", cx, var("x")))
        doc = json.loads((tmp_path / "proof.json").read_text())
        proofs = proof_document_from_json(doc)[2]
        assert any(n.label is misread for _, d in proofs for n in d.nodes)


# y is a constant in the first two lines and a variable after @vars, so the
# document declares the variable y and holds the constant y
_CONST_NAMED_LIKE_A_VAR = "R(y)\nR(y) -> P\n@vars y\nQ(y)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{hyps}", "P", "--proof", "{proof}"],
        ["check", "{hyps}", "P", "--json", "--proof", "{proof}"],
        ["check", "{consts}", "--query-file", "{queries}", "--proof", "{proof}"],
        ["prove", "{hyps}", "P", "--proof", "{proof}"],
        ["prove", "{hyps}", "P"],
    ],
    ids=["check", "check-json", "check-query-file", "prove-proof", "prove-text"],
)
def test_proof_with_a_constant_named_like_a_var_round_trips(tmp_path, capsys, argv):
    paths = {
        "{hyps}": write(tmp_path, "h.qpl", _CONST_NAMED_LIKE_A_VAR),
        "{consts}": write(tmp_path, "c.qpl", "R(y)\nR(y) -> P\n"),
        "{queries}": write(tmp_path, "q.qpl", "@vars y\nP\nQ(y)\n"),
        "{proof}": str(tmp_path / "proof.json"),
    }
    hyps = parse_problem(_CONST_NAMED_LIKE_A_VAR).formulas
    if "{consts}" in argv:
        hyps = hyps[:2]
    _round_trip(tmp_path, capsys, argv, paths, hyps, [atom("P")])
    if argv[-1] == "{proof}":
        doc = json.loads((tmp_path / "proof.json").read_text())
        assert doc["vars"] == ["y"]
        assert proof_document_from_json(doc)[1][0] is atom("R", const("y"))


def test_constant_named_like_a_var_outside_the_document_still_proves(
    tmp_path, capsys
):
    # the constant y occurs only in the refused query R(y), which the
    # document does not hold, so the proof of P is written and verifies
    hyps = write(tmp_path, "h.qpl", "P\n")
    queries = write(tmp_path, "q.qpl", "R(y)\n@vars y\nQ(y)\n")
    out = tmp_path / "proof.json"
    argv = ["check", hyps, "P", "--query-file", queries, "--proof", str(out)]
    assert cli.main(argv) == 0
    assert json.loads(out.read_text())["vars"] == ["y"]
    assert cli.main(["verify-proof", str(out)]) == 0


def test_constant_named_like_a_binder_elsewhere_still_proves(tmp_path, capsys):
    # x is a constant and a binder, but no label holds the constant x under
    # a binder x, so the proof is written and verifies
    hyps = write(tmp_path, "h.qpl", _CONST_UNDER_BINDER)
    out = tmp_path / "proof.json"
    assert cli.main(["check", hyps, "S(x)", "--proof", str(out)]) == 0
    assert cli.main(["verify-proof", str(out)]) == 0


# ------------------------------------------------------ formula tables

def _table_doc(changes=None):
    """A proof document of p & q from p and q, with TABLE_PROOF's rows as
    the document's table and its columns as the derivation; changes
    replaces fields of either."""
    fields = {**TABLE_PROOF, **(changes or {})}
    table = {k: fields.pop(k) for k in ("names", "formulas")}
    return json.dumps({
        "variant": "qpl",
        "vars": [],
        **table,
        "hyps": [0, 1],
        "proofs": [{"query": 2, "derivation": fields}],
    })


def test_verify_proof_reads_a_table_document(tmp_path, capsys):
    assert cli.main(["verify-proof", write(tmp_path, "doc.json", _table_doc())]) == 0
    assert capsys.readouterr() == ("ok: 1 proof(s) verified\n", "")


@pytest.mark.parametrize(
    "changes", [m[1] for m in TABLE_MUTANTS], ids=[m[0] for m in TABLE_MUTANTS]
)
def test_verify_proof_refuses_malformed_tables(tmp_path, capsys, changes):
    path = write(tmp_path, "doc.json", _table_doc(changes))
    assert cli.main(["verify-proof", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"hyps": ["p", "q"]}, "'hyps' must cite rows of 'formulas' by integer id"),
        ({"hyps": [0, 5]}, "'hyps' cites row 5, but 'formulas' has 3 row(s)"),
        ({"names": ["_p", "q"]}, "identifiers starting with '_' are reserved: '_p'"),
        ({"formulas": [2, 0, 1, 5]}, "formula row 0: bad term 5"),
        (
            {"proofs": [{"query": 2, "derivation": TABLE_PROOF}]},
            "proof 0: derivation carries its own 'names' or 'formulas', but "
            "one in a proof document cites the document's table",
        ),
    ],
    ids=["hyps-strings", "hyps-out-of-range", "hyp-reserved", "term-no-name",
         "derivation-own-table"],
)
def test_verify_proof_names_what_is_wrong_with_a_table(
    tmp_path, capsys, doc, message
):
    base = json.loads(_table_doc())
    path = write(tmp_path, "doc.json", json.dumps({**base, **doc}))
    assert cli.main(["verify-proof", path]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# ------------------------------------------------------------ deep input

DEPTH = 5000
_DEEP_CHAIN = " -> ".join(f"p{i}" for i in range(DEPTH)) + "\n"
_DEEP_SUM = " + ".join(["a"] * DEPTH)
_DEEP_BODY = "R(x) -> " * DEPTH + "R(x)"
_DEEP_HYP = parse_formula(f"forall x. {_DEEP_BODY}")
_DEEP_INSTANCE = parse_formula(_DEEP_BODY.replace("x", "c"))
_DEEP_FORALL_E = _derivation_doc(
    1,
    [
        DerivationNode(0, _DEEP_HYP, "hypothesis", None, ()),
        DerivationNode(1, _DEEP_INSTANCE, "rule", "ForallE", (0,)),
    ],
    hyps=[_DEEP_HYP],
    query=_DEEP_INSTANCE,
)


@pytest.mark.parametrize(
    "argv,code,err",
    [
        (["check", "{deep}", "p0"], 0, ""),
        (["prove", "{deep}", "p0"], 1, "not entailed: p0\n"),
        (["closure", "{deep}"], 3, "resource limit: input nested too deeply\n"),
        (
            ["oracle", "{deep}", "p0"],
            3,
            "resource limit: enumeration exponent 9999 exceeds cap 24\n",
        ),
        (["algebra", _DEEP_SUM, "a"], 0, ""),
        (["verify-proof", "{proof}"], 0, ""),
        (["check", "{forall}", "q"], 0, ""),
        (["prove", "{forall}", "q"], 1, "not entailed: q\n"),
        (
            ["verify-proof", "{nested}"],
            3,
            "resource limit: input nested too deeply\n",
        ),
    ],
    ids=["check", "prove", "closure", "oracle", "algebra", "verify-proof",
         "check-forall", "prove-forall", "verify-proof-nested-json"],
)
def test_deep_input_keeps_exit_contract(tmp_path, capsys, argv, code, err):
    # the json decoder recurses, so a deeply nested document hits the
    # RecursionError backstop in cli.main
    paths = {
        "{deep}": write(tmp_path, "deep.qpl", _DEEP_CHAIN),
        "{proof}": write(tmp_path, "proof.json", _DEEP_FORALL_E),
        "{forall}": write(tmp_path, "forall.qpl", f"forall x. {_DEEP_BODY}\n"),
        "{nested}": write(tmp_path, "nested.json", "[" * 100_000 + "]" * 100_000),
    }
    assert cli.main([paths.get(a, a) for a in argv]) == code
    assert capsys.readouterr().err == err


# --------------------------------------------------------------- closure

def test_closure_reports_bound(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", "forall x. R(x, c)\n")
    assert cli.main(["closure", hyps, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["universe"] == ["forall x. R(x, c)", "R(c, c)"]
    assert doc["stats"]["universe_size"] == 2
    assert doc["stats"]["params"] == ["c"]
    assert doc["stats"]["within_bound"] is True


def test_closure_human_output(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", "p & q\n")
    assert cli.main(["closure", hyps]) == 0
    out = capsys.readouterr().out
    assert "p & q" in out and "universe" in out


def test_closure_without_formulas_exits_2(tmp_path, capsys):
    empty = write(tmp_path, "h.qpl", "# no formulas\n")
    assert cli.main(["closure", empty]) == 2
    assert capsys.readouterr().err == "error: no formulas in input\n"


def test_closure_cap_exits_3(tmp_path, capsys):
    hyps = write(
        tmp_path, "h.qpl", "R(c, d)\nforall x. forall y. R(x, y) -> R(y, x)\n"
    )
    assert cli.main(["closure", hyps, "--closure-cap", "3"]) == 3


# ---------------------------------------------------------------- oracle

def test_oracle_agrees_with_engine(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", CHAIN)
    assert cli.main(["oracle", hyps, "A -> C", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["yields"] is False
    assert cli.main(["oracle", hyps, "A -> B", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["yields"] is True


def test_oracle_refuses_over_cap(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", "p\nq\nr\n")
    assert cli.main(["oracle", hyps, "s", "--oracle-cap", "2"]) == 3
    assert "limit" in capsys.readouterr().err


# --------------------------------------------------------------- algebra

def test_algebra_order_and_equality(capsys):
    assert cli.main(["algebra", "a + b", "a", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["s_geq_t"] is True
    assert doc["t_geq_s"] is False
    assert doc["equal"] is False
    assert cli.main(["algebra", "a + b", "b + a", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["equal"] is True


def test_algebra_human(capsys):
    assert cli.main(["algebra", "a * b", "b"]) == 0
    out = capsys.readouterr().out
    assert "s >= t" in out and "t >= s" in out


def test_algebra_parse_error_exits_2(capsys):
    assert cli.main(["algebra", "a &", "b"]) == 2


def test_algebra_decides_each_direction_once(capsys, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return entails(*args, **kwargs)

    monkeypatch.setattr(algebra, "entails", counting)
    assert cli.main(["algebra", "a + b", "b + a"]) == 0
    assert len(calls) == 2
    assert capsys.readouterr().out == (
        "s: a + b\nt: b + a\ns >= t: true\nt >= s: true\nequal: true\n"
    )


# ------------------------------------------------------------------- gen

def test_gen_horn_reproducible(capsys):
    assert cli.main(["gen", "horn", "--seed", "7", "--clauses", "4"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["gen", "horn", "--seed", "7", "--clauses", "4"]) == 0
    assert capsys.readouterr().out == first
    prob = parse_problem(first)
    want = [c.to_formula() for c in random_horn(random.Random(7), 4)]
    assert prob.formulas == want


def test_gen_horn_json_has_oracle_verdict(capsys):
    assert cli.main(["gen", "horn", "--seed", "3", "--clauses", "5", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["query"] == "false"
    assert isinstance(doc["classical_bottom"], bool)
    assert len(doc["clauses"]) == 5


def test_gen_requires_seed_in_json_mode(capsys):
    assert cli.main(["gen", "horn", "--json"]) == 2
    assert cli.main(["gen", "random", "--json"]) == 2


def test_gen_horn_unseeded_human_runs(capsys):
    assert cli.main(["gen", "horn"]) == 0
    assert "# seed:" in capsys.readouterr().out


def test_gen_machine_instance(tmp_path, capsys):
    mfile = write(tmp_path, "m.txt", "state 0: inc 1 -> 1\n")
    assert cli.main(["gen", "machine", mfile, "--bound", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["query"] == "exists x. exists y. K1(x, y)"
    assert doc["halts"] is True and doc["steps"] == 1
    assert len(doc["hyps"]) == 3


def test_gen_machine_human_is_problem_file(tmp_path, capsys):
    mfile = write(tmp_path, "m.txt", "state 0: inc 1 -> 1\n")
    assert cli.main(["gen", "machine", mfile, "--bound", "1"]) == 0
    out = capsys.readouterr().out
    prob = parse_problem(out)
    assert len(prob.formulas) == 3
    qline = next(l for l in out.splitlines() if l.startswith("# query:"))
    query = qline.split(":", 1)[1].strip()
    from qpl.syntax import parse_formula

    q = parse_formula(query, symbols=prob.symbols)
    assert entails(prob.formulas, q, V.QPL).entailed


def test_gen_machine_bad_file_exits_2(tmp_path, capsys):
    mfile = write(tmp_path, "m.txt", "state 0: hop 1 -> 1\n")
    assert cli.main(["gen", "machine", mfile, "--bound", "1"]) == 2


def test_gen_machine_far_target_exits_2(tmp_path, capsys):
    mfile = write(tmp_path, "m.txt", "state 0: inc 1 -> 10000000000\n")
    assert cli.main(["gen", "machine", mfile, "--bound", "1"]) == 2
    assert "and 9999999989 more" in capsys.readouterr().err


def test_gen_random_deterministic(capsys):
    args = ["gen", "random", "--seed", "5", "--variant", "l2", "--json"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["variant"] == "l2"
    assert doc["hyps"] and doc["queries"]
    assert "forall" not in " ".join(doc["hyps"] + doc["queries"])


# ------------------------------------------------------------------ misc

def _run_module(*args, preexec_fn=None):
    src = os.path.dirname(os.path.dirname(qpl.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "qpl.cli", *args],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=preexec_fn,
    )


def test_module_entry_point_runs(tmp_path):
    hyps = write(tmp_path, "h.qpl", CHAIN)
    done = _run_module("check", hyps, "A -> B")
    assert done.returncode == 0
    assert done.stdout == "entailed: A -> B\n"
    missing = _run_module("check", str(tmp_path / "absent.qpl"), "p")
    assert missing.returncode == 2
    assert missing.stderr.startswith("error: ")


def test_out_of_memory_exits_3(tmp_path):
    resource = pytest.importorskip("resource")
    # the three-state machine of demos/machine_reduction.py at bound 30
    # needs about 175 MB to decide; the child may map only 100 MB
    machine = parse_machine(
        "state 0: inc 1 -> 2\nstate 2: inc 1 -> 3\nstate 3: inc 1 -> 1\n"
    )
    hyps, query = bounded_halting_instance(machine, 30)
    path = write(tmp_path, "m30.qpl", "".join(render(h) + "\n" for h in hyps))
    limit = 100 * 2**20

    def lower_own_limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    done = _run_module("check", path, render(query), preexec_fn=lower_own_limit)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == "resource limit: out of memory\n"


def test_no_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_unknown_variant_exits_2(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", "p\n")
    assert cli.main(["check", hyps, "p", "--variant", "classical"]) == 2


# --------------------------------------------------- out-of-range numbers

@pytest.mark.parametrize(
    "argv,code,err",
    [
        (["check", "{h}", "q", "--closure-cap", "0"], 2,
         "error: closure cap must be positive\n"),
        (["check", "{h}", "q", "--closure-cap", "-5"], 2,
         "error: closure cap must be positive\n"),
        (["closure", "{h}", "--closure-cap", "0"], 2,
         "error: closure cap must be positive\n"),
        (["oracle", "{h}", "q", "--oracle-cap", "0"], 2,
         "error: oracle cap must be positive\n"),
        (["gen", "random", "--seed", "1", "--hyps", "-2"], 2,
         "error: hypothesis count must be nonnegative\n"),
        (["gen", "random", "--seed", "1", "--queries", "0"], 2,
         "error: query count must be positive\n"),
        (["gen", "horn", "--seed", "1", "--clauses", "-3"], 2,
         "error: clause count must be nonnegative\n"),
        (["gen", "random", "--seed", "1", "--hyps", "0"], 0, ""),
        (["gen", "horn", "--seed", "1", "--clauses", "0"], 0, ""),
    ],
)
def test_out_of_range_numbers_are_input_errors(tmp_path, capsys, argv, code, err):
    hyps = write(tmp_path, "h.qpl", "p\np -> q\n")
    assert cli.main([a.format(h=hyps) for a in argv]) == code
    assert capsys.readouterr().err == err


# ------------------------------------------------------------ JSON bytes

def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_cli_documents_keep_their_bytes(tmp_path, capsys):
    # the golden corpus's 4-state machine at t=2: 55 queries, 11 entailed
    # and 44 refused, each with a countermodel. The digests were taken
    # with the standard library's json.dumps writing every document; the
    # proof file's and prove --json's were retaken when proof nodes became
    # arrays, and again when proof documents gained a formula table, once
    # every proof in them verified. All four were retaken when the CLI
    # went from a two-space indent to compact JSON; each new document
    # loads to the same value as the indented one.
    hyps, halting = bounded_halting_instance(MACHINE, 2)
    configs = [
        atom(f"K{i}", const(f"n{a}"), const(f"n{b}"))
        for i in (0, 1, *MACHINE.instructions)
        for a in range(3)
        for b in range(3)
    ]
    h = write(tmp_path, "h.qpl", "".join(render(f) + "\n" for f in hyps))
    q = write(tmp_path, "q.qpl",
              "".join(render(f) + "\n" for f in [halting, *configs]))
    proof, model = tmp_path / "proof.json", tmp_path / "cm.json"
    assert cli.main(["check", h, "--query-file", q, "--json",
                     "--proof", str(proof), "--countermodel", str(model)]) == 0
    out = capsys.readouterr().out
    for text in (out, proof.read_text(), model.read_text()):
        assert text == compact(json.loads(text))
    assert _sha(out.encode()) == (
        "41e3120c208320e3211d074dbae8e462283749d8e09a6cfece8015a342ee99ea")
    assert _sha(proof.read_bytes()) == (
        "fbb246259dce2882f1f0efbdd5a6ad23c928d4653c542f9adeedb5e4deaf8ee6")
    assert _sha(model.read_bytes()) == (
        "4a778796ef1a9908804de4150019be520d7539b272e41f4e883ba019c3f46194")
    assert cli.main(["verify-proof", str(proof)]) == 0
    assert capsys.readouterr().out == "ok: 11 proof(s) verified\n"
    assert cli.main(["prove", h, render(halting), "--json"]) == 0
    out = capsys.readouterr().out
    assert out == compact(json.loads(out))
    assert _sha(out.encode()) == (
        "72f38bb362be2b2ff8e23d50765288f8477bf9c7a1c3018a58f537f7a0eb4da4")
    assert cli.main(["verify-proof", write(tmp_path, "prove.json", out)]) == 0
