"""Command-line surface: verdicts, artifacts, exit codes, determinism.

All invocations go through cli.main in process. Exit convention: 0 for a
successful decision regardless of verdict, 2 for input errors, 3 for
resource limits; verify-proof returns 1 for a well-formed but invalid
proof, prove returns 1 when no derivation exists.
"""

import json
import os
import random
import subprocess
import sys

import pytest

import qpl
from qpl import cli, semantics
from qpl.calculus import CalculusVariant as V
from qpl.engine import entails
from qpl.generators import random_horn
from qpl.syntax import parse_problem

CHAIN = "A -> B\nB -> C\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


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
    assert out.read_text() == json.dumps(want, indent=2, sort_keys=True) + "\n"


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


def test_check_no_queries_is_input_error(tmp_path):
    hyps = write(tmp_path, "h.qpl", CHAIN)
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", hyps])
    assert exc.value.code == 2


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
    assert doc["hyps"] == ["A -> B", "B -> C"]
    assert len(doc["proofs"]) == 1
    assert doc["proofs"][0]["query"] == "A -> B"


def test_prove_json_stdout(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", "p\nq\n")
    assert cli.main(["prove", hyps, "p & q", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    d = doc["proofs"][0]["derivation"]
    kinds = {n["kind"] for n in d["nodes"]}
    assert kinds == {"hypothesis", "rule"}
    assert any(n["rule"] == "AndI" for n in d["nodes"])


def test_prove_not_entailed_exits_1(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", CHAIN)
    assert cli.main(["prove", hyps, "A -> C"]) == 1
    assert "not entailed" in capsys.readouterr().err


def test_prove_human_tree(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", "p\nq\n")
    assert cli.main(["prove", hyps, "p & q", "--expand-tree"]) == 0
    out = capsys.readouterr().out
    assert "AndI" in out and "hypothesis" in out


# ---------------------------------------------------------- verify-proof

def test_verify_proof_rejects_mutations(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", "p\nq\n")
    out = tmp_path / "proof.json"
    assert cli.main(["prove", hyps, "p & q", "--proof", str(out)]) == 0
    doc = json.loads(out.read_text())
    rule_node = next(
        n for n in doc["proofs"][0]["derivation"]["nodes"]
        if n["kind"] == "rule"
    )
    rule_node["rule"] = "AndE_L"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["verify-proof", str(bad)]) == 1
    assert capsys.readouterr().err != ""


def test_verify_proof_rejects_wrong_conclusion(tmp_path):
    hyps = write(tmp_path, "h.qpl", "p\nq\n")
    out = tmp_path / "proof.json"
    assert cli.main(["prove", hyps, "p & q", "--proof", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["proofs"][0]["query"] = "q & p"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["verify-proof", str(bad)]) == 1


def test_verify_proof_foreign_hypothesis_fails(tmp_path):
    hyps = write(tmp_path, "h.qpl", "p\nq\n")
    out = tmp_path / "proof.json"
    assert cli.main(["prove", hyps, "p & q", "--proof", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["hyps"] = ["p"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["verify-proof", str(bad)]) == 1


def test_verify_proof_malformed_exits_2(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", "{not json")
    assert cli.main(["verify-proof", bad]) == 2
    assert cli.main(["verify-proof", write(tmp_path, "o.json", "{}")]) == 2


_GOOD_DOC = {
    "variant": "qpl",
    "vars": [],
    "hyps": ["p"],
    "proofs": [
        {
            "query": "p",
            "derivation": {
                "root": 0,
                "nodes": [
                    {"id": 0, "kind": "hypothesis", "label": "p", "parents": []}
                ],
            },
        }
    ],
}


def _doc_with(**changes):
    doc = json.loads(json.dumps(_GOOD_DOC))
    for key, value in changes.items():
        if key == "query":
            doc["proofs"][0]["query"] = value
        else:
            doc[key] = value
    return json.dumps(doc)


_VERIFY_CASES = [
    ("good", _doc_with(), 0),
    ("good-null-query", _doc_with(query=None), 0),
    ("foreign-hypothesis", _doc_with(hyps=[]), 1),  # well-formed, rejected
    ("wrong-conclusion", _doc_with(query="q"), 1),  # well-formed, rejected
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
    ("query-int", _doc_with(query=7), 2),
    ("query-array", _doc_with(query=["p"]), 2),
    ("proof-int", _doc_with(proofs=[1]), 2),
    ("proof-no-derivation", _doc_with(proofs=[{"query": "p"}]), 2),
    ("derivation-array", _doc_with(proofs=[{"query": "p", "derivation": []}]), 2),
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


# ----------------------------------------------------------------- bench

def test_bench_chain(capsys):
    assert cli.main(["bench", "chain", "--n", "5000", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entailed"] is True
    assert doc["symbols"] <= 5000
    assert doc["seconds"] >= 0


# ------------------------------------------------------------------ misc

def _run_module(*args):
    src = os.path.dirname(os.path.dirname(qpl.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "qpl.cli", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_module_entry_point_runs(tmp_path):
    hyps = write(tmp_path, "h.qpl", CHAIN)
    done = _run_module("check", hyps, "A -> B")
    assert done.returncode == 0
    assert done.stdout == "entailed: A -> B\n"
    missing = _run_module("check", str(tmp_path / "absent.qpl"), "p")
    assert missing.returncode == 2
    assert missing.stderr.startswith("error: ")


def test_no_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_unknown_variant_exits_2(tmp_path, capsys):
    hyps = write(tmp_path, "h.qpl", "p\n")
    assert cli.main(["check", hyps, "p", "--variant", "classical"]) == 2
