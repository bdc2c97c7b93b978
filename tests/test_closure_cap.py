"""The closure cap at its boundary: a cap equal to the universe size n
succeeds and one of n - 1 raises ResourceLimit, through closure, entails
and the command line alike. n is the size of the universe each one
builds: the paper's closure for closure and qpl closure, the session's
guarded closure for entails and qpl check."""

import pytest

from qpl import cli
from qpl.calculus import CalculusVariant as V
from qpl.engine import entails
from qpl.generators import bounded_halting_instance, chain_family
from qpl.syntax import (
    ResourceLimit,
    atom,
    closure,
    forall,
    parse_formula,
    parse_problem,
    render,
    var,
)
from test_golden import MACHINE


def _rendered(hyps, query):
    return "".join(render(h) + "\n" for h in hyps), render(query)


# (problem text, query): quantified, chain, machine, inputs only
CASES = {
    "symmetry": ("R(c, d)\nforall x. forall y. R(x, y) -> R(y, x)\n", "R(d, c)"),
    "capture": ("@vars y\nforall x. exists y. R(x, y)\nT(y)\n", "exists x. R(y, x)"),
    "chain": _rendered(*chain_family(60)),
    "machine": _rendered(*bounded_halting_instance(MACHINE, 2)),
    "atoms": ("p\nq\nr\np\n", "q"),
}


def _problem(case):
    text, query = CASES[case]
    prob = parse_problem(text)
    q = parse_formula(query, prob.declared_vars, symbols=prob.symbols)
    return prob.formulas, q


def _message(cap):
    return f"closure exceeds cap of {cap} formulas; raise the cap to proceed"


@pytest.mark.parametrize("case", CASES)
def test_closure_cap_at_universe_size(case):
    hyps, q = _problem(case)
    forms = [*hyps, q]
    full = closure(forms)
    n = len(full.universe)
    assert n >= 2
    assert closure(forms, cap=n).universe == full.universe
    with pytest.raises(ResourceLimit) as e:
        closure(forms, cap=n - 1)
    assert str(e.value) == _message(n - 1)


@pytest.mark.parametrize("case", CASES)
def test_entails_cap_at_universe_size(case):
    hyps, q = _problem(case)
    v = entails(hyps, q, V.QPL)
    n = len(v.closure_table.universe)
    want = v.entailed
    assert entails(hyps, q, V.QPL, closure_cap=n).entailed == want
    with pytest.raises(ResourceLimit) as e:
        entails(hyps, q, V.QPL, closure_cap=n - 1)
    assert str(e.value) == _message(n - 1)


def test_inputs_alone_exceed_the_cap():
    p, q, r = atom("p"), atom("q"), atom("r")
    f = forall("x", atom("S", var("x")))
    # duplicates collapse before the inputs are counted
    inputs = [p, q, r, p, f]
    n = len(closure(inputs).universe)
    assert n == 4 + 1  # the four distinct inputs and S(_0)
    for cap in range(1, 4):
        with pytest.raises(ResourceLimit) as e:
            closure(inputs, cap=cap)
        assert str(e.value) == _message(cap)
        with pytest.raises(ResourceLimit):
            entails([p, q, r, f], p, V.QPL, closure_cap=cap)
    assert len(closure(inputs, cap=n).universe) == n


@pytest.mark.parametrize("case", CASES)
def test_cli_cap_at_universe_size(case, tmp_path, capsys):
    text, query = CASES[case]
    path = tmp_path / "h.qpl"
    path.write_text(text)
    hyps, q = _problem(case)
    for argv, n in (
        (["closure", str(path)], len(closure(hyps).universe)),
        (["check", str(path), query],
         len(entails(hyps, q, V.QPL).closure_table.universe)),
    ):
        assert cli.main([*argv, "--closure-cap", str(n)]) == 0
        capsys.readouterr()
        assert cli.main([*argv, "--closure-cap", str(n - 1)]) == 3
        assert capsys.readouterr().err == f"resource limit: {_message(n - 1)}\n"
