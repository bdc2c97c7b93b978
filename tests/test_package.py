"""The package's public surface: qpl.__all__."""

import inspect

import qpl
import qpl.cli


def _star_import():
    namespace = {}
    exec("from qpl import *", namespace)
    return namespace


def test_star_import_resolves_every_public_name():
    namespace = _star_import()
    assert len(qpl.__all__) == len(set(qpl.__all__))
    for name in qpl.__all__:
        assert namespace[name] is getattr(qpl, name), name


def test_retired_names_are_gone():
    # multi_entails was a wrapper over Session, RuleInstance and RejectReason
    # wrapped match_rule's result, ParamSet wrapped the parameter tuple;
    # substitute and ClashError gave way to the closure's instantiation walk;
    # free_vars and formula_length wrapped the free and length attributes
    namespace = _star_import()
    modules = [qpl, qpl.engine, qpl.calculus, qpl.syntax]
    for name in ("multi_entails", "RuleInstance", "RejectReason", "ParamSet",
                 "substitute", "ClashError", "free_vars", "formula_length"):
        assert name not in namespace
        for module in modules:
            assert not hasattr(module, name), (module.__name__, name)
    # the parser raises its arity errors itself; a Report lists failures only
    assert not hasattr(qpl.syntax.SymbolTable, "observe")
    assert "node_results" not in qpl.calculus.Report.__dataclass_fields__
    # proof documents have one shape, formula tables, so the label reader,
    # its cache and the parser's reserved-name switch are gone; the chain
    # timing lives in criterion 3 and perfbench
    assert not hasattr(qpl.calculus, "_derivation_from_labels")
    assert not hasattr(qpl.syntax.SymbolTable(), "labels")
    assert not hasattr(qpl.cli, "cmd_bench_chain")
    params = inspect.signature(qpl.syntax.parse_formula).parameters
    assert "allow_reserved" not in params
