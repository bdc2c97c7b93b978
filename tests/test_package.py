"""The package's public surface: qpl.__all__, and the module attributes
the benchmark's tracer wraps."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import qpl
import qpl.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
    # the proof document's format lives behind calculus's writer and
    # reader, so the table no longer rides on a SymbolTable, no derivation
    # is read against another's table, and the node columns are checked
    # in one sequence
    assert not hasattr(qpl.calculus, "formulas_from_json")
    assert not hasattr(qpl.syntax.SymbolTable(), "rows")
    assert not hasattr(qpl.calculus, "_column_fault")
    assert not hasattr(qpl.cli, "_proof_doc")
    assert "FormulaTable" not in qpl.__all__
    for fn, name in ((qpl.calculus.derivation_from_json, "symbols"),
                     (qpl.calculus.load_derivation, "symbols"),
                     (qpl.calculus.derivation_to_json, "table")):
        assert name not in inspect.signature(fn).parameters, fn.__name__


def test_every_tracing_site_resolves():
    """perfbench/tracing.py wraps a function at each (module, attribute) of
    its SITES; one that a rename left behind would fail only traced runs."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SITES
    for mod_name, attr, span, _ in tracing.SITES:
        fn = getattr(importlib.import_module(mod_name), attr, None)
        assert callable(fn), f"tracing site {mod_name}.{attr} ({span}) does not resolve"
