"""Entailment engine for quantified primal logic and its fragments.

The module split: syntax holds terms, formulas, parsing and the
instantiation closure; calculus names the rule systems and checks
serialized derivations; engine decides entailment by closure-local
saturation in one problem session per hypothesis and query set, and
extracts proofs; semantics evaluates override models, builds
countermodels, and carries the brute-force oracle; algebra reads
information terms as `orig` formulas; generators produce machine, Horn,
random, and chain instances; cli binds everything to problem files.
"""

from .calculus import (
    CalculusVariant,
    Derivation,
    DerivationNode,
    Report,
    check_derivation,
    derivation_from_json,
    derivation_to_json,
    proof_document_from_json,
    proof_document_to_json,
)
from .engine import (
    Session,
    Verdict,
    entails,
    extract_proof,
    saturate,
)
from .semantics import (
    CountermodelError,
    OverrideFn,
    StandardModel,
    TooLarge,
    countermodel,
    countermodel_json,
    satisfies,
    semantic_yields_bruteforce,
    verdict_countermodel,
)
from .syntax import (
    Formula,
    ParseError,
    ResourceLimit,
    Term,
    atom,
    bot,
    closure,
    conj,
    const,
    disj,
    exists,
    forall,
    imp,
    parse_formula,
    parse_problem,
    render,
    top,
    var,
)

__version__ = "0.1.0"

__all__ = [
    "CalculusVariant",
    "CountermodelError",
    "Derivation",
    "DerivationNode",
    "Formula",
    "OverrideFn",
    "ParseError",
    "Report",
    "ResourceLimit",
    "Session",
    "StandardModel",
    "Term",
    "TooLarge",
    "Verdict",
    "atom",
    "bot",
    "check_derivation",
    "closure",
    "conj",
    "const",
    "countermodel",
    "countermodel_json",
    "derivation_from_json",
    "derivation_to_json",
    "disj",
    "entails",
    "exists",
    "extract_proof",
    "forall",
    "imp",
    "parse_formula",
    "parse_problem",
    "proof_document_from_json",
    "proof_document_to_json",
    "render",
    "satisfies",
    "saturate",
    "semantic_yields_bruteforce",
    "top",
    "var",
    "verdict_countermodel",
]
