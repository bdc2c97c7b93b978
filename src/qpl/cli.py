"""Command-line surface.

Subcommands bind the library modules to problem files: check and prove
decide entailment and emit derivations or countermodels (check decides
all its queries in one engine Session), closure and oracle expose the
universe construction and the semantic brute-force check,
verify-proof replays a proof document's one node table, algebra compares
information terms, and gen produces reproducible instance suites.
Every JSON document printed (--json) or written (--proof, --countermodel)
is compact, one line with sorted keys, so it is byte-deterministic. The
proof document's format lives in calculus, which writes and reads it.
check holds each session fact once: --json gives the session's stats
beside one {query, entailed} result per query, and the countermodel
file gives the session's one model (null when no refusal has one) beside
one {query, refuted} entry per refused query, refuted false where the
full calculus derives the query.

Exit codes: 0 for a successful decision regardless of verdict, 2 for
input errors, 3 for resource limits, among them running out of memory and
input nested too deeply for render, truth_mask or the JSON decoder. prove
returns 1 when no derivation exists; verify-proof returns 1 for a
well-formed but invalid proof.
"""

import argparse
import functools
import json
import random
import sys
from itertools import accumulate, islice

from .algebra import parse_term, render_term, term_geq
from .calculus import (
    CalculusVariant,
    check_derivation,
    # imported for the benchmark's tracer only: perfbench/tracing.py wraps
    # both names in this module, though the CLI calls neither
    derivation_from_json,  # noqa: F401
    derivation_to_json,  # noqa: F401
    proof_document_from_json,
    proof_document_to_json,
)
from .engine import Session, entails
from .generators import (
    bounded_halting_instance,
    classical_horn_bottom,
    machine_to_text,
    parse_machine,
    random_horn,
    random_instance,
    simulate,
)
from .semantics import (
    DEFAULT_ORACLE_CAP,
    countermodel_json,
    semantic_yields_bruteforce,
    verdict_countermodel,
)
from .syntax import (
    DEFAULT_CLOSURE_CAP,
    VAR,
    ResourceLimit,
    bot,
    closure,
    gc_paused,
    parameters_star,
    parse_formula,
    parse_problem,
    render,
)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _json(doc) -> str:
    """doc as one line of compact JSON with sorted keys, newline-terminated:
    the form of every JSON document the CLI prints or writes."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json(doc))


def _resolve_seed(args):
    """Seeds are mandatory in json mode so output is reproducible."""
    if args.seed is not None:
        return args.seed
    if args.json:
        raise ValueError("--seed is required with --json")
    return random.SystemRandom().randrange(2**32)


def _proof_document(session, pairs) -> dict:
    """The proof document of session's (query, proof) pairs. It declares
    every variable parameter of the closure, which instantiates over the
    free variables of the hyps and of every query, refused ones too."""
    names = [t.name for t in session.closure_table.params if t.kind == VAR]
    return proof_document_to_json(session.variant, session.hyps, names, pairs)


# ---------------------------------------------------------------- check

def cmd_check(args) -> int:
    variant = CalculusVariant.from_name(args.variant)
    prob = parse_problem(_read_text(args.hyps))
    queries = [
        parse_formula(q, prob.declared_vars, symbols=prob.symbols)
        for q in args.queries
    ]
    if args.query_file:
        text = _read_text(args.query_file)
        queries.extend(
            parse_problem(text, prob.declared_vars, prob.symbols).formulas
        )
    if not queries:
        raise ValueError("no queries given")
    session = Session(prob.formulas, queries, variant, closure_cap=args.closure_cap)
    verdicts = session.verdicts(with_proof=args.proof is not None)
    if args.json:
        sys.stdout.write(_json({
            "variant": session.variant.cli_name,
            "hyps": [render(h) for h in session.hyps],
            "stats": session.stats,
            "results": [
                {"query": render(v.query), "entailed": v.entailed}
                for v in verdicts
            ],
        }))
    else:
        for v in verdicts:
            tag = "entailed" if v.entailed else "not entailed"
            print(f"{tag}: {render(v.query)}")
    if args.proof is not None:
        _write_json(args.proof, _proof_document(
            session, [(v.query, v.proof) for v in verdicts if v.entailed]
        ))
    if args.countermodel is not None:
        # every refused query of a session that has a model shares one
        refused = [(v, verdict_countermodel(v)) for v in verdicts if not v.entailed]
        model = next((mo for _, mo in refused if mo is not None), None)
        _write_json(args.countermodel, {
            "model": None if model is None else countermodel_json(*model),
            "refusals": [
                {"query": render(v.query), "refuted": mo is not None}
                for v, mo in refused
            ],
        })
    return 0


# ---------------------------------------------------------------- prove

# The printers read the derivation's columns: building its nodes for them
# took about 0.3 s more at 533k nodes, and for the tree 30 MB more memory.
# A node is tagged with its rule, or as an axiom (a rule with no premises)
# or a hypothesis (no rule).

def _tag(rule, k) -> str:
    return rule if k else "axiom" if rule else "hypothesis"


def _print_flat(d) -> None:
    flat = iter(d.parents)
    for i, (label, rule, k) in enumerate(zip(d.labels, d.rules, d.premises)):
        src = f" <- {', '.join(map(str, islice(flat, k)))}" if k else ""
        print(f"  [{i}] {render(label)}  ({_tag(rule, k)}{src})")


def _print_tree(d) -> None:
    starts = list(accumulate(d.premises, initial=0))
    seen: set[int] = set()
    stack = [(d.root, 0)]
    while stack:
        i, depth = stack.pop()
        parents = d.parents[starts[i]:starts[i + 1]]
        tag = _tag(d.rules[i], len(parents))
        pad = "  " * depth
        if i in seen and parents:
            print(f"{pad}[{i}] {render(d.labels[i])}  ({tag}, shown above)")
            continue
        seen.add(i)
        print(f"{pad}[{i}] {render(d.labels[i])}  ({tag})")
        for pid in reversed(parents):
            stack.append((pid, depth + 1))


def cmd_prove(args) -> int:
    variant = CalculusVariant.from_name(args.variant)
    prob = parse_problem(_read_text(args.hyps))
    q = parse_formula(args.query, prob.declared_vars, symbols=prob.symbols)
    v = entails(prob.formulas, q, variant, closure_cap=args.closure_cap)
    if not v.entailed:
        print(f"not entailed: {render(q)}", file=sys.stderr)
        return 1
    if args.proof is not None or args.json:
        doc = _proof_document(v.session, [(v.query, v.proof)])
        if args.proof is not None:
            _write_json(args.proof, doc)
        if args.json:
            sys.stdout.write(_json(doc))
            return 0
    print(f"entailed: {render(q)}")
    if args.expand_tree:
        _print_tree(v.proof)
    else:
        _print_flat(v.proof)
    return 0


# --------------------------------------------------------- verify-proof

def cmd_verify_proof(args) -> int:
    doc = json.loads(_read_text(args.proof_file))
    variant, hyps, d, proofs = proof_document_from_json(doc)
    rep = check_derivation(d, variant, hyps)
    n = len(d.labels)
    # a structural error, a root that is no node among them, fails every proof
    structural = [
        f"root {root} is not a node"
        for root in sorted({root for _, root in proofs})
        if not 0 <= root < n
    ] + rep.structural_errors
    if structural:
        faults = [structural] * len(proofs)
    else:
        faults = _node_faults(d, rep.failures, proofs)
        for (query, root), own in zip(proofs, faults):
            if d.labels[root] is not query:
                own.append("conclusion differs from query")
    failures = 0
    for i, own in enumerate(faults):
        failures += bool(own)
        for msg in own:
            print(f"proof {i}: {msg}", file=sys.stderr)
    if failures:
        print(f"{failures} of {len(proofs)} proofs failed", file=sys.stderr)
        return 1
    print(f"ok: {len(proofs)} proof(s) verified")
    return 0


def _node_faults(d, failures, proofs) -> list[list[str]]:
    """The failing nodes' messages per proof: under every proof whose root
    reaches the node, or every proof if none does. Walked only on failure."""
    reached = [set() for _ in proofs]
    if failures:
        starts = list(accumulate(d.premises, initial=0))
        for (_, root), seen in zip(proofs, reached):
            stack = [root]
            while stack:
                i = stack.pop()
                if i not in seen:
                    seen.add(i)
                    stack += d.parents[starts[i]:starts[i + 1]]
    anywhere = set().union(*reached)
    return [[f"node {nr.node_id}: {nr.reason}" for nr in failures
             if nr.node_id in seen or nr.node_id not in anywhere]
            for seen in reached]


# -------------------------------------------------------------- closure

def cmd_closure(args) -> int:
    prob = parse_problem(_read_text(args.file))
    if not prob.formulas:
        raise ValueError("no formulas in input")
    ct = closure(prob.formulas, cap=args.closure_cap)
    d = ct.stats.depth
    bound = ct.stats.input_length * (len(ct.params) ** d)
    stats = {
        "inputs": len(prob.formulas),
        "input_length": ct.stats.input_length,
        "closure_length": ct.stats.closure_length,
        "universe_size": len(ct.universe),
        "params": [t.name for t in ct.params],
        "max_quantifier_depth": d,
        "cardinality_bound": bound,
        "within_bound": len(ct.universe) <= bound,
    }
    if args.json:
        universe = [render(f) for f in ct.universe]
        sys.stdout.write(_json({"universe": universe, "stats": stats}))
    else:
        for f in ct.universe:
            print(render(f))
        print()
        for k, v in stats.items():
            print(f"{k}: {v}")
    return 0


# --------------------------------------------------------------- oracle

def cmd_oracle(args) -> int:
    prob = parse_problem(_read_text(args.hyps))
    q = parse_formula(args.query, prob.declared_vars, symbols=prob.symbols)
    yields = semantic_yields_bruteforce(
        prob.formulas, q, exponent_cap=args.oracle_cap
    )
    if args.json:
        sys.stdout.write(_json({
            "query": render(q),
            "yields": yields,
            "exponent_cap": args.oracle_cap,
        }))
    else:
        print(f"yields: {'true' if yields else 'false'}")
    return 0


# -------------------------------------------------------------- algebra

def cmd_algebra(args) -> int:
    s = parse_term(args.s)
    t = parse_term(args.t)
    s_geq_t, t_geq_s = term_geq(s, t), term_geq(t, s)
    doc = {
        "s": render_term(s),
        "t": render_term(t),
        "s_geq_t": s_geq_t,
        "t_geq_s": t_geq_s,
        "equal": s_geq_t and t_geq_s,
    }
    if args.json:
        sys.stdout.write(_json(doc))
    else:
        print(f"s: {doc['s']}")
        print(f"t: {doc['t']}")
        print(f"s >= t: {str(doc['s_geq_t']).lower()}")
        print(f"t >= s: {str(doc['t_geq_s']).lower()}")
        print(f"equal: {str(doc['equal']).lower()}")
    return 0


# ------------------------------------------------------------------ gen

def cmd_gen_horn(args) -> int:
    seed = _resolve_seed(args)
    clauses = random_horn(random.Random(seed), args.clauses)
    forms = [c.to_formula() for c in clauses]
    verdict = classical_horn_bottom(clauses, parameters_star([*forms, bot()]))
    if args.json:
        sys.stdout.write(_json({
            "seed": seed,
            "vars": ["y"],
            "clauses": [render(f) for f in forms],
            "query": "false",
            "classical_bottom": verdict,
        }))
    else:
        print(f"# seed: {seed}")
        print("# query: false")
        print("@vars y")
        for f in forms:
            print(render(f))
    return 0


def cmd_gen_machine(args) -> int:
    m = parse_machine(_read_text(args.machine))
    hyps, query = bounded_halting_instance(m, args.bound)
    res = simulate(m, args.bound)
    if args.json:
        sys.stdout.write(_json({
            "machine": machine_to_text(m),
            "bound": args.bound,
            "hyps": [render(h) for h in hyps],
            "query": render(query),
            "halts": res.halts,
            "steps": res.steps,
        }))
    else:
        print(f"# bound: {args.bound}")
        print(f"# query: {render(query)}")
        for h in hyps:
            print(render(h))
    return 0


def cmd_gen_random(args) -> int:
    seed = _resolve_seed(args)
    variant = CalculusVariant.from_name(args.variant)
    hyps, queries = random_instance(
        random.Random(seed), args.hyps, args.queries, variant
    )
    if args.json:
        sys.stdout.write(_json({
            "seed": seed,
            "variant": variant.cli_name,
            "hyps": [render(h) for h in hyps],
            "queries": [render(q) for q in queries],
        }))
    else:
        print(f"# seed: {seed}")
        for q in queries:
            print(f"# query: {render(q)}")
        for h in hyps:
            print(render(h))
    return 0


# --------------------------------------------------------------- parser

_VARIANT_HELP = "|".join(v.cli_name for v in CalculusVariant)


def _add_common(p):
    p.add_argument("--variant", default="qpl", help=_VARIANT_HELP)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--closure-cap", type=int, default=DEFAULT_CLOSURE_CAP)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process. Building one leaves reference cycles
    (argparse's help formatters and argument groups point back at their
    parser), so main reuses it rather than leave garbage on every call."""
    top = argparse.ArgumentParser(
        prog="qpl",
        description="Entailment decisions, proofs, and countermodels"
        " for primal logic calculi.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide one or more queries")
    p.add_argument("hyps", help="problem file of hypotheses")
    p.add_argument("queries", nargs="*", help="query formulas")
    p.add_argument("--query-file", help="file of additional queries")
    p.add_argument("--proof", metavar="PATH", help="write proofs of entailed queries")
    p.add_argument(
        "--countermodel", metavar="PATH", help="write countermodels of refused queries"
    )
    _add_common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("prove", help="decide one query and print its derivation")
    p.add_argument("hyps")
    p.add_argument("query")
    p.add_argument("--proof", metavar="PATH", help="also write the proof document")
    p.add_argument(
        "--expand-tree", action="store_true", help="print the proof as an indented tree"
    )
    _add_common(p)
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("verify-proof", help="replay a serialized proof document")
    p.add_argument("proof_file")
    p.set_defaults(fn=cmd_verify_proof)

    p = sub.add_parser("closure", help="dump the instantiation universe and stats")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--closure-cap", type=int, default=DEFAULT_CLOSURE_CAP)
    p.set_defaults(fn=cmd_closure)

    p = sub.add_parser("oracle", help="brute-force semantic yield check")
    p.add_argument("hyps")
    p.add_argument("query")
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("algebra", help="compare two information terms")
    p.add_argument("s")
    p.add_argument("t")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_algebra)

    gen = sub.add_parser("gen", help="generate reproducible instances")
    gsub = gen.add_subparsers(dest="kind", required=True)

    g = gsub.add_parser("horn", help="random universal Horn set with oracle verdict")
    g.add_argument("--seed", type=int)
    g.add_argument("--clauses", type=int, default=5)
    g.add_argument("--json", action="store_true")
    g.set_defaults(fn=cmd_gen_horn)

    g = gsub.add_parser("machine", help="bounded halting instance from a machine file")
    g.add_argument("machine")
    g.add_argument("--bound", type=int, required=True)
    g.add_argument("--json", action="store_true")
    g.set_defaults(fn=cmd_gen_machine)

    g = gsub.add_parser("random", help="random entailment instance within oracle caps")
    g.add_argument("--seed", type=int)
    g.add_argument("--hyps", type=int, default=None)
    g.add_argument("--queries", type=int, default=1)
    g.add_argument("--variant", default="qpl", help=_VARIANT_HELP)
    g.add_argument("--json", action="store_true")
    g.set_defaults(fn=cmd_gen_random)

    return top


@gc_paused
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ResourceLimit as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 3
    except RecursionError:
        # render, semantics.truth_mask and the json decoder recurse
        print("resource limit: input nested too deeply", file=sys.stderr)
        return 3
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        pass
    # Reported only here: leaving the handler drops the traceback, whose
    # frames hold what filled the memory, so printing can allocate again.
    print("resource limit: out of memory", file=sys.stderr)
    return 3


def run() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
