"""Command-line surface.

Subcommands bind the library modules to problem files: check and prove
decide entailment and emit derivations or countermodels (check decides
all its queries in one engine Session), closure and oracle expose the
universe construction and the semantic brute-force check,
verify-proof replays serialized derivations, algebra compares
information terms, gen produces reproducible instance suites, and bench
runs the scaling family.

Exit codes: 0 for a successful decision regardless of verdict, 2 for
input errors, 3 for resource limits. prove returns 1 when no derivation
exists; verify-proof returns 1 for a well-formed but invalid proof.
"""

import argparse
import json
import random
import sys
import time

from .algebra import parse_term, render_term, term_equal, term_geq
from .calculus import (
    CalculusVariant,
    check_derivation,
    derivation_from_json,
    derivation_to_json,
)
from .engine import Session, entails
from .generators import (
    bounded_halting_instance,
    chain_family,
    classical_horn_bottom,
    machine_to_text,
    parse_machine,
    random_horn,
    random_instance,
    simulate,
)
from .semantics import (
    countermodel_json,
    semantic_yields_bruteforce,
    verdict_countermodel,
)
from .syntax import (
    DEFAULT_CLOSURE_CAP,
    ResourceLimit,
    SymbolTable,
    bot,
    closure,
    parameters_star,
    parse_formula,
    parse_problem,
    render,
)

DEFAULT_ORACLE_CAP = 24


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _print_json(doc) -> None:
    print(_dump(doc))


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dump(doc) + "\n")


def _variant(args) -> CalculusVariant:
    return CalculusVariant.from_name(args.variant)


def _resolve_seed(args):
    """Seeds are mandatory in json mode so output is reproducible."""
    if args.seed is not None:
        return args.seed
    if args.json:
        print("error: --seed is required with --json", file=sys.stderr)
        return None
    return random.SystemRandom().randrange(2**32)


def _proof_doc(variant: CalculusVariant, hyps, verdicts) -> dict:
    names: set[str] = set()
    for f in hyps:
        names |= f.free
    for v in verdicts:
        names |= v.query.free
    return {
        "variant": variant.cli_name,
        "vars": sorted(names),
        "hyps": [render(h) for h in hyps],
        "proofs": [
            {"query": render(v.query), "derivation": derivation_to_json(v.proof)}
            for v in verdicts
        ],
    }


# ---------------------------------------------------------------- check

def cmd_check(args) -> int:
    variant = _variant(args)
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
        print("error: no queries given", file=sys.stderr)
        raise SystemExit(2)
    hyps = prob.formulas
    session = Session(hyps, queries, variant, closure_cap=args.closure_cap)
    verdicts = session.verdicts(with_proof=args.proof is not None)
    if args.json:
        _print_json(
            {
                "variant": variant.cli_name,
                "hyps": [render(h) for h in hyps],
                "results": [
                    {
                        "query": render(v.query),
                        "entailed": v.entailed,
                        "stats": dict(v.stats),
                    }
                    for v in verdicts
                ],
            }
        )
    else:
        for v in verdicts:
            tag = "entailed" if v.entailed else "not entailed"
            print(f"{tag}: {render(v.query)}")
    if args.proof is not None:
        _write_json(
            args.proof,
            _proof_doc(variant, hyps, [v for v in verdicts if v.entailed]),
        )
    if args.countermodel is not None:
        entries = []
        for v in verdicts:
            if v.entailed:
                continue
            mo = verdict_countermodel(v)
            if mo is None:
                entries.append(
                    {
                        "query": render(v.query),
                        "model": None,
                        "note": "no countermodel: the full calculus"
                        " derives this query",
                    }
                )
            else:
                entries.append(
                    {
                        "query": render(v.query),
                        "model": countermodel_json(*mo),
                        "note": None,
                    }
                )
        _write_json(args.countermodel, {"countermodels": entries})
    return 0


# ---------------------------------------------------------------- prove

def _print_flat(d) -> None:
    for n in d.nodes:
        tag = n.rule if n.kind == "rule" else n.kind
        src = f" <- {', '.join(map(str, n.parents))}" if n.parents else ""
        print(f"  [{n.id}] {render(n.label)}  ({tag}{src})")


def _print_tree(d) -> None:
    nodes = {n.id: n for n in d.nodes}
    seen: set[int] = set()
    stack = [(d.root, 0)]
    while stack:
        nid, depth = stack.pop()
        n = nodes[nid]
        tag = n.rule if n.kind == "rule" else n.kind
        pad = "  " * depth
        if nid in seen and n.parents:
            print(f"{pad}[{nid}] {render(n.label)}  ({tag}, shown above)")
            continue
        seen.add(nid)
        print(f"{pad}[{nid}] {render(n.label)}  ({tag})")
        for pid in reversed(n.parents):
            stack.append((pid, depth + 1))


def cmd_prove(args) -> int:
    variant = _variant(args)
    prob = parse_problem(_read_text(args.hyps))
    q = parse_formula(args.query, prob.declared_vars, symbols=prob.symbols)
    v = entails(prob.formulas, q, variant, closure_cap=args.closure_cap)
    if not v.entailed:
        print(f"not entailed: {render(q)}", file=sys.stderr)
        return 1
    doc = _proof_doc(variant, prob.formulas, [v])
    if args.proof is not None:
        _write_json(args.proof, doc)
    if args.json:
        _print_json(doc)
    else:
        print(f"entailed: {render(q)}")
        if args.expand_tree:
            _print_tree(v.proof)
        else:
            _print_flat(v.proof)
    return 0


# --------------------------------------------------------- verify-proof

def cmd_verify_proof(args) -> int:
    obj = json.loads(_read_text(args.proof_file))
    if not isinstance(obj, dict):
        raise ValueError("proof document must be a JSON object")
    for key, want in (("hyps", list), ("proofs", list)):
        if not isinstance(obj.get(key), want):
            raise ValueError(f"proof document needs a {key!r} array")
    declared = obj.get("vars", [])
    if not isinstance(declared, list):
        raise ValueError("'vars' must be an array")
    for key, items in (("vars", declared), ("hyps", obj["hyps"])):
        if not all(isinstance(s, str) for s in items):
            raise ValueError(f"{key!r} entries must be strings")
    name = obj.get("variant", "qpl")
    if not isinstance(name, str):
        raise ValueError("'variant' must be a string")
    variant = CalculusVariant.from_name(name)
    symbols = SymbolTable()
    hyps = [parse_formula(s, declared, symbols=symbols) for s in obj["hyps"]]
    failures = 0
    for i, entry in enumerate(obj["proofs"]):
        if not isinstance(entry, dict) or "derivation" not in entry:
            raise ValueError(f"proof {i}: missing 'derivation'")
        q = entry.get("query")
        if q is not None:
            if not isinstance(q, str):
                raise ValueError(f"proof {i}: 'query' must be a string or null")
            q = parse_formula(q, declared, symbols=symbols)
        d = derivation_from_json(entry["derivation"], declared, symbols)
        rep = check_derivation(d, variant, hyps, q)
        if rep.ok:
            continue
        failures += 1
        for msg in rep.structural_errors:
            print(f"proof {i}: {msg}", file=sys.stderr)
        for nr in rep.failures():
            print(f"proof {i}: node {nr.node_id}: {nr.reason}", file=sys.stderr)
        if not rep.conclusion_ok:
            print(f"proof {i}: conclusion differs from query", file=sys.stderr)
    if failures:
        print(f"{failures} of {len(obj['proofs'])} proofs failed", file=sys.stderr)
        return 1
    print(f"ok: {len(obj['proofs'])} proof(s) verified")
    return 0


# -------------------------------------------------------------- closure

def cmd_closure(args) -> int:
    prob = parse_problem(_read_text(args.file))
    if not prob.formulas:
        raise ValueError("no formulas in input")
    ct = closure(prob.formulas, cap=args.closure_cap)
    d = max(f.qdepth for f in prob.formulas)
    bound = ct.stats.input_length * (len(ct.params.elements) ** d)
    stats = {
        "inputs": len(prob.formulas),
        "input_length": ct.stats.input_length,
        "closure_length": ct.stats.closure_length,
        "universe_size": len(ct.universe),
        "params": [t.name for t in ct.params.elements],
        "max_quantifier_depth": d,
        "cardinality_bound": bound,
        "within_bound": len(ct.universe) <= bound,
    }
    if args.json:
        _print_json({"universe": [render(f) for f in ct.universe], "stats": stats})
    else:
        for f in ct.universe:
            print(render(f))
        print()
        for k, v in stats.items():
            print(f"{k}: {v}")
    return 0


# --------------------------------------------------------------- oracle

def cmd_oracle(args) -> int:
    if args.oracle_cap <= 0:
        raise ValueError("oracle cap must be positive")
    prob = parse_problem(_read_text(args.hyps))
    q = parse_formula(args.query, prob.declared_vars, symbols=prob.symbols)
    yields = semantic_yields_bruteforce(
        prob.formulas, q, exponent_cap=args.oracle_cap
    )
    if args.json:
        _print_json(
            {
                "query": render(q),
                "yields": yields,
                "exponent_cap": args.oracle_cap,
            }
        )
    else:
        print(f"yields: {'true' if yields else 'false'}")
    return 0


# -------------------------------------------------------------- algebra

def cmd_algebra(args) -> int:
    s = parse_term(args.s)
    t = parse_term(args.t)
    doc = {
        "s": render_term(s),
        "t": render_term(t),
        "s_geq_t": term_geq(s, t),
        "t_geq_s": term_geq(t, s),
        "equal": term_equal(s, t),
    }
    if args.json:
        _print_json(doc)
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
    if seed is None:
        return 2
    clauses = random_horn(random.Random(seed), args.clauses)
    forms = [c.to_formula() for c in clauses]
    verdict = classical_horn_bottom(clauses, parameters_star([*forms, bot()]))
    if args.json:
        _print_json(
            {
                "seed": seed,
                "vars": ["y"],
                "clauses": [render(f) for f in forms],
                "query": "false",
                "classical_bottom": verdict,
            }
        )
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
        _print_json(
            {
                "machine": machine_to_text(m),
                "bound": args.bound,
                "hyps": [render(h) for h in hyps],
                "query": render(query),
                "halts": res.halts,
                "steps": res.steps,
            }
        )
    else:
        print(f"# bound: {args.bound}")
        print(f"# query: {render(query)}")
        for h in hyps:
            print(render(h))
    return 0


def cmd_gen_random(args) -> int:
    seed = _resolve_seed(args)
    if seed is None:
        return 2
    variant = _variant(args)
    hyps, queries = random_instance(
        random.Random(seed), args.hyps, args.queries, variant
    )
    if args.json:
        _print_json(
            {
                "seed": seed,
                "variant": variant.cli_name,
                "hyps": [render(h) for h in hyps],
                "queries": [render(q) for q in queries],
            }
        )
    else:
        print(f"# seed: {seed}")
        for q in queries:
            print(f"# query: {render(q)}")
        for h in hyps:
            print(render(h))
    return 0


# ---------------------------------------------------------------- bench

def cmd_bench_chain(args) -> int:
    variant = _variant(args)
    hyps, query = chain_family(args.n)
    symbols = sum(f.length for f in hyps) + query.length
    t0 = time.perf_counter()
    v = entails(hyps, query, variant, with_proof=False)
    dt = time.perf_counter() - t0
    doc = {
        "variant": variant.cli_name,
        "n": args.n,
        "symbols": symbols,
        "links": len(hyps) - 1,
        "entailed": v.entailed,
        "seconds": round(dt, 6),
    }
    if args.json:
        _print_json(doc)
    else:
        for k, val in doc.items():
            print(f"{k}: {val}")
    return 0


# --------------------------------------------------------------- parser

def _add_common(p, *, variant="qpl", closure_cap=True):
    p.add_argument("--variant", default=variant, help="orig|l1|l2|pfqpl|qpl")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    if closure_cap:
        p.add_argument("--closure-cap", type=int, default=DEFAULT_CLOSURE_CAP)


def build_parser() -> argparse.ArgumentParser:
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
    g.add_argument("--variant", default="qpl")
    g.add_argument("--json", action="store_true")
    g.set_defaults(fn=cmd_gen_random)

    bench = sub.add_parser("bench", help="scaling measurements")
    bsub = bench.add_subparsers(dest="kind", required=True)
    b = bsub.add_parser("chain", help="implication chain family")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--variant", default="pfqpl")
    b.add_argument("--json", action="store_true")
    b.set_defaults(fn=cmd_bench_chain)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ResourceLimit as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
