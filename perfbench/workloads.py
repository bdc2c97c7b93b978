"""The four workloads: their inputs, the measured pipeline, the answer checks.

Every call into qpl goes through a module attribute (``syntax.parse_problem``,
``engine.entails``, ``cli.main``, ...) looked up at call time, so that the
tracer's wrappers see it. Known answers come from outside the engine: the
chain is entailed by construction, the queries about a machine are
answered by running the machine (``bounded_run``), and random instances by
the brute-force oracle.
Answer checks run between timed calls and are not part of any timing.

Set-up keeps only the rendered text of each input. Every instance (every
CLI call on ``queries``) starts from empty intern tables, so parsing and
deciding build their formulas as in a fresh process. The generators run in
set-up and, untimed, again after each instance for the identity check; the
algebra module is on no flow measured here.
"""

import contextlib
import functools
import io
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field

import qpl.cli as cli
from qpl import calculus, engine, semantics, syntax
from qpl.calculus import CalculusVariant
from qpl.generators import (
    HALT_STATE,
    Dec,
    Inc,
    TwoRegisterMachine,
    bounded_halting_instance,
    chain_family,
    random_instance,
)

clock = time.perf_counter

# {0: inc 1->2, 2: inc 2->3, 3: dec 1 zero->4 else->2, 4: dec 2 zero->1 else->4}
QUERY_MACHINE = TwoRegisterMachine(
    {0: Inc(1, 2), 2: Inc(2, 3), 3: Dec(1, 4, 2), 4: Dec(2, 1, 4)}
)
QUERY_BOUND = 6
QUERY_COUNT = 20

CHAIN_SYMBOLS = 50_000
RANDOM_INSTANCES = 2_000


# Timed steps of one instance, grouped by the end-to-end metric they make up.
PHASES = {
    "decide": ("parse", "entails", "qpl_check"),
    "proof": ("to_json", "from_json", "check", "qpl_verify_proof"),
    "countermodel": ("countermodel",),
    "oracle": ("oracle",),
}
STEPS = tuple(step for steps in PHASES.values() for step in steps)


@dataclass
class Tally:
    """What one pass did: seconds per step and instance, and the checks."""

    times: dict = field(default_factory=lambda: {s: [] for s in STEPS})
    verdicts: list = field(default_factory=list)
    proof_bytes: int = 0
    interned: int = 0  # most interned formulas after one instance's steps
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    scale: float = 1.0  # host speed factor, set by run.measure

    def record(self, seconds):
        for step in STEPS:
            self.times[step].append(seconds.get(step, 0.0))


@dataclass
class Instance:
    """An instance as text, and how to build its formulas again."""

    variant: CalculusVariant
    text: str  # the problem file
    query_text: str
    expected: bool | None  # None: the brute-force oracle answers
    generate: object  # () -> (hypotheses, query), the generator call again


def problem_text(hyps) -> str:
    return "".join(syntax.render(h) + "\n" for h in hyps)


def _instance(variant, generate, expected):
    hyps, query = generate()
    return Instance(
        variant, problem_text(hyps), syntax.render(query), expected, generate
    )


def forget_formulas():
    """Empty the intern tables, so the next parse builds every formula anew,
    as it does in a fresh ``qpl`` process."""
    syntax._FORMULAS.clear()
    syntax._TERMS.clear()


def refutes(model, verdict) -> bool:
    """The model satisfies every hypothesis and falsifies the query."""
    structure, override = model
    ct, memo = verdict.closure_table, {}
    return all(
        semantics.satisfies(structure, override, h, ct, memo) for h in verdict.hyps
    ) and not semantics.satisfies(structure, override, verdict.query, ct, memo)


class ApiWork:
    """Instances decided through the library: text in, checked certificate out.

    Each instance starts from empty intern tables, as one ``qpl check`` of
    fresh text does.
    """

    def __init__(self, instances):
        self.instances = instances

    def check_inputs(self):
        return []  # every instance compares the parsed formulas with the generated ones

    def remove_files(self):
        pass

    def run_pass(self, tracer) -> Tally:
        tally = Tally()
        for i, inst in enumerate(self.instances):
            tracer.request = i
            tally.attempted += 1
            seconds = {}
            forget_formulas()
            try:
                verdict, problem = self._run(inst, tally, tracer, seconds)
            except Exception as e:  # an exception is a failed operation
                verdict, problem = None, f"{type(e).__name__}: {e}"
            tally.record(seconds)
            tally.verdicts.append(verdict)
            if problem is not None:
                tally.failed += 1
                tally.errors.append(f"instance {i}: {problem}")
        return tally

    def _run(self, inst, tally, tracer, seconds):
        """Decide one instance, certify the verdict, then check the answers.

        Fills seconds with the time of each step; returns the verdict and a
        description of what went wrong, or None.
        """
        t0 = clock()
        prob = syntax.parse_problem(inst.text)
        with tracer.span("syntax.parse"):
            query = syntax.parse_formula(
                inst.query_text, prob.declared_vars, symbols=prob.symbols
            )
        t1 = clock()
        seconds["parse"] = t1 - t0
        verdict = engine.entails(prob.formulas, query, inst.variant)
        t2 = clock()
        seconds["entails"] = t2 - t1

        if verdict.entailed:
            with tracer.span("calculus.to_json"):
                text = json.dumps(calculus.derivation_to_json(verdict.proof))
            t3 = clock()
            with tracer.span("calculus.from_json"):
                proof = calculus.derivation_from_json(
                    json.loads(text), prob.declared_vars
                )
            t4 = clock()
            report = calculus.check_derivation(
                proof, inst.variant, prob.formulas, query
            )
            t5 = clock()
            seconds.update(to_json=t3 - t2, from_json=t4 - t3, check=t5 - t4)
            tally.proof_bytes += len(text)
            model = None
        else:
            model = semantics.verdict_countermodel(verdict)
            if model is not None:
                semantics.countermodel_json(*model)
            t5 = clock()
            seconds["countermodel"] = t5 - t2

        expected = inst.expected
        if expected is None:
            expected = semantics.semantic_yields_bruteforce(prob.formulas, query)
            seconds["oracle"] = clock() - t5
        tally.interned = max(tally.interned, len(syntax._FORMULAS))

        # The generator now finds the parsed formulas in the intern table,
        # so it returns the very same objects if and only if parsing the
        # rendered text rebuilt what the generator built.
        hyps, generated_query = inst.generate()
        if len(prob.formulas) != len(hyps) or not all(
            a is b for a, b in zip(prob.formulas, hyps)
        ):
            return verdict.entailed, "parsed hypotheses differ from the generated ones"
        if query is not generated_query:
            return verdict.entailed, "parsed query differs from the generated one"
        if verdict.entailed is not expected:
            return verdict.entailed, f"verdict {verdict.entailed}, expected {expected}"
        if verdict.entailed:
            if not report.ok:
                return True, "proof rejected by the checker"
        elif model is None:
            return False, "no countermodel for a refused query"
        elif not refutes(model, verdict):
            return False, "countermodel does not refute the query"
        return verdict.entailed, None

    def oracle_exponent(self) -> float:
        """Mean enumeration exponent of the oracle calls (0 without oracle)."""
        ks = []
        for inst in self.instances:
            if inst.expected is None:
                hyps, query = inst.generate()
                ct = syntax.closure([*hyps, query])
                ks.append(
                    len(semantics.ground_atoms(ct)) + len(semantics.override_domain(ct))
                )
        return sum(ks) / len(ks) if ks else 0.0


def setup_chain(seed, small, workdir):
    """Seed-independent: the chain family is fixed."""
    n = 2_000 if small else CHAIN_SYMBOLS
    return ApiWork([
        _instance(CalculusVariant.PFQPL, lambda: chain_family(n), True)
    ])


def _draw(state):
    rng = random.Random()
    rng.setstate(state)
    hyps, queries = random_instance(rng, None, 1, CalculusVariant.QPL)
    return hyps, queries[0]


def setup_random(seed, small, workdir):
    rng = random.Random(seed)
    instances = []
    for _ in range(50 if small else RANDOM_INSTANCES):
        state = rng.getstate()
        hyps, queries = random_instance(rng, None, 1, CalculusVariant.QPL)
        instances.append(Instance(
            CalculusVariant.QPL, problem_text(hyps), syntax.render(queries[0]),
            None, functools.partial(_draw, state),
        ))
    return ApiWork(instances)


def bounded_run(m, t):
    """The run's configurations (state, register 1, register 2), in order,
    while both registers stay within 0..t, and whether it halts.

    bounded_halting_instance(m, t) has successors for n0..n<t> only, so the
    run is stuck at an increment past t, and the encoding entails exactly
    the configurations this run visits, and halting if it halts.
    """
    state, regs = 0, [0, 0, 0]
    seen = {}
    while (state, regs[1], regs[2]) not in seen:  # else it cycles for ever
        seen[state, regs[1], regs[2]] = None
        if state == HALT_STATE:
            return list(seen), True
        op = m.instructions[state]
        if isinstance(op, Inc):
            if regs[op.reg] == t:
                break
            regs[op.reg] += 1
            state = op.target
        elif regs[op.reg] == 0:
            state = op.if_zero
        else:
            regs[op.reg] -= 1
            state = op.if_positive
    return list(seen), False


def _run_cli(argv):
    """Exit code and standard output of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except Exception as e:  # an exception is a failed operation
            print(f"cli {argv[0]}: {type(e).__name__}: {e}", file=sys.stderr)
            code = None
    return code, out.getvalue()


class CliWork:
    """One hypothesis file and one query file, run the way users run qpl.

    Each CLI call starts from empty intern tables, as a fresh ``qpl``
    process does.
    """

    def __init__(self, seed, small, workdir):
        m, t = QUERY_MACHINE, 3 if small else QUERY_BOUND
        rng = random.Random(seed)
        hyps, halting = bounded_halting_instance(m, t)
        visited, halts = bounded_run(m, t)
        states = sorted({HALT_STATE, *m.instructions})
        unvisited = []
        while len(unvisited) < QUERY_COUNT - 1 - len(visited):
            c = (rng.choice(states), rng.randint(0, t), rng.randint(0, t))
            if c not in visited and c not in unvisited:
                unvisited.append(c)
        configs = [(c, True) for c in visited] + [(c, False) for c in unvisited]
        rng.shuffle(configs)
        n = lambda k: syntax.const(f"n{k}")  # noqa: E731
        self.queries = [(halting, halts)] + [
            (syntax.atom(f"K{i}", n(a), n(b)), want) for (i, a, b), want in configs
        ]
        self.hyps = hyps
        base = os.path.join(workdir, f"queries-{os.getpid()}")
        self.hyps_path = base + ".hyps"
        self.queries_path = base + ".queries"
        self.proof_path = base + ".proof.json"
        with open(self.hyps_path, "w", encoding="utf-8") as fh:
            fh.write(f"# bounded halting of a 4-state machine, t = {t}\n")
            fh.write(problem_text(hyps))
        with open(self.queries_path, "w", encoding="utf-8") as fh:
            fh.write("".join(syntax.render(q) + "\n" for q, _ in self.queries))

    def check_inputs(self):
        """The files parse back to the very formulas they were rendered from."""
        with open(self.hyps_path, encoding="utf-8") as fh:
            prob = syntax.parse_problem(fh.read())
        problems = []
        if len(prob.formulas) != len(self.hyps) or not all(
            a is b for a, b in zip(prob.formulas, self.hyps)
        ):
            problems.append("hypothesis file does not parse back to its formulas")
        for q, _ in self.queries:
            text = syntax.render(q)
            if syntax.parse_formula(text, prob.declared_vars) is not q:
                problems.append(f"query {text!r} does not parse back to itself")
        return problems

    def remove_files(self):
        for path in (self.hyps_path, self.queries_path, self.proof_path):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    def run_pass(self, tracer) -> Tally:
        tally = Tally()
        tracer.request = 0
        forget_formulas()
        t0 = clock()
        code, out = _run_cli([
            "check", self.hyps_path, "--query-file", self.queries_path,
            "--json", "--proof", self.proof_path,
        ])
        t1 = clock()
        tally.interned = len(syntax._FORMULAS)
        tracer.request = 1
        forget_formulas()
        t2 = clock()
        vcode, checked = _run_cli(["verify-proof", self.proof_path])
        tally.record({"qpl_check": t1 - t0, "qpl_verify_proof": clock() - t2})

        n_entailed = sum(want for _, want in self.queries)
        results = []
        if code == 0:
            tally.proof_bytes = os.path.getsize(self.proof_path)
            with contextlib.suppress(ValueError, KeyError, TypeError):
                results = json.loads(out)["results"]
        proofs_ok = vcode == 0 and (
            checked == f"ok: {n_entailed} proof(s) verified\n"
        )
        for i, (q, want) in enumerate(self.queries):
            tally.attempted += 1
            got = results[i] if i < len(results) else None
            verdict = got["entailed"] if got else None
            tally.verdicts.append(verdict)
            if got is None or got["query"] != syntax.render(q):
                problem = f"check exited {code} or misreported the query"
            elif verdict is not want:
                problem = f"verdict {verdict}, expected {want}"
            elif want and not proofs_ok:
                problem = f"verify-proof exited {vcode}"
            else:
                continue
            tally.failed += 1
            tally.errors.append(f"query {i}: {problem}")
        return tally

    def oracle_exponent(self) -> float:
        return 0.0


WORKLOADS = {
    "chain": setup_chain,
    "queries": CliWork,
    "random": setup_random,
}
