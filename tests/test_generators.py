"""Instance generators: register machines and their logic encoding, the
classical Horn oracle, and the random suites used by the acceptance
harness."""

import hashlib
import random
import tracemalloc

import pytest

from qpl.algebra import random_term, render_term
from qpl.calculus import CalculusVariant as V, check_derivation
from qpl.engine import entails
from qpl.generators import (
    Dec,
    HornClause,
    Inc,
    TwoRegisterMachine,
    bounded_halting_instance,
    chain_family,
    classical_horn_bottom,
    counter_family,
    encode_phi,
    machine_to_text,
    parse_machine,
    random_horn,
    random_instance,
    simulate,
)
from qpl.semantics import ground_atoms, override_domain
from qpl.syntax import (
    Exists,
    Forall,
    atom,
    bot,
    closure,
    conj,
    const,
    exists,
    forall,
    imp,
    parameters_star,
    render,
    var,
)

INCREMENTER = TwoRegisterMachine({0: Inc(1, 1)})
SELF_LOOP = TwoRegisterMachine({0: Inc(1, 0)})
ZERO_TEST = TwoRegisterMachine({0: Dec(1, 1, 0)})
COUNTER5 = TwoRegisterMachine(
    {0: Inc(1, 2), 2: Inc(1, 3), 3: Inc(2, 4), 4: Dec(1, 1, 5), 5: Dec(2, 0, 1)}
)
PING_PONG = TwoRegisterMachine({0: Inc(1, 2), 2: Dec(1, 0, 0)})
SHUTTLE6 = TwoRegisterMachine(
    {0: Inc(1, 2), 2: Inc(2, 3), 3: Dec(1, 4, 3), 4: Dec(2, 1, 4)}
)


def K(i, a, b):
    return atom(f"K{i}", a, b)


# -------------------------------------------------------------- machines

def test_machine_rejects_instruction_on_halting_state():
    with pytest.raises(ValueError):
        TwoRegisterMachine({0: Inc(1, 1), 1: Inc(1, 0)})


def test_machine_rejects_gap_in_states():
    with pytest.raises(ValueError):
        TwoRegisterMachine({0: Inc(1, 3), 3: Inc(1, 1)})
    with pytest.raises(ValueError) as exc:
        TwoRegisterMachine({0: Inc(1, 8)})
    assert str(exc.value) == (
        "states without instructions: [2, 3, 4, 5, 6, 7, 8]"
    )


def test_far_target_fails_in_memory_the_input_bounds():
    """The missing states are counted, not collected: a one-line file
    naming state 10**10 is rejected at once, with a short message."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            parse_machine("state 0: inc 1 -> 10000000000\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert str(exc.value) == (
        "states without instructions: [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] "
        "and 9999999989 more"
    )


def test_machine_rejects_bad_register():
    with pytest.raises(ValueError):
        TwoRegisterMachine({0: Inc(3, 1)})
    with pytest.raises(ValueError):
        TwoRegisterMachine({0: Dec(0, 1, 0)})


def test_machine_rejects_dangling_target():
    with pytest.raises(ValueError):
        TwoRegisterMachine({0: Inc(1, 7)})


def test_machine_requires_initial_state():
    with pytest.raises(ValueError):
        TwoRegisterMachine({})


def test_simulate_one_step_increment():
    res = simulate(INCREMENTER, 10)
    assert res.halts and res.steps == 1 and res.final == (1, 1, 0)


def test_simulate_self_loop_never_halts():
    res = simulate(SELF_LOOP, 5)
    assert not res.halts
    assert res.final == (0, 5, 0)


def test_simulate_zero_branch():
    res = simulate(ZERO_TEST, 10)
    assert res.halts and res.steps == 1 and res.final == (1, 0, 0)


def test_simulate_counter_trace():
    res = simulate(COUNTER5, 10)
    assert res.halts and res.steps == 5
    assert res.final == (1, 1, 0)


def test_simulate_shuttle_trace():
    res = simulate(SHUTTLE6, 20)
    assert res.halts and res.steps == 6
    assert res.final == (1, 0, 0)


def test_simulate_ping_pong_diverges():
    assert not simulate(PING_PONG, 50).halts


def test_simulate_respects_bound():
    assert not simulate(COUNTER5, 4).halts
    assert simulate(COUNTER5, 5).halts


# -------------------------------------------------------------- encoding

def test_phi_shape_incrementer():
    phi = encode_phi(INCREMENTER)
    x, xp, y, n0 = var("x"), var("x'"), var("y"), const("n0")
    c1 = forall("x", exists("x'", atom("S", x, xp)))
    c2 = K(0, n0, n0)
    delta = imp(K(0, x, y), K(1, xp, y))
    c3 = forall("x", forall("x'", forall("y", imp(atom("S", x, xp), delta))))
    assert phi is conj(conj(c1, c2), c3)
    assert phi.qdepth == 3


def test_phi_decrement_delta():
    phi = encode_phi(ZERO_TEST)
    x, xp, y, n0 = var("x"), var("x'"), var("y"), const("n0")
    delta = conj(
        imp(K(0, n0, y), K(1, n0, y)),
        imp(K(0, xp, y), K(0, x, y)),
    )
    assert phi.r is forall(
        "x", forall("x'", forall("y", imp(atom("S", x, xp), delta)))
    )


def test_phi_second_register_deltas():
    m = TwoRegisterMachine({0: Inc(2, 2), 2: Dec(2, 1, 0)})
    phi = encode_phi(m)
    x, xp, y, n0 = var("x"), var("x'"), var("y"), const("n0")
    d0 = imp(K(0, y, x), K(2, y, xp))
    d2 = conj(
        imp(K(2, y, n0), K(1, y, n0)),
        imp(K(2, y, xp), K(0, y, x)),
    )
    body = phi.r.body.body.body
    assert body.r is conj(d0, d2)


def test_phi_deltas_in_state_order():
    phi = encode_phi(COUNTER5)
    body = phi.r.body.body.body.r
    x, xp, y, n0 = var("x"), var("x'"), var("y"), const("n0")
    d0 = imp(K(0, x, y), K(2, xp, y))
    d2 = imp(K(2, x, y), K(3, xp, y))
    d3 = imp(K(3, y, x), K(4, y, xp))
    d4 = conj(imp(K(4, n0, y), K(1, n0, y)), imp(K(4, xp, y), K(5, x, y)))
    d5 = conj(imp(K(5, y, n0), K(0, y, n0)), imp(K(5, y, xp), K(1, y, x)))
    # left fold over states 0,2,3,4,5
    assert body is conj(conj(conj(conj(d0, d2), d3), d4), d5)


def test_halting_instance_layout():
    hyps, query = bounded_halting_instance(INCREMENTER, 3)
    n = [const(f"n{i}") for i in range(4)]
    assert hyps[0] is K(0, n[0], n[0])
    assert isinstance(hyps[1], Forall)
    assert hyps[2:] == [
        atom("S", n[0], n[1]),
        atom("S", n[1], n[2]),
        atom("S", n[2], n[3]),
    ]
    assert query is exists("x", exists("y", K(1, var("x"), var("y"))))
    assert isinstance(query, Exists)


def test_halting_instance_zero_bound():
    hyps, query = bounded_halting_instance(INCREMENTER, 0)
    assert len(hyps) == 2
    assert not entails(hyps, query, V.QPL).entailed


@pytest.mark.parametrize("t,want", [(0, False), (1, True), (2, True)])
def test_incrementer_halting_verdicts(t, want):
    hyps, query = bounded_halting_instance(INCREMENTER, t)
    assert entails(hyps, query, V.QPL).entailed is want


def test_self_loop_never_entailed():
    for t in range(7):
        hyps, query = bounded_halting_instance(SELF_LOOP, t)
        assert not entails(hyps, query, V.QPL).entailed


def test_zero_test_halting_threshold():
    hyps, query = bounded_halting_instance(ZERO_TEST, 1)
    assert entails(hyps, query, V.QPL).entailed


def _halting_threshold(m, step_cap=50):
    """Independent prediction of the least sufficient chain length.

    An increment to value w consumes the successor pair (w-1, w); a
    decrement at zero consumes some pair; pairs are reusable. So the run
    is derivable exactly from chains of length max(1, peak register
    value), and a chain bounded by the step count always suffices.
    """
    state, regs, peak, steps = 0, [0, 0, 0], 0, 0
    while state != 1 and steps < step_cap:
        op = m.instructions[state]
        if isinstance(op, Inc):
            regs[op.reg] += 1
            peak = max(peak, regs[op.reg])
            state = op.target
        elif regs[op.reg] == 0:
            state = op.if_zero
        else:
            regs[op.reg] -= 1
            state = op.if_positive
        steps += 1
    return state == 1, max(1, peak)


def test_counter_needs_peak_value_not_steps():
    # halts in 5 steps but registers never exceed 2
    assert simulate(COUNTER5, 10).steps == 5
    hyps, query = bounded_halting_instance(COUNTER5, 1)
    assert not entails(hyps, query, V.QPL).entailed
    hyps, query = bounded_halting_instance(COUNTER5, 2)
    v = entails(hyps, query, V.QPL)
    assert v.entailed
    rep = check_derivation(v.proof, V.QPL, hyps, query)
    assert rep.ok and rep.conclusion_ok


def test_machine_verdict_equals_simulation():
    for m in (INCREMENTER, SELF_LOOP, ZERO_TEST, COUNTER5, PING_PONG, SHUTTLE6):
        halts, threshold = _halting_threshold(m)
        for t in range(7):
            hyps, query = bounded_halting_instance(m, t)
            want = halts and t >= threshold
            assert entails(hyps, query, V.QPL).entailed is want
            res = simulate(m, t)
            if res.halts and res.steps <= t:
                assert want


# --------------------------------------------------------- machine files

MACHINE_TEXT = """\
# three instructions
state 0: inc 1 -> 2
state 2: dec 2 zero-> 1 else-> 3
state 3: inc 2 -> 0
"""


def test_parse_machine_round_trip():
    m = parse_machine(MACHINE_TEXT)
    assert m.instructions == {
        0: Inc(1, 2),
        2: Dec(2, 1, 3),
        3: Inc(2, 0),
    }
    assert parse_machine(machine_to_text(m)) == m


def test_machine_to_text_canonical():
    text = machine_to_text(parse_machine(MACHINE_TEXT))
    assert text.splitlines() == [
        "state 0: inc 1 -> 2",
        "state 2: dec 2 zero-> 1 else-> 3",
        "state 3: inc 2 -> 0",
    ]


@pytest.mark.parametrize(
    "text",
    [
        "state 0: inc 3 -> 1",
        "state 0: bump 1 -> 1",
        "state 0 inc 1 -> 1",
        "state 0: dec 1 zero-> 1",
        "nonsense",
    ],
)
def test_parse_machine_errors(text):
    with pytest.raises(ValueError):
        parse_machine(text)


def test_parse_machine_error_names_line():
    bad = "state 0: inc 1 -> 1\nwhat\n"
    with pytest.raises(ValueError) as exc:
        parse_machine(bad)
    assert "line 2" in str(exc.value)


# ------------------------------------------------------------ horn oracle

def test_horn_clause_formula_shapes():
    rx = atom("R", var("x"))
    cl = HornClause(("x",), (rx,), bot())
    assert cl.to_formula() is forall("x", imp(rx, bot()))
    flat = HornClause((), (atom("p"), atom("q")), atom("s"))
    assert flat.to_formula() is imp(atom("p"), imp(atom("q"), atom("s")))
    fact = HornClause((), (), atom("p"))
    assert fact.to_formula() is atom("p")


def test_horn_clause_validation():
    with pytest.raises(ValueError):
        HornClause((), (conj(atom("p"), atom("q")),), bot())
    with pytest.raises(ValueError):
        HornClause((), (), conj(atom("p"), atom("q")))
    with pytest.raises(ValueError):
        HornClause(("x", "x"), (atom("R", var("x")),), bot())


def _params_for(clauses):
    forms = [c.to_formula() for c in clauses]
    return parameters_star([*forms, bot()])


@pytest.mark.parametrize(
    "clauses,want",
    [
        ([HornClause((), (), atom("p")),
          HornClause((), (atom("p"),), bot())], True),
        ([HornClause(("x",), (atom("R", var("x")),), bot()),
          HornClause((), (), atom("R", const("c")))], True),
        ([HornClause((), (atom("p"),), bot())], False),
        ([HornClause((), (), atom("p")),
          HornClause((), (atom("p"), atom("q")), bot())], False),
        ([HornClause((), (), atom("R", const("c"))),
          HornClause(("x",), (atom("R", var("x")),), atom("T", var("x"))),
          HornClause(("x",), (atom("T", var("x")),), bot())], True),
        ([HornClause(("x",), (atom("R", var("x")),), bot()),
          HornClause(("x",), (), atom("R", var("x")))], True),
        ([HornClause(("u",), (atom("p"),), bot()),
          HornClause((), (), atom("p"))], True),
    ],
)
def test_classical_horn_vectors(clauses, want):
    assert classical_horn_bottom(clauses, _params_for(clauses)) is want


def test_classical_horn_matches_engine():
    rng = random.Random(2468)
    seen = {True: 0, False: 0}
    for _ in range(60):
        clauses = random_horn(rng, rng.randrange(2, 7))
        forms = [c.to_formula() for c in clauses]
        params = parameters_star([*forms, bot()])
        want = classical_horn_bottom(clauses, params)
        got = entails(forms, bot(), V.QPL).entailed
        assert got is want
        seen[want] += 1
    assert seen[True] >= 8
    assert seen[False] >= 8


def test_random_horn_deterministic():
    a = random_horn(random.Random(11), 5)
    b = random_horn(random.Random(11), 5)
    assert a == b
    assert random_horn(random.Random(12), 5) != a


def test_random_horn_pools_are_disjoint():
    rng = random.Random(13)
    for _ in range(30):
        for cl in random_horn(rng, 4):
            assert set(cl.bound_vars) <= {"u1", "u2", "u3"}
            for f in (*cl.antecedents, cl.consequent):
                for t in getattr(f, "args", ()):
                    assert t.name not in {"u1", "u2", "u3"} or t.kind == "var"
                    if t.kind == "var" and t.name not in cl.bound_vars:
                        assert t.name == "y"


# -------------------------------------------------------- random instances

def test_random_instance_respects_caps():
    rng = random.Random(14)
    for _ in range(20):
        hyps, queries = random_instance(rng)
        ct = closure([*hyps, *queries])
        assert len(override_domain(ct)) <= 12
        assert len(ground_atoms(ct)) + len(override_domain(ct)) <= 24


def test_random_instance_deterministic():
    a = random_instance(random.Random(15))
    b = random_instance(random.Random(15))
    assert a == b


def test_random_instance_propositional_below_qpl():
    rng = random.Random(16)
    for _ in range(10):
        hyps, queries = random_instance(rng, variant=V.L2)
        for f in (*hyps, *queries):
            assert f.qdepth == 0


# ------------------------------------------------------------ pinned draws

def _draws(draw):
    """draw(rng) for seeds 0-39, each followed by the generator's next 32
    bits, so that a digest also pins how many calls each draw made."""
    lines = []
    for seed in range(40):
        rng = random.Random(seed)
        lines.append(f"{seed}: {draw(rng)} | {rng.getrandbits(32)}")
    return lines


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _instance_text(rng, variant):
    hyps, queries = random_instance(rng, variant=variant)
    return f"{' ; '.join(map(render, hyps))} |- {' ; '.join(map(render, queries))}"


def test_generator_draws_are_pinned():
    """Seeded draws feed the random benchmark workload and criteria 1, 5
    and 6. These digests were taken before the generators' size options
    became module constants; a change to any draw breaks them."""
    instances = []
    for v in V:
        instances += _draws(lambda rng: _instance_text(rng, v))
    assert _digest(instances) == (
        "04bf77193f383d2b452c7c679372ca3993385d2fd57946bbd33ab522f7f0f3e4"
    )
    horn = _draws(
        lambda rng: " ; ".join(render(c.to_formula()) for c in random_horn(rng, 5))
    )
    assert _digest(horn) == (
        "14412a0b32921a67df4124c6e69c00501db8cbc2c3522ea04f945626b5aa48e5"
    )
    terms = _draws(lambda rng: render_term(random_term(rng)))
    assert _digest(terms) == (
        "945f320d60e423101b8a7fa41074261dc675286887bb64c9a6924487374426d3"
    )


# ------------------------------------------------------------ chain family

def test_chain_family_length_accounting():
    hyps, query = chain_family(2000)
    total = sum(f.length for f in hyps) + query.length
    assert total <= 2000
    assert total >= 2000 - 3


def test_chain_family_entailed():
    hyps, query = chain_family(500)
    v = entails(hyps, query, V.PFQPL)
    assert v.entailed
    assert entails(hyps, query, V.ORIGINAL).entailed


def test_chain_family_breaks_without_head():
    hyps, query = chain_family(200)
    assert not entails(hyps[1:], query, V.PFQPL).entailed


# ---------------------------------------------------------- counter family

def test_counter_family_layout():
    hyps, query = counter_family(3)
    assert [render(h) for h in hyps] == [
        "C(c0, c0, c0)",
        "C(c0, c1, c1) -> C(c1, c0, c0)",
        "forall x0. C(x0, c0, c1) -> C(x0, c1, c0)",
        "forall x0. forall x1. C(x0, x1, c0) -> C(x0, x1, c1)",
    ]
    assert render(query) == "C(c1, c1, c1)"
    with pytest.raises(ValueError):
        counter_family(0)


@pytest.mark.parametrize("d", range(1, 11))
def test_counter_family_derives_its_whole_closure(d):
    # the counter visits all 2^d values, so every closure member is derived
    # and cited by the proof, which has one node per member
    hyps, query = counter_family(d)
    v = entails(hyps, query, V.QPL)
    n = len(v.closure_table.universe)
    assert n == 3 * 2 ** d - (d + 2)
    assert v.entailed and v.stats["derived_count"] == n
    assert len(v.proof.labels) == n
    assert check_derivation(v.proof, V.QPL, hyps, query).ok
