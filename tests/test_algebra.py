"""Infon term algebra: the join/pseudocomplement laws, the bridge into
the original calculus, and the term grammar."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from qpl.algebra import (
    Gen,
    Join,
    PComp,
    Zero,
    parse_term,
    random_term,
    render_term,
    term_equal,
    term_geq,
)
from qpl.calculus import CalculusVariant as V
from qpl.engine import entails
from qpl.semantics import semantic_yields_bruteforce
from qpl.syntax import (
    ParseError,
    ReservedNameError,
    atom,
    bot,
    const,
    disj,
    forall,
)

a = Gen("a")
b = Gen("b")
c = Gen("c")


# ---------------------------------------------------------------- order

def test_join_dominates_components():
    assert term_geq(Join(a, b), a)
    assert term_geq(Join(a, b), b)


def test_consequent_dominates_pcomp():
    assert term_geq(b, PComp(a, b))
    assert not term_geq(PComp(a, b), b)


def test_distinct_generators_incomparable():
    assert not term_geq(a, b)
    assert not term_geq(b, a)


def test_pseudo_upper_half():
    # second inequality of the pseudocomplement requirement
    assert term_geq(Join(a, PComp(a, b)), b)


def test_generator_vs_self_pcomp():
    t = PComp(a, a)
    assert term_geq(a, t)
    assert not term_geq(t, a)
    assert not term_equal(a, t)
    # same two verdicts through the semantic route
    assert semantic_yields_bruteforce([a], t) is True
    assert semantic_yields_bruteforce([t], a) is False


def test_term_geq_is_original_entailment():
    rng = random.Random(61)
    for _ in range(60):
        s = random_term(rng, rng.randrange(1, 13))
        t = random_term(rng, rng.randrange(1, 13))
        got = term_geq(s, t)
        want = entails([s], t, V.ORIGINAL).entailed
        assert got is want


def test_original_entailment_implies_semantic_yield():
    rng = random.Random(62)
    hits = 0
    for _ in range(40):
        s = random_term(rng, rng.randrange(1, 9))
        t = random_term(rng, rng.randrange(1, 9))
        if term_geq(s, t):
            hits += 1
            assert semantic_yields_bruteforce([s], t)
    assert hits >= 8


# ----------------------------------------------------------------- laws

_leaf = st.sampled_from([Zero(), Gen("a"), Gen("b"), Gen("c")])
_terms = st.recursive(
    _leaf,
    lambda ch: st.builds(Join, ch, ch) | st.builds(PComp, ch, ch),
    max_leaves=6,
)


@settings(max_examples=60, deadline=None)
@given(_terms, _terms, _terms)
def test_join_associative(x, y, z):
    assert term_equal(Join(Join(x, y), z), Join(x, Join(y, z)))


@settings(max_examples=60, deadline=None)
@given(_terms, _terms)
def test_join_commutative(x, y):
    assert term_equal(Join(x, y), Join(y, x))


@settings(max_examples=60, deadline=None)
@given(_terms)
def test_join_idempotent(x):
    assert term_equal(Join(x, x), x)


@settings(max_examples=60, deadline=None)
@given(_terms)
def test_zero_neutral(x):
    assert term_equal(Join(x, Zero()), x)


@settings(max_examples=60, deadline=None)
@given(_terms, _terms)
def test_pseudo_law_lower(x, y):
    assert term_equal(Join(PComp(x, y), y), y)


@settings(max_examples=60, deadline=None)
@given(_terms, _terms)
def test_pseudo_law_upper(x, y):
    rhs = Join(x, PComp(x, y))
    assert term_equal(Join(y, rhs), rhs)


@settings(max_examples=60, deadline=None)
@given(_terms)
def test_order_reflexive(x):
    assert term_geq(x, x)


@settings(max_examples=40, deadline=None)
@given(_terms, _terms, _terms)
def test_upper_bounds_join(x, y, z):
    if term_geq(z, x) and term_geq(z, y):
        assert term_geq(z, Join(x, y))


def test_order_transitive_sampled():
    rng = random.Random(63)
    hits = 0
    for _ in range(200):
        s = random_term(rng, rng.randrange(1, 9))
        t = random_term(rng, rng.randrange(1, 9))
        u = random_term(rng, rng.randrange(1, 9))
        if term_geq(s, t) and term_geq(t, u):
            hits += 1
            assert term_geq(s, u)
    assert hits >= 10


def test_matching_corollary_random():
    rng = random.Random(64)
    agree_true = agree_false = 0
    for _ in range(120):
        s = random_term(rng, rng.randrange(1, 13))
        t = random_term(rng, rng.randrange(1, 13))
        via_engine = entails([s], t, V.ORIGINAL).entailed
        # s entails t iff s >= t iff joining t into s changes nothing
        via_order = term_equal(Join(s, t), s)
        assert via_engine is via_order
        if via_engine:
            agree_true += 1
        else:
            agree_false += 1
    assert agree_true >= 10
    assert agree_false >= 10


# -------------------------------------------------------------- grammar

PARSE_VECTORS = [
    ("a + b * c", Join(a, PComp(b, c))),
    ("a * b + c", Join(PComp(a, b), c)),
    ("a + b + c", Join(Join(a, b), c)),
    ("a * b * c", PComp(PComp(a, b), c)),
    ("(a + b) * c", PComp(Join(a, b), c)),
    ("0 + a", Join(Zero(), a)),
    ("0", Zero()),
    ("  a ", a),
    ("a * (b + 0)", PComp(a, Join(b, Zero()))),
]


@pytest.mark.parametrize("text,want", PARSE_VECTORS)
def test_parse_vectors(text, want):
    assert parse_term(text) == want


@pytest.mark.parametrize(
    "text",
    ["", "a +", "(a", "a ++ b", "_x", "a b", "+ a", "a + ()", "a & b"],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_term(text)


# Exact class, message and column of each rejection. Tokenizing comes
# first, so a character no token covers is reported before any syntax error.
PARSE_ERROR_TABLE = [
    ("", ParseError, "unexpected end of input (column 0)", 0),
    ("a +", ParseError, "unexpected end of input (column 3)", 3),
    ("(a", ParseError, "unexpected end of input (column 2)", 2),
    ("a ++ b", ParseError, "unexpected token '+' (column 3)", 3),
    (
        "_x",
        ReservedNameError,
        "identifier '_x' uses the reserved prefix (column 0)",
        0,
    ),
    ("a b", ParseError, "unexpected token 'b' (column 2)", 2),
    ("(a b)", ParseError, "expected ')' (column 3)", 3),
    ("+ a", ParseError, "unexpected token '+' (column 0)", 0),
    ("a + ()", ParseError, "unexpected token ')' (column 5)", 5),
    ("a & b", ParseError, "unexpected character '&' (column 2)", 2),
    ("a )", ParseError, "unexpected token ')' (column 2)", 2),
    ("01", ParseError, "unexpected character '1' (column 1)", 1),
]


@pytest.mark.parametrize(
    "text,cls,message,position",
    PARSE_ERROR_TABLE,
    ids=[repr(row[0]) for row in PARSE_ERROR_TABLE],
)
def test_parse_error_table(text, cls, message, position):
    with pytest.raises(ParseError) as info:
        parse_term(text)
    assert type(info.value) is cls
    assert (str(info.value), info.value.position) == (message, position)


@pytest.mark.parametrize("word", ["true", "false", "forall", "exists"])
def test_keyword_generator_rejected(word):
    with pytest.raises(ValueError) as info:
        parse_term(f"a + {word}")
    assert type(info.value) is ValueError
    assert str(info.value) == f"not a relation symbol: {word!r}"


@pytest.mark.parametrize(
    "make",
    [
        bot,
        lambda: disj(a, b),
        lambda: atom("R", const("c")),
        lambda: forall("x", a),
        lambda: Join(a, PComp(bot(), b)),
    ],
    ids=["false", "or", "relation", "forall", "nested"],
)
def test_render_rejects_non_terms(make):
    with pytest.raises(TypeError):
        render_term(make())


def test_deep_terms_parse_and_render():
    right = "a * (" * 4999 + "a * b" + ")" * 4999
    t = parse_term(right)
    assert t.length == 10001
    assert render_term(t) == right
    left = " + ".join(["a"] * 5000)
    assert render_term(parse_term(left)) == left


def test_render_round_trip_fixed():
    for text, want in PARSE_VECTORS:
        assert parse_term(render_term(want)) == want


@settings(max_examples=120, deadline=None)
@given(_terms)
def test_render_round_trip(t):
    assert parse_term(render_term(t)) == t


def test_render_drops_redundant_parens():
    assert render_term(Join(Join(a, b), c)) == "a + b + c"
    assert render_term(Join(a, Join(b, c))) == "a + (b + c)"
    assert render_term(PComp(Join(a, b), c)) == "(a + b) * c"
    assert render_term(Join(PComp(a, b), c)) == "a * b + c"


# ------------------------------------------------------------ generator

def test_random_term_caps_size():
    rng = random.Random(5)
    for _ in range(100):
        t = random_term(rng, 12)
        assert 1 <= t.length <= 12


def test_random_term_deterministic():
    t1 = random_term(random.Random(17), 12)
    t2 = random_term(random.Random(17), 12)
    assert t1 == t2


def test_random_term_varies():
    rng = random.Random(18)
    kinds = {type(random_term(rng, 12)).__name__ for _ in range(60)}
    assert {"And", "Imp"} <= kinds
