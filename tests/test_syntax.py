"""Syntax layer: parsing, printing, instantiation, parameters, closure."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import _sessions as golden_sessions

from qpl import syntax as sy
from qpl.calculus import CalculusVariant as V
from qpl.generators import (
    Dec,
    Inc,
    TwoRegisterMachine,
    bounded_halting_instance,
    chain_family,
    random_instance,
)
from qpl.syntax import (
    ArityError,
    ParseError,
    ReservedNameError,
    ResourceLimit,
    atom,
    bot,
    closure,
    conj,
    const,
    disj,
    exists,
    forall,
    imp,
    parameters_star,
    parse_formula,
    parse_problem,
    render,
    top,
    var,
)

p, q, r = atom("p"), atom("q"), atom("r")
x, y, w = var("x"), var("y"), var("w")
c, d = const("c"), const("d")


# ---------------------------------------------------------------- interning

def test_interning_identity():
    assert atom("p") is p
    assert conj(p, q) is conj(p, q)
    assert imp(conj(p, q), r) is imp(conj(p, q), r)
    assert forall("x", atom("R", x)) is forall("x", atom("R", x))
    assert var("x") is x and const("c") is c
    assert var("x") is not const("x")
    assert conj(p, q) is not conj(q, p)


# ------------------------------------------------------------------ parsing

@pytest.mark.parametrize(
    "text,expected",
    [
        ("p & q -> r", imp(conj(p, q), r)),
        ("forall x. R(x,c)", forall("x", atom("R", x, c))),
        ("a -> b -> c", imp(atom("a"), imp(atom("b"), atom("c")))),
        ("p & q & r", conj(conj(p, q), r)),
        ("p | q | r", disj(disj(p, q), r)),
        ("~p", imp(p, bot())),
        ("~~p", imp(imp(p, bot()), bot())),
        ("true & false", conj(top(), bot())),
        ("forall x. R(x) -> p", forall("x", imp(atom("R", x), p))),
        ("(forall x. R(x)) -> p", imp(forall("x", atom("R", x)), p)),
        ("forall x w. S(x, w)", forall("x", forall("w", atom("S", x, w)))),
        ("exists x. R(x) & p", exists("x", conj(atom("R", x), p))),
        ("p -> (exists x. R(x))", imp(p, exists("x", atom("R", x)))),
    ],
)
def test_parse_vectors(text, expected):
    assert parse_formula(text) is expected


def test_parse_declared_vars():
    f = parse_formula("R(x)", declared_vars={"x"})
    assert f is atom("R", x)
    assert f.free == {"x"}
    g = parse_formula("R(x)")
    assert g is atom("R", const("x"))
    assert g.free == frozenset()


def test_parse_bound_shadows_declared():
    f = parse_formula("forall x. R(x)", declared_vars={"x"})
    assert f is forall("x", atom("R", x))
    assert f.free == frozenset()


@pytest.mark.parametrize(
    "text",
    ["p &", "p & & q", "(p", "forall . p", "forall x p", "R(", "R(x,)", "->p",
     "p q", "true(x)", "exists", ""],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_formula(text)


@pytest.mark.parametrize("word", ["true", "false", "forall", "exists"])
def test_terms_refuse_keyword_names(word):
    # a term named like a keyword would render as text the parser reads
    # as that keyword, so neither constructor builds one
    for make in (var, const):
        with pytest.raises(ValueError, match=f"not an identifier: '{word}'"):
            make(word)


@pytest.mark.parametrize("term", [sy.Term("var", "x"), sy.Term("const", "true")])
def test_atoms_refuse_terms_not_built_by_var_or_const(term):
    # a hand-built variable is not var("x"), so no quantifier would ever
    # instantiate it; a hand-built constant named like a keyword would
    # render as the unparsable R(true)
    with pytest.raises(TypeError, match=r"var\(\) or const\(\)"):
        atom("R", term)
    assert atom("R", var("x")).free == {"x"}


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_formula("p & (q | ) & r")
    assert err.value.position == 9


def test_reserved_identifiers():
    with pytest.raises(ReservedNameError):
        parse_formula("_p")
    with pytest.raises(ReservedNameError):
        parse_formula("R(_0)")


def test_arity_mismatch_within_one_parse():
    with pytest.raises(ArityError):
        parse_formula("R(c) & R(c, d)")


def test_arity_tracked_across_shared_table():
    table = {}
    parse_formula("R(c)", symbols=table)
    assert table == {"R": 1}
    with pytest.raises(ArityError):
        parse_formula("R(c, d)", symbols=table)


_RESERVED = "identifiers starting with '_' are reserved"

# (text, exception class, str(e), position): the first error in reading
# order wins, except that an unexpected character anywhere is reported
# before any grammar error.
_PARSE_ERROR_CASES = [
    ("p & & q $", ParseError, "unexpected character '$' (column 8)", 8),
    ("p -> -> q ∧", ParseError, "unexpected character '∧' (column 10)", 10),
    ("(p | ) @ q", ParseError, "unexpected character '@' (column 7)", 7),
    ("p\xa0& q $", ParseError, "unexpected character '$' (column 6)", 6),
    ("1x", ParseError, "unexpected character '1' (column 0)", 0),
    ("x'' -> 'y", ParseError, "unexpected character \"'\" (column 7)", 7),
    ("p ->> q", ParseError, "unexpected character '>' (column 4)", 4),
    ("p --> q", ParseError, "unexpected character '-' (column 2)", 2),
    ("R(forall)", ParseError, "expected a term, got 'forall' (column 2)", 2),
    ("R(x, true)", ParseError, "expected a term, got 'true' (column 5)", 5),
    ("p -> forall x. q", ParseError,
     "'forall' must be parenthesized in this position (column 5)", 5),
    ("~forall x. p", ParseError,
     "'forall' must be parenthesized in this position (column 1)", 1),
    ("p & forall x. q", ParseError,
     "'forall' must be parenthesized in this position (column 4)", 4),
    ("p | exists y. q", ParseError,
     "'exists' must be parenthesized in this position (column 4)", 4),
    ("forall . p", ParseError, "expected bound variable (column 7)", 7),
    ("forall true. p", ParseError, "expected bound variable (column 7)", 7),
    ("forall x p", ParseError, "expected '.', got end of input (column 10)", 10),
    ("forall x (p)", ParseError, "expected '.', got '(' (column 9)", 9),
    ("forall x forall. p", ParseError,
     "expected '.', got 'forall' (column 9)", 9),
    ("(p & q", ParseError, "expected ')', got end of input (column 6)", 6),
    ("(forall x. p", ParseError, "expected ')', got end of input (column 12)", 12),
    ("R(a b)", ParseError, "expected ')', got 'b' (column 4)", 4),
    ("p q", ParseError, "unexpected 'q' (column 2)", 2),
    ("forall x. p ) q", ParseError, "unexpected ')' (column 12)", 12),
    ("true(a)", ParseError, "unexpected '(' (column 4)", 4),
    ("", ParseError, "expected a formula, got end of input (column 0)", 0),
    ("p ->", ParseError, "expected a formula, got end of input (column 4)", 4),
    ("p &\t&\nq", ParseError, "expected a formula, got '&' (column 4)", 4),
    ("R(a,)", ParseError, "expected a term, got ')' (column 4)", 4),
    ("_r(a)", ReservedNameError, f"{_RESERVED}: '_r' (column 0)", 0),
    ("R(_c)", ReservedNameError, f"{_RESERVED}: '_c' (column 2)", 2),
    ("forall x _y. p", ReservedNameError, f"{_RESERVED}: '_y' (column 9)", 9),
    ("R(a) & R(a, b) & &", ArityError,
     "relation 'R' used with 2 argument(s) but earlier with 1 (column 7)", 7),
    ("Q(a, b) -> (Q(a) | p)", ArityError,
     "relation 'Q' used with 1 argument(s) but earlier with 2 (column 12)", 12),
    ("R(c) & R", ArityError,
     "relation 'R' used with 0 argument(s) but earlier with 1 (column 7)", 7),
]


@pytest.mark.parametrize("text,cls,message,position", _PARSE_ERROR_CASES)
def test_parse_error_table(text, cls, message, position):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert type(err.value) is cls
    assert str(err.value) == message
    assert err.value.position == position


DEEP = 5000


def _deep_implication():
    text = " -> ".join(f"p{i}" for i in range(DEEP + 1))
    f = atom(f"p{DEEP}")
    for i in reversed(range(DEEP)):
        f = imp(atom(f"p{i}"), f)
    return text, f


def _deep_negation():
    f = p
    for _ in range(DEEP):
        f = imp(f, bot())
    return "~" * DEEP + "p", f


def _deep_parentheses():
    text = "(" * DEEP + "p0" + "".join(f" -> p{i})" for i in range(1, DEEP + 1))
    f = atom("p0")
    for i in range(1, DEEP + 1):
        f = imp(f, atom(f"p{i}"))
    return text, f


def _deep_quantifiers():
    body = f"R(x0) & R(x{DEEP - 1})"
    text = "".join(f"(forall x{i}. " for i in range(DEEP)) + body + ")" * DEEP
    f = conj(atom("R", var("x0")), atom("R", var(f"x{DEEP - 1}")))
    for i in reversed(range(DEEP)):
        f = forall(f"x{i}", f)
    return text, f


_DEEP_CASES = [_deep_implication, _deep_negation, _deep_parentheses,
               _deep_quantifiers]


@pytest.mark.parametrize("case", _DEEP_CASES)
def test_parse_deep_nesting(case):
    text, expected = case()
    assert parse_formula(text) is expected
    problem = parse_problem(f"# {DEEP} levels\n{text}\nq\n")
    assert len(problem.formulas) == 2
    assert problem.formulas[0] is expected


def _round_trip_corpus():
    rng = random.Random(7)
    for variant in V:
        for _ in range(40):
            hyps, queries = random_instance(rng, None, 2, variant)
            yield from hyps
            yield from queries
    machine = TwoRegisterMachine({0: Inc(1, 2), 2: Inc(2, 3), 3: Dec(1, 1, 0)})
    hyps, query = bounded_halting_instance(machine, 4)
    yield from hyps
    yield query
    hyps, query = chain_family(2000)
    yield from hyps
    yield query


def test_parse_render_round_trip_on_generated_formulas():
    n = 0
    for f in _round_trip_corpus():
        assert parse_formula(render(f), f.free) is f
        n += 1
    assert n > 1000


_NOISE = st.sampled_from(
    ["->", "&", "|", "~", "(", ")", ".", ",", "forall", "exists", "true",
     "false", "x", "y", "R", "p", "_r", " ", "\t", "\xa0", "-", ">", "$", "1",
     "'", "é", "∧"]
)


@given(st.lists(_NOISE, max_size=30).map("".join))
def test_parse_raises_only_parse_errors(text):
    try:
        parse_formula(text, ("x",))
    except ParseError:
        pass


def test_problem_file():
    text = """
# a small problem
@vars y
R(c, y)
p & q -> r   # trailing comment

forall x. R(x, y)
"""
    prob = parse_problem(text)
    assert prob.declared_vars == ("y",)
    assert prob.formulas == [
        atom("R", c, y),
        imp(conj(p, q), r),
        forall("x", atom("R", x, y)),
    ]
    assert prob.formulas[2].free == {"y"}


def test_problem_file_arity_error_mentions_line():
    with pytest.raises(ArityError) as err:
        parse_problem("R(c)\nR(c, d)\n")
    assert "line 2" in str(err.value)


# ---------------------------------------------------------------- rendering

@pytest.mark.parametrize(
    "f,text",
    [
        (imp(conj(p, q), r), "(p & q) -> r"),
        (top(), "true"),
        (bot(), "false"),
        (forall("x", atom("R", x, c)), "forall x. R(x, c)"),
        (imp(p, imp(q, r)), "p -> (q -> r)"),
        (disj(disj(p, q), r), "(p | q) | r"),
        (exists("y", conj(atom("S", y), p)), "exists y. S(y) & p"),
        (atom("R", var("x'"), c), "R(x', c)"),
    ],
)
def test_render_vectors(f, text):
    assert render(f) == text


def _formula_strategy():
    terms = st.sampled_from([c, d, var("y"), var("z"), x, w])
    nullary = st.sampled_from([p, q, r, top(), bot()])
    unary = st.builds(lambda t: atom("R", t), terms)
    binary = st.builds(lambda a, b: atom("S", a, b), terms, terms)
    base = nullary | unary | binary

    def extend(kids):
        pair = st.tuples(kids, kids)
        return st.one_of(
            pair.map(lambda ab: conj(*ab)),
            pair.map(lambda ab: disj(*ab)),
            pair.map(lambda ab: imp(*ab)),
            st.tuples(st.sampled_from(["x", "w", "y"]), kids).map(
                lambda vb: forall(*vb)
            ),
            st.tuples(st.sampled_from(["x", "w", "y"]), kids).map(
                lambda vb: exists(*vb)
            ),
        )

    return st.recursive(base, extend, max_leaves=12)


@given(_formula_strategy())
def test_render_parse_round_trip(f):
    assert parse_formula(render(f), declared_vars=f.free) is f


# ------------------------------------------------------------ instantiation

class _Clash(Exception):
    pass


def _substitute(a, x, t):
    """Reference: a[x := t] by plain recursion, raising _Clash where a
    binder would capture t. It shares no code with syntax._instances."""
    if x not in a.free:
        return a
    if t.kind == sy.VAR and t.name == x:
        return a
    cls = a.__class__
    if cls is sy.Atom:
        return atom(
            a.rel,
            *[t if (u.kind == sy.VAR and u.name == x) else u for u in a.args],
        )
    if cls is sy.And:
        return conj(_substitute(a.l, x, t), _substitute(a.r, x, t))
    if cls is sy.Or:
        return disj(_substitute(a.l, x, t), _substitute(a.r, x, t))
    if cls is sy.Imp:
        return imp(_substitute(a.l, x, t), _substitute(a.r, x, t))
    # quantifier with x free below; binder cannot equal x
    if t.kind == sy.VAR and t.name == a.var:
        raise _Clash
    if cls is sy.Forall:
        return forall(a.var, _substitute(a.body, x, t))
    return exists(a.var, _substitute(a.body, x, t))


def _reference_or_none(a, x, t):
    try:
        return _substitute(a, x, t)
    except _Clash:
        return None


def test_substitute_vectors():
    Rxx = atom("R", x, x)
    assert sy._instances(Rxx, "x", [c, x, y], {}) == [
        atom("R", c, c), Rxx, atom("R", y, y)
    ]
    vac = forall("x", atom("R", x))
    assert sy._instances(vac, "x", [c, y], {}) == [vac, vac]
    f = exists("y", atom("S", x, y))
    assert sy._instances(f, "x", [y, c], {}) == [None, exists("y", atom("S", c, y))]


def test_substitute_no_op_for_absent_variable():
    f = imp(p, atom("R", c))
    assert sy._instances(f, "x", [d, y], {}) == [f, f]


def _clash_expected(f, name, vname, binders=frozenset()):
    # independent detector: some free occurrence of `name` sits under a
    # binder for `vname`
    if isinstance(f, sy.Atom):
        if vname not in binders:
            return False
        return any(t.kind == sy.VAR and t.name == name for t in f.args)
    if isinstance(f, (sy.And, sy.Or, sy.Imp)):
        return _clash_expected(f.l, name, vname, binders) or _clash_expected(
            f.r, name, vname, binders
        )
    if isinstance(f, (sy.Forall, sy.Exists)):
        if f.var == name:
            return False
        return _clash_expected(f.body, name, vname, binders | {f.var})
    return False


@given(_formula_strategy(), st.sampled_from(["x", "w", "y", "z"]),
       st.sampled_from([c, d, var("x"), var("y"), var("z")]))
def test_substitute_clash_and_free_var_law(f, name, t):
    [out] = sy._instances(f, name, [t], {})
    if out is None:
        assert t.kind == sy.VAR
        assert _clash_expected(f, name, t.name)
        return
    if t.kind == sy.VAR:
        assert not _clash_expected(f, name, t.name)
    if name not in f.free:
        assert out is f
    else:
        expected = (f.free - {name}) | (
            {t.name} if t.kind == sy.VAR else set()
        )
        assert out.free == expected


@given(_formula_strategy(), st.sampled_from(["x", "w", "y", "z"]))
def test_instances_match_the_recursive_reference(f, name):
    # constants, every binder name of the strategy, and the variable itself
    params = [c, d, const("_0"), x, w, var("y"), var("z"), var(name)]
    assert sy._instances(f, name, params, {}) == [
        _reference_or_none(f, name, t) for t in params
    ]


# ------------------------------------------------- free vars, params, depth

def test_free_vars_vectors():
    assert forall("x", atom("R", x, y)).free == {"y"}
    assert p.free == frozenset()
    assert conj(atom("R", x), exists("x", atom("R", x))).free == {"x"}


def test_free_sets_are_shared():
    assert imp(p, q).free is sy._EMPTY
    assert atom("R", c, d).free is sy._EMPTY
    assert forall("x", atom("S", x, c)).free is sy._EMPTY
    a = atom("S", x, y)
    assert conj(a, a).free is a.free
    assert imp(atom("R", x), a).free is a.free
    assert disj(a, atom("R", c)).free is a.free
    assert conj(atom("R", x), atom("R", y)).free == {"x", "y"}
    assert exists("w", a).free is a.free


def _naive_free(f):
    if isinstance(f, sy.Atom):
        return {t.name for t in f.args if t.kind == sy.VAR}
    if isinstance(f, (sy.And, sy.Or, sy.Imp)):
        return _naive_free(f.l) | _naive_free(f.r)
    if isinstance(f, (sy.Forall, sy.Exists)):
        return _naive_free(f.body) - {f.var}
    return set()


def _subformulas(f):
    yield f
    if isinstance(f, (sy.And, sy.Or, sy.Imp)):
        yield from _subformulas(f.l)
        yield from _subformulas(f.r)
    elif isinstance(f, (sy.Forall, sy.Exists)):
        yield from _subformulas(f.body)


@pytest.mark.parametrize("variant", list(V))
def test_free_sets_match_naive_recomputation(variant):
    rng = random.Random(4242 + variant)
    checked = 0
    for _ in range(40):
        hyps, queries = random_instance(rng, variant=variant)
        for member in closure([*hyps, *queries]).universe:
            for g in _subformulas(member):
                naive = _naive_free(g)
                assert g.free == naive
                assert naive or g.free is sy._EMPTY
                checked += 1
    assert checked > 1000


def test_parameters_star_vectors():
    assert parameters_star([atom("R", c, x)]) == (c, x)
    assert parameters_star([p]) == (const("_0"),)
    assert parameters_star([forall("x", atom("R", x))]) == (const("_0"),)


def test_parameters_star_first_occurrence_order():
    fs = [atom("S", y, c), atom("R", d, x)]
    assert parameters_star(fs) == (y, c, d, x)
    # bound occurrences contribute nothing
    fs = [forall("x", atom("R", x)), atom("T", y)]
    assert parameters_star(fs) == (y, const("_0"))


def test_parameters_star_binders_end_with_their_body():
    # x is bound only inside the forall; its later free use counts
    f = conj(forall("x", atom("R", x, c)), atom("S", x, y))
    assert parameters_star([f]) == (c, x, y)
    # an inner binder of the same name ends before the outer one does
    g = forall("x", conj(exists("x", atom("R", x)), atom("R", x)))
    assert parameters_star([g, atom("T", x)]) == (x, const("_0"))


def test_parameters_star_deep_nesting():
    _, f = _deep_quantifiers()
    x0 = var("x0")
    assert parameters_star([conj(f, atom("R", x0, c))]) == (x0, c)


def _tree_params(formulas):
    """The parameter walk as it was before it skipped repeated subformulas:
    a reference that reads every formula as a tree."""
    seen: set = set()
    out: list = []
    bound = sy._EMPTY
    stack: list = []
    for f in formulas:
        while True:
            cls = f.__class__
            if cls is sy.Atom:
                for t in f.args:
                    if (t.kind == sy.CONST or t.name not in bound) and t not in seen:
                        seen.add(t)
                        out.append(t)
            elif cls is sy.Imp or cls is sy.And or cls is sy.Or:
                stack.append(f.r)
                f = f.l
                continue
            elif cls is sy.Forall or cls is sy.Exists:
                stack.append(bound)
                bound = bound | {f.var}
                f = f.body
                continue
            elif cls is frozenset:
                bound = f
            if not stack:
                break
            f = stack.pop()
    return out


def _shared_under_binders(depth):
    """A DAG whose shared parts sit under several binder sets: each level
    implies the one below from a quantification of it over one name."""
    g = conj(atom("S", x, y), atom("R", w))
    for k, name in zip(range(depth), itertools.cycle("xyw")):
        ctor = forall if k % 2 else exists
        g = imp(ctor(name, g), conj(g, atom("T", const(f"c{k}"))))
    return g


def test_params_walk_matches_the_tree_walk():
    inputs = [[*hyps, *queries] for _, hyps, queries, _ in golden_sessions()]
    rng = random.Random(2024)
    for k in range(2000):
        hyps, queries = random_instance(rng, None, 2, V(k % 5))
        inputs.append([*hyps, *queries])
    inputs += [[_shared_under_binders(n)] for n in range(1, 13)]
    inputs.append([_shared_under_binders(6), atom("R", w), _deep_quantifiers()[1]])
    for fs in inputs:
        assert sy._collect_params(fs) == _tree_params(fs)


def test_quantifier_depth_vectors():
    assert forall("x", exists("y", atom("S", x, y))).qdepth == 2
    assert imp(conj(p, q), r).qdepth == 0
    two = conj(forall("x", atom("R", x)), exists("y", atom("S", y)))
    assert two.qdepth == 1


# ------------------------------------------------------------------ lengths

@pytest.mark.parametrize(
    "f,n",
    [
        (p, 1),
        (top(), 1),
        (bot(), 1),
        (atom("R", x, c), 6),            # R ( x , c )
        (atom("R", x), 4),               # R ( x )
        (forall("x", atom("R", x, c)), 7),
        (imp(p, q), 3),
        (imp(conj(p, q), r), 5),
        (forall("x", exists("y", atom("S", x, y))), 8),
    ],
)
def test_formula_length_vectors(f, n):
    assert f.length == n


# ------------------------------------------------------------------ closure

def test_closure_single_universal():
    ct = closure([forall("x", atom("R", x, c))])
    assert ct.universe == [forall("x", atom("R", x, c)), atom("R", c, c)]
    assert ct.params == (c,)
    assert ct.sub_instances[forall("x", atom("R", x, c))] == (atom("R", c, c),)
    assert ct.stats.size == 2


def test_closure_propositional():
    ct = closure([imp(p, q)])
    assert ct.universe == [imp(p, q), p, q]
    assert ct.params == (const("_0"),)
    assert ct.stats.size == 3
    assert ct.stats.depth == 0
    assert ct.stats.input_length == 3
    assert ct.stats.closure_length == 5


def test_closure_vacuous_quantifier():
    ct = closure([forall("x", p)])
    assert ct.universe == [forall("x", p), p]
    assert ct.sub_instances[forall("x", p)] == (p,)


def test_closure_clash_instances_skipped():
    s = [forall("x", exists("y", atom("R", x, y))), atom("T", y)]
    ct = closure(s)
    assert ct.params == (y, const("_0"))
    z = const("_0")
    inner = exists("y", atom("R", z, y))
    assert ct.universe == [
        s[0], s[1], inner, atom("R", z, y), atom("R", z, z),
    ]
    # x := y clashes with the inner binder and is skipped, not renamed
    assert ct.sub_instances[s[0]] == (inner,)
    assert ct.sub_instances[inner] == (atom("R", z, y), atom("R", z, z))


def test_closure_duplicate_inputs_collapse():
    ct = closure([p, p, imp(p, q), p])
    assert ct.universe == [p, imp(p, q), q]
    assert ct.stats.input_length == 1 + 3


def test_closure_cap():
    f = forall("x", atom("R", x, const("c1"), const("c2"), const("c3")))
    with pytest.raises(ResourceLimit):
        closure([f], cap=2)


def _family(r):
    """Nested universal atoms over r distinct constants, one per slot."""
    args = []
    for i in range(1, r + 1):
        args.append(const(f"p{i}"))
        args.append(var(f"x{i}"))
    f = atom("R", *args)
    for i in range(r, 0, -1):
        f = forall(f"x{i}", f)
    return f


@pytest.mark.parametrize(
    "r,size,total_len",
    [(2, 7, 74), (3, 40, 578), (4, 341, 6250), (5, 3906, 86907)],
)
def test_closure_family_growth(r, size, total_len):
    f = _family(r)
    ct = closure([f])
    n = f.length
    assert n == 2 * (2 * r) + 2 + r
    assert ct.stats.size == size
    assert ct.stats.closure_length == total_len
    assert ct.stats.closure_length >= n * r**r
    assert ct.stats.size <= n * len(ct.params) ** ct.stats.depth


def _is_p_subformula(needle, hay, params):
    # definitional check, independent of the closure worklist
    if needle is hay:
        return True
    if isinstance(hay, (sy.And, sy.Or, sy.Imp)):
        return _is_p_subformula(needle, hay.l, params) or _is_p_subformula(
            needle, hay.r, params
        )
    if isinstance(hay, (sy.Forall, sy.Exists)):
        for t in params:
            inst = _reference_or_none(hay.body, hay.var, t)
            if inst is not None and _is_p_subformula(needle, inst, params):
                return True
    return False


def test_closure_matches_bounded_enumeration():
    s = forall("x", atom("R", x, c))
    ct = closure([s])
    # all formulas over R/2, terms {x, c}, one quantifier layer
    terms = [x, c]
    candidate_atoms = [atom("R", a, b) for a in terms for b in terms]
    candidates = list(candidate_atoms)
    for g in candidate_atoms:
        candidates.append(forall("x", g))
        candidates.append(exists("x", g))
    candidates.append(conj(atom("R", c, c), atom("R", c, c)))
    keep = [g for g in candidates if _is_p_subformula(g, s, ct.params)]
    assert set(keep) == set(ct.universe)


def _naive_p_subformulas(formulas, params):
    out = set()

    def visit(f):
        if f in out:
            return
        out.add(f)
        if isinstance(f, (sy.And, sy.Or, sy.Imp)):
            visit(f.l)
            visit(f.r)
        elif isinstance(f, (sy.Forall, sy.Exists)):
            for t in params:
                inst = _reference_or_none(f.body, f.var, t)
                if inst is not None:
                    visit(inst)

    for f in formulas:
        visit(f)
    return out


def _random_formula(rng, depth):
    kind = rng.randrange(8 if depth > 0 else 3)
    if kind == 0:
        return rng.choice([p, q, top(), bot()])
    if kind == 1:
        return atom("R", rng.choice([c, d, y, x]))
    if kind == 2:
        return atom("S", rng.choice([c, y, x]), rng.choice([c, d, x, w]))
    if kind in (3, 4):
        ctor = {3: conj, 4: imp}[kind]
        return ctor(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    if kind == 5:
        return disj(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    ctor = forall if kind == 6 else exists
    return ctor(rng.choice(["x", "w"]), _random_formula(rng, depth - 1))


def _assert_sub_instances_match_reference(ct):
    # each quantified member's distinct substitutable instances, in
    # parameter order, with the body alone for a vacuous binder
    quantified = [f for f in ct.universe if isinstance(f, (sy.Forall, sy.Exists))]
    assert list(ct.sub_instances) == quantified
    for f in quantified:
        found = dict.fromkeys(
            _reference_or_none(f.body, f.var, t) for t in ct.params
        )
        found.pop(None, None)
        assert ct.sub_instances[f] == tuple(found)


def test_closure_matches_naive_recursion_on_random_inputs():
    rng = random.Random(20260817)
    for _ in range(150):
        fs = [_random_formula(rng, rng.randrange(1, 4))
              for _ in range(rng.randrange(1, 3))]
        ct = closure(fs)
        naive = _naive_p_subformulas(dict.fromkeys(fs), ct.params)
        assert set(ct.universe) == naive
        _assert_sub_instances_match_reference(ct)
        # cardinality bound from the input length
        bound = ct.stats.input_length * max(
            1, len(ct.params)
        ) ** ct.stats.depth
        assert ct.stats.size <= bound


@pytest.mark.parametrize("text", [
    # x bound at two levels: the inner body R(x, y) is also a subformula
    # of the outer body, where its x is the outer one
    "@vars y\nforall x. (R(x, y) & (exists x. R(x, y)))\nR(c, y)",
    # S(y, c) -> S(y, d) is met again under every instance of x
    "forall x. forall y. (R(x) & (S(y, c) -> S(y, d)))\nR(d)",
    # x := y is captured; the second input meets the same body again
    "@vars y\nforall x. exists y. R(x, y)\nexists x. exists y. R(x, y)\n"
    "R(c, y)",
])
def test_closure_sub_instances_match_reference(text):
    fs = parse_problem(text).formulas
    ct = closure(fs)
    assert set(ct.universe) == _naive_p_subformulas(fs, ct.params)
    _assert_sub_instances_match_reference(ct)


def test_closure_instantiates_each_pair_once(monkeypatch):
    # the queries benchmark's machine at t=6: its step axiom is
    # forall x. forall x'. forall y. S(x, x') -> (...), and without one
    # table per closure every forall-y walk would rebuild the instances
    # that mention no y. Each instance built looks its intern key up once,
    # so the lookups count that work: 4,550 for 3,803 members, and 8,960
    # when every _instances call starts from an empty table
    machine = TwoRegisterMachine(
        {0: Inc(1, 2), 2: Inc(2, 3), 3: Dec(1, 4, 2), 4: Dec(2, 1, 4)}
    )
    hyps, query = bounded_halting_instance(machine, 6)
    lookups = 0

    class Counting(dict):
        def get(self, key, default=None):
            nonlocal lookups
            lookups += 1
            return dict.get(self, key, default)

    interned = sy._FORMULAS
    counting = Counting(interned)
    monkeypatch.setattr(sy, "_FORMULAS", counting)
    try:
        ct = closure([*hyps, query])
    finally:
        interned.update(counting)  # keep what the closure interned
    assert len(ct.universe) == 3803
    assert lookups <= 1.5 * len(ct.universe)


def test_closure_transitive_on_members():
    rng = random.Random(7)
    for _ in range(60):
        fs = [_random_formula(rng, 3)]
        ct = closure(fs)
        pset = set(ct.params)
        members = set(ct.universe)
        for member in ct.universe[:8]:
            inner = closure([member])
            for g in inner.universe:
                if set(sy._collect_params([g])) <= pset:
                    assert g in members
