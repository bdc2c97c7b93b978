"""Syntax layer: parsing, printing, substitution, parameters, closure."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpl import syntax as sy
from qpl.syntax import (
    ArityError,
    ClashError,
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
    formula_length,
    free_vars,
    imp,
    parameters_star,
    parse_formula,
    parse_problem,
    render,
    substitute,
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
    assert free_vars(f) == {"x"}
    g = parse_formula("R(x)")
    assert g is atom("R", const("x"))
    assert free_vars(g) == frozenset()


def test_parse_bound_shadows_declared():
    f = parse_formula("forall x. R(x)", declared_vars={"x"})
    assert f is forall("x", atom("R", x))
    assert free_vars(f) == frozenset()


@pytest.mark.parametrize(
    "text",
    ["p &", "p & & q", "(p", "forall . p", "forall x p", "R(", "R(x,)", "->p",
     "p q", "true(x)", "exists", ""],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_formula(text)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_formula("p & (q | ) & r")
    assert err.value.position == 9


def test_reserved_identifiers():
    with pytest.raises(ReservedNameError):
        parse_formula("_p")
    with pytest.raises(ReservedNameError):
        parse_formula("R(_0)")
    f = parse_formula("R(_0)", allow_reserved=True)
    assert f is atom("R", const("_0"))


def test_arity_mismatch_within_one_parse():
    with pytest.raises(ArityError):
        parse_formula("R(c) & R(c, d)")


def test_arity_tracked_across_shared_table():
    table = sy.SymbolTable()
    parse_formula("R(c)", symbols=table)
    with pytest.raises(ArityError):
        parse_formula("R(c, d)", symbols=table)


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
    assert free_vars(prob.formulas[2]) == {"y"}


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
    assert parse_formula(render(f), declared_vars=free_vars(f)) is f


# ------------------------------------------------------------- substitution

def test_substitute_vectors():
    Rxx = atom("R", x, x)
    assert substitute(Rxx, "x", c) is atom("R", c, c)
    vac = forall("x", atom("R", x))
    assert substitute(vac, "x", c) is vac
    with pytest.raises(ClashError):
        substitute(exists("y", atom("S", x, y)), "x", y)


def test_substitute_no_op_for_absent_variable():
    f = imp(p, atom("R", c))
    assert substitute(f, "x", d) is f


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
    try:
        out = substitute(f, name, t)
    except ClashError:
        assert t.kind == sy.VAR
        assert _clash_expected(f, name, t.name)
        return
    if t.kind == sy.VAR:
        assert not _clash_expected(f, name, t.name)
    if name not in free_vars(f):
        assert out is f
    else:
        expected = (free_vars(f) - {name}) | (
            {t.name} if t.kind == sy.VAR else set()
        )
        assert free_vars(out) == expected


# ------------------------------------------------- free vars, params, depth

def test_free_vars_vectors():
    assert free_vars(forall("x", atom("R", x, y))) == {"y"}
    assert free_vars(p) == frozenset()
    assert free_vars(conj(atom("R", x), exists("x", atom("R", x)))) == {"x"}


def test_parameters_star_vectors():
    ps = parameters_star([atom("R", c, x)])
    assert ps.elements == (c, x)
    assert not ps.contains_fixed

    ps = parameters_star([p])
    assert ps.elements == (const("_0"),)
    assert ps.contains_fixed

    ps = parameters_star([forall("x", atom("R", x))])
    assert ps.elements == (const("_0"),)
    assert ps.contains_fixed


def test_parameters_star_first_occurrence_order():
    fs = [atom("S", y, c), atom("R", d, x)]
    assert parameters_star(fs).elements == (y, c, d, x)
    # bound occurrences contribute nothing
    fs = [forall("x", atom("R", x)), atom("T", y)]
    ps = parameters_star(fs)
    assert ps.elements == (y, const("_0"))
    assert ps.contains_fixed


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
    assert formula_length(f) == n


# ------------------------------------------------------------------ closure

def test_closure_single_universal():
    ct = closure([forall("x", atom("R", x, c))])
    assert ct.universe == [forall("x", atom("R", x, c)), atom("R", c, c)]
    assert ct.params.elements == (c,)
    assert ct.sub_instances[forall("x", atom("R", x, c))] == (atom("R", c, c),)
    assert ct.stats.size == 2


def test_closure_propositional():
    ct = closure([imp(p, q)])
    assert ct.universe == [imp(p, q), p, q]
    assert ct.params.elements == (const("_0"),)
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
    assert ct.params.elements == (y, const("_0"))
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
    n = formula_length(f)
    assert n == 2 * (2 * r) + 2 + r
    assert ct.stats.size == size
    assert ct.stats.closure_length == total_len
    assert ct.stats.closure_length >= n * r**r
    assert ct.stats.size <= n * len(ct.params.elements) ** ct.stats.depth


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
            try:
                inst = substitute(hay.body, hay.var, t)
            except ClashError:
                continue
            if _is_p_subformula(needle, inst, params):
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
    keep = [g for g in candidates if _is_p_subformula(g, s, ct.params.elements)]
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
                try:
                    inst = substitute(f.body, f.var, t)
                except ClashError:
                    continue
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


def test_closure_matches_naive_recursion_on_random_inputs():
    rng = random.Random(20260817)
    for _ in range(150):
        fs = [_random_formula(rng, rng.randrange(1, 4))
              for _ in range(rng.randrange(1, 3))]
        ct = closure(fs)
        naive = _naive_p_subformulas(dict.fromkeys(fs), ct.params.elements)
        assert set(ct.universe) == naive
        # cardinality bound from the input length
        bound = ct.stats.input_length * max(
            1, len(ct.params.elements)
        ) ** ct.stats.depth
        assert ct.stats.size <= bound


def test_closure_transitive_on_members():
    rng = random.Random(7)
    for _ in range(60):
        fs = [_random_formula(rng, 3)]
        ct = closure(fs)
        pset = set(ct.params.elements)
        members = set(ct.universe)
        for member in ct.universe[:8]:
            inner = closure([member])
            for g in inner.universe:
                if set(sy.parameters(g)) <= pset:
                    assert g in members
