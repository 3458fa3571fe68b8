"""The distribution parser's term route: the same values as folding the
text through the public operations, the same errors, and one assembly per
sum; tokens as the match-object tokenizer read them, and locations read
without Fractions."""

import importlib
import importlib.util
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import distalg as d
from distalg import dist as dist_mod, parser as parser_mod
from distalg.errors import DistAlgError, ParseError, SemanticsError

from conftest import random_corpus

# the module; the package's attribute `star` is the function
star_mod = importlib.import_module("distalg.star")

# -- reference fold ----------------------------------------------------------
#
# A sum is a tuple of (sign, term), the first sign "", "-" or "+" and the
# others " + " or " - "; a term is a tuple of
# (op, factor), op "" for the first factor, else "*" or "/"; a factor is
# ("s", smooth text), ("H", w, form), ("d", w, k, form), ("p", sum) for a
# parenthesized sum, or ("-", factor).  The form of a linear argument is
# "x" for x - w, "w-x" or "-x" for w - x.

SMOOTH = ["2", "x", "x^2", "i", "0", "exp(x)", "sin(x)", "exp(-x/2)",
          "(3/4)", "(x+1)", "(1-x)", "(2+i)", "(x+i)", "(2*x+1)^2",
          "(1/(x-3))", "((x^2-1)/(x-1))", "((x+1)^2-x^2-2*x-1)", "(x-x)",
          "(x*x-x^2)"]
DIVISORS = ["2", "x", "(x-3)", "(x+i)", "exp(x)", "(x^2+1)", "(2/3)"]
LOCATIONS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
             Fraction(1, 2), Fraction(-3, 2), Fraction(7, 3)]
TRAP = "((x+1)^2-x^2-2*x-1)"


def H(w, form="x"):
    return ("H", Fraction(w), form)


def s(text):
    return ("s", text)


def linarg_text(w, form):
    if form == "x":
        return "x" if w == 0 else f"x-{d.frac_str(w)}" if w > 0 else \
            f"x+{d.frac_str(-w)}"
    if form == "w-x" and w >= 0:
        return f"{d.frac_str(w)}-x"
    return "-x" if w == 0 else f"-x+{d.frac_str(w)}" if w > 0 else \
        f"-x-{d.frac_str(-w)}"


def factor_text(f):
    kind = f[0]
    if kind == "s":
        return f[1]
    if kind == "H":
        return f"H({linarg_text(f[1], f[2])})"
    if kind == "d":
        order = "" if f[2] is None else f"[{f[2]}]"
        return f"delta{order}({linarg_text(f[1], f[3])})"
    if kind == "p":
        return "(" + sum_text(f[1]) + ")"
    return "-" + factor_text(f[1])


def sum_text(terms):
    return "".join(sign + "".join(op + factor_text(f) for op, f in term)
                   for sign, term in terms)


def negate(v):
    return d.scale(-1, v) if isinstance(v, d.GenDist) else d.neg(v)


def fold_factor(f):
    kind = f[0]
    if kind == "s":
        return d.parse_smooth_expr(f[1])
    if kind == "H":
        pieces = [d.const(0), d.const(1)]
        return d.make_piecewise([f[1]], pieces if f[2] == "x"
                                else pieces[::-1])
    if kind == "d":
        k = f[2] or 0
        return d.delta_dist(f[1], k, 1 if f[3] == "x" else (-1) ** k)
    if kind == "p":
        v = fold_sum(f[1])
        if (isinstance(v, d.GenDist) and not v.breakpoints
                and not v.all_atoms):
            return v.pieces[0]
        return v
    return negate(fold_factor(f[1]))


def fold_term(term):
    v = fold_factor(term[0][1])
    for op, f in term[1:]:
        r = fold_factor(f)
        smooth = not isinstance(v, d.GenDist)
        if op == "/":
            q = d.quotient_of(v if smooth else d.ONE, r)
            v = q if smooth else d.smooth_mul(q, v)
        elif not isinstance(r, d.GenDist):
            v = d.product_of(v, r) if smooth else d.smooth_mul(r, v)
        elif smooth:
            v = d.smooth_mul(v, r)
        else:
            v = d.star(v, r)
    return v


def fold_sum(terms):
    vs = []
    for sign, term in terms:
        if sign == "" and term[0][1][0] == "-":
            # the sign that opens a sum applies to its whole first term
            sign, term = "-", (("", term[0][1][1]),) + term[1:]
        v = fold_term(term)
        vs.append(negate(v) if sign.strip() == "-" else v)
    if len(vs) == 1:
        return vs[0]
    if not any(isinstance(v, d.GenDist) for v in vs):
        return d.sum_of(*vs)
    return d.add(*(v if isinstance(v, d.GenDist) else d.smooth_dist(v)
                   for v in vs))


def folded(terms):
    v = fold_sum(terms)
    return v if isinstance(v, d.GenDist) else d.smooth_dist(v)


# -- drawn texts -------------------------------------------------------------

_smooth = st.sampled_from(SMOOTH).map(s)
_forms = st.sampled_from(["x", "w-x", "-x"])
_step = st.builds(lambda w, form: ("H", w, form),
                  st.sampled_from(LOCATIONS), _forms)
_delta = st.builds(lambda w, k, form: ("d", w, k, form),
                   st.sampled_from(LOCATIONS),
                   st.sampled_from([None, 0, 1, 2, 3]), _forms)


def _signed(factor):
    return st.one_of(factor, factor.map(lambda f: ("-", f)))


@st.composite
def terms(draw, depth=0, deltas=True):
    """A term with no product that needs the algebra: smooth factors with
    steps and step-only sums, or with one delta or one sum."""
    kinds = ["smooth", "steps"] + (["delta"] if deltas else [])
    kind = draw(st.sampled_from(kinds))
    fs = draw(st.lists(_smooth, max_size=2))
    if kind == "steps":
        sub = sums(depth + 1, deltas=False).map(lambda t: ("p", t))
        dist = st.one_of(_step, sub) if depth < 2 else _step
        fs += draw(st.lists(_signed(dist), min_size=1, max_size=3))
    elif kind == "delta":
        sub = sums(depth + 1).map(lambda t: ("p", t))
        fs.append(draw(_signed(st.one_of(_delta, sub) if depth < 2
                                else _delta)))
    if not fs:
        fs = [draw(_smooth)]
    fs = draw(st.permutations(fs))
    term = [("", fs[0])] + [("*", f) for f in fs[1:]]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(1, len(term)))
        term.insert(at, ("/", s(draw(st.sampled_from(DIVISORS)))))
    return tuple(term)


@st.composite
def sums(draw, depth=0, deltas=True):
    n = draw(st.integers(1, 4 if depth == 0 else 2))
    first = draw(st.sampled_from(["", "-", "+"]))
    return tuple((first if i == 0 else draw(st.sampled_from([" + ", " - "])),
                  draw(terms(depth, deltas))) for i in range(n))


TRAP_SUM = ((("", ((("", s(TRAP)), ("*", H(0)), ("*", H(3, "w-x"))))),
             (" + ", (("", H(1)),))))


@settings(max_examples=150, deadline=None)
@given(sums())
@example(TRAP_SUM)
@example(((("", (("", H(2)), ("*", H(1, "w-x")))),)))
@example(((("", (("", H(1)), ("*", s("x")), ("*", H(1, "-x")))),
           (" - ", (("", H(0)),)))))
@example(((("", (("", H(3, "w-x")), ("*", s(TRAP)))), (" + ", (("", H(1)),)))))
@example(((("", (("", H(3, "w-x")), ("*", s(TRAP)), ("*", s("exp(x)")))),)))
@example(((("", (("", s("x")), ("*", ("d", Fraction(0), None, "x")),
                  ("*", H(0)))),)))
@example(((("-", (("", ("-", ("d", Fraction(1), 2, "-x"))), ("/", s("x")),
                  ("*", s("exp(x)")))),)))
def test_parse_equals_the_fold_of_public_operations(terms):
    text = sum_text(terms)
    try:
        want = repr(folded(terms))
    except DistAlgError as exc:
        with pytest.raises(type(exc)) as got:
            d.parse_dist(text)
        assert str(got.value) == str(exc)
        return
    assert repr(d.parse_dist(text)) == want, text


def test_trap_term_vanishes_with_its_breakpoints():
    F = d.parse_dist(sum_text(TRAP_SUM))
    assert F == d.make_piecewise([1], [d.ZERO, d.ONE])
    assert repr(F) == repr(d.parse_dist("H(x-1)"))


def test_a_term_zero_by_its_expansion_is_dropped():
    """A polynomial piece that expands to zero is the constant 0, so its
    term leaves nothing behind, with or without a left bound."""
    F = d.parse_dist(f"H(3-x)*{TRAP} + H(x-1)")
    assert d.format_dist(F) == "H(x-1)"
    G = d.parse_dist(f"H(3-x)*{TRAP}*exp(x)")
    assert d.format_dist(G) == "0"
    assert d.equal_dist(G, d.zero_dist()) is d.Verdict.EQUAL


def test_like_mixed_terms_cancel_and_collect():
    """Terms with exp or sin pieces collect like polynomial ones: F - F is
    zero, and the text of a collected sum is a fixed point."""
    for text in ("(1+x)*exp(x)*H(x)", "sin(x)*(x^2+3)*H(1-x) + delta(x)",
                 "(2+4*x)*exp(-x)*H(x-1)*H(3-x) + x*cos(x)"):
        F = d.parse_dist(text)
        assert d.is_zero_dist(d.sub(F, F))
        assert d.format_dist(d.parse_dist(f"{text} - ({text})")) == "0"
        s = d.format_dist(d.add(F, F))
        assert d.format_dist(d.parse_dist(s)) == s
        assert d.parse_dist(s) == d.scale(2, F)
    assert d.format_dist(d.parse_dist(
        "(1+x)*exp(x) + (1+x)*exp(x)")) == "2*(1 + x)*exp(x)"


def test_empty_interval_is_the_zero_term():
    assert d.parse_dist("H(x-2)*H(1-x)") == d.zero_dist()
    assert d.parse_dist("H(x-1)*H(1-x)") == d.zero_dist()
    assert d.parse_dist("H(x-2)*H(1-x) + x*H(x)") == d.parse_dist("x*H(x)")


# -- errors ------------------------------------------------------------------

# (text, error, message, position) as the parser reports them
BAD_INPUTS = [
    ("x +   ?", ParseError, "unexpected character '?'", 6),
    ("H(x) *  \t#", ParseError, "unexpected character '#'", 9),
    ("1.", ParseError, "unexpected character '.'", 1),
    ("delta[1.5](x)", ParseError, "expected a nonnegative integer", 6),
    ("delta[-1](x)", ParseError, "expected a nonnegative integer", 6),
    ("delta[2(x)", ParseError, "expected ']'", 7),
    ("H(2*x)", ParseError, "expected '-'", 3),
    ("H(x^2)", ParseError, "expected ')'", 3),
    ("H(1-2)", ParseError, "expected x after the constant", 4),
    ("delta(-2)", ParseError, "expected x in linear argument", 7),
    ("H(x-y)", ParseError, "expected a number", 4),
    ("H(x-3/0)", ParseError, "zero denominator", 4),
    ("H(x)*H(x) x", ParseError, "unexpected trailing input 'x'", 10),
    ("delta(x) 2", ParseError, "unexpected trailing input '2'", 9),
    ("H(x)/0", ParseError, "division by zero", 4),
    ("3/0*x", ParseError, "division by zero", 1),
    ("x/(1-1)", ParseError, "division by zero", 1),
    ("H(x)^2", ParseError, "'^' needs a smooth base", 4),
    ("", ParseError, "expected a smooth operand", 0),
    ("exp(H(x))", ParseError, "'H' is not a smooth function here", 4),
    ("delta(x)*H(x)", SemanticsError, "a delta factor can only be multiplied "
     "by smooth factors in construction syntax; use the mul command for the "
     "algebra product", 8),
    ("x*H(x)*2*delta(x-1)", SemanticsError, "a delta factor can only be "
     "multiplied by smooth factors in construction syntax; use the mul "
     "command for the algebra product", 8),
    ("x/H(x)", SemanticsError, "divisor must be smooth", 1),
]


@pytest.mark.parametrize("text,error,message,position", BAD_INPUTS)
def test_bad_input_error_and_position(text, error, message, position):
    with pytest.raises(error) as exc:
        d.parse_dist(text)
    assert type(exc.value) is error
    assert str(exc.value) == f"{message} (at position {position})"


# -- one assembly per sum ----------------------------------------------------


def _bench_gen():
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _bench_texts():
    gen = _bench_gen()
    rng = random.Random(20)
    long_sum = gen.build_dist(d, gen.long_sum(rng, 100))
    F, G = (gen.build_dist(d, gen.wide_dist(rng)) for _ in range(2))
    return [d.format_dist(long_sum), d.format_dist(d.star(F, G))]


@pytest.mark.parametrize("text", _bench_texts(), ids=["long_sum", "product"])
def test_a_sum_is_assembled_once(monkeypatch, text):
    """Parsing a 100-term step-and-delta sum, or a wide product as the
    textio benchmark formats it, assembles once and multiplies no
    distributions."""
    calls = Counter()

    def counted(name, f):
        def wrapper(*args, **kw):
            calls[name] += 1
            return f(*args, **kw)
        return wrapper

    for mod in (dist_mod, star_mod, parser_mod):
        for name in ("_assemble", "make_piecewise", "star"):
            if callable(getattr(mod, name, None)):
                monkeypatch.setattr(mod, name,
                                    counted(name, getattr(mod, name)))
    d.parse_dist(text)
    assert calls == Counter({"_assemble": 1})


# -- tokens and locations ----------------------------------------------------

_OLD_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<id>[A-Za-z_]+)"
                           r"|(?P<op>[-+*/^()\[\],;])|(?P<bad>\S))")


def _reference_tokenize(text):
    """The tokenizer as it read one match object per token."""
    out = []
    for m in _OLD_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}",
                             m.start(kind))
        out.append((kind, m.group(kind), m.start(kind)))
    out.append(("end", "", len(text)))
    return out


def _token_corpus():
    """Acceptance 12's texts, the textio benchmark's families and a few
    spaced, decimal and reflected forms."""
    texts = [d.format_dist(F) for F in random_corpus(23, 200)]
    gen = _bench_gen()
    rng = random.Random(21)
    for n in (10, 50, 100):
        texts.append(d.format_dist(gen.build_dist(d, gen.long_sum(rng, n))))
    for _ in range(40):
        F, G = (gen.build_dist(d, gen.wide_dist(rng)) for _ in range(2))
        texts.append(d.format_dist(d.star(F, G)))
    texts += ["", "   ", " H( x - 1.25 ) *delta[2](3/4-x)\t", "x^2\n+ 1 ",
              "exp(-x/2)*H(-x+0.5) - i*x"]
    return texts


def _outcome(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as e:
        return type(e), str(e)


def test_tokens_match_the_reference_tokenizer():
    for text in _token_corpus():
        assert parser_mod._tokenize(text) == _reference_tokenize(text)


@pytest.mark.parametrize("text", ["x $ 1", "H(x-1)#", "  @", "H(x-1.)",
                                  "delta(x) + é", "1,2;3"])
def test_bad_character_matches_the_reference_tokenizer(text):
    assert (_outcome(parser_mod._tokenize, text)
            == _outcome(_reference_tokenize, text))


def test_locations_are_read_without_fractions(monkeypatch):
    """A text of H and delta factors only, with rational and decimal
    locations, reads each location from integers and builds no
    Fraction."""
    text = ("H(x-1/3)*H(-x+2.5) + delta(x-0.25) - delta[1](7/2-x) "
            "+ H(x+12.125) + delta[2](x+10/4) - H(1.5/3-x) + H(-x-0.75)")
    want = d.parse_dist(text)
    calls = []
    new = Fraction.__new__

    def counted(cls, *args, **kw):
        calls.append(args)
        return new(cls, *args, **kw)

    monkeypatch.setattr(Fraction, "__new__", counted)
    got = d.parse_dist(text)
    monkeypatch.undo()
    assert calls == []
    assert repr(got) == repr(want)
    assert d.format_dist(got) == (
        "H(x+97/8)*H(-x-5/2) + H(x+5/2)*H(-x-3/4) + H(x-1/3)*H(-x+1/2) "
        "+ 2*H(x-1/2)*H(-x+5/2) + H(x-5/2)*H(-x+7/2) + H(x-7/2) "
        "+ delta[2](x+5/2) + delta(x-1/4) + delta[1](x-7/2)")
