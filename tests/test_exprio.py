import random
import string
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germlift import exprio, poly
from germlift.errors import ExprSyntaxError, UnknownVariable
from germlift.exprio import (
    MAX_DIGITS,
    MAX_NESTING,
    MAX_PRODUCTS,
    MAX_TERMS,
    _power_products,
    parse_poly,
)
from germlift.poly import VarSet

from oracles import random_poly

try:
    import sympy
except ImportError:
    sympy = None


def test_paper_component(xy):
    p = parse_poly("y^5 + x*y", xy)
    assert str(p) == "y^5 + x*y"


def test_zero():
    R = VarSet(["x"])
    assert parse_poly("0", R).is_zero
    assert str(parse_poly("0", R)) == "0"


def test_leading_terms_of_h():
    R = VarSet(["X", "Y", "Z"])
    p = parse_poly("256*X^3 + 27*Y^4 + 144*X*Y^2*Z", R)
    assert len(p.terms) == 3


def test_printer_canonical(xy):
    p = parse_poly("x + y", xy) + parse_poly("x - y", xy)
    assert str(p) == "2*x"


def test_rational_literals(xy):
    p = parse_poly("1/2*x + 3/4", xy)
    assert str(p) == "1/2*x + 3/4"


def test_negative_head(xy):
    p = parse_poly("-x + y", xy)
    assert str(p) in ("-x + y", "y - x")
    assert parse_poly(str(p), xy) == p


def test_parens_and_pow(xy):
    p = parse_poly("(x + y)^3", xy)
    q = parse_poly("x^3 + 3*x^2*y + 3*x*y^2 + y^3", xy)
    assert p == q


def test_roundtrip_random():
    rng = random.Random(2024)
    R = VarSet(["x", "y", "z"])
    for _ in range(300):
        p = random_poly(rng, R, max_deg=4, max_terms=6, coeff_bound=20)
        assert parse_poly(str(p), R) == p


def test_syntax_error_offset(xy):
    with pytest.raises(ExprSyntaxError) as e:
        parse_poly("x + ?", xy)
    assert e.value.offset == 4
    # a digit to str.isdigit that int() cannot read
    with pytest.raises(ExprSyntaxError) as e:
        parse_poly("x^\u00b9", xy)
    assert e.value.offset == 2


def test_nesting_depth_is_bounded(xy):
    ok = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_poly(ok, xy) == parse_poly("x", xy)
    with pytest.raises(ExprSyntaxError) as e:
        parse_poly("(" * 5000 + "x" + ")" * 5000, xy)
    assert e.value.offset == MAX_NESTING


def test_power_term_count_is_bounded():
    # (x+y+z+1)^n has C(n+3, 3) terms: 1771 at n = 20, 12341 at n = 40
    xyz = VarSet(["x", "y", "z"])
    assert MAX_TERMS >= 1771
    assert len(parse_poly("(x + y + z + 1)^20", xyz).terms) == 1771
    with pytest.raises(ExprSyntaxError) as e:
        parse_poly("2*(x + y + z + 1)^40", xyz)
    assert e.value.offset == 17
    assert f"more than {MAX_TERMS} terms" in str(e.value)
    # a one-term base has one term at any power
    assert parse_poly("(x*y)^100000", xyz).terms.keys() == {(100000, 100000, 0)}


def test_power_work_is_bounded(monkeypatch):
    xyz = VarSet(["x", "y", "z"])
    # the count is exact for a dense base: every power has all its terms.
    # Every term product of a power is made in poly.add_products.
    made = []
    add_products = poly.add_products

    def counting(acc, a, b):
        made.append(len(a) * len(b))
        return add_products(acc, a, b)

    monkeypatch.setattr(poly, "add_products", counting)
    assert len(parse_poly("(x + y + z + 1)^20", xyz).terms) == 1771
    assert sum(made) == _power_products(4, 20) <= MAX_PRODUCTS
    made.clear()
    # 2000 terms pass the term bound, and 1.65 million products do not
    with pytest.raises(ExprSyntaxError) as e:
        parse_poly("y + (x + 1)^1999", xyz)
    assert e.value.offset == 11
    assert f"more than {MAX_PRODUCTS} term products" in str(e.value)
    assert not made


def test_text_work_is_bounded_as_a_whole():
    xyz = VarSet(["x", "y", "z"])
    # each power makes 62,516 products and passes on its own; two do not
    one = "(x + y + z + 1)^20"
    with pytest.raises(ExprSyntaxError) as e:
        parse_poly(" + ".join([one] * 2), xyz)
    assert e.value.offset == len(one) + 3 + one.index("^")
    assert f"more than {MAX_PRODUCTS} term products" in str(e.value)
    # products count too: the j-th `*` of (x + y)*(x + y)*... makes 2(j + 1)
    # products, so 200 factors make 40,198 on their own.  Each `+` counts the
    # terms it adds, 3 in the power's base and 1 in each factor, so after
    # the power the 192nd `*` passes the bound: 62,516 + 3 + 193 + 192 * 195
    chain = "*".join(["(x + y)"] * 200)
    assert len(parse_poly(chain, xyz).terms) == 201
    text = f"{one} + {chain}"
    with pytest.raises(ExprSyntaxError) as e:
        parse_poly(text, xyz)
    stars = [i for i, ch in enumerate(text) if ch == "*"]
    assert e.value.offset == stars[191]
    assert f"more than {MAX_PRODUCTS} term products" in str(e.value)
    # the count is per text: a fresh text starts from zero
    assert len(parse_poly(one, xyz).terms) == 1771
    # a long sum of cheap monomials stays far below the bound
    monomials = " + ".join(f"{k}*x^{k}*y*z^2" for k in range(1, 2001))
    assert len(parse_poly(monomials, xyz).terms) == 2000


def test_sum_terms_are_charged(monkeypatch):
    xyz = VarSet(["x", "y", "z"])
    monkeypatch.setattr(exprio, "MAX_PRODUCTS", 5)
    # each `+` or `-` charges the terms it adds, cancelled ones included;
    # the first term adds to nothing and is not charged
    assert parse_poly("x + y + z - x - y - z", xyz).is_zero
    text = "x + y + z - x - y - z + 1"
    with pytest.raises(ExprSyntaxError) as e:
        parse_poly(text, xyz)
    assert e.value.offset == text.rindex("+")
    assert "more than 5 term products" in str(e.value)


def test_product_term_count_is_bounded():
    xyz = VarSet(["x", "y", "z"])
    # 45 * 45 = 2025 term products: over the bound, though the result has 231
    with pytest.raises(ExprSyntaxError) as e:
        parse_poly("y + (x + y + z)^8 * (x + y + z)^8", xyz)
    assert e.value.offset == 18
    assert f"more than {MAX_TERMS} terms" in str(e.value)
    # 44 * 45 = 1980 products pass, and so does a long chain of small factors
    assert len(parse_poly("(x + y)^43 * (x + y + z)^8", xyz).terms) > 0
    assert parse_poly("*".join(["(x + 1)"] * 10), xyz) == parse_poly("(x + 1)^10", xyz)


def test_literal_length_is_bounded(xy):
    longest = "9" * MAX_DIGITS
    assert parse_poly(f"{longest}*x^{longest}", xy).terms == {
        (int(longest), 0): int(longest)}
    for text in ("x + " + "1" * (MAX_DIGITS + 1), "x^" + "9" * 5000,
                 "x + 1/" + "7" * 5000):
        with pytest.raises(ExprSyntaxError) as e:
            parse_poly(text, xy)
        assert e.value.offset == len(text.rstrip("0123456789"))
        assert f"longer than {MAX_DIGITS} digits" in str(e.value)


def test_coefficient_length_is_bounded(xy):
    # 2^3321 has 1000 digits, 2^3322 has 1001; a denominator counts alike
    assert len(str(parse_poly("2^3321*x", xy))) == MAX_DIGITS + 2
    assert parse_poly("(1/2*x)^3321", xy).terms == {(3321, 0): Fraction(1, 2 ** 3321)}
    nines = "9" * (MAX_DIGITS // 2)
    assert parse_poly(f"{nines}*{nines}*y", xy).terms == {(0, 1): int(nines) ** 2}
    # a sum is judged by the coefficients it makes, not by the total of all
    # coefficients: many long coefficients on distinct terms load
    longest = "9" * MAX_DIGITS
    assert len(parse_poly(" + ".join(f"{longest}*x^{k}" for k in range(50)), xy).terms) == 50
    assert parse_poly(f"{longest}*y - {longest}*y + 1/3*x + 2/3*x", xy) == parse_poly("x", xy)
    small = f"1/{10 ** 999 + 1}*x"
    for text, offset in [("x + 2^3322", 5), ("(1/2*x)^3322", 7),
                         (f"{nines}*{nines}9*y", len(nines)),
                         # the term bound passes at n = 1999; 45 s to expand
                         ("(1000*x + 1)^1999", 12),
                         ("x^100000*2^3321*2", 15),
                         (f"{small} + 1/{10 ** 999 + 3}*x", len(small) + 1),
                         (f"{small} - 1/{10 ** 999 + 3}*x", len(small) + 1),
                         (f"x + {longest}*y + {longest}*y", 7 + MAX_DIGITS),
                         (f"-{longest}*y - {longest}*y", 4 + MAX_DIGITS)]:
        with pytest.raises(ExprSyntaxError) as e:
            parse_poly(text, xy)
        assert e.value.offset == offset
        assert f"coefficient longer than {MAX_DIGITS} digits" in str(e.value)


def test_first_fault_in_text_order_is_reported(xy):
    # evaluation happens while parsing, so no later fault is seen first
    for text, offset in [("(x + y + 1)^2001 + ?", 11), ("q + x)", 0),
                         ("x*q + (y", 2), ("2^20000 + 1/0", 1)]:
        with pytest.raises(ExprSyntaxError) as e:
            parse_poly(text, xy)
        assert e.value.offset == offset


# Faulty texts, each with the message and offset that it has always been
# refused with: the evaluation order of the rules and of the bounds decides
# which of several faults is reported, so these pin that order.
_ONE = "(x + y + z + 1)^20"
_CHAIN = "*".join(["(x + y)"] * 200)
_LONGEST = "9" * MAX_DIGITS
_NINES = "9" * (MAX_DIGITS // 2)
_SMALL = f"1/{10 ** 999 + 1}*x"

_FAULTS = [
    ("x + ?", ExprSyntaxError, "unexpected character '?'", 4),
    ("x^¹", ExprSyntaxError, "unexpected character '¹'", 2),
    ("(" * 5000 + "x" + ")" * 5000, ExprSyntaxError, 'parentheses nested deeper than 100', 100),
    ("2*(x + y + z + 1)^40", ExprSyntaxError, 'power would expand to more than 2000 terms', 17),
    ("y + (x + 1)^1999", ExprSyntaxError, 'text would make more than 100000 term products', 11),
    (f"{_ONE} + {_ONE}", ExprSyntaxError, 'text would make more than 100000 term products', 36),
    (f"{_ONE} + {_CHAIN}", ExprSyntaxError, 'text would make more than 100000 term products', 1556),
    ("y + (x + y + z)^8 * (x + y + z)^8", ExprSyntaxError, 'product would expand to more than 2000 terms', 18),
    ("x + " + "1" * (MAX_DIGITS + 1), ExprSyntaxError, 'numeric literal longer than 1000 digits', 4),
    ("x^" + "9" * 5000, ExprSyntaxError, 'numeric literal longer than 1000 digits', 2),
    ("x + 1/" + "7" * 5000, ExprSyntaxError, 'numeric literal longer than 1000 digits', 6),
    ("x + 2^3322", ExprSyntaxError, 'power could have a coefficient longer than 1000 digits', 5),
    ("(1/2*x)^3322", ExprSyntaxError, 'power could have a coefficient longer than 1000 digits', 7),
    (f"{_NINES}*{_NINES}9*y", ExprSyntaxError, 'product could have a coefficient longer than 1000 digits', 500),
    ("(1000*x + 1)^1999", ExprSyntaxError, 'power could have a coefficient longer than 1000 digits', 12),
    ("x^100000*2^3321*2", ExprSyntaxError, 'product could have a coefficient longer than 1000 digits', 15),
    (f"{_SMALL} + 1/{10 ** 999 + 3}*x", ExprSyntaxError, 'sum has a coefficient longer than 1000 digits', 1005),
    (f"{_SMALL} - 1/{10 ** 999 + 3}*x", ExprSyntaxError, 'sum has a coefficient longer than 1000 digits', 1005),
    (f"x + {_LONGEST}*y + {_LONGEST}*y", ExprSyntaxError, 'sum has a coefficient longer than 1000 digits', 1007),
    (f"-{_LONGEST}*y - {_LONGEST}*y", ExprSyntaxError, 'sum has a coefficient longer than 1000 digits', 1004),
    ("(x + y + 1)^2001 + ?", ExprSyntaxError, 'power would expand to more than 2000 terms', 11),
    ("q + x)", UnknownVariable, "unknown variable 'q'", 0),
    ("x*q + (y", UnknownVariable, "unknown variable 'q'", 2),
    ("2^20000 + 1/0", ExprSyntaxError, 'power could have a coefficient longer than 1000 digits', 1),
    ("x + q", UnknownVariable, "unknown variable 'q'", 4),
    ("2 x", ExprSyntaxError, "trailing input 'x'", 2),
    ("x/2", ExprSyntaxError, "trailing input '/'", 1),
    ("x^-1", ExprSyntaxError, 'exponent must be a literal natural number', 2),
    ("1/0", ExprSyntaxError, 'zero denominator', 2),
    ("x + y)", ExprSyntaxError, "trailing input ')'", 5),
    ("1/2^3/4", ExprSyntaxError, "trailing input '/'", 5),
    ("x^2/3", ExprSyntaxError, "trailing input '/'", 3),
    ("(x + y)/2", ExprSyntaxError, "trailing input '/'", 7),
    ("1/(2*x)", ExprSyntaxError, 'denominator must be a natural number', 2),
    ("1/x", ExprSyntaxError, 'denominator must be a natural number', 2),
    ("x^(2)", ExprSyntaxError, 'exponent must be a literal natural number', 2),
    ("x^y", ExprSyntaxError, 'exponent must be a literal natural number', 2),
    ("x^2^3", ExprSyntaxError, "trailing input '^'", 3),
    ("((x + y)", ExprSyntaxError, "expected ')'", 8),
    ("(x + y))", ExprSyntaxError, "trailing input ')'", 7),
    ("q^2", UnknownVariable, "unknown variable 'q'", 0),
    ("(q + 1)^2", UnknownVariable, "unknown variable 'q'", 1),
    ("1/2*q", UnknownVariable, "unknown variable 'q'", 4),
    ("(x + 1/0)^2", ExprSyntaxError, 'zero denominator', 7),
    ("1/-2", ExprSyntaxError, 'denominator must be a natural number', 2),
    ("()", ExprSyntaxError, "unexpected token ')'", 1),
    ("", ExprSyntaxError, "unexpected token ''", 0),
    ("-", ExprSyntaxError, "unexpected token ''", 1),
    ("--x", ExprSyntaxError, "unexpected token '-'", 1),
    ("+x", ExprSyntaxError, "unexpected token '+'", 0),
    ("x*", ExprSyntaxError, "unexpected token ''", 2),
    ("x^", ExprSyntaxError, 'exponent must be a literal natural number', 2),
    ("1/", ExprSyntaxError, 'denominator must be a natural number', 2),
    ("x + (y*(1/2 + q))^3", UnknownVariable, "unknown variable 'q'", 14),
    ("(x^2 + 1/3)^2*w", UnknownVariable, "unknown variable 'w'", 14),
    ("x¹ + y", UnknownVariable, "unknown variable 'x¹'", 0),
    ("é + x", UnknownVariable, "unknown variable 'é'", 0),
    ("٣ + x", ExprSyntaxError, "unexpected character '٣'", 0),
    ("(x + y)^2001/2", ExprSyntaxError, 'power would expand to more than 2000 terms', 7),
    ("x^3*(y", ExprSyntaxError, "expected ')'", 6),
    ("q?", UnknownVariable, "unknown variable 'q'", 0),
    ("(x + y + 1)^2001?", ExprSyntaxError, 'power would expand to more than 2000 terms', 11),
    ("1/0?", ExprSyntaxError, 'zero denominator', 2),
    ("x^?", ExprSyntaxError, "unexpected character '?'", 2),
    ("2?", ExprSyntaxError, "unexpected character '?'", 1),
    ("x +\t?", ExprSyntaxError, "unexpected character '?'", 4),
]


@pytest.mark.parametrize("text, kind, message, offset", _FAULTS,
                         ids=[f"fault{i}" for i in range(len(_FAULTS))])
def test_fault_table(text, kind, message, offset):
    xyz = VarSet(["x", "y", "z"])
    with pytest.raises(ExprSyntaxError) as e:
        parse_poly(text, xyz)
    assert type(e.value) is kind
    assert e.value.offset == offset
    assert str(e.value) == f"{message} (at offset {offset})"


_LEAF = st.one_of(
    st.sampled_from(["x", "y", "z"]),
    st.integers(0, 30).map(str),
    st.tuples(st.integers(0, 30), st.integers(1, 12)).map(lambda t: f"{t[0]}/{t[1]}"))


def _extend(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*"]), children).map(" ".join),
        st.tuples(children, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        children.map(lambda c: f"({c})"))


_EXPR = st.tuples(st.booleans(), st.recursive(_LEAF, _extend, max_leaves=10)).map(
    lambda t: "-" + t[1] if t[0] else t[1])


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@given(text=_EXPR)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_parse_matches_sympy(text):
    R = VarSet(["x", "y", "z"])
    gens = sympy.symbols(R.names)
    expected = sympy.Poly(sympy.sympify(text.replace("^", "**"),
                                        locals=dict(zip(R.names, gens))), *gens)
    want = {tuple(int(k) for k in e): Fraction(int(c.p), int(c.q))
            for e, c in expected.terms() if c}
    assert parse_poly(text, R).terms == want


def test_long_operator_chains(xy):
    assert parse_poly(" + ".join(["x"] * 5000), xy) == parse_poly("5000*x", xy)
    assert parse_poly(" - ".join(["y"] * 3001), xy) == parse_poly("-2999*y", xy)
    assert parse_poly("*".join(["x"] * 3000), xy) == parse_poly("x^3000", xy)


def test_unknown_variable(xy):
    with pytest.raises(UnknownVariable) as e:
        parse_poly("x + q", xy)
    assert e.value.name == "q"


def test_no_implicit_multiplication(xy):
    with pytest.raises(ExprSyntaxError):
        parse_poly("2 x", xy)


def test_variable_division_rejected(xy):
    with pytest.raises(ExprSyntaxError):
        parse_poly("x/2", xy)


def test_negative_exponent_rejected(xy):
    with pytest.raises(ExprSyntaxError):
        parse_poly("x^-1", xy)


def test_zero_denominator_rejected(xy):
    with pytest.raises(ExprSyntaxError):
        parse_poly("1/0", xy)


def test_trailing_garbage(xy):
    with pytest.raises(ExprSyntaxError):
        parse_poly("x + y)", xy)


def test_fuzz_never_crashes(xy):
    rng = random.Random(7)
    alphabet = "xy01+-*^()/ " + string.ascii_lowercase[:4]
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 16)))
        try:
            parse_poly(text, xy)
        except ExprSyntaxError:
            pass
