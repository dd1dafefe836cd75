from itertools import product

import pytest

from srcartier.monomials import (
    EXPONENT_CAP,
    MonomialIdeal,
    add,
    colon,
    contains,
    divides,
    format_monomial,
    frobenius_power,
    minimize,
    multiply,
    parse_monomial,
    power,
    principal,
    unit_ideal,
    zero_ideal,
)


def m(text, n):
    return parse_monomial(text, n)


def ideal(n, *gens):
    return minimize([parse_monomial(g, n) for g in gens], n)


def brute_colon_member(a, b, mono):
    """Membership oracle: mono is in (a : b) iff mono*g lies in a for all g."""
    return all(contains(a, multiply(mono, g)) for g in b.sorted_gens())


class TestMonomialArithmetic:
    def test_divides(self):
        assert not divides(m("x1*x2*x3", 3), m("x1^2*x2", 3))
        assert divides(m("x1*x3", 3), m("x1^2*x3^2", 3))

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            divides(m("x1", 1), m("x1", 2))

    def test_overflow(self):
        with pytest.raises(OverflowError):
            power(m("x1^2", 1), 1 << 17)


class TestGrammar:
    def test_roundtrip(self):
        for text in ["1", "x1", "x1^2*x3", "x2^5", "x1*x2*x3"]:
            assert format_monomial(parse_monomial(text, 3)) == text

    def test_unit(self):
        assert parse_monomial("1", 3) == (0, 0, 0)

    def test_bad_tokens(self):
        for bad in ["", "y1", "x0", "x1^", "x1**x2", "x1^-1"]:
            with pytest.raises(ValueError):
                parse_monomial(bad, 3)

    def test_ambient_too_small(self):
        with pytest.raises(ValueError):
            parse_monomial("x4", 3)

    def test_exponent_cap(self):
        assert parse_monomial(f"x1^{EXPONENT_CAP}", 1) == (EXPONENT_CAP,)
        for text in [f"x1^{EXPONENT_CAP + 1}", f"x1^{EXPONENT_CAP}*x1", "x1^50000000"]:
            with pytest.raises(ValueError, match="exponent out of range"):
                parse_monomial(text, 1)


class TestMinimize:
    def test_absorbs_multiples(self):
        assert ideal(2, "x1*x2", "x1^2*x2^2") == ideal(2, "x1*x2")

    def test_already_minimal(self):
        gens = ["x1^2*x2", "x1*x2*x3", "x2*x3^2"]
        assert ideal(3, *gens).gens_strings() == gens

    def test_empty_is_zero_ideal(self):
        assert minimize([], 3) == zero_ideal(3)

    def test_idempotent(self):
        i1 = ideal(3, "x1*x2", "x1^2", "x2*x3", "x1*x2*x3")
        assert minimize(i1.gens, 3) == i1


class TestFrobeniusPower:
    def test_path_ideal(self):
        assert frobenius_power(ideal(3, "x1*x3"), 2) == ideal(3, "x1^2*x3^2")

    def test_two_variables(self):
        assert frobenius_power(ideal(2, "x1", "x2"), 2) == ideal(2, "x1^2", "x2^2")

    def test_identity(self):
        i = ideal(3, "x1*x2", "x2*x3")
        assert frobenius_power(i, 1) == i

    def test_bad_q(self):
        with pytest.raises(ValueError):
            frobenius_power(ideal(2, "x1"), 0)


class TestColon:
    def test_pinned_fixture(self):
        got = colon(ideal(3, "x1^2*x2^2", "x2^2*x3^2"), ideal(3, "x1*x2", "x2*x3"))
        assert got == ideal(3, "x1^2*x2", "x1*x2*x3", "x2*x3^2")

    def test_two_variable_fixture(self):
        got = colon(ideal(2, "x1^2", "x2^2"), ideal(2, "x1", "x2"))
        assert got == ideal(2, "x1^2", "x1*x2", "x2^2")

    def test_colon_by_unit(self):
        i = ideal(3, "x1*x2", "x2*x3")
        assert colon(i, unit_ideal(3)) == i

    def test_colon_by_zero(self):
        assert colon(ideal(2, "x1"), zero_ideal(2)) == unit_ideal(2)
        assert colon(zero_ideal(2), zero_ideal(2)) == unit_ideal(2)

    def test_membership_oracle_on_fixture(self):
        a = ideal(3, "x1^2*x2^2", "x2^2*x3^2")
        b = ideal(3, "x1*x2", "x2*x3")
        q = colon(a, b)
        for exps in product(range(5), repeat=3):
            assert contains(q, exps) == brute_colon_member(a, b, exps)


class TestAddIntersect:
    def test_add_fixture(self):
        got = add(ideal(3, "x1^2*x2^2", "x2^2*x3^2"), ideal(3, "x1*x2*x3"))
        assert got == ideal(3, "x1^2*x2^2", "x2^2*x3^2", "x1*x2*x3")

    def test_add_zero(self):
        i = ideal(2, "x1*x2")
        assert add(i, zero_ideal(2)) == i


class TestContainsEquals:
    def test_witness_not_in_rhs(self):
        rhs = ideal(3, "x1^2*x2^2", "x2^2*x3^2", "x1*x2*x3")
        assert not contains(rhs, m("x1^2*x2", 3))

    def test_contains_multiple(self):
        assert contains(ideal(3, "x1*x3"), m("x1^2*x3^2", 3))

    def test_frobenius_plus_product(self):
        lhs = ideal(2, "x1^2", "x1*x2", "x2^2")
        rhs = add(frobenius_power(ideal(2, "x1", "x2"), 2), principal(m("x1*x2", 2)))
        assert lhs == rhs

    def test_zero_and_unit(self):
        assert not contains(zero_ideal(2), m("x1", 2))
        assert contains(unit_ideal(2), m("1", 2))
        assert MonomialIdeal(2, frozenset()).is_zero()
