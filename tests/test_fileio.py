import pytest

from srcartier import fileio
from srcartier.complexes import build_complex
from srcartier.fileio import (
    format_facet_file,
    format_ideal_file,
    parse_facet_file,
    parse_ideal_file,
)
from srcartier.monomials import minimize, parse_monomial


def ideal(n, *gens):
    return minimize([parse_monomial(g, n) for g in gens], n)


class TestFacetFiles:
    def test_basic(self):
        cx = parse_facet_file("n = 3\n1 2\n2 3\n")
        assert cx == build_complex([{1, 2}, {2, 3}], 3)

    def test_header_optional(self):
        cx = parse_facet_file("1 2\n2 3\n")
        assert cx.n == 3

    def test_header_extends_ground_set(self):
        cx = parse_facet_file("n = 5\n1 2\n")
        assert cx.n == 5

    def test_comments_and_blanks(self):
        text = "# a comment\nn = 3  # trailing\n\n1 2   # the edge\n2 3\n"
        assert parse_facet_file(text) == build_complex([{1, 2}, {2, 3}], 3)

    def test_empty_facet_marker(self):
        cx = parse_facet_file("n = 2\n-\n")
        assert cx.facets == frozenset({0})

    def test_empty_file_is_irrelevant_complex(self):
        cx = parse_facet_file("")
        assert cx.n == 1 and cx.facets == frozenset({0})

    def test_n_override(self):
        cx = parse_facet_file("n = 3\n1 2\n", n_override=4)
        assert cx.n == 4

    def test_bad_lines(self):
        with pytest.raises(ValueError):
            parse_facet_file("1 two\n")
        with pytest.raises(ValueError):
            parse_facet_file("0 1\n")
        with pytest.raises(ValueError):
            parse_facet_file("n = 2\n1 3\n")

    @pytest.mark.parametrize("text", [
        "1_0 2\n", "+4 1\n", "1 \u0663\n", "n = \u0661\u0662\n1 2\n", "1 2-3\n", "1 - 2\n"])
    def test_only_ascii_integers(self, text):
        # `int` alone would read each of these lines.
        with pytest.raises(ValueError, match="^bad facet line"):
            parse_facet_file(text)

    def test_negative_vertex(self):
        with pytest.raises(ValueError, match="vertices are positive"):
            parse_facet_file("1 -3\n")

    def test_roundtrip(self, whiskered_tetra, path, hollow_triangle):
        for cx in (whiskered_tetra, path, hollow_triangle, build_complex([], 2)):
            assert parse_facet_file(format_facet_file(cx)) == cx

    def test_format_deterministic(self, whiskered_tetra):
        assert format_facet_file(whiskered_tetra) == format_facet_file(whiskered_tetra)
        assert format_facet_file(whiskered_tetra).startswith("n = 5\n1 5\n2 5\n1 2 3\n")


class TestIdealFiles:
    def test_basic(self):
        got = parse_ideal_file("n = 3\nx1*x2\nx2*x3\n")
        assert got == ideal(3, "x1*x2", "x2*x3")

    def test_header_optional(self):
        got = parse_ideal_file("x1*x2\nx2*x3\n")
        assert got.n == 3

    def test_header_optional_pads_shorter_monomials(self, monkeypatch):
        calls = []

        def counted(text, n=None):
            calls.append(text)
            return parse_monomial(text, n)

        monkeypatch.setattr(fileio, "parse_monomial", counted)
        got = parse_ideal_file("x3\nx1*x2\n")
        assert got == ideal(3, "x3", "x1*x2")
        assert calls == ["x3", "x1*x2"]

    def test_too_many_variables_without_header(self):
        with pytest.raises(ValueError) as exc:
            parse_ideal_file("x1\nx10000000\n")
        assert str(exc.value) == "variable x10000000 exceeds the limit of 1024 variables"

    def test_minimizes(self):
        got = parse_ideal_file("n = 2\nx1*x2\nx1^2*x2^2\n")
        assert got == ideal(2, "x1*x2")

    def test_empty_file_is_zero_ideal(self):
        got = parse_ideal_file("n = 3\n")
        assert got.n == 3 and got.is_zero()

    def test_n_override(self):
        got = parse_ideal_file("x1\n", n_override=4)
        assert got.n == 4

    def test_bad_monomial(self):
        with pytest.raises(ValueError):
            parse_ideal_file("n = 2\ny1\n")
        with pytest.raises(ValueError):
            parse_ideal_file("n = 2\nx3\n")

    @pytest.mark.parametrize("text", [
        "x\u06632\n", "x1^\u0662\n", "x1_0\n", "x+1\n", "n = \u0661\u0662\nx1\n"])
    def test_only_ascii_integers(self, text):
        with pytest.raises(ValueError, match="^bad monomial token"):
            parse_ideal_file(text)

    def test_roundtrip(self):
        for i in (ideal(3, "x1^2*x2", "x2*x3^2"), ideal(2, "1"),
                  ideal(4, "x1", "x2*x3*x4")):
            assert parse_ideal_file(format_ideal_file(i)) == i

    def test_format_sorted(self):
        text = format_ideal_file(ideal(3, "x2*x3^2", "x1^2*x2", "x1*x2*x3"))
        assert text == "n = 3\nx1^2*x2\nx1*x2*x3\nx2*x3^2\n"
