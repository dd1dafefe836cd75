import errno
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from srcartier import cartier, fileio
from srcartier import complexes as cxm
from srcartier import homology as hom
from srcartier.cli import main
from srcartier.complexes import FreeFacePair


@pytest.fixture
def facet_file(tmp_path):
    def write(text, name="input.facets"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


@pytest.fixture
def whiskered_file(facet_file):
    return facet_file("n = 5\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n1 5\n2 5\n", "whiskered_tetra.facets")


@pytest.fixture
def infgen_file(facet_file):
    return facet_file("n = 3\n1 3\n2\n", "infgen.facets")


def disjoint_edges(k):
    """An .ideal file with the generators x1*x2, x3*x4, ..., x(2k-1)*x(2k)."""
    return f"n = {2 * k}\n" + "".join(f"x{2 * j + 1}*x{2 * j + 2}\n" for j in range(k))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_pg_exit_code(self, capsys, whiskered_file):
        code, out, _ = run(capsys, "classify", whiskered_file)
        assert code == 0
        assert "principally generated" in out

    def test_infgen_exit_code(self, capsys, infgen_file):
        code, out, _ = run(capsys, "classify", infgen_file)
        assert code == 3
        assert "infinitely generated" in out
        assert "free face: {1} in facet {1,3}" in out
        assert "x1^2*x2" in out

    def test_json_shape(self, capsys, infgen_file):
        code, out, _ = run(capsys, "classify", infgen_file, "--json")
        assert code == 3
        d = json.loads(out)
        assert d["verdict"] == "infgen"
        assert d["n"] == 3 and d["V"] == [1, 2, 3]
        assert d["free_face"] == [1] and d["facet"] == [1, 3]
        assert d["witness_monomial"] == "x1^2*x2"
        assert d["colon_lhs"] == ["x1^2*x2", "x1*x2*x3", "x2*x3^2"]

    def test_reruns_byte_identical(self, capsys, whiskered_file):
        _, out1, _ = run(capsys, "classify", whiskered_file, "--json")
        _, out2, _ = run(capsys, "classify", whiskered_file, "--json")
        assert out1 == out2

    def test_ideal_input(self, capsys, tmp_path):
        p = tmp_path / "i.ideal"
        p.write_text("n = 3\nx1*x2\nx2*x3\n")
        code, out, _ = run(capsys, "classify", str(p), "--json")
        assert code == 3
        assert json.loads(out)["verdict"] == "infgen"

    def test_format_override(self, capsys, tmp_path):
        p = tmp_path / "data.txt"
        p.write_text("n = 3\n1 2\n2 3\n")
        code, _, _ = run(capsys, "classify", str(p), "--format", "facets")
        assert code == 0

    def test_unknown_extension_is_input_error(self, capsys, tmp_path):
        p = tmp_path / "data.txt"
        p.write_text("n = 3\n1 2\n")
        code, _, err = run(capsys, "classify", str(p))
        assert code == 1 and "format" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "classify", "/nonexistent.facets")
        assert code == 1 and "error" in err

    def test_malformed_file(self, capsys, facet_file):
        code, _, err = run(capsys, "classify", facet_file("1 two\n"))
        assert code == 1 and "error" in err

    def test_inconsistency_exit_code(self, capsys, infgen_file, monkeypatch):
        broken = cartier.classify_via_free_face

        def flipped(cx):
            r = broken(cx)
            return type(r)(**{**r.__dict__, "verdict": cartier.Verdict.PRINCIPALLY_GENERATED})

        monkeypatch.setattr(cartier, "classify_via_free_face", flipped)
        code, _, err = run(capsys, "classify", infgen_file)
        assert code == 2 and "inconsistency" in err


class TestStructureCommands:
    def test_free_faces(self, capsys, infgen_file):
        code, out, _ = run(capsys, "free-faces", infgen_file, "--json")
        assert code == 0
        assert json.loads(out) == [
            {"free_face": [1], "facet": [1, 3]},
            {"free_face": [3], "facet": [1, 3]},
        ]

    def test_free_faces_none(self, capsys, whiskered_file):
        code, out, _ = run(capsys, "free-faces", whiskered_file)
        assert code == 0 and "no free faces" in out

    def test_collapse(self, capsys, facet_file):
        code, out, _ = run(capsys, "collapse", facet_file("n = 3\n1 2\n2 3\n"), "--json")
        assert code == 0
        d = json.loads(out)
        assert len(d["steps"]) == 2
        assert len(d["final_facets"]) == 1

    def test_core(self, capsys, facet_file):
        code, out, _ = run(capsys, "core", facet_file("n = 4\n1 2 4\n2 3 4\n1 3 4\n"), "--json")
        assert code == 0
        d = json.loads(out)
        assert d["n"] == 3
        assert d["vertex_map"] == [1, 2, 3]
        assert d["facets"] == [[1, 2], [1, 3], [2, 3]]

    def test_nonfaces(self, capsys, whiskered_file):
        code, out, _ = run(capsys, "nonfaces", whiskered_file, "--json")
        assert code == 0
        assert json.loads(out) == [[3, 5], [4, 5], [1, 2, 5], [1, 2, 3, 4]]


class TestColon:
    def test_identity_fails(self, capsys, tmp_path):
        p = tmp_path / "i.ideal"
        p.write_text("n = 3\nx1*x2\nx2*x3\n")
        code, out, _ = run(capsys, "colon", str(p), "--json")
        assert code == 0
        d = json.loads(out)
        assert d["equal"] is False
        assert d["lhs"] == ["x1^2*x2", "x1*x2*x3", "x2*x3^2"]
        assert d["offending"] == ["x1^2*x2", "x2*x3^2"]

    def test_identity_holds(self, capsys, tmp_path):
        p = tmp_path / "i.ideal"
        p.write_text("n = 3\nx1*x2*x3\n")
        code, out, _ = run(capsys, "colon", str(p), "--json")
        assert code == 0 and json.loads(out)["equal"] is True

    def test_q_flag(self, capsys, tmp_path):
        p = tmp_path / "i.ideal"
        p.write_text("n = 3\nx1*x2*x3\n")
        code, out, _ = run(capsys, "colon", str(p), "--q", "3", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["q"] == 3 and d["equal"] is True

    def test_bad_q(self, capsys, tmp_path):
        p = tmp_path / "i.ideal"
        p.write_text("n = 2\nx1*x2\n")
        code, _, err = run(capsys, "colon", str(p), "--q", "1")
        assert code == 1 and "error" in err

    def test_zero_ideal(self, capsys, tmp_path):
        p = tmp_path / "i.ideal"
        p.write_text("n = 2\n")
        code, out, _ = run(capsys, "colon", str(p))
        assert code == 0 and "regular" in out

    def test_facets_input(self, capsys, infgen_file):
        code, out, err = run(capsys, "colon", infgen_file, "--json")
        assert code == 0 and json.loads(out)["equal"] is False
        assert err == ""

    @pytest.mark.parametrize("q", ["2", "3"])
    def test_not_squarefree_note(self, capsys, tmp_path, q):
        # x_V^{q-1} is never in I^[q]:I when a generator is not squarefree,
        # so the identity fails with no offending generator to name.
        p = tmp_path / "i.ideal"
        p.write_text("n = 2\nx1^2\n")
        code, out, err = run(capsys, "colon", str(p), "--q", q)
        qm = int(q) - 1
        assert code == 0
        assert out == (f"lhs I^[{q}]:I = (x1^{2 * qm})\n"
                       f"rhs I^[{q}] + (xV^{qm}) = ({'x1' if qm == 1 else f'x1^{qm}'})\n"
                       "equal: no\n")
        assert err == (f"note: the ideal is not squarefree, so xV^{qm} is not in "
                       f"I^[{q}]:I and the paper's identity does not apply\n")

    @pytest.mark.parametrize("text, flags", [
        ("x10000000\n", ()),
        ("n = 10000000\nx1\n", ()),
        ("x1\n", ("--n", "10000000")),
    ])
    @pytest.mark.parametrize("command", ["colon", "classify"])
    def test_too_many_variables(self, capsys, tmp_path, command, text, flags):
        # Rejected before any dense 10^7-tuple is built.
        p = tmp_path / "i.ideal"
        p.write_text(text)
        code, out, err = run(capsys, command, str(p), *flags)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "limit of 1024 variables" in err

    @pytest.mark.parametrize("command", ["colon", "classify", "nonfaces"])
    def test_negative_n(self, capsys, tmp_path, command):
        p = tmp_path / "empty.ideal"
        p.write_text("")
        assert run(capsys, command, str(p), "--n", "-2") == (
            1, "", "error: n=-2 outside [0, 1024]\n")

    def test_zero_n_is_the_full_simplex(self, capsys, tmp_path):
        p = tmp_path / "empty.ideal"
        p.write_text("")
        assert run(capsys, "classify", str(p), "--n", "0") == (
            0, "verdict: principally generated\nn: 0\nV: {}\ncore facets: {}\n", "")

    @pytest.mark.parametrize("command", ["colon", "classify"])
    def test_huge_exponent(self, capsys, tmp_path, command):
        # Rejected while parsing, before a 5*10^7-bit packed code is built.
        p = tmp_path / "i.ideal"
        p.write_text("n = 2\nx1^50000000*x2\n")
        assert run(capsys, command, str(p)) == (1, "", "error: exponent out of range\n")

    @pytest.mark.parametrize("k", range(1, 13))
    def test_both_routes_print_the_same_bytes(self, capsys, monkeypatch, tmp_path, k):
        # k disjoint edges: the complex has 2^k facets for k generators.
        p = tmp_path / "edges.ideal"
        p.write_text(disjoint_edges(k))
        outputs = []
        for per_generator in (0, 1 << 20):  # monomials.colon, then the facet kernel
            monkeypatch.setattr(cartier, "_FACETS_PER_GENERATOR", per_generator)
            outputs.append([run(capsys, "colon", str(p), *flags)
                            for flags in ((), ("--json",), ("--q", "3"))])
        assert outputs[0] == outputs[1]
        assert all(code == 0 and err == "" for code, _, err in outputs[0])

    @pytest.mark.parametrize("k", [20, 24])
    def test_many_disjoint_edges(self, capsys, tmp_path, k):
        # The complex has 2^k facets; `colon` must not list them, and it is
        # not held to the dualization budget of the commands that need a
        # complex.
        p = tmp_path / "edges.ideal"
        p.write_text(disjoint_edges(k))
        code, out, err = run(capsys, "colon", str(p), "--json")
        d = json.loads(out)
        assert (code, err, d["equal"], d["offending"]) == (0, "", True, [])
        assert len(d["lhs"]) == k + 1

    def test_variable_limit_is_inclusive(self, capsys, tmp_path):
        p = tmp_path / "i.ideal"
        p.write_text("x1*x1024\n")
        code, out, _ = run(capsys, "colon", str(p), "--json")
        assert code == 0 and json.loads(out)["equal"] is True


class TestHomologyCommands:
    def test_homology(self, capsys, facet_file):
        f = facet_file("n = 3\n1 2\n1 3\n2 3\n")
        code, out, _ = run(capsys, "homology", f, "--json")
        assert code == 0
        assert json.loads(out) == [
            {"degree": -1, "dim": 0}, {"degree": 0, "dim": 0},
            {"degree": 1, "dim": 1}]

    def test_composite_field_rejected(self, capsys, facet_file):
        f = facet_file("n = 2\n1 2\n")
        code, _, err = run(capsys, "homology", f, "--field", "4")
        assert code == 1 and "not prime" in err

    def test_field_at_or_above_2_to_31_rejected(self, capsys, facet_file):
        # 2147483659 is prime, but outside the supported range [2, 2^31).
        f = facet_file("n = 2\n1 2\n")
        code, _, err = run(capsys, "homology", f, "--field", "2147483659")
        assert code == 1 and err.startswith("error: ") and "2^31" in err

    def test_cm(self, capsys, facet_file, whiskered_file):
        f = facet_file("n = 3\n1 2 3\n")
        code, out, _ = run(capsys, "cm", f, "--json")
        assert code == 0 and json.loads(out) == {"cohen_macaulay": True, "field": 2}
        code, out, _ = run(capsys, "cm", whiskered_file, "--json")
        assert json.loads(out)["cohen_macaulay"] is False

    def test_2cm(self, capsys, facet_file):
        f = facet_file("n = 3\n1 2\n1 3\n2 3\n")
        code, out, _ = run(capsys, "2cm", f, "--field", "3", "--json")
        assert code == 0
        assert json.loads(out) == {"doubly_cohen_macaulay": True, "field": 3}

    def test_gorenstein_star(self, capsys, facet_file):
        f = facet_file("n = 3\n1 2\n1 3\n2 3\n")
        code, out, _ = run(capsys, "gorenstein-star", f, "--json")
        assert code == 0 and json.loads(out)["gorenstein_star"] is True

    @pytest.mark.parametrize("command, expected", [
        ("homology", [f"H~_{k} dim 0" for k in range(-1, 40)]),
        ("cm", ["cohen_macaulay over GF(2): true"]),
        ("2cm", ["doubly_cohen_macaulay over GF(2): false"]),
        ("gorenstein-star", ["gorenstein_star over GF(2): false"]),
    ])
    def test_cone_over_a_square_with_38_apexes(self, capsys, tmp_path, command, expected):
        # Four 40-vertex facets: every face of lk v would be 2^39 of them.
        p = tmp_path / "cone.ideal"
        p.write_text("x1*x3\nx2*x42\n")
        assert run(capsys, command, str(p)) == (0, "\n".join(expected) + "\n", "")

    @pytest.mark.parametrize("command, expected", [
        ("homology", [f"H~_{k} dim 0" for k in range(-1, 42)]),
        ("cm", ["cohen_macaulay over GF(2): true"]),
    ])
    def test_simplex_on_42_vertices(self, capsys, tmp_path, command, expected):
        p = tmp_path / "simplex.ideal"
        p.write_text("n = 42\n")
        assert run(capsys, command, str(p)) == (0, "\n".join(expected) + "\n", "")

    def test_bstar_refute_cone(self, capsys, facet_file):
        code, out, _ = run(capsys, "bstar-refute", facet_file("n = 3\n1 2 3\n"), "--json")
        assert code == 0
        assert json.loads(out) == {"certificate": {"kind": "cone", "vertex": 1}}

    def test_bstar_refute_free_face(self, capsys, infgen_file):
        code, out, _ = run(capsys, "bstar-refute", infgen_file, "--json")
        assert code == 0
        cert = json.loads(out)["certificate"]
        assert cert["kind"] == "free_face"
        assert cert["free_face"] == [1] and cert["facet"] == [1, 3]
        assert cert["rank"] == 0 and cert["target_dim"] == 1

    def test_bstar_refute_none(self, capsys, facet_file):
        f = facet_file("n = 3\n1 2\n1 3\n2 3\n")
        code, out, _ = run(capsys, "bstar-refute", f)
        assert code == 0 and "no refutation certificate" in out


class TestCrossValidate:
    def test_exhaustive_n3(self, capsys):
        code, out, _ = run(capsys, "cross-validate", "--n", "3", "--exhaustive",
                           "--q-sweep", "2,3", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["total"] == 19 and d["mismatches"] == []
        assert d["q_sweep_checked"] == 19

    def test_random_trials(self, capsys):
        code, out, _ = run(capsys, "cross-validate", "--n", "6", "--trials", "25")
        assert code == 0 and "complexes checked: 25" in out

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "cross-validate", "--n", "6", "--trials", "10", "--json")
        _, out2, _ = run(capsys, "cross-validate", "--n", "6", "--trials", "10", "--json")
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("elapsed_seconds"), d2.pop("elapsed_seconds")
        assert d1 == d2

    def test_failure_exit_code(self, capsys, monkeypatch):
        broken = cartier.free_face_scan

        def flipped(cx):
            scan = broken(cx)
            return replace(scan, pairs=[] if scan.pairs else [FreeFacePair(1, 1)])

        monkeypatch.setattr(cartier, "free_face_scan", flipped)
        code, out, _ = run(capsys, "cross-validate", "--n", "2", "--exhaustive")
        assert code == 2 and "FAIL" in out


@pytest.mark.parametrize("command, code_at_cap", [("classify", 3), ("colon", 0)])
def test_q_past_the_exponent_cap_is_input_error(capsys, infgen_file, command, code_at_cap):
    code, _, err = run(capsys, command, infgen_file, "--q", "65536")
    assert code == code_at_cap and err == ""
    assert run(capsys, command, infgen_file, "--q", "65537") == (
        1, "", "error: exponent exceeds cap 65536\n")


@pytest.mark.parametrize("argv", [
    ("classify", "{infgen}", "--q", "1"),
    ("classify", "{infgen}", "--q", "100000"),
    ("cross-validate", "--n", "0"),
    ("cross-validate", "--n", "9", "--exhaustive"),
    ("cross-validate", "--n", "3", "--exhaustive", "--q-sweep", "x"),
    ("cross-validate", "--n", "6", "--exhaustive"),
    ("cross-validate", "--n", "6", "--trials", "0"),
    ("cross-validate", "--trials", "-1"),
    ("cross-validate", "--exhaustive"),
    # Refused by the library, not by the CLI.
    ("colon", "{infgen}", "--q", "1"),
    ("homology", "{infgen}", "--field", "4"),
    ("cross-validate", "--n", "3", "--exhaustive", "--q-sweep", "3,1"),
    ("cross-validate", "--n", "-1", "--exhaustive"),
    # The empty sweep is malformed like any other.
    ("cross-validate", "--n", "3", "--exhaustive", "--q-sweep", ""),
    # Refused by the parser.
    ("classify", "{infgen}", "--q", "abc"),
    ("homology", "{infgen}", "--field", "two"),
    ("cross-validate", "--trials", "x"),
    ("cross-validate", "--n", "x"),
    ("classify", "{infgen}", "--bogus"),
    ("classify",),
    ("bogus",),
    (),
])
def test_bad_flag_value_is_input_error(capsys, infgen_file, argv):
    code, out, err = run(capsys, *(a.format(infgen=infgen_file) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [("--help",), ("classify", "--help")])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: srcartier") and err == ""


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("argv, expected", [
    (("classify", "{whiskered}"), 0),
    (("classify", "{infgen}", "--json"), 3),
    (("cross-validate", "--n", "3", "--exhaustive"), 0),
])
def test_closed_stdout_ends_quietly(capsys, monkeypatch, whiskered_file, infgen_file,
                                    argv, expected):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    argv = [a.format(whiskered=whiskered_file, infgen=infgen_file) for a in argv]
    assert main(argv) == expected
    assert capsys.readouterr().err == ""


def test_closed_pipe_ends_quietly_at_exit(tmp_path):
    # 13 disjoint edges: a 299,664-byte report, more than a pipe holds, so
    # the report is still being written when the reader goes away.
    p = tmp_path / "edges.ideal"
    p.write_text(disjoint_edges(13))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen([sys.executable, "-m", "srcartier.cli", "classify", str(p)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(1) == b"v"
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait(timeout=120) == 0


@pytest.mark.parametrize("text", ["n = 2\n1\n", "n = 3\nx1*x2\n1\n"])
@pytest.mark.parametrize("command", ["classify", "nonfaces"])
def test_unit_ideal_is_input_error(capsys, tmp_path, command, text):
    # (1) is the ideal of the void complex, not of {∅}.
    p = tmp_path / "unit.ideal"
    p.write_text(text)
    assert run(capsys, command, str(p)) == (
        1, "", "error: the unit ideal is the ideal of the void complex, "
               "which is not representable\n")


@pytest.mark.parametrize("name, text", [
    ("digits.ideal", "x\u06632\n"),              # an Arabic-Indic 3
    ("header.ideal", "n = \u0661\u0662\nx1\n"),
    ("header.facets", "n = \u0661\u0662\n1 2\n"),
    ("digits.facets", "1 \u0663\n"),
    ("underscore.facets", "1_0 2\n"),
    ("plus.facets", "+4 1\n"),
])
@pytest.mark.parametrize("command", ["core", "homology"])
def test_only_ascii_digits_are_read(capsys, tmp_path, command, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, command, str(p))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


class TestErrorBoundary:
    """`main` turns every ValueError into one `error:` line and exit 1."""

    @pytest.mark.parametrize("command", ["homology", "cm", "2cm", "gorenstein-star"])
    def test_over_the_face_budget(self, capsys, tmp_path, command):
        # One generator x1*...*x24: the boundary of the simplex on 24 vertices.
        p = tmp_path / "sphere.ideal"
        p.write_text("*".join(f"x{i}" for i in range(1, 25)) + "\n")
        code, out, err = run(capsys, command, str(p))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "over the face budget" in err

    @pytest.mark.parametrize("k", [17, 20])
    @pytest.mark.parametrize("command", ["classify", "nonfaces", "homology"])
    def test_over_the_dualization_budget(self, capsys, tmp_path, command, k):
        # k disjoint edges have 2^k facets, one leaf of the dualization
        # each: past the budget of 2^16 leaves from k = 17.  Before the
        # budget, `classify` ran 68 s at k = 20.
        p = tmp_path / "edges.ideal"
        p.write_text(disjoint_edges(k))
        assert run(capsys, command, str(p)) == (
            1, "", "error: dualizing the ideal passes the budget of 65536 sets\n")

    def test_dualization_budget_is_inclusive(self, capsys, tmp_path):
        # 16 disjoint edges: 2^16 facets, the boundary of the 15-dimensional
        # cross-polytope, which is pg.
        p = tmp_path / "edges.ideal"
        p.write_text(disjoint_edges(16))
        code, out, err = run(capsys, "classify", str(p))
        assert (code, err) == (0, "")
        assert out.startswith("verdict: principally generated\n")

    def test_library_value_error_after_loading(self, capsys, monkeypatch, infgen_file):
        def refuse(cx):
            raise ValueError("refused")

        monkeypatch.setattr(cxm, "free_faces", refuse)
        assert run(capsys, "free-faces", infgen_file) == (1, "", "error: refused\n")

    def test_assertion_error_propagates(self, monkeypatch, infgen_file):
        def broken(cx, p):
            raise AssertionError("boundary squared is nonzero")

        monkeypatch.setattr(hom, "reduced_betti", broken)
        with pytest.raises(AssertionError):
            main(["homology", infgen_file])

    def test_undecodable_file(self, capsys, tmp_path):
        p = tmp_path / "latin1.facets"
        p.write_bytes(b"1 2\n\xe9\n")
        code, out, err = run(capsys, "core", str(p))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {p}: ") and err.count("\n") == 1


_WITH_Q = ["classify", "colon"]
_WITH_FIELD = ["homology", "cm", "2cm", "gorenstein-star", "bstar-refute"]
_FUZZ_COMMANDS = _WITH_Q + ["free-faces", "collapse", "core", "nonfaces"] + _WITH_FIELD
_STRAY_TOKENS = ["x", "0", "-1", "+4", "1_0", "two", "x0", "x1^", "^2", "*", "-", "n = 3",
                 "\u0663", "x13", "99", "#", "1.5"]


def _fuzz_texts(rng):
    """Valid facet and ideal texts with n <= 12."""
    texts = []
    for seed in range(12):
        n = rng.randint(1, 12)
        cx = cartier.random_complex(n, rng.choice([0.2, 0.5, 0.8]), seed)
        texts.append(("facets", fileio.format_facet_file(cx)))
        texts.append(("ideal", fileio.format_ideal_file(cartier.ideal_of_complex(cx))))
    return texts


def _mutate(rng, text):
    lines = text.splitlines()
    i = rng.randrange(len(lines) + 1)
    kind = rng.randrange(6)
    if kind == 0 and lines:
        del lines[min(i, len(lines) - 1)]
    elif kind == 1:
        n = rng.randint(1, 13)
        vs = rng.sample(range(1, n + 1), rng.randint(1, n))
        lines.insert(i, rng.choice([" ".join(map(str, vs)), "*".join(f"x{v}" for v in vs)]))
    elif kind == 2 and lines:
        lines.insert(i, lines[min(i, len(lines) - 1)])
    elif kind == 3 and lines:
        j = min(i, len(lines) - 1)
        lines[j] = f"{lines[j]} {rng.choice(_STRAY_TOKENS)}"
    elif kind == 4 and lines:
        j = min(i, len(lines) - 1)
        lines[j] = lines[j].replace(" ", "*", 1) if " " in lines[j] else lines[j] + "*"
    else:
        return text[:rng.randrange(len(text) + 1)]
    return "\n".join(lines) + "\n"


def test_mutated_inputs_never_escape_main(capsys, tmp_path):
    """Seeded small mutations of valid files: every one exits 0, 1 or 3."""
    rng = random.Random(20121)
    texts = _fuzz_texts(rng)
    escaped = []
    for case in range(300):
        fmt, text = rng.choice(texts)
        p = tmp_path / f"case{case}.{fmt}"
        p.write_text(_mutate(rng, text), encoding="utf-8")
        command = rng.choice(_FUZZ_COMMANDS)
        argv = [command, str(p)] + rng.choice([[], ["--json"]])
        if command in _WITH_Q:
            argv += ["--q", rng.choice("123")]
        elif command in _WITH_FIELD:
            argv += ["--field", rng.choice("234")]
        try:
            code = main(argv)
        except Exception as exc:  # nothing may escape main
            escaped.append((argv, p.read_text(encoding="utf-8"), repr(exc)))
            continue
        capsys.readouterr()
        if code not in (0, 1, 3):
            escaped.append((argv, p.read_text(encoding="utf-8"), code))
    assert escaped == []
