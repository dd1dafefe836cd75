"""Acceptance suite: eleven end-to-end criteria, one printed verdict line
each.  Run with ``pytest -v`` (add ``-s`` to see the lines for passing
criteria as they complete)."""

import time
from itertools import product

import pytest

from srcartier.cartier import (
    _DENSITIES,
    classify,
    classify_via_free_face,
    classify_via_ideal,
    count_complexes_oracle,
    cross_validate,
    enumerate_complexes,
    ideal_of_complex,
    random_complex,
    trial_seed,
    Verdict,
)
from srcartier.complexes import (
    build_complex,
    elementary_collapse,
    free_faces,
    join_with_simplex,
    link,
    vertex_mask,
)
from srcartier.homology import (
    contrastar_profile,
    is_doubly_cohen_macaulay,
    is_gorenstein_star,
    reduced_betti,
    relative_map_is_surjective,
)
from srcartier.monomials import (
    add,
    colon,
    contains,
    divides,
    frobenius_power,
    minimize,
    multiply,
    parse_monomial,
    principal,
)

PG = Verdict.PRINCIPALLY_GENERATED


def verdict_line(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def nonzero(betti):
    return {k: b for k, b in betti.items() if b}


@pytest.fixture(scope="module")
def exhaustive_report():
    return cross_validate(exhaustive_ns=(1, 2, 3, 4, 5), random_ns=(),
                          trials_per_n=0)


@pytest.fixture(scope="module")
def randomized_report():
    return cross_validate(exhaustive_ns=(), random_ns=(6, 7, 8),
                          trials_per_n=10000, seed=42)


def test_criterion_01_exhaustive_equivalence(exhaustive_report):
    rep = exhaustive_report
    expected_total = sum(count_complexes_oracle(n) for n in range(1, 6))
    ok = (not rep.mismatches
          and rep.total == expected_total
          and rep.elapsed_seconds < 120)
    verdict_line(
        1, ok,
        f"both criteria agree on all {rep.total} complexes with n <= 5 "
        f"(count matches the independent downset oracle; "
        f"{rep.elapsed_seconds:.1f}s, {len(rep.mismatches)} mismatches)")


def test_criterion_02_randomized_equivalence(randomized_report):
    rep = randomized_report
    ok = (not rep.mismatches and rep.total == 30000
          and rep.elapsed_seconds < 600)
    verdict_line(
        2, ok,
        f"both criteria agree on {rep.total} random complexes, n in {{6,7,8}}, "
        f"seed 42 ({rep.elapsed_seconds:.1f}s, {len(rep.mismatches)} mismatches)")


def test_criterion_03_whiskered_tetra_fixture():
    whiskered_tetra = build_complex(
        [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}, {1, 5}, {2, 5}], 5)
    vi = classify_via_ideal(whiskered_tetra, 2).verdict
    vf = classify_via_free_face(whiskered_tetra).verdict
    two_cm = is_doubly_cohen_macaulay(whiskered_tetra)
    ok = vi is PG and vf is PG and not two_cm
    verdict_line(
        3, ok,
        f"whiskered tetrahedron: ideal={vi.value}, free_face={vf.value}, "
        f"doubly CM={two_cm} (expected pg, pg, False)")


def test_criterion_04_witness_contract(exhaustive_report, randomized_report):
    checked = exhaustive_report.witness_checked + randomized_report.witness_checked
    violations = (exhaustive_report.witness_violations
                  + randomized_report.witness_violations)
    ok = checked > 0 and not violations
    verdict_line(
        4, ok,
        f"witness monomial lies in I^[2]:I and outside I^[2]+(x^1) for all "
        f"{checked} infinitely generated cases ({len(violations)} violations)")


def test_criterion_05_colon_fixture():
    ideal = minimize([parse_monomial(g, 3) for g in ("x1*x2", "x2*x3")], 3)
    frob = frobenius_power(ideal, 2)
    # Brute-force oracle first: members of the colon in the box {0..4}^3,
    # then the minimal ones under divisibility.
    members = [m for m in product(range(5), repeat=3)
               if all(contains(frob, multiply(m, g)) for g in ideal.gens)]
    minimal = {m for m in members
               if not any(divides(o, m) and o != m for o in members)}
    expected = {parse_monomial(g, 3) for g in ("x1^2*x2", "x1*x2*x3", "x2*x3^2")}
    implementation = colon(frob, ideal).gens
    ok = minimal == expected and implementation == expected
    verdict_line(
        5, ok,
        "I^[2]:I for I=(x1*x2, x2*x3) is (x1^2*x2, x1*x2*x3, x2*x3^2), by "
        "the box oracle and by the implementation")


def test_criterion_06_free_face_relative_homology():
    solid = build_complex([{1, 2, 3}], 3)
    f = vertex_mask({1, 2}, 3)
    g = vertex_mask({1, 2, 3}, 3)
    h_f = contrastar_profile(solid, f).get(2, 0)
    h_g = contrastar_profile(solid, g).get(2, 0)
    cert = relative_map_is_surjective(solid, f, g, 2)
    ok = h_f == 0 and h_g == 1 and not cert.surjective
    verdict_line(
        6, ok,
        f"solid triangle: dim H_2(D, cost{{1,2}})={h_f}, "
        f"dim H_2(D, cost{{1,2,3}})={h_g}, induced map rank {cert.rank} "
        f"< target {cert.target_dim} (not surjective)")


def test_criterion_07_sufficient_conditions_imply_pg():
    start = time.perf_counter()
    checked = violations = 0
    for n in range(1, 6):
        for cx in enumerate_complexes(n):
            if any(is_doubly_cohen_macaulay(cx, p) or is_gorenstein_star(cx, p)
                   for p in (2, 3)):
                checked += 1
                if classify(cx).verdict is not PG:
                    violations += 1
    ok = checked > 0 and violations == 0
    verdict_line(
        7, ok,
        f"all {checked} doubly-CM or Gorenstein* complexes on n <= 5 "
        f"(GF(2), GF(3)) classify principally generated "
        f"({violations} violations, {time.perf_counter() - start:.1f}s)")


def test_criterion_08_contrastar_link_oracle():
    start = time.perf_counter()
    pairs = violations = 0
    for n in range(1, 6):
        for cx in enumerate_complexes(n):
            for face in cx.faces():
                pairs += 1
                prof = contrastar_profile(cx, face)
                if face == 0:
                    if prof != reduced_betti(cx):
                        violations += 1
                    continue
                lk = nonzero(reduced_betti(link(cx, face)))
                size = face.bit_count()
                shifted = {k - size: b for k, b in nonzero(prof).items()}
                if shifted != lk:
                    violations += 1
    ok = violations == 0
    verdict_line(
        8, ok,
        f"dim H_i(D, cost F) = dim H~_(i-|F|)(link F) over GF(2) for all "
        f"{pairs} (complex, face) pairs with n <= 5 "
        f"({violations} violations, {time.perf_counter() - start:.1f}s)")


def test_criterion_09_collapse_invariance():
    start = time.perf_counter()
    steps = violations = 0
    for t in range(1000):
        n = t % 7 + 1
        cx = random_complex(n, _DENSITIES[t % len(_DENSITIES)],
                            trial_seed(42, n, t))
        betti = nonzero(reduced_betti(cx))
        while True:
            pairs = free_faces(cx)
            if not pairs:
                break
            cx = elementary_collapse(cx, pairs[0])
            steps += 1
            if nonzero(reduced_betti(cx)) != betti:
                violations += 1
                break
    ok = violations == 0 and steps > 0
    verdict_line(
        9, ok,
        f"reduced GF(2) Betti numbers unchanged across {steps} greedy "
        f"collapse steps on 1000 random complexes with n <= 7 "
        f"({violations} violations, {time.perf_counter() - start:.1f}s)")


def test_criterion_10_core_first_reduction():
    cone = build_complex([{1, 2, 4}, {2, 3, 4}, {1, 3, 4}], 4)
    fixture_ok = (classify(cone).verdict is PG
                  and len(free_faces(cone)) > 0)
    agreements = 0
    for t in range(1000):
        n = t % 5 + 1
        base = random_complex(n, _DENSITIES[t % len(_DENSITIES)],
                              trial_seed(7, n, t))
        joined = join_with_simplex(base, t % 3 + 1)
        if classify(joined).verdict == classify(base).verdict:
            agreements += 1
    ok = fixture_ok and agreements == 1000
    verdict_line(
        10, ok,
        f"cone over the hollow triangle is pg despite its free faces, and "
        f"{agreements}/1000 random cone extensions preserve the verdict")


def sides_by_arithmetic(ideal, q):
    """Both sides of the identity as report strings, by the general colon
    and sum; none when I^[q] : I is the unit ideal (the full simplex)."""
    frob = frobenius_power(ideal, q)
    lhs = colon(frob, ideal)
    if lhs.is_unit():
        return (), ()
    xv = tuple(q - 1 if any(g[i] for g in ideal.gens) else 0 for i in range(ideal.n))
    return tuple(lhs.gens_strings()), tuple(add(frob, principal(xv)).gens_strings())


def test_criterion_11_q_sweep():
    # The pairs behind the verdict do not depend on q, so the verdicts
    # alone cannot disagree; the strings of both sides show the exponents.
    checked = mismatches = 0
    for n in (1, 2, 3):
        for cx in enumerate_complexes(n):
            ideal = ideal_of_complex(cx)
            base = classify_via_ideal(cx, 2).verdict
            checked += 1
            for q in (2, 3, 4, 8):
                report = classify_via_ideal(cx, q)
                if (report.verdict != base or (report.colon_lhs, report.colon_rhs)
                        != sides_by_arithmetic(ideal, q)):
                    mismatches += 1
    ok = mismatches == 0
    verdict_line(
        11, ok,
        f"verdicts and both sides of the identity for q in {{2,3,4,8}} agree "
        f"with the general colon on all {checked} complexes with n <= 3 "
        f"({mismatches} mismatches)")
