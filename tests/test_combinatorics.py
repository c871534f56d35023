"""Exact limiting moments, pairing utilities, and genus expansions."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antispectra import combinatorics as comb


def _random_pairing(order, shuffle):
    """Perfect matching of 0..2*order-1 decided by a shuffled point list."""
    points = list(range(2 * order))
    for i in range(len(points) - 1, 0, -1):
        j = shuffle[i - 1] % (i + 1)
        points[i], points[j] = points[j], points[i]
    return [tuple(sorted(points[2 * i : 2 * i + 2])) for i in range(order)]


def _crossings(pairing):
    count = 0
    for (a, b), (c, d) in itertools.combinations(pairing, 2):
        lo, hi = ((a, b), (c, d)) if a < c else ((c, d), (a, b))
        if lo[0] < hi[0] < lo[1] < hi[1]:
            count += 1
    return count


def test_double_factorial_small_values():
    assert [comb.double_factorial(n) for n in (-1, 1, 3, 5, 7)] == [1, 1, 3, 15, 105]
    assert comb.double_factorial(9) == 9 * 7 * 5 * 3 * 1


def test_catalan_against_binomial_formula():
    for m in range(8):
        assert comb.catalan(m) == math.comb(2 * m, m) // (m + 1)


def test_schroeder_numbers_table():
    assert comb.schroeder_numbers(6) == [1, 2, 10, 66, 498, 4066, 34970]


@given(order=st.integers(1, 6), shuffle=st.lists(st.integers(0, 10**6), min_size=11,
                                                 max_size=11))
@settings(max_examples=60, deadline=None)
def test_noncrossing_iff_maximal_cycle_count(order, shuffle):
    pairing = _random_pairing(order, shuffle)
    assert comb.is_noncrossing(pairing) == (_crossings(pairing) == 0)
    cycles = comb.cycle_count(pairing)
    assert cycles <= order + 1
    assert (comb.is_noncrossing(pairing)) == (cycles == order + 1)
    assert (order + 1 - cycles) % 2 == 0


def test_partner_table_round_trip():
    pairing = [(0, 3), (1, 2), (4, 5)]
    table = comb.as_partner_table(pairing)
    assert table == [3, 2, 1, 0, 5, 4]
    for a, b in pairing:
        assert table[a] == b and table[b] == a


GOE_GOE_EVEN_MOMENTS = [2, 10, 66, 498, 4066, 34970]


@pytest.mark.parametrize("m,expected", list(enumerate(GOE_GOE_EVEN_MOMENTS, start=1)))
def test_goe_goe_moments_exact(m, expected):
    assert comb.moment_goe_goe(m, "recurrence") == expected
    assert comb.moment_goe_goe(m, "explicit") == expected
    assert comb.moment_goe_goe(m, "series") == expected


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_goe_goe_enumeration_route_agrees(m):
    assert (comb.moment_goe_goe(m, "enumeration")
            == comb.moment_goe_goe(m, "recurrence"))


def test_goe_goe_explicit_formula_directly():
    # (1/m) sum_k 2^k C(2m, k-1) C(m, k) recomputed here from scratch
    for m in range(1, 7):
        total = sum(2**k * math.comb(2 * m, k - 1) * math.comb(m, k)
                    for k in range(1, m + 1))
        assert comb.moment_goe_goe(m) == total // m


@pytest.mark.parametrize("m,expected", [(1, 4), (2, 144), (3, 14400), (4, 2822400)])
def test_pte_pte_moments_closed_form(m, expected):
    assert comb.moment_pte_pte(m, "closed_form") == expected
    assert expected == 2 ** (2 * m) * comb.double_factorial(2 * m - 1) ** 2


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pte_pte_enumeration_route_agrees(m):
    assert (comb.moment_pte_pte(m, "enumeration")
            == comb.moment_pte_pte(m, "closed_form"))


GOE_PTE_EVEN_MOMENTS = [2, 12, 104, 1096, 13152, 174336]


def test_goe_pte_moments_and_table():
    for m, expected in enumerate(GOE_PTE_EVEN_MOMENTS, start=1):
        assert comb.moment_goe_pte(m, "recurrence") == expected
    table = comb.sigma_table(6, 3)
    assert [table.value(n, 0) for n in range(1, 7)] == GOE_PTE_EVEN_MOMENTS
    assert [table.value(0, s) for s in range(4)] == [1, 1, 3, 15]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_goe_pte_enumeration_route_agrees(m):
    assert (comb.moment_goe_pte(m, "enumeration")
            == comb.moment_goe_pte(m, "recurrence"))


def test_goe_pte_moments_inside_bounds():
    for m in range(1, 7):
        lower, upper = comb.moment_bounds_goe_pte(m)
        assert lower <= comb.moment_goe_pte(m) <= upper


def test_moment_method_validation():
    with pytest.raises(ValueError):
        comb.moment_goe_goe(1, "guess")
    with pytest.raises(ValueError):
        comb.moment_goe_goe(0)
    with pytest.raises(ValueError):
        comb.moment_goe_goe(9, "enumeration")  # beyond the enumeration budget


GOE_BCE_COEFFS = {1: (2,), 2: (10, 2), 3: (66, 38), 4: (498, 544, 54)}
BCE_BCE_COEFFS = {
    1: (2, 2),
    2: (10, 86, 48),
    3: (66, 1890, 9084, 3360),
}


@pytest.mark.parametrize("m,coeffs", sorted(GOE_BCE_COEFFS.items()))
def test_goe_bce_laurent_coefficients(m, coeffs):
    assert comb.moment_goe_bce(m).coeffs == coeffs


@pytest.mark.parametrize("m,coeffs", sorted(BCE_BCE_COEFFS.items()))
def test_bce_bce_laurent_coefficients(m, coeffs):
    assert comb.moment_bce_bce(m).coeffs == coeffs


def test_bce_bce_fourth_moment_golden():
    assert comb.moment_bce_bce(4).coeffs == (498, 33236, 529634, 1759064, 499968)


def _matchings(points):
    """Every perfect matching of the points, as lists of pairs."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for t, partner in enumerate(rest):
        for tail in _matchings(rest[:t] + rest[t + 1:]):
            yield [(first, partner)] + tail


@pytest.mark.parametrize("m", [1, 2, 3])
def test_bce_bce_agrees_with_pairing_by_pairing_tally(m):
    # Brute force: walk x -> tau(x) + 1 for every type-respecting pairing.
    size, top = 4 * m, 2 * m + 1
    tally = {}
    for pieces in itertools.product(("ab", "ba"), repeat=2 * m):
        word = "".join(pieces)
        a_pos = [i for i, c in enumerate(word) if c == "a"]
        b_pos = [i for i, c in enumerate(word) if c == "b"]
        for pa in _matchings(a_pos):
            for pb in _matchings(b_pos):
                defect = top - comb.cycle_count(pa + pb, size)
                assert defect >= 0 and defect % 2 == 0
                tally[defect // 2] = tally.get(defect // 2, 0) + 1
    assert comb.moment_bce_bce(m).coeffs == tuple(tally[g] for g in range(len(tally)))


@given(n=st.sampled_from([2, 4, 6, 8]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_pairing_cycle_tally_depends_on_cycle_type_only(n, seed):
    rng = random.Random(seed)
    rho = list(range(n))
    rng.shuffle(rho)
    h = list(range(n))
    rng.shuffle(h)
    conjugate = [0] * n  # h rho h^-1
    for x in range(n):
        conjugate[h[x]] = h[rho[x]]
    tally = comb._pairing_cycle_counts(rho)
    assert comb._pairing_cycle_counts(conjugate) == tally
    assert sum(tally.values()) == comb.double_factorial(n - 1)


def test_pairing_cycle_tally_of_one_cycle_is_the_cycle_count_tally():
    # For rho = x -> x + 1 (mod n), rho o tau is x -> tau(x) + 1.
    for n in (2, 4, 6, 8):
        tally = {}
        for pairs in _matchings(list(range(n))):
            c = comb.cycle_count(pairs, n)
            tally[c] = tally.get(c, 0) + 1
        assert comb._pairing_cycle_counts(list(range(1, n)) + [0]) == tally


def test_laurent_reductions_and_evaluation():
    # one-dimensional blocks collapse each pair onto its Toeplitz analogue
    for m in range(1, 5):
        assert comb.moment_goe_bce(m).at(1) == comb.moment_goe_pte(m)
    for m in range(1, 5):
        assert comb.moment_bce_bce(m).at(1) == comb.moment_pte_pte(m)
    value = comb.moment_goe_bce(2).at(2)
    assert value == Fraction(21, 2)
    assert isinstance(value, Fraction)
    assert comb.moment_goe_bce(3).at(2) == Fraction(151, 2)
    assert str(comb.moment_goe_bce(2)) == "10 + 2*k^-2"
    assert isinstance(comb.moment_goe_bce(2).at(2.0), float)


def test_laurent_constant_term_is_goe_goe_limit():
    for m in range(1, 5):
        assert comb.moment_goe_bce(m).coeffs[0] == comb.moment_goe_goe(m)
        assert comb.moment_bce_bce(m).coeffs[0] == comb.moment_goe_goe(m)


def test_denormalize_moment():
    assert comb.denormalize_moment(10, 2, 3.0) == 90.0


ELL_THREE_EVEN_MOMENTS = [6, 96, 2088]


def test_ell_anticommutator_moments():
    for m in range(1, 6):
        assert comb.moment_ell_anticommutator(m, 2) == comb.moment_goe_goe(m)
    for m, expected in enumerate(ELL_THREE_EVEN_MOMENTS, start=1):
        assert comb.moment_ell_anticommutator(m, 3) == expected
    with pytest.raises(ValueError, match="ell"):
        comb.moment_ell_anticommutator(2, 1)
    with pytest.raises(ValueError, match="m"):
        comb.moment_ell_anticommutator(0, 3)


def test_bulk_moment_checker_formula():
    for m in range(1, 5):
        for k in (2, 3, 5):
            expected = (Fraction(comb.moment_goe_goe(m))
                        * (1 - Fraction(1, k)) ** m)
            assert comb.bulk_moment_checker(m, k) == expected
    expected = Fraction(10) * Fraction(1, 2) ** 2 * Fraction(2, 3) ** 2
    got = comb.bulk_moment_checker(2, 2, 3)
    assert got == expected and isinstance(got, Fraction)
    assert comb.bulk_moment_checker(2, 2, 3) == comb.bulk_moment_checker(2, 3, 2)


def test_bulk_moment_checker_validation():
    with pytest.raises(ValueError):
        comb.bulk_moment_checker(1, 1)
    with pytest.raises(ValueError):
        comb.bulk_moment_checker(1, 2, 4)  # shared factor of two
