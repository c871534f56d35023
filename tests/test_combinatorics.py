"""Exact limiting moments and genus expansions, with brute-force pairing oracles."""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antispectra import combinatorics as comb
from antispectra import stats


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


def _cycle_count(pairing, size):
    """Number of cycles of x -> pi(x) + 1 (mod size) for the pairing pi of 0..size-1.

    Equals n+1 exactly when the pairing of 2n points is non-crossing,
    and otherwise drops below n-1 in steps of two.
    """
    partner = [-1] * size
    for i, j in pairing:
        partner[i], partner[j] = j, i
    assert -1 not in partner, "not a perfect matching"
    seen = [False] * size
    cycles = 0
    for start in range(size):
        if not seen[start]:
            cycles += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = (partner[x] + 1) % size
    return cycles


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
    # The genus brute-force tests below rest on this property of _cycle_count.
    pairing = _random_pairing(order, shuffle)
    cycles = _cycle_count(pairing, 2 * order)
    assert cycles <= order + 1
    assert (_crossings(pairing) == 0) == (cycles == order + 1)
    assert (order + 1 - cycles) % 2 == 0


@pytest.mark.parametrize("n", range(1, 13))
def test_configuration_classes_partition_the_words(n):
    classes = list(comb._configuration_classes(n))
    assert sum(size for _, size in classes) == 2**n
    for word, size in classes:
        rotations = {word[2 * i:] + word[:2 * i] for i in range(n)}
        assert word == min(rotations)
        assert size == len(rotations)
    assert len({word for word, _ in classes}) == len(classes)


def _every_word(m):
    """The 2^(2m) words of the anticommutator's expansion, none skipped by rotation."""
    return ("".join(pieces) for pieces in itertools.product(("ab", "ba"), repeat=2 * m))


_B_ROWS = {
    "catalan": [comb.catalan(n) for n in range(7)],
    "double-factorial": [comb.double_factorial(2 * n - 1) for n in range(7)],
    "harer-zagier": comb._harer_zagier(6),
}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_class_sums_equal_the_sum_over_every_word(m):
    # The Catalan, (2n-1)!! and Harer-Zagier rows of goe-goe, goe-pte and goe-bce.
    for row in _B_ROWS.values():
        memo = {}
        assert comb._free_moment_sum(m, row) == sum(
            comb._free_word_moment(comb._a_first(w), row, memo) for w in _every_word(m))
    memo, rotations = {}, comb._Rotations()
    total = {}
    for w in _every_word(m):
        for e, c in comb._gaussian_trace_moment((rotations[w],), False, memo,
                                                rotations).items():
            total[e] = total.get(e, 0) + c
    assert comb.moment_bce_bce(m).coeffs == tuple(total[1 - 2 * g]
                                                  for g in range(len(total)))


def _noncrossing_letter_pairings(word):
    """Non-crossing pairings of the word's positions, each pair of two equal letters.

    phi(word) for free semicircular letters (the free Wick rule), by an
    interval recursion on the word as written: position i pairs with k.
    """
    @functools.cache
    def count(i, j):  # positions i .. j-1
        if i == j:
            return 1
        return sum(count(i + 1, k) * count(k + 1, j)
                   for k in range(i + 1, j, 2) if word[k] == word[i])
    return count(0, len(word))


@pytest.mark.parametrize("law", sorted(_B_ROWS))
def test_free_word_moment_is_the_same_from_every_rotation(law):
    # Every word on {a, b} of length <= 12 with an even count of each letter.
    # phi is tracial, so each rotation, keyed by its a-first rotation, gives
    # one value; the memo is shared, so a wrong key reaches later words.
    # With b semicircular too, the value is a count of letter pairings.
    # A value is an int, or a LaurentMoment with a nonzero last coefficient:
    # a zero is always the int 0, so equal values compare equal.
    row, memo = _B_ROWS[law], {}
    for n in range(0, 13, 2):
        for letters in itertools.product("ab", repeat=n):
            word = "".join(letters)
            if word.count("a") % 2:
                continue
            values = [comb._free_word_moment(comb._a_first(word[i:] + word[:i]), row, memo)
                      for i in range(max(n, 1))]
            for value in values:
                if isinstance(value, comb.LaurentMoment):
                    assert value.coeffs[-1], word
                else:
                    assert type(value) is int, word
            assert all(value == values[0] for value in values), word
            if law == "catalan":
                assert values[0] == _noncrossing_letter_pairings(word), word


def test_a_first_rotates_to_the_first_a():
    assert [comb._a_first(w) for w in ("", "bb", "abba", "bbab", "baab")] == [
        "", "bb", "abba", "abbb", "aabb"]


GOE_GOE_EVEN_MOMENTS = [2, 10, 66, 498, 4066, 34970]


@pytest.mark.parametrize("m,expected", list(enumerate(GOE_GOE_EVEN_MOMENTS, start=1)))
def test_goe_goe_moments_exact(m, expected):
    assert comb.moment_goe_goe(m, "recurrence") == expected
    assert comb.moment_goe_goe(m, "explicit") == expected
    assert comb.moment_goe_goe(m, "series") == expected


def test_sigma_table_on_the_catalan_row_is_goe_goe():
    # sigma_table's column 0 with b semicircular, against two routes that
    # share no code with it.
    row = [comb.catalan(n) for n in range(21)]
    table = comb.sigma_table(20, 0, row)
    for m in range(1, 21):
        assert table[m][0] == comb.moment_goe_goe(m, "explicit"), m
        assert table[m][0] == comb.moment_goe_goe(m, "series"), m


def test_sigma_table_rejects_a_short_row():
    with pytest.raises(ValueError, match="row needs 6 entries, got 5"):
        comb.sigma_table(3, 2, [1, 1, 2, 5, 14])


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


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pte_pte_enumeration_route_agrees(m):
    assert (comb.moment_pte_pte(m, "enumeration")
            == comb.moment_pte_pte(m, "closed_form"))


GOE_PTE_EVEN_MOMENTS = [2, 12, 104, 1096, 13152, 174336]


def test_goe_pte_moments_and_table():
    for m, expected in enumerate(GOE_PTE_EVEN_MOMENTS, start=1):
        assert comb.moment_goe_pte(m, "recurrence") == expected
    table = comb.sigma_table(6, 3, [comb.double_factorial(2 * s - 1) for s in range(10)])
    assert [table[n][0] for n in range(1, 7)] == GOE_PTE_EVEN_MOMENTS
    assert [table[0][s] for s in range(4)] == [1, 1, 3, 15]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
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


@pytest.mark.parametrize("call,message", [
    (lambda: list(comb._configuration_classes(0)), "need n >= 1, got 0"),
    (lambda: comb.sigma_table(-1, 0, [1, 1]), "table bounds must be nonnegative"),
    (lambda: comb.schroeder_numbers(-1), "order must be nonnegative"),
    (lambda: comb.moment_pte_pte(0), "need m >= 1, got 0"),
    (lambda: comb.moment_goe_pte(0), "need m >= 1, got 0"),
    (lambda: comb.moment_bounds_goe_pte(0), "need m >= 1, got 0"),
    # m is judged before the moduli.
    (lambda: comb.bulk_moment_checker(0, 1), "need m >= 1, got 0"),
    (lambda: comb.moment_pte_pte(1, "bogus"), "unknown method 'bogus'"),
    (lambda: comb.moment_goe_pte(1, "bogus"), "unknown method 'bogus'"),
], ids=["configuration_classes", "sigma_table", "schroeder", "pte_pte_m", "goe_pte_m",
        "bounds_m", "checker_m", "pte_pte_method", "goe_pte_method"])
def test_bad_arguments_are_named(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_laurent_moment_times_a_fraction_is_a_type_error():
    with pytest.raises(TypeError):
        comb.LaurentMoment((1, 2)) * Fraction(1, 2)


GOE_BCE_COEFFS = {1: (2,), 2: (10, 2), 3: (66, 38), 4: (498, 544, 54),
                  5: (4066, 7000, 2086),
                  6: (34970, 85392, 50154, 3820),
                  7: (312066, 1010072, 965818, 227244),
                  8: (2862562, 11717824, 16330368, 7783928, 544070)}
BCE_BCE_COEFFS = {
    1: (2, 2),
    2: (10, 86, 48),
    3: (66, 1890, 9084, 3360),
    5: (4066, 521880, 19317738, 214110380, 550074096, 130429440),
    6: (34970, 7650346, 543441030, 14023616398, 120115298600, 255019577856,
        52887859200),
}


@pytest.mark.parametrize("m,coeffs", sorted(GOE_BCE_COEFFS.items()))
def test_goe_bce_laurent_coefficients(m, coeffs):
    assert comb.moment_goe_bce(m).coeffs == coeffs


@pytest.mark.parametrize("m,coeffs", sorted(BCE_BCE_COEFFS.items()))
def test_bce_bce_laurent_coefficients(m, coeffs):
    assert comb.moment_bce_bce(m).coeffs == coeffs


@pytest.mark.parametrize("m", range(1, 9))
def test_goe_bce_equals_the_free_word_route(m):
    # sigma_table on the Harer-Zagier rows against the word recursion on the
    # same rows: the two routes share only b's moments.
    assert comb.moment_goe_bce(m) == comb._free_moment_sum(m, comb._harer_zagier(m))


def test_laurent_moment_equal_polynomials_compare_equal():
    L = comb.LaurentMoment
    # Trailing zeros are trimmed at construction, and one coefficient is kept.
    assert L((1, 0, 0)).coeffs == (1,) and L((0, 0)).coeffs == (0,)
    assert L((1,)) + L((0, 1)) + L((0, -1)) == L((1,))
    assert hash(L((3, 2, 0))) == hash(L((3, 2)))
    # A sum or product that is the zero polynomial is the int 0.
    for zero in (L((2, 3)) * 0, 0 * L((2, 3)), L((2, 3)) + L((-2, -3)),
                 L((2, 3)) * L((0,))):
        assert zero == 0 and type(zero) is int


def test_laurent_moment_sum_and_product():
    x, y = comb.LaurentMoment((2, 3)), comb.LaurentMoment((1, 0, 5))
    assert 0 + x == x
    assert sum([x, y]) == comb.LaurentMoment((3, 3, 5))
    assert x + y == y + x == comb.LaurentMoment((3, 3, 5))
    assert x * y == y * x == comb.LaurentMoment((2, 3, 10, 15))
    assert x * comb.LaurentMoment((1,)) == x
    assert 3 * x == x * 3 == x + x + x
    assert (x * y).at(2) == x.at(2) * y.at(2)
    with pytest.raises(TypeError):
        x + 1
    # sigma_table runs on them for any row of b-moments, here a made-up one,
    # and agrees with the word recursion on the same row.
    row = [comb.LaurentMoment(coeffs)
           for coeffs in ((1,), (1, 2), (3, 0, 1), (2, 5), (7, 1, 1, 4))]
    table = comb.sigma_table(4, 0, row)
    for m in range(1, 5):
        assert table[m][0] == comb._free_moment_sum(m, row), m


def test_bce_bce_fourth_moment_golden():
    assert comb.moment_bce_bce(4).coeffs == (498, 33236, 529634, 1759064, 499968)


def _gue(rng, count, k):
    """count GUE_k matrices with E|a_ij|^2 = 1/k."""
    z = rng.standard_normal((count, k, k)) + 1j * rng.standard_normal((count, k, k))
    return (z + np.conj(np.swapaxes(z, 1, 2))) / (2 * math.sqrt(k))


@pytest.mark.parametrize("k,m", [(2, 2), (3, 2), (2, 3)])
def test_bce_bce_agrees_with_gue_monte_carlo(k, m):
    # The table is E[tr_k {A, B}^(2m)] for independent GUE_k matrices A, B.
    rng = np.random.default_rng(2024)
    samples = []
    for _ in range(8):
        a, b = _gue(rng, 50_000, k), _gue(rng, 50_000, k)
        c = a @ b + b @ a
        power = np.linalg.matrix_power(c @ c, m)
        samples.append(np.trace(power, axis1=1, axis2=2).real / k)
    samples = np.concatenate(samples)
    stderr = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - float(comb.moment_bce_bce(m).at(k))) <= 3 * stderr


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
                defect = top - _cycle_count(pa + pb, size)
                assert defect >= 0 and defect % 2 == 0
                tally[defect // 2] = tally.get(defect // 2, 0) + 1
    assert comb.moment_bce_bce(m).coeffs == tuple(tally[g] for g in range(len(tally)))


def _wick_trace(words, k, twisted):
    """E[product of Tr w over words] summed over every index assignment and
    same-letter matching, with E[x_ab x_cd] = ([a=d][b=c] + twisted [a=c][b=d]) / k."""
    letters = "".join(words)
    after, start = [], 0  # after[s]: the position whose index ends letter s's entry
    for w in words:
        after += [start + (i + 1) % len(w) for i in range(len(w))]
        start += len(w)
    n = len(letters)
    matchings = [pairs for pairs in _matchings(list(range(n)))
                 if all(letters[s] == letters[t] for s, t in pairs)]
    total = Fraction(0)
    for idx in itertools.product(range(k), repeat=n):
        for pairs in matchings:
            term = Fraction(1)
            for s, t in pairs:
                a, b, c, d = idx[s], idx[after[s]], idx[t], idx[after[t]]
                term *= Fraction((a == d and b == c) + twisted * (a == c and b == d), k)
            total += term
    return total


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("word", ["aabb", "abab", "aabaab", "abcabc", "abcacb", "aabbcc",
                                  "abcdabdc"])
def test_gaussian_trace_moment_agrees_with_wick_brute_force(word, twisted):
    # Words of several letters see the reversals of the GOE (twisted) terms,
    # which one-letter words cannot.  Of these words only abcdabdc reaches a
    # merge of two words whose reversal matters.
    rotations = comb._Rotations()
    moment = comb._gaussian_trace_moment((rotations[word],), twisted, {}, rotations)
    for k in (1, 2, 3):
        value = sum(c * Fraction(k) ** e for e, c in moment.items())
        assert value == _wick_trace((word,), k, twisted), k


# E[Tr C^order] for C = AB + BA with A, B independent N x N GOEs (off-diagonal
# variance 1, diagonal 2): polynomial coefficients in N, highest power first.
_GOE_GOE_TRACE = {2: (2, 6, 8, 0), 4: (10, 80, 414, 944, 856, 0)}


def _goe_goe_trace(order, N):
    return sum(c * N**p for p, c in enumerate(reversed(_GOE_GOE_TRACE[order])))


def test_goe_goe_trace_polynomials_are_exact_at_small_n():
    # At N = 1, C = 2ab with a, b ~ N(0, 2): E[C^2] = 4 E[a^2] E[b^2] and
    # E[C^4] = 16 E[a^4] E[b^4], with E[a^2] = 2 and E[a^4] = 3 * 2^2.
    assert _goe_goe_trace(2, 1) == 4 * 2 * 2
    assert _goe_goe_trace(4, 1) == 16 * 12 * 12
    # A GOE entry pair has covariance N times the Wick sum's twisted 1/N.
    for order, N in ((2, 2), (2, 3), (4, 2)):
        words = ("".join(w) for w in itertools.product(("ab", "ba"), repeat=order))
        wick = N**order * sum(_wick_trace((word,), N, True) for word in words)
        assert wick == _goe_goe_trace(order, N), (order, N)


def test_goe_goe_trials_match_exact_finite_n_moments():
    # The trial path judged against E[Tr C^order] / N^(order+1) at N = 100,
    # not the N -> oo limit: the limits 2 and 10 sit 17 and 18 standard
    # errors below the sampled means.
    N = 100
    plan = stats.ExperimentPlan("goe-goe", (N,), trials=400, seed=14, orders=(2, 4))
    report = stats.run_trials(plan).moments[N]
    for order in (2, 4):
        exact = _goe_goe_trace(order, N) / N ** (order + 1)
        z = (report.mean(order) - exact) / report.stderr(order)
        assert abs(z) <= 4, (order, z)


def _faces(word, a_pairs):
    """The b-positions grouped by the set of a-arcs strictly covering them."""
    faces = {}
    for x in (i for i, c in enumerate(word) if c == "b"):
        cover = frozenset(arc for arc in a_pairs if min(arc) < x < max(arc))
        faces.setdefault(cover, []).append(x)
    return list(faces.values())


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_goe_bce_agrees_with_pairing_by_pairing_tally(m):
    # Brute force: non-crossing a-arcs, then every b-pairing that keeps each
    # pair inside one face, each walked by _cycle_count.
    size, top = 4 * m, 2 * m + 1
    tally = {}
    for pieces in itertools.product(("ab", "ba"), repeat=2 * m):
        word = "".join(pieces)
        a_pos = [i for i, c in enumerate(word) if c == "a"]
        for pa in _matchings(a_pos):
            if _crossings(pa):
                continue
            for parts in itertools.product(*(list(_matchings(f)) for f in _faces(word, pa))):
                pb = [pair for part in parts for pair in part]
                defect = top - _cycle_count(pa + pb, size)
                assert defect >= 0 and defect % 2 == 0
                tally[defect // 2] = tally.get(defect // 2, 0) + 1
    assert comb.moment_goe_bce(m).coeffs == tuple(tally[g] for g in range(len(tally)))


def test_laurent_reductions_and_evaluation():
    # one-dimensional blocks collapse each pair onto its Toeplitz analogue
    for m in range(1, 21):
        assert comb.moment_goe_bce(m).at(1) == comb.moment_goe_pte(m)
    for m in range(1, comb.ENUMERATION_LIMITS["bce-bce"] + 1):
        assert comb.moment_bce_bce(m).at(1) == comb.moment_pte_pte(m)
    value = comb.moment_goe_bce(2).at(2)
    assert value == Fraction(21, 2)
    assert isinstance(value, Fraction)
    assert comb.moment_goe_bce(3).at(2) == Fraction(151, 2)
    assert str(comb.moment_goe_bce(2)) == "10 + 2*k^-2"


def test_laurent_moment_at_a_float_is_a_type_error():
    # Only an integer block size gives the exact value.
    with pytest.raises(TypeError):
        comb.LaurentMoment((10, 2)).at(2.0)


def test_laurent_constant_term_is_goe_goe_limit():
    for m in range(1, 21):
        assert comb.moment_goe_bce(m).coeffs[0] == comb.moment_goe_goe(m, "explicit")
    for m in range(1, comb.ENUMERATION_LIMITS["bce-bce"] + 1):
        assert comb.moment_bce_bce(m).coeffs[0] == comb.moment_goe_goe(m)


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


def _anti_l_word_moment(ell, m):
    """phi(P^(2m)) for P the sum over the ell! orderings of ell free semicirculars.

    Each of the expansion's ell!^(2m) words w contributes the k^1 coefficient
    of E[Tr w] for independent GUE_k letters: the limit of E[tr w] = E[Tr w] / k.
    """
    orderings = ["".join(p) for p in itertools.permutations("abcdefgh"[:ell])]
    memo, rotations = {}, comb._Rotations()
    total = 0
    for pieces in itertools.product(orderings, repeat=2 * m):
        word = rotations["".join(pieces)]
        total += comb._gaussian_trace_moment((word,), False, memo, rotations).get(1, 0)
    return total


_ANTI_L_DEFECT = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: the anti-l recurrence is wrong for l >= 3 at this order")


@pytest.mark.parametrize("ell,m", [
    (2, 4), (3, 1), (3, 2), (4, 1),
    pytest.param(3, 3, marks=_ANTI_L_DEFECT),  # recurrence 2088, word route 2064
    pytest.param(4, 2, marks=_ANTI_L_DEFECT),  # recurrence 1488, word route 1536
])
def test_anti_l_recurrence_matches_the_free_word_route(ell, m):
    assert comb.moment_ell_anticommutator(m, ell) == _anti_l_word_moment(ell, m)


def test_anti_l_trials_match_exact_finite_n_fourth_moment():
    # anti-l:3 samples C, the sum over the 3! orderings of three iid GOEs
    # (off-diagonal variance 1, diagonal 2).  With x = A / sqrt(N), the GOE
    # letters of _gaussian_trace_moment at k = N, tr (C / N^(3/2))^4 is
    # Tr C_x^4 / N: E of it is the sum of E[Tr w] over the 6^4 words of the
    # expansion, at k = N, over N.  The limit 96 sits 19 standard errors
    # below the sampled mean.
    N = 40
    orderings = ["".join(p) for p in itertools.permutations("abc")]
    memo, rotations = {}, comb._Rotations()
    exact = Fraction(0)
    for pieces in itertools.product(orderings, repeat=4):
        word = rotations["".join(pieces)]
        moment = comb._gaussian_trace_moment((word,), True, memo, rotations)
        exact += sum(c * Fraction(N) ** e for e, c in moment.items())
    exact /= N
    plan = stats.ExperimentPlan("anti-l:3", (N,), trials=400, seed=19, outputs=("spectra",))
    samples = np.array([np.sum(eigs**4) / N**7 for eigs in stats.run_trials(plan).spectra[N]])
    z = (samples.mean() - float(exact)) / (samples.std(ddof=1) / math.sqrt(samples.size))
    assert abs(z) <= 4, z


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
