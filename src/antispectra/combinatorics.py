"""Exact limiting moments via word recursions, recurrences, and closed forms.

Every table is exact: a moment is a Python int, a Fraction, or a
LaurentMoment, a polynomial in 1/k^2 with int coefficients.  Words are
strings over 'a' and 'b', and positions are 0-based.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

ENUMERATION_LIMITS = {
    "goe-goe": 5,
    "pte-pte": 4,
    "goe-pte": 4,
    "bce-bce": 6,
}


def _check_order(m, table=None):
    """Reject an order m below 1, or above the table's ENUMERATION_LIMITS entry."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if table is not None and m > ENUMERATION_LIMITS[table]:
        raise ValueError(f"budget exceeded: enumeration limited to m <= "
                         f"{ENUMERATION_LIMITS[table]}, got {m}")


def double_factorial(n):
    """n!! for odd n >= -1, with (-1)!! = 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def catalan(m):
    return math.comb(2 * m, m) // (m + 1)


# ---------------------------------------------------------------------------
# configurations


def _configuration_classes(n):
    """Each rotation class of the words of n letter-pairs, each pair 'ab' or 'ba', once.

    These words index the ways of expanding a product of n anticommutator
    factors, 2^n of them.  Yields (word, size) in lex order: the least of the
    class's pair-rotations and the class's size, its period in pairs.  A
    tracial value is the same across a class, so a sum over all 2^n words is
    the sum of size x value over the classes.  Duval's generation of the
    Lyndon words of length dividing n (Fredricksen-Kessler-Maiorana).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    lyndon = [-1]  # 0 stands for 'ab', 1 for 'ba'
    while lyndon:
        lyndon[-1] += 1
        period = len(lyndon)
        if n % period == 0:
            yield "".join([("ab", "ba")[x] for x in lyndon]) * (n // period), period
        lyndon = (lyndon * (n // period + 1))[:n]
        while lyndon and lyndon[-1] == 1:
            lyndon.pop()


# ---------------------------------------------------------------------------
# the free semicircular word recursion


class _Rotations(dict):
    """Maps a cyclic word to its least rotation, each word computed once.

    The Gaussian engine's states are sorted tuples of cyclic words, so it
    needs this canonical form.  One instance serves one call, like the memo
    beside it.
    """

    def __missing__(self, word):
        n = len(word)
        twice = word + word
        least = min([twice[i:i + n] for i in range(n)], default=word)
        self[word] = least
        return least


def _a_first(word):
    """The rotation of word that starts at its first a; a word with no a, unchanged."""
    start = word.find("a")
    return word[start:] + word[:start] if start > 0 else word


def _free_word_moment(word, row, memo):
    """phi(word) for a semicircular s free from an even b with phi(b^(2n)) = row[n].

    word is over the letters 'a' (for s) and 'b', with an even count of
    each, and starts with an a or holds none.  Only + and * touch the row's
    ints, Fractions or LaurentMoments, and a zero is always the int 0.  A
    word with an a is handed to _free_gap_moment as its b-gap tuple g, g[i]
    the count of b's after its i-th a (the last gap runs to the word's end,
    which by traciality is the gap before the first a).  memo belongs to one
    call and is keyed by those tuples.
    """
    if not word.startswith("a"):
        return row[len(word) // 2]
    return _free_gap_moment(tuple(map(len, word[1:].split("a"))), row, memo)


def _free_gap_moment(g, row, memo):
    """phi of the word a b^g[0] a b^g[1] ... a b^g[-1], as _free_word_moment.

    phi(s u) sums phi(u1) phi(u2) over the splittings u = u1 s u2 (the
    non-crossing pairings of s).  Pairing the first a with the j-th leaves
        u1 = b^g[0] a ... a b^g[j-1],  gaps g[1:j-1] + (g[j-1] + g[0],),
        u2 = b^g[j] a ... a b^g[-1],   gaps g[j+1:-1] + (g[-1] + g[j],),
    each rotated to start at its first a, or row[g[0] / 2] and row[g[-1] / 2]
    when the part holds no a (j = 1, j = len(g) - 1).  A splitting that
    leaves an odd count of either letter in u1 (j even, or an odd count of
    b's in g[:j]) is skipped, and so is u2 when phi(u1) is 0, and the
    product when phi(u2) is 0.

    Zero words are skipped whole by a parity.  phi(word) sums, over the
    non-crossing pairings of the a's, the product over the faces of
    phi(b^r), r the b's in the face, and b's odd moments are 0.  An
    innermost arc encloses one gap, its own face, which a nonzero term needs
    even; removing the arc drops that gap and merges the two beside it,
    which are two apart.  Neither step changes the parity of sum(g[::2]),
    and the last arc leaves those b's as one face.  A word with sum(g[::2])
    odd is therefore 0 (16 of the 36 class words at m = 4, 2,048 of 4,116
    at m = 8).
    """
    if g in memo:
        return memo[g]
    out = 0
    n, first, last = len(g), g[0], g[-1]
    if sum(g[::2]) % 2 == 0:
        before = 0  # the b's in g[:j]
        for j in range(1, n, 2):
            before += g[j - 1]
            if before % 2 == 0:
                p = (row[first // 2] if j == 1 else
                     _free_gap_moment(g[1:j - 1] + (g[j - 1] + first,), row, memo))
                if p:
                    q = (row[last // 2] if j == n - 1 else
                         _free_gap_moment(g[j + 1:-1] + (last + g[j],), row, memo))
                    if q:
                        out += p * q
            before += g[j]
    memo[g] = out
    return out


def _free_moment_sum(m, row):
    """phi((sb + bs)^(2m)) for s semicircular and free from an even b with
    phi(b^(2n)) = row[n], in the row's type (or the int 0).

    Sums _free_word_moment over the words of the anticommutator's expansion,
    a standing for s, one word per rotation class weighted by its size; the
    memo lives for this one call.
    """
    memo = {}
    return sum(size * _free_word_moment(_a_first(word), row, memo)
               for word, size in _configuration_classes(2 * m))


# ---------------------------------------------------------------------------
# the sigma recurrence


def sigma_table(n_max, s_max, row):
    """sigma[n][s] = phi((sb + bs)^(2n) b^(2s)), n <= n_max and s <= s_max, as a
    tuple of rows, for s semicircular and free from an even b (one whose odd
    moments are 0) with phi(b^(2s)) = row[s].

    row needs n_max + s_max + 1 entries.  The table uses only + and * on
    them, so the entries may be ints, Fractions, or LaurentMoments when b's
    moments are polynomials in 1/k^2.

    Row 0 is row.  For n >= 1, write X = sb + bs and pair the s of the first
    factor of X^(2n) b^(2s); a trace starting bs is rotated to start s, which
    leaves b^(2s+1) at the end.  phi(s y) sums phi(y1) phi(y2) over the
    splittings y = y1 s y2 (the non-crossing pairings of s, free from b), so
    b enters only through the moments of the b's in each face: row 0.  With
    the partner s in factor 2k, 2k - 2 whole factors lie between them:
      first sb, partner bs:  phi(b X^(2k-2) b) phi(X^(2n-2k) b^(2s))
                             = sigma[k-1][1] sigma[n-k][s];
      first bs, partner sb:  phi(X^(2k-2)) phi(b X^(2n-2k) b^(2s+1))
                             = sigma[k-1][0] sigma[n-k][s+1].
    A partner of the same kind as the first factor, or one in an odd-numbered
    factor, leaves an odd count of b's or of s's in y1, whose phi is 0 since
    b and s are even.  So row n sums sigma[k-1][1] sigma[n-k][s]
    + sigma[k-1][0] sigma[n-k][s+1] over k = 1..n.
    """
    if n_max < 0 or s_max < 0:
        raise ValueError("table bounds must be nonnegative")
    # Row n consumes entries at column s+1 from earlier rows, so build the
    # scratch table s_max + n_max columns wide and trim at the end.
    wide = s_max + n_max
    if len(row) <= wide:
        raise ValueError(f"row needs {wide + 1} entries, got {len(row)}")
    rows = [list(row[: wide + 1])]
    for n in range(1, n_max + 1):
        next_row = []
        for s in range(0, wide - n + 1):
            acc = 0
            for k in range(1, n + 1):
                acc += (rows[k - 1][1] * rows[n - k][s]
                        + rows[k - 1][0] * rows[n - k][s + 1])
            next_row.append(acc)
        rows.append(next_row)
    return tuple(tuple(row[: s_max + 1]) for row in rows)


# ---------------------------------------------------------------------------
# {GOE, GOE}


def _moment_goe_goe_explicit(m):
    total = sum(2 ** k * math.comb(2 * m, k - 1) * math.comb(m, k)
                for k in range(1, m + 1))
    return total // m  # exact: the sum is m times the moment


def _poly_mul(p, q, order):
    out = [0] * (order + 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if i + j > order:
                    break
                out[i + j] += a * b
    return out


def schroeder_numbers(order):
    """Coefficients r_0..r_order of the power series F = 1 + z(F^2 + F^3).

    These are the limiting even moments (r_m is the 2m-th) and start
    1, 2, 10, 66, 498, 4066.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    c = [1] + [0] * order
    for m in range(1, order + 1):
        f2 = _poly_mul(c, c, m - 1)
        f3 = _poly_mul(f2, c, m - 1)
        c[m] = f2[m - 1] + f3[m - 1]
    return c


def moment_goe_goe(m, method="recurrence"):
    """Limiting expected 2m-th moment of the two-GOE anticommutator.

    All four methods return the same integer, phi((sb + bs)^(2m)) for free
    semicirculars s and b.  'recurrence' is sigma_table's column 0 with b's
    moments the Catalan numbers; 'enumeration' is capped at m <= 5 and
    recounts it by the word recursion on the same row.
    """
    _check_order(m)
    semicircle = [catalan(n) for n in range(m + 1)]
    if method == "enumeration":
        _check_order(m, "goe-goe")
        return _free_moment_sum(m, semicircle)
    if method == "recurrence":
        return sigma_table(m, 0, semicircle)[m][0]
    if method == "explicit":
        return _moment_goe_goe_explicit(m)
    if method == "series":
        return schroeder_numbers(m)[m]
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# {PTE, PTE}


def moment_pte_pte(m, method="closed_form"):
    """Limiting 2m-th moment when both factors are palindromic Toeplitz.

    Closed form 2^(2m) ((2m-1)!!)^2; enumeration multiplies the matching
    counts (c-1)!! of the two letter classes, c letters each, per
    configuration (every type-respecting pairing contributes 1 in this
    ensemble pair).
    """
    _check_order(m)
    if method == "closed_form":
        return 2 ** (2 * m) * double_factorial(2 * m - 1) ** 2
    if method == "enumeration":
        _check_order(m, "pte-pte")
        return sum(size * double_factorial(word.count("a") - 1)
                   * double_factorial(word.count("b") - 1)
                   for word, size in _configuration_classes(2 * m))
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# {GOE, PTE}


def moment_goe_pte(m, method="recurrence"):
    """Limiting 2m-th moment for one GOE factor against one palindromic
    Toeplitz factor: the a-arcs must be non-crossing and every b-pair must
    stay inside a single face of the a-arc diagram.  Usually computed as
    sigma_{m,0}; enumeration recounts for m <= 4 as phi((sb + bs)^(2m)),
    s semicircular and free from a standard Gaussian b, by the word
    recursion with b's moments (2n-1)!!."""
    _check_order(m)
    gaussian = [double_factorial(2 * n - 1) for n in range(m + 1)]
    if method == "recurrence":
        return sigma_table(m, 0, gaussian)[m][0]
    if method == "enumeration":
        _check_order(m, "goe-pte")
        return _free_moment_sum(m, gaussian)
    raise ValueError(f"unknown method {method!r}")


def moment_bounds_goe_pte(m):
    """Bracket for the mixed 2m-th moment: grows faster than any power,
    slower than the factorial-type upper product."""
    _check_order(m)
    lower = sum(math.comb(m, i) * double_factorial(2 * i - 1)
                for i in range(0, m + 1))
    upper = 4 ** m * double_factorial(2 * m - 1) * catalan(m)
    return lower, upper


# ---------------------------------------------------------------------------
# genus expansions (block circulant pairs)


@dataclass(frozen=True)
class LaurentMoment:
    """Moment as integer coefficients of k^0, k^-2, k^-4, ...

    coeffs[g] counts the pairings whose cycle defect is exactly 2g; the
    constant term is the k -> infinity limit.  Trailing zero coefficients
    are trimmed at construction (one coefficient is kept), so equal
    polynomials compare equal, and a sum or product that is the zero
    polynomial is the int 0.
    """

    coeffs: tuple

    def __post_init__(self):
        coeffs = self.coeffs
        while len(coeffs) > 1 and not coeffs[-1]:
            coeffs = coeffs[:-1]
        if coeffs is not self.coeffs:
            object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _trimmed(cls, coeffs):
        """The LaurentMoment of coeffs, whose last entry is not 0, built without
        __init__: the sums and products of the tables make many of them."""
        out = object.__new__(cls)
        object.__setattr__(out, "coeffs", coeffs)
        return out

    def __add__(self, other):
        if not isinstance(other, LaurentMoment):
            # x + 0 is x, so a sum may start from, or meet, the int zero.
            return self if other == 0 else NotImplemented
        longer, shorter = self.coeffs, other.coeffs
        if len(longer) < len(shorter):
            longer, shorter = shorter, longer
        out = tuple(map(operator.add, longer, shorter)) + longer[len(shorter):]
        if out[-1]:
            return self._trimmed(out)
        return LaurentMoment(out) if any(out) else 0

    __radd__ = __add__

    def __mul__(self, other):
        """The product in k, a convolution of the coefficients; an int is a constant."""
        if isinstance(other, int):
            out = tuple(other * a for a in self.coeffs)
        elif isinstance(other, LaurentMoment):
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for g, a in enumerate(self.coeffs):
                for gh, c in enumerate(other.coeffs, g):
                    out[gh] += a * c
            out = tuple(out)
        else:
            return NotImplemented
        # Both factors are trimmed, so the product's last coefficient, the
        # product of theirs, is 0 only when one factor is the zero polynomial.
        return self._trimmed(out) if out[-1] else 0

    __rmul__ = __mul__

    def at(self, k):
        """The exact Fraction at the integer block size k; a float k is a TypeError."""
        return sum(Fraction(c, k ** (2 * g)) for g, c in enumerate(self.coeffs))

    def __str__(self):
        parts = [str(self.coeffs[0])]
        parts += [f"{c}*k^-{2 * g}" for g, c in enumerate(self.coeffs) if g and c]
        return " + ".join(parts)


def _gaussian_trace_moment(words, twisted, memo, rotations):
    """E[prod of Tr w over words] for independent Gaussian k x k letters.

    The letters are GUE_k with E[x_ab x_cd] = [a=d][b=c] / k, or GOE_k when
    twisted is true, whose Wick rule adds [a=c][b=d] / k.  words is a sorted
    tuple of nonempty cyclic words, each its least rotation; the value is a
    polynomial in k held as {exponent: coefficient}.  The loop equation
    pairs the first letter x of the first word with each equal letter, at
    weight 1/k: in the same word Tr(x u1 x u2) becomes Tr(u1) Tr(u2), in
    another word Tr(x u) Tr(v1 x v2) merges into Tr(u w) with w = v2 v1,
    and an empty trace is k.  A GOE letter is symmetric, so the twisted
    term of each pairing transposes a part: Tr(u1 reverse(u2)) in the same
    word, Tr(u reverse(w)) across two (Goulden-Jackson 1997).  memo belongs
    to one call.
    """
    if not words:
        return {0: 1}
    if words in memo:
        return memo[words]
    out = {}

    def add(state):
        kept = tuple(sorted(rotations[w] for w in state if w))
        shift = len(state) - len(kept) - 1
        for e, c in _gaussian_trace_moment(kept, twisted, memo, rotations).items():
            out[e + shift] = out.get(e + shift, 0) + c

    first, rest = words[0], words[1:]
    x, u = first[0], first[1:]
    for j, y in enumerate(u):
        if y == x:
            u1, u2 = u[:j], u[j + 1:]
            add((u1, u2) + rest)
            if twisted:
                add((u1 + u2[::-1],) + rest)
    for i, v in enumerate(rest):
        others = rest[:i] + rest[i + 1:]
        for j, y in enumerate(v):
            if y == x:
                w = v[j + 1:] + v[:j]
                add((u + w,) + others)
                if twisted:
                    add((u + w[::-1],) + others)
    memo[words] = out
    return out


def _harer_zagier(n_max):
    """E[tr G^(2n)] = sum_g eps_g(n) k^(-2g), n <= n_max, as LaurentMoments.

    G is a GUE_k with E|g_ij|^2 = 1/k, and eps_g(n) counts the gluings of a
    2n-gon into a genus-g surface (Harer-Zagier 1986):
    (n+1) eps_g(n) = 2(2n-1) eps_g(n-1) + (n-1)(2n-1)(2n-3) eps_{g-1}(n-2).
    """
    eps = [[1]]
    for n in range(1, n_max + 1):
        row = []
        for g in range(n // 2 + 1):
            acc = 2 * (2 * n - 1) * (eps[n - 1][g] if g < len(eps[n - 1]) else 0)
            if g:
                acc += (n - 1) * (2 * n - 1) * (2 * n - 3) * eps[n - 2][g - 1]
            row.append(acc // (n + 1))
        eps.append(row)
    return [LaurentMoment(tuple(coeffs)) for coeffs in eps]


def moment_goe_bce(m):
    """2m-th moment of the GOE against block-circulant pair, exact in k.

    The coefficient of k^-2g counts layer-confined pairings with cycle
    defect 2g; at k=1 the value collapses to the palindromic mixed case.

    It equals phi((sb + bs)^(2m)), with s semicircular and free from b and
    phi(b^(2n)) = sum_g eps_g(n) k^(-2g), eps_g(n) the Harer-Zagier numbers
    (Harer-Zagier 1986; Nica-Speicher 2006, Lecture 22): sigma_table's
    column 0 on those rows.
    """
    _check_order(m)
    return sigma_table(m, 0, _harer_zagier(m))[m][0]


def moment_bce_bce(m):
    """2m-th moment of the anticommutator of two block-circulant draws.

    Every type-respecting pairing contributes k to the power of its cycle
    defect; at k=1 this reduces to the palindromic Toeplitz closed form.

    It equals E[tr_k {A, B}^(2m)] for independent GUE_k matrices A and B
    with E|a_ij|^2 = 1/k: the sum of E[Tr w] / k over the words w of the
    anticommutator's expansion, each computed by the loop equations of
    _gaussian_trace_moment with the GUE rule, memoised within this call, and
    summed one word per rotation class weighted by its size.
    The coefficient of k^(1-2g) in the sum of E[Tr w] is coeffs[g].
    """
    _check_order(m, "bce-bce")
    memo, rotations = {}, _Rotations()
    total = {}
    for word, size in _configuration_classes(2 * m):
        moment = _gaussian_trace_moment((rotations[word],), False, memo, rotations)
        for e, c in moment.items():
            total[e] = total.get(e, 0) + size * c
    return LaurentMoment(tuple(total.get(1 - 2 * g, 0)
                               for g in range((1 - min(total)) // 2 + 1)))


# ---------------------------------------------------------------------------
# higher-order anticommutators and checkerboard bulks


def moment_ell_anticommutator(m, ell):
    """Limiting 2m-th moment of the order-ell anticommutator of iid GOEs.

    Evaluates the ell+1 interlocking recurrences exactly as stated (the
    middle rule is vacuous at ell=2, where everything reduces to the
    two-GOE tables).
    """
    if ell < 2:
        raise ValueError(f"need ell >= 2, got {ell}")
    _check_order(m)
    lfact = math.factorial(ell)
    f = {(0, 0): 1}
    for k in range(0, ell + 1):
        f[(k, 1)] = 1

    for mm in range(2, m + 1):
        f[(ell, mm)] = lfact * f[(0, mm - 1)]
        for k in range(ell - 1, 0, -1):
            if k == ell - 1:
                acc = f[(ell, mm)]
                w = math.factorial(ell - 1)
                bump = lfact - 1
                for x1 in range(0, mm - 1):
                    for x2 in range(0, mm - 1 - x1):
                        acc += (w * (1 + bump * (x1 > 0)) * (1 + bump * (x2 > 0))
                                * f[(0, x1)] * f[(0, x2)]
                                * f[(1, mm - x1 - x2 - 1)])
                f[(k, mm)] = acc
            else:
                acc = f[(k + 1, mm)]
                w = math.factorial(ell - k) * math.factorial(k - 1)
                for x1 in range(1, mm + 1):
                    for x2 in range(1, mm + 1 - x1):
                        acc += (w * f[(k + 1, x1)] * f[(k + 1, x2)]
                                * f[(ell - k - 1, mm - x1 - x2 + 1)])
                f[(k, mm)] = acc
        f[(0, mm)] = f[(1, mm)] + lfact * sum(
            f[(1, j)] * f[(0, mm - j)] for j in range(1, mm))
    return lfact * f[(0, m)]


def check_moduli(k, j=None):
    """Reject checkerboard moduli outside the theory: k >= 2 and, for a second
    checkerboard, j >= 2 coprime to k."""
    if j is None:
        if k < 2:
            raise ValueError(f"invalid dimension: k={k} must be >= 2")
    elif k < 2 or j < 2:
        raise ValueError(f"invalid dimension: k={k}, j={j} must be >= 2")
    elif math.gcd(k, j) != 1:
        raise ValueError(f"invalid dimension: k={k} and j={j} must be coprime")


def bulk_moment_checker(m, k, j=None):
    """Bulk 2m-th moment when one or both factors carry a mod-k weight
    structure: the two-GOE value damped by (1 - 1/k) (and (1 - 1/j)) per
    moment order.  Exact rational."""
    _check_order(m)
    check_moduli(k, j)
    out = Fraction(k - 1, k) ** m * moment_goe_goe(m)
    if j is not None:
        out *= Fraction(j - 1, j) ** m
    return out
