"""Exact limiting moments via pairing enumeration, recurrences, and closed forms.

Positions are 0-based throughout.  A pairing of 2n positions is held as a
partner table t with t[t[i]] == i and t[i] != i; the helpers also accept
an iterable of index pairs.  All counting is done in Python integers, so
nothing overflows and the genus coefficients stay exact.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

ENUMERATION_LIMITS = {
    "configurations": 16,  # pairs, i.e. word length 32
    "goe-goe": 5,
    "pte-pte": 4,
    "goe-pte": 4,
    "laurent": 4,
}


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
# configurations and pairings


def enumerate_configurations(n):
    """All words of n letter-pairs, each pair 'ab' or 'ba', in lex order.

    These index the ways of expanding a product of n anticommutator
    factors; there are 2^n of them.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > ENUMERATION_LIMITS["configurations"]:
        raise ValueError(f"budget exceeded: n={n} configurations not enumerable")
    return ["".join(w) for w in itertools.product(("ab", "ba"), repeat=n)]


def as_partner_table(pairing, size=None):
    """Normalize a pairing to a partner table, validating the involution."""
    pairing = list(pairing)
    if pairing and not isinstance(pairing[0], (int, tuple, list)):
        raise TypeError("pairing must be index pairs or a partner table")
    if pairing and isinstance(pairing[0], (tuple, list)):
        n2 = 2 * len(pairing) if size is None else size
        table = [-1] * n2
        for i, j in pairing:
            table[i], table[j] = j, i
    else:
        table = [int(x) for x in pairing]
    for i, j in enumerate(table):
        if j < 0 or j >= len(table) or j == i or table[j] != i:
            raise ValueError("not a fixed-point-free involution")
    return table


def is_noncrossing(pairing):
    """True iff no two arcs (i,k),(j,l) interleave as i < j < k < l.

    Left-to-right sweep: every closing position must close the most
    recently opened arc, exactly like balanced parentheses.
    """
    table = as_partner_table(pairing)
    stack = []
    for i, j in enumerate(table):
        if j > i:
            stack.append(i)
        elif stack.pop() != j:
            return False
    return True


def cycle_count(pairing, size=None):
    """Number of cycles of x -> pi(x) + 1 (mod size) for the pairing pi.

    Equals n+1 exactly when the pairing of 2n points is non-crossing,
    and otherwise drops below n-1 in steps of two.
    """
    return len(_cycles(_after_shift(as_partner_table(pairing, size))))


def _after_shift(table):
    """The permutation x -> table[x] + 1 (mod len(table)) as a list."""
    n2 = len(table)
    return [(j + 1) % n2 for j in table]


def _cycles(perm):
    """The cycles of the permutation x -> perm[x], each a list in walk order."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = perm[x]
        cycles.append(cycle)
    return cycles


def _pairings(positions):
    """Yield every perfect matching of the positions as a list of pairs.

    Depth first: the leftmost unmatched position is tried against each
    later candidate.  Odd inputs yield nothing.
    """
    positions = list(positions)
    if not positions:
        yield []
        return
    if len(positions) % 2:
        return
    first = positions[0]
    rest = positions[1:]
    for t, partner in enumerate(rest):
        remaining = rest[:t] + rest[t + 1:]
        for tail in _pairings(remaining):
            tail.append((first, partner))
            yield tail


def _nc_pairings(positions):
    """Yield the non-crossing matchings of the positions (same order as math:
    the leftmost point pairs with a point leaving even gaps on both sides)."""
    positions = list(positions)
    if not positions:
        yield []
        return
    first = positions[0]
    for t in range(1, len(positions), 2):
        inner, outer = positions[1:t], positions[t + 1:]
        for left in _nc_pairings(inner):
            for right in _nc_pairings(outer):
                yield [(first, positions[t])] + left + right


def _layer_groups(word, a_pairs):
    """Partition the b-positions into the faces cut out by the a-arcs.

    Two b-positions land in the same layer exactly when every a-arc has
    both or neither of them strictly inside, i.e. they see the same set
    of covering arcs.  The a-arcs must be non-crossing; the input is not
    validated, since this runs inside enumeration loops.
    """
    arcs = a_pairs
    groups = {}
    for x in (i for i, c in enumerate(word) if c == "b"):
        cover = frozenset(idx for idx, (p, q) in enumerate(arcs)
                          if min(p, q) < x < max(p, q))
        groups.setdefault(cover, []).append(x)
    return list(groups.values())


# ---------------------------------------------------------------------------
# {GOE, GOE}


def _count_nc_typed(word, lo, hi):
    """Count non-crossing matchings of word[lo:hi] pairing equal letters only."""
    if lo >= hi:
        return 1
    total = 0
    for t in range(lo + 1, hi, 2):
        if word[t] == word[lo]:
            inner = _count_nc_typed(word, lo + 1, t)
            if inner:
                total += inner * _count_nc_typed(word, t + 1, hi)
    return total


def _moment_goe_goe_enumeration(m):
    if m > ENUMERATION_LIMITS["goe-goe"]:
        raise ValueError(f"budget exceeded: enumeration limited to m <= "
                         f"{ENUMERATION_LIMITS['goe-goe']}, got {m}")
    return sum(_count_nc_typed(word, 0, 4 * m)
               for word in enumerate_configurations(2 * m))


def _f_g_tables(m_max):
    """The interlinked sequences behind the limiting even moments.

    f(0) = f(1) = g(1) = 1 and for m > 1
      g(m) = 2 f(m-1) + sum over x1, x2 >= 0 with x1 + x2 <= m-2 of
             (1 + [x1>0]) (1 + [x2>0]) f(x1) f(x2) g(m-1-x1-x2),
      f(m) = g(m) + 2 sum_{j=1}^{m-1} g(j) f(m-j).
    """
    f = {0: 1, 1: 1}
    g = {1: 1}
    for m in range(2, m_max + 1):
        acc = 2 * f[m - 1]
        for x1 in range(0, m - 1):
            for x2 in range(0, m - 1 - x1):
                weight = (2 if x1 else 1) * (2 if x2 else 1)
                acc += weight * f[x1] * f[x2] * g[m - 1 - x1 - x2]
        g[m] = acc
        f[m] = g[m] + 2 * sum(g[j] * f[m - j] for j in range(1, m))
    return f, g


def _moment_goe_goe_explicit(m):
    total = sum(2 ** k * math.comb(2 * m, k - 1) * math.comb(m, k)
                for k in range(1, m + 1))
    if total % m:
        raise ArithmeticError(f"explicit sum {total} not divisible by m={m}")
    return total // m


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

    All four methods return the same integer; 'enumeration' recounts it
    from scratch by classifying pairings and is capped at m <= 5.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if method == "enumeration":
        return _moment_goe_goe_enumeration(m)
    if method == "recurrence":
        f, _ = _f_g_tables(m)
        return 2 * f[m]
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
    counts of the two letter classes per configuration (every
    type-respecting pairing contributes 1 in this ensemble pair).
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if method == "closed_form":
        return 2 ** (2 * m) * double_factorial(2 * m - 1) ** 2
    if method == "enumeration":
        if m > ENUMERATION_LIMITS["pte-pte"]:
            raise ValueError(f"budget exceeded: enumeration limited to m <= "
                             f"{ENUMERATION_LIMITS['pte-pte']}, got {m}")
        total = 0
        for word in enumerate_configurations(2 * m):
            a_pos = [i for i, c in enumerate(word) if c == "a"]
            b_pos = [i for i, c in enumerate(word) if c == "b"]
            count_a = sum(1 for _ in _pairings(a_pos))
            count_b = sum(1 for _ in _pairings(b_pos))
            total += count_a * count_b
        return total
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# {GOE, PTE}


@dataclass(frozen=True)
class SigmaTable:
    """Triangular table sigma[n][s] of mixed-pair counts.

    Row 0 is sigma_{0,0} = 1 and sigma_{0,s} = (2s-1)!!; deeper rows
    follow the two-term recurrence
      sigma_{n,s} = sum_{k=1}^{n} sigma_{k-1,1} sigma_{n-k,s}
                                + sigma_{k-1,0} sigma_{n-k,s+1}.
    """

    n_max: int
    s_max: int
    values: tuple  # values[n][s]

    def value(self, n, s):
        return self.values[n][s]


def sigma_table(n_max, s_max):
    if n_max < 0 or s_max < 0:
        raise ValueError("table bounds must be nonnegative")
    # Row n consumes entries at column s+1 from earlier rows, so build the
    # scratch table s_max + n_max columns wide and trim at the end.
    wide = s_max + n_max
    rows = [[1] + [double_factorial(2 * s - 1) for s in range(1, wide + 1)]]
    for n in range(1, n_max + 1):
        row = []
        for s in range(0, wide - n + 1):
            acc = 0
            for k in range(1, n + 1):
                acc += (rows[k - 1][1] * rows[n - k][s]
                        + rows[k - 1][0] * rows[n - k][s + 1])
            row.append(acc)
        rows.append(row)
    trimmed = tuple(tuple(row[: s_max + 1]) for row in rows)
    return SigmaTable(n_max=n_max, s_max=s_max, values=trimmed)


def _moment_goe_pte_enumeration(m):
    if m > ENUMERATION_LIMITS["goe-pte"]:
        raise ValueError(f"budget exceeded: enumeration limited to m <= "
                         f"{ENUMERATION_LIMITS['goe-pte']}, got {m}")
    total = 0
    for word in enumerate_configurations(2 * m):
        a_pos = [i for i, c in enumerate(word) if c == "a"]
        for a_pairs in _nc_pairings(a_pos):
            ways = 1
            for group in _layer_groups(word, a_pairs):
                if len(group) % 2:
                    ways = 0
                    break
                ways *= double_factorial(len(group) - 1)
            total += ways
    return total


def moment_goe_pte(m, method="recurrence"):
    """Limiting 2m-th moment for one GOE factor against one palindromic
    Toeplitz factor: the a-arcs must be non-crossing and every b-pair must
    stay inside a single face of the a-arc diagram Usually computed as
    sigma_{m,0}; enumeration recounts for m <= 4."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if method == "recurrence":
        return sigma_table(m, 0).value(m, 0)
    if method == "enumeration":
        return _moment_goe_pte_enumeration(m)
    raise ValueError(f"unknown method {method!r}")


def moment_bounds_goe_pte(m):
    """Bracket for the mixed 2m-th moment: grows faster than any power,
    slower than the factorial-type upper product."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
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
    constant term is the k -> infinity limit.
    """

    coeffs: tuple

    def at(self, k):
        """Evaluate at block size k; exact Fraction for integer k."""
        if isinstance(k, int):
            return sum(Fraction(c, k ** (2 * g)) for g, c in enumerate(self.coeffs))
        return float(sum(c / k ** (2 * g) for g, c in enumerate(self.coeffs)))

    def __str__(self):
        parts = [str(self.coeffs[0])]
        parts += [f"{c}*k^-{2 * g}" for g, c in enumerate(self.coeffs) if g and c]
        return " + ".join(parts)


def _genus(cycles, top):
    """Half the amount by which a cycle count falls short of top."""
    defect = top - cycles
    if defect < 0 or defect % 2:
        raise ArithmeticError(f"cycle count {cycles} out of range for top {top}")
    return defect // 2


def _first_return_shape(rho, marked):
    """Split the cycles of rho by how many marked points each one holds.

    Returns (closed, shape): closed counts the cycles holding no marked
    point, and shape is the sorted tuple of the nonzero counts, i.e. the
    cycle type of the first-return map of rho on the marked points.
    """
    closed = 0
    shape = []
    for cycle in _cycles(rho):
        hits = sum(marked[x] for x in cycle)
        if hits:
            shape.append(hits)
        else:
            closed += 1
    return closed, tuple(sorted(shape))


def _pairing_cycle_counts(rho):
    """Tally the cycle counts of rho o tau over every pairing tau of rho's points.

    Returns {cycles: number of pairings}.  Conjugating rho only permutes
    the pairings, so the tally depends on rho's cycle type alone.
    """
    counts = {}
    perm = list(rho)
    for pairs in _pairings(range(len(rho))):
        for i, j in pairs:
            perm[i], perm[j] = rho[j], rho[i]
        c = len(_cycles(perm))
        counts[c] = counts.get(c, 0) + 1
    return counts


def _canonical_permutation(shape):
    """A permutation with the given cycle type: each cycle runs over a block
    of consecutive points, x -> x + 1 inside it."""
    rho = []
    for length in shape:
        first = len(rho)
        rho += range(first + 1, first + length)
        rho.append(first)
    return rho


def _genus_weights(m, layer_confined):
    """Tally pairings of the 4m-letter words by cycle defect.

    With layer_confined, a-arcs are non-crossing and b-arcs stay inside
    the faces they cut out (b-arcs may cross each other there); without
    it both letters pair freely.  Returns counts[g] of pairings whose
    cycle count falls short of the maximum 2m+1 by exactly 2g.

    The free branch counts b-pairings by class, as moment_bce_bce
    explains, instead of walking every pairing.
    """
    if m > ENUMERATION_LIMITS["laurent"]:
        raise ValueError(f"budget exceeded: enumeration limited to m <= "
                         f"{ENUMERATION_LIMITS['laurent']}, got {m}")
    n2 = 4 * m
    top = 2 * m + 1
    counts = {}
    if layer_confined:
        table = [-1] * n2
        for word in enumerate_configurations(2 * m):
            a_pos = [i for i, c in enumerate(word) if c == "a"]
            for a_pairs in _nc_pairings(a_pos):
                for i, j in a_pairs:
                    table[i], table[j] = j, i
                pools = [list(_pairings(g)) for g in _layer_groups(word, a_pairs)]
                for combo in itertools.product(*pools):
                    for part in combo:
                        for i, j in part:
                            table[i], table[j] = j, i
                    g = _genus(len(_cycles(_after_shift(table))), top)
                    counts[g] = counts.get(g, 0) + 1
    else:
        classes = {}  # (closed, shape) -> number of (word, a-pairing)
        for word in enumerate_configurations(2 * m):
            a_pos = [i for i, c in enumerate(word) if c == "a"]
            is_b = [c == "b" for c in word]
            table = list(range(n2))  # the a-pairing, fixing the b-positions
            for a_pairs in _pairings(a_pos):
                for i, j in a_pairs:
                    table[i], table[j] = j, i
                key = _first_return_shape(_after_shift(table), is_b)
                classes[key] = classes.get(key, 0) + 1
        by_shape = {}
        for (closed, shape), ways in classes.items():
            if shape not in by_shape:
                by_shape[shape] = _pairing_cycle_counts(_canonical_permutation(shape))
            for c, n in by_shape[shape].items():
                g = _genus(closed + c, top)
                counts[g] = counts.get(g, 0) + ways * n
    g_max = max(counts)
    return LaurentMoment(tuple(counts.get(g, 0) for g in range(g_max + 1)))


def moment_goe_bce(m):
    """2m-th moment of the GOE against block-circulant pair, exact in k.

    The coefficient of k^-2g counts layer-confined pairings with cycle
    defect 2g; at k=1 the value collapses to the palindromic mixed case.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return _genus_weights(m, layer_confined=True)


def moment_bce_bce(m):
    """2m-th moment of the anticommutator of two block-circulant draws.

    Every type-respecting pairing contributes k to the power of its cycle
    defect; at k=1 this reduces to the palindromic Toeplitz closed form.

    The pairings are counted by class, not one by one.  Write gamma for
    x -> x + 1 (mod 4m), tau_a for the a-pairing (fixing the b-positions
    B) and rho = gamma o tau_a.  For every b-pairing tau_b the permutation
    x -> tau(x) + 1 is rho o tau_b; its cycles are the rho-cycles that
    miss B, plus the cycles of rho_B o tau_b, where rho_B is the
    first-return map of rho on B.  Relabelling B by any h turns rho_B
    into h rho_B h^-1 and only permutes the pairings of B, so the tally
    of cycles(rho_B o tau_b) over all tau_b depends on the cycle type of
    rho_B alone.  It is computed once per type (18 types at m = 4) on a
    canonical permutation and shifted by the number of closed cycles.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return _genus_weights(m, layer_confined=False)


def denormalize_moment(value, m, second_moment):
    """Undo variance-1 rescaling of a 2m-th moment: multiply by the raw
    second moment to the m-th power."""
    return value * second_moment ** m


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
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
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


def bulk_moment_checker(m, k, j=None):
    """Bulk 2m-th moment when one or both factors carry a mod-k weight
    structure: the two-GOE value damped by (1 - 1/k) (and (1 - 1/j)) per
    moment order.  Exact rational."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    f, _ = _f_g_tables(m)
    out = 2 * Fraction(k - 1, k) ** m * f[m]
    if j is not None:
        if j < 2:
            raise ValueError(f"need j >= 2, got {j}")
        if math.gcd(k, j) != 1:
            raise ValueError(f"need gcd(k, j) = 1, got k={k}, j={j}")
        out *= Fraction(j - 1, j) ** m
    return out
