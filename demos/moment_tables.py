"""Print the exact moment tables behind every matrix pair in the package.

Everything here is integer or rational arithmetic: the anticommutator
moments of two independent GOE matrices counted four independent ways,
the palindromic-Toeplitz pair with its double-factorial closed form, the
mixed pair with its recurrence table and bracketing bounds, and the
genus expansions that interpolate between them as the block count k
grows.  A fast way to eyeball that the combinatorics hangs together.
"""

import argparse
from fractions import Fraction

from antispectra import combinatorics as comb


def goe_goe_table(m_max):
    print("{GOE, GOE} moments, four routes (enumeration capped at m=5):")
    print(f"{'m':>3} {'recurrence':>12} {'explicit':>12} {'series':>12} {'enumeration':>12}")
    for m in range(1, m_max + 1):
        row = [comb.moment_goe_goe(m, "recurrence"),
               comb.moment_goe_goe(m, "explicit"),
               comb.moment_goe_goe(m, "series")]
        enum = comb.moment_goe_goe(m, "enumeration") if m <= 5 else "-"
        print(f"{m:>3} {row[0]:>12} {row[1]:>12} {row[2]:>12} {enum:>12}")


def pte_pte_table(m_max):
    print("\n{PTE, PTE} moments, closed form 2^(2m) ((2m-1)!!)^2:")
    for m in range(1, m_max + 1):
        value = comb.moment_pte_pte(m)
        print(f"  m={m}: {value}")


def goe_pte_table(m_max):
    print("\n{GOE, PTE} moments with bracketing bounds:")
    print(f"{'m':>3} {'lower':>12} {'sigma_m0':>12} {'upper':>12}")
    for m in range(1, m_max + 1):
        lower, upper = comb.moment_bounds_goe_pte(m)
        print(f"{m:>3} {lower:>12} {comb.moment_goe_pte(m):>12} {upper:>12}")


def genus_tables(m_max):
    print("\nGenus expansions in the block count k (constant term first):")
    for m in range(1, m_max + 1):
        print(f"  {{GOE, BCE}}  m={m}: {comb.moment_goe_bce(m)}")
    for m in range(1, m_max + 1):
        print(f"  {{BCE, BCE}}  m={m}: {comb.moment_bce_bce(m)}")
    print("\nEvaluated at k=2 and reduced at k=1 (k=1 recovers the Toeplitz pair):")
    for m in range(1, m_max + 1):
        poly = comb.moment_goe_bce(m)
        print(f"  m={m}: at k=2 -> {poly.at(2)},  at k=1 -> {poly.at(1)}"
              f"  (mixed-pair value {comb.moment_goe_pte(m)})")


def normalized_identities():
    print("\nNormalized {GOE, BCE} moments divided by 2^m:")
    for m in (2, 3, 4):
        coeffs = [Fraction(c, 2**m) for c in comb.moment_goe_bce(m).coeffs]
        terms = [str(coeffs[0])]
        terms += [f"({c})/k^{2 * g}" for g, c in enumerate(coeffs) if g and c]
        print(f"  m={m}: " + " + ".join(terms))


def ell_table(m_max):
    print("\nHigher-order anticommutator moments of independent GOEs:")
    for ell in (2, 3):
        values = [comb.moment_ell_anticommutator(m, ell)
                  for m in range(1, min(m_max, 3) + 1)]
        print(f"  ell={ell}: {values}")
    if m_max >= 3:
        print("  (the ell >= 3 values from m = 3 on disagree with the free word"
              " route, which gives 2064 at ell = 3, m = 3)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m-max", type=int, default=6,
                        help="largest moment order to tabulate (default 6)")
    args = parser.parse_args()
    goe_goe_table(args.m_max)
    pte_pte_table(min(args.m_max, 4))
    goe_pte_table(args.m_max)
    genus_tables(min(args.m_max, comb.ENUMERATION_LIMITS["bce-bce"]))
    normalized_identities()
    ell_table(args.m_max)


if __name__ == "__main__":
    main()
