"""Ordered products of the stable generators stay linearly independent.

An ordered monomial is a sorted tuple of generator labels (i, j, w), one
per factor t_ij(w); the parameter s is given when the monomial is evaluated.
Evaluating every ordered monomial inside a large enough U(gl(N, Omega)) at
one s and row reducing shows full rank, which is the finite evidence behind
treating them as a PBW-style basis.  A deliberately planted relation is
caught by the same machinery.
"""

from fractions import Fraction

from glomega import (
    direct_sum_C,
    independence_check,
    necklace_count,
    pbw_monomials,
    pbw_suite,
    splitting_expected,
    splitting_probe,
)


def main() -> None:
    omega = direct_sum_C(1)
    s = Fraction(0)

    print("== full rank for d = 2, words of length <= 3, degree <= 2 ==")
    monos = pbw_monomials(omega, 2, 3, 2)
    print("ordered monomials:", len(monos), "for example", monos[5])
    report = pbw_suite(omega, 2, 3, 2, 6, s)
    print("rank at N = 6:", report["rank"], "full_rank:", report["full_rank"])

    print()
    print("== a planted dependency is flagged ==")
    # repeat one monomial; the solver must return the obvious relation
    status, combo = independence_check(monos + [monos[3]], omega, 6, s)
    print("status:", status)
    print("witness coefficients:", combo)

    print()
    print("== graded dimension bookkeeping ==")
    # degree-deg slice of the associated graded algebra for gl_d over Omega,
    # counted two ways: necklace words for the center, then the full splitting
    for dim, m in ((2, 2), (2, 3), (3, 2)):
        print("necklace_count(dim=%d, m=%d) = %d" % (dim, m, necklace_count(dim, m)))
    for dim, d, deg in ((1, 1, 1), (1, 0, 2), (2, 1, 1)):
        print(
            "splitting_expected(dim=%d, d=%d, deg=%d) = %d"
            % (dim, d, deg, splitting_expected(dim, d, deg))
        )

    print()
    print("== the probe agrees with the count ==")
    probe = splitting_probe(direct_sum_C(2), 1, 1, (5, 6))
    print("expected:", probe["expected"], "observed:", probe["dims"], "match:", probe["match"])


if __name__ == "__main__":
    main()
