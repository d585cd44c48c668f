"""Current algebra of matrix words and the degeneration certificate."""

from fractions import Fraction

from glomega import (
    bimodule_iso_check,
    degeneration_check,
    direct_sum_C,
    gl_current_bracket,
    graded_dim,
    matrix_algebra,
    null_algebra,
    odot_words,
    path_algebra_iso_check,
)


def main() -> None:
    c2 = direct_sum_C(2)
    m2 = matrix_algebra(2)

    print("== the shifted product on words ==")
    # adjacent letters at the junction multiply through the table
    print("(0,1) . (1,1) over C+C  ->", odot_words(c2, (0, 1), (1, 1)))
    print("(0,1) . (2,3) over Mat2 ->", odot_words(m2, (0, 1), (2, 3)))
    print("(0,)  . (1,)  over C+C  ->", odot_words(c2, (0,), (1,)), " (junction annihilates)")

    print()
    print("== graded dimensions ==")
    # the grade-n slice has dimension d^2 * (dim Omega)^(n+1); the closed
    # form is checked in the test suite, here we just print a table
    for spec, label in ((c2, "C+C"), (m2, "Mat2"), (null_algebra(2), "null2")):
        dims = [graded_dim(spec, 2, n) for n in range(4)]
        print("%-6s d=2 grades 0..3:" % label, dims)

    print()
    print("== structural identifications ==")
    print("currents of C^3 are the path algebra of the complete quiver on 3 vertices:", path_algebra_iso_check(3, 3))
    print("grade-2 slice is the balanced tensor square (C+C):", bimodule_iso_check(c2, 2))

    print()
    print("== the bracket on currents ==")
    a = {(1, 1, (0,)): 1}
    b = {(1, 2, (0, 1)): 1}
    print("[E11(0), E12(01)] =", gl_current_bracket(c2, a, b), "(keys: i, j, word)")

    print()
    print("== degeneration certificate ==")
    # the commutator of lifted generators, after peeling top symbols, lands
    # back in the span of lifted generators with the current bracket as its
    # leading term; checked at two sizes to guard against edge effects
    cases = [
        (1, 1, 1, 1, (0,), (0,), 1),
        (1, 2, 2, 1, (0,), (1,), 2),
        (1, 1, 1, 1, (0, 1), (1, 0), 2),
    ]
    for i, j, k, l, x, y, d in cases:
        ok = degeneration_check(c2, i, j, k, l, x, y, d, Fraction(0))
        print("i,j,k,l = %d%d%d%d  x=%s y=%s d=%d  ->" % (i, j, k, l, x, y, d), ok)


if __name__ == "__main__":
    main()
