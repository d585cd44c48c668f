# The linear double bracket on the tensor algebra of (letters) x (matrix
# slots), its three axioms, and the Poisson brackets it induces on symbols
# and on necklace words.  The Jacobi identity for the bracket holds exactly
# when the underlying product on letters is associative, and the script
# shows both directions on a 2-dimensional witness.  A matrix symbol
# p_ij(w) is the plain tuple (i, j, w), and a necklace class is its least
# rotation, a plain tuple built by glomega.words.cyclic.

from glomega import (
    check_double_jacobi,
    check_leibniz,
    check_letter_bracket,
    check_skew,
    direct_sum_C,
    double_bracket,
    matrix_algebra,
    nonassoc_witness,
    poisson_pgen,
    poisson_stc,
    pvdw_equivalence,
    symbol_match_smd,
    symbol_match_stc,
    trace_bracket,
)
from glomega.words import cyclic


def show_symbols(poly) -> str:
    """A symbol polynomial {sorted monomial of (i, j, w) symbols: c} as text, shortest monomials first."""
    bits = []
    for mono, c in sorted(poly.items(), key=lambda t: (len(t[0]), t[0])):
        body = "".join("p(%d,%d;%s)" % (i, j, ",".join(map(str, w))) for i, j, w in mono)
        bits.append("%s*%s" % (c, body or "1"))
    return " + ".join(bits) or "0"


def main() -> None:
    c2 = direct_sum_C(2)
    m2 = matrix_algebra(2)

    print("== the bracket on single letters ==")
    db = double_bracket(c2, (0,), (0,))
    print("<<u1, u1>> =", dict(sorted(db.items())), "(keys: left word, right word)")
    print("letter-level closure violations:", check_letter_bracket(c2))

    print()
    print("== axioms on short words (exhaustive) ==")
    for name, spec in (("C+C", c2), ("Mat(2)", m2)):
        cap = 3 if spec.dim <= 2 else 2
        print(
            "%-6s skew: %s  leibniz: %s  jacobi: %s"
            % (
                name,
                check_skew(spec, cap) is None,
                check_leibniz(spec, cap) is None,
                check_double_jacobi(spec, cap) is None,
            )
        )

    print()
    print("== jacobi fails exactly off associativity ==")
    bad = nonassoc_witness()
    print("witness table associative: False")
    print("first jacobi failure:", check_double_jacobi(bad, 2))
    eq = pvdw_equivalence(bad, 2)
    print("associativity witness:", eq["assoc_witness"])
    print("defects appear together:", eq["equivalent"])

    print()
    print("== induced Poisson bracket on matrix symbols ==")
    p = (1, 1, (0, 1))
    q = (1, 1, (1, 0))
    print("{p(1,1;01), p(1,1;10)} =", show_symbols(poisson_pgen(c2, p, q)))
    smd = symbol_match_smd(c2, 1, 1, 1, 1, (0, 1), (1, 0), 2, 0, 4)
    print("matches the top symbol of the commutator:", smd)

    print()
    print("== induced Poisson bracket on necklaces ==")
    tb = trace_bracket(m2, (1,), (2,))
    print("{tr(e12), tr(e21)} =", {str(k): v for k, v in sorted(tb.items(), key=str)})
    f = {(cyclic((1,)),): 1}
    g = {(cyclic((2,)),): 1}
    print("as necklace polynomials:", poisson_stc(m2, f, g), "(keys: sorted monomials of classes)")
    stc = symbol_match_stc(m2, (1,), (2,), 3)
    print("matches the trace-element commutator:", stc)


if __name__ == "__main__":
    main()
