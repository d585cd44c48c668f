"""Walk down the tower of enveloping algebras.

U(gl(N, Omega)) for successive N are tied together by a projection that
drops every normally ordered monomial touching row or column N.  The
distinguished elements t_ij(w; N; s) are built so that this projection
carries the size-N element onto the size-(N-1) element with the same
parameter s.  This script builds a small tower over Omega = C and over
the two-dimensional split algebra C + C and watches that happen.

Run:  python3 demos/01_projection_tower.py
"""

from fractions import Fraction

from glomega import Enveloping, direct_sum_C


def banner(text: str) -> None:
    print()
    print(text)
    print("-" * len(text))


def main() -> None:
    spec = direct_sum_C(1)

    banner("Normal forms in U(gl(2, C))")
    ctx2 = Enveloping.get(spec, 2)
    prod = ctx2.multiply(ctx2.gen(1, 2), ctx2.gen(2, 1))
    print("E(1,2) E(2,1)  ->", prod.canonical_str())
    print("one rewrite: the out-of-order pair swaps and leaves the commutator behind")

    banner("The element t_11((0,0); 2; s) for several s")
    for s in (Fraction(0), Fraction(1), Fraction(-1), Fraction(5, 2)):
        t = ctx2.t_elem(1, 1, (0, 0), s)
        image = ctx2.project_down(t)
        print("s = %-4s  %s" % (s, t.canonical_str()))
        print("          drops to  %s" % image.canonical_str())
    print("the quadratic part survives untouched; only the linear tail moves with s")

    banner("Projection consistency over C + C, N = 4 -> 3 -> 2")
    spec2 = direct_sum_C(2)
    tower = [Enveloping.get(spec2, n) for n in (4, 3, 2)]
    s = Fraction(5, 2)
    for w in ((0,), (1,), (0, 1), (1, 1)):
        elem = tower[0].t_elem(1, 2, w, s)
        ok = True
        for hi, lo in zip(tower, tower[1:]):
            elem = hi.project_down(elem)
            ok = ok and elem == lo.t_elem(1, 2, w, s)
        print("word %-8s projects consistently through the tower: %s" % (w, ok))

    banner("Where e and t differ")
    # t_ij(w; N; s) == e_ij(w; N) exactly at s = -N, by construction
    for n in (2, 3):
        ctx = Enveloping.get(spec2, n)
        same = ctx.t_elem(1, 1, (0, 0), Fraction(-n)) == ctx.e_elem(1, 1, (0, 0))
        print("N = %d: t at s = %d coincides with the plain chain sum e: %s" % (n, -n, same))


if __name__ == "__main__":
    main()
