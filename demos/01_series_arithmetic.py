"""Tour of the exact series kernel.

Truncated multivariate power series over the Gaussian rationals: every
coefficient is a pair of exact fractions, every operation tracks the
guaranteed truncation order, and nothing is ever rounded.
"""

from fractions import Fraction

from crkit import (
    GaussRational,
    I,
    SeriesMap,
    TruncatedSeries,
    compose,
    format_series,
    invert_map,
    newton_extend,
)


def main():
    # two variables, guaranteed through total degree 6
    x = TruncatedSeries.variable(2, 6, 0)
    y = TruncatedSeries.variable(2, 6, 1)

    print("== arithmetic is exact ==")
    s = (x + y.scale(Fraction(1, 3))) ** 3
    print("(x + y/3)^3 =", format_series(s, ["x", "y"]))

    third = s.coefficient((2, 1))
    print("coefficient of x^2 y:", third)
    assert third == GaussRational(1)

    print()
    print("== complex coefficients ==")
    rotated = x.scale(I) * y
    print("i x y =", format_series(rotated, ["x", "y"]))
    print("conjugated:", format_series(rotated.conjugate(), ["x", "y"]))

    print()
    print("== orders shrink, never lie ==")
    d = s.derive(0)
    print("d/dx drops the order to", d.order)
    capped = s.truncate(3)
    print("truncated copy keeps", len(capped.terms), "terms at order", capped.order)

    print()
    print("== composition and inversion ==")
    f = SeriesMap([x + y**2, y - x**2])
    g = invert_map(f)
    round_trip = f.compose(g)
    print("f o f^{-1} first component:",
          format_series(round_trip.components[0], ["x", "y"]))
    assert round_trip == SeriesMap.identity(2, round_trip.order)

    u = compose(x * y, f)
    print("(x y) o f =", format_series(u, ["x", "y"]))

    print()
    print("== extending a solution degree by degree ==")
    # y^2 - 1 - t = 0 over (t, y), solved by y = 1 + t/2 + ... = sqrt(1 + t)
    t, yy = TruncatedSeries.variable(2, 6, 0), TruncatedSeries.variable(2, 6, 1)
    seed = SeriesMap([TruncatedSeries(1, 1, {(0,): 1, (1,): Fraction(1, 2)})])
    root = newton_extend(SeriesMap([yy**2 - 1 - t]), seed, 6).components[0]
    print("sqrt(1 + t) =", format_series(root, ["t"]))
    binomial = Fraction(1)
    for k in range(7):
        # the binomial number C(1/2, k)
        assert root.coefficient((k,)) == GaussRational(binomial)
        binomial = binomial * (Fraction(1, 2) - k) / (k + 1)


if __name__ == "__main__":
    main()
