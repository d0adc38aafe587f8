"""The reflection side of the toolkit, end to end.

Takes the exponential shear self-map of the degenerate quadric, checks
that it maps the surface into itself, builds its reflection series,
verifies the identity along the third Segre parametrization, and then
extracts the partially convergent family with its exact generators.
"""

from crkit import (
    FormalMap,
    build_reflection_report,
    check_maps_into,
    corpus,
    format_series,
    formal_containment,
    partial_convergence,
    reflection_function,
    segre_reflection_identity,
    serialize_report,
)


def main():
    quadric = corpus.degenerate_quadric()
    shear = FormalMap(corpus.exp_shear(scale=1), quadric, quadric)
    double = FormalMap(corpus.exp_shear(scale=2), quadric, quadric)

    print("== the mapping check ==")
    for label, fm in (("shear", shear), ("double shear", double)):
        verdict = check_maps_into(fm)
        print(f"{label}: passed = {verdict.passed} "
              f"through order {verdict.order_checked}")

    print()
    print("== the reflection series ==")
    names = ["z1", "z2", "z3", "lam1", "lam2"]
    r_one = reflection_function(shear)
    r_two = reflection_function(double)
    print("R(z, lambda) =", format_series(r_one, names))
    print("identical for both shears:", r_one == r_two)

    print()
    print("== identity along the third Segre map ==")
    identity = segre_reflection_identity(shear)
    print("passed:", identity.passed)

    print()
    print("== partial convergence ==")
    partial = partial_convergence(shear)
    z = [f"z{i + 1}" for i in range(3)]
    om = [f"om{i + 1}" for i in range(3)]
    print("witnesses:", " ".join(str(a) for a in partial.witnesses_ordered))
    for i, component in enumerate(partial.gf.components):
        print(f"  (g o f)_{i + 1} =", format_series(component, z))
    for i, generator in enumerate(partial.generators):
        print(f"  generator {i + 1}:", format_series(generator, z + om))
    contained = formal_containment(shear.f, partial.generators)
    print("graph lies in the generator zero set:", contained.contained)
    print("transcendence bound:", partial.bound)

    print()
    print("== the growth diagnostic (the one float corner) ==")
    report = build_reflection_report(shear)
    print(f"r0 = {report.evidence.r0:.6f} at radius {report.evidence.radius}")
    print("family is polynomial:", report.evidence.polynomial)

    print()
    print("== the serialized report, first lines ==")
    for line in serialize_report(report).splitlines()[:8]:
        print(line)


if __name__ == "__main__":
    main()
