"""Invariants of hypersurface germs, certified symbolically.

Walks the built-in examples through the geometric toolkit: graph
coordinates, normal form, Segre parametrizations, minimality, and the
degeneracy rank with its witness monomials.
"""

from crkit import (
    corpus,
    degeneracy,
    format_series,
    graph_names,
    is_minimal,
    normalize,
    normalizing_change,
    segre_closure_residual,
    segre_maps,
    tangent_fields,
)


def describe(name, surface):
    print(f"== {name} (n = {surface.n}, order {surface.order}) ==")
    print("graph series:",
          format_series(surface.phi, graph_names(surface.n)))
    print("normal coordinates:", "yes" if surface.normal else "no")

    if not surface.normal:
        change = normalizing_change(surface)
        surface = normalize(surface)
        names = [f"z{i + 1}" for i in range(surface.n)]
        print("after normalizing:",
              format_series(surface.phi, graph_names(surface.n)))
        for old, component in zip(names, change.components):
            print(f"  change: {old} -> {format_series(component, names)}")

    minimality = is_minimal(surface)
    print(f"minimal: {minimality.minimal} "
          f"(Segre rank {minimality.rank} of {minimality.n}, "
          f"{minimality.certificate.status})")

    result = degeneracy(surface)
    print(f"degeneracy: {result.degeneracy} "
          f"(rank {result.rank} at cutoff {result.cutoff_effective}, "
          f"stabilized: {result.stabilized})")
    print("witnesses:", " ".join(str(alpha) for alpha in result.witnesses))

    fields = tangent_fields(surface)
    annihilated = all(f.apply(surface.rho).is_zero() for f in fields)
    print(f"tangent fields: {len(fields)}, annihilate the defining series:",
          annihilated)

    triple = segre_maps(surface)
    residual = segre_closure_residual(triple)
    print("Segre closure residual vanishes:",
          all(c.is_zero() for c in residual.components))
    print()


def main():
    for name, builder in corpus.HYPERSURFACES.items():
        describe(name, builder())


if __name__ == "__main__":
    main()
