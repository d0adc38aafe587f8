"""Built-in example hypersurfaces and maps, and the writer that freezes
them to canonical documents under a corpus directory.

Everything here is constructed through the public API (expressions in,
documents out), so regenerating the corpus and comparing bytes doubles as
an end-to-end determinism check.
"""

from __future__ import annotations

import os

from .documents import DEFAULT_ORDER, write_document
from .hypersurface import Hypersurface, from_defining
from .parser import parse_expr
from .rational import I
from .reflection import exp_of
from .series import SeriesMap, TruncatedSeries


def sphere(order: int = DEFAULT_ORDER) -> Hypersurface:
    """The unit-sphere model in two variables: Im z2 = |z1|^2."""
    rho = parse_expr("-(i/2)*(z2 - w2) - z1*w1", "z:2,w:2", order)
    return from_defining(rho, 2, provenance=("sphere",))


def levi_flat(order: int = DEFAULT_ORDER) -> Hypersurface:
    """The flat model Im z2 = 0; not minimal at any order."""
    rho = parse_expr("-(i/2)*(z2 - w2)", "z:2,w:2", order)
    return from_defining(rho, 2, provenance=("levi-flat",))


def degenerate_quadric(order: int = DEFAULT_ORDER) -> Hypersurface:
    """Im z3 = |z1 z2|^2: minimal, holomorphically degenerate with d = 1."""
    rho = parse_expr("-(i/2)*(z3 - w3) - z1*z2*w1*w2", "z:3,w:3", order)
    return from_defining(rho, 3, provenance=("degenerate quadric",))


def perturbed_sphere(order: int = DEFAULT_ORDER) -> Hypersurface:
    """The sphere written in skewed coordinates; not normal until
    normalize() is applied, after which it equals sphere() exactly."""
    rho = parse_expr(
        "-(i/2)*(z2 + z1^2 - w2 - w1^2) - z1*w1", "z:2,w:2", order
    )
    return from_defining(rho, 2, provenance=("perturbed sphere",))


def _var(nvars: int, order: int, index: int) -> TruncatedSeries:
    return TruncatedSeries.variable(nvars, order, index)


def sphere_dilation(order: int = DEFAULT_ORDER) -> SeriesMap:
    """(z1, z2) -> (2 z1, 4 z2); a self-map of the sphere model."""
    return SeriesMap([_var(2, order, 0).scale(2), _var(2, order, 1).scale(4)])


def sphere_rotation(order: int = DEFAULT_ORDER) -> SeriesMap:
    """(z1, z2) -> (i z1, z2); a self-map of the sphere model."""
    return SeriesMap([_var(2, order, 0).scale(I), _var(2, order, 1)])


def sphere_corrupted(order: int = DEFAULT_ORDER) -> SeriesMap:
    """(z1, z2) -> (z1, 2 z2); deliberately NOT a self-map of the sphere."""
    return SeriesMap([_var(2, order, 0), _var(2, order, 1).scale(2)])


def exp_shear(order: int = DEFAULT_ORDER, scale: int = 1) -> SeriesMap:
    """(z1, z2, z3) -> (z1 e^h, z2 e^-h, z3) with h = scale (z1 + z2^2).

    A self-map of the degenerate quadric for any h vanishing at 0: the
    exponentials cancel exactly in the product z1 z2. Distinct scales give
    maps with different components but the same reflection series.
    """
    h = parse_expr("z1 + z2^2", "z:3", order).scale(scale)
    grow = exp_of(h)
    shrink = exp_of(h.scale(-1))
    return SeriesMap(
        [_var(3, order, 0) * grow, _var(3, order, 1) * shrink, _var(3, order, 2)]
    )


HYPERSURFACES = {
    "sphere": sphere,
    "levi_flat": levi_flat,
    "degenerate_quadric": degenerate_quadric,
    "perturbed_sphere": perturbed_sphere,
}

# name -> (builder, source surface name, target surface name)
MAPS = {
    "sphere_dilation": (sphere_dilation, "sphere", "sphere"),
    "sphere_rotation": (sphere_rotation, "sphere", "sphere"),
    "sphere_corrupted": (sphere_corrupted, "sphere", "sphere"),
    "exp_shear": (
        lambda order=DEFAULT_ORDER: exp_shear(order, 1),
        "degenerate_quadric",
        "degenerate_quadric",
    ),
    "exp_shear_double": (
        lambda order=DEFAULT_ORDER: exp_shear(order, 2),
        "degenerate_quadric",
        "degenerate_quadric",
    ),
}


def write_corpus(directory, order: int = DEFAULT_ORDER) -> list[str]:
    """Write every corpus object as a canonical document; returns paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, builder in HYPERSURFACES.items():
        path = os.path.join(directory, f"{name}.crkit")
        write_document(path, builder(order))
        paths.append(path)
    for name, (builder, _, _) in MAPS.items():
        path = os.path.join(directory, f"{name}.crkit")
        fmap = builder(order)
        write_document(path, fmap, (("z", fmap.source_nvars),))
        paths.append(path)
    return paths
