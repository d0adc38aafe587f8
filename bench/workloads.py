"""Seeded inputs and operation lists for the four benchmark workloads.

``build(name, seed, workdir, crkit)`` writes every input document under
``workdir/in`` before anything is timed and returns the operations to run.
CLI operations name their files relative to ``workdir``, so the paths the
program prints are the same in every run and output digests can be
compared with the stored reference.

The same seed always gives the same inputs. CLI outputs are compared with
digests stored in ``reference.json``, so the CLI workloads run fixed
documents and the seed sets the order of their operations. Solver cases
are generated from the seed itself, because they are checked
independently rather than by digest.
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

# Why each workload exists; the README repeats this next to its numbers.
WHY = {
    "corpus_order8": (
        "every CLI command on the shipped corpus at order 8, where per-call "
        "overhead dominates; a kernel change must not lose here"
    ),
    "deep_maps": (
        "check-map and reflect on the exp_shear maps at orders 12-20, where "
        "series mul/compose and rational arithmetic do the work"
    ),
    "dense_germs": (
        "seeded dense real germs, n = 2 and 3: implicit_solve, graph_residual, "
        "normalize and rank certification, refusals included"
    ),
    "formal_solvers": (
        "seeded invert_map, implicit_solve and newton_extend cases through "
        "the library API; no CLI command reaches two of them"
    ),
}
WORKLOADS = tuple(WHY)

CORPUS_HYPERSURFACES = ("sphere", "levi_flat", "degenerate_quadric", "perturbed_sphere")
# map -> (source, target); the known verdict is in CORPUS_MAP_PASSES
CORPUS_MAPS = {
    "sphere_dilation": ("sphere", "sphere"),
    "sphere_rotation": ("sphere", "sphere"),
    "sphere_corrupted": ("sphere", "sphere"),
    "exp_shear": ("degenerate_quadric", "degenerate_quadric"),
    "exp_shear_double": ("degenerate_quadric", "degenerate_quadric"),
}
CORPUS_MAP_PASSES = {name: name != "sphere_corrupted" for name in CORPUS_MAPS}
# README's corpus table: (minimal, degeneracy)
CORPUS_VERDICTS = {
    "sphere": ("true", "0"),
    "levi_flat": ("false", "1"),
    "degenerate_quadric": ("true", "1"),
    "perturbed_sphere": ("true", "0"),
}
FORMATS = ("text", "doc")

DEEP_ORDERS = (12, 16, 20)
DEEP_DOC_ORDER = 20
DEEP_MAPS = {"exp_shear": 1, "exp_shear_double": 2}

# Dense germs: one fixed family, run in a seeded order. Cost per germ is
# heavy-tailed (0.05 s to 3.5 s for the three operations at n = 2, order
# 9): by the measured per-germ costs, drawing 12 of 16 germs per seed
# would move wall_s by about 13 % (one standard deviation). The family is
# sized by order and term count instead, and no germ is dropped for being
# slow or refused. Fixed inputs also let every output be compared with its
# seed-commit reference digest.
@dataclass(frozen=True)
class GermClass:
    n: int
    order: int
    pairs: int  # Hermitian term pairs added to -(i/2)(z_n - w_n)
    max_degree: int
    count: int


DENSE_CLASSES = (
    GermClass(n=2, order=9, pairs=2, max_degree=3, count=6),
    GermClass(n=3, order=6, pairs=2, max_degree=3, count=12),
)


@dataclass(frozen=True)
class CliOp:
    """One in-process ``crkit.cli.main(argv)`` call.

    ``outputs`` are the files or directories the call writes, relative to
    the work directory. ``expect_exit`` and ``expect_lines`` hold a known
    verdict where one exists; ``expect_same_as`` names an input file whose
    bytes the single output must reproduce.
    """

    id: str
    command: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()
    expect_exit: int | None = None
    expect_lines: tuple[str, ...] = ()
    expect_same_as: str | None = None


@dataclass(frozen=True)
class SolverOp:
    """One call ``crkit.<command>(*args)``; ``check`` verifies its result
    independently and returns an error message or None."""

    id: str
    command: str
    args: tuple
    check: Callable[[object], str | None] = field(compare=False)


# ---------------------------------------------------------------------------


def build(name: str, seed: int, workdir: str, crkit) -> list:
    """Write the inputs of workload ``name`` for ``seed``; return its ops."""
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    indir = os.path.join(workdir, "in")
    os.makedirs(indir, exist_ok=True)
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    if name == "corpus_order8":
        ops = _corpus_ops(indir)
        rng.shuffle(ops)
    elif name == "deep_maps":
        ops = _deep_ops(indir, crkit)
        rng.shuffle(ops)
    elif name == "dense_germs":
        germs = [(cls, index) for cls in DENSE_CLASSES for index in range(cls.count)]
        rng.shuffle(germs)
        ops = [op for cls, index in germs for op in _germ_ops(indir, cls, index, crkit)]
    else:
        from solver_cases import solver_ops

        ops = solver_ops(rng, crkit)
    return ops


def _out(op_id: str) -> str:
    return "out/" + op_id.replace("/", "_")


def _corpus_ops(indir: str) -> list[CliOp]:
    corpus = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "corpus")
    for name in (*CORPUS_HYPERSURFACES, *CORPUS_MAPS):
        shutil.copyfile(os.path.join(corpus, f"{name}.crkit"), os.path.join(indir, f"{name}.crkit"))
    ops = []
    for name in CORPUS_HYPERSURFACES:
        doc = f"in/{name}.crkit"
        minimal, degeneracy = CORPUS_VERDICTS[name]
        # perturbed_sphere normalizes to the sphere; normal inputs are copied
        same = "in/sphere.crkit" if name == "perturbed_sphere" else doc
        for fmt in FORMATS:
            op_id = f"analyze/{name}/{fmt}"
            lines = (f"minimal {minimal}", f"degeneracy {degeneracy}") if fmt == "doc" else ()
            ops.append(CliOp(op_id, "analyze", ("analyze", doc, "--format", fmt),
                             expect_exit=0, expect_lines=lines))
            op_id = f"normalize/{name}/{fmt}"
            out = _out(op_id) + ".crkit"
            ops.append(CliOp(op_id, "normalize", ("normalize", doc, "-o", out, "--format", fmt),
                             outputs=(out,), expect_exit=0, expect_same_as=same))
    for name, (source, target) in CORPUS_MAPS.items():
        passes = CORPUS_MAP_PASSES[name]
        files = ("-s", f"in/{source}.crkit", "-t", f"in/{target}.crkit", "-f", f"in/{name}.crkit")
        for fmt in FORMATS:
            op_id = f"check-map/{name}/{fmt}"
            lines = (f"mapping {'true' if passes else 'false'}",) if fmt == "doc" else ()
            ops.append(CliOp(op_id, "check-map", ("check-map", *files, "--format", fmt),
                             expect_exit=0 if passes else 1, expect_lines=lines))
            op_id = f"reflect/{name}/{fmt}"
            out = _out(op_id)
            ops.append(CliOp(op_id, "reflect", ("reflect", *files, "-o", out, "--format", fmt),
                             outputs=(out,), expect_exit=0 if passes else 1))
    return ops


def _deep_ops(indir: str, crkit) -> list[CliOp]:
    quadric = f"in/degenerate_quadric_{DEEP_DOC_ORDER}.crkit"
    _write(os.path.join(indir, os.path.basename(quadric)),
           crkit.serialize(crkit.corpus.degenerate_quadric(DEEP_DOC_ORDER)))
    ops = []
    for name, scale in DEEP_MAPS.items():
        fmap = crkit.corpus.exp_shear(DEEP_DOC_ORDER, scale)
        doc = f"in/{name}_{DEEP_DOC_ORDER}.crkit"
        _write(os.path.join(indir, os.path.basename(doc)),
               crkit.serialize(fmap, (("z", fmap.source_nvars),)))
        files = ("-s", quadric, "-t", quadric, "-f", doc)
        for order in DEEP_ORDERS:
            op_id = f"check-map/{name}/o{order}"
            ops.append(CliOp(op_id, "check-map",
                             ("check-map", *files, "--order", str(order), "--format", "doc"),
                             expect_exit=0, expect_lines=("mapping true", "identity true")))
            op_id = f"reflect/{name}/o{order}"
            out = _out(op_id)
            ops.append(CliOp(op_id, "reflect",
                             ("reflect", *files, "-o", out, "--order", str(order)),
                             outputs=(out,), expect_exit=0))
    return ops


def germ_name(cls: GermClass, index: int) -> str:
    return f"n{cls.n}_o{cls.order}_{index:03d}"


def dense_rho(cls: GermClass, index: int, crkit):
    """Defining series of family germ ``index``: -(i/2)(z_n - w_n) plus
    ``cls.pairs`` random terms c z^a w^b, each with its mirror conj(c)
    z^b w^a, so the series is real by construction."""
    rng = random.Random(f"dense:{cls.n}:{cls.order}:{cls.pairs}:{cls.max_degree}:{index}")
    n = cls.n
    gr = crkit.GaussRational
    half = Fraction(1, 2)
    terms: dict[tuple[int, ...], object] = {}

    def add(exponents, coeff):
        terms[exponents] = terms.get(exponents, crkit.ZERO) + coeff

    add(tuple(1 if i == n - 1 else 0 for i in range(2 * n)), gr(0, -half))
    add(tuple(1 if i == 2 * n - 1 else 0 for i in range(2 * n)), gr(0, half))
    support = [e for e in crkit.multi_indices(2 * n, cls.max_degree) if sum(e) >= 2]
    for exponents in rng.sample(support, cls.pairs):
        coeff = gr(_small_fraction(rng), _small_fraction(rng))
        mirror = exponents[n:] + exponents[:n]
        if mirror == exponents:
            coeff = gr(abs(coeff.re))  # the diagonal needs a real coefficient
            add(exponents, coeff)
        else:
            add(exponents, coeff)
            add(mirror, coeff.conjugate())
    return crkit.TruncatedSeries(2 * n, cls.order, terms)


def _small_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def _germ_ops(indir: str, cls: GermClass, index: int, crkit) -> list[CliOp]:
    name = germ_name(cls, index)
    surface = crkit.from_defining(dense_rho(cls, index, crkit), cls.n, provenance=("bench",))
    _write(os.path.join(indir, f"{name}.crkit"), crkit.serialize(surface))
    doc = f"in/{name}.crkit"
    order = str(cls.order)
    out = _out(f"normalize/{name}") + ".crkit"
    return [
        CliOp(f"analyze/{name}", "analyze", ("analyze", doc, "--order", order, "--format", "doc")),
        CliOp(f"normalize/{name}", "normalize",
              ("normalize", doc, "--order", order, "-o", out, "--format", "doc"), outputs=(out,)),
        # default flags: order 8, verified first at the document's own order
        CliOp(f"analyze-default/{name}", "analyze", ("analyze", doc)),
    ]


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
