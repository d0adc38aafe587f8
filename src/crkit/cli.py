"""Command-line front end.

Four subcommands drive the library against canonical documents:

    crkit analyze <H>                     invariants of one hypersurface
    crkit normalize <H> -o <out>          rewrite in normal coordinates
    crkit check-map -s <M> -t <M'> -f <F> does F send M into M'?
    crkit reflect -s <M> -t <M'> -f <F> -o <dir>   reflection artifacts

Exit codes: 0 all checks passed; 1 a check failed, which includes a
failed geometric check on a document that parses (say, a defining series
that is not real); 2 an unreadable file, a malformed document or a bad
flag. Geometric findings (non-minimal, positive degeneracy, not normal)
are reported, not treated as failures. All output is
deterministic for a fixed configuration; the doc format is golden-file
stable.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import NamedTuple

from .documents import (
    DEFAULT_ORDER,
    _frame,
    parse_document,
    serialize,
    serialize_report,
    write_atomic,
)
from .errors import CrkitError, DocumentError, GeometryError, ParseError, PrerequisiteError
from .hypersurface import Hypersurface, degeneracy, is_minimal, normalize, normalizing_change
from .rank import CERTIFIED
from .reflection import (
    FormalMap,
    build_reflection_report,
    check_maps_into,
    partial_convergence,
    segre_reflection_identity,
)
from .series import SeriesMap, format_monomial, format_series


class RunConfig(NamedTuple):
    """Knobs shared by every command; defaults match the shipped corpus."""

    order: int | None = None  # None: DEFAULT_ORDER, capped by the inputs
    cutoff: int | None = None
    strict: bool = True
    fmt: str = "text"
    force: bool = False


class _InputError(Exception):
    """Anything that makes the request unanswerable: bad files, bad flags."""


def _run_config(args) -> RunConfig:
    """The settings parsed flags ask for; a value no command can run with
    is an input error."""
    order = DEFAULT_ORDER if args.order is None else args.order
    if order < 2:
        raise _InputError("order must be at least 2")
    if args.cutoff is not None and not (1 <= args.cutoff <= order):
        raise _InputError("cutoff must be between 1 and the order")
    if args.fmt not in ("text", "doc"):
        raise _InputError("format must be text or doc")
    return RunConfig(
        order=args.order,
        cutoff=args.cutoff,
        strict=args.strict,
        fmt=args.fmt,
        force=getattr(args, "force", False),
    )


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            return handle.read()
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}") from None


def _load(path: str):
    try:
        return parse_document(_read(path))
    except (DocumentError, ParseError) as exc:
        raise _InputError(f"{path}: {exc}") from None


def _load_hypersurface(path: str) -> Hypersurface:
    obj = _load(path)
    if not isinstance(obj, Hypersurface):
        raise _InputError(f"{path}: expected a hypersurface document")
    return obj


def _load_map(path: str) -> SeriesMap:
    obj = _load(path)
    if not isinstance(obj, SeriesMap):
        raise _InputError(f"{path}: expected a map document")
    return obj


def _effective_order(config: RunConfig, *orders: int) -> int:
    available = min(orders)
    if config.order is not None and config.order > available:
        raise _InputError(
            f"inputs only guarantee order {available}, --order {config.order} "
            "asks for more"
        )
    eff = min(DEFAULT_ORDER if config.order is None else config.order, available)
    if config.cutoff is not None and config.cutoff > eff:
        raise _InputError(
            f"--cutoff {config.cutoff} exceeds the effective order {eff}"
        )
    return eff


def _guard_overwrite(path: str, config: RunConfig) -> None:
    if os.path.exists(path) and not config.force:
        raise _InputError(f"{path}: exists (pass --force to overwrite)")


def _alpha_text(alpha) -> str:
    return "(" + ",".join(str(a) for a in alpha) + ")"


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(count)]


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(path: str, config: RunConfig) -> int:
    surface = _load_hypersurface(path)
    order = _effective_order(config, surface.order)
    surface = surface.truncate(order)
    # minimality and degeneracy are invariants of the germ, so a non-normal
    # input is normalized internally before they are computed
    representative = surface if surface.normal else normalize(surface)
    minimality = is_minimal(representative)
    ranks = degeneracy(representative, config.cutoff)
    certified = (
        minimality.certificate.status == CERTIFIED
        and ranks.certificate.status == CERTIFIED
    )
    if config.fmt == "doc":
        rows = [
            f"n {surface.n}",
            f"order {order}",
            "reality ok",
            # a theorem given from_defining's checks; kept so bytes stay
            "graph-identity ok",
            f"normal {'true' if surface.normal else 'false'}",
            f"minimal {'true' if minimality.minimal else 'false'}",
            f"minimal-rank {minimality.rank}",
            f"minimal-status {minimality.certificate.status}",
            f"degeneracy {ranks.degeneracy}",
            f"degeneracy-rank {ranks.rank}",
            f"degeneracy-status {ranks.certificate.status}",
            f"cutoff {ranks.cutoff_effective}",
            f"stabilized {'true' if ranks.stabilized else 'false'}",
            f"nondegenerate {'true' if ranks.holomorphically_nondegenerate else 'false'}",
            f"witnesses {len(ranks.witnesses)}",
        ]
        rows.extend(
            "witness " + " ".join(str(a) for a in alpha) for alpha in ranks.witnesses
        )
        sys.stdout.write(_frame("analysis-report", rows))
    else:
        yes = lambda flag: "yes" if flag else "no"
        print(f"hypersurface: {path}")
        print(f"n: {surface.n}; order: {order}")
        print("reality: ok")
        # a theorem given from_defining's checks; kept so bytes stay
        print("graph identity: ok")
        print(f"normal: {yes(surface.normal)}")
        print(
            f"minimal: {yes(minimality.minimal)} "
            f"(rank {minimality.rank}, {minimality.certificate.status})"
        )
        print(
            f"degeneracy: {ranks.degeneracy} "
            f"(rank {ranks.rank} at cutoff {ranks.cutoff_effective}, "
            f"{ranks.certificate.status}, "
            f"{'stabilized' if ranks.stabilized else 'not stabilized'})"
        )
        print(f"holomorphically nondegenerate: {yes(ranks.holomorphically_nondegenerate)}")
        print(
            "phi-family witnesses: "
            + " ".join(_alpha_text(alpha) for alpha in ranks.witnesses)
        )
        if not certified:
            print("rank status: probable only (minor budget exhausted)")
    if config.strict and not certified:
        print("failure: rank not certified; rerun with --no-strict to accept",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# normalize


def cmd_normalize(path: str, out: str | None, config: RunConfig) -> int:
    surface = _load_hypersurface(path)
    order = _effective_order(config, surface.order)
    surface = surface.truncate(order)
    data = serialize(normalize(surface))
    if out is None:
        sys.stdout.write(data)
        return 0
    _guard_overwrite(out, config)
    write_atomic(out, data)
    if config.fmt == "doc":
        sys.stdout.write(data)
    else:
        names = _names("z", surface.n)
        print(f"hypersurface: {path}")
        if surface.normal:
            print("already normal; wrote an identical copy")
        else:
            print("normalized; coordinate change:")
            for name, component in zip(names, normalizing_change(surface).components):
                print(f"  {name} -> {format_series(component, names)}")
        print(f"wrote: {out}")
    return 0


# ---------------------------------------------------------------------------
# check-map


def cmd_check_map(source: str, target: str, mappath: str, config: RunConfig) -> int:
    fm, order = _build_formal_map(source, target, mappath, config)
    verdict = check_maps_into(fm)
    identity = None
    identity_note = ""
    if verdict.passed:
        try:
            identity = segre_reflection_identity(fm)
        except PrerequisiteError as exc:
            identity_note = str(exc)
    names = _names("z", fm.n) + _names("w", fm.n - 1)
    if config.fmt == "doc":
        rows = [
            f"n {fm.n}",
            f"order {order}",
            f"mapping {'true' if verdict.passed else 'false'}",
        ]
        if not verdict.passed:
            exponents, _ = verdict.offending
            rows.append("offending " + " ".join(str(e) for e in exponents))
        rows.append(
            f"biholomorphism {'true' if fm.is_biholomorphism else 'false'}"
        )
        if identity is not None:
            rows.append(f"identity {'true' if identity.passed else 'false'}")
        elif verdict.passed:
            rows.append("identity skipped")
        sys.stdout.write(_frame("map-report", rows))
    else:
        print(f"map: {mappath}")
        print(f"source: {source}")
        print(f"target: {target}")
        print(f"order checked: {verdict.order_checked}")
        print(f"mapping identity: {'pass' if verdict.passed else 'FAIL'}")
        if not verdict.passed:
            exponents, coeff = verdict.offending
            print(
                "least offending monomial: "
                f"{format_monomial(exponents, names)} "
                f"(degree {sum(exponents)}, coefficient {coeff})"
            )
        print(f"biholomorphism: {'yes' if fm.is_biholomorphism else 'no'}")
        if identity is not None:
            print(f"segre reflection identity: {'pass' if identity.passed else 'FAIL'}")
        elif verdict.passed:
            print(f"segre reflection identity: skipped ({identity_note})")
    if not verdict.passed:
        return 1
    if identity is not None and not identity.passed:
        return 1
    return 0


def _build_formal_map(source, target, mappath, config):
    # one germ per path: a self-map's source and target are one object
    surfaces = {path: _load_hypersurface(path) for path in dict.fromkeys((source, target))}
    fmap = _load_map(mappath)
    order = _effective_order(config, *(s.order for s in surfaces.values()), fmap.order)
    surfaces = {path: s.truncate(order) for path, s in surfaces.items()}
    try:
        fm = FormalMap(fmap.truncate(order), surfaces[source], surfaces[target])
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    return fm, order


# ---------------------------------------------------------------------------
# reflect


def cmd_reflect(source, target, mappath, outdir, config: RunConfig) -> int:
    fm, order = _build_formal_map(source, target, mappath, config)
    verdict = check_maps_into(fm)
    if not verdict.passed and not config.force:
        print(
            "refusing to reflect: the map does not send the source into the "
            "target (pass --force to override)",
            file=sys.stderr,
        )
        return 1
    try:
        report = build_reflection_report(fm, cutoff=config.cutoff)
        partial = partial_convergence(fm, cutoff=config.cutoff)
    except PrerequisiteError as exc:
        print(f"refusing to reflect: {exc}", file=sys.stderr)
        return 1
    n = fm.n
    artifacts = [
        ("report.crkit", serialize_report(report)),
        ("g.crkit", serialize(partial.g, (("om", n),))),
        ("gf.crkit", serialize(partial.gf, (("z", n),))),
        (
            "generators.crkit",
            serialize(SeriesMap(partial.generators), (("z", n), ("om", n))),
        ),
    ]
    for filename, _ in artifacts:
        _guard_overwrite(os.path.join(outdir, filename), config)
    os.makedirs(outdir, exist_ok=True)
    written = []
    for filename, data in artifacts:
        write_atomic(os.path.join(outdir, filename), data)
        written.append(filename)
    if config.fmt == "doc":
        rows = [
            f"n {n}",
            f"order {order}",
            f"bound {partial.bound}",
            f"witnesses {len(partial.witnesses_ordered)}",
        ]
        rows.extend(
            "witness " + " ".join(str(a) for a in alpha)
            for alpha in partial.witnesses_ordered
        )
        rows.append(f"r0 {report.evidence.r0:.12e}")
        rows.append(f"polynomial {'true' if report.evidence.polynomial else 'false'}")
        rows.append("files " + " ".join(written))
        sys.stdout.write(_frame("reflect-summary", rows))
    else:
        print(f"map: {mappath}")
        print(f"reflection order: {report.order}; family cutoff: {report.cutoff}")
        print(
            "partial convergence witnesses: "
            + " ".join(_alpha_text(a) for a in partial.witnesses_ordered)
        )
        print(f"transcendence bound: {partial.bound}")
        print(
            f"growth diagnostic: r0 = {report.evidence.r0:.12e} at radius "
            f"{report.evidence.radius}"
            + (" (family is polynomial)" if report.evidence.polynomial else "")
        )
        for filename in written:
            print(f"wrote: {os.path.join(outdir, filename)}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_arg_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by later ones.

    parse_args keeps no state between calls: it fills a fresh namespace,
    and help and errors are formatted, at their fixed prog, when printed.
    """
    parser = argparse.ArgumentParser(
        prog="crkit",
        description="Exact formal geometry of real-analytic hypersurfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--order", type=int, default=None, metavar="N",
                       help=f"truncation order (default {DEFAULT_ORDER})")
        p.add_argument("--cutoff", type=int, default=None, metavar="A",
                       help="degeneracy / family cutoff (default: the order)")
        p.add_argument("--strict", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="treat probable (uncertified) ranks as failures")
        p.add_argument("--format", choices=("text", "doc"), default="text",
                       dest="fmt", help="output format")

    p = sub.add_parser("analyze", help="invariants of one hypersurface")
    p.add_argument("hypersurface")
    common(p)

    p = sub.add_parser("normalize", help="rewrite in normal coordinates")
    p.add_argument("hypersurface")
    p.add_argument("-o", "--out", help="output document; stdout when omitted")
    p.add_argument("--force", action="store_true",
                   help="overwrite an existing output file")
    common(p)

    p = sub.add_parser("check-map", help="does the map send source into target?")
    p.add_argument("-s", "--source", required=True)
    p.add_argument("-t", "--target", required=True)
    p.add_argument("-f", "--map", required=True, dest="mapfile")
    common(p)

    p = sub.add_parser("reflect", help="write reflection artifacts")
    p.add_argument("-s", "--source", required=True)
    p.add_argument("-t", "--target", required=True)
    p.add_argument("-f", "--map", required=True, dest="mapfile")
    p.add_argument("-o", "--out", required=True, dest="outdir")
    p.add_argument("--force", action="store_true",
                   help="reflect even if the mapping check fails")
    common(p)

    return parser


def main(argv=None) -> int:
    args = _build_arg_parser().parse_args(argv)
    try:
        config = _run_config(args)
        if args.command == "analyze":
            return cmd_analyze(args.hypersurface, config)
        if args.command == "normalize":
            return cmd_normalize(args.hypersurface, args.out, config)
        if args.command == "check-map":
            return cmd_check_map(args.source, args.target, args.mapfile, config)
        if args.command == "reflect":
            return cmd_reflect(
                args.source, args.target, args.mapfile, args.outdir, config
            )
        raise AssertionError(f"unhandled command {args.command!r}")
    except GeometryError as exc:  # a CrkitError, so it comes first
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (_InputError, OSError, CrkitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
