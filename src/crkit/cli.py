"""Command-line front end.

Four subcommands drive the library against canonical documents:

    crkit analyze <H>                     invariants of one hypersurface
    crkit normalize <H> -o <out>          rewrite in normal coordinates
    crkit check-map -s <M> -t <M'> -f <F> does F send M into M'?
    crkit reflect -s <M> -t <M'> -f <F> -o <dir>   reflection artifacts

Every command takes ``--order N`` and ``--format text|doc``. The other
flags belong to the commands that read them: ``--strict/--no-strict`` to
analyze, ``--cutoff A`` to analyze and reflect, ``--force`` to normalize
and reflect. Any other flag is a usage error.

Exit codes: 0 all checks passed; 1 a check failed, which includes a
failed geometric check on a document that parses (say, a defining series
that is not real); 2 an unreadable file, a malformed document or a bad
flag. Geometric findings (non-minimal, positive degeneracy, not normal)
are reported, not treated as failures. All output is
deterministic for fixed flags; the doc format is golden-file stable.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

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


class _InputError(Exception):
    """Anything that makes the request unanswerable: bad files, bad flags."""


def _check_flags(args) -> None:
    """Refuse flag values no command can run with, before any file is read."""
    order = DEFAULT_ORDER if args.order is None else args.order
    if order < 2:
        raise _InputError("order must be at least 2")
    cutoff = getattr(args, "cutoff", None)  # only analyze and reflect take one
    if cutoff is not None and not (1 <= cutoff <= order):
        raise _InputError("cutoff must be between 1 and the order")


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


def _effective_order(requested: int | None, cutoff: int | None, *orders: int) -> int:
    available = min(orders)
    if requested is not None and requested > available:
        raise _InputError(
            f"inputs only guarantee order {available}, --order {requested} "
            "asks for more"
        )
    eff = min(DEFAULT_ORDER if requested is None else requested, available)
    if cutoff is not None and cutoff > eff:
        raise _InputError(
            f"--cutoff {cutoff} exceeds the effective order {eff}"
        )
    return eff


def _guard_overwrite(path: str, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise _InputError(f"{path}: exists (pass --force to overwrite)")


def _alpha_text(alpha) -> str:
    return "(" + ",".join(str(a) for a in alpha) + ")"


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(count)]


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(path: str, order: int | None, cutoff: int | None, strict: bool, fmt: str) -> int:
    surface = _load_hypersurface(path)
    order = _effective_order(order, cutoff, surface.order)
    surface = surface.truncate(order)
    # minimality and degeneracy are invariants of the germ, so a non-normal
    # input is normalized internally before they are computed
    representative = surface if surface.normal else normalize(surface)
    minimality = is_minimal(representative)
    ranks = degeneracy(representative, cutoff)
    certified = (
        minimality.certificate.status == CERTIFIED
        and ranks.certificate.status == CERTIFIED
    )
    if fmt == "doc":
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
    if strict and not certified:
        print("failure: rank not certified; rerun with --no-strict to accept",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# normalize


def cmd_normalize(path: str, out: str | None, order: int | None, fmt: str, force: bool) -> int:
    surface = _load_hypersurface(path)
    order = _effective_order(order, None, surface.order)
    surface = surface.truncate(order)
    data = serialize(normalize(surface))
    if out is None:
        sys.stdout.write(data)
        return 0
    _guard_overwrite(out, force)
    write_atomic(out, data)
    if fmt == "doc":
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


def cmd_check_map(source: str, target: str, mappath: str, order: int | None, fmt: str) -> int:
    fm, order = _build_formal_map(source, target, mappath, order, None)
    verdict = check_maps_into(fm)
    identity = None
    identity_note = ""
    if verdict.passed:
        try:
            identity = segre_reflection_identity(fm)
        except PrerequisiteError as exc:
            identity_note = str(exc)
    names = _names("z", fm.n) + _names("w", fm.n - 1)
    if fmt == "doc":
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


def _build_formal_map(source, target, mappath, order, cutoff):
    # one germ per path: a self-map's source and target are one object
    surfaces = {path: _load_hypersurface(path) for path in dict.fromkeys((source, target))}
    fmap = _load_map(mappath)
    order = _effective_order(order, cutoff, *(s.order for s in surfaces.values()), fmap.order)
    surfaces = {path: s.truncate(order) for path, s in surfaces.items()}
    try:
        fm = FormalMap(fmap.truncate(order), surfaces[source], surfaces[target])
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    return fm, order


# ---------------------------------------------------------------------------
# reflect


def cmd_reflect(source, target, mappath, outdir, order, cutoff, fmt, force) -> int:
    fm, order = _build_formal_map(source, target, mappath, order, cutoff)
    verdict = check_maps_into(fm)
    if not verdict.passed and not force:
        print(
            "refusing to reflect: the map does not send the source into the "
            "target (pass --force to override)",
            file=sys.stderr,
        )
        return 1
    try:
        report = build_reflection_report(fm, cutoff)
        partial = partial_convergence(fm, cutoff)
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
        _guard_overwrite(os.path.join(outdir, filename), force)
    os.makedirs(outdir, exist_ok=True)
    written = []
    for filename, data in artifacts:
        write_atomic(os.path.join(outdir, filename), data)
        written.append(filename)
    if fmt == "doc":
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

    parse_known_args keeps no state between calls: it fills a fresh
    namespace, and help and errors are formatted, at their fixed prog, when
    printed. ``command_parsers`` maps each command to its own parser, whose
    usage lists the flags that command takes.
    """
    parser = argparse.ArgumentParser(
        prog="crkit",
        description="Exact formal geometry of real-analytic hypersurfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, cutoff=False, strict=False):
        """--order and --format, around the flags only some commands read."""
        p.add_argument("--order", type=int, default=None, metavar="N",
                       help=f"truncation order (default {DEFAULT_ORDER})")
        if cutoff:
            p.add_argument("--cutoff", type=int, default=None, metavar="A",
                           help="degeneracy / family cutoff (default: the order)")
        if strict:
            p.add_argument("--strict", action=argparse.BooleanOptionalAction,
                           default=True,
                           help="treat probable (uncertified) ranks as failures")
        p.add_argument("--format", choices=("text", "doc"), default="text",
                       dest="fmt", help="output format")

    p = sub.add_parser("analyze", help="invariants of one hypersurface")
    p.add_argument("hypersurface")
    common(p, cutoff=True, strict=True)

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
    common(p, cutoff=True)

    parser.command_parsers = sub.choices
    return parser


def main(argv=None) -> int:
    parser = _build_arg_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        # refused under the usage of the command given, which lists its flags
        parser.command_parsers[args.command].print_usage(sys.stderr)
        parser.exit(2, f"{parser.prog}: error: unrecognized arguments: {' '.join(unknown)}\n")
    try:
        _check_flags(args)
        if args.command == "analyze":
            return cmd_analyze(args.hypersurface, args.order, args.cutoff, args.strict, args.fmt)
        if args.command == "normalize":
            return cmd_normalize(args.hypersurface, args.out, args.order, args.fmt, args.force)
        if args.command == "check-map":
            return cmd_check_map(args.source, args.target, args.mapfile, args.order, args.fmt)
        if args.command == "reflect":
            return cmd_reflect(
                args.source, args.target, args.mapfile, args.outdir,
                args.order, args.cutoff, args.fmt, args.force,
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
