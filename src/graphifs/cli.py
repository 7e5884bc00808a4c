"""Command-line interface.

Exit codes:
    0   success / verdict reached (including NotStandardAttractor and
        StandardAttractor)
    1   validation or computation failure, or an unreadable input file
    2   usage error
    3   verdict Unknown (a legitimate answer under one-sided criteria)
    4   resource cap exceeded
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from . import __version__
from .classify import (
    Verdict,
    classify_distinct_components,
    classify_gap_condition,
    classify_measure_condition,
    replay_certificate,
    rewrite_to_standard,
)
from .errors import (
    GraphIFSError,
    ResourceCapError,
    RewriteError,
    SpecValidationError,
)
from .families import params_from_ifs
from .gaps import max_gap
from .dimension import _MP, hausdorff_dimension
from .measure import component_measures
from .model import format_rational, parse_rational
from .render import render_svg
from .serialize import (
    certificate_from_json,
    certificate_to_json,
    dump_spec,
    load_spec,
)
from .spanning import (
    SurdRoot,
    build_spanning_system,
    example_params,
    gap_quadratic_roots,
    solve_spanning_ratios,
    span_search,
    verify_map_identities,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3
EXIT_RESOURCE = 4


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise GraphIFSError(f"{path}: {exc}") from None


def _load(path: str):
    return load_spec(_read(path))


def _require_vertex(ifs, vertex: str):
    if vertex not in ifs.vertices:
        raise SpecValidationError(
            f"vertex {vertex!r} not in system (have {list(ifs.vertices)})")


def _num(x) -> str:
    return _MP.nstr(x, 15)


def _over(p: int, den: int) -> str:
    """format_rational(Fraction(p, den)), reduced by one gcd."""
    g = math.gcd(p, den)
    return str(p // g) if g == den else f"{p // g}/{den // g}"


# ---------------------------------------------------------------------------
# subcommand bodies

def _cmd_validate(args) -> int:
    _load(args.spec)  # load_spec raises on any problem
    print("valid")
    return EXIT_OK


def _cmd_dim(args) -> int:
    ifs = _load(args.spec)
    result = hausdorff_dimension(ifs, tol=args.tol)
    print(f"s = {_num(result.s)}")
    print(f"bracket = [{_num(result.bracket[0])}, {_num(result.bracket[1])}]")
    print(f"iterations = {result.iterations}")
    return EXIT_OK


def _cmd_gaps(args) -> int:
    ifs = _load(args.spec)
    _require_vertex(ifs, args.vertex)
    if args.depth < 0:
        raise ValueError("depth must be >= 0")
    ladder = ifs.ladder
    ladder.endpoints(args.vertex, args.depth)  # the path cap fires before output
    largest = max_gap(ifs, args.vertex)
    texts: dict[tuple[int, int], str] = {}  # by ends over scale ** depth
    for k in range(1, args.depth + 1):
        den = ladder.scale ** k
        up = ladder.scale ** (args.depth - k)
        row = []
        for lo, hi in ladder.gaps(args.vertex, k):
            key = lo * up, hi * up
            text = texts.get(key)
            if text is None:
                text = texts[key] = (
                    f"({_over(lo, den)}, {_over(hi, den)}) "
                    f"len {_over(hi - lo, den)}")
            row.append(text)
        print(f"level {k}: {', '.join(row)}")
    print(f"max gap = {format_rational(largest)}")
    return EXIT_OK


def _cmd_measure(args) -> int:
    ifs = _load(args.spec)
    params = params_from_ifs(ifs)
    if params is None:
        raise SpecValidationError(
            "measure requires the two-vertex double-loop family "
            "(one 0-anchored loop and one 1-anchored cross edge per vertex)")
    result = component_measures(params, tol=args.tol, eps=args.eps)
    print(f"s = {_num(result.s)}")
    for name, cond in (("cond1", result.cond1), ("cond2", result.cond2)):
        warn = " (warning: failing side within eps)" if cond.warning else ""
        print(f"{name} = {cond.status.value} (value {_num(cond.value)}){warn}")
    if result.h_u is None:
        print("measure: not determined (a condition fails)")
        return EXIT_UNKNOWN
    u, v = ifs.vertices
    print(f"H^s(F_{u}) = {_num(result.h_u)}")
    print(f"H^s(F_{v}) = {_num(result.h_v)}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    ifs = _load(args.spec)
    _require_vertex(ifs, args.vertex)
    if args.depth < 0:
        raise ValueError("depth must be >= 0")
    if args.theorem == "p2m":
        params = params_from_ifs(ifs)
        if params is None:
            raise SpecValidationError(
                "p2m applies only to the two-vertex double-loop family")
        certs = classify_distinct_components(params)
        cert = next(c for c in certs if c.vertex == args.vertex)
    elif args.theorem == "p2t":
        cert = classify_measure_condition(
            ifs, args.vertex, depth=args.depth, reflected=args.reflected,
            minimal_edges_asserted=args.assert_minimal_edges)
    else:
        cert = classify_gap_condition(ifs, args.vertex, depth=args.depth,
                                      reflected=args.reflected)
    sys.stdout.write(certificate_to_json(cert))
    return EXIT_UNKNOWN if cert.verdict is Verdict.UNKNOWN else EXIT_OK


def _cmd_rewrite(args) -> int:
    ifs = _load(args.spec)
    _require_vertex(ifs, args.vertex)
    try:
        maps = rewrite_to_standard(ifs, args.vertex)
    except RewriteError as exc:
        print(f"no standard rewrite found: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    for sim in maps:
        sign = "-" if sim.reflect else ""
        print(f"x -> {sign}{format_rational(sim.ratio)}*x"
              f" + {format_rational(sim.offset)}")
    return EXIT_OK


def _cmd_render(args) -> int:
    ifs = _load(args.spec)
    svg = render_svg(ifs, args.levels)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(svg)
    else:
        sys.stdout.write(svg)
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    if args.action == "solve":
        ratios = solve_spanning_ratios(args.g1, args.g2, args.g3, args.g4)
        if ratios is None:
            print("infeasible")
            return EXIT_FAIL
        names = ("r_e1", "r_e2", "r_e3", "r_e4", "r_e5", "r_e6")
        for name, r in zip(names, ratios):
            print(f"{name} = {format_rational(r)}")
        print(f"r = {format_rational(ratios[2])}")
        return EXIT_OK
    if args.action == "quadratic":
        roots = gap_quadratic_roots(args.alpha)
        if not roots:
            print("no real roots")
            return EXIT_OK
        for root in roots:
            if isinstance(root, SurdRoot):
                sign = "+" if root.sign > 0 else "-"
                print(f"({format_rational(root.p)} {sign} "
                      f"sqrt({format_rational(root.d)}))"
                      f"/{format_rational(root.q)}"
                      f"  (approx {root.approx():.10f})")
            else:
                print(format_rational(root))
        return EXIT_OK
    ifs, s_map = build_spanning_system(example_params())
    if args.action == "build":
        sys.stdout.write(dump_spec(ifs))
        print(f"S: x -> {format_rational(s_map.ratio)}*x "
              f"+ {format_rational(s_map.offset)}")
        return EXIT_OK
    # verify
    ok, reports = verify_map_identities(ifs, s_map)
    for report in reports:
        print(f"{report.description}: {'ok' if report.holds else 'FAILED'}")
    print("all identities hold" if ok else "identity check failed")
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_span_search(args) -> int:
    ifs = _load(args.spec)
    _require_vertex(ifs, args.src)
    _require_vertex(ifs, args.dst)
    hits = span_search(ifs, args.src, args.dst, max_j=args.max_j,
                       max_k=args.max_k, verify_depth=args.verify_depth)
    if not hits:
        print("no gap-spanning similarity of the conjectured shape "
              f"found (j <= {args.max_j}, k <= {args.max_k})")
        return EXIT_OK
    for h in hits:
        lo, hi = h.spanned_gap
        print(f"hit: x -> {format_rational(h.s_map.ratio)}*x "
              f"+ {format_rational(h.s_map.offset)} "
              f"levels {h.level_pair[0]}->{h.level_pair[1]} "
              f"spans gap ({format_rational(lo)}, {format_rational(hi)}) "
              f"verified to depth {h.verified_depth}")
    return EXIT_OK


def _cmd_verify_certificate(args) -> int:
    ifs = _load(args.spec)
    cert = certificate_from_json(_read(args.certificate))
    if replay_certificate(ifs, cert):
        print("certificate replays successfully")
        return EXIT_OK
    print("certificate FAILED to replay", file=sys.stderr)
    return EXIT_FAIL


# ---------------------------------------------------------------------------
# parser

def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_validate(p):
    p.add_argument("spec")
    p.set_defaults(func=_cmd_validate)


def _add_dim(p):
    p.add_argument("spec")
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=_cmd_dim)


def _add_gaps(p):
    p.add_argument("spec")
    p.add_argument("--vertex", required=True)
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(func=_cmd_gaps)


def _add_measure(p):
    p.add_argument("spec")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--eps", type=float, default=1e-9)
    p.set_defaults(func=_cmd_measure)


def _add_classify(p):
    p.add_argument("spec")
    p.add_argument("--vertex", required=True)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--reflected", action="store_true")
    p.add_argument("--theorem", choices=("p2m", "p2q", "p2t"), default="p2q")
    p.add_argument("--assert-minimal-edges", action="store_true")
    p.set_defaults(func=_cmd_classify)


def _add_rewrite(p):
    p.add_argument("spec")
    p.add_argument("--vertex", required=True)
    p.set_defaults(func=_cmd_rewrite)


def _add_render(p):
    p.add_argument("spec")
    p.add_argument("--levels", type=int, default=5)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_render)


def _add_counterexample(p):
    p.set_defaults(func=_cmd_counterexample)
    csub = p.add_subparsers(dest="action", required=True)
    c = csub.add_parser("solve", help="solve the spanning ratio system")
    for name in ("--g1", "--g2", "--g3", "--g4"):
        c.add_argument(name, type=_rational, required=True)
    c = csub.add_parser("quadratic",
                        help="roots of the symmetric-instance quadratic")
    c.add_argument("--alpha", type=_rational, required=True)
    csub.add_parser("build", help="emit the reference spanning system")
    csub.add_parser("verify", help="check the four spanning map identities")


def _add_span_search(p):
    p.add_argument("spec")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--max-j", type=int, default=2)
    p.add_argument("--max-k", type=int, default=3)
    p.add_argument("--verify-depth", type=int, default=3)
    p.set_defaults(func=_cmd_span_search)


def _add_verify_certificate(p):
    p.add_argument("spec")
    p.add_argument("certificate")
    p.set_defaults(func=_cmd_verify_certificate)


# command name -> (help, the function that fills its parser), in --help order
_COMMANDS = {
    "validate": ("validate a system document", _add_validate),
    "dim": ("Hausdorff dimension via the Moran matrix", _add_dim),
    "gaps": ("gap intervals and maximum gap length", _add_gaps),
    "measure": ("Hausdorff measure (double-loop family only)", _add_measure),
    "classify": ("standardness certificate for one component", _add_classify),
    "rewrite": ("explicit standard IFS for one component", _add_rewrite),
    "render": ("SVG diagram of level-k intervals", _add_render),
    "counterexample": ("gap-spanning construction kit", _add_counterexample),
    "span-search": ("bounded search for gap-spanning similarities",
                    _add_span_search),
    "verify-certificate": ("replay a certificate against its system",
                           _add_verify_certificate),
}


def _parser(names) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphifs",
        description="Exact directed-graph IFS attractors on [0,1]: gaps, "
                    "dimension, measure, and standardness certificates.")
    parser.add_argument("--version", action="version", version=__version__)
    # a one-command tree still lists every command in its usage line
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if names is _COMMANDS else "{%s}" % ",".join(_COMMANDS))
    for name in names:
        text, fill = _COMMANDS[name]
        fill(sub.add_parser(name, help=text))
    return parser


def build_parser() -> argparse.ArgumentParser:
    return _parser(_COMMANDS)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        # the named command's parser alone, as add_parser would build it;
        # the top level only ever adds "unrecognized arguments"
        parser = argparse.ArgumentParser(prog=f"graphifs {argv[0]}")
        _COMMANDS[argv[0]][1](parser)
        args, extra = parser.parse_known_args(argv[1:])
        if extra:
            _parser(argv[:1]).error(
                f"unrecognized arguments: {' '.join(extra)}")
    else:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    # a failed computation, or an input file that cannot be read or decoded
    except (GraphIFSError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for issue in getattr(exc, "issues", ()):
            print(f"  - {issue}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
