"""The three benchmark workloads as seeded streams of queries.

A query is one call a user would make: a `graphifs` CLI invocation
through `graphifs.cli.main(argv)`, or a library call that starts from a
spec file (read, `load_spec`, then the call).  Each query carries an
oracle that checks its output and may hand back follow-up queries, such
as replaying the certificate that a `classify` query just printed.

Each workload repeats a deck of query kinds with fixed counts, shuffled
by the seed on every pass, so every run sees the same share of each
kind.  The shares are chosen so that the median and the 90th percentile
of query latency fall inside one kind's latency band rather than on the
edge between two bands (NOTES.md lists them).  Library entry points are
looked up on their module at call time, so the tracer's wrappers see
them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import mpmath
from graphifs import attractor, cli, classify, dimension, gaps, serialize
from graphifs.families import double_loop_ifs, params_from_ifs

import gen
from oracle import (
    expect,
    level_counts,
    parse_fields,
    parse_gaps_output,
    perron_modulus,
    read_doc,
)

COSET_PROBES = 24

SPECS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "specs")


@dataclass
class Query:
    """One timed call plus the oracle for its output.

    `check(output)` raises `oracle.Mismatch` on a wrong answer and returns
    follow-up queries; `text(output)` is the canonical output that goes
    into the run's output digest."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    text: Callable[[object], str]


# ---------------------------------------------------------------------------
# query builders


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_text(output) -> str:
    code, stdout = output
    return f"exit {code}\n{stdout}"


def cli_query(kind: str, argv: list[str], check) -> Query:
    return Query(kind, lambda: run_cli(argv), check, _cli_text)


def load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return serialize.load_spec(fh.read())


class Workdir:
    """Spec and certificate files of one run, named in creation order."""

    def __init__(self, root: str):
        self.root = root
        self.count = 0

    def write(self, stem: str, text: str) -> str:
        self.count += 1
        path = os.path.join(self.root, f"{self.count:06d}-{stem}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def spec(self, ifs) -> str:
        return self.write("spec.json", serialize.dump_spec(ifs))


def _tampered(cert_text: str) -> str:
    """A copy of a non-Unknown p2q/p2t/p2nv1 certificate whose evidence no
    longer replays: a moved witness point or a moved rewrite map."""
    doc = json.loads(cert_text)
    if doc["refutations"]:
        point = Fraction(doc["refutations"][0]["witness_point"])
        doc["refutations"][0]["witness_point"] = str(point + Fraction(1, 10**9))
    else:
        offset = Fraction(doc["maps"][0]["offset"])
        doc["maps"][0]["offset"] = str(offset + Fraction(1, 10**9))
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _verify_query(kind: str, spec: str, cert: str, intact: bool) -> Query:
    def check(output):
        code, stdout = output
        if intact:
            expect(code == 0 and stdout == "certificate replays successfully\n",
                   f"{kind}: intact certificate rejected (exit {code})")
        else:
            expect(code == 1 and stdout == "",
                   f"{kind}: tampered certificate accepted (exit {code})")
        return []

    return cli_query(kind, ["verify-certificate", spec, cert], check)


def classify_query(kind: str, work: Workdir, spec: str, vertex: str,
                   flags: list[str], tamper: Iterator[bool] | None,
                   expected=None) -> Query:
    """`graphifs classify`; the oracle checks the exit code against the
    verdict, round-trips the certificate through JSON and replays it.
    With `tamper` it queues one `verify-certificate`: on a tampered copy
    of the certificate when `next(tamper)` is true, else on the intact
    certificate."""

    def check(output):
        code, stdout = output
        cert = serialize.certificate_from_json(stdout)
        unknown = cert.verdict is classify.Verdict.UNKNOWN
        expect(code == (3 if unknown else 0),
               f"{kind}: exit {code} for verdict {cert.verdict.value}")
        expect(serialize.certificate_to_json(cert) == stdout,
               f"{kind}: certificate does not round-trip through JSON")
        if expected is not None:
            expect(cert.verdict.value == expected,
                   f"{kind}: verdict {cert.verdict.value}, expected {expected}")
        if unknown:
            return []
        expect(classify.replay_certificate(load(spec), cert),
               f"{kind}: certificate does not replay")
        if tamper is None:
            return []
        if next(tamper):
            tampered = work.write("tampered.json", _tampered(stdout))
            return [_verify_query("verify-tampered", spec, tampered, False)]
        intact = work.write("cert.json", stdout)
        return [_verify_query("verify-intact", spec, intact, True)]

    argv = ["classify", spec, "--vertex", vertex, *flags]
    return cli_query(kind, argv, check)


def gaps_query(kind: str, spec: str, vertex: str, depth: int,
               max_gap=None) -> Query:
    """`graphifs gaps`: per level, one gap fewer than intervals, lengths
    that match their ends and sum to 1 minus the exact covered length;
    the max gap is at least every listed gap (equal to `max_gap` when
    given)."""
    doc = read_doc(spec)

    def check(output):
        code, stdout = output
        expect(code == 0, f"{kind}: exit {code}")
        levels, top = parse_gaps_output(stdout)
        expect(len(levels) == depth, f"{kind}: {len(levels)} level lines")
        for k, entries in enumerate(levels, start=1):
            count, length = level_counts(doc, k)[vertex]
            expect(len(entries) == count - 1,
                   f"{kind}: level {k} has {len(entries)} gaps, expected {count - 1}")
            expect(all(hi - lo == size for lo, hi, size in entries),
                   f"{kind}: level {k} gap length mismatch")
            expect(sum(size for _lo, _hi, size in entries) == 1 - length,
                   f"{kind}: level {k} gap lengths do not sum to 1 - {length}")
            expect(all(size <= top for _lo, _hi, size in entries),
                   f"{kind}: level {k} gap exceeds the max gap {top}")
        if max_gap is not None:
            expect(top == max_gap, f"{kind}: max gap {top}, expected {max_gap}")
        return []

    return cli_query(kind, ["gaps", spec, "--vertex", vertex,
                            "--depth", str(depth)], check)


def render_query(kind: str, spec: str, levels: int) -> Query:
    """`graphifs render`: one rectangle per level-k interval of every vertex."""
    doc = read_doc(spec)
    expected = sum(count for k in range(levels + 1)
                   for count, _length in level_counts(doc, k).values())

    def check(output):
        code, svg = output
        expect(code == 0, f"{kind}: exit {code}")
        expect(svg.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
               and svg.endswith("</svg>\n"), f"{kind}: not an SVG document")
        rects = svg.count("<rect ")
        expect(rects == expected, f"{kind}: {rects} rects, expected {expected}")
        return []

    return cli_query(kind, ["render", spec, "--levels", str(levels)], check)


def span_query(kind: str, spec: str) -> Query:
    """`graphifs span-search` on the reference system finds x/10 + 3/40."""

    def check(output):
        code, stdout = output
        expect(code == 0 and any(line.startswith("hit: x -> 1/10*x + 3/40 ")
                                 for line in stdout.splitlines()),
               f"{kind}: S(x) = x/10 + 3/40 not found (exit {code})")
        return []

    return cli_query(kind, ["span-search", spec, "--from", "u", "--to", "u"],
                     check)


def level_set_query(kind: str, spec: str, vertex: str, k: int) -> Query:
    """`level_k_set`: interval count and exact total length match the
    path count and the row sum of A(1)^k."""
    count, length = level_counts(read_doc(spec), k)[vertex]

    def run():
        return attractor.level_k_set(load(spec), vertex, k)

    def check(iset):
        expect(len(iset) == count, f"{kind}: {len(iset)} intervals, expected {count}")
        expect(iset.total_length == length, f"{kind}: total length mismatch")
        return []

    return Query(kind, run, check, lambda iset: repr(iset.intervals))


def dim_query(kind: str, spec: str, params=None) -> Query:
    """`graphifs dim`: for a double loop, s agrees with the characteristic
    root to 1e-10; otherwise the Perron root of A(s) is 1 to 1e-9."""
    doc = read_doc(spec)

    def check(output):
        code, stdout = output
        expect(code == 0, f"{kind}: exit {code}")
        s = mpmath.mpf(parse_fields(stdout)["s"])
        if params is not None:
            root = dimension.double_loop_char_root(params)
            expect(abs(s - root) <= 1e-10, f"{kind}: s={s}, char root {root}")
        else:
            rho = perron_modulus(doc, s)
            expect(abs(rho - 1) <= 1e-9, f"{kind}: rho(A(s)) = {rho}")
        return []

    return cli_query(kind, ["dim", spec], check)


def measure_query(kind: str, spec: str, params) -> Query:
    """`graphifs measure` on a double loop: s makes the Perron root of
    A(s) equal 1, the exit code is 3 exactly when a condition fails, and
    a reported H^s(F_v) equals (1 - a^s)/b^s."""
    doc = read_doc(spec)

    def check(output):
        code, stdout = output
        fields = parse_fields(stdout)
        s = mpmath.mpf(fields["s"])
        rho = perron_modulus(doc, s)
        expect(abs(rho - 1) <= 1e-9, f"{kind}: rho(A(s)) = {rho}")
        fails = any(fields[c].startswith("Fails") for c in ("cond1", "cond2"))
        expect(code == (3 if fails else 0), f"{kind}: exit {code}")
        if not fails:
            a, b = (mpmath.mpf(x.numerator) / x.denominator
                    for x in (params.a, params.b))
            h_v = (1 - a**s) / b**s
            value = mpmath.mpf(fields["H^s(F_v)"])
            expect(abs(value - h_v) <= 1e-10, f"{kind}: H^s(F_v) = {value}")
        return []

    return cli_query(kind, ["measure", spec], check)


def max_gap_query(kind: str, spec: str, params) -> Query:
    """`max_gap` at both vertices of a double loop equals the closed form
    max{g_u, b*g_v}, max{g_v, d*g_u}."""
    p = params
    expected = (max(p.g_u, p.b * p.g_v), max(p.g_v, p.d * p.g_u))

    def run():
        ifs = load(spec)
        return gaps.max_gap(ifs, "u"), gaps.max_gap(ifs, "v")

    def check(found):
        expect(found == expected, f"{kind}: {found}, expected {expected}")
        return []

    return Query(kind, run, check, repr)


def cosets_query(kind: str, spec: str, params, moves) -> Query:
    """`gap_length_cosets`, then `enumerate` above a threshold, and
    `contains` on the largest `COSET_PROBES` members and on probes
    m*g_i/g_j built from them.  A probe at or above the threshold is a
    member exactly when `enumerate` listed it; the largest member is
    max{g_u, b*g_v}.  Capping the probed members keeps the work per
    query from following the member count, which varies tenfold."""
    top = max(params.g_u, params.b * params.g_v)
    threshold = top / 40

    def run():
        g_u, _g_v = gaps.gap_length_cosets(params_from_ifs(load(spec)))
        members = g_u.enumerate(threshold)
        tested = members[-COSET_PROBES:]
        gens = g_u.cosets[-1][1]
        n = len(gens)
        probes = [x * gens[i % n] / gens[j % n]
                  for x in tested for i, j in moves if i % n != j % n]
        probes = [x for x in probes if x >= threshold]
        return (members, [g_u.contains(x) for x in tested],
                probes, [g_u.contains(x) for x in probes])

    def check(output):
        members, member_flags, probes, probe_flags = output
        expect(members == sorted(set(members)) and members[0] >= threshold,
               f"{kind}: enumeration not sorted above the threshold")
        expect(members[-1] == top, f"{kind}: largest member {members[-1]}, expected {top}")
        expect(all(member_flags), f"{kind}: a listed member fails contains")
        listed = set(members)
        expect(all(flag == (x in listed) for x, flag in zip(probes, probe_flags)),
               f"{kind}: contains disagrees with enumerate on a probe")
        return []

    return Query(kind, run, check, repr)


# ---------------------------------------------------------------------------
# workloads


def _decks(rng: random.Random, deck: list) -> Iterator:
    while True:
        order = list(deck)
        rng.shuffle(order)
        yield from order


def fixed_deep(rng: random.Random, work: Workdir) -> Iterator[Query]:
    """The north-star CLI cases on the four sample specs and four seeded
    out-degree-2 systems, repeated at deep levels: the same inputs recur,
    so a cross-call level-set cache would show its full effect here."""
    golden = os.path.join(SPECS, "golden_ratio.json")
    one_loop = os.path.join(SPECS, "one_loop.json")
    nested = os.path.join(SPECS, "nested_components.json")
    spanning = os.path.join(SPECS, "gap_spanning.json")
    two = [work.spec(gen.draw_cssc(rng, 2, max_degree=2)) for _ in range(2)]
    three = [work.spec(gen.draw_cssc(rng, 3, max_degree=2)) for _ in range(2)]

    def classify_golden(vertex, depth):
        return lambda: classify_query(
            f"classify-d{depth}", work, golden, vertex,
            ["--depth", str(depth)], None, "NotStandardAttractor")

    def render(spec, levels):
        return lambda: render_query(f"render-{levels}", spec, levels)

    def gaps_d10(spec, vertex, max_gap=None):
        return lambda: gaps_query("gaps-d10", spec, vertex, 10, max_gap)

    # The depth-8 classify and 8- and 9-level render queries fill the
    # lowest 47%, so the median falls among the `gaps --depth 10` queries
    # (NOTES.md lists each kind's share and latency); span-search is the
    # slowest kind and the top sixth, so p90 falls inside it.
    deck = [
        classify_golden("u", 8), classify_golden("u", 8),
        classify_golden("v", 8), classify_golden("v", 8),
        render(golden, 8), render(golden, 8), render(one_loop, 8),
        render(two[0], 8),
        classify_golden("u", 10), classify_golden("v", 10),
        gaps_d10(golden, "u", Fraction(1, 4)),  # max{g_u, b*g_v}
        gaps_d10(one_loop, "v"),
        gaps_d10(two[1], "v1"), gaps_d10(three[1], "v0"),
        render(golden, 9), render(three[0], 8),
        render(golden, 10), render(nested, 8),
        lambda: level_set_query("level-set-k12", golden, "u", 12),
        lambda: span_query("span-search", spanning),
        lambda: span_query("span-search", spanning),
        lambda: span_query("span-search", spanning),
        lambda: span_query("span-search", spanning),
    ]
    for make in _decks(rng, deck):
        yield make()


def fresh_certify(rng: random.Random, work: Workdir) -> Iterator[Query]:
    """Certificates for systems never seen before, each followed by
    `verify-certificate` on the intact certificate or, for every other
    certificate, on a tampered copy: per-system build cost and witness
    enumeration dominate, and a cross-query cache gets nothing."""
    tamper = itertools.cycle((False, True))

    def double_loop(flags, kind):
        spec = work.spec(double_loop_ifs(gen.draw_double_loop(rng)))
        return classify_query(kind, work, spec, "u",
                              ["--depth", "8", *flags], tamper)

    def nested():
        spec = work.spec(gen.draw_nested_pair(rng))
        return classify_query("classify-nested", work, spec, "v",
                              ["--depth", "8"], tamper)

    def three_vertex():
        spec = work.spec(gen.draw_cssc(rng, 3, max_degree=2))
        return classify_query("classify-3v", work, spec, "v0",
                              ["--depth", "8"], tamper)

    p2t = ["--theorem", "p2t", "--assert-minimal-edges"]
    # Each non-Unknown certificate adds one verify query (about 2.5 ms);
    # the p2t queries stop at an `Unknown` and add none.  So the verify
    # queries make up the lowest 45%, the p2t queries (about 4 ms) the
    # next tenth and the median falls in their middle: the latency of
    # the shortest queries scales least exactly with machine speed (see
    # calibrate.py), so the median stays off them.  The 90th percentile
    # falls two thirds into the reflected p2q queries (80-95%).
    deck = [
        lambda: double_loop([], "classify-p2q"),
        lambda: double_loop([], "classify-p2q"),
        lambda: double_loop([], "classify-p2q"),
        lambda: double_loop(["--reflected"], "classify-p2q-reflected"),
        lambda: double_loop(["--reflected"], "classify-p2q-reflected"),
        lambda: double_loop(["--reflected"], "classify-p2q-reflected"),
        lambda: double_loop(p2t, "classify-p2t"),
        lambda: double_loop(p2t, "classify-p2t"),
        nested,
        three_vertex,
        three_vertex,
    ]
    for make in _decks(rng, deck):
        yield make()


def numeric(rng: random.Random, work: Workdir) -> Iterator[Query]:
    """Dimension, measure, maximal gap and gap-length cosets on a fresh
    system per query; level sets are touched only at level 1.

    The systems of the `dim` queries come from one stream that every seed
    shares, in the same order.  One `dim` query costs 20 times another
    (power-iteration convergence differs per system), so when each seed
    drew its own, the seed alone moved a 30 s run's throughput by a
    third.  Every query still gets a system it has not seen before, and
    the seed still orders the deck and draws all other systems."""
    shared = {kind: random.Random(f"numeric-{kind}")
              for kind in ("dim-loop", "dim-2v", "dim-3v", "dim-4v")}

    def double_loop(source=rng):
        params = gen.draw_double_loop(source)
        return params, work.spec(double_loop_ifs(params))

    def dim_double_loop():
        params, spec = double_loop(shared["dim-loop"])
        return dim_query("dim-2v", spec, params)

    def dim_n(n):
        kind = f"dim-{n}v"
        return lambda: dim_query(kind, work.spec(gen.draw_cssc(shared[kind], n)))

    def measure():
        params, spec = double_loop()
        return measure_query("measure", spec, params)

    def max_gap():
        params, spec = double_loop()
        return max_gap_query("max-gap", spec, params)

    def cosets():
        params, spec = double_loop()
        moves = [tuple(rng.sample(range(3), 2)) for _ in range(2)]
        return cosets_query("cosets", spec, params, moves)

    # The cheap max-gap and measure queries fill the lowest three tenths,
    # the cosets queries the next half (the median falls among them), and
    # the dimension queries the top fifth (p90 falls among them).
    deck = [max_gap, max_gap, max_gap, measure, measure, measure,
            *[cosets] * 10,
            dim_double_loop, dim_n(2), dim_n(3), dim_n(4)]
    for make in _decks(rng, deck):
        yield make()


WORKLOADS = {
    "fixed-deep": fixed_deep,
    "fresh-certify": fresh_certify,
    "numeric": numeric,
}
