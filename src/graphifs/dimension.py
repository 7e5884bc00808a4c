"""Hausdorff dimension of attractor components.

The dimension s is the unique t with spectral radius rho(A(t)) = 1, where
A(t) is the nonnegative matrix whose (u,v) entry sums r_e^t over the edges
u -> v.  rho is strictly decreasing in t, rho(A(0)) >= 2 (out-degree >= 2)
and rho(A(1)) < 1 (level-1 total length < 1 under the separation
condition), so s lies in [0, 1], and a bracket [lo, hi] holds s exactly
when rho(A(lo)) >= 1 > rho(A(hi)).  That test needs no rho: for
nonnegative A, rho(A) < lam exactly when lam*I - A is a nonsingular
M-matrix, that is when its Gaussian elimination without row exchanges
meets only positive pivots (Berman & Plemmons, ch. 6, condition A1).

Each step of the solver builds A(t) once, with entries exp(t log r) from
logs taken once per solve, and eliminates I - A(t) once: the pivot test
decides which end of the bracket moves, and the product of the pivots,
det(I - A(t)), proposes the next t by the Illinois rule (a modified
regula falsi).  The solver first takes such steps in floats, from [0, 1]
to 2^-42, about 11 of them.  The float root widened by 2^-40 on each
side is the start bracket when the pivot test in 40-digit mpf confirms
that it holds s, and [0, 1] is the start otherwise.  From there the
solver steps in mpf: one step reaches 1e-12 from the float start, and
about ten from [0, 1].  Both ends of the final bracket are then proven
by the pivot test in exact rationals on outward-rounded bounds of their
entries (rho does not fall when an entry grows; Berman & Plemmons, ch.
2), so a returned bracket holds s for certain.  The Perron root of a
single matrix is found by the same steps on det(lam*I - A).
For the two-vertex double-loop family the same s is also the root of the
2x2 characteristic equation f(t) = 0, which serves as an independent
cross-check; it is solved by the same steps on f, started from a float
root of f found by halving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath.ctx_mp import MPContext
from mpmath.libmp import (dps_to_prec, from_rational, mpf_exp, mpf_log,
                          mpf_mul, round_ceiling, round_floor, to_rational)

from .errors import NumericError
from .families import DoubleLoopParams
from .model import GraphIFS

#: The library's working precision: a context of its own, so that results
#: do not depend on a caller's mpmath.mp.  mpf is its number type.
_MP = MPContext()
_MP.dps = 40
mpf = _MP.mpf

#: The bits of the bounds that prove a bracket, 10 digits beyond _MP,
#: since the ends of a bracket can sit one unit of working precision from s.
_PROOF_PREC = dps_to_prec(_MP.dps + 10)


def _to_mpf(x) -> mpf:
    if hasattr(x, "numerator") and hasattr(x, "denominator"):
        return mpf(x.numerator) / mpf(x.denominator)
    return mpf(x)


@dataclass(frozen=True)
class MoranMatrix:
    """A(t): square nonnegative matrix of summed ratio powers."""

    vertices: tuple[str, ...]
    entries: tuple[tuple[mpf, ...], ...]

    @property
    def n(self) -> int:
        return len(self.vertices)


def moran_matrix(ifs: GraphIFS, t) -> MoranMatrix:
    """Build A(t) with entries evaluated in working precision."""
    t = _to_mpf(t)
    if t < 0:
        raise ValueError("t must be >= 0")
    return _moran(ifs)[0](t)


def _moran(ifs: GraphIFS):
    """(at, enclose, estimate) for a solve that builds A(t) at many t, with
    the vertex index, the edge ratios and their logs in working precision
    made once: at(t) is A(t) in mpf, with entries exp(t log r), or r^t at
    an integer t, so that those stay exact; enclose(lo, hi) gives Fraction
    lower bounds of A(lo) and upper bounds of A(hi); and estimate() is
    where the pivot test of I - A(t) in floats exp(t log r) turns, found
    by Illinois steps on det(I - A(t)) to 2^-42, or None when the float
    test fails at 0 or holds at 1."""
    index = {v: i for i, v in enumerate(ifs.vertices)}
    cells = [(index[e.src], index[e.dst]) for e in ifs.edges]
    ratios = [_to_mpf(e.map.ratio) for e in ifs.edges]
    logs = [_MP.log(r) for r in ratios]

    def build(powers, zero) -> MoranMatrix:
        rows = [[zero] * len(index) for _ in index]
        for (i, j), power in zip(cells, powers):
            rows[i][j] += power
        return MoranMatrix(tuple(ifs.vertices), tuple(tuple(r) for r in rows))

    def at(t: mpf) -> MoranMatrix:
        if _MP.isint(t):
            return build([r ** t for r in ratios], mpf(0))
        return build([_MP.exp(t * log) for log in logs], mpf(0))

    def bound(t: mpf, rnd) -> MoranMatrix:
        # exp(t log r) at t >= 0, each step rounded to the side of rnd
        prec = _PROOF_PREC

        def power(e):
            r = from_rational(*e.map.ratio.as_integer_ratio(), prec, rnd)
            tlog = mpf_mul(t._mpf_, mpf_log(r, prec, rnd), prec, rnd)
            return Fraction(*to_rational(mpf_exp(tlog, prec, rnd)))
        return build([power(e) for e in ifs.edges], Fraction(0))

    def enclose(lo: mpf, hi: mpf) -> tuple[MoranMatrix, MoranMatrix]:
        # each r^t >= 1 = r^0 at t < 0, so A(0) bounds A(lo) from below there
        return bound(max(lo, mpf(0)), round_floor), bound(hi, round_ceiling)

    def estimate() -> float | None:
        floats = [float(log) for log in logs]

        def decide(t):
            return _at_or_above(
                build([math.exp(t * log) for log in floats], 0.0), 1.0)

        steps = _bracket(decide, 0.0, 1.0, 2**-42)
        return None if steps is None else (steps[0] + steps[1]) / 2

    return at, enclose, estimate


def _at_or_above(m: MoranMatrix, lam):
    """(rho(m) >= lam, det(lam*I - m)) from one Gaussian elimination of
    lam*I - m without row exchanges, in floats, mpf or Fractions as the
    entries are: the pivot test and the product of the pivots.  det is 0
    when the last pivot is 0 and every other one positive, so that
    lam*I - m is a singular M-matrix and rho(m) = lam; it is None at any
    other pivot 0, where the elimination cannot go on."""
    rows = [[(lam if i == j else 0) - x for j, x in enumerate(row)]
            for i, row in enumerate(m.entries)]
    below, det = True, 1
    for k, pivot_row in enumerate(rows):
        pivot = pivot_row[k]
        if not pivot:
            return True, (mpf(0) if below and k == m.n - 1 else None)
        below = below and pivot > 0
        det *= pivot
        for row in rows[k + 1:]:
            factor = row[k] / pivot
            for j in range(k + 1, m.n):
                row[j] -= factor * pivot_row[j]
    return not below, det


def _bracket(decide, lo, hi, tol):
    """Shrink [lo, hi] until it is at most tol wide, keeping the
    predicate of decide true at lo and false at hi; returns (lo, hi,
    iterations), or None, after deciding both ends, when the predicate
    fails at lo or holds at hi.  decide(x) returns (predicate at x, f(x))
    for an f that is negative at lo and positive at hi near the root, or
    None in place of f(x).  A step with f(x) = 0 ends the solve with lo =
    hi = x.

    When f(lo) < 0 < f(hi), a step tries the Illinois point: the root of
    the chord through both ends, where each step that keeps the same end
    as the step before halves that end's f.  The point is kept at least tol/2 inside
    the bracket, so that an end already within rounding of the root ends
    the solve one step later.  Every other step halves the bracket.  The
    predicate alone decides which end moves.  Raises ValueError when a
    step cannot shrink the bracket, which happens once it is one unit of
    working precision wide and still wider than tol."""
    (holds_lo, f_lo), (holds_hi, f_hi) = decide(lo), decide(hi)
    if not holds_lo or holds_hi:
        return None
    iterations, kept = 0, None
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if f_lo is not None and f_hi is not None and f_lo < 0 < f_hi:
            chord = lo + (hi - lo) * f_lo / (f_lo - f_hi)
            chord = min(max(chord, lo + tol / 2), hi - tol / 2)
            if lo < chord < hi:
                mid = chord
        holds, f_mid = decide(mid)
        if f_mid == 0:  # mid is the root itself
            return mid, mid, iterations + 1
        bracket = (mid, hi) if holds else (lo, mid)
        if bracket == (lo, hi):
            raise ValueError("tol is below the working precision")
        if holds:
            if kept == "hi" and f_hi is not None:
                f_hi /= 2
            lo, f_lo, kept = mid, f_mid, "hi"
        else:
            if kept == "lo" and f_lo is not None:
                f_lo /= 2
            hi, f_hi, kept = mid, f_mid, "lo"
        iterations += 1
    return lo, hi, iterations


def spectral_radius(m: MoranMatrix) -> mpf:
    """Perron root of a nonnegative matrix: Illinois steps on
    det(lam*I - m) over [0, largest row sum], each decided by the pivot
    test for rho(m) >= lam.  rho(m) never exceeds the largest row sum, so
    it is that sum when the test holds there, and _bracket returns None;
    otherwise the upper end of the final bracket is returned, so an exact
    root stays exact."""
    top = max(sum(row) for row in m.entries)
    tol = mpf(10) ** (-(_MP.dps - 5)) * max(1, top)
    steps = _bracket(lambda lam: _at_or_above(m, lam), mpf(0), top, tol)
    return top if steps is None else steps[1]


@dataclass(frozen=True)
class DimensionResult:
    """Solver output: the dimension estimate, its proven bracket and the
    number of Illinois steps taken from the start bracket."""

    s: mpf
    bracket: tuple[mpf, mpf]
    iterations: int


def _tol(tol) -> mpf:
    """tol in working precision, checked before any work: a solve that
    starts from [0, 1] takes no step at a tol of 1 or above, and none at a
    NaN tol, and never ends at a tol of 0 or below."""
    tol = _to_mpf(tol)
    if not tol > 0:
        raise ValueError("tol must be positive")
    if tol >= 1:
        raise ValueError("tol must be below 1")
    return tol


def _prove(enclose, lo: mpf, hi: mpf, tol: mpf) -> tuple[mpf, mpf]:
    """[lo, hi], or a wider bracket still at most tol wide, with
    rho(A(lo)) >= 1 and rho(A(hi)) < 1 proven by the pivot test in exact
    rationals: rho of enclose's lower bound of A(lo) is at least 1, and
    rho of its upper bound of A(hi) is below 1.

    An end within rounding of s, as at a dyadic s that a step hits
    exactly, can fail its proof; such an end moves out by a quarter of the
    room left under tol and is proven again.  Raises NumericError when
    that fails too."""
    pad = (tol - (hi - lo)) / 4
    above = [_at_or_above(m, 1)[0] for m in enclose(lo, hi)]
    if above != [True, False] and pad > 0:
        lo -= 0 if above[0] else pad
        hi += pad if above[1] else 0
        above = [_at_or_above(m, 1)[0] for m in enclose(lo, hi)]
    if above != [True, False]:
        raise NumericError(f"could not prove that [{lo}, {hi}] brackets s")
    return lo, hi


def hausdorff_dimension(ifs: GraphIFS, tol: float = 1e-12) -> DimensionResult:
    """Solve rho(A(t)) = 1 by Illinois steps on det(I - A(t)), each
    decided by the pivot test, and prove the final bracket by that test in
    exact rationals; raises NumericError when the proof fails, so a returned
    bracket always holds s.  The steps start from the float estimate of s
    widened by 2^-40 on each side when the pivot test in working
    precision confirms that it holds s, and from [0, 1] otherwise."""
    tol = _tol(tol)
    at, enclose, estimate = _moran(ifs)

    def decide(t):
        return _at_or_above(at(t), 1)

    e = estimate()
    steps = None if e is None else _bracket(
        decide, mpf(max(e - 2**-40, 0)), mpf(min(e + 2**-40, 1)), tol)
    steps = steps or _bracket(decide, mpf(0), mpf(1), tol)
    if steps is None:
        if not decide(mpf(0))[0]:
            raise NumericError("rho(A(0)) < 1: graph violates out-degree >= 2")
        raise NumericError("rho(A(1)) >= 1: level-1 intervals overfill [0,1]")
    lo, hi = _prove(enclose, *steps[:2], tol)
    return DimensionResult((lo + hi) / 2, (lo, hi), steps[2])


def _char_root_estimate(a, b, c, d) -> float:
    """The root of f(t) = (a^t - 1)(c^t - 1) - (bd)^t to float precision,
    with f written as exp(t log r) and the three logs taken once in mpf:
    halving [0, 1] on the sign of f until the bracket stops shrinking."""
    fa, fc, fbd = (float(_MP.log(r)) for r in (a, c, b * d))
    lo, hi = 0.0, 1.0
    while lo < (t := (lo + hi) / 2) < hi:
        if math.expm1(t * fa) * math.expm1(t * fc) < math.exp(t * fbd):
            lo = t
        else:
            hi = t
    return t


def double_loop_char_root(params: DoubleLoopParams,
                          tol: float = 1e-12) -> mpf:
    """Dimension of the double-loop family as the root on (0,1) of
    f(t) = (a^t - 1)(c^t - 1) - b^t d^t, which satisfies f(0) = -1 and
    f(1) = g_u*g_v + g_u*d + b*g_v > 0, by Illinois steps on f.

    f rises strictly on [0, inf): (1 - a^t)(1 - c^t) does not fall and
    (bd)^t falls.  The steps start from a float estimate of the root
    widened by 2^-40 on each side, when f changes sign across it, and
    from [0, 1] otherwise; f is evaluated at every end they keep."""
    tol = _tol(tol)
    a, b = _to_mpf(params.a), _to_mpf(params.b)
    c, d = _to_mpf(params.c), _to_mpf(params.d)

    def f(t):
        return (a**t - 1) * (c**t - 1) - (b**t) * (d**t)

    def decide(t):
        value = f(t)
        return value < 0, value

    estimate = _char_root_estimate(a, b, c, d)
    steps = (_bracket(decide, mpf(max(estimate - 2**-40, 0)),
                      mpf(min(estimate + 2**-40, 1)), tol)
             or _bracket(decide, mpf(0), mpf(1), tol))
    if steps is None:
        raise NumericError("characteristic equation lost its sign change")
    return (steps[0] + steps[1]) / 2
