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

The solver steps in 40-digit mpf.  Each step builds A(t) once and
eliminates I - A(t) once: the pivot test decides which end of the
bracket moves, and the product of the pivots, det(I - A(t)), proposes the
next t by the Illinois rule (a modified regula falsi), which needs about
ten steps to 1e-12 where halving needs forty.  The two ends of the final
bracket are then proven by the same elimination in mpmath interval
arithmetic with outward rounding, so a returned bracket holds s for
certain.  For the two-vertex double-loop family the same s is also the
root of the 2x2 characteristic equation, which serves as an independent
cross-check.  It is solved by halving on the sign of the characteristic
function f, where a fence around a Newton estimate of the root answers
the steps that lie far from it, so that f is evaluated only at the few
steps inside the fence; the steps and the root are those of halving on f
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
from mpmath import mp, mpf
from mpmath.ctx_iv import MPIntervalContext

from .errors import NumericError
from .families import DoubleLoopParams
from .model import GraphIFS

mp.dps = 40

#: The interval arithmetic of the bracket proofs: a context of its own, so
#: that setting its precision leaves a caller's mpmath.iv alone.
_IV = MPIntervalContext()


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
    """(at, enclose) for a solve that builds A(t) at many t, with the
    vertex index and the edge ratios in working precision made once:
    at(t) is A(t) in mpf, and enclose(*ts) gives A(t) for each t in _IV
    intervals, at _IV's current precision, that hold the exact entries."""
    index = {v: i for i, v in enumerate(ifs.vertices)}
    cells = [(index[e.src], index[e.dst]) for e in ifs.edges]
    ratios = [_to_mpf(e.map.ratio) for e in ifs.edges]

    def build(powers, zero) -> MoranMatrix:
        rows = [[zero] * len(index) for _ in index]
        for (i, j), power in zip(cells, powers):
            rows[i][j] += power
        return MoranMatrix(tuple(ifs.vertices), tuple(tuple(r) for r in rows))

    def at(t: mpf) -> MoranMatrix:
        return build([r ** t for r in ratios], mpf(0))

    def enclose(*ts: mpf) -> list[MoranMatrix]:
        logs = [_IV.log(_IV.mpf(e.map.ratio.numerator) / e.map.ratio.denominator)
                for e in ifs.edges]
        return [build([_IV.exp(_IV.mpf(t) * log) for log in logs], _IV.mpf(0))
                for t in ts]

    return at, enclose


def _pivots(m: MoranMatrix, lam):
    """Yield the pivots of lam*I - m under Gaussian elimination without
    row exchanges, in mpf or in intervals as the entries are.  A reader
    must stop at a pivot that is or may be 0, which the next step would
    divide by."""
    rows = [[(lam if i == j else 0) - x for j, x in enumerate(row)]
            for i, row in enumerate(m.entries)]
    for k, pivot_row in enumerate(rows):
        pivot = pivot_row[k]
        yield pivot
        for row in rows[k + 1:]:
            factor = row[k] / pivot
            for j in range(k + 1, m.n):
                row[j] -= factor * pivot_row[j]


def _below(m: MoranMatrix, lam):
    """Whether rho(m) < lam: True when every pivot of lam*I - m is
    positive, False at the first pivot <= 0.  On interval entries True
    and False are proofs, and None means a pivot interval straddles 0."""
    for pivot in _pivots(m, lam):
        if not pivot > 0:
            return False if pivot <= 0 else None
    return True


def _at_or_above_one(m: MoranMatrix):
    """(rho(m) >= 1, det(I - m)) from one elimination: the pivot test and
    the product of the pivots.  det is 0 when the last pivot is 0 and every
    other one positive, so that I - m is a singular M-matrix and rho(m) = 1;
    it is None at any other pivot 0, where the elimination cannot go on."""
    below, det = True, mpf(1)
    for k, pivot in enumerate(_pivots(m, 1)):
        if not pivot:
            return True, (mpf(0) if below and k == m.n - 1 else None)
        below = below and pivot > 0
        det *= pivot
    return not below, det


def _bracket(decide, lo, hi, tol, f_lo=None, f_hi=None):
    """Shrink [lo, hi] until it is at most tol wide, keeping the
    predicate of decide true at lo and false at hi; returns (lo, hi,
    iterations).  decide(x) returns (predicate at x, f(x)) for an f that
    is negative at lo and positive at hi near the root, or None in place
    of f(x); f_lo and f_hi are f at the starting ends.  A step with
    f(x) = 0 ends the solve with lo = hi = x.

    When f(lo) < 0 < f(hi), a step tries the Illinois point: the root of
    the chord through both ends, where each step that keeps the same end
    as the step before halves that end's f.  The point is kept at least tol/2 inside
    the bracket, so that an end already within rounding of the root ends
    the solve one step later.  Every other step halves the bracket.  The
    predicate alone decides which end moves.  Raises ValueError when a
    step cannot shrink the bracket, which happens once it is one unit of
    working precision wide and still wider than tol."""
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
    """Perron root of a nonnegative matrix: bisection on lam over
    [0, largest row sum] with the pivot test for rho(m) < lam.  The upper end
    of the final bracket is returned, so an exact root stays exact."""
    top = max(sum(row) for row in m.entries)
    tol = mpf(10) ** (-(mp.dps - 5)) * max(1, top)
    return _bracket(lambda lam: (not _below(m, lam), None),
                    mpf(0), top, tol)[1]


@dataclass(frozen=True)
class DimensionResult:
    """Solver output: the dimension estimate, its proven bracket and the
    number of Illinois steps taken."""

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
    rho(A(lo)) >= 1 and rho(A(hi)) < 1 proven by interval elimination.

    An end within working precision of s, as at a dyadic s that a step
    hits exactly, has a pivot interval that straddles 0; such an end moves
    out by a quarter of the room left under tol and is proven again.
    Raises NumericError when that fails too.  The intervals carry 10
    digits beyond mp.dps, since the ends can sit one unit of working
    precision from s."""
    pad = (tol - (hi - lo)) / 4
    _IV.dps = mp.dps + 10
    proofs = [_below(m, 1) for m in enclose(lo, hi)]
    if proofs != [False, True] and pad > 0:
        lo -= 0 if proofs[0] is False else pad
        hi += 0 if proofs[1] is True else pad
        proofs = [_below(m, 1) for m in enclose(lo, hi)]
    if proofs != [False, True]:
        raise NumericError(f"could not prove that [{lo}, {hi}] brackets s")
    return lo, hi


def hausdorff_dimension(ifs: GraphIFS, tol: float = 1e-12) -> DimensionResult:
    """Solve rho(A(t)) = 1 on [0, 1] by Illinois steps on det(I - A(t)),
    each decided by the pivot test, and prove the final bracket by
    interval elimination; raises NumericError when the proof fails, so a
    returned bracket always holds s."""
    tol = _tol(tol)
    at, enclose = _moran(ifs)

    def decide(t):
        return _at_or_above_one(at(t))

    above, f_lo = decide(mpf(0))
    if not above:
        raise NumericError("rho(A(0)) < 1: graph violates out-degree >= 2")
    above, f_hi = decide(mpf(1))
    if above:
        raise NumericError("rho(A(1)) >= 1: level-1 intervals overfill [0,1]")
    lo, hi, iterations = _bracket(decide, mpf(0), mpf(1), tol, f_lo, f_hi)
    lo, hi = _prove(enclose, lo, hi, tol)
    return DimensionResult((lo + hi) / 2, (lo, hi), iterations)


def _char_root_estimate(a, b, c, d) -> mpf:
    """An estimate of the root of f(t) = (a^t - 1)(c^t - 1) - (bd)^t near
    working precision, with f written as exp(t log r) and the three logs
    taken once: halving [0, 1] in floats on the sign of f until the
    bracket stops shrinking, then two Newton steps in mpf (f' > 0 on
    [0, inf), as double_loop_char_root says)."""
    logs = la, lc, lbd = [mpmath.log(r) for r in (a, c, b * d)]
    fa, fc, fbd = (float(log) for log in logs)
    lo, hi = 0.0, 1.0
    while lo < (t := (lo + hi) / 2) < hi:
        if math.expm1(t * fa) * math.expm1(t * fc) < math.exp(t * fbd):
            lo = t
        else:
            hi = t
    t = mpf(t)
    for _ in range(2):
        ea, ec, ebd = (mpmath.exp(t * log) for log in logs)
        t -= (((ea - 1) * (ec - 1) - ebd)
              / (la * ea * (ec - 1) + lc * ec * (ea - 1) - lbd * ebd))
    return t


def double_loop_char_root(params: DoubleLoopParams,
                          tol: float = 1e-12) -> mpf:
    """Dimension of the double-loop family as the root on (0,1) of
    f(t) = (a^t - 1)(c^t - 1) - b^t d^t, which satisfies f(0) = -1 and
    f(1) = g_u*g_v + g_u*d + b*g_v > 0, by halving [0, 1] on the sign of f.

    f rises strictly on [0, inf): (1 - a^t)(1 - c^t) does not fall and
    (bd)^t falls.  Its terms are at most 1 there, so rounding moves the
    computed f by a few units of 2^-prec, and a computed |f| above
    2^(16-prec) has the true sign.  So when 0 < l, f(l) < -2^(16-prec)
    and f(h) > 2^(16-prec) at l, h = e -+ 2^(36-prec) around an estimate
    e of the root (2^-100 and 2^-120 at 40 digits), every t in [0, l] has
    a computed f < 0 and every t >= h a computed f > 0.  The halving then
    evaluates f only strictly between l and h: 4 evaluations of f in place
    of 42 on golden at tol 1e-12, with the same steps and the same root.
    When a check fails the fence is [0, 1] and every step evaluates f."""
    tol = _tol(tol)
    a, b = _to_mpf(params.a), _to_mpf(params.b)
    c, d = _to_mpf(params.c), _to_mpf(params.d)

    def f(t):
        return (a**t - 1) * (c**t - 1) - (b**t) * (d**t)

    if not (f(0) < 0 < f(1)):
        raise NumericError("characteristic equation lost its sign change")
    estimate = _char_root_estimate(a, b, c, d)
    delta = mpmath.ldexp(1, 36 - mp.prec)
    margin = mpmath.ldexp(1, 16 - mp.prec)
    low, high = estimate - delta, estimate + delta
    if not (0 < low and f(low) < -margin and f(high) > margin):
        low, high = mpf(0), mpf(1)

    def decide(t):
        return (t <= low or (t < high and f(t) < 0)), None

    lo, hi, _ = _bracket(decide, mpf(0), mpf(1), tol)
    return (lo + hi) / 2
