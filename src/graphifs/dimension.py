"""Hausdorff dimension of attractor components.

The dimension s is the unique t with spectral radius rho(A(t)) = 1, where
A(t) is the nonnegative matrix whose (u,v) entry sums r_e^t over the edges
u -> v.  rho is strictly decreasing in t, rho(A(0)) >= 2 (out-degree >= 2)
and rho(A(1)) < 1 (level-1 total length < 1 under the separation
condition), so bisection on [0,1] always converges.  Each step decides
rho(A(t)) < 1 without computing rho: for nonnegative A, rho(A) < lam exactly
when lam*I - A is a nonsingular M-matrix, that is when its elimination
meets only positive pivots (Berman & Plemmons, ch. 6, condition A1).  For
the two-vertex double-loop family the same s is also the root of the 2x2
characteristic equation, which serves as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import NumericError
from .families import DoubleLoopParams
from .model import GraphIFS

mp.dps = 40


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
    return _moran(ifs)(t)


def _moran(ifs: GraphIFS):
    """t -> A(t), with the vertex index and the edge ratios in working
    precision made once, for a solve that builds A(t) at many t."""
    index = {v: i for i, v in enumerate(ifs.vertices)}
    terms = [(index[e.src], index[e.dst], _to_mpf(e.map.ratio))
             for e in ifs.edges]

    def at(t: mpf) -> MoranMatrix:
        rows = [[mpf(0)] * len(index) for _ in index]
        for i, j, r in terms:
            rows[i][j] += r ** t
        return MoranMatrix(tuple(ifs.vertices), tuple(tuple(r) for r in rows))

    return at


def _below(m: MoranMatrix, lam) -> bool:
    """Whether rho(m) < lam: Gaussian elimination of lam*I - m without
    pivoting, which fails at the first pivot <= 0."""
    rows = [[(lam if i == j else 0) - x for j, x in enumerate(row)]
            for i, row in enumerate(m.entries)]
    for k, pivot_row in enumerate(rows):
        pivot = pivot_row[k]
        if pivot <= 0:
            return False
        for row in rows[k + 1:]:
            factor = row[k] / pivot
            for j in range(k + 1, m.n):
                row[j] -= factor * pivot_row[j]
    return True


def _bisect(at_or_below, lo, hi, tol):
    """Halve [lo, hi] until it is at most tol wide, keeping at_or_below
    true at lo and false at hi; returns (lo, hi, iterations).  Raises
    ValueError when a step cannot shrink the bracket, which happens once
    it is one unit of working precision wide and still wider than tol."""
    iterations = 0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        bracket = (mid, hi) if at_or_below(mid) else (lo, mid)
        if bracket == (lo, hi):
            raise ValueError("tol is below the working precision")
        lo, hi = bracket
        iterations += 1
    return lo, hi, iterations


def spectral_radius(m: MoranMatrix) -> mpf:
    """Perron root of a nonnegative matrix: bisection on lam over
    [0, largest row sum] with the pivot test for rho(m) < lam.  The upper end
    of the final bracket is returned, so an exact root stays exact."""
    top = max(sum(row) for row in m.entries)
    tol = mpf(10) ** (-(mp.dps - 5)) * max(1, top)
    return _bisect(lambda lam: not _below(m, lam), mpf(0), top, tol)[1]


@dataclass(frozen=True)
class DimensionResult:
    """Bisection output: the dimension estimate and its final bracket."""

    s: mpf
    bracket: tuple[mpf, mpf]
    iterations: int


def hausdorff_dimension(ifs: GraphIFS, tol: float = 1e-12) -> DimensionResult:
    """Solve rho(A(t)) = 1 by bisection on [0, 1]."""
    tol = _to_mpf(tol)
    if not tol > 0:
        raise ValueError("tol must be positive")
    a = _moran(ifs)
    if _below(a(mpf(0)), 1):
        raise NumericError("rho(A(0)) < 1: graph violates out-degree >= 2")
    if not _below(a(mpf(1)), 1):
        raise NumericError("rho(A(1)) >= 1: level-1 intervals overfill [0,1]")
    lo, hi, iterations = _bisect(
        lambda t: not _below(a(t), 1), mpf(0), mpf(1), tol)
    return DimensionResult((lo + hi) / 2, (lo, hi), iterations)


def double_loop_char_root(params: DoubleLoopParams,
                          tol: float = 1e-12) -> mpf:
    """Dimension of the double-loop family as the root on (0,1) of
    f(t) = (a^t - 1)(c^t - 1) - b^t d^t, which satisfies f(0) = -1 and
    f(1) = g_u*g_v + g_u*d + b*g_v > 0."""
    tol = _to_mpf(tol)
    if not tol > 0:
        raise ValueError("tol must be positive")
    a, b = _to_mpf(params.a), _to_mpf(params.b)
    c, d = _to_mpf(params.c), _to_mpf(params.d)

    def f(t):
        return (a**t - 1) * (c**t - 1) - (b**t) * (d**t)

    if not (f(0) < 0 < f(1)):
        raise NumericError("characteristic equation lost its sign change")
    lo, hi, _ = _bisect(lambda t: f(t) < 0, mpf(0), mpf(1), tol)
    return (lo + hi) / 2
