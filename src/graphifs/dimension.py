"""Hausdorff dimension of attractor components.

The dimension s is the unique t with spectral radius rho(A(t)) = 1, where
A(t) is the nonnegative matrix whose (u,v) entry sums r_e^t over the edges
u -> v.  rho is strictly decreasing in t, rho(A(0)) >= 2 (out-degree >= 2)
and rho(A(1)) < 1 (level-1 total length < 1 under the separation
condition), so bisection on [0,1] always converges.  For the two-vertex
double-loop family the same s is also the root of the 2x2 characteristic
equation, which serves as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import NumericError
from .families import DoubleLoopParams
from .model import GraphIFS

mp.dps = 40

_POWER_ITERATION_CAP = 10**5


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
    index = {v: i for i, v in enumerate(ifs.vertices)}
    n = len(ifs.vertices)
    rows = [[mpf(0)] * n for _ in range(n)]
    for e in ifs.edges:
        rows[index[e.src]][index[e.dst]] += _to_mpf(e.map.ratio) ** t
    return MoranMatrix(tuple(ifs.vertices), tuple(tuple(r) for r in rows))


def spectral_radius(m: MoranMatrix) -> mpf:
    """Perron root of a nonnegative irreducible matrix.

    Power iteration is run on A + I (primitive whenever A is irreducible,
    so the Rayleigh quotient cannot oscillate on periodic matrices such as
    loop-free two-vertex systems) and 1 is subtracted at the end.
    """
    n = m.n
    shifted = [[m.entries[i][j] + (1 if i == j else 0) for j in range(n)]
               for i in range(n)]
    vec = [mpf(1)] * n
    tol = mpf(10) ** (-(mp.dps - 5))
    prev = mpf(0)
    for _ in range(_POWER_ITERATION_CAP):
        nxt = [sum(shifted[i][j] * vec[j] for j in range(n)) for i in range(n)]
        rayleigh = (sum(nxt[i] * vec[i] for i in range(n))
                    / sum(vec[i] * vec[i] for i in range(n)))
        norm = max(nxt)
        if norm == 0:
            raise NumericError("power iteration collapsed to zero")
        vec = [x / norm for x in nxt]
        if abs(rayleigh - prev) < tol:
            return rayleigh - 1
        prev = rayleigh
    raise NumericError(
        f"power iteration did not converge in {_POWER_ITERATION_CAP} steps")


@dataclass(frozen=True)
class DimensionResult:
    """Bisection output: the dimension estimate and its final bracket."""

    s: mpf
    bracket: tuple[mpf, mpf]
    iterations: int


def hausdorff_dimension(ifs: GraphIFS, tol: float = 1e-12) -> DimensionResult:
    """Solve rho(A(t)) = 1 by bisection on [0, 1]."""
    tol = _to_mpf(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    lo, hi = mpf(0), mpf(1)
    if spectral_radius(moran_matrix(ifs, lo)) < 1:
        raise NumericError("rho(A(0)) < 1: graph violates out-degree >= 2")
    if spectral_radius(moran_matrix(ifs, hi)) >= 1:
        raise NumericError("rho(A(1)) >= 1: level-1 intervals overfill [0,1]")
    iterations = 0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if spectral_radius(moran_matrix(ifs, mid)) >= 1:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return DimensionResult((lo + hi) / 2, (lo, hi), iterations)


def double_loop_char_root(params: DoubleLoopParams,
                          tol: float = 1e-12) -> mpf:
    """Dimension of the double-loop family as the root on (0,1) of
    f(t) = (a^t - 1)(c^t - 1) - b^t d^t, which satisfies f(0) = -1 and
    f(1) = g_u*g_v + g_u*d + b*g_v > 0."""
    tol = _to_mpf(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    a, b = _to_mpf(params.a), _to_mpf(params.b)
    c, d = _to_mpf(params.c), _to_mpf(params.d)

    def f(t):
        return (a**t - 1) * (c**t - 1) - (b**t) * (d**t)

    lo, hi = mpf(0), mpf(1)
    if not (f(lo) < 0 < f(hi)):
        raise NumericError("characteristic equation lost its sign change")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2
