"""Adaptive quadrature over [0, inf).

All integrands must accept a 1-D numpy array of abscissas and return an
array of the same shape.  Two engines share one acceptance rule,
err <= max(rel_tol |I|, abs_tol, 250 eps sum|terms|), whose last term,
the roundoff floor of the sum (summed only when the others do not
accept), is how cancelling oscillatory and exactly-zero integrals
converge; an integral that cannot meet it raises ``ConvergenceError``
(both in ``_unmet_tolerance``).

``integrate_mapped`` is a nested ladder for integrands that cost far more
per node than a quadrature round (the finite-medium frequency integrals):
Fejer's second rule on t in (0, 1), x = t/(1-t), at n - 1 = 15, 31, 63,
..., 1023 nodes, with nodes t_k = (1 - cos k pi/n)/2 and closed-form
weights (Waldvogel, BIT 46, 195 (2006); Trefethen, SIAM Rev. 50, 67
(2008)).  Each level evaluates only its n/2 new nodes (odd k), returns
Q_n with the estimate |Q_n - Q_{n/2}| and accepts by the rule above, so
the 15-node level is never accepted alone and the node count follows the
tolerance; the 1023-node level raises.

The panel engine, ``integrate_semiinf``, handles everything else.  An
integral is one adaptive pass: [0, inf) is mapped onto a finite range
(x = t/(1-t) on 8 equal panels, suited to exponentially decaying
integrands, or a head [0, c] kept in x followed by the tail mapped on the
scale of the cut, x = c/(1-s)), and that one panel set is integrated with
adaptive 7/15-point Gauss-Kronrod panels (QUADPACK's qk15 pair): the 7
Gauss nodes are nested in the 15 Kronrod nodes, the Kronrod sum is the
panel value and the raw |K15 - G7| difference is its error estimate.
The panels with the largest errors are bisected until the summed
estimate meets the rule.  A panel budget of max(200, n/2) bisections on
top of the n first panels, exhausted first, raises.  Panels are
evaluated in vectorized batches.

An integral's first panel set (edges, half widths, nodes x, weights
w = dx/dt, map) depends only on its breakpoint values: it is built once,
kept as read-only arrays in a cache of the two most recently used sets,
and its first round is f(x) w, one matmul and one scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadResult",
    "QuadSpec",
    "ConvergenceError",
    "integrate_mapped",
    "integrate_semiinf",
]

# Kronrod nodes on [-1, 1] and their weights (Piessens et al., QUADPACK,
# qk15); every second node, starting at the second, is a 7-point Gauss node.
_XK_HALF = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_WK_HALF = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_WK_MID = 0.209482141084727828012999174891714
_WG_HALF = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
])
_WG_MID = 0.417959183673469387755102040816327

KRONROD_NODES = np.concatenate([-_XK_HALF, [0.0], _XK_HALF[::-1]])
KRONROD_WEIGHTS = np.concatenate([_WK_HALF, [_WK_MID], _WK_HALF[::-1]])
# The 7-point Gauss weights on the same 15 nodes (zero at Kronrod-only ones).
GAUSS_WEIGHTS = np.zeros(15)
GAUSS_WEIGHTS[1::2] = np.concatenate([_WG_HALF, [_WG_MID], _WG_HALF[::-1]])
_N_NODES = KRONROD_NODES.size
# Columns: Kronrod sum, Kronrod minus Gauss.
_RULES = np.stack([KRONROD_WEIGHTS, KRONROD_WEIGHTS - GAUSS_WEIGHTS], axis=1)
# Relative roundoff floor of a sum (see the module docstring).
_ROUNDOFF = 250.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class QuadResult:
    """Integral value with an absolute error estimate and evaluation count."""

    value: float
    abs_error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.abs_error_estimate < 0:
            raise ValueError("abs_error_estimate must be >= 0")
        if self.evaluations < 1:
            raise ValueError("evaluations must be >= 1")


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances for one integration call."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-14

    def __post_init__(self):
        # "not > 0" also turns away NaN, which every comparison fails.
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")

    def tightened(self) -> "QuadSpec":
        """The spec of an inner (nested) integral: both tolerances / 10."""
        return QuadSpec(self.rel_tol / 10.0, self.abs_tol / 10.0)


class ConvergenceError(RuntimeError):
    """Raised when an engine's budget is exhausted before the tolerance is met.

    Carries the best available estimate in ``best`` and the name of the
    failing axis in ``axis``.
    """

    def __init__(self, message: str, best: QuadResult, axis: str = "x"):
        super().__init__(f"{message} (axis {axis!r})")
        self.best = best
        self.axis = axis


def _nodes(lo, hi, cut: float, scale: float):
    """Half widths (a column), nodes x and weights w = dx/dt (a row of 15
    per panel) of the panels [lo_i, hi_i] of t: x = t up to the cut and
    x = cut + scale s/(1-s), s = t - cut, beyond it."""
    half = 0.5 * (hi - lo)[:, None]
    t = ((0.5 * (lo + hi))[:, None] + half * KRONROD_NODES).ravel()
    x, w = t.copy(), np.ones_like(t)
    tail = t > cut
    s = t[tail] - cut
    x[tail] = cut + scale * (s / (1.0 - s))
    w[tail] = scale * (1.0 / (1.0 - s) ** 2)
    return half, x, w.reshape(lo.size, _N_NODES)


@lru_cache(maxsize=2)
def _first_panels(breakpoints: bytes):
    """Read-only edges lo, hi and ``_nodes`` of the first panels of an
    integral over [0, inf), split at the positive ``breakpoints`` (float64
    bytes, any order; non-positive and NaN entries are ignored), then the
    map's cut and scale.  With a largest positive breakpoint c, x = t up
    to c and t in [c, c + 1) maps by x = c + c s/(1-s); without one,
    x = t/(1-t) maps t in [0, 1) from 8 equal panels."""
    p = np.frombuffer(breakpoints)
    cut = float(p.max(where=p > 0.0, initial=0.0))
    if cut > 0.0:
        b, scale = cut + 1.0, cut
    else:
        b, scale, p = 1.0, 1.0, np.arange(1, 8) / 8.0
    edges = np.concatenate([[0.0, b], p[(p > 0.0) & (p < b)]])
    # np.unique without its overhead: sorted, repeats dropped.
    edges.sort()
    edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    nodes = (edges[:-1], edges[1:], *_nodes(edges[:-1], edges[1:], cut,
                                            scale))
    for arr in nodes:
        arr.flags.writeable = False
    return (*nodes, cut, scale)


def _panel_sums(f, half, x, w):
    """The Gauss-Kronrod pair of f(x) w on panels of half widths ``half``."""
    sums = (np.asarray(f(x), dtype=float).reshape(w.shape) * w @ _RULES) \
        * half
    return sums[:, 0], np.abs(sums[:, 1])


def _unmet_tolerance(spec: QuadSpec, total: float, err: float, terms,
                     evals: int, size: int, limit: int, unit: str,
                     axis: str) -> float | None:
    """None if ``err`` meets the rule of the module docstring (its floor
    summed only when rel_tol |total| and abs_tol do not accept), else the
    tolerance it misses, or ``ConvergenceError`` at ``size`` >= ``limit``
    panels or nodes (``unit``)."""
    tol = max(spec.rel_tol * abs(total), spec.abs_tol)
    if err > tol:
        tol = max(tol, _ROUNDOFF * float(np.abs(terms).sum()))
    if err <= tol:
        return None
    if size >= limit:
        raise ConvergenceError(
            f"quadrature did not converge: error {err:.3e} > tol {tol:.3e} "
            f"with {size} {unit}", best=QuadResult(total, err, evals),
            axis=axis)
    return tol


# n of the levels of ``integrate_mapped``: n - 1 = 15, 31, ..., 1023 nodes.
_LADDER = tuple(2**k for k in range(4, 11))


@lru_cache(maxsize=None)
def _fejer_level(n: int):
    """Read-only new nodes x (odd k; every k at the first level) and the
    weights of all n - 1 nodes, dx/dt included, of Fejer's second rule on
    t in (0, 1), x = t/(1-t): t_k = sin^2(theta_k/2), theta_k = k pi/n,
    w_k = (2/n) sin theta_k sum_{j <= n/2} sin((2j-1) theta_k)/(2j-1) on
    (0, 1), and dx/dt = (1 + x)^2."""
    theta = np.arange(1, n) * (np.pi / n)
    odd = np.arange(1, n, 2)
    w = (2.0 / n) * np.sin(theta) * (np.sin(np.outer(theta, odd))
                                     @ (1.0 / odd))
    x = np.tan(0.5 * theta) ** 2
    w *= (1.0 + x) ** 2
    new = x if n == _LADDER[0] else x[::2]
    for arr in (new, w):
        arr.flags.writeable = False
    return new, w


def integrate_mapped(f, spec=None, axis="x"):
    """Integrate a vectorized integrand over [0, inf) through x = t/(1-t)
    on the nested Fejer ladder of the module docstring.

    The levels suit an integrand on the scale x ~ 1 that decays
    exponentially; callers rescale their variable to it.  ``f`` gets the
    15 nodes of the first level, then the n/2 new nodes of each next level
    in increasing order, so every integral hands ``f`` the same node array
    at the same level.
    """
    spec = spec or QuadSpec()
    x, w = _fejer_level(_LADDER[0])
    fx = np.asarray(f(x), dtype=float)
    prev = float((w * fx).sum())
    for n in _LADDER[1:]:
        x, w = _fejer_level(n)
        fx, old = np.empty(n - 1), fx
        fx[::2], fx[1::2] = np.asarray(f(x), dtype=float), old
        terms = w * fx
        total = float(terms.sum())
        err = abs(total - prev)
        if _unmet_tolerance(spec, total, err, terms, n - 1, n - 1,
                            _LADDER[-1] - 1, "nodes", axis) is None:
            return QuadResult(total, err, n - 1)
        prev = total


def integrate_semiinf(f, spec=None, breakpoints=None, axis="x"):
    """Integrate a vectorized integrand over [0, inf) in one adaptive pass.

    Without a positive breakpoint the panels are x = t/(1-t) on 8 equal
    panels of t in [0, 1) (x edges 1/7, 1/3, 3/5, 1, 5/3, 3, 7), which
    suit an integrand on the scale x ~ 1.  ``breakpoints`` are abscissas
    (in the original variable, in any order; non-positive and NaN entries
    are ignored) at which the first panels are split; supplying the
    integrand's oscillation scales here makes the adaptive refinement
    start from a grid that already resolves them.  With breakpoints, the
    head [0, c], c = max(breakpoints), stays in the original variable
    (the compactifying map loses floating-point phase resolution at large
    abscissas, which matters for oscillatory integrands) and the tail is
    mapped by x = c/(1-s), s = t - c in [0, 1), on the scale of the cut:
    s = t - c is rounded to ulp(c), which a tail on the scale 1
    (x = c + s/(1-s)) turns into node errors of order ulp(c)/(1-s)^2.
    Head and tail panels form one panel set on t in [0, c + 1) with one
    acceptance test, one panel budget and one error estimate.
    """
    spec = spec or QuadSpec()
    p = np.asarray([] if breakpoints is None else breakpoints, dtype=float)
    lo, hi, *first, cut, scale = _first_panels(p.tobytes())
    vals, errs = _panel_sums(f, *first)
    evals = _N_NODES * lo.size
    max_panels = lo.size + max(200, lo.size // 2)

    while True:
        total, err_total = float(vals.sum()), float(errs.sum())
        tol = _unmet_tolerance(spec, total, err_total, vals, evals, lo.size,
                               max_panels, "panels", axis)
        if tol is None:
            return QuadResult(total, err_total, evals)
        # Split every panel whose error exceeds its equal share of the
        # budget; always include the worst offender.
        mask = errs > tol / (2.0 * lo.size)
        mask[np.argmax(errs)] = True
        room = max_panels - lo.size
        if int(mask.sum()) > room:
            keep = np.argsort(errs[mask])[::-1][:room]
            idx = np.flatnonzero(mask)[keep]
            mask = np.zeros_like(mask)
            mask[idx] = True
        sa, sb = lo[mask], hi[mask]
        sm = 0.5 * (sa + sb)
        new_lo = np.concatenate([lo[~mask], sa, sm])
        new_hi = np.concatenate([hi[~mask], sm, sb])
        new_vals, new_errs = _panel_sums(f, *_nodes(
            np.concatenate([sa, sm]), np.concatenate([sm, sb]), cut, scale))
        evals += _N_NODES * 2 * sa.size
        vals = np.concatenate([vals[~mask], new_vals])
        errs = np.concatenate([errs[~mask], new_errs])
        lo, hi = new_lo, new_hi
