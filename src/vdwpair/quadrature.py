"""Adaptive panel quadrature over finite and semi-infinite intervals.

All integrands must accept a 1-D numpy array of abscissas and return an
array of the same shape.  A semi-infinite integral is one adaptive pass:
its range is mapped onto a finite one (x = t/(1-t), suited to
exponentially decaying integrands, or a head [0, c] kept in x followed by
the tail mapped on the scale of the cut, x = c/(1-s)), and that one panel
set is integrated with adaptive 7/15-point Gauss-Kronrod panels
(QUADPACK's qk15 pair): the 7 Gauss nodes are nested in the 15 Kronrod
nodes, the Kronrod sum is the panel value and the raw |K15 - G7|
difference is its error estimate.  The panels with the largest errors
are bisected until the summed estimate meets the one acceptance rule
err <= max(rel_tol |I|, abs_tol, 250 eps sum|panel values|); its last
term, the roundoff floor of the panel sum, is how cancelling oscillatory
and exactly-zero integrals converge.  A panel budget exhausted first
raises ``ConvergenceError``.  Panels are evaluated in vectorized batches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "QuadResult",
    "QuadSpec",
    "ConvergenceError",
    "integrate_interval",
    "integrate_mapped",
    "integrate_semiinf",
    "integrate_2d",
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
    """Tolerances and budget for one integration call.

    ``max_subdivisions`` bounds the number of panel bisections performed on
    top of the initial panelization.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-14
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")

    def tightened(self) -> "QuadSpec":
        """The spec of an inner (nested) integral: both tolerances / 10."""
        return replace(self, rel_tol=self.rel_tol / 10.0,
                       abs_tol=self.abs_tol / 10.0)


class ConvergenceError(RuntimeError):
    """Raised when the panel budget is exhausted before the tolerance is met.

    Carries the best available estimate in ``best`` and the name of the
    failing axis in ``axis``.
    """

    def __init__(self, message: str, best: QuadResult, axis: str = "x"):
        super().__init__(f"{message} (axis {axis!r})")
        self.best = best
        self.axis = axis


def _eval_panels(f, a: np.ndarray, b: np.ndarray):
    """Evaluate the Gauss-Kronrod pair on a batch of panels [a_i, b_i]."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    pts = mid[:, None] + half[:, None] * KRONROD_NODES
    y = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
    sums = (y @ _RULES) * half[:, None]
    return sums[:, 0], np.abs(sums[:, 1])


def integrate_interval(f, a, b, spec=None, breakpoints=None, axis="x"):
    """Adaptively integrate a vectorized integrand over [a, b]."""
    spec = spec or QuadSpec()
    edges = np.array([a, b], dtype=float)
    if breakpoints is not None:
        p = np.asarray(breakpoints, dtype=float)
        edges = np.concatenate([edges, p[(p > a) & (p < b)]])
    edges = np.unique(edges)
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _eval_panels(f, lo, hi)
    evals = _N_NODES * lo.size
    max_panels = lo.size + spec.max_subdivisions

    eps = float(np.finfo(float).eps)
    while True:
        total = float(vals.sum())
        err_total = float(errs.sum())
        # Oscillatory integrands with strong cancellation cannot converge
        # below the roundoff floor of the panel sum; accept once the
        # estimate reaches it (the estimate is still reported truthfully).
        noise_floor = 250.0 * eps * float(np.abs(vals).sum())
        tol = max(spec.rel_tol * abs(total), spec.abs_tol, noise_floor)
        if err_total <= tol:
            return QuadResult(total, err_total, evals)
        if lo.size >= max_panels:
            raise ConvergenceError(
                f"quadrature did not converge: error {err_total:.3e} > tol {tol:.3e} "
                f"with {lo.size} panels",
                best=QuadResult(total, err_total, evals),
                axis=axis,
            )
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
        new_vals, new_errs = _eval_panels(f, np.concatenate([sa, sm]),
                                          np.concatenate([sm, sb]))
        evals += _N_NODES * 2 * sa.size
        vals = np.concatenate([vals[~mask], new_vals])
        errs = np.concatenate([errs[~mask], new_errs])
        lo, hi = new_lo, new_hi


def _forward_map(t):
    """x = t/(1-t) and its Jacobian, mapping [0, 1) onto [0, inf)."""
    return t / (1.0 - t), 1.0 / (1.0 - t) ** 2


def integrate_mapped(f, spec=None, panels=8, axis="x"):
    """Integrate a vectorized integrand over [0, inf) through x = t/(1-t),
    starting from ``panels`` equal panels of t in [0, 1).

    The panels suit an integrand on the scale x ~ 1; callers rescale their
    variable to it.  Eight panels (x edges 1/7, 1/3, 3/5, 1, 5/3, 3, 7)
    are the default of ``integrate_semiinf``; a caller whose integrand
    costs far more per node than a refinement round may start from fewer.
    """
    def g(t):
        x, jac = _forward_map(t)
        return np.asarray(f(x), dtype=float) * jac

    return integrate_interval(g, 0.0, 1.0, spec=spec,
                              breakpoints=np.arange(1, panels) / panels,
                              axis=axis)


def integrate_semiinf(f, spec=None, breakpoints=None, axis="x"):
    """Integrate a vectorized integrand over [0, inf) in one adaptive pass.

    Without breakpoints this is ``integrate_mapped`` from 8 panels.

    ``breakpoints`` are abscissas (in the original variable) at which the
    initial panelization is split; supplying the integrand's oscillation
    scales here makes the adaptive refinement start from a grid that
    already resolves them.  With breakpoints, the head [0, c], c =
    max(breakpoints), stays in the original variable (the compactifying
    map loses floating-point phase resolution at large abscissas, which
    matters for oscillatory integrands) and the tail is mapped by
    x = c/(1-s), s = t - c in [0, 1), on the scale of the cut: s = t - c
    is rounded to ulp(c), which a tail on the scale 1 (x = c + s/(1-s))
    turns into node errors of order ulp(c)/(1-s)^2.  Head and tail panels
    form one panel set on t in [0, c + 1) with one acceptance test, one
    panel budget and one error estimate.
    """
    breaks = np.asarray([] if breakpoints is None else breakpoints, dtype=float)
    breaks = np.sort(breaks[breaks > 0])
    if not breaks.size:
        return integrate_mapped(f, spec, axis=axis)

    cut = float(breaks[-1])

    def g(t):
        # s = 0 on the head, where x = t and the Jacobian is 1; on the tail
        # x = c + c s/(1-s) = c/(1-s)
        x, jac = _forward_map(np.maximum(t - cut, 0.0))
        scale = np.where(t > cut, cut, 1.0)
        return np.asarray(f(np.minimum(t, cut) + scale * x),
                          dtype=float) * (scale * jac)

    return integrate_interval(g, 0.0, cut + 1.0, spec=spec,
                              breakpoints=breaks, axis=axis)


def integrate_2d(f, spec=None, breakpoints_x=None, breakpoints_y=None):
    """Iterated integral of f(x, y) over [0, inf)^2.

    The inner (y) integral is run at ``spec.tightened()``.  f is called
    with a scalar x and an array of y values.
    """
    spec = spec or QuadSpec()
    inner_spec = spec.tightened()
    inner_evals = [0]

    def outer(xs):
        out = np.empty_like(xs)
        for i, x in enumerate(xs):
            r = integrate_semiinf(
                lambda y: f(x, y), inner_spec, breakpoints=breakpoints_y, axis="y"
            )
            inner_evals[0] += r.evaluations
            out[i] = r.value
        return out

    res = integrate_semiinf(outer, spec, breakpoints=breakpoints_x, axis="x")
    return QuadResult(res.value, res.abs_error_estimate, inner_evals[0])
