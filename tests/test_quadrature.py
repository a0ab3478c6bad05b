"""Adaptive semi-infinite quadrature engine."""

import re

import numpy as np
import pytest

from vdwpair.quadrature import (
    _first_panels,
    ConvergenceError,
    QuadResult,
    QuadSpec,
    GAUSS_WEIGHTS,
    KRONROD_NODES,
    KRONROD_WEIGHTS,
    integrate_mapped,
    integrate_semiinf,
)
from vdwpair.validate import integrate_2d

# (integrand, exact value) reference suite; every integrand decays
# exponentially, matching the engine's intended workload.
SUITE = [
    (lambda x: np.exp(-x), 1.0),
    (lambda x: x**3 * np.exp(-x), 6.0),
    # kernels of the retarded free-space coefficient: the undamped
    # polynomial integrates to 23/4, the full kernel to 23/2
    (lambda x: np.exp(-2.0 * x)
     * (3.0 + 6.0 * x + 5.0 * x**2 + 2.0 * x**3 + x**4), 23.0 / 4.0),
    (lambda x: 2.0 * np.exp(-2.0 * x)
     * (3.0 + 6.0 * x + 5.0 * x**2 + 2.0 * x**3 + x**4), 23.0 / 2.0),
    (lambda x: np.exp(-x) * np.cos(3.0 * x), 0.1),
]


def fejer_second_rule(n):
    """Nodes x and weights (dx/dt included) of Fejer's second rule with
    n - 1 nodes on t in (0, 1), x = t/(1-t), built apart from the engine:
    t_k = (1 - cos k pi/n)/2, and weights that integrate the Chebyshev
    polynomials T_0 ... T_{n-2} on [-1, 1] exactly (y = 2t - 1)."""
    t = (1.0 - np.cos(np.arange(1, n) * np.pi / n)) / 2.0
    j = np.arange(n - 1)
    moments = np.zeros(n - 1)
    moments[::2] = 2.0 / (1.0 - j[::2] ** 2.0)
    chebyshev = np.cos(np.outer(j, np.arccos(2.0 * t - 1.0)))
    w = np.linalg.solve(chebyshev, moments) / 2.0
    return t / (1.0 - t), w / (1.0 - t) ** 2


class TestTypes:
    def test_quadresult_invariants(self):
        with pytest.raises(ValueError):
            QuadResult(1.0, -1e-3, 10)
        with pytest.raises(ValueError):
            QuadResult(1.0, 0.0, 0)

    def test_quadspec_invariants(self):
        with pytest.raises(ValueError):
            QuadSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadSpec(abs_tol=-1.0)

    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
    def test_quadspec_rejects_nan_tolerance(self, field):
        # NaN fails every comparison, so a "<= 0" check lets it through.
        with pytest.raises(ValueError, match="tolerances"):
            QuadSpec(**{field: float("nan")})

    def test_tightened(self):
        spec = QuadSpec(rel_tol=1e-6, abs_tol=1e-12)
        tight = spec.tightened()
        assert tight.rel_tol == pytest.approx(1e-7)
        assert tight.abs_tol == pytest.approx(1e-13)


class TestGaussKronrodRule:
    @staticmethod
    def moment(weights, k):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        return abs(weights @ KRONROD_NODES**k - exact)

    def test_kronrod_exact_through_degree_22(self):
        for k in range(23):
            assert self.moment(KRONROD_WEIGHTS, k) < 1e-15, k

    def test_gauss_exact_through_degree_13(self):
        for k in range(14):
            assert self.moment(GAUSS_WEIGHTS, k) < 1e-15, k
        assert self.moment(GAUSS_WEIGHTS, 14) > 1e-6

    def test_gauss_nodes_nested(self):
        # the 7 Gauss-Legendre nodes are every second Kronrod node
        gauss_nodes, _ = np.polynomial.legendre.leggauss(7)
        assert np.flatnonzero(GAUSS_WEIGHTS).tolist() == list(range(1, 15, 2))
        assert np.allclose(KRONROD_NODES[1::2], gauss_nodes, rtol=0,
                           atol=1e-15)


class TestSemiInfinite:
    @pytest.mark.parametrize("f,exact", SUITE)
    def test_suite_values_and_error_bounds(self, f, exact):
        res = integrate_semiinf(f, QuadSpec(rel_tol=1e-10))
        assert res.value == pytest.approx(exact, rel=1e-9)
        assert abs(res.value - exact) <= max(res.abs_error_estimate, 5e-14)
        assert res.evaluations >= 1

    def test_breakpoints_help_sharp_features(self):
        # narrow bump at x = 40, invisible to the default panelization
        f = lambda x: np.exp(-((x - 40.0) / 0.05) ** 2)
        exact = 0.05 * np.sqrt(np.pi)
        res = integrate_semiinf(f, QuadSpec(rel_tol=1e-9),
                                breakpoints=[39.5, 40.0, 40.5, 60.0])
        assert res.value == pytest.approx(exact, rel=1e-8)

    def test_convergence_error_carries_best(self):
        f = lambda x: np.cos(50.0 * x) * np.exp(-0.01 * x)
        with pytest.raises(ConvergenceError) as info:
            integrate_semiinf(f, QuadSpec(rel_tol=1e-12, abs_tol=1e-22),
                              axis="q")
        assert info.value.axis == "q"
        assert isinstance(info.value.best, QuadResult)

    def test_convergence_error_best_is_the_whole_integral(self):
        # the budget runs out (the tail's (1 - s)^-1/2 end point takes more
        # than 200 bisections to 1e-14) with head and tail on one panel set,
        # so the best estimate covers [0, inf), not the head [0, 8] alone
        with pytest.raises(ConvergenceError) as info:
            integrate_semiinf(lambda x: (1.0 + x) ** -1.5,
                              QuadSpec(rel_tol=1e-14),
                              breakpoints=[1.0, 2.0, 4.0, 8.0])
        best = info.value.best
        assert abs(best.value - 2.0) <= best.abs_error_estimate

    def test_breakpointed_integral_is_one_pass(self):
        # head panels and the mapped tail are evaluated in one batch, and
        # this first grid already meets the tolerance
        calls = []

        def f(q):
            calls.append(q.size)
            return q * np.exp(-q)

        res = integrate_semiinf(f, QuadSpec(rel_tol=1e-8),
                                breakpoints=[0.5, 1, 2, 5, 10, 20, 45])
        assert res.value == pytest.approx(1.0, rel=1e-8)
        assert len(calls) == 1
        assert res.evaluations == calls[0] == 15 * 8

    def test_no_breakpoints_keep_the_unit_interval_map(self):
        # the first call's nodes are x = t/(1-t) at the 15 Gauss-Kronrod
        # nodes of each of 32 equal panels of t in [0, 1), bitwise
        calls = []

        def f(x):
            calls.append(np.array(x))
            return SUITE[2][0](x)

        integrate_semiinf(f, QuadSpec(rel_tol=1e-10))
        edges = np.arange(33) / 32.0
        half = (edges[1:] - edges[:-1])[:, None] / 2.0
        t = ((edges[:-1] + edges[1:])[:, None] / 2.0
             + half * KRONROD_NODES).ravel()
        np.testing.assert_array_equal(calls[0], t / (1.0 - t))

    @pytest.mark.parametrize("cut", [1e4, 1e6, 1e8])
    def test_tail_mapped_on_the_scale_of_the_cut(self, cut):
        # the tail beyond a large last breakpoint c lives on the scale c;
        # mapped on the scale 1 (x = c + s/(1-s)) its nodes lose about
        # log2(c) bits, which left this integral off by 3.9e-12 at c = 1e6
        res = integrate_semiinf(lambda x: (1.0 + x) ** -2.0,
                                QuadSpec(rel_tol=1e-10),
                                breakpoints=[1.0, cut])
        assert abs(res.value - 1.0) <= 1e-15

    @pytest.mark.parametrize("cut", [1e15, 1e17])
    def test_tail_panel_too_narrow_for_its_nodes_is_rejected(self, cut):
        # at 1e15, s = t - c of the last tail node rounds to 1 (x = inf and
        # a NaN error estimate); at 1e17, c + 1 == c and no tail panel is
        # left, so the integral of e^{-x} would read 0
        with pytest.raises(ValueError,
                           match=re.escape(f"breakpoint {cut!r}")):
            integrate_semiinf(lambda x: np.exp(-x), breakpoints=[cut])


class TestFirstRound:
    """A first round that meets the tolerance returns the Gauss-Kronrod
    sums of its panels: the Kronrod value and the estimate
    sum |K15 - G7|, here summed apart from the engine."""

    @staticmethod
    def panel_sums(f, edges, cut, scale):
        """Kronrod and Gauss sums of f on the panels of t between
        ``edges``, x = t up to the cut and x = cut + scale s/(1-s),
        s = t - cut, beyond it."""
        half = np.diff(edges)[:, None] / 2.0
        t = (edges[:-1] + edges[1:])[:, None] / 2.0 + half * KRONROD_NODES
        s = np.clip(t - cut, 0.0, None)
        x = np.where(t > cut, cut + scale * s / (1.0 - s), t)
        dx_dt = np.where(t > cut, scale / (1.0 - s) ** 2, 1.0)
        y = f(x) * dx_dt * half
        return y @ KRONROD_WEIGHTS, y @ GAUSS_WEIGHTS

    @pytest.mark.parametrize("breakpoints,edges,cut,scale", [
        (None, np.arange(33) / 32.0, 0.0, 1.0),
        ([20.0, 0.5, 1.0, 2.0, 45.0, 5.0, 10.0],
         np.array([0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 45.0, 46.0]),
         45.0, 45.0)], ids=["mapped", "breakpoints"])
    def test_one_round_is_the_gauss_kronrod_sum(self, breakpoints, edges,
                                                cut, scale):
        calls = []
        integrand = lambda x: x * np.exp(-x)

        def f(x):
            calls.append(x.size)
            return integrand(x)

        res = integrate_semiinf(f, QuadSpec(rel_tol=1e-7),
                                breakpoints=breakpoints)
        assert calls == [15 * (edges.size - 1)]
        kronrod, gauss = self.panel_sums(integrand, edges, cut, scale)
        ulps = 4.0 * np.finfo(float).eps * np.abs(kronrod).sum()
        assert abs(res.value - kronrod.sum()) <= ulps
        assert abs(res.abs_error_estimate
                   - np.abs(kronrod - gauss).sum()) <= ulps

    @pytest.mark.parametrize("breakpoints", [None, [8.0]])
    def test_a_missed_first_round_refines_to_the_closed_form(self,
                                                              breakpoints):
        # e^{-x} cos(10 x) integrates to 1/101; neither first panel set
        # resolves the oscillation to rel_tol 1e-10
        calls = []

        def f(x):
            calls.append(x.size)
            return np.exp(-x) * np.cos(10.0 * x)

        res = integrate_semiinf(f, QuadSpec(rel_tol=1e-10),
                                breakpoints=breakpoints)
        assert len(calls) > 1
        assert res.value == pytest.approx(1.0 / 101.0, rel=1e-10)
        assert abs(res.value - 1.0 / 101.0) <= res.abs_error_estimate


class TestMapped:
    """The nested Fejer ladder of ``integrate_mapped``: 15, 31, 63, ...
    nodes, each level evaluating only its new nodes."""

    @pytest.mark.parametrize("f,exact", SUITE)
    def test_four_panels_meet_rel_tol(self, f, exact):
        res = integrate_mapped(f, QuadSpec(rel_tol=1e-10))
        assert res.value == pytest.approx(exact, rel=1e-9)

    def test_levels_are_nested(self):
        calls = []

        def f(x):
            calls.append(np.array(x))
            return np.exp(-x) * np.cos(3.0 * x)

        res = integrate_mapped(f, QuadSpec(rel_tol=1e-10))
        assert [c.size for c in calls] == [15] + [
            16 * 2**k for k in range(len(calls) - 1)]
        assert len(calls) >= 3
        seen = np.concatenate(calls)
        assert np.unique(seen).size == seen.size
        assert res.evaluations == sum(c.size for c in calls) == seen.size
        # each level's new nodes interleave with the old ones
        for k in range(1, len(calls)):
            old = np.sort(np.concatenate(calls[:k]))
            assert np.all(calls[k][:-1] < old) and np.all(old < calls[k][1:])

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("f,exact", SUITE)
    def test_estimate_bounds_the_true_error(self, f, exact, rel_tol):
        res = integrate_mapped(f, QuadSpec(rel_tol=rel_tol))
        assert abs(res.value - exact) <= res.abs_error_estimate
        assert res.abs_error_estimate <= rel_tol * abs(res.value)

    @pytest.mark.parametrize("f,exact", SUITE)
    def test_value_and_estimate_are_the_last_two_levels(self, f, exact):
        # Q_n and |Q_n - Q_{n/2}| of an independently built rule, up to
        # roundoff; at rel_tol 1e-6 the estimate is 1e-10 to 2e-7
        res = integrate_mapped(f, QuadSpec(rel_tol=1e-6))
        n = res.evaluations + 1
        x, w = fejer_second_rule(n)
        terms = w * f(x)
        x, w = fejer_second_rule(n // 2)
        q_n, q_half = terms.sum(), w @ f(x)
        roundoff = 50 * np.finfo(float).eps * np.abs(terms).sum()
        assert abs(res.value - q_n) <= roundoff
        assert abs(res.abs_error_estimate - abs(q_n - q_half)) <= roundoff

    def test_cancelling_integrand_accepted_at_roundoff_floor(self):
        # e^-x (1 - x) integrates to 0: neither rel_tol |I| nor abs_tol
        # accepts its estimate, only the roundoff floor of the terms
        f = lambda x: np.exp(-x) * (1.0 - x)
        spec = QuadSpec(abs_tol=1e-300)
        res = integrate_mapped(f, spec)
        x, w = fejer_second_rule(res.evaluations + 1)
        assert res.abs_error_estimate > max(spec.rel_tol * abs(res.value),
                                            spec.abs_tol)
        assert res.abs_error_estimate \
            <= 250 * np.finfo(float).eps * np.abs(w * f(x)).sum()

    def test_first_level_is_never_accepted_alone(self):
        # (1 + x)^-2 dx is dt: every level integrates it exactly, but the
        # first one has no estimate
        res = integrate_mapped(lambda x: (1.0 + x) ** -2.0,
                               QuadSpec(rel_tol=1e-3))
        assert res.evaluations == 31
        assert res.value == pytest.approx(1.0, rel=1e-15)

    def test_top_level_raises_with_axis_and_best(self):
        # a period of 2 pi/50 against an e^-0.01x envelope: the mapped
        # integrand oscillates without bound as t -> 1
        calls = []

        def f(x):
            calls.append(x.size)
            return np.cos(50.0 * x) * np.exp(-0.01 * x)

        with pytest.raises(ConvergenceError) as info:
            integrate_mapped(f, QuadSpec(rel_tol=1e-12, abs_tol=1e-22),
                             axis="u")
        assert info.value.axis == "u"
        best = info.value.best
        assert isinstance(best, QuadResult)
        assert best.evaluations == sum(calls) == 1023
        assert best.abs_error_estimate > 1e-12 * abs(best.value)

    def test_integrand_cannot_write_into_the_cached_nodes(self):
        def f(x):
            x[0] = 0.0
            return x

        with pytest.raises(ValueError, match="read-only"):
            integrate_mapped(f)


class TestInterval:
    """A finite interval [0, c] is the integral over [0, inf) of an
    integrand that vanishes beyond the last breakpoint c."""

    def test_polynomial_exact(self):
        res = integrate_semiinf(lambda x: np.where(x < 3.0, x**2, 0.0),
                                breakpoints=[3.0])
        assert res.value == pytest.approx(9.0, rel=1e-12)

    def test_oscillatory(self):
        res = integrate_semiinf(lambda x: np.where(x < 20.0, np.sin(x), 0.0),
                                QuadSpec(rel_tol=1e-10),
                                breakpoints=list(np.arange(1.0, 21.0)))
        assert res.value == pytest.approx(1.0 - np.cos(20.0), rel=1e-9)

    def test_infinite_upper_limit_maps_the_tail_beyond_the_last_breakpoint(
            self):
        res = integrate_semiinf(lambda x: np.where(x > 1.0, np.exp(-x), 0.0),
                                QuadSpec(rel_tol=1e-10),
                                breakpoints=[1.0, 2.0, 4.0])
        assert res.value == pytest.approx(np.exp(-1.0), rel=1e-10)


class TestAcceptanceRule:
    """A result is returned only when its estimate meets
    max(rel_tol |I|, abs_tol, roundoff floor); otherwise the engine raises."""

    def test_repeated_breakpoints_meet_rel_tol(self):
        spec = QuadSpec(rel_tol=1e-8)
        res = integrate_semiinf(lambda u: (1.0 + u**2) ** -2, spec,
                                breakpoints=[0.25, 1, 1, 4, 20, 1, 4, 100001])
        assert res.value == pytest.approx(np.pi / 4.0, rel=1e-8)
        assert res.abs_error_estimate <= spec.rel_tol * abs(res.value)

    @staticmethod
    def sawtooth_evaluations(n):
        # n first panels (n - 1 on [0, 1] and the tail) of a sawtooth on
        # [0, 1] that no panel resolves, at a tolerance that its panel sum
        # cannot meet: the evaluations when the budget runs out
        sawtooth = lambda x: np.where(x < 1.0, (1e4 * x) % 1.0, 0.0)
        with pytest.raises(ConvergenceError) as info:
            integrate_semiinf(sawtooth,
                              QuadSpec(rel_tol=1e-14, abs_tol=1e-300),
                              breakpoints=np.linspace(0.0, 1.0, n)[1:])
        return info.value.best.evaluations

    def test_budget_exhausted_above_tol_raises(self):
        # 100 first panels: n/2 = 50 is below the fixed 200 bisections
        assert self.sawtooth_evaluations(100) == 15 * (100 + 2 * 200)

    def test_budget_is_at_least_half_the_first_panels(self):
        # 500 first panels: n/2 = 250 bisections, above the fixed 200
        assert self.sawtooth_evaluations(500) == 15 * (500 + 2 * 250)


class TestFirstPanelCache:
    """The first panel set of an integral is a pure function of its
    breakpoints, kept in a small cache of read-only arrays."""

    def test_integrand_cannot_write_into_the_cached_nodes(self):
        def f(x):
            x[0] = 0.0
            return x

        with pytest.raises(ValueError, match="read-only"):
            integrate_semiinf(f, breakpoints=[1.0, 2.0])

    def test_entries_stay_within_the_bound(self):
        for k in range(100):
            integrate_semiinf(lambda x: np.exp(-x), QuadSpec(rel_tol=1e-3),
                              breakpoints=[1.0 + k, 50.0 + k])
        info = _first_panels.cache_info()
        assert info.currsize <= info.maxsize <= 2

    @pytest.mark.parametrize("breakpoints", [None, [0.5, 1.0, 3.0, 3.0, 8.0]])
    def test_cold_and_warm_calls_are_bitwise_equal(self, breakpoints):
        f = SUITE[4][0]
        spec = QuadSpec(rel_tol=1e-12)
        _first_panels.cache_clear()
        cold = integrate_semiinf(f, spec, breakpoints=breakpoints)
        warm = integrate_semiinf(f, spec, breakpoints=breakpoints)
        assert _first_panels.cache_info().hits == 1
        assert warm == cold

    @pytest.mark.parametrize("cold", [False, True], ids=["warm", "cold"])
    def test_first_call_alone_gets_the_first_panel_set(self, cold):
        # The call order that finite-medium G1 relies on: an integral's
        # first integrand call gets the nodes of its breakpoints' first
        # panel set, by value, whether or not the cache holds them, and no
        # later call of a refining integral gets them again.
        breakpoints = [0.5, 1.0, 3.0, 8.0]
        first = _first_panels(np.array(breakpoints).tobytes())[3].copy()
        if cold:
            _first_panels.cache_clear()
        calls = []

        def f(x):
            calls.append(x)
            return np.sqrt(x) * np.exp(-x)

        res = integrate_semiinf(f, QuadSpec(rel_tol=1e-12),
                                breakpoints=breakpoints)
        assert res.value == pytest.approx(np.sqrt(np.pi) / 2.0, rel=1e-11)
        assert len(calls) > 1
        assert np.array_equal(calls[0], first)
        assert not any(x is calls[0] or np.array_equal(x, first)
                       for x in calls[1:])


class TestBreakpointValues:
    """The first panel set is keyed by the breakpoints' values: their
    container and order, and entries at or below 0 of a semi-infinite
    integral, do not change a result."""

    F = staticmethod(SUITE[4][0])
    SPEC = QuadSpec(rel_tol=1e-12)
    SORTED = np.array([0.5, 1.0, 3.0, 8.0])

    @pytest.mark.parametrize("breakpoints", [
        [0.5, 1.0, 3.0, 8.0],
        np.array([3.0, 8.0, 0.5, 1.0]),
        np.array([-2.0, 0.5, 0.0, 1.0, 3.0, -0.0, 8.0, 1.0])],
        ids=["list", "unsorted", "non-positive"])
    def test_same_result_as_the_sorted_positive_array(self, breakpoints):
        assert integrate_semiinf(self.F, self.SPEC, breakpoints=breakpoints) \
            == integrate_semiinf(self.F, self.SPEC, breakpoints=self.SORTED)

    def test_no_positive_breakpoint_is_the_mapped_integral(self):
        assert integrate_semiinf(self.F, self.SPEC, breakpoints=[-1.0, 0.0]) \
            == integrate_semiinf(self.F, self.SPEC)

    def test_an_array_changed_in_place_gets_a_new_panel_set(self):
        p = self.SORTED.copy()
        _first_panels.cache_clear()
        before = integrate_semiinf(self.F, self.SPEC, breakpoints=p)
        p[-1] = 16.0
        after = integrate_semiinf(self.F, self.SPEC, breakpoints=p)
        assert _first_panels.cache_info().misses == 2
        assert after != before
        assert after == integrate_semiinf(
            self.F, self.SPEC, breakpoints=[0.5, 1.0, 3.0, 16.0])

    def test_cancelling_integrand_accepted_at_roundoff_floor(self):
        # 20 half periods of sin over [0, 20 pi] and nothing beyond: the
        # panels sum to 40 in magnitude and cancel to roundoff, which
        # neither rel_tol |I| nor abs_tol accepts
        spec = QuadSpec(abs_tol=1e-300)
        c = 20.0 * np.pi
        res = integrate_semiinf(lambda x: np.where(x < c, np.sin(x), 0.0),
                                spec, breakpoints=np.pi * np.arange(1, 21))
        assert abs(res.value) < 1e-13
        assert res.abs_error_estimate > max(spec.rel_tol * abs(res.value),
                                            spec.abs_tol)
        assert res.abs_error_estimate <= 250 * np.finfo(float).eps * 40.0


class TestNested:
    def test_separable_product(self):
        res = integrate_2d(lambda x, y: np.exp(-x - y))
        assert res.value == pytest.approx(1.0, rel=1e-7)

    def test_gamma_squared(self):
        res = integrate_2d(lambda x, y: x * y * np.exp(-x - y))
        assert res.value == pytest.approx(1.0, rel=1e-7)

    def test_order_swap_invariance(self):
        f = lambda x, y: x * np.exp(-x - 2.0 * y)
        spec = QuadSpec(rel_tol=1e-9)
        a = integrate_2d(f, spec).value
        b = integrate_2d(lambda x, y: f(y, x), spec).value
        assert a == pytest.approx(b, rel=2e-9)
