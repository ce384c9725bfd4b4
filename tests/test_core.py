import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayopt.core import (
    GridMismatchError,
    Kernel,
    LiftedBatch,
    LiftedState,
    ProblemSpec,
    SegmentGrid,
    ValidationError,
    _delay_integrals,
    _dot_rows,
    kernel_convolve,
    lifted_inner,
    lifted_norm,
    resample_kernel,
    validate_kernel,
    weighted_kernels,
)


def ramp_kernel(grid, n=1):
    prof = (grid.nodes + grid.d) / grid.d
    return Kernel(grid, prof[:, None, None] * np.ones((1, 1, n)))


# ---------------------------------------------------------------------------
# grids


def test_grid_weights_sum_to_horizon():
    for d, m in [(1.0, 1), (1.0, 7), (0.3, 50), (2.5, 13)]:
        g = SegmentGrid(d, m)
        assert np.isclose(g.weights.sum(), d, rtol=1e-14)
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[0] == -d and g.nodes[-1] == 0.0


def test_grid_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        SegmentGrid(0.0, 5)
    with pytest.raises(ValidationError):
        SegmentGrid(1.0, 0)


@pytest.mark.parametrize("d", [np.inf, -np.inf, np.nan])
def test_grid_rejects_a_nonfinite_horizon(d):
    with pytest.raises(ValidationError, match="finite and positive"):
        SegmentGrid(d, 5)


def test_grids_match_within_a_fixed_horizon_tolerance():
    g = SegmentGrid(0.3, 6)
    assert g.matches(SegmentGrid(0.1 + 0.2, 6))  # one ulp apart
    assert g.matches(SegmentGrid(0.3 + 1e-12, 6))
    assert not g.matches(SegmentGrid(0.3 + 2e-12, 6))
    assert not g.matches(SegmentGrid(0.3, 7))


# ---------------------------------------------------------------------------
# inner product and norm


def one(g, head, tail):
    """The state (head, tail (m+1, n)) on g as a batch of one."""
    return LiftedBatch(g, np.atleast_1d(np.asarray(head, float))[None],
                       np.asarray(tail, float)[None])


def constant(g, value):
    """The tail (m+1, n) that holds value at every node of g."""
    return np.tile(np.atleast_1d(np.asarray(value, float)), (g.m + 1, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_dot_rows_is_each_rows_index_order_sum(n):
    # a row's dot product sums its products in index order, so it is the
    # same bits in any batch and on any BLAS kernel
    rng = np.random.default_rng(n)
    a, b = rng.normal(size=(2, 40, n))
    got = _dot_rows(a, b)
    for i in range(40):
        want = a[i, 0] * b[i, 0]
        for k in range(1, n):
            want = want + a[i, k] * b[i, k]
        assert got[i] == want == _dot_rows(a[i:i + 1], b[i:i + 1])[0]


def test_inner_head_only():
    g = SegmentGrid(1.0, 10)
    x = one(g, [1.0], constant(g, 0.0))
    assert lifted_inner(x, x)[0] == pytest.approx(1.0, abs=1e-15)


def test_inner_constant_tail_exact():
    # trapezoid is exact for constants: integral of 1 over [-1, 0] is 1
    g = SegmentGrid(1.0, 9)
    x = one(g, [0.0], constant(g, 1.0))
    assert lifted_inner(x, x)[0] == pytest.approx(1.0, rel=1e-14)


def test_inner_bilinear_on_constants():
    g = SegmentGrid(1.0, 6)
    x = one(g, [1.0], constant(g, 1.0))
    y = one(g, [2.0], constant(g, -1.0))
    assert lifted_inner(x, y)[0] == pytest.approx(1.0, rel=1e-14)
    assert lifted_inner(y, x)[0] == pytest.approx(1.0, rel=1e-14)


def test_norm_pythagorean():
    g = SegmentGrid(1.0, 12)
    assert lifted_norm(one(g, [1.0], constant(g, 0.0)))[0] == pytest.approx(1.0)
    assert lifted_norm(one(g, [0.0], constant(g, 1.0)))[0] == pytest.approx(1.0)
    assert lifted_norm(one(g, [3.0], constant(g, 4.0)))[0] == pytest.approx(5.0)


def test_cauchy_schwarz_random_states():
    g = SegmentGrid(1.0, 20)
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = one(g, rng.normal(size=2), rng.normal(size=(21, 2)))
        y = one(g, rng.normal(size=2), rng.normal(size=(21, 2)))
        assert abs(lifted_inner(x, y)[0]) <= lifted_norm(x)[0] * lifted_norm(y)[0] + 1e-12


@settings(max_examples=50, deadline=None)
@given(a=st.floats(-5, 5), b=st.floats(-5, 5))
def test_inner_linear_in_second_argument(a, b):
    g = SegmentGrid(1.0, 8)
    rng = np.random.default_rng(7)
    x = one(g, rng.normal(size=1), rng.normal(size=(9, 1)))
    y = one(g, rng.normal(size=1), rng.normal(size=(9, 1)))
    z = one(g, rng.normal(size=1), rng.normal(size=(9, 1)))
    combo = one(g, a * y.heads[0] + b * z.heads[0], a * y.tails[0] + b * z.tails[0])
    lhs = lifted_inner(x, combo)[0]
    rhs = a * lifted_inner(x, y)[0] + b * lifted_inner(x, z)[0]
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_inner_exact_for_degree_one_integrands():
    # trapezoid quadrature integrates degree-one integrands exactly: pair an
    # affine tail with a constant one
    g = SegmentGrid(1.0, 7)
    affine = one(g, [0.0], (2.0 * g.nodes + 1.0)[:, None])
    const = one(g, [0.0], constant(g, 3.0))
    # integral of 3 (2 xi + 1) over [-1, 0] = 3 (1 - 1) = 0
    assert lifted_inner(affine, const)[0] == pytest.approx(0.0, abs=1e-14)
    shifted = one(g, [0.0], (2.0 * g.nodes + 2.0)[:, None])
    assert lifted_inner(shifted, const)[0] == pytest.approx(3.0, rel=1e-14)


def test_inner_grid_mismatch_raises():
    g4, g5 = SegmentGrid(1.0, 4), SegmentGrid(1.0, 5)
    x = one(g4, [1.0], constant(g4, 0.0))
    y = one(g5, [1.0], constant(g5, 0.0))
    with pytest.raises(GridMismatchError):
        lifted_inner(x, y)
    with pytest.raises(GridMismatchError, match="dimension mismatch 1 != 2"):
        lifted_inner(x, one(g4, [1.0, 2.0], constant(g4, [0.0, 0.0])))


@pytest.mark.parametrize("tails_shape", [(3, 5, 1), (2, 4, 1), (2, 5, 2)],
                         ids=["samples", "nodes", "dimension"])
def test_batch_refuses_tails_that_do_not_fit_its_heads(tails_shape):
    g = SegmentGrid(1.0, 4)
    with pytest.raises(GridMismatchError, match="do not fit 2 heads of dimension 1 on 5 nodes"):
        LiftedBatch(g, np.zeros((2, 1)), np.zeros(tails_shape))


# ---------------------------------------------------------------------------
# kernels


def test_convolve_ramp_against_constant():
    # integrand (xi+1) * 1 is piecewise linear, trapezoid is exact: 1/2
    g = SegmentGrid(1.0, 10)
    out = kernel_convolve(ramp_kernel(g), constant(g, 1.0))
    assert out[0] == pytest.approx(0.5, rel=1e-14)


def test_convolve_zero_kernel():
    g = SegmentGrid(1.0, 10)
    zero = Kernel(g, np.zeros((11, 1, 1)))
    rng = np.random.default_rng(1)
    s = rng.normal(size=(11, 1))
    assert kernel_convolve(zero, s)[0] == 0.0


def test_zero_kernel_tables_keep_no_nodes(merton_nodelay_spec, merton_delay_spec):
    # an all-zero weighted table is stored without nodes; its delay integrals
    # are the zeros the full contraction gives, and other tables contract
    rng = np.random.default_rng(0)
    for spec, empty in ((merton_nodelay_spec, True), (merton_delay_spec, False)):
        grid = SegmentGrid(spec.grid.d, 8)
        wk = weighted_kernels(spec, grid)
        window = rng.standard_normal((3, grid.m + 1, spec.n))
        for table, kernel, z in zip(wk, (spec.kernel_drift, spec.kernel_noise),
                                    _delay_integrals(wk, window)):
            full = grid.weights[:, None, None] * resample_kernel(kernel, grid).values
            assert (len(table) == 0) == empty
            assert z.shape == (3, kernel.h_dim)
            np.testing.assert_array_equal(z, np.einsum("jhn,...jn->...h", full, window))


def test_convolve_ramp_against_ramp_second_order():
    # integral of (xi+1)^2 over [-1,0] is 1/3; composite trapezoid error h^2/6
    errs = []
    for m in (10, 20, 40):
        g = SegmentGrid(1.0, m)
        s = (g.nodes + 1.0)[:, None]
        errs.append(abs(kernel_convolve(ramp_kernel(g), s)[0] - 1.0 / 3.0))
        assert errs[-1] <= g.h ** 2 / 2
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_convolve_linear_in_segment():
    g = SegmentGrid(1.0, 15)
    a = ramp_kernel(g)
    rng = np.random.default_rng(2)
    for _ in range(20):
        s1 = rng.normal(size=(16, 1))
        s2 = rng.normal(size=(16, 1))
        c1, c2 = rng.normal(size=2)
        combo = c1 * s1 + c2 * s2
        lhs = kernel_convolve(a, combo)
        rhs = c1 * kernel_convolve(a, s1) + c2 * kernel_convolve(a, s2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_convolve_refuses_a_tail_off_the_kernel_grid():
    # a tail is (m+1, n) on the kernel's grid: a row more or a column more
    # is refused, not broadcast
    g = SegmentGrid(1.0, 10)
    for shape in ((12, 1), (11, 2), (11,)):
        with pytest.raises(GridMismatchError):
            kernel_convolve(ramp_kernel(g), np.ones(shape))


def test_validate_kernel_accepts_ramp_and_zero():
    g = SegmentGrid(1.0, 10)
    assert validate_kernel(ramp_kernel(g)).ok
    assert validate_kernel(Kernel(g, np.zeros((11, 1, 1)))).ok


def test_validate_kernel_rejects_flat_one():
    g = SegmentGrid(1.0, 10)
    rep = validate_kernel(Kernel(g, np.ones((11, 1, 1))))
    assert not rep.ok
    assert any("endpoint" in f for f in rep.failures)


def test_validate_kernel_rejects_infinite_seminorm():
    g = SegmentGrid(1.0, 10)
    table = np.zeros((11, 1, 1))
    table[5] = np.inf
    rep = validate_kernel(Kernel(g, table))
    assert rep.failures == ("seminorm: derivative seminorm is not finite (inf)",)


# ---------------------------------------------------------------------------
# resampling


def test_resample_constant_any_grid():
    g = SegmentGrid(1.0, 7)
    x = LiftedState(g, [0.0, 0.0], constant(g, [2.5, -1.0]))
    out = x.resampled(SegmentGrid(1.0, 23))
    np.testing.assert_allclose(out.tail, np.tile([2.5, -1.0], (24, 1)))


def test_resample_affine_exact_on_refinement():
    g = SegmentGrid(1.0, 5)
    x = LiftedState(g, [0.0], (2.0 * g.nodes + 0.3)[:, None])
    g2 = SegmentGrid(1.0, 10)
    out = x.resampled(g2)
    np.testing.assert_allclose(out.tail[:, 0], 2.0 * g2.nodes + 0.3, atol=1e-14)


def test_resample_quadratic_interpolation_error():
    # s(xi) = xi^2 from 10 to 100 intervals: the standard piecewise-linear
    # bound is (h^2/8) max|s''| = 2.5e-3 and is attained at cell midpoints
    g = SegmentGrid(1.0, 10)
    x = LiftedState(g, [0.0], (g.nodes ** 2)[:, None])
    g2 = SegmentGrid(1.0, 100)
    out = x.resampled(g2)
    err = np.max(np.abs(out.tail[:, 0] - g2.nodes ** 2))
    assert err <= 2.5e-3 + 1e-15
    assert err >= 2.0e-3


def test_resample_idempotent_same_grid():
    g = SegmentGrid(1.0, 8)
    rng = np.random.default_rng(3)
    x = LiftedState(g, [0.0], rng.normal(size=(9, 1)))
    out = x.resampled(g)
    np.testing.assert_array_equal(out.tail, x.tail)
    np.testing.assert_array_equal(out.head, x.head)


def test_resample_horizon_mismatch():
    # a tail and a tabulated kernel share one rule, whose message names both horizons
    g = SegmentGrid(1.0, 4)
    message = "resample requires equal horizons, got 1.0 and 2.0"
    with pytest.raises(GridMismatchError, match=f"^{message}$"):
        LiftedState(g, [0.0], constant(g, 0.0)).resampled(SegmentGrid(2.0, 4))
    with pytest.raises(GridMismatchError, match=f"^{message}$"):
        resample_kernel(ramp_kernel(g), SegmentGrid(2.0, 4))


# ---------------------------------------------------------------------------
# state validation


def test_shape_and_domain_errors_are_validation_errors():
    # the command line maps ValidationError to exit 1 and catches nothing
    # narrower, so a shape or domain refusal must be one
    from delayopt.core import DomainError
    assert issubclass(GridMismatchError, ValidationError)
    assert issubclass(DomainError, ValidationError)


def test_state_dimension_mismatch():
    g = SegmentGrid(1.0, 4)
    with pytest.raises(GridMismatchError):
        LiftedState(g, [1.0, 2.0], constant(g, 0.0))


def test_state_rejects_nonfinite_tail():
    g = SegmentGrid(1.0, 4)
    vals = np.zeros((5, 1))
    vals[2] = np.nan
    with pytest.raises(ValidationError):
        LiftedState(g, [0.0], vals)


def test_state_rejects_a_one_dimensional_tail():
    # a tail is (m+1, n) even for n = 1: a vector of m+1 node values is refused
    g = SegmentGrid(1.0, 4)
    with pytest.raises(ValidationError, match=r"a tail \(5, n\)"):
        LiftedState(g, [0.0], np.zeros(5))


# ---------------------------------------------------------------------------
# problem data


_G = SegmentGrid(1.0, 4)


def _problem(**changes):
    """A valid one-dimensional problem on _G, with the given fields changed."""
    zero = Kernel(_G, np.zeros((5, 1, 1)))
    fields = dict(n=1, q=1, p=1, grid=_G, kernel_drift=zero, kernel_noise=ramp_kernel(_G),
                  drift=lambda y, z, u: -y, noise=lambda y, z, u: np.ones(y.shape + (1,)),
                  cost=lambda y, u: y[..., 0] ** 2, rho=1.0,
                  control_set=np.array([[0.0], [0.5], [1.0]]), growth_const=1.0,
                  lipschitz_const=1.0, cost_growth_const=1.0, cost_growth_exponent=2.0)
    return ProblemSpec(**{**fields, **changes})


BAD_PROBLEM_FIELDS = {
    "control-row": {"control_set": np.array([[0.0, 0.5, 1.0]])},
    "no-controls": {"control_set": np.empty((0, 1))},
    "control-nan": {"control_set": np.array([[0.0], [float("nan")]])},
    "rho-zero": {"rho": 0.0},
    "rho-negative": {"rho": -1.0},
    "rho-nan": {"rho": float("nan")},
    "rho-infinite": {"rho": float("inf")},
    "kernel-endpoint": {"kernel_drift": Kernel(_G, np.ones((5, 1, 1)))},
    "kernel-dimension": {"kernel_noise": ramp_kernel(_G, n=2)},
    "growth-infinite": {"growth_const": float("inf")},
    "lipschitz-nan": {"lipschitz_const": float("nan")},
    "cost-growth-negative": {"cost_growth_const": -1.0},
    "cost-exponent-nan": {"cost_growth_exponent": float("nan")},
    "ellipticity-zero": {"ellipticity_floor": 0.0},
    "ellipticity-infinite": {"ellipticity_floor": float("inf")},
    "ellipticity-nan": {"ellipticity_floor": float("nan")},
    "head-names-count": {"head_names": ("a", "b")},
    "initial-head-length": {"initial_head": (1.0, 2.0)},
    "initial-head-nested": {"initial_head": ([1.0, 2.0],)},
    "initial-history-text": {"initial_history": ("1",)},
}


@pytest.mark.parametrize("change", BAD_PROBLEM_FIELDS.values(), ids=BAD_PROBLEM_FIELDS)
def test_problem_is_valid_by_construction(change):
    # a (1, k) row of controls is not transposed for p = 1; every refusal
    # also holds for a copy made by dataclasses.replace
    valid = _problem()
    assert valid.control_set.shape == (3, 1) and valid.head_names == ("y0",)
    with pytest.raises(ValidationError):
        _problem(**change)
    with pytest.raises(ValidationError):
        dataclasses.replace(valid, **change)
