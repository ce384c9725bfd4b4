import numpy as np
import pytest

from delayopt.core import DomainError, LiftedState, Segment, SegmentGrid
from delayopt.operators import (
    apply_generator,
    apply_generator_inverse,
    apply_shift_semigroup,
    assemble_gram_operator,
    dissipativity_form,
    flatten,
    g_operator_norm,
    generator_inverse_form,
    inverse_generator_matrix,
    lifted_norm_sq,
    minus_one_norm,
    random_smooth_state,
    spectral_decomposition,
    unflatten,
    weight_vector,
)
from delayopt.core import lifted_inner, lifted_norm


def state(grid, head, tail):
    return LiftedState(np.atleast_1d(head), Segment(grid, np.asarray(tail, float)))


# ---------------------------------------------------------------------------
# flat carrier


def test_flat_roundtrip_and_weighted_inner():
    g = SegmentGrid(1.0, 16)
    rng = np.random.default_rng(0)
    x = random_smooth_state(g, 2, rng, domain=False)
    y = random_smooth_state(g, 2, rng, domain=False)
    fx, fy = flatten(x), flatten(y)
    back = unflatten(fx, g, 2)
    np.testing.assert_array_equal(back.head, x.head)
    np.testing.assert_array_equal(back.tail.values, x.tail.values)
    weighted_inner = float(np.sum(weight_vector(g, 2) * fx * fy))
    assert weighted_inner == pytest.approx(lifted_inner(x, y), rel=1e-13)


# ---------------------------------------------------------------------------
# shift semigroup


def test_semigroup_identity_at_zero():
    g = SegmentGrid(1.0, 8)
    rng = np.random.default_rng(1)
    x = random_smooth_state(g, 1, rng)
    out = apply_shift_semigroup(0.0, x)
    np.testing.assert_array_equal(out.tail.values, x.tail.values)


def test_semigroup_flushes_history_past_horizon():
    g = SegmentGrid(1.0, 8)
    rng = np.random.default_rng(2)
    x = random_smooth_state(g, 1, rng, domain=False)
    for t in (1.0, 1.5, 4.0):
        out = apply_shift_semigroup(t, x)
        np.testing.assert_allclose(out.tail.values, np.full((9, 1), x.head[0]))
        np.testing.assert_array_equal(out.head, x.head)


def test_semigroup_worked_example():
    # d=1, m=2, tail nodes (0, 1, 2) at xi = (-1, -1/2, 0), head 5, t = 1/2:
    # the shifted tail reads the old tail strictly before time 0 (node -1
    # lands at -1/2, value 1) and the head from time 0 on (nodes -1/2 and 0)
    g = SegmentGrid(1.0, 2)
    x = state(g, 5.0, [[0.0], [1.0], [2.0]])
    out = apply_shift_semigroup(0.5, x)
    np.testing.assert_allclose(out.tail.values[:, 0], [1.0, 5.0, 5.0], atol=1e-14)
    # on generator-domain states the boundary convention is invisible
    y = state(g, 2.0, [[0.0], [1.0], [2.0]])
    out_y = apply_shift_semigroup(0.5, y)
    np.testing.assert_allclose(out_y.tail.values[:, 0], [1.0, 2.0, 2.0], atol=1e-14)


def test_semigroup_law_at_node_multiples():
    g = SegmentGrid(1.0, 8)
    rng = np.random.default_rng(3)
    x = random_smooth_state(g, 2, rng)
    for t, s in [(1 / 8, 3 / 8), (2 / 8, 2 / 8), (5 / 8, 4 / 8)]:
        ab = apply_shift_semigroup(t, apply_shift_semigroup(s, x))
        once = apply_shift_semigroup(t + s, x)
        np.testing.assert_allclose(ab.tail.values, once.tail.values, atol=1e-13)


def test_semigroup_norm_bound():
    g = SegmentGrid(1.0, 40)
    rng = np.random.default_rng(4)
    bound = np.sqrt(2 * (1 + g.d))
    for _ in range(100):
        x = random_smooth_state(g, 1, rng, domain=False)
        t = float(rng.uniform(0, 3))
        assert lifted_norm(apply_shift_semigroup(t, x)) <= bound * lifted_norm(x) + 1e-12


def test_semigroup_rejects_negative_time():
    g = SegmentGrid(1.0, 4)
    with pytest.raises(DomainError):
        apply_shift_semigroup(-0.1, random_smooth_state(g, 1, np.random.default_rng(0)))


# ---------------------------------------------------------------------------
# generator and inverse


def test_generator_on_constants():
    g = SegmentGrid(1.0, 10)
    for c in (0.5, -2.0):
        out = apply_generator(state(g, c, np.full((11, 1), c)))
        np.testing.assert_allclose(out.head, [-c], atol=1e-15)
        np.testing.assert_allclose(out.tail.values, 0.0, atol=1e-12)


def test_generator_on_affine_tail_exact():
    g = SegmentGrid(1.0, 10)
    x = state(g, 0.0, g.nodes[:, None])
    out = apply_generator(x)
    np.testing.assert_allclose(out.head, [0.0], atol=1e-15)
    np.testing.assert_allclose(out.tail.values, 1.0, atol=1e-12)


def test_generator_domain_gate():
    g = SegmentGrid(1.0, 10)
    x = state(g, 0.0, (g.nodes + 1.0)[:, None])  # tail(0) = 1 != head
    with pytest.raises(DomainError):
        apply_generator(x)


def test_generator_second_order_on_exponential():
    errs = []
    for m in (100, 200):
        g = SegmentGrid(1.0, m)
        tail = np.exp(g.nodes)[:, None]
        out = apply_generator(LiftedState([1.0], Segment(g, tail)))
        errs.append(np.max(np.abs(out.tail.values[:, 0] - np.exp(g.nodes))))
    assert errs[0] / errs[1] >= 3.0  # second order: factor ~4 under halving


def test_inverse_zero_tail():
    g = SegmentGrid(1.0, 10)
    out = apply_generator_inverse(state(g, 1.0, np.zeros((11, 1))))
    np.testing.assert_allclose(out.head, [-1.0], atol=1e-15)
    np.testing.assert_allclose(out.tail.values, -1.0, atol=1e-14)


def test_inverse_constant_tail_gives_linear():
    g = SegmentGrid(1.0, 10)
    out = apply_generator_inverse(state(g, 0.0, np.ones((11, 1))))
    np.testing.assert_allclose(out.tail.values[:, 0], g.nodes, atol=1e-14)


def test_inverse_output_in_domain_exactly():
    g = SegmentGrid(1.0, 50)
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = random_smooth_state(g, 2, rng, domain=False)
        out = apply_generator_inverse(x)
        np.testing.assert_array_equal(out.tail.values[-1], out.head)


def test_roundtrip_converges_under_refinement():
    rng = np.random.default_rng(6)
    errs = []
    for m in (100, 200):
        g = SegmentGrid(1.0, m)
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(50):
            x = random_smooth_state(g, 1, rng)
            back = apply_generator(apply_generator_inverse(x))
            worst = max(worst, lifted_norm(back - x) / lifted_norm(x))
        errs.append(worst)
    assert errs[0] / errs[1] >= 1.5


# ---------------------------------------------------------------------------
# weak norm


def test_minus_one_norm_head_only():
    g = SegmentGrid(1.0, 20)
    x = state(g, 1.0, np.zeros((21, 1)))
    assert minus_one_norm(x) == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_minus_one_norm_constant_tail():
    # inverse of (0, 1) has tail xi, and the integral of xi^2 is 1/3
    g = SegmentGrid(1.0, 100)
    x = state(g, 0.0, np.ones((101, 1)))
    assert minus_one_norm(x) == pytest.approx(1 / np.sqrt(3.0), rel=1e-4)


def test_head_dominated_by_weak_norm():
    g = SegmentGrid(1.0, 30)
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = random_smooth_state(g, 1, rng, domain=False)
        assert np.linalg.norm(x.head) <= minus_one_norm(x) + 1e-9


def test_weak_norm_vanishes_on_concentrating_mass():
    # tails of shrinking support and unit mass: the flat-kernel functional
    # stays near one while the weak norm collapses
    g = SegmentGrid(1.0, 200)
    from delayopt.core import Kernel, kernel_convolve
    flat = Kernel(g, np.ones((201, 1, 1)))
    norms, functionals = [], []
    for n_cells in (50, 20, 10, 5):
        width = n_cells * g.h
        vals = np.where(g.nodes <= -1.0 + width + 1e-12, 1.0 / width, 0.0)[:, None]
        x = LiftedState([0.0], Segment(g, vals))
        norms.append(minus_one_norm(x))
        functionals.append(float(kernel_convolve(flat, x.tail)[0]))
    assert all(a > b for a, b in zip(norms, norms[1:]))
    assert norms[-1] <= 0.15
    assert all(abs(f - 1.0) <= 0.15 for f in functionals)


# ---------------------------------------------------------------------------
# gram operator and spectrum


@pytest.fixture(scope="module")
def gram_50():
    g = SegmentGrid(1.0, 50)
    op = assemble_gram_operator(g, 1)
    return g, op, spectral_decomposition(op)


def test_gram_quadratic_form_is_weak_norm(gram_50):
    g, op, _ = gram_50
    rng = np.random.default_rng(8)
    w = weight_vector(g, 1)
    for _ in range(100):
        x = random_smooth_state(g, 1, rng, domain=False)
        fx = flatten(x)
        quad = float(np.sum(w * fx * (op.matrix @ fx)))
        assert quad == pytest.approx(minus_one_norm(x) ** 2, rel=1e-10)


def test_gram_selfadjoint_and_positive(gram_50):
    _, op, dec = gram_50
    assert op.check_g_selfadjoint()
    assert np.all(dec.eigenvalues > 0)
    assert np.all(np.diff(dec.eigenvalues) <= 0)


def test_gram_head_block_positive(gram_50):
    _, op, _ = gram_50
    head = op.head_block()
    assert np.all(np.linalg.eigvalsh((head + head.T) / 2) > 0)


def test_spectral_matches_power_iteration(gram_50):
    g, op, dec = gram_50
    # independent check of the top eigenvalue: plain power iteration in the
    # weighted metric
    w = weight_vector(g, 1)
    rng = np.random.default_rng(9)
    v = rng.normal(size=op.matrix.shape[0])
    for _ in range(500):
        v = op.matrix @ v
        v /= np.sqrt(np.sum(w * v * v))
    lam_pi = float(np.sum(w * v * (op.matrix @ v)))
    assert lam_pi == pytest.approx(dec.operator_norm, rel=1e-6)


def test_spectral_orthonormal_eigenpairs(gram_50):
    g, op, dec = gram_50
    w = weight_vector(g, 1)
    gram_matrix = (w[:, None] * dec.vectors).T @ dec.vectors
    assert np.max(np.abs(gram_matrix - np.eye(dec.dim))) <= 1e-8
    resid = op.matrix @ dec.vectors - dec.vectors * dec.eigenvalues[None, :]
    assert np.max(np.abs(resid)) <= 1e-8 * dec.operator_norm


def test_spectral_trace_identity(gram_50):
    _, op, dec = gram_50
    assert float(np.sum(dec.eigenvalues)) == pytest.approx(
        float(np.trace(op.matrix)), rel=1e-8)


def test_spectral_reconstruction(gram_50):
    g, op, dec = gram_50
    w = weight_vector(g, 1)
    recon = dec.vectors @ (dec.eigenvalues[:, None] * (w[:, None] * dec.vectors).T)
    assert np.max(np.abs(recon - op.matrix)) <= 1e-8 * np.max(np.abs(op.matrix))


def test_spectral_ghost_mode_is_alternating(gram_50):
    g, _, dec = gram_50
    ghost = dec.ghost_vectors[:, 0]
    assert abs(ghost[0]) <= 1e-10  # no head content
    tail = ghost[1:]
    signs = np.sign(tail)
    assert np.all(signs[::2] == signs[0]) and np.all(signs[1::2] == -signs[0])


def project(dec, x, n_modes, which):
    """Spectral projection of a state through the decomposition's projection matrix."""
    return unflatten(dec.projection_matrix(n_modes, which) @ flatten(x), dec.grid, dec.n)


def test_projection_identities(gram_50):
    g, op, dec = gram_50
    rng = np.random.default_rng(10)
    x = random_smooth_state(g, 1, rng)
    # full projection recovers the state up to its ghost component
    p_full = project(dec, x, dec.dim, "P")
    q_full = project(dec, x, dec.dim, "Q")
    ghost_coeff = dec.ghost_component(x)
    ghost_vec = unflatten(dec.ghost_vectors @ ghost_coeff, g, 1)
    np.testing.assert_allclose(flatten(p_full) + flatten(ghost_vec), flatten(x),
                               atol=1e-10)
    assert lifted_norm(q_full) == pytest.approx(lifted_norm(ghost_vec), rel=1e-8)
    # smooth states carry only a small ghost component
    assert lifted_norm(q_full) <= 0.1 * lifted_norm(x)
    # idempotence and complementarity at a middling mode count
    p = project(dec, x, 10, "P")
    q = project(dec, x, 10, "Q")
    np.testing.assert_allclose(flatten(p) + flatten(q), flatten(x), atol=1e-12)
    np.testing.assert_allclose(flatten(project(dec, p, 10, "P")), flatten(p),
                               atol=1e-10)


def test_projection_of_leading_mode(gram_50):
    g, _, dec = gram_50
    f1 = dec.mode(0)
    p1 = project(dec, f1, 1, "P")
    q1 = project(dec, f1, 1, "Q")
    np.testing.assert_allclose(flatten(p1), flatten(f1), atol=1e-10)
    assert lifted_norm(q1) <= 1e-10


def test_tail_projector_norm_is_next_eigenvalue(gram_50):
    g, op, dec = gram_50
    w = weight_vector(g, 1)
    prev = np.inf
    for n_modes in (1, 5, 10, 25, dec.dim):
        q = dec.projection_matrix(n_modes, "Q")
        norm = g_operator_norm(op.matrix @ q, g, 1)
        expected = dec.eigenvalues[n_modes] if n_modes < dec.dim else 0.0
        assert norm == pytest.approx(expected, rel=1e-7, abs=1e-12)
        assert norm <= prev + 1e-12
        prev = norm
    assert prev <= 1e-12


# ---------------------------------------------------------------------------
# structural forms


def test_dissipativity_on_constants():
    g = SegmentGrid(1.0, 20)
    for c in (1.0, -0.7, 3.0):
        x = state(g, c, np.full((21, 1), c))
        # closed form: -(head^2 + tail(-d)^2)/2 = -c^2
        assert dissipativity_form(x) == pytest.approx(-c * c, rel=1e-12)


def test_dissipativity_domain_gate():
    g = SegmentGrid(1.0, 20)
    x = state(g, 1.0, (g.nodes + 1.0)[:, None])  # tail(0) = 1 = head holds
    dissipativity_form(x)
    y = state(g, 0.0, (g.nodes + 1.0)[:, None])  # tail(0) = 1 != 0
    with pytest.raises(DomainError):
        dissipativity_form(y)


def test_dissipativity_random_sample_nonpositive():
    g = SegmentGrid(1.0, 200)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        x = random_smooth_state(g, 1, rng)
        assert dissipativity_form(x) <= 1e-8 * lifted_norm_sq(x)


def test_dissipativity_matches_closed_form():
    for m in (100, 200):
        g = SegmentGrid(1.0, m)
        rng = np.random.default_rng(12)
        for _ in range(100):
            x = random_smooth_state(g, 1, rng)
            closed = -0.5 * float(x.head @ x.head) \
                - 0.5 * float(x.tail.values[0] @ x.tail.values[0])
            dev = abs(dissipativity_form(x) - closed)
            assert dev <= 0.5 * g.h * (1.0 + lifted_norm_sq(x))


def test_inverse_form_zero_tail():
    g = SegmentGrid(1.0, 20)
    x = state(g, 1.0, np.zeros((21, 1)))
    assert generator_inverse_form(x) == pytest.approx(-1.0, rel=1e-12)


def test_inverse_form_zero_state():
    g = SegmentGrid(1.0, 20)
    x = state(g, 0.0, np.zeros((21, 1)))
    assert generator_inverse_form(x) == 0.0


def test_inverse_form_random_sample_nonpositive():
    g = SegmentGrid(1.0, 200)
    rng = np.random.default_rng(13)
    for _ in range(1000):
        x = random_smooth_state(g, 1, rng, domain=False)
        assert generator_inverse_form(x) <= 1e-8 * lifted_norm_sq(x)


def test_weak_norm_dominated_by_operator_norm(gram_50):
    g, _, dec = gram_50
    rng = np.random.default_rng(14)
    bound = np.sqrt(dec.operator_norm)
    for _ in range(100):
        x = random_smooth_state(g, 1, rng, domain=False)
        assert minus_one_norm(x) <= bound * lifted_norm(x) + 1e-10


def test_spectral_ghost_count_matches_dimension():
    # rank deficiency of the inverse matrix is exactly the state dimension
    for n in (1, 2, 3):
        g = SegmentGrid(1.0, 20)
        dec = spectral_decomposition(assemble_gram_operator(g, n))
        assert dec.ghost_vectors.shape[1] == n
        assert dec.dim == n * 22 - n
        assert np.all(dec.eigenvalues > 0)


def test_inverse_matrix_matches_functional_form():
    g = SegmentGrid(1.0, 12)
    M = inverse_generator_matrix(g, 2)
    rng = np.random.default_rng(15)
    x = random_smooth_state(g, 2, rng, domain=False)
    np.testing.assert_allclose(M @ flatten(x), flatten(apply_generator_inverse(x)),
                               atol=1e-13)
