import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayopt.core import DomainError, LiftedBatch, NumericalError, SegmentGrid
from delayopt.operators import (
    BLOCK,
    SMOOTH_MODES,
    OperatorMatrix,
    apply_generator,
    apply_generator_inverse,
    apply_shift_semigroup,
    assemble_gram_operator,
    dissipativity_form,
    g_operator_norm,
    generator_inverse_form,
    lifted_norm_sq,
    minus_one_norm,
    random_smooth_state,
    sample_audit,
    smooth_states,
    spectral_decomposition,
    weight_vector,
)
from delayopt.core import lifted_inner, lifted_norm


def state(grid, head, tail):
    """One state (head, tail values (m+1, n)) as a batch of one."""
    return LiftedBatch(grid, np.atleast_1d(np.asarray(head, float))[None],
                       np.asarray(tail, float)[None])


# ---------------------------------------------------------------------------
# flat carrier: a one-sample batch as the [head; nodes] vector, component
# index fastest, on which each scalar matrix acts times I_n


def flatten(x):
    return np.concatenate([x.heads[0], x.tails[0].ravel()])


def unflatten(vec, grid, n):
    return LiftedBatch(grid, vec[None, :n], vec[n:].reshape(1, grid.m + 1, n))


def inverse_generator_table(grid):
    """Scalar matrix of the inverse generator on [head; tail nodes], written
    out as the cumulative trapezoid table: the oracle of the assembled one."""
    m, h = grid.m, grid.h
    # row j integrates from node j to 0
    C = np.zeros((m + 1, m + 1))
    for j in range(m):
        C[j, j] = h / 2.0
        C[j, m] = h / 2.0
        C[j, j + 1 : m] = h
    # 0.0 - C keeps the zeros positive
    S = np.zeros((m + 2, m + 2))
    S[:, 0] = -1.0
    S[1:, 1:] = 0.0 - C
    return S


def test_flat_roundtrip_and_weighted_inner():
    g = SegmentGrid(1.0, 16)
    rng = np.random.default_rng(0)
    x = random_smooth_state(g, 2, rng, domain=False)
    y = random_smooth_state(g, 2, rng, domain=False)
    fx, fy = flatten(x), flatten(y)
    back = unflatten(fx, g, 2)
    np.testing.assert_array_equal(back.heads, x.heads)
    np.testing.assert_array_equal(back.tails, x.tails)
    weighted_inner = float(np.sum(np.repeat(weight_vector(g), 2) * fx * fy))
    assert weighted_inner == pytest.approx(lifted_inner(x, y)[0], rel=1e-13)


# ---------------------------------------------------------------------------
# shift semigroup


def test_semigroup_identity_at_zero():
    g = SegmentGrid(1.0, 8)
    rng = np.random.default_rng(1)
    x = random_smooth_state(g, 1, rng)
    out = apply_shift_semigroup(0.0, x)
    np.testing.assert_array_equal(out.tails, x.tails)


def test_semigroup_flushes_history_past_horizon():
    g = SegmentGrid(1.0, 8)
    rng = np.random.default_rng(2)
    x = random_smooth_state(g, 1, rng, domain=False)
    for t in (1.0, 1.5, 4.0):
        out = apply_shift_semigroup(t, x)
        np.testing.assert_allclose(out.tails[0], np.full((9, 1), x.heads[0, 0]))
        np.testing.assert_array_equal(out.heads, x.heads)


def test_semigroup_worked_example():
    # d=1, m=2, tail nodes (0, 1, 2) at xi = (-1, -1/2, 0), head 5, t = 1/2:
    # the shifted tail reads the old tail strictly before time 0 (node -1
    # lands at -1/2, value 1) and the head from time 0 on (nodes -1/2 and 0)
    g = SegmentGrid(1.0, 2)
    x = state(g, 5.0, [[0.0], [1.0], [2.0]])
    out = apply_shift_semigroup(0.5, x)
    np.testing.assert_allclose(out.tails[0, :, 0], [1.0, 5.0, 5.0], atol=1e-14)
    # on generator-domain states the boundary convention is invisible
    y = state(g, 2.0, [[0.0], [1.0], [2.0]])
    out_y = apply_shift_semigroup(0.5, y)
    np.testing.assert_allclose(out_y.tails[0, :, 0], [1.0, 2.0, 2.0], atol=1e-14)


def test_semigroup_law_at_node_multiples():
    g = SegmentGrid(1.0, 8)
    rng = np.random.default_rng(3)
    x = random_smooth_state(g, 2, rng)
    for t, s in [(1 / 8, 3 / 8), (2 / 8, 2 / 8), (5 / 8, 4 / 8)]:
        ab = apply_shift_semigroup(t, apply_shift_semigroup(s, x))
        once = apply_shift_semigroup(t + s, x)
        np.testing.assert_allclose(ab.tails, once.tails, atol=1e-13)


def test_semigroup_norm_bound():
    g = SegmentGrid(1.0, 40)
    rng = np.random.default_rng(4)
    bound = np.sqrt(2 * (1 + g.d))
    for _ in range(100):
        x = random_smooth_state(g, 1, rng, domain=False)
        t = float(rng.uniform(0, 3))
        assert lifted_norm(apply_shift_semigroup(t, x))[0] <= bound * lifted_norm(x)[0] + 1e-12


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
        np.testing.assert_allclose(out.heads[0], [-c], atol=1e-15)
        np.testing.assert_allclose(out.tails[0], 0.0, atol=1e-12)


def test_generator_on_affine_tail_exact():
    g = SegmentGrid(1.0, 10)
    x = state(g, 0.0, g.nodes[:, None])
    out = apply_generator(x)
    np.testing.assert_allclose(out.heads[0], [0.0], atol=1e-15)
    np.testing.assert_allclose(out.tails[0], 1.0, atol=1e-12)


def test_generator_domain_gate():
    g = SegmentGrid(1.0, 10)
    x = state(g, 0.0, (g.nodes + 1.0)[:, None])  # tail(0) = 1 != head
    with pytest.raises(DomainError):
        apply_generator(x)


def test_generator_domain_gate_boundary():
    # tail(0) may miss the head by up to 1e-9
    g = SegmentGrid(1.0, 10)
    apply_generator(state(g, 1.0, np.full((11, 1), 1.0 + 0.5e-9)))
    with pytest.raises(DomainError):
        apply_generator(state(g, 1.0, np.full((11, 1), 1.0 + 2e-9)))


def test_generator_second_order_on_exponential():
    errs = []
    for m in (100, 200):
        g = SegmentGrid(1.0, m)
        tail = np.exp(g.nodes)[:, None]
        out = apply_generator(state(g, 1.0, tail))
        errs.append(np.max(np.abs(out.tails[0, :, 0] - np.exp(g.nodes))))
    assert errs[0] / errs[1] >= 3.0  # second order: factor ~4 under halving


def test_inverse_zero_tail():
    g = SegmentGrid(1.0, 10)
    out = apply_generator_inverse(state(g, 1.0, np.zeros((11, 1))))
    np.testing.assert_allclose(out.heads[0], [-1.0], atol=1e-15)
    np.testing.assert_allclose(out.tails[0], -1.0, atol=1e-14)


def test_inverse_constant_tail_gives_linear():
    g = SegmentGrid(1.0, 10)
    out = apply_generator_inverse(state(g, 0.0, np.ones((11, 1))))
    np.testing.assert_allclose(out.tails[0, :, 0], g.nodes, atol=1e-14)


def test_inverse_output_in_domain_exactly():
    g = SegmentGrid(1.0, 50)
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = random_smooth_state(g, 2, rng, domain=False)
        out = apply_generator_inverse(x)
        np.testing.assert_array_equal(out.tails[0, -1], out.heads[0])


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
            worst = max(worst, lifted_norm(back - x)[0] / lifted_norm(x)[0])
        errs.append(worst)
    assert errs[0] / errs[1] >= 1.5


# ---------------------------------------------------------------------------
# weak norm


def test_minus_one_norm_head_only():
    g = SegmentGrid(1.0, 20)
    x = state(g, 1.0, np.zeros((21, 1)))
    assert minus_one_norm(x)[0] == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_minus_one_norm_constant_tail():
    # inverse of (0, 1) has tail xi, and the integral of xi^2 is 1/3
    g = SegmentGrid(1.0, 100)
    x = state(g, 0.0, np.ones((101, 1)))
    assert minus_one_norm(x)[0] == pytest.approx(1 / np.sqrt(3.0), rel=1e-4)


def test_head_dominated_by_weak_norm():
    g = SegmentGrid(1.0, 30)
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = random_smooth_state(g, 1, rng, domain=False)
        assert np.linalg.norm(x.heads[0]) <= minus_one_norm(x)[0] + 1e-9


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
        norms.append(minus_one_norm(state(g, 0.0, vals))[0])
        functionals.append(float(kernel_convolve(flat, vals)[0]))
    assert all(a > b for a, b in zip(norms, norms[1:]))
    assert norms[-1] <= 0.15
    assert all(abs(f - 1.0) <= 0.15 for f in functionals)


# ---------------------------------------------------------------------------
# gram operator and spectrum


@pytest.fixture(scope="module")
def gram_50():
    g = SegmentGrid(1.0, 50)
    op = assemble_gram_operator(g)
    return g, op, spectral_decomposition(op)


def test_gram_quadratic_form_is_weak_norm(gram_50):
    g, op, _ = gram_50
    rng = np.random.default_rng(8)
    w = weight_vector(g)
    for _ in range(100):
        x = random_smooth_state(g, 1, rng, domain=False)
        fx = flatten(x)
        quad = float(np.sum(w * fx * (op.matrix @ fx)))
        assert quad == pytest.approx(minus_one_norm(x)[0] ** 2, rel=1e-10)


def test_gram_selfadjoint_and_positive(gram_50):
    g, op, dec = gram_50
    # W B is symmetric, W the quadrature weights: B is self-adjoint in their metric
    wb = weight_vector(g)[:, None] * op.matrix
    assert np.max(np.abs(wb - wb.T)) <= 1e-10 * max(np.max(np.abs(wb)), 1.0)
    assert np.all(dec.eigenvalues > 0)
    assert np.all(np.diff(dec.eigenvalues) <= 0)


def test_gram_head_block_positive(gram_50):
    _, op, _ = gram_50
    head = op.matrix[:1, :1]
    assert np.all(np.linalg.eigvalsh((head + head.T) / 2) > 0)


def test_spectral_matches_power_iteration(gram_50):
    g, op, dec = gram_50
    # independent check of the top eigenvalue: plain power iteration in the
    # weighted metric
    w = weight_vector(g)
    rng = np.random.default_rng(9)
    v = rng.normal(size=op.matrix.shape[0])
    for _ in range(500):
        v = op.matrix @ v
        v /= np.sqrt(np.sum(w * v * v))
    lam_pi = float(np.sum(w * v * (op.matrix @ v)))
    assert lam_pi == pytest.approx(dec.operator_norm, rel=1e-6)


def test_spectral_orthonormal_eigenpairs(gram_50):
    g, op, dec = gram_50
    w = weight_vector(g)
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
    w = weight_vector(g)
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
    """Spectral projection of a state: "P" sums the leading eigenvectors
    times their weighted coefficients, the oracle of the tail projector
    "Q"."""
    if which == "Q":
        return unflatten(dec.tail_projector(n_modes) @ flatten(x), dec.grid, 1)
    F = dec.vectors[:, :n_modes]
    coeffs = F.T @ (weight_vector(dec.grid) * flatten(x))
    return unflatten(F @ coeffs, dec.grid, 1)


def test_projection_identities(gram_50):
    g, op, dec = gram_50
    rng = np.random.default_rng(10)
    x = random_smooth_state(g, 1, rng)
    # full projection recovers the state up to its ghost component
    p_full = project(dec, x, dec.dim, "P")
    q_full = project(dec, x, dec.dim, "Q")
    w = weight_vector(g)
    ghost_coeff = (w[:, None] * dec.ghost_vectors).T @ flatten(x)
    ghost_vec = unflatten(dec.ghost_vectors @ ghost_coeff, g, 1)
    np.testing.assert_allclose(flatten(p_full) + flatten(ghost_vec), flatten(x),
                               atol=1e-10)
    assert lifted_norm(q_full)[0] == pytest.approx(lifted_norm(ghost_vec)[0], rel=1e-8)
    # smooth states carry only a small ghost component
    assert lifted_norm(q_full)[0] <= 0.1 * lifted_norm(x)[0]
    # idempotence and complementarity at a middling mode count
    p = project(dec, x, 10, "P")
    q = project(dec, x, 10, "Q")
    np.testing.assert_allclose(flatten(p) + flatten(q), flatten(x), atol=1e-12)
    np.testing.assert_allclose(flatten(project(dec, p, 10, "P")), flatten(p),
                               atol=1e-10)


def test_projection_of_leading_mode(gram_50):
    g, _, dec = gram_50
    f1 = unflatten(dec.vectors[:, 0], g, 1)
    p1 = project(dec, f1, 1, "P")
    q1 = project(dec, f1, 1, "Q")
    np.testing.assert_allclose(flatten(p1), flatten(f1), atol=1e-10)
    assert lifted_norm(q1)[0] <= 1e-10


def test_tail_projector_refuses_a_mode_count_outside_one_to_dim(gram_50):
    _, _, dec = gram_50
    for n_modes in (0, dec.dim + 1):
        with pytest.raises(ValueError, match=rf"mode count must be in \[1, {dec.dim}\]"):
            dec.tail_projector(n_modes)


def test_tail_projector_norm_is_next_eigenvalue(gram_50):
    g, op, dec = gram_50
    w = weight_vector(g)
    prev = np.inf
    for n_modes in (1, 5, 10, 25, dec.dim):
        q = dec.tail_projector(n_modes)
        norm = g_operator_norm(op.matrix @ q, g)
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
        assert dissipativity_form(x)[0] == pytest.approx(-c * c, rel=1e-12)


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
        assert dissipativity_form(x)[0] <= 1e-8 * lifted_norm_sq(x)[0]


def test_dissipativity_matches_closed_form():
    for m in (100, 200):
        g = SegmentGrid(1.0, m)
        rng = np.random.default_rng(12)
        for _ in range(100):
            x = random_smooth_state(g, 1, rng)
            closed = -0.5 * float(x.heads[0] @ x.heads[0]) \
                - 0.5 * float(x.tails[0, 0] @ x.tails[0, 0])
            dev = abs(dissipativity_form(x)[0] - closed)
            assert dev <= 0.5 * g.h * (1.0 + lifted_norm_sq(x)[0])


def test_inverse_form_zero_tail():
    g = SegmentGrid(1.0, 20)
    x = state(g, 1.0, np.zeros((21, 1)))
    assert generator_inverse_form(x)[0] == pytest.approx(-1.0, rel=1e-12)


def test_inverse_form_zero_state():
    g = SegmentGrid(1.0, 20)
    x = state(g, 0.0, np.zeros((21, 1)))
    assert generator_inverse_form(x)[0] == 0.0


def test_inverse_form_random_sample_nonpositive():
    g = SegmentGrid(1.0, 200)
    rng = np.random.default_rng(13)
    for _ in range(1000):
        x = random_smooth_state(g, 1, rng, domain=False)
        assert generator_inverse_form(x)[0] <= 1e-8 * lifted_norm_sq(x)[0]


def test_weak_norm_dominated_by_operator_norm(gram_50):
    g, _, dec = gram_50
    rng = np.random.default_rng(14)
    bound = np.sqrt(dec.operator_norm)
    for _ in range(100):
        x = random_smooth_state(g, 1, rng, domain=False)
        assert minus_one_norm(x)[0] <= bound * lifted_norm(x)[0] + 1e-10


def test_spectral_ghost_count_matches_dimension():
    # the scalar Gram operator has one ghost; its flat form B x I_n, in the
    # flat weighted metric, has one per component and the scalar spectrum
    # n times over
    g = SegmentGrid(1.0, 20)
    dec = spectral_decomposition(assemble_gram_operator(g))
    assert dec.ghost_vectors.shape[1] == 1
    assert dec.dim == 21
    assert np.all(dec.eigenvalues > 0)
    for n in (1, 2, 3):
        s = np.sqrt(np.repeat(weight_vector(g), n))
        A = (s[:, None] * np.kron(inverse_generator_table(g), np.eye(n))) / s[None, :]
        lam = np.linalg.eigvalsh(A.T @ A)[::-1]
        assert lam.size == n * 22
        assert int(np.sum(lam <= 1e-13 * lam[0])) == n
        np.testing.assert_allclose(lam[:-n], np.repeat(dec.eigenvalues, n),
                                   rtol=0, atol=1e-13 * lam[0])


def test_spectral_decomposition_refuses_a_second_ghost():
    g = SegmentGrid(1.0, 20)
    op = assemble_gram_operator(g)
    dec = spectral_decomposition(op)
    # remove the leading mode from the operator: a second zero eigenvalue
    f = dec.vectors[:, :1]
    w = weight_vector(g)
    deflated = op.matrix - dec.operator_norm * f @ (w[:, None] * f).T
    with pytest.raises(NumericalError, match="exactly 1 ghost"):
        spectral_decomposition(OperatorMatrix(deflated, g))


def test_spectral_refuses_an_operator_that_is_not_selfadjoint(gram_50):
    # eigh reads one triangle only, so an asymmetric rescaled matrix would
    # give eigenpairs of some other operator
    g, op, _ = gram_50
    skew = op.matrix.copy()
    skew[0, 1] += 1e-3 * np.max(np.abs(op.matrix))
    with pytest.raises(NumericalError, match="symmetrization failure"):
        spectral_decomposition(OperatorMatrix(skew, g))


def test_inverse_matrix_matches_functional_form():
    # the flat inverse of an n = 2 state is the scalar matrix times I_2
    g = SegmentGrid(1.0, 12)
    M = np.kron(inverse_generator_table(g), np.eye(2))
    rng = np.random.default_rng(15)
    x = random_smooth_state(g, 2, rng, domain=False)
    np.testing.assert_allclose(M @ flatten(x), flatten(apply_generator_inverse(x)),
                               atol=1e-13)


@pytest.mark.parametrize("d,m", [(1.0, 1), (1.0, 2), (0.1, 4), (0.2, 20), (1.0, 50),
                                 (1.0, 400)])
def test_gram_operator_is_the_table_gram_bitwise(d, m):
    # assembled from the functional inverse, the Gram operator is the table's
    # weighted Gram matrix bit for bit, the signs of its zeros included
    g = SegmentGrid(d, m)
    C, w = inverse_generator_table(g), weight_vector(g)
    expected = (C.T * w[None, :]) @ C / w[:, None]
    got = assemble_gram_operator(g).matrix
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


# ---------------------------------------------------------------------------
# batches: one pass over S states against the loop over their one-sample
# batches

EPS = np.finfo(float).eps
ULPS = 4


def samples_of(x):
    """The samples of a batch, each a batch of one in its own layout."""
    return [LiftedBatch(x.grid, x.heads[i:i + 1], x.tails[i:i + 1])
            for i in range(len(x.heads))]


def assert_ulps(batch, loop, scale):
    """batch equals loop to a few ulp of each sample's scale (S,)."""
    loop = np.asarray(loop, dtype=float)
    scale = np.reshape(scale, (-1,) + (1,) * (loop.ndim - 1))
    assert np.all(np.abs(np.asarray(batch) - loop) <= ULPS * EPS * scale)


@settings(max_examples=30, deadline=None)
@given(m=st.sampled_from([1, 2]) | st.integers(3, 40), n=st.sampled_from([1, 2, 3]),
       size=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1]), seed=st.integers(0, 2 ** 32 - 1))
def test_batch_matches_the_per_state_loop(m, n, size, seed):
    # m = 1 and m >= 2 take the two branches of the generator's end stencil;
    # sizes around BLOCK cross sample_audit's block boundary
    g = SegmentGrid(1.0 + seed % 3, m)
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(size, n, SMOOTH_MODES))
    times = rng.uniform(0, 2 * g.d, size)
    times[::5] = 0.0  # the identity, per sample
    x = smooth_states(g, coeffs)
    xs = samples_of(x)
    norms = np.array([lifted_norm(s)[0] for s in xs])
    images = {}
    for op in (apply_generator, apply_generator_inverse):
        out, ref = op(x), [op(s) for s in xs]
        scale = [max(np.max(np.abs(r.heads)), np.max(np.abs(r.tails))) for r in ref]
        assert_ulps(out.heads, [r.heads[0] for r in ref], scale)
        assert_ulps(out.tails, [r.tails[0] for r in ref], scale)
        images[op] = np.array([lifted_norm(r)[0] for r in ref])
    out = apply_shift_semigroup(times, x)
    ref = [apply_shift_semigroup(t, s) for t, s in zip(times, xs)]
    np.testing.assert_array_equal(out.heads, [r.heads[0] for r in ref])
    np.testing.assert_array_equal(out.tails, [r.tails[0] for r in ref])
    # a pairing is at most the product of the norms (Cauchy-Schwarz)
    for form, op in ((dissipativity_form, apply_generator),
                     (generator_inverse_form, apply_generator_inverse)):
        assert_ulps(form(x), [form(s)[0] for s in xs], images[op] * norms)
    assert_ulps(lifted_norm_sq(x), [lifted_norm_sq(s)[0] for s in xs], norms ** 2)
    assert_ulps(minus_one_norm(x), [minus_one_norm(s)[0] for s in xs],
                images[apply_generator_inverse])
    # the audit's rows, BLOCK samples at a time
    rows = sample_audit(g, coeffs, times)
    ref = np.array([[dissipativity_form(s)[0] / r ** 2, generator_inverse_form(s)[0] / r ** 2,
                     np.linalg.norm(s.heads[0]), minus_one_norm(s)[0],
                     lifted_norm(apply_generator(apply_generator_inverse(s)) - s)[0] / r,
                     lifted_norm(apply_shift_semigroup(t, s))[0] / r]
                    for s, t, r in zip(xs, times, norms)])
    scale = np.column_stack([images[apply_generator] / norms,
                             images[apply_generator_inverse] / norms, np.abs(ref[:, 2:])])
    assert np.all(np.abs(rows - ref) <= ULPS * EPS * scale)


def test_batch_with_one_sample_outside_the_domain_is_refused():
    g = SegmentGrid(1.0, 10)
    x = smooth_states(g, np.random.default_rng(0).normal(size=(5, 2, SMOOTH_MODES)))
    heads = x.heads.copy()
    heads[3, 1] += 1e-6
    off = LiftedBatch(g, heads, x.tails)
    with pytest.raises(DomainError):
        apply_generator(off)
    with pytest.raises(DomainError):
        dissipativity_form(off)
    with pytest.raises(DomainError):
        apply_shift_semigroup(np.array([0.1, 0.2, -0.1, 0.0, 0.3]), x)


def test_a_state_is_a_batch_of_one():
    # one state goes in as a batch of one: an operator gives a batch of one,
    # a form or norm an array of one value, that sample's value in a larger
    # batch bit for bit
    g = SegmentGrid(1.0, 12)
    batch = smooth_states(g, np.random.default_rng(1).normal(size=(3, 2, SMOOTH_MODES)))
    x = LiftedBatch(g, batch.heads[1:2], batch.tails[1:2])
    for op in (apply_generator, apply_generator_inverse,
               lambda s: apply_shift_semigroup(0.3, s)):
        out = op(x)
        assert type(out) is LiftedBatch
        assert out.heads.shape == (1, 2) and out.tails.shape == (1, 13, 2)
        np.testing.assert_array_equal(out.tails[0], op(batch).tails[1])
    for form in (dissipativity_form, generator_inverse_form, minus_one_norm, lifted_norm_sq,
                 lifted_norm, lambda s: lifted_inner(s, s)):
        value = form(x)
        assert type(value) is np.ndarray and value.shape == (1,)
        assert value[0] == form(batch)[1]


def test_random_smooth_state_draws_as_the_batch():
    # one state's coefficients are drawn as the batch draws a sample's
    g = SegmentGrid(1.0, 9)
    x = random_smooth_state(g, 3, np.random.default_rng(4))
    batch = smooth_states(g, np.random.default_rng(4).normal(size=(1, 3, SMOOTH_MODES)))
    np.testing.assert_array_equal(x.tails, batch.tails)
    np.testing.assert_array_equal(x.heads, batch.heads)
