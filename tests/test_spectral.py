"""Core operator plumbing and eigensolver checks.

Oracle strategy: every numeric expectation here is either a closed form
(path-graph eigenvalues 2cos(k pi/(n+1))) or an independent dense
eigensolve via numpy on the same matrix.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import amenspec
from amenspec import (CERT_TOL, InputError, LinOp, ZLattice, build_ball,
                      cayley_operator, fingerprint, fusion, in_spectrum, pair_lattice,
                      pair_window_operator, residual, spectral, spectral_radius,
                      truncation_sweep)


def path_operator(n):
    """0/1 adjacency of the path graph on n vertices."""
    rows = list(range(n - 1)) + list(range(1, n))
    cols = list(range(1, n)) + list(range(n - 1))
    return LinOp.from_entries(n, rows, cols, np.ones(2 * (n - 1)))


def shuffled_path_operator(n):
    """path_operator(n) with its points in a fixed random order: the same
    spectrum and the same Lanczos run from the constant start, up to
    rounding, but a band too wide for the bracket finish, n b^2 > 16 nnz,
    so that the run goes on past step 16."""
    p = np.random.default_rng(n).permutation(n)
    op = LinOp(path_operator(n).matrix[p][:, p])
    assert op.n * op.bandwidth ** 2 > spectral._CHECK * op.nnz
    return op


def scaled_draw(scale=1.0):
    """The 29-point [0, 1)-weight matrix whose solve, scaled by 1e-150, once
    closed after one step, 8.6 % below its radius."""
    rng = np.random.default_rng(249228)
    half = sp.random(29, 29, density=0.285, random_state=rng, format="csr")
    return (sp.triu(half) + sp.triu(half, 1).T).toarray() * scale


def z2_ball_operator(radius):
    return cayley_operator(ZLattice(2), {g: 1.0 for g in ZLattice(2).generator_names},
                           build_ball(ZLattice(2), radius))


def path_top(n):
    return 2.0 * math.cos(math.pi / (n + 1))


def eigen_classes(m):
    """The distinct eigenvalues (to 1e-10) of the dense symmetric m, their
    multiplicities, and which are main: their eigenspace P_lambda meets the
    all-ones vector, ||P_lambda 1|| > 1e-8."""
    evs, vecs = np.linalg.eigh(m)
    labels = np.round(evs, 10)
    ones = np.ones(len(evs))
    classes = [labels == lam for lam in np.unique(labels)]
    return (np.array([evs[c].min() for c in classes]), np.array([c.sum() for c in classes]),
            np.array([np.linalg.norm(vecs[:, c].T @ ones) > 1e-8 for c in classes]))


def main_eigenvalues(m):
    lams, _, main = eigen_classes(m)
    return list(lams[main])


# -- package surface ----------------------------------------------------------


def test_exports_exist_once():
    assert len(amenspec.__all__) == len(set(amenspec.__all__))
    for name in amenspec.__all__:
        assert hasattr(amenspec, name), name


# -- operator construction ----------------------------------------------------


def test_apply_matches_dense():
    op = path_operator(6)
    v = np.arange(6.0)
    assert np.allclose(op.apply(v), op.to_dense() @ v)
    assert op.nnz == 10
    assert fingerprint(op)["symmetric"] is True
    assert fingerprint(op)["boundary_policy"] == "zero-pad"


def test_apply_is_linear():
    op = path_operator(9)
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(9), rng.standard_normal(9)
    assert np.allclose(op.apply(2.0 * x - y), 2.0 * op.apply(x) - op.apply(y))


def test_entry_lookup_and_iteration():
    op = path_operator(4)
    assert op.matrix[0, 1] == 1.0
    assert op.matrix[0, 3] == 0.0
    coo = op.matrix.tocoo()
    seen = {(i, j): v for i, j, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())}
    assert seen[(2, 3)] == 1.0
    assert len(seen) == 6 and op.n == 4


def test_duplicate_entries_are_summed():
    op = LinOp.from_entries(2, [0, 0], [1, 1], [1.0, 2.0])
    assert op.matrix[0, 1] == 3.0 and op.nnz == 1


def test_symmetry_is_checked_once_per_build(monkeypatch):
    # the leading blocks and the fingerprint of an exactly symmetric operator
    # share the one check its flag's first read makes; an asymmetric one
    # reports its defect from its one check
    calls = []
    check = LinOp.symmetry_defect
    monkeypatch.setattr(LinOp, "symmetry_defect", lambda self: calls.append(1) or check(self))
    op = path_operator(30)
    blocks = [op.leading_block(m) for m in (1, 10, 29)]
    assert all(b.symmetric for b in blocks) and len(calls) == 1
    assert fingerprint(blocks[-1])["max_asymmetry"] == 0.0 and len(calls) == 1
    asym = LinOp.from_entries(2, [0], [1], [2.0])
    calls.clear()
    assert fingerprint(asym)["max_asymmetry"] == 2.0 and len(calls) == 1
    assert not asym.symmetric and len(calls) == 1
    assert asym.leading_block(1).symmetric     # [[0]]: measured, not inherited


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 10 ** 6), st.booleans())
def test_symmetry_is_measured_from_the_matrix(n, density, seed, mirror):
    # random nonnegative sparse m, mirrored to be symmetric or not; every
    # leading block is measured from its own entries or marked by its parent
    rng = np.random.default_rng(seed)
    m = sp.random(n, n, density=density, random_state=rng,
                  data_rvs=lambda k: rng.integers(1, 3, k)).toarray()
    if mirror:
        m = np.triu(m) + np.triu(m, 1).T
    op = LinOp(m)
    assert op.symmetric == (m == m.T).all()
    for k in range(1, n + 1):
        assert op.leading_block(k).symmetric == (m[:k, :k] == m[:k, :k].T).all()


def test_operator_input_errors():
    with pytest.raises(InputError):
        LinOp.from_entries(3, [0], [5], [1.0])
    with pytest.raises(InputError):
        LinOp.from_entries(3, [0], [0], [np.nan])
    op = path_operator(3)
    with pytest.raises(InputError):
        op.apply(np.ones(5))
    with pytest.raises(InputError):
        path_operator(30).to_dense(limit=10)


def test_operator_matrix_must_be_square_and_nonempty():
    # the matrix alone sets the size n, so it must be n x n with n >= 1
    for m in (np.ones((2, 3)), np.ones((3, 2)), np.zeros((0, 0)), sp.csr_matrix((0, 4))):
        with pytest.raises(InputError, match="square and nonempty"):
            LinOp(m)
    with pytest.raises(InputError, match="square and nonempty"):
        LinOp.from_entries(0, [], [], [])
    op = LinOp(np.ones((1, 1)))
    assert op.n == 1 and op.leading_block(1) is op


# -- spectral radius ----------------------------------------------------------


def test_radius_path5_closed_form():
    rep = spectral_radius(path_operator(5))
    assert abs(rep.radius_estimate - math.sqrt(3)) < 1e-8
    assert rep.converged
    assert rep.radius_lower_bound <= rep.radius_estimate + 1e-15
    # both spectrum ends show up in the eigenvalue summary
    assert any(abs(t - math.sqrt(3)) < 1e-8 for t in rep.top_eigenvalues)
    assert any(abs(t + math.sqrt(3)) < 1e-8 for t in rep.top_eigenvalues)


def test_radius_identity_and_zero():
    ident = LinOp.from_entries(7, range(7), range(7), np.ones(7))
    assert abs(spectral_radius(ident).radius_estimate - 1.0) < 1e-12
    zero = LinOp.from_entries(7, [], [], [])
    rep = spectral_radius(zero)
    assert rep.radius_estimate == 0.0 and rep.converged


def test_radius_matches_dense_on_random_symmetric():
    rng = np.random.default_rng(11)
    for n in (3, 17, 60):
        m = np.abs(rng.standard_normal((n, n)))
        m = m + m.T
        op = LinOp(m)
        want = float(np.abs(np.linalg.eigvalsh(m)).max())
        rep = spectral_radius(op)
        assert abs(rep.radius_estimate - want) < 1e-8
        assert rep.radius_lower_bound <= want + 1e-8


def test_radius_of_an_asymmetric_operator_is_an_input_error():
    # [[0, 0], [1, 0]] is nilpotent: radius 0, but a symmetric solve reads
    # 0.707 from it, with a "rigorous" lower bound of 0.354
    with pytest.raises(InputError, match="symmetric"):
        spectral_radius(LinOp([[0, 0], [1, 0]]))
    with pytest.raises(InputError, match="symmetric"):
        truncation_sweep(LinOp(np.triu(np.ones((3, 3)))), [2, 3])


def test_radius_negative_dominant_eigenvalue():
    # the star K_{1,3} is bipartite: its negative end -sqrt(3) is as large as rho
    m = np.zeros((4, 4))
    m[0, 1:] = m[1:, 0] = 1.0
    rep = spectral_radius(LinOp(m))
    assert abs(rep.radius_estimate - math.sqrt(3)) < 1e-10
    assert abs(min(rep.top_eigenvalues) + math.sqrt(3)) < 1e-10


def test_negative_entries_are_input_errors():
    with pytest.raises(InputError, match="nonnegative"):
        LinOp(np.diag([-5.0, 1.0, 2.0]))
    with pytest.raises(InputError, match="nonnegative"):
        LinOp.from_entries(3, [0, 1], [1, 0], [-1.0, -1.0])


def test_rayleigh_quotients_never_beat_radius():
    op = path_operator(40)
    rep = spectral_radius(op)
    rng = np.random.default_rng(5)
    for _ in range(25):
        v = rng.standard_normal(40)
        rq = abs(v @ op.apply(v)) / (v @ v)
        assert rq <= rep.radius_estimate + 1e-9


def test_spent_budget_reports_unconverged_lanczos():
    op = path_operator(400)
    rep = spectral_radius(op, max_iter=12)
    assert rep.method == "lanczos"
    assert rep.iterations == 12
    assert rep.converged is False
    assert rep.radius_estimate <= 2.0 + 1e-9
    # converged promises an estimate within tol, even for a loose tol
    loose = spectral_radius(op, max_iter=12, tol=1e-3)
    err = abs(loose.radius_estimate - path_top(400))
    assert not loose.converged or err <= 1e-3 * path_top(400)


def test_basis_past_its_memory_cap_is_never_started(monkeypatch):
    # a basis of _MAX_BASIS entries holds 50 vectors of 2000: the budget of
    # 300 steps is cut to 50, and the run says it spent its budget
    monkeypatch.setattr(spectral, "_MAX_BASIS", 50 * 2000 + 1999)
    res = spectral._lanczos(shuffled_path_operator(2000), spectral.EIGEN_TOL, 300)
    assert (res.iterations, res.stop) == (50, "budget")
    assert sum(len(B) for B in res.blocks) == 50
    rep = spectral_radius(shuffled_path_operator(2000))
    assert (rep.iterations, rep.stop, rep.converged) == (50, "budget", False)


def test_closure_takes_one_run_on_repeated_eigenvalues():
    # the constant start stays in the ball's symmetric sector: the run closes
    # at the 3 main eigenvalues, not at the 7 distinct ones
    group = ZLattice(2)
    op = cayley_operator(group, {g: 1.0 for g in group.generator_names},
                         build_ball(group, 2))
    dense = np.linalg.eigvalsh(op.to_dense())
    assert op.n == 13 and np.unique(np.round(dense, 10)).size == 7
    rep = spectral_radius(op)
    assert rep.converged and rep.stop == "closure"
    assert rep.iterations == len(main_eigenvalues(op.to_dense())) == 3
    assert abs(rep.radius_estimate - np.abs(dense).max()) < 1e-12


def test_lanczos_basis_grows_by_blocks_without_copies():
    # each step adds one row to a block of spectral._BLOCK rows; the basis is
    # never copied, so the peak is the rows allocated plus a few work vectors
    n = 50_000
    op = shuffled_path_operator(n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = spectral._lanczos(op, spectral.EIGEN_TOL, 60)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    k = res.iterations
    assert k == 60 and not res.converged
    assert peak <= (math.ceil((k + 1) / 32) * 32 + 4) * n * 8


def orthonormality_defect(res):
    basis = np.vstack(res.blocks)
    return float(np.abs(basis @ basis.T - np.eye(len(basis))).max())


def test_one_gram_schmidt_pass_keeps_the_basis_orthonormal():
    res = spectral._lanczos(shuffled_path_operator(2000), spectral.EIGEN_TOL, 300)
    assert res.iterations == 300 and res.stop == "budget"
    assert res.second_passes == 0
    # partial reorthogonalization: 40 of the 300 steps run Gram-Schmidt; the
    # step after each is forced, else the estimates re-trigger (107 steps)
    assert res.reorthogonalized <= 60
    assert orthonormality_defect(res) <= 1e-12


def test_basis_stays_orthonormal_across_sixteen_decades():
    # Ritz values converge at both ends at once, where plain Lanczos loses
    # orthogonality first
    n = 600
    op = LinOp(sp.diags(np.geomspace(1e-8, 1e8, n)))
    res = spectral._lanczos(op, spectral.EIGEN_TOL, n)
    assert orthonormality_defect(res) <= 1e-12


def test_closure_takes_the_second_gram_schmidt_pass():
    # at closure the new vector lies in the span of the basis, so the first
    # pass removes nearly all of its norm and the DGKS test asks for a second
    # one; the path's reflection halves its 50 eigenvalues to 25 main ones
    op = shuffled_path_operator(50)
    res = spectral._lanczos(op, spectral.EIGEN_TOL, 50)
    assert res.stop == "closure"
    assert res.iterations == len(main_eigenvalues(op.to_dense())) == 25
    assert res.second_passes >= 1
    assert orthonormality_defect(res) <= 1e-12


def test_solves_say_why_they_stopped():
    # the path's 25 main eigenvalues would close its run at step 25; its band
    # of 1 hands it to the bracket finish at step 16, a wide band does not
    assert spectral_radius(path_operator(50), max_iter=50).stop == "bracket"
    assert spectral_radius(shuffled_path_operator(50), max_iter=50).stop == "closure"
    assert spectral_radius(path_operator(400), max_iter=12).stop == "budget"
    zero = LinOp.from_entries(3, [], [], [])
    assert spectral_radius(zero).stop == "closure"
    # the 20-point block closes, the 100-point one (50 main eigenvalues)
    # spends its budget of 30
    rep = truncation_sweep(shuffled_path_operator(100), [20, 100], max_iter=30)
    assert rep.stop == "budget" and rep.to_dict()["stop"] == "budget"
    assert truncation_sweep(path_operator(60), [20], max_iter=30).stop == "closure"


def test_a_sweep_spends_its_budget_if_any_size_does():
    # the leading 100 points are a wide-band path, whose 50 main eigenvalues
    # outlast 30 steps; the full operator adds a 10-clique of weight 10, whose
    # radius 90 stands so far from the rest that its run stops on the
    # residual bound: the sweep still says a solve spent its budget
    clique = sp.csr_matrix(10.0 * (np.ones((10, 10)) - np.eye(10)))
    op = LinOp(sp.block_diag([shuffled_path_operator(100).matrix, clique], format="csr"))
    assert spectral_radius(op, max_iter=30).stop == "residual"
    rep = truncation_sweep(op, [100, 110], max_iter=30)
    assert rep.stop == "budget" and not rep.converged
    assert rep.truncation_trace[-1][1] == pytest.approx(90.0, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60), st.data())
def test_extreme_ritz_values_are_those_of_eigvalsh_tridiagonal(diag, data):
    # the top Ritz value is bisected, as eigvalsh_tridiagonal does
    k = len(diag)
    off = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=k - 1, max_size=k - 1))
    d, e = np.array(diag), np.array(off)
    want = float(scipy.linalg.eigvalsh_tridiagonal(d, e, select="i",
                                                   select_range=(k - 1, k - 1))[0])
    assert spectral._top_ritz(d, e)[0] == want


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 300), st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans(),
       st.data())
def test_last_components_are_those_of_the_full_tridiagonal_solve(k, seed, constant, split,
                                                                 data):
    # scaled as _lanczos scales it; the component comes from one dstein at
    # the bisected value, and a split tridiagonal keeps it in its own block
    rng = np.random.default_rng(seed)
    d = np.full(k, rng.standard_normal()) if constant else rng.standard_normal(k)
    e = rng.standard_normal(k - 1)
    if split:
        e[data.draw(st.integers(0, k - 2))] = 0.0
    f = math.ldexp(1.0, -math.frexp(np.abs(d).max() + 2 * np.abs(e).max())[1])
    d, e = d * f, e * f
    w, S = scipy.linalg.eigh_tridiagonal(d, e)
    # a top eigenvalue that is (nearly) repeated has no one eigenvector
    assume(w[-1] - w[-2] >= 1e-3 * float(np.abs(w).max()))
    assert abs(spectral._top_ritz(d, e)[1] - abs(S[-1, -1])) <= 1e-12


def random_lanczos_run(n, density, seed, graph):
    """The _lanczos run, budget n, tol 1e-10, on a random nonnegative
    symmetric matrix with 0/1 or [0, 1) weights, or None for the zero matrix."""
    rng = np.random.default_rng(seed)
    half = sp.random(n, n, density=density, random_state=rng, format="csr",
                     data_rvs=np.ones if graph else None)
    m = (sp.triu(half) + sp.triu(half, 1).T).toarray()
    return spectral._lanczos(LinOp(m), 1e-10, n) if m.any() else None


def full_tridiagonal_solve(res):
    """Every eigenpair of the run's tridiagonal T, unscaled, by scipy's full solve."""
    return scipy.linalg.eigh_tridiagonal(res.d / res.f, res.e / res.f)


def assert_ritz_values_are_those_of_the_full_solve(res):
    # values-only QR moves each value by a few k eps ||T||
    w, _ = full_tridiagonal_solve(res)
    k = res.iterations
    assert res.thetas.shape == (k,)
    assert np.abs(res.thetas - w).max() <= 4 * k * spectral._EPS * np.abs(w).max()


def assert_ritz_vectors_are_those_of_the_full_solve(res):
    # up to sign, wherever theta_i is apart from the others by 1e-3 ||T||
    w, S = full_tridiagonal_solve(res)
    basis = np.vstack(res.blocks)
    gaps = np.abs(w[:, None] - w[None, :]) + np.diag(np.full(len(w), np.inf))
    for i in np.flatnonzero(gaps.min(axis=1) >= 1e-3 * np.abs(w).max()):
        v = S[:, i] @ basis
        v /= np.linalg.norm(v)
        u = res.ritz_vector(int(i))
        assert min(np.linalg.norm(u - v), np.linalg.norm(u + v)) <= 1e-10


def test_final_ritz_pairs_on_the_path_are_those_of_the_full_solve():
    res = spectral._lanczos(shuffled_path_operator(2000), spectral.EIGEN_TOL, 300)
    assert res.iterations == 300
    assert_ritz_values_are_those_of_the_full_solve(res)
    assert_ritz_vectors_are_those_of_the_full_solve(res)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), st.floats(0.005, 0.3), st.integers(0, 10 ** 6), st.booleans())
def test_final_ritz_pairs_are_those_of_the_full_solve(n, density, seed, graph):
    res = random_lanczos_run(n, density, seed, graph)
    assume(res is not None)
    assert_ritz_values_are_those_of_the_full_solve(res)
    assert_ritz_vectors_are_those_of_the_full_solve(res)


def test_a_solve_forms_only_the_ritz_vectors_it_reads(monkeypatch):
    # no full tridiagonal solve, and no k x k array kept: one dstein at each
    # of the 19 checkpoints of the 300-step run, then one for the Ritz
    # vector of the radius, which is also the one nearest to 3
    def refused(*args, **kw):
        raise AssertionError("full tridiagonal eigendecomposition")

    calls = []
    dstein = scipy.linalg.lapack.dstein
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", refused)
    monkeypatch.setattr(scipy.linalg.lapack, "dstein",
                        lambda *args: calls.append(len(args[0])) or dstein(*args))
    cert = in_spectrum(shuffled_path_operator(2000), 3.0)
    res = cert._run[2]
    assert res.iterations == 300 and cert.spectral.radius_estimate > 1.99
    assert calls == list(range(16, 300, 16)) + [300, 300]
    assert list(res.vectors) == [299]
    assert all(np.ndim(v) <= 1 for name, v in vars(res).items() if name != "blocks")


def checkpoint_calls(monkeypatch, op, tol, budget):
    """The run _lanczos(op, tol, budget) with each top Ritz pair read from
    every eigenvector of the tridiagonal; the steps of those reads; and the
    tridiagonal (alphas, betas) of the last one, scaled as _lanczos scales it."""
    top_ritz, calls = spectral._top_ritz, []

    def full_solve(alphas, betas):
        calls.append((alphas, betas))
        _, S = scipy.linalg.eigh_tridiagonal(alphas, betas)
        return top_ritz(alphas, betas)[0], abs(S[-1, -1])

    with monkeypatch.context() as mp:
        mp.setattr(spectral, "_top_ritz", full_solve)
        res = spectral._lanczos(op, tol, budget)
    return res, [len(a) for a, _ in calls], calls[-1]


@pytest.mark.parametrize("build", [
    lambda: pair_window_operator(pair_lattice(20), [(-1, 0), (0, 1)]),
    lambda: z2_ball_operator(20)], ids=["pairs20", "Z2r20"])
def test_lanczos_stops_at_the_first_checkpoint_where_the_residual_bound_holds(build,
                                                                             monkeypatch):
    # the run stops at the first checkpoint where beta |s| <= tol theta / 2,
    # and where it stops when each s is read from every eigenvector instead
    op = build()
    fast = spectral._lanczos(op, spectral.EIGEN_TOL, 300)
    slow, steps, _ = checkpoint_calls(monkeypatch, op, spectral.EIGEN_TOL, 300)
    assert (fast.iterations, fast.stop, fast.second_passes) == \
        (slow.iterations, slow.stop, slow.second_passes)
    assert np.array_equal(fast.thetas, slow.thetas)
    k = slow.iterations
    assert slow.stop == "residual"
    assert steps == list(range(spectral._CHECK, k + 1, spectral._CHECK))
    # the same steps, run one past the stop with no residual test, give the
    # beta_j of every checkpoint j, the stop's included
    longer, _, (alphas, betas) = checkpoint_calls(monkeypatch, op, 1e-300, k + 1)
    assert longer.stop == "budget" and len(alphas) == k + 1
    held = []
    for j in steps:
        w, S = scipy.linalg.eigh_tridiagonal(alphas[:j], betas[:j - 1])
        held.append(betas[j - 1] * abs(S[-1, -1]) <= 0.5 * spectral.EIGEN_TOL * w[-1])
    assert held == [False] * (len(steps) - 1) + [True]


def test_lanczos_reads_the_top_ritz_pair_only_at_checkpoints(monkeypatch):
    # a run that spends its budget of 300: checkpoints 16, 32, ..., 288 and
    # the budget's last step
    res, steps, _ = checkpoint_calls(monkeypatch, shuffled_path_operator(2000),
                                     spectral.EIGEN_TOL, 300)
    assert res.stop == "budget" and len(steps) == 19
    assert steps == list(range(spectral._CHECK, 300, spectral._CHECK)) + [300]


def test_top_ritz_values_are_bisected_once_per_checkpoint(monkeypatch):
    # one dstebz bisection at each of the 19 checkpoints, and no inertia
    # factorization (dpttrf) anywhere
    calls = {"dstebz": [], "dpttrf": []}
    for name, log in calls.items():
        lapack = getattr(scipy.linalg.lapack, name)
        monkeypatch.setattr(scipy.linalg.lapack, name,
                            lambda *args, lapack=lapack, log=log: log.append(len(args[0]))
                            or lapack(*args))
    res = spectral._lanczos(shuffled_path_operator(2000), spectral.EIGEN_TOL, 300)
    assert res.iterations == 300
    assert calls["dstebz"] == list(range(16, 300, 16)) + [300]
    assert calls["dpttrf"] == []


@pytest.mark.parametrize("scale", [1e-150, 1e-300])
def test_stop_tests_are_relative_below_norm_one(scale):
    # at 1e-150 the closure test once read beta against 1, not the norm, and
    # at 1e-300 beta^2 underflows
    top = np.linalg.eigvalsh(scaled_draw())[-1]
    res = spectral._lanczos(LinOp(scaled_draw(scale)), 1e-10, 29)
    assert res.converged
    assert abs(res.thetas[-1] / scale - top) <= 1e-10 * top


@pytest.mark.parametrize("build", [lambda: path_operator(2000), lambda: z2_ball_operator(20),
                                   lambda: LinOp(scaled_draw())],
                         ids=["path2000", "Z2r20", "draw29"])
@pytest.mark.parametrize("e", [-300, 300])
def test_power_of_two_scalings_run_the_same_solve(build, e):
    op = build()
    res = spectral._lanczos(op, spectral.EIGEN_TOL, 300)
    scaled = spectral._lanczos(LinOp(op.matrix * math.ldexp(1.0, e)),
                               spectral.EIGEN_TOL, 300)
    assert (scaled.iterations, scaled.stop, scaled.second_passes) == \
        (res.iterations, res.stop, res.second_passes)
    assert np.array_equal(scaled.thetas, np.ldexp(res.thetas, e))


@pytest.mark.parametrize("e", [-60, 60])
def test_top_eigenvalues_keep_every_value_at_any_scale(e):
    # the 12-point path meets its constant start in 6 main eigenvalues; at
    # 2^-60 an absolute rounding of the values once merged them into one
    want = spectral_radius(path_operator(12)).top_eigenvalues
    scaled = spectral_radius(LinOp(path_operator(12).matrix * math.ldexp(1.0, e)))
    assert len(want) == 6
    assert scaled.top_eigenvalues == [math.ldexp(t, e) for t in want]


class CountingMatrix:
    """Stands in for a LinOp's matrix and counts matrix-vector products."""

    def __init__(self, m):
        self.m, self.nnz, self.shape, self.products = m, m.nnz, m.shape, 0

    def __matmul__(self, v):
        self.products += 1
        return self.m @ v


@pytest.mark.parametrize("solve", [spectral_radius, lambda op: in_spectrum(op, 1.0)])
def test_overflowing_product_fails_at_its_first_step(solve):
    # the first product overflows, so the first beta is inf: the solve stops
    # there instead of running on NaNs until its budget is spent
    op = LinOp(np.full((4, 4), 1e308))
    assert op.symmetric         # measured before the stand-in, which has no transpose
    op.matrix = CountingMatrix(op.matrix)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(InputError, match="step 1: .* operator overflows"):
        solve(op)
    assert op.matrix.products == 1


def test_radius_rejects_bad_tol():
    with pytest.raises(InputError):
        spectral_radius(path_operator(3), tol=0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_solvers_reject_non_finite_tol(tol):
    with pytest.raises(InputError, match="finite"):
        spectral_radius(path_operator(3), tol=tol)
    with pytest.raises(InputError, match="finite"):
        in_spectrum(path_operator(3), 1.0, tol=tol)
    with pytest.raises(InputError, match="finite"):
        truncation_sweep(path_operator(20), [10, 20], tol=tol)


@pytest.mark.parametrize("max_iter", [0, -5])
def test_solvers_reject_empty_budget(max_iter):
    op = path_operator(50)
    with pytest.raises(InputError, match="max_iter"):
        spectral_radius(op, max_iter=max_iter)
    with pytest.raises(InputError, match="max_iter"):
        in_spectrum(op, 1.0, max_iter=max_iter)
    with pytest.raises(InputError, match="max_iter"):
        truncation_sweep(path_operator(20), [10, 20], max_iter=max_iter)


def test_radius_deterministic_for_fixed_seed():
    # the solve draws nothing, so it takes no seed at all
    a = spectral_radius(path_operator(90))
    b = spectral_radius(path_operator(90))
    assert a.to_dict() == b.to_dict()


# -- membership ---------------------------------------------------------------


def test_residual_of_exact_eigenvector_is_zero():
    op = path_operator(12)
    k = np.arange(1, 13)
    v = np.sin(math.pi * 1 * k / 13.0)
    lam = 2.0 * math.cos(math.pi / 13.0)
    assert residual(op, lam, v) < 1e-12
    with pytest.raises(InputError):
        residual(op, lam, np.zeros(12))


def test_in_spectrum_certifies_path50_top():
    op = path_operator(50)
    k = np.arange(1, 51)
    witness = np.sin(math.pi * k / 51.0)
    cert = in_spectrum(op, 2.0, tol=CERT_TOL, witnesses=[("sine", witness)])
    # the sine mode has residual 2 - 2cos(pi/51) against the limit target
    want = 2.0 - path_top(50)
    assert cert.certified
    assert cert.best_residual <= want + 1e-9
    assert cert.witness_id in ("sine", "lanczos-ritz", "shift-invert")


def test_in_spectrum_reports_gap_for_outside_target():
    op = path_operator(50)
    cert = in_spectrum(op, 3.0, tol=CERT_TOL)
    dist = 3.0 - path_top(50)
    assert not cert.certified
    assert cert.best_residual >= dist - 1e-9   # residuals never undershoot
    assert abs(cert.gap_hint - dist) < 1e-6


def test_in_spectrum_interior_target_small_operator():
    # small operator: the Krylov space closes and interior targets certify
    op = path_operator(120)
    target = 2.0 * math.cos(60 * math.pi / 121.0)
    cert = in_spectrum(op, target, tol=1e-6)
    assert cert.certified


def test_in_spectrum_interior_target_large_operator():
    # extremal Ritz pairs miss interior targets once the iteration budget is
    # below the size; inverse iteration at the exact eigenvalue still certifies
    op = path_operator(1000)
    target = 2.0 * math.cos(500 * math.pi / 1001.0)
    cert = in_spectrum(op, target, tol=5e-2)
    assert cert.certified
    assert cert.witness_id == "shift-invert"
    assert cert.best_residual < 1e-12


def test_in_spectrum_certifies_exactly_representable_eigenvalue():
    # 0 is an eigenvalue of the odd path and A itself is exactly singular in
    # floating point; the shift just off target keeps the factor usable
    cert = in_spectrum(path_operator(201), 0.0, tol=1e-6, max_iter=20)
    assert cert.certified and cert.witness_id == "shift-invert"


def test_in_spectrum_skips_zero_and_unnamed_witnesses():
    op = path_operator(8)
    cert = in_spectrum(op, 1.0, witnesses=[np.zeros(8), np.ones(8)])
    assert cert.witness_id in ("witness-1", "lanczos-ritz", "shift-invert")


def test_in_spectrum_input_errors():
    asym = LinOp.from_entries(2, [0], [1], [1.0])
    with pytest.raises(InputError, match="symmetric"):
        in_spectrum(asym, 1.0)
    op = path_operator(5)
    with pytest.raises(InputError):
        in_spectrum(op, 1.0, witnesses=[np.ones(3)])
    with pytest.raises(InputError):
        in_spectrum(op, 1.0, tol=-1.0)


def test_in_spectrum_lets_unrelated_solver_errors_out(monkeypatch):
    def broken(op, tol, max_iter):
        raise TypeError("solver bug")

    monkeypatch.setattr(spectral, "_lanczos", broken)
    with pytest.raises(TypeError):
        in_spectrum(path_operator(20), 1.0)


def test_in_spectrum_falls_back_to_witnesses_on_eigensolver_failure(monkeypatch):
    def failing(op, tol, max_iter):
        raise scipy.linalg.LinAlgError("tridiagonal solve did not converge")

    monkeypatch.setattr(spectral, "_lanczos", failing)
    k = np.arange(1, 51)
    cert = in_spectrum(path_operator(50), 2.0, witnesses=[("sine", np.sin(math.pi * k / 51.0))])
    assert cert.witness_id == "sine" and cert.certified
    assert cert.gap_hint == math.inf
    assert cert.errors == ["lanczos-ritz: tridiagonal solve did not converge"]


def _interior_miss():
    """An interior target that a 30-step Lanczos and a flat witness both miss."""
    op = path_operator(400)
    return op, 2.0 * math.cos(200 * math.pi / 401.0), ("flat", np.ones(400))


def test_in_spectrum_keeps_other_routes_on_singular_factor(monkeypatch):
    op, target, flat = _interior_miss()
    assert in_spectrum(op, target, witnesses=[flat], max_iter=30).witness_id == "shift-invert"
    factored = []

    def singular(matrix):
        factored.append(matrix.shape)
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    cert = in_spectrum(op, target, witnesses=[flat], max_iter=30)
    assert factored == [(400, 400)]
    assert cert.witness_id in ("flat", "lanczos-ritz")
    assert not cert.certified
    assert cert.best_residual <= residual(op, target, flat[1])
    assert math.isfinite(cert.gap_hint)


def test_certificate_records_a_singular_factor(monkeypatch):
    op, target, flat = _interior_miss()
    clean = in_spectrum(op, target, witnesses=[flat], max_iter=30)
    assert clean.errors == [] and clean.to_dict()["errors"] == []

    def singular(matrix):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    cert = in_spectrum(op, target, witnesses=[flat], max_iter=30)
    assert cert.errors == ["shift-invert: Factor is exactly singular"]
    assert cert.to_dict()["errors"] == cert.errors


def test_in_spectrum_lets_factorisation_bugs_out(monkeypatch):
    def broken(matrix):
        raise TypeError("factorisation bug")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", broken)
    op, target, flat = _interior_miss()
    with pytest.raises(TypeError):
        in_spectrum(op, target, witnesses=[flat], max_iter=30)


def test_lanczos_run_shared_between_certificate_and_radius(monkeypatch):
    solved = []
    orig = spectral._lanczos

    def counting(op, tol, max_iter):
        solved.append(op)
        return orig(op, tol, max_iter)

    monkeypatch.setattr(spectral, "_lanczos", counting)
    zero = LinOp.from_entries(5, [], [], [])
    for op, target in ((path_operator(400), 3.0), (path_operator(400), 1.0), (zero, 0.5)):
        solved.clear()
        cert = in_spectrum(op, target, max_iter=120)
        assert solved == [op]
        assert "spectral" not in cert.to_dict()
        assert cert.spectral.to_dict() == spectral_radius(op, max_iter=120).to_dict()

        # a reused run makes no solve and the same certificate
        solved.clear()
        again = in_spectrum(op, 2.0 * target, max_iter=120, reuse=cert)
        assert solved == []
        assert again.to_dict() == in_spectrum(op, 2.0 * target, max_iter=120).to_dict()
        assert again.spectral.to_dict() == cert.spectral.to_dict()


def test_certificate_forms_the_radius_ritz_vector_once():
    # the target lies above the spectrum: its nearest Ritz value is the radius's
    cert = in_spectrum(path_operator(400), 3.0)
    assert list(cert._run[2].vectors) == [len(cert._run[2].thetas) - 1]


def test_reuse_needs_the_same_operator_seed_and_budget():
    op = path_operator(60)
    cert = in_spectrum(op, 1.0)
    for other, kw in ((path_operator(60), {}), (op, {"max_iter": 299})):
        with pytest.raises(InputError, match="reuse"):
            in_spectrum(other, 1.0, reuse=cert, **kw)
    # the Lanczos run draws nothing, so another seed may reuse it; the seed
    # still picks the shift-invert start, which decides this target
    again = in_spectrum(op, 1.0, seed=8, reuse=cert)
    fresh = in_spectrum(op, 1.0, seed=8)
    assert fresh.witness_id == "shift-invert"
    assert again.to_dict() == fresh.to_dict() != cert.to_dict()
    with pytest.raises(InputError, match="reuse"):
        in_spectrum(op, 1.0, reuse=spectral.MembershipCertificate(1.0, 0.1, 0.0, None, True, 0.0))


def test_reuse_carries_a_failed_run(monkeypatch):
    def failing(op, tol, max_iter):
        raise scipy.linalg.LinAlgError("tridiagonal solve did not converge")

    monkeypatch.setattr(spectral, "_lanczos", failing)
    op = path_operator(50)
    cert = in_spectrum(op, 1.0)
    again = in_spectrum(op, 1.5, reuse=cert)
    assert cert.spectral is None and again.spectral is None
    assert again.errors == ["lanczos-ritz: tridiagonal solve did not converge"]


def test_radius_follows_a_reassigned_matrix():
    # a solve describes the matrix the operator holds when it runs
    op = path_operator(400)
    in_spectrum(op, 3.0)
    op.matrix = 2 * op.matrix
    fresh = path_operator(400)
    fresh.matrix = 2 * fresh.matrix
    assert spectral_radius(op).to_dict() == spectral_radius(fresh).to_dict()


def test_membership_certificate_soundness_against_dense():
    rng = np.random.default_rng(23)
    for _ in range(6):
        n = int(rng.integers(5, 40))
        m = np.abs(rng.standard_normal((n, n)))
        m = m + m.T
        op = LinOp(m)
        evs = np.linalg.eigvalsh(m)
        target = float(rng.uniform(evs.min() - 1, evs.max() + 1))
        cert = in_spectrum(op, target, tol=0.1)
        true_dist = float(np.abs(evs - target).min())
        assert cert.best_residual >= true_dist - 1e-9
        if cert.certified:
            assert true_dist <= 0.1 + 1e-9


# -- sweeps -------------------------------------------------------------------


def test_truncation_sweep_monotone_path_family():
    rep = truncation_sweep(path_operator(160), [10, 40, 160])
    trace = rep.truncation_trace
    assert [s for s, _ in trace] == [10, 40, 160]
    vals = [r for _, r in trace]
    assert vals[0] < vals[1] < vals[2] <= 2.0
    for s, r in trace:
        assert abs(r - path_top(s)) < 1e-8
    assert rep.method == "sweep"


def test_truncation_sweep_convergence_flag():
    rep = truncation_sweep(path_operator(101), [100, 101], tol=1e-2)
    assert rep.converged
    rep = truncation_sweep(path_operator(30), [3, 30], tol=1e-6)
    assert not rep.converged


def test_truncation_sweep_needs_every_solve_converged():
    # the Cauchy test passes, but 12 steps cannot converge at size 30
    rep = truncation_sweep(path_operator(30), [20, 30], tol=1.0, max_iter=12)
    assert abs(rep.truncation_trace[1][1] - rep.truncation_trace[0][1]) < 1.0
    assert not rep.converged
    assert truncation_sweep(path_operator(30), [20, 30], tol=1.0).converged
    assert not truncation_sweep(path_operator(30), [30], max_iter=12).converged


def test_truncation_sweep_validates_sizes():
    with pytest.raises(InputError):
        truncation_sweep(path_operator(10), [10, 10])
    with pytest.raises(InputError):
        truncation_sweep(path_operator(10), [])
    for sizes in ([0, 5], [4, 11]):
        with pytest.raises(InputError, match="lie in"):
            truncation_sweep(path_operator(10), sizes)


def test_leading_block_is_the_compression_to_a_prefix():
    op = path_operator(12)
    assert op.leading_block(12) is op
    block = op.leading_block(5)
    assert np.array_equal(block.to_dense(), op.to_dense()[:5, :5])
    assert block.n == 5 and block.symmetric and block.meta == {}
    for n in (0, 13):
        with pytest.raises(InputError, match="block size"):
            op.leading_block(n)


# -- property tests -----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 25), st.integers(0, 10 ** 6))
def test_radius_bounded_by_max_row_sum(n, seed):
    rng = np.random.default_rng(seed)
    m = np.abs(rng.standard_normal((n, n)))
    m = m + m.T
    op = LinOp(m)
    bound = float(np.abs(m).sum(axis=1).max())
    rep = spectral_radius(op)
    assert rep.radius_estimate <= bound + 1e-8


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 30), st.integers(0, 10 ** 6))
def test_residual_scale_invariance(n, seed):
    rng = np.random.default_rng(seed)
    m = np.abs(rng.standard_normal((n, n)))
    m = m + m.T
    op = LinOp(m)
    v = rng.standard_normal(n)
    if np.linalg.norm(v) < 1e-9:
        return
    r1 = residual(op, 0.7, v)
    r2 = residual(op, 0.7, 3.5 * v)
    assert abs(r1 - r2) < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 60), st.floats(0.05, 0.6), st.integers(0, 10 ** 6),
       st.sampled_from(["eigenvalue", "between", "outside"]), st.integers(0, 59),
       st.floats(1e-3, 5.0), st.data())
def test_membership_residual_never_undershoots_dense(n, density, seed, kind, pick,
                                                     offset, data):
    rng = np.random.default_rng(seed)
    half = sp.random(n, n, density=density, random_state=rng, format="csr")
    m = (half + half.T).toarray()
    op = LinOp(m)
    evs = np.linalg.eigvalsh(m)
    i = pick % n
    if kind == "eigenvalue":
        target = float(evs[i])
    elif kind == "between":
        j = i % (n - 1)
        target = float(evs[j] + evs[j + 1]) / 2
    else:
        target = float(evs.max() + offset if i % 2 else evs.min() - offset)
    max_iter = data.draw(st.integers(1, n - 1), label="max_iter")
    cert = in_spectrum(op, target, tol=1e-6, seed=seed % 100, max_iter=max_iter)
    dist = np.abs(evs - target)
    assert cert.best_residual >= dist.min() - 1e-12
    if kind == "outside":
        # Ritz values and Rayleigh quotients lie inside [min spec, max spec]
        assert cert.gap_hint >= dist.min() - 1e-12
    if kind == "eigenvalue" and np.sort(dist)[1] >= 1e-3:
        assert cert.certified


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 120), st.floats(0.005, 0.3), st.integers(0, 10 ** 6),
       st.sampled_from([1, 31, 32, 33, 63, 64, 65, None]))
@example(n=5, density=0.03125, seed=0, max_iter=None)   # evs[0] is not main, evs[-1] is
def test_lanczos_blocks_agree_with_dense(n, density, seed, max_iter):
    # max_iter None means n; 32 and 64 end a run on the first row of a new block
    rng = np.random.default_rng(seed)
    half = sp.random(n, n, density=density, random_state=rng, format="csr")
    m = (half + half.T).toarray()
    budget = n if max_iter is None else max_iter
    res = spectral._lanczos(LinOp(m), 1e-10, budget)
    evs = np.linalg.eigvalsh(m)
    scale = max(1.0, float(np.abs(evs).max()))
    k = res.iterations
    assert 1 <= k <= min(budget, n)
    basis = np.vstack(res.blocks)
    assert basis.shape == (k, n)
    assert np.abs(basis @ basis.T - np.eye(k)).max() <= 1e-10
    if res.converged:
        assert abs(res.thetas[-1] - evs[-1]) <= 1e-10 * scale
    for i in range(k):
        u = res.ritz_vector(i)
        assert u @ m @ u <= evs[-1] + 1e-12


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 100), st.floats(0.005, 0.3), st.integers(0, 10 ** 6), st.booleans())
@example(n=64, density=0.01, seed=817, graph=False)        # 35 steps: 0 twice
@example(n=26, density=0.02907, seed=763249, graph=True)   # 16 steps, 16 main
def test_constant_start_closes_at_the_main_eigenvalues(n, density, seed, graph):
    # nonnegative symmetric: entries in [0, 2), or the 0, 1, 2 weights of a multigraph
    rng = np.random.default_rng(seed)
    half = sp.random(n, n, density=density, random_state=rng, format="csr",
                     data_rvs=np.ones if graph else None)
    m = (half + half.T).toarray()
    res = spectral._lanczos(LinOp(m), 1e-14, n)
    lams, mults, main = eigen_classes(m)
    scale = max(1.0, float(np.abs(lams).max()))
    if res.converged:
        assert abs(res.thetas[-1] - lams[-1]) <= 1e-10 * scale
    if res.stop == "closure":
        # every Ritz value is an eigenvalue, and each main eigenvalue holds one.
        # A direction the start meets only at rounding level is undecided: the
        # run may go on into it, and its Ritz value repeats an eigenvalue
        # (n = 64 above: a second 0, of a 24-fold eigenspace, after a beta of
        # 1.4e-8 |T|, too large for any closure test at the rounding level).
        # Those are the non-main eigenspaces and, in a repeated one, all but
        # the start's projection, so no eigenvalue holds more Ritz values than
        # its multiplicity.
        near = np.abs(res.thetas[:, None] - lams).argmin(axis=1)
        assert np.abs(res.thetas - lams[near]).max() <= 1e-10 * scale
        held = np.bincount(near, minlength=len(lams))
        assert np.all(main <= held) and np.all(held <= mults)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), st.floats(0.005, 0.3), st.integers(0, 10 ** 6), st.booleans())
def test_partial_reorthogonalization_keeps_the_basis_and_the_radius(n, density, seed, graph):
    # nonnegative symmetric, 0/1 or [0, 1) weights: the basis stays orthonormal
    # to 1e-12 though most steps skip Gram-Schmidt, and the radius is the dense one
    rng = np.random.default_rng(seed)
    half = sp.random(n, n, density=density, random_state=rng, format="csr",
                     data_rvs=np.ones if graph else None)
    m = (sp.triu(half) + sp.triu(half, 1).T).toarray()
    assume(m.any())
    op = LinOp(m)
    tol = 1e-10
    res = spectral._lanczos(op, tol, n)
    assert orthonormality_defect(res) <= 1e-12
    assert res.reorthogonalized <= res.iterations
    top = float(np.linalg.eigvalsh(m)[-1])
    rep = spectral._radius_report(op, res)
    if res.converged:
        assert abs(rep.radius_estimate - top) <= tol * max(1.0, top)
    assert rep.radius_lower_bound <= top * (1 + 1e-12)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 250), st.floats(0.005, 0.3), st.integers(0, 10 ** 6), st.booleans(),
       st.sampled_from([1e-8, 1e-10]), st.integers(-200, 200))
def test_converged_top_ritz_value_is_within_tol_of_the_radius(n, density, seed, graph, tol,
                                                              decade):
    # nonnegative symmetric, 0/1 or [0, 1) weights, at any scale: the stop
    # tests read the top Ritz value alone, relative to itself
    rng = np.random.default_rng(seed)
    half = sp.random(n, n, density=density, random_state=rng, format="csr",
                     data_rvs=np.ones if graph else None)
    m = (sp.triu(half) + sp.triu(half, 1).T).toarray() * 10.0 ** decade
    assume(m.any())
    res = spectral._lanczos(LinOp(m), tol, n)
    top = float(np.linalg.eigvalsh(m)[-1])
    if res.converged:
        assert abs(res.thetas[-1] - top) <= tol * top


# -- the bracket finish on banded operators ------------------------------------


def random_banded(n, b, seed):
    """A nonnegative symmetric matrix of bandwidth b: a first off-diagonal in
    [0.1, 1.1), which keeps it connected, the farther ones and the diagonal
    in [0, 1) with some entries zero."""
    rng = np.random.default_rng(seed)
    m = np.diag(rng.random(n) * (rng.random(n) < 0.5))
    for d in range(1, min(b, n - 1) + 1):
        w = 0.1 + rng.random(n - d) if d == 1 else rng.random(n - d) * (rng.random(n - d) < 0.8)
        m += np.diag(w, d) + np.diag(w, -d)
    return m


def exactly_positive_definite(m, b, c):
    """Whether c I - m, m of bandwidth b, is positive definite: LDL' in
    exact rational arithmetic, every pivot positive."""
    n = len(m)
    rows = [{j: -Fraction(float(m[i, j])) for j in range(max(0, i - b), min(n, i + b + 1))}
            for i in range(n)]
    for i in range(n):
        rows[i][i] += Fraction(c)
    for k in range(n):
        pivot = rows[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, min(n, k + b + 1)):
            f = rows[i][k] / pivot
            for j in range(k + 1, min(n, k + b + 1)):
                rows[i][j] -= f * rows[k][j]
    return True


def test_the_bracket_closes_on_the_path_at_step_16():
    # 16 Lanczos steps, then the banded finish: the 300-step run this
    # replaces ended on its budget with 6 correct digits
    op = path_operator(2000)
    rep = spectral_radius(op)
    top = path_top(2000)
    assert (rep.stop, rep.iterations, rep.converged) == ("bracket", 16, True)
    assert rep.radius_lower_bound <= top <= rep.radius_upper_bound
    assert rep.radius_upper_bound - rep.radius_lower_bound <= spectral.EIGEN_TOL * top
    assert abs(rep.radius_estimate - top) <= 1e-14 * top
    assert rep.top_eigenvalues[0] == rep.radius_estimate


@pytest.mark.parametrize("build, band, handed", [
    (lambda: path_operator(2000), 1, True),
    (lambda: cayley_operator(ZLattice(1), {"x1": 1.0, "X1": 1.0}, build_ball(ZLattice(1), 500)),
     2, True),
    (lambda: z2_ball_operator(20), 80, False),
    (lambda: pair_window_operator(pair_lattice(10), [(-1, 0), (0, 1)]), 19, False),
    (lambda: pair_window_operator(pair_lattice(40), [(-1, 0), (0, 1)]), 79, False),
    (lambda: LinOp(sp.diags(np.geomspace(1e-8, 1e8, 600))), 0, True),
], ids=["path2000", "Z1r500", "Z2r20", "pairs10", "pairs40", "diagonal"])
def test_the_hand_off_rests_on_the_band(build, band, handed):
    # handed off at step 16 when n b^2 <= 16 nnz: the factor costs about
    # one checkpoint interval of products
    op = build()
    assert op.bandwidth == band
    res = spectral._lanczos(op, spectral.EIGEN_TOL, 300)
    assert (res.stop == "bracket") == handed
    assert (res.upper is not None) == handed


def test_a_slow_finish_refactors_at_a_tighter_shift(monkeypatch):
    # the Collatz-Wielandt bound of this 16-step Ritz vector is 92, the row
    # sums give 4.16 and the radius is 2.918, 1.8 % above the next eigenvalue:
    # from 4.16 inverse iteration cuts the residual by 0.78 a solve, so the
    # shift moves to theta + 2r, where it converges in time to close
    m = random_banded(257, 2, 0)
    factors = []
    cholesky = spectral._banded_cholesky
    monkeypatch.setattr(spectral, "_banded_cholesky",
                        lambda band, c: factors.append(c) or cholesky(band, c))
    rep = spectral_radius(LinOp(m))
    top = float(np.linalg.eigvalsh(m)[-1])
    assert (rep.stop, rep.iterations) == ("bracket", 16)
    assert len(factors) >= 3 and factors[1] < factors[0]
    assert rep.radius_lower_bound <= top * (1 + 1e-12) and top <= rep.radius_upper_bound
    assert abs(rep.radius_estimate - top) <= spectral.EIGEN_TOL * top


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 30), st.integers(1, 3), st.integers(0, 10 ** 6))
def test_a_banded_factor_that_runs_proves_its_bound(n, b, seed):
    # at shifts within 4 ulps of the top eigenvalue, rounding lets dpbtrf run
    # on some c I - A that is not positive definite; the margin of
    # _cholesky_bound covers it, as exact arithmetic checks
    m = random_banded(n, b, seed)
    op = LinOp(m)
    band = spectral._upper_band(op)
    top = float(np.linalg.eigvalsh(m)[-1])
    for k in range(-4, 5):
        c = top * (1 + k * spectral._EPS)
        if spectral._banded_cholesky(band, c) is not None:
            bound = spectral._cholesky_bound(c, op.bandwidth, n)
            assert exactly_positive_definite(m, op.bandwidth, bound)


@settings(max_examples=60, deadline=None)
@given(st.integers(17, 300), st.integers(1, 3), st.integers(0, 10 ** 6),
       st.sampled_from([1e-6, 1e-8, 1e-10]))
def test_the_bracket_holds_the_top_eigenvalue(n, b, seed, tol):
    m = random_banded(n, b, seed)
    rep = spectral_radius(LinOp(m), tol=tol)
    top = float(np.linalg.eigvalsh(m)[-1])
    assert rep.radius_lower_bound <= top * (1 + 1e-12)
    assert top <= rep.radius_upper_bound
    if rep.converged:
        assert abs(rep.radius_estimate - top) <= tol * top


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 2000))
def test_free_su2_path_radius_to_twelve_digits(n):
    op = fusion.window_operator(fusion.free_su2_ring(3, n - 1), ["a1"], n)
    rep = spectral_radius(op)
    top = path_top(n)
    assert rep.converged
    assert abs(rep.radius_estimate - top) <= 1e-12 * top
    assert rep.radius_lower_bound <= top * (1 + 1e-15) and top <= rep.radius_upper_bound


def test_no_shift_invert_factor_for_a_target_past_the_upper_bound(monkeypatch):
    # 3 lies past radius_upper_bound + tol: no point of the spectrum is
    # within tol of it, so no route can certify it and no factor is made
    def refused(matrix):
        raise AssertionError("shift-invert factor")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", refused)
    for op in (path_operator(2000), shuffled_path_operator(400)):
        cert = in_spectrum(op, 3.0)
        assert not cert.certified and cert.errors == []
        assert cert.best_residual >= 3.0 - path_top(op.n)
        assert 3.0 > cert.spectral.radius_upper_bound + cert.tolerance
        assert -3.0 < -cert.spectral.radius_upper_bound - cert.tolerance
        assert in_spectrum(op, -3.0).errors == []
    # inside the bound the factor is made
    with pytest.raises(AssertionError, match="shift-invert"):
        in_spectrum(path_operator(2000), 1.0)


def test_the_upper_bound_of_an_unfinished_solve_is_gershgorin():
    # a run that never reaches the finish reports the rounded-up row sums
    op = z2_ball_operator(20)
    rep = spectral_radius(op)
    assert rep.stop == "residual"
    assert 4.0 < rep.radius_upper_bound <= 4.0 * (1 + 8 * spectral._EPS)
    assert spectral_radius(LinOp.from_entries(3, [], [], [])).radius_upper_bound == 0.0
