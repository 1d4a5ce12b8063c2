"""Half-line reflection family and integer pair-class shifts.

The interval witness residuals are frozen from a direct recomputation of
the band arithmetic; the pair-class window operator is checked against the
adjacency matrix of the strict upper-triangle lattice region, built here
from plain geometry.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amenspec import semidirect, spectral
from amenspec import (InputError, LinOp, bicrossed_amenability_test, canonical_pair,
                      conj_pair, half_line_grid, in_spectrum, interval_operator,
                      interval_spectrum_test, interval_witness, pair_lattice,
                      pair_shift_operator, pair_window_operator, shift_operator,
                      spectral_radius)

QUAD = 1.0 / (4.0 * math.pi)


def midpoints(grid):
    """Cell midpoints (j + 1/2) h as a tuple of floats, one at a time."""
    return tuple((j + 0.5) * grid.h for j in range(grid.n))


def point_entries(op, points):
    """{(row point, column point): value} over the stored entries of op."""
    coo = op.matrix.tocoo()
    return {(points[i], points[j]): v
            for i, j, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())}


def direct_reflection_apply(n, k_values, w, v):
    """Band arithmetic written out longhand, for cross-checking operators."""
    out = np.zeros_like(v)
    for k in k_values:
        for j in range(k, n):
            out[j] += w * v[j - k]
        for j in range(0, n - k):
            out[j] += w * v[j + k]
        for j in range(0, min(k, n)):
            out[j] += w * v[k - j - 1]
    return out


# -- grid ---------------------------------------------------------------------


def test_grid_layout():
    g = half_line_grid(1.0, 4.0)
    assert g.n == 4
    assert midpoints(g) == (0.5, 1.5, 2.5, 3.5)
    assert g.cell_mass == QUAD


def test_grid_validation():
    with pytest.raises(InputError):
        half_line_grid(0.0, 4.0)
    with pytest.raises(InputError):
        half_line_grid(1.0, -4.0)
    with pytest.raises(InputError):
        half_line_grid(1.0, 4.5)      # not a multiple of h
    with pytest.raises(InputError):
        half_line_grid(1.0, 1.0)      # single cell


def test_grid_size_limit_comes_before_any_array():
    g = half_line_grid(1.0, float(2 ** 22))      # (h, n) only: nothing per cell
    assert g.n == 2 ** 22
    for h, max_r in ((1.0, float(2 ** 22 + 1)), (1e-9, 1.0), (1e-300, 1.0)):
        with pytest.raises(InputError, match="too many grid cells: .*, more than 4194304"):
            half_line_grid(h, max_r)


@pytest.mark.parametrize("n, a, b", [(4, 0.0, 4.0), (4, 2.0, 3.0), (9, 0.5, 3.2),
                                     (9, 8.9, 9.0), (16, 0.0, 1.0), (16, 3.0, 16.0)])
def test_interval_entry_count_is_what_the_bands_emit(monkeypatch, n, a, b):
    # the closed-form count is exact: the limit at the count passes, one below fails
    g = half_line_grid(1.0, float(n))
    k_lo, k_hi = math.floor(a + 1e-9), math.ceil(b - 1e-9)
    count = sum(semidirect._reflection_bands(n, k).shape[1] for k in range(k_lo + 1, k_hi + 1))
    monkeypatch.setattr(semidirect, "_MAX_BUILD", count)
    assert interval_operator(g, a, b).meta["nodes"] == k_hi - k_lo
    monkeypatch.setattr(semidirect, "_MAX_BUILD", count - 1)
    with pytest.raises(InputError, match=f"has {count} entries"):
        interval_operator(g, a, b)


def test_snap_rounds_half_up_with_floor_one():
    g = half_line_grid(1.0, 8.0)
    assert g.snap(0.4) == 1
    assert g.snap(1.49) == 1
    assert g.snap(1.5) == 2
    assert g.snap(3.0) == 3
    for bad in (0.0, -2.0, float("nan")):
        with pytest.raises(InputError):
            g.snap(bad)


# -- reflection shifts --------------------------------------------------------


def test_shift_operator_rows():
    g = half_line_grid(1.0, 4.0)
    op = shift_operator(g, 1.0)
    got = point_entries(op, midpoints(g))
    # interior row: mass from both neighbors; first row: reflection brings
    # the corner term back onto the diagonal
    assert got[(2.5, 1.5)] == 1.0 and got[(2.5, 3.5)] == 1.0
    assert got[(0.5, 0.5)] == 1.0 and got[(0.5, 1.5)] == 1.0
    assert op.symmetry_defect() == 0.0
    assert op.meta["shift_cells"] == 1


def test_shift_operator_row_mass_bounded_by_fiber_dimension():
    g = half_line_grid(0.5, 16.0)
    for r in (0.5, 1.0, 3.7, 10.0):
        op = shift_operator(g, r)
        row_mass = np.abs(op.matrix).sum(axis=1)
        assert row_mass.max() <= 2.0
        assert op.symmetry_defect() == 0.0


def test_shift_operator_snapping_metadata():
    op = shift_operator(half_line_grid(0.25, 8.0), 0.3)
    assert op.meta["shift_cells"] == 1
    assert op.meta["r_snapped"] == 0.25
    assert abs(op.meta["snap_delta"] - (-0.05)) < 1e-12


def test_shift_operator_rejects_out_of_range():
    g = half_line_grid(1.0, 4.0)
    with pytest.raises(InputError):
        shift_operator(g, 4.2)
    with pytest.raises(InputError):
        shift_operator(g, -1.0)


# -- interval window ----------------------------------------------------------


def test_interval_operator_matches_direct_bands():
    g = half_line_grid(0.25, 2.0)
    op = interval_operator(g, 0.0, 1.0)
    assert op.meta["nodes"] == 4
    assert op.meta["snapped"] == [0.0, 1.0]
    assert op.meta["target"] == 1.0 / (2.0 * math.pi)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(g.n)
    want = direct_reflection_apply(g.n, range(1, 5), g.h * QUAD, v)
    assert np.allclose(op.apply(v), want, atol=1e-15)
    assert op.symmetry_defect() == 0.0


def loop_reflection_bands(n, k):
    """The three unit bands of the shift by k, appended entry by entry."""
    rows, cols = [], []
    for j in range(k, n):
        rows.append(j)
        cols.append(j - k)
    for j in range(0, n - k):
        rows.append(j)
        cols.append(j + k)
    for j in range(0, min(k, n)):
        rows.append(j)
        cols.append(k - j - 1)
    return rows, cols


def assert_same_csr(got, want):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("n, k", [(2, 0), (2, 1), (5, 0), (5, 2), (5, 4), (8, 3), (9, 8)])
def test_reflection_bands_match_the_entry_loop(n, k):
    rows, cols = loop_reflection_bands(n, k)
    bands = semidirect._reflection_bands(n, k)
    assert bands.dtype == np.int64 and np.array_equal(bands, [rows, cols])
    got = LinOp.from_entries(n, *bands, np.ones(bands.shape[1]))
    want = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()
    want.sum_duplicates()
    assert_same_csr(got.matrix, want)


def test_readme_interval_operator_matches_the_entry_loop():
    # amenspec semidirect --grid 0.015625:64 --interval 0:1
    g = half_line_grid(0.015625, 64.0)
    op = interval_operator(g, 0.0, 1.0)
    rows, cols, vals = [], [], []
    for k in range(1, 65):
        r, c = loop_reflection_bands(g.n, k)
        rows += r
        cols += c
        vals += [g.h * QUAD] * len(r)
    want = sp.coo_matrix((vals, (rows, cols)), shape=(g.n, g.n)).tocsr()
    want.sum_duplicates()
    assert_same_csr(op.matrix, want)
    for k in (1, 32, 64):
        rows, cols = loop_reflection_bands(g.n, k)
        want = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(g.n, g.n)).tocsr()
        want.sum_duplicates()
        assert_same_csr(shift_operator(g, k * g.h).matrix, want)


def test_interval_endpoints_snap_outward():
    g = half_line_grid(0.25, 2.0)
    inner = interval_operator(g, 0.1, 0.9)
    full = interval_operator(g, 0.0, 1.0)
    assert inner.meta["snapped"] == [0.0, 1.0]
    assert (inner.matrix != full.matrix).nnz == 0


def test_empty_interval_gives_zero_operator():
    op = interval_operator(half_line_grid(0.5, 4.0), 1.5, 1.5)
    assert op.nnz == 0
    assert op.meta["target"] == 0.0
    assert op.meta["nodes"] == 0
    # a < b inside the snapping slack: no band at all
    op = interval_operator(half_line_grid(0.5, 4.0), 1.5000000001, 1.5000000002)
    assert op.nnz == 0 and op.meta["nodes"] == 0


def test_interval_validation():
    g = half_line_grid(0.5, 4.0)
    with pytest.raises(InputError):
        interval_operator(g, -0.5, 1.0)
    with pytest.raises(InputError):
        interval_operator(g, 2.0, 1.0)
    with pytest.raises(InputError):
        interval_operator(g, 0.0, 9.0)
    with pytest.raises(InputError):
        interval_operator(g, 0.0, float("nan"))


def test_interval_norm_stays_below_window_mass():
    g = half_line_grid(0.125, 25.0)
    op = interval_operator(g, 0.0, 1.0)
    evs = np.linalg.eigvalsh(op.to_dense())
    assert np.abs(evs).max() <= op.meta["target"] + 1e-12


def parent_witness(grid, m):
    """interval_witness as built from a tuple of midpoints, one float at a time."""
    pts = np.array(midpoints(grid))
    v = np.where((pts >= m) & (pts <= 2 * m), math.sqrt(4.0 * math.pi / m), 0.0)
    return v / math.sqrt(float(v @ (grid.cell_mass * v)))


@pytest.mark.parametrize("h, max_r", [(2.0 ** -4, 32.0), (0.1, 3.2), (0.3, 9.0)])
def test_witness_is_bit_equal_to_the_midpoint_tuple_construction(h, max_r):
    g = half_line_grid(h, max_r)
    # band edges on midpoints: a midpoint one ulp off flips a cell in or out
    edges = [x for p in midpoints(g) for x in (p, p / 2) if 2 * x <= max_r]
    for m in [0.1, 0.35, 0.45, 0.7, 1.0, 1.5, max_r / 2] + edges:
        got, want = interval_witness(g, m), parent_witness(g, m)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (h, m)


def test_witness_normalization_and_support():
    g = half_line_grid(0.25, 32.0)
    v = interval_witness(g, 4.0)
    assert abs(v @ (g.cell_mass * v) - 1.0) < 1e-12
    pts = np.array(midpoints(g))
    assert np.all(v[(pts < 4.0) | (pts > 8.0)] == 0.0)
    assert np.all(v[(pts >= 4.0) & (pts <= 8.0)] > 0.0)
    with pytest.raises(InputError):
        interval_witness(g, 20.0)     # band would stick out of the grid
    with pytest.raises(InputError):
        interval_witness(g, 0.0)


def test_witness_residuals_frozen_values():
    # fine grid, unit interval: residuals fall off like 1/m
    g = half_line_grid(2.0 ** -6, 64.0)
    verdict = interval_spectrum_test(g, 0.0, 1.0)
    per = verdict.notes["witness_residuals"]
    assert abs(per["band-2"] - 0.065736) < 5e-5
    assert abs(per["band-4"] - 0.046482) < 5e-5
    assert abs(per["band-8"] - 0.032868) < 5e-5
    assert per["band-2"] > per["band-4"] > per["band-8"]
    assert verdict.certified
    assert verdict.target == 1.0 / (2.0 * math.pi)


def test_witness_residual_agrees_with_direct_band_arithmetic():
    g = half_line_grid(2.0 ** -4, 32.0)
    op = interval_operator(g, 0.0, 1.0)
    v = interval_witness(g, 4.0)
    target = op.meta["target"]
    direct = direct_reflection_apply(g.n, range(1, 17), g.h * QUAD, v)
    want = float(np.linalg.norm(direct - target * v) / np.linalg.norm(v))
    got = float(np.linalg.norm(op.apply(v) - target * v) / np.linalg.norm(v))
    assert abs(got - want) < 1e-13


# -- pair classes -------------------------------------------------------------


def test_pair_helpers():
    assert canonical_pair(3, -1) == (-1, 3)
    assert canonical_pair(-1, 3) == (-1, 3)
    assert conj_pair((-2, 1)) == (-1, 2)
    assert conj_pair(conj_pair((-5, 2))) == (-5, 2)


def test_pair_lattice_enumeration():
    pairs = pair_lattice(2)
    assert pairs.size == 10               # 5 choose 2
    assert all(a < b for a, b in pairs.classes)
    assert len(set(pairs.classes)) == 10
    assert pair_window_operator(pairs, [(0, 1), (-1, 0)]).n == pairs.size
    with pytest.raises(InputError):
        pair_lattice(0)
    with pytest.raises(InputError):
        pair_lattice(2.5)


def test_pair_shift_rows():
    pairs = pair_lattice(3)
    op = pair_shift_operator(pairs, (1, 0))
    got = point_entries(op, pairs.classes)
    assert got[((0, 2), (-1, 2))] == 1.0
    assert got[((0, 2), (0, 1))] == 1.0
    # shifting (0, 1) one way lands on the degenerate diagonal and is dropped
    row01 = {k: v for k, v in got.items() if k[0] == (0, 1)}
    assert row01 == {((0, 1), (-1, 1)): 1.0}
    assert not op.symmetric


def test_pair_shift_transpose_is_negated_shift():
    pairs = pair_lattice(5)
    plus = pair_shift_operator(pairs, (1, 0))
    minus = pair_shift_operator(pairs, (-1, 0))
    assert (plus.matrix.T != minus.matrix).nnz == 0
    sym = pair_shift_operator(pairs, (1, -1))
    assert sym.symmetric and sym.symmetry_defect() == 0.0


def test_pair_shift_images_never_collide():
    # the two shifted classes of any class are distinct, for any shift
    pairs = pair_lattice(4)
    for r, rp in ((1, 0), (0, 1), (2, -1), (-3, 2)):
        for g, gp in pairs.classes:
            t1 = canonical_pair(g - r, gp - rp)
            t2 = canonical_pair(g - rp, gp - r)
            assert t1 != t2


def test_pair_shift_validation():
    pairs = pair_lattice(3)
    with pytest.raises(InputError):
        pair_shift_operator(pairs, (1, 1))
    with pytest.raises(InputError):
        pair_shift_operator(pairs, (1.5, 0))


def loop_pair_shift(pairs, r, rp):
    """Rows, columns and dropped count of the class shift, appended entry by entry."""
    index = {c: i for i, c in enumerate(pairs.classes)}
    rows, cols, dropped = [], [], 0
    for i, (g, gp) in enumerate(pairs.classes):
        for t in (canonical_pair(g - r, gp - rp), canonical_pair(g - rp, gp - r)):
            j = None if t[0] == t[1] else index.get(t)
            if j is None:
                dropped += 1
            else:
                rows.append(i)
                cols.append(j)
    return rows, cols, dropped


@pytest.mark.parametrize("bound", [1, 2, 3, 7, 10])
@pytest.mark.parametrize("shift", [(0, 1), (1, 0), (-1, 0), (2, -3), (5, 9), (2 ** 70, -1)])
def test_pair_shift_matches_the_entry_loop(bound, shift):
    # (5, 9) leaves the small boxes entirely; 2**70 does not fit in int64
    pairs = pair_lattice(bound)
    rows, cols, dropped = loop_pair_shift(pairs, *shift)
    op = pair_shift_operator(pairs, shift)
    n = pairs.size
    want = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()
    want.sum_duplicates()
    assert_same_csr(op.matrix, want)
    assert op.meta["dropped"] == dropped
    for m in range(1, bound + 2):
        flags = np.array([max(abs(a), abs(b)) <= m for a, b in pairs.classes], dtype=float)
        total = flags.sum()
        assert np.array_equal(semidirect._box_witness(pairs, m), flags / math.sqrt(total))


def test_pair_window_is_upper_triangle_adjacency():
    # window {(0,1), (-1,0)}: each class meets its four lattice neighbors
    # inside the strict upper triangle; compare to plain geometry
    pairs = pair_lattice(5)
    op = pair_window_operator(pairs, [(0, 1), (-1, 0)])
    classes = set(pairs.classes)
    want = {}
    for a, b in pairs.classes:
        for nb in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)):
            if nb[0] < nb[1] and nb in classes:
                want[((a, b), nb)] = 1.0
    assert point_entries(op, pairs.classes) == want
    assert op.symmetric


def test_pair_window_sigma_is_conjugation():
    # {g, g'} -> {-g', -g}: the B classes {-a, a} are fixed, so the quotient
    # has (n + B) / 2 orbits
    pairs = pair_lattice(5)
    op = pair_window_operator(pairs, [(0, 1), (-1, 0)])
    classes = pairs.classes
    assert [classes[j] for j in op.sigma] == [conj_pair(c) for c in classes]
    assert op._quotient.matrix.shape == ((pairs.size + 5) // 2,) * 2
    assert "sigma" not in op.meta


shift_pairs = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda s: s[0] != s[1])


@settings(max_examples=40, deadline=None)
@given(st.lists(shift_pairs, min_size=1, max_size=3), st.integers(1, 8))
@example([(0, 1)], 5)
@example([(0, 3)], 7)
def test_the_conjugation_quotient_solves_as_the_full_operator(shifts, bound):
    # the solve and the window-mass certificate of a pair operator, run on its
    # orbit quotient, against those of the same matrix with no sigma. In exact
    # arithmetic the two Lanczos runs are one; in floating point the run on
    # the full matrix leaks rounding into the conjugation-odd sector, so its
    # step count, stop, reorthogonalized steps and lower Ritz values can differ
    # (bound 5, (0, 1): closure at the quotient's width 30, against a residual
    # stop at step 32; bound 7, (0, 3): residual at 16 against closure at 11),
    # and they are not compared; the radius, its bounds and the verdicts are
    window = sorted({canonical_pair(s * r, s * rp) for r, rp in shifts for s in (1, -1)})
    pairs = pair_lattice(bound)
    op = pair_window_operator(pairs, window)
    plain = LinOp(op.matrix)
    got, want = spectral_radius(op), spectral_radius(plain)
    scale = want.radius_estimate
    assert got.converged == want.converged
    assert got.iterations <= op._quotient.matrix.shape[0]
    for name in ("radius_estimate", "radius_lower_bound", "radius_upper_bound"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12 * scale, name
    assert abs(got.top_eigenvalues[0] - want.top_eigenvalues[0]) <= 1e-12 * scale
    # the first steps, before the leak grows, run the same T: from P' of the constant start
    runs = [spectral._lanczos(o, spectral.EIGEN_TOL, spectral._STEPS) for o in (op, plain)]
    k = min(8, *(r.iterations for r in runs))
    first, full = (np.r_[r.d[:k], r.e[:k - 1]] / r.f for r in runs)
    assert np.abs(first - full).max() <= 1e-12 * scale
    witnesses = [(f"box-{m}", semidirect._box_witness(pairs, m))
                 for m in sorted({max(1, bound // 4), max(1, bound // 2), bound})]
    got, want = (in_spectrum(o, 2.0 * len(window), witnesses=witnesses) for o in (op, plain))
    assert (got.certified, got.witness_id, got.errors) == (
        want.certified, want.witness_id, want.errors)
    assert abs(got.best_residual - want.best_residual) <= 1e-12 * scale
    assert abs(got.gap_hint - want.gap_hint) <= 1e-12 * scale


def test_pair_window_validation():
    pairs = pair_lattice(3)
    with pytest.raises(InputError):
        pair_window_operator(pairs, [])
    with pytest.raises(InputError):
        pair_window_operator(pairs, [(1, 0)])           # negation missing
    with pytest.raises(InputError):
        pair_window_operator(pairs, [(0, 1), (0, 1), (-1, 0)])


def test_pair_window_dense_top_frozen():
    pairs = pair_lattice(10)
    op = pair_window_operator(pairs, [(0, 1), (-1, 0)])
    top = float(np.linalg.eigvalsh(op.to_dense()).max())
    assert abs(top - 3.898629) < 5e-5
    assert abs((4.0 - top) - 0.101371) < 5e-5


def test_bicrossed_sweep_structure():
    verdict = bicrossed_amenability_test([3, 6], [(0, 1), (-1, 0)])
    assert verdict.target == 4.0
    trace = verdict.notes["trace"]
    assert [t["bound"] for t in trace] == [3, 6]
    assert trace[1]["best_residual"] <= trace[0]["best_residual"]
    assert verdict.notes["best_bound"] == 6
    assert verdict.notes["window"] == [[0, 1], [-1, 0]]
    sec = verdict.notes["secondary"]
    assert sec["target"] == 2.0
    assert not verdict.certified          # boxes this small stay short of tol


def test_bicrossed_secondary_names_its_route():
    omega = [(0, 1), (-1, 0)]
    sec = bicrossed_amenability_test([10, 20, 40], omega).notes["secondary"]
    direct = in_spectrum(pair_window_operator(pair_lattice(40), omega), 2.0, tol=5e-2)
    assert sec["witness_id"] == direct.witness_id == "shift-invert"
    assert sec["best_residual"] == direct.best_residual


def test_bicrossed_accepts_single_bound():
    verdict = bicrossed_amenability_test(4, [(0, 1), (-1, 0)])
    assert verdict.notes["bounds"] == [4]


def test_bicrossed_validation():
    with pytest.raises(InputError):
        bicrossed_amenability_test([5, 5], [(0, 1), (-1, 0)])
    with pytest.raises(InputError):
        bicrossed_amenability_test([], [(0, 1), (-1, 0)])
    with pytest.raises(InputError):
        bicrossed_amenability_test([3], [(1, 0)])
