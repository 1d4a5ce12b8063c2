"""Group balls, walk operators, and the growth criterion."""

import json
import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amenspec import (FreeGroup, InputError, ZLattice, build_ball, cayley_operator, cli,
                      fingerprint, kesten_test, modular_weight_operator, parse_group,
                      spectral, spectral_radius, walks)
from amenspec.spectral import EIGEN_TOL

EPS = float(np.finfo(float).eps)

SMALL_GROUPS = [ZLattice(d) for d in (1, 2, 3)] + [FreeGroup(k) for k in (1, 2, 3)]


def point_entries(op, points):
    """{(row point, column point): value} over the stored entries of op."""
    coo = op.matrix.tocoo()
    return {(points[i], points[j]): v
            for i, j, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())}


# -- groups and balls ---------------------------------------------------------


def test_parse_group():
    g = parse_group("Z^d:2")
    assert isinstance(g, ZLattice) and g.d == 2
    f = parse_group("F:3")
    assert isinstance(f, FreeGroup) and f.k == 3
    # digits are ASCII and no longer than the build cap: int() once read
    # 'Z^d:\u0661' as Z^d:1, and raised ValueError on '\u00b2' and 5000 digits
    for bad in ("Z^2", "F:x", "Q:3", "F:-1", "", "F:\u00b2", "Z^d:\u0661", "Z^d:" + "1" * 5000):
        with pytest.raises(InputError):
            parse_group(bad)
    with pytest.raises(InputError):
        parse_group(7)


def test_group_constructors_validate_rank():
    with pytest.raises(InputError):
        ZLattice(-1)
    with pytest.raises(InputError):
        FreeGroup(27)
    assert ZLattice(0).generator_names == ()
    # 2 * 1448^2 = 4,193,408 generator coordinates fit in 2^22, 2 * 1449^2 do not
    assert len(ZLattice(1448).generators) == 2896
    with pytest.raises(InputError, match="more than 4194304"):
        ZLattice(1449)


def test_generator_naming():
    g = ZLattice(3)
    assert g.inverse_name("x2") == "X2"
    assert g.inverse_name("X3") == "x3"
    with pytest.raises(InputError):
        g.inverse_name("x9")
    f = FreeGroup(2)
    assert f.inverse_name("a") == "A" and f.inverse_name("B") == "b"


def test_lattice_ball_sizes_match_counting():
    # diamond ball in Z^2 has 2R^2 + 2R + 1 points
    for r in range(5):
        assert build_ball(ZLattice(2), r).size == 2 * r * r + 2 * r + 1
    assert build_ball(ZLattice(1), 5).size == 11
    # Z^3 at radius 4 against a brute-force enumeration
    brute = sum(1 for p in product(range(-4, 5), repeat=3)
                if sum(map(abs, p)) <= 4)
    assert build_ball(ZLattice(3), 4).size == brute


def test_free_ball_sizes_match_counting():
    # |B_R| = 1 + 2k sum_{i<R} (2k-1)^i; for k = 2 this is 2 * 3^R - 1
    for r in range(5):
        assert build_ball(FreeGroup(2), r).size == 2 * 3 ** r - 1
    assert build_ball(FreeGroup(3), 3).size == 1 + 6 * (1 + 5 + 25)
    assert build_ball(FreeGroup(1), 6).size == 13


def test_ball_enumeration_is_deterministic():
    a = build_ball(ZLattice(2), 3)
    b = build_ball(ZLattice(2), 3)
    assert a.elements == b.elements
    assert a.elements[0] == (0, 0)
    with pytest.raises(InputError):
        build_ball(ZLattice(2), -1)


def test_ball_is_prefix_of_larger_ball():
    for g in SMALL_GROUPS:
        big = build_ball(g, 5)
        for r in range(5):
            small = build_ball(g, r)
            assert tuple(small.elements) == tuple(big.elements[:small.size])
            assert big.sphere_ends[r] == small.size


def test_ball_right_neighbour_table():
    for g in SMALL_GROUPS:
        ball = build_ball(g, 3)
        for i, x in enumerate(ball.elements):
            for c, nm in enumerate(g.generator_names):
                want = ball.index.get(g.mul(x, g.generators[nm]), -1)
                assert ball.right[i, c] == want


def reference_ball(group, radius):
    """Plain breadth-first search with group.mul: elements, parent, step,
    right and sphere ends, in the order build_ball promises."""
    names = group.generator_names
    elements, index = [group.identity], {group.identity: 0}
    parent, step, right, ends = [-1], [-1], [], [1]
    for d in range(radius + 1):
        for i in range(ends[d - 1] if d else 0, ends[d]):
            for c, nm in enumerate(names):
                y = group.mul(elements[i], group.generators[nm])
                if y not in index and d < radius:
                    index[y] = len(elements)
                    elements.append(y)
                    parent.append(i)
                    step.append(c)
                right.append(index.get(y, -1))
        if d < radius:
            ends.append(len(elements))
    return (tuple(elements), np.array(parent), np.array(step),
            np.array(right, dtype=np.int64).reshape(len(elements), len(names)), tuple(ends))


@pytest.mark.parametrize("k, radii", [(0, range(4)), (1, range(9)), (2, range(9)),
                                      (3, range(9))])
def test_free_ball_is_the_breadth_first_search(k, radii):
    group = FreeGroup(k)
    for r in radii:
        ball = build_ball(group, r)
        elements, parent, step, right, ends = reference_ball(group, r)
        for name, want in (("parent", parent), ("step", step), ("right", right)):
            got = getattr(ball, name)
            assert got.dtype == np.int64 and np.array_equal(got, want), (r, name)
        assert ball.sphere_ends == ends
        assert tuple(ball.elements) == elements
    # the words were just shown equal to the search's elements, in order
    assert all(ball.index.get(w) == i for i, w in enumerate(elements))


def test_free_ball_finds_only_its_own_reduced_words():
    ball = build_ball(FreeGroup(2), 3)
    inner = ball.elements[:ball.sphere_ends[2]]     # a slice is a tuple of words
    assert inner == tuple(build_ball(FreeGroup(2), 2).elements)
    assert ball.elements[ball.sphere_ends[2]] not in inner
    for word in [(1, 1, 1, 1),          # outside the ball
                 (1, -1), (2, 1, -1),   # not reduced
                 (3,), (0,), ("a",),    # unknown letters
                 [1], "a", 1, None]:    # not tuples
        assert word not in ball.index and ball.index.get(word, -1) == -1
    assert ball.index.get(()) == 0 and ball.index.get((-2, 1)) == 14
    assert ball.elements[ball.index.get((-2, 1))] == (-2, 1)
    assert all(ball.index.get(w) == i for i, w in enumerate(ball.elements))
    assert ball.elements[-1] == ball.elements[ball.size - 1]
    assert ball.elements[2:5] == ((-1,), (2,), (-2,))
    with pytest.raises(IndexError):
        ball.elements[ball.size]


def test_free_ball_keeps_no_words():
    # a free ball counts its spheres and builds its tables at the first read
    # of one, which the walk never makes; its words are never stored
    tables = {"elements", "index", "right", "parent", "step"}
    tracemalloc.start()
    try:
        ball = build_ball(FreeGroup(2), 10)
        counted = tracemalloc.get_traced_memory()[0]
        cayley_operator(FreeGroup(2), dict.fromkeys("aAbB", 1.0), ball)
        assert not tables & set(vars(ball))
        assert ball.right.shape == (118_097, 4) and tables <= set(vars(ball))
        built = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ball.size == len(ball.elements) == 118_097
    assert counted <= 1e5 and built <= 12e6


def test_lattice_ball_keeps_no_search_tree():
    # right, the elements and index are all a lattice ball holds; parent and
    # step are a free ball's, and a lattice ball builds no free tables
    ball = build_ball(ZLattice(2), 3)
    assert {"right", "elements", "index"} <= set(vars(ball))
    for name in ("parent", "step"):
        with pytest.raises(AttributeError):
            getattr(ball, name)
    del ball.right
    with pytest.raises(AttributeError):
        ball.right


def test_lattice_ball_build_peak():
    # Z^2 at radius 60: about 245 bytes an element at the peak (Python 3.11);
    # a search that also keeps parent and step arrays peaks past 300
    tracemalloc.start()
    try:
        ball = build_ball(ZLattice(2), 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ball.size == 7321 and peak <= 275 * ball.size


@pytest.mark.parametrize("group", [ZLattice(d) for d in (0, 1, 2, 3)]
                         + [FreeGroup(k) for k in (0, 1, 2, 3)], ids=lambda g: g.name)
def test_ball_size_limit_is_the_exact_ball_size(monkeypatch, group):
    # the closed-form count is exact: a limit at the size builds, one below
    # fails; the size is that of the elements or, where more, of the radius + 1
    # sphere ends (the trivial group's balls are one point)
    for r, elements in enumerate([build_ball(group, r).size for r in range(6)]):
        size = max(elements, r + 1)
        monkeypatch.setattr(walks, "_MAX_BUILD", size)
        assert build_ball(group, r).size == elements
        monkeypatch.setattr(walks, "_MAX_BUILD", size - 1)
        with pytest.raises(InputError, match=f"the radius-{r} ball has more than {size - 1} "):
            build_ball(group, r)


@pytest.mark.parametrize("spec, radius", [("F:2", 14), ("F:26", 5), ("Z^d:2", 1449),
                                          ("Z^d:1", 10 ** 18), ("F:1", 10 ** 18)])
def test_balls_past_the_size_limit_are_input_errors(spec, radius):
    # 2**22 elements at most; a huge radius is refused without counting to it
    with pytest.raises(InputError, match="has more than 4194304 elements"):
        build_ball(parse_group(spec), radius)


def test_lattice_ball_past_the_work_limit_is_refused_before_building(monkeypatch):
    # a build takes n elements times 2d^2 coordinate steps: Z^d:1448 at radius 1
    # would take minutes; Z^d:101 (4,141,606 steps) passes and Z^d:102 does not
    def mul(x, y):
        raise AssertionError("the refused build multiplied")

    for d in (102, 1448):
        group = ZLattice(d)
        monkeypatch.setattr(group, "mul", mul)
        with pytest.raises(InputError, match="more than 4194304 coordinate steps"):
            build_ball(group, 1)
    walks._check_ball_size(ZLattice(101), 1)
    # at the limit exactly, with the limit lowered to a small lattice ball's work
    group = ZLattice(3)
    steps = build_ball(group, 4).size * 2 * 3 ** 2
    monkeypatch.setattr(walks, "_MAX_STEPS", steps)
    assert build_ball(group, 4).size * 18 == steps
    monkeypatch.setattr(walks, "_MAX_STEPS", steps - 1)
    monkeypatch.setattr(group, "mul", mul)
    with pytest.raises(InputError, match=f"more than {steps - 1} coordinate steps"):
        build_ball(group, 4)


@pytest.mark.parametrize("group", [FreeGroup(0), ZLattice(0)], ids=lambda g: g.name)
def test_trivial_ball_past_the_sphere_limit_is_an_input_error(group):
    # one point at every radius, but radius + 1 sphere ends: refused before the
    # search, which would run one pass per sphere
    with pytest.raises(InputError, match="has more than 4194304 spheres"):
        build_ball(group, 10 ** 18)
    assert build_ball(group, 20).sphere_ends == (1,) * 21


# -- walk operators -----------------------------------------------------------


def test_lattice_walk_entries():
    ball = build_ball(ZLattice(1), 3)
    op = cayley_operator(ZLattice(1), {"x1": 0.5, "X1": 0.5}, ball)
    got = point_entries(op, ball.elements)
    want = {((u,), (v,)): 0.5
            for u in range(-3, 4) for v in range(-3, 4) if abs(u - v) == 1}
    assert got == want
    assert op.symmetric and op.symmetry_defect() == 0.0
    assert op.meta["dropped"] == 2      # one step off each end


def test_plane_walk_matches_brute_adjacency():
    ball = build_ball(ZLattice(2), 2)
    op = cayley_operator(ZLattice(2), dict.fromkeys(("x1", "X1", "x2", "X2"), 1.0), ball)
    pts = set(ball.elements)
    want = {(u, v): 1.0 for u in pts for v in pts
            if abs(u[0] - v[0]) + abs(u[1] - v[1]) == 1}
    assert point_entries(op, ball.elements) == want


def test_free_walk_radius_one_is_a_star():
    f = FreeGroup(2)
    ball = build_ball(f, 1)
    op = cayley_operator(f, dict.fromkeys("aAbB", 1.0), ball)
    dense = op.to_dense()
    assert dense[0, 1:].tolist() == [1.0] * 4
    assert dense[1:, 0].tolist() == [1.0] * 4
    assert np.count_nonzero(dense) == 8
    assert op.meta["dropped"] == 12     # each leaf loses 3 outward steps


def test_cayley_weight_validation():
    ball = build_ball(ZLattice(1), 2)
    with pytest.raises(InputError):
        cayley_operator(ZLattice(1), {}, ball)
    with pytest.raises(InputError):
        cayley_operator(ZLattice(1), {"x7": 1.0}, ball)
    with pytest.raises(InputError):
        cayley_operator(ZLattice(1), {"x1": -1.0}, ball)
    asym = cayley_operator(ZLattice(1), {"x1": 1.0, "X1": 2.0}, ball)
    assert not asym.symmetric


def test_modular_operator_matches_walk_on_lattice():
    # unimodular abelian case: left and right shifts are the same matrix
    ball = build_ball(ZLattice(1), 4)
    walk = cayley_operator(ZLattice(1), {"x1": 1.0, "X1": 1.0}, ball)
    for p in (1.0, 2.0, 3.5):
        mod = modular_weight_operator(ZLattice(1), p, {(1,): 1.0, (-1,): 1.0}, ball)
        assert (mod.matrix != walk.matrix).nnz == 0
        assert mod.symmetric


def test_modular_operator_free_group_shares_spectrum():
    # right shifts differ from left shifts entrywise but not spectrally
    f = FreeGroup(2)
    ball = build_ball(f, 3)
    walk = cayley_operator(f, dict.fromkeys("aAbB", 1.0), ball)
    dens = {(1,): 1.0, (-1,): 1.0, (2,): 1.0, (-2,): 1.0}
    mod = modular_weight_operator(f, 2.0, dens, ball)
    assert (mod.matrix != walk.matrix).nnz > 0
    ev_w = np.linalg.eigvalsh(walk.to_dense())
    ev_m = np.linalg.eigvalsh(mod.to_dense())
    assert np.allclose(ev_w, ev_m, atol=1e-10)


def modular_by_products(group, density, ball):
    """The operator's entries by group multiplication and a lookup of each
    product, one shift at a time: the construction before the walk along
    the right-neighbour table."""
    rows, cols, vals, dropped = [], [], [], 0
    for i, x in enumerate(ball.elements):
        for z, c in density.items():
            j = ball.index.get(group.mul(x, group.inv(z)))
            if j is None:
                dropped += 1
            else:
                rows.append(i)
                cols.append(j)
                vals.append(c)
    return sp.csr_matrix((vals, (rows, cols)), shape=(ball.size, ball.size)), dropped


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.booleans())
def test_modular_operator_walks_right_as_the_products_did(seed, support, symmetric):
    # random reduced support words of F_2 r6, up to its longest: the same CSR
    # arrays and the same count of shifts that leave the ball
    f = FreeGroup(2)
    ball = build_ball(f, 6)
    rng = np.random.default_rng(seed)
    density = {}
    for i in rng.choice(ball.size, size=support, replace=False):
        z, w = ball.elements[int(i)], float(rng.integers(1, 4))
        density[z] = w
        if symmetric:
            density[f.inv(z)] = w
    op = modular_weight_operator(f, 1.0, density, ball)
    want, dropped = modular_by_products(f, density, ball)
    assert op.symmetric or not symmetric
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(op.matrix, name), getattr(want, name))
    assert op.meta["dropped"] == dropped


def test_modular_operator_validation():
    ball = build_ball(ZLattice(1), 3)
    with pytest.raises(InputError):
        modular_weight_operator(ZLattice(1), 0.5, {(1,): 1.0}, ball)
    with pytest.raises(InputError):
        modular_weight_operator(ZLattice(1), 2.0, {}, ball)
    with pytest.raises(InputError):
        modular_weight_operator(ZLattice(1), 2.0, {(5,): 1.0}, ball)
    with pytest.raises(InputError):
        modular_weight_operator(ZLattice(1), 2.0, {(1,): 0.0}, ball)
    one_sided = modular_weight_operator(ZLattice(1), 2.0, {(1,): 1.0}, ball)
    assert not one_sided.symmetric


# -- growth criterion ---------------------------------------------------------


def test_growth_trace_plane_matches_closed_form():
    verdict = kesten_test(ZLattice(2), 4)
    notes = verdict.notes
    assert notes["radii"] == [1, 2, 3, 4]
    assert notes["ball_sizes"] == [5, 13, 25, 41]
    # compressed diamond-ball radius is 4 cos^2(pi / (2R + 2))
    for r, est in zip(notes["radii"], notes["radius_estimates"]):
        assert abs(est - 4 * math.cos(math.pi / (2 * r + 2)) ** 2) < 1e-8
    assert not verdict.certified
    assert verdict.target == 4.0


def test_growth_estimates_match_dense_eigensolve():
    g = ZLattice(2)
    verdict = kesten_test(g, [2, 3])
    for r, est in zip([2, 3], verdict.notes["radius_estimates"]):
        ball = build_ball(g, r)
        op = cayley_operator(g, dict.fromkeys(("x1", "X1", "x2", "X2"), 1.0), ball)
        dense_top = float(np.abs(np.linalg.eigvalsh(op.to_dense())).max())
        assert abs(est - dense_top) < 1e-8


def test_growth_certifies_line_walk():
    verdict = kesten_test(ZLattice(1), [40])
    assert verdict.certified
    assert verdict.target == 2.0
    assert verdict.witness_id == "ball-40"
    assert verdict.best_residual <= 2.0 - 2.0 * math.cos(math.pi / 82) + 1e-9


def test_growth_free_group_stays_pinned():
    verdict = kesten_test(FreeGroup(2), [2, 4])
    norm = verdict.notes["normalized"]
    assert all(v <= 0.88 for v in norm)
    assert not verdict.certified
    assert verdict.gap_hint > 0.5
    # tree bound: normalized radius approaches sqrt(3)/2 from below
    assert norm[-1] <= math.sqrt(3) / 2 + 1e-9


def test_growth_richardson_extrapolation():
    verdict = kesten_test(ZLattice(1), [10, 20])
    n = verdict.notes["normalized"]
    want = (400 * n[-1] - 100 * n[-2]) / 300
    assert abs(verdict.notes["limit_estimate"] - want) < 1e-12
    assert want > n[-1]                  # extrapolation pushes toward the limit


def test_growth_with_explicit_weights():
    verdict = kesten_test(ZLattice(1), [30], weights={"x1": 0.3, "X1": 0.3})
    assert abs(verdict.target - 0.6) < 1e-12
    assert verdict.certified


def test_growth_trivial_group():
    for g in (ZLattice(0), FreeGroup(0)):
        verdict = kesten_test(g, 5)
        assert verdict.certified
        assert verdict.target == 1.0
        assert verdict.witness_id == "ball-0"


@pytest.mark.parametrize("group", [ZLattice(0), FreeGroup(0)], ids=lambda g: g.name)
def test_trivial_group_verdict(group):
    # the walk over {identity} is the 1 x 1 identity: every field of the verdict is
    # exact, the lower bound being its Rayleigh quotient 1 less the proven margin 7 eps
    assert kesten_test(group, 5).to_dict() == {
        "target": 1.0, "tolerance": 0.05, "best_residual": 7 * EPS, "certified": True,
        "witness_id": "ball-0", "gap_hint": 0.0, "errors": [],
        "notes": {"radii": [0], "ball_sizes": [1], "radius_estimates": [1.0],
                  "lower_bounds": [1 - 7 * EPS], "normalized": [1.0], "limit_estimate": 1.0,
                  "eigensolver_converged": [True],
                  "convention": "trivial group walks over {identity}"}}


@pytest.mark.parametrize("group", [ZLattice(0), FreeGroup(0)])
def test_trivial_group_lists_no_radius(group):
    # its ball is one point at every radius, so any radius is answered at once
    verdict = kesten_test(group, 10 ** 18)
    assert verdict.certified and verdict.notes["radii"] == [0]
    for radii in (0, -3, [], [0, 2], [3, 2]):
        with pytest.raises(InputError, match="radii"):
            kesten_test(group, radii)


def test_growth_generator_window():
    # restrict the plane walk to one axis: behaves like the line walk
    verdict = kesten_test(ZLattice(2), [20], omega=["x1", "X1"])
    assert verdict.target == 2.0
    assert abs(verdict.notes["radius_estimates"][-1]
               - 2.0 * math.cos(math.pi / 42)) < 1e-8


def test_growth_input_validation():
    g = ZLattice(2)
    with pytest.raises(InputError):
        kesten_test(g, [3, 3])
    with pytest.raises(InputError):
        kesten_test(g, 0)
    with pytest.raises(InputError):
        kesten_test(g, [2], tol=0.0)
    with pytest.raises(InputError):
        kesten_test(g, [2], omega=["x1"])               # not inversion closed
    with pytest.raises(InputError):
        kesten_test(g, [2], omega=["x1", "X1", "x1"])
    with pytest.raises(InputError):
        kesten_test(g, [2], omega=["x9", "X9"])
    with pytest.raises(InputError):
        kesten_test(g, [2], weights={"x1": 1.0, "X1": 2.0})
    with pytest.raises(InputError):
        kesten_test(g, [2], omega=["x1", "X1"], weights={"x2": 1.0, "X2": 1.0})
    with pytest.raises(InputError):
        kesten_test(g, [2], omega=[])


def reference_walk(group, weights, radius):
    """The walk on a fresh ball, one group.mul per entry: BFS, then s^-1 x."""
    elements, index, frontier = [group.identity], {group.identity: 0}, [group.identity]
    for _ in range(radius):
        grown = []
        for x in frontier:
            for nm in group.generator_names:
                y = group.mul(x, group.generators[nm])
                if y not in index:
                    index[y] = len(elements)
                    elements.append(y)
                    grown.append(y)
        frontier = grown
    rows, cols, vals, dropped = [], [], [], 0
    for i, x in enumerate(elements):
        for nm, w in weights.items():
            j = index.get(group.mul(group.inv(group.generators[nm]), x))
            if j is None:
                dropped += 1
            else:
                rows.append(i)
                cols.append(j)
                vals.append(float(w))
    n = len(elements)
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    matrix.sum_duplicates()
    return tuple(elements), matrix, dropped


@st.composite
def walk_inputs(draw):
    """A walk kesten_test solves on a ball: never unit weights on every
    generator of F_k, k >= 2, which it solves on the spheres instead."""
    group = draw(st.sampled_from(SMALL_GROUPS))
    spheres = isinstance(group, FreeGroup) and group.k > 1
    radii = sorted(draw(st.sets(st.integers(1, 6), min_size=1, max_size=4)))
    pairs = [nm for nm in group.generator_names if nm.islower()]
    window = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs) - spheres,
                           unique=True))
    window = [s for nm in window for s in (nm, nm.upper())]
    mode = draw(st.sampled_from(["omega", "weights"] if spheres else ["all", "omega", "weights"]))
    if mode == "all":
        return group, radii, None, None
    if mode == "omega":
        return group, radii, window, None
    mass = draw(st.lists(st.sampled_from([0.25, 0.5, 1.5, 3.0]),
                         min_size=len(window) // 2, max_size=len(window) // 2))
    weights = {s: m for nm, m in zip(window[::2], mass) for s in (nm, nm.upper())}
    return group, radii, None, weights


@settings(max_examples=25, deadline=None)
@given(walk_inputs())
def test_kesten_operators_match_fresh_builds(inputs):
    group, radii, omega, weights = inputs
    solved = []
    spectral_radius = walks.spectral_radius

    def recording(op, **kw):
        solved.append(op)
        return spectral_radius(op, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walks, "spectral_radius", recording)
        kesten_test(group, radii, omega=omega, weights=weights)
    if weights is None:
        weights = dict.fromkeys(omega or group.generator_names, 1.0)
    assert [op.meta["radius"] for op in solved] == radii
    ball = build_ball(group, radii[-1])     # row i of every operator is elements[i]
    for r, op in zip(radii, solved):
        elements, want, dropped = reference_walk(group, weights, r)
        assert ball.elements[:op.n] == elements
        for name in ("indptr", "indices", "data"):
            got, ref = getattr(op.matrix, name), getattr(want, name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), name
        assert op.meta["dropped"] == dropped


@st.composite
def cayley_inputs(draw):
    """A small group, a radius 0-6, and any nonempty window, closed under
    inversion or not, with weights that need not be symmetric."""
    group = draw(st.sampled_from(SMALL_GROUPS))
    window = draw(st.lists(st.sampled_from(group.generator_names), min_size=1, unique=True))
    weights = {nm: draw(st.sampled_from([0.25, 1.0, 3.0])) for nm in window}
    return group, draw(st.integers(0, 6)), weights


@settings(max_examples=60, deadline=None)
@given(cayley_inputs())
@example((FreeGroup(2), 6, {"a": 3.0, "B": 1.0}))
@example((FreeGroup(3), 6, {"a": 1.0, "A": 2.0, "c": 0.5}))
@example((ZLattice(2), 6, {"x1": 3.0, "X2": 1.0}))
def test_cayley_operator_matches_reference_walk(inputs):
    # the free walk comes from sphere positions, the lattice walk from
    # right-table columns: both give the reference's arrays, dtypes included
    group, radius, weights = inputs
    op = cayley_operator(group, weights, build_ball(group, radius))
    _, want, dropped = reference_walk(group, weights, radius)
    for name in ("indptr", "indices", "data"):
        got, ref = getattr(op.matrix, name), getattr(want, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name
    assert op.meta["dropped"] == dropped


def test_kesten_builds_one_ball_and_one_operator(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("build_ball", "cayley_operator", "spectral_radius"):
        monkeypatch.setattr(walks, name, counting(name, getattr(walks, name)))
    verdict = kesten_test(FreeGroup(2), 6, weights=dict(a=1.0, A=1.0, b=2.0, B=2.0))
    assert verdict.notes["ball_sizes"] == [2 * 3 ** r - 1 for r in range(1, 7)]
    assert calls.count("build_ball") == 1
    assert calls.count("cayley_operator") == 1
    assert calls.count("spectral_radius") == 6


@pytest.mark.parametrize("window", [
    {}, {"omega": list("BbAa")}, {"weights": dict(b=1, B=1, a=1.0, A=1.0)},
    {"omega": list("aAbB"), "weights": dict.fromkeys("aAbB", 1.0)},
])
def test_unit_free_walk_builds_no_ball(monkeypatch, window):
    # however the unit window is spelled, the walk is solved on its spheres
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("build_ball", "cayley_operator", "spectral_radius"):
        monkeypatch.setattr(walks, name, counting(name, getattr(walks, name)))
    verdict = kesten_test(FreeGroup(2), [2, 5, 6], **window)
    assert verdict.notes["ball_sizes"] == [2 * 3 ** r - 1 for r in (2, 5, 6)]
    assert calls == ["spectral_radius"] * 3
    assert verdict.operator.n == 7 and verdict.operator.meta["quotient_of"] == {
        "size": 1457, "nnz": 2912}


def _eigenvalue_at_least(x, k, radius):
    """Is some eigenvalue of the radius-R F_k ball walk >= x, decided exactly.

    Its top eigenvalue is that of the sphere quotient, the Jacobi matrix of
    zero diagonal whose off-diagonal squares are 2k, then 2k - 1: integers,
    and a tridiagonal's characteristic polynomial depends on its
    off-diagonal only through them. The LDL' pivots of T - x in Fractions,
    d_0 = -x, d_i = -x - b_i^2 / d_i-1, are all negative exactly when T - x
    is negative definite, when every eigenvalue lies below x."""
    x, d = Fraction(x), None
    for i in range(radius + 1):
        d = -x if i == 0 else -x - (2 * k if i == 1 else 2 * k - 1) / d
        if d >= 0:
            return True
    return False


@pytest.mark.parametrize("k, top", [(2, 13), (3, 9), (4, 7)])
def test_sphere_bounds_bracket_the_exact_radius(k, top):
    # at every radius the build cap admits, the solve closes at step R + 1 and
    # lower <= lambda_max <= upper, exactly, the lower bound within 1e-14 of it
    with pytest.raises(InputError):
        kesten_test(FreeGroup(k), [top + 1])
    verdict = kesten_test(FreeGroup(k), top)
    assert (verdict.spectral.iterations, verdict.spectral.stop) == (top + 1, "closure")
    assert verdict.spectral.radius_upper_bound > 2 * k
    assert not _eigenvalue_at_least(verdict.spectral.radius_upper_bound, k, top)
    for r, lower in zip(verdict.notes["radii"], verdict.notes["lower_bounds"]):
        assert _eigenvalue_at_least(lower, k, r), r
        assert not _eigenvalue_at_least(Fraction(lower) * (1 + Fraction(1, 10 ** 14)), k, r), r


def test_walk_f2_radius_10_lower_bound_is_below_the_radius(capsys):
    # the quotient's own float Rayleigh quotient, on rounded square roots,
    # lies above lambda_max here; the reported one, the ball's, does not
    code = cli.main(["walk", "--group", "F:2", "--radius", "10"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    lower = report["spectral"]["radius_lower_bound"]
    assert lower == report["verdict"]["notes"]["lower_bounds"][-1] == 3.3617818792328826
    assert _eigenvalue_at_least(lower, 2, 10)
    sizes = np.diff(walks._free_sphere_ends(2, 10), prepend=0)
    quotient = walks._sphere_quotient(2, 10, 1.0)
    run = spectral._lanczos(quotient, EIGEN_TOL, 300, start=np.sqrt(sizes))
    u = run.ritz_vector(int(np.argmax(np.abs(run.thetas))))    # the one the report reads
    naive = abs(float(u @ quotient.apply(u)))
    assert naive == 3.361781879232884
    assert not _eigenvalue_at_least(naive, 2, 10)


def _agree(got, want, scale):
    """got == want, but floats within 1e-12 of scale, the operator's radius."""
    if isinstance(want, float):
        return isinstance(got, float) and abs(got - want) <= 1e-12 * scale
    if isinstance(want, (list, tuple)):
        return len(got) == len(want) and all(_agree(g, w, scale) for g, w in zip(got, want))
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(_agree(got[k], want[k], scale) for k in want)
    return type(got) is type(want) and got == want


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.sets(st.integers(1, 5), min_size=1),
       st.one_of(st.just(1.0), st.floats(1e-3, 1e3)))
@example(2, {3, 5}, 2.0)
def test_sphere_solve_matches_the_ball_solve(k, radii, c):
    # the sphere path reports what a solve of the ball itself reports, for a
    # walk of one weight c on every generator; the ball's lower bound is its
    # float Rayleigh quotient less a proven margin of about 2n eps, so the
    # lower bounds agree within that margin
    radii, group = sorted(radii), FreeGroup(k)
    weights = dict.fromkeys(group.generator_names, c)
    quotients, solve = [], walks.spectral_radius

    def recording(op, **kw):
        rep = solve(op, **kw)
        quotients.append(rep)
        return rep

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walks, "spectral_radius", recording)
        verdict = kesten_test(group, radii, weights=weights)
    ball = build_ball(group, radii[-1])
    walk = cayley_operator(group, weights, ball)
    blocks = [walk.leading_block(ball.sphere_ends[r]) for r in radii]
    reports = [spectral_radius(op) for op in blocks]
    scale = reports[-1].radius_estimate
    margin = (1e-12 + (2 * ball.size + 2 * k + 4) * EPS) * scale

    def near(got, want):
        return all(abs(g - w) <= margin for g, w in zip(got, want, strict=True))

    assert verdict.target == float(sum(weights.values()))
    assert fingerprint(verdict.operator) == fingerprint(walk)
    got, want = verdict.spectral.to_dict(), reports[-1].to_dict()
    assert near([got.pop("radius_lower_bound")], [want.pop("radius_lower_bound")])
    assert _agree(got, want, scale)
    for got, want in zip(quotients, reports):
        assert (got.iterations, got.stop, got.converged, got.reorthogonalized) == (
            want.iterations, want.stop, want.converged, want.reorthogonalized)
        assert _agree(got.top_eigenvalues, want.top_eigenvalues, scale)
    lowers = [rep.radius_lower_bound for rep in reports]
    notes = verdict.notes
    assert notes["ball_sizes"] == [op.n for op in blocks]
    assert notes["eigensolver_converged"] == [rep.converged for rep in reports]
    assert _agree(notes["radius_estimates"], [rep.radius_estimate for rep in reports], scale)
    assert near(notes["lower_bounds"], lowers)
    assert verdict.certified == (max(lowers) >= verdict.target - verdict.tolerance)
    assert near([verdict.best_residual], [verdict.target - max(lowers)])


# -- group laws ---------------------------------------------------------------


word_strategy = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=8)


@settings(max_examples=80, deadline=None)
@given(word_strategy, word_strategy)
def test_free_words_stay_reduced(u, v):
    f = FreeGroup(2)
    x = f.mul((), tuple(u))       # reduce letter by letter
    y = f.mul((), tuple(v))
    z = f.mul(x, y)
    assert all(z[i] != -z[i + 1] for i in range(len(z) - 1))
    assert f.mul(z, f.inv(z)) == ()
    assert f.mul(f.inv(z), z) == ()


@settings(max_examples=50, deadline=None)
@given(word_strategy, word_strategy, word_strategy)
def test_free_multiplication_associative(u, v, w):
    f = FreeGroup(2)
    x, y, z = (f.mul((), tuple(t)) for t in (u, v, w))
    assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))


@settings(max_examples=50, deadline=None)
@given(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
       st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
def test_lattice_group_laws(x, y):
    g = ZLattice(2)
    assert g.mul(x, g.inv(x)) == g.identity
    assert g.mul(x, y) == g.mul(y, x)
