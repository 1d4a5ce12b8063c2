"""The input contract every public builder and test keeps.

A number is a Python or numpy int or float and never a bool; a count is an
integer of either kind. A numpy value gives the result its Python value
gives, held as Python numbers so that reports stay JSON; anything else is an
InputError, never a TypeError from deeper down.
"""

import json

import numpy as np
import pytest

from amenspec import (FreeGroup, InputError, LinOp, ZLattice, bicrossed_amenability_test,
                      build_ball, cayley_operator, coamenability_test, free_su2_ring,
                      fusion_operator, half_line_grid, in_spectrum, interval_operator,
                      interval_spectrum_test, interval_witness, kesten_test,
                      modular_weight_operator, pair_lattice, pair_shift_operator,
                      pair_window_operator, parse_descriptor, shift_operator, spectral_radius,
                      truncation_sweep, window_operator)


def path(n=20):
    return LinOp.from_entries(n, [*range(n - 1), *range(1, n)], [*range(1, n), *range(n - 1)],
                              np.ones(2 * (n - 1)))


def cyclic3(dim=1, mult=1, **fields):
    """The group ring of Z/3, with dim as the dimension of g and h and mult
    as the multiplicity of e in e (x) e."""
    fusion = [[[int(k == (i + j) % 3) for k in range(3)] for j in range(3)] for i in range(3)]
    fusion[0][0][0] = mult
    return parse_descriptor({"kind": "table", "labels": ["e", "g", "h"], "dims": [1, dim, dim],
                             "conj": ["e", "h", "g"], "fusion": fusion, **fields})


def rule(N=3, level=4):
    return parse_descriptor({"kind": "rule", "rule": "free-su2", "N": N, "level": level})


F2, GRID, PAIRS = FreeGroup(2), half_line_grid(0.5, 16.0), pair_lattice(3)
WINDOW = [(0, 1), (-1, 0)]

# (name of the function and argument, "count" or "number", a valid value, a call on it)
CASES = [
    ("spectral_radius.tol", "number", 0.5, lambda v: spectral_radius(path(), tol=v)),
    ("in_spectrum.target", "number", 0.5, lambda v: in_spectrum(path(), v)),
    ("in_spectrum.tol", "number", 0.5, lambda v: in_spectrum(path(), 1.0, tol=v)),
    ("in_spectrum.seed", "count", 3, lambda v: in_spectrum(path(), 0.5, seed=v)),
    ("truncation_sweep.sizes", "count", 10, lambda v: truncation_sweep(path(), [5, v])),
    ("truncation_sweep.tol", "number", 0.5, lambda v: truncation_sweep(path(), [10], tol=v)),
    ("parse_descriptor.N", "number", 3, lambda v: rule(N=v)),
    ("parse_descriptor.level", "count", 4, lambda v: rule(level=v)),
    ("parse_descriptor.dims", "number", 1, lambda v: cyclic3(dim=v)),
    ("parse_descriptor.fusion", "count", 1, lambda v: cyclic3(mult=v)),
    ("free_su2_ring.N", "number", 3, lambda v: free_su2_ring(v, 5).describe()),
    ("free_su2_ring.level", "count", 5, lambda v: free_su2_ring(3, v).describe()),
    ("fusion_operator.trunc", "count", 4,
     lambda v: fusion_operator(free_su2_ring(3, 5), "a1", v)),
    ("window_operator.trunc", "count", 4,
     lambda v: window_operator(free_su2_ring(3, 5), ["a1", "a2"], v)),
    ("coamenability_test.trunc", "count", 8,
     lambda v: coamenability_test(free_su2_ring(2, 9), ["a1"], trunc=v)),
    ("coamenability_test.tol", "number", 0.5,
     lambda v: coamenability_test(free_su2_ring(2, 9), ["a1"], trunc=8, tol=v)),
    ("coamenability_test.seed", "count", 3,
     lambda v: coamenability_test(free_su2_ring(2, 9), ["a1"], trunc=8, seed=v)),
    ("build_ball.radius", "count", 2,
     lambda v: cayley_operator(F2, {"a": 1.0, "A": 1.0}, build_ball(F2, v))),
    ("cayley_operator.weights", "number", 2,
     lambda v: cayley_operator(F2, {"a": v, "A": v}, build_ball(F2, 2))),
    ("modular_weight_operator.p", "number", 2,
     lambda v: modular_weight_operator(F2, v, {(1,): 1.0}, build_ball(F2, 2))),
    ("modular_weight_operator.density", "number", 2,
     lambda v: modular_weight_operator(F2, 1.0, {(1,): v, (-1,): v}, build_ball(F2, 2))),
    ("kesten_test.radii", "count", 3, lambda v: kesten_test(ZLattice(1), v)),
    ("kesten_test.tol", "number", 0.5, lambda v: kesten_test(ZLattice(1), 3, tol=v)),
    ("kesten_test.weights", "number", 0.1,
     lambda v: kesten_test(ZLattice(1), 3, weights={"x1": v, "X1": v})),
    ("half_line_grid.h", "number", 0.5, lambda v: shift_operator(half_line_grid(v, 8.0), 1.0)),
    ("half_line_grid.max_r", "number", 8, lambda v: shift_operator(half_line_grid(0.5, v), 1.0)),
    ("shift_operator.r", "number", 1, lambda v: shift_operator(GRID, v)),
    ("interval_operator.a", "number", 1, lambda v: interval_operator(GRID, v, 2.0)),
    ("interval_operator.b", "number", 2, lambda v: interval_operator(GRID, 1.0, v)),
    ("interval_witness.m", "number", 2, lambda v: interval_witness(GRID, v)),
    ("interval_spectrum_test.a", "number", 0, lambda v: interval_spectrum_test(GRID, v, 1.0)),
    ("interval_spectrum_test.b", "number", 1, lambda v: interval_spectrum_test(GRID, 0.0, v)),
    ("interval_spectrum_test.witness_ms", "number", 2,
     lambda v: interval_spectrum_test(GRID, 0.0, 1.0, witness_ms=[v])),
    ("interval_spectrum_test.tol", "number", 0.5,
     lambda v: interval_spectrum_test(GRID, 0.0, 1.0, tol=v)),
    ("interval_spectrum_test.seed", "count", 3,
     lambda v: interval_spectrum_test(GRID, 0.0, 1.0, seed=v)),
    ("pair_lattice.bound", "count", 3, lambda v: pair_window_operator(pair_lattice(v), WINDOW)),
    ("pair_shift_operator.shift", "count", 1, lambda v: pair_shift_operator(PAIRS, (v, 0))),
    ("pair_window_operator.omega", "count", 1,
     lambda v: pair_window_operator(PAIRS, [(0, v), (-v, 0)])),
    ("bicrossed_amenability_test.bounds", "count", 3,
     lambda v: bicrossed_amenability_test([2, v], WINDOW)),
    ("bicrossed_amenability_test.omega", "count", 1,
     lambda v: bicrossed_amenability_test(3, [(0, v), (-v, 0)])),
    ("bicrossed_amenability_test.tol", "number", 0.5,
     lambda v: bicrossed_amenability_test(3, WINDOW, tol=v)),
    ("bicrossed_amenability_test.seed", "count", 3,
     lambda v: bicrossed_amenability_test(3, WINDOW, seed=v)),
]


def as_json(result) -> str:
    """A result in JSON: a LinOp as its CSR arrays and meta, an array as a
    list, a report or verdict as its to_dict(). json refuses a numpy number."""
    if isinstance(result, LinOp):
        m = result.matrix
        result = [m.indptr.tolist(), m.indices.tolist(), m.data.tolist(), result.meta]
    elif isinstance(result, np.ndarray):
        result = result.tolist()
    elif hasattr(result, "to_dict"):
        result = result.to_dict()
    return json.dumps(result, sort_keys=True)


def numpy_forms(kind, value):
    forms = [np.int64(value), np.int32(value)] if kind == "count" else [np.float32(value)]
    if kind == "number" and float(value).is_integer():
        forms.append(np.int64(value))
    return forms


@pytest.mark.parametrize("kind, value, call", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_the_input_contract(kind, value, call):
    with pytest.raises(InputError):
        call(True)
    for x in numpy_forms(kind, value):
        plain = int(x) if isinstance(x, np.integer) else float(x)
        assert as_json(call(x)) == as_json(call(plain)), type(x)
    if kind == "count":
        with pytest.raises(InputError):
            call(value + 0.5)


# -- named regressions ---------------------------------------------------------


def test_a_bool_is_not_a_number():
    for call in (lambda: pair_lattice(True), lambda: half_line_grid(True, 8.0),
                 lambda: build_ball(F2, True),
                 lambda: cayley_operator(F2, {"a": True, "A": 1.0}, build_ball(F2, 1)),
                 lambda: in_spectrum(path(), True), lambda: spectral_radius(path(), tol=True)):
        with pytest.raises(InputError):
            call()


def test_numpy_integers_are_counts_and_numbers():
    assert pair_lattice(np.int64(3)).size == pair_lattice(3).size == 21
    assert build_ball(F2, np.int64(2)).size == build_ball(F2, 2).size == 17
    grid = half_line_grid(np.float32(0.5), np.int64(8))
    assert (grid.h, grid.max_r, grid.n) == (0.5, 8.0, 16)
    ball = build_ball(F2, 2)
    weighted = cayley_operator(F2, {"a": np.int64(2), "A": np.int64(2)}, ball)
    assert as_json(weighted) == as_json(cayley_operator(F2, {"a": 2, "A": 2}, ball))
    shifted = pair_shift_operator(PAIRS, (np.int64(0), np.int64(1)))
    assert shifted.meta["shift"] == (0, 1) and as_json(shifted) == as_json(
        pair_shift_operator(PAIRS, (0, 1)))


def test_a_float_trunc_is_an_input_error():
    with pytest.raises(InputError, match=r"trunc must be in \[1, 6\], got 3.0"):
        fusion_operator(free_su2_ring(3, 5), "a1", 3.0)


def test_a_fractional_level_is_refused_not_truncated():
    with pytest.raises(InputError, match="level must be a nonnegative integer"):
        free_su2_ring(2, 3.7)


def test_a_descriptor_holds_python_numbers():
    desc = rule(N=np.float32(2.5), level=np.int64(4))
    assert type(desc.N) is float and type(desc.level) is int
    table = cyclic3(dim=np.int64(1), mult=np.int64(1))
    assert json.dumps(table.to_dict()) == json.dumps(cyclic3().to_dict())


def test_a_seed_is_a_nonnegative_integer():
    # numpy's generator would take True as 1 and refuse -5 and 2.5 with its own errors
    for seed in (-5, 2.5, True, "7", None):
        with pytest.raises(InputError, match="seed must be a nonnegative integer"):
            in_spectrum(path(), 0.5, seed=seed)
    assert as_json(in_spectrum(path(), 0.5, seed=np.int64(3))) == as_json(
        in_spectrum(path(), 0.5, seed=3))


@pytest.mark.parametrize("shift", [(0, 1, 2), (0,), "01", 1],
                         ids=["triple", "1-tuple", "string", "int"])
def test_a_shift_is_a_pair_of_integers(shift):
    with pytest.raises(InputError, match="a shift must be a pair of integers"):
        pair_shift_operator(PAIRS, shift)
    with pytest.raises(InputError, match="a shift must be a pair of integers"):
        pair_window_operator(PAIRS, [shift, (-1, 0)])
    for pair in ([0, 1], np.array([0, 1])):     # any two integers make a pair
        assert as_json(pair_shift_operator(PAIRS, pair)) == as_json(
            pair_shift_operator(PAIRS, (0, 1)))
