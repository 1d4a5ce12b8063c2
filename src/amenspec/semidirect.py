"""Spectral models for two non-compact duals: a reflection family on a
half-line grid, and integer pair classes under coordinate shifts.

Half-line family. The spectrum is parametrized by r > 0 with a continuous
measure of density 1/(4 pi) and constant fiber dimension 2. A uniform grid
with step h carries cell midpoints (j + 1/2) h as sample points and cell
mass h / (4 pi). The reflection operator for parameter r moves mass between
cells j -> j - k, j -> j + k and j -> k - j - 1 with k = r / h, so shifts
are kept grid exact by snapping r to the nearest positive multiple of h.
Integrating the reflection family over an interval window gives the test
operator whose membership target is the window mass (b - a) / (2 pi).

Pair family. Classes are unordered pairs of distinct integers {g, g'}
inside a box [-B, B]; a shift pair (r, r') moves {g, g'} to {g - r, g' - r'}
and {g - r', g' - r}, dropping degenerate targets and anything outside the
box. Conjugation negates both coordinates. Fiber dimension is 2 throughout,
so a window of w shifts has mass target 2 w.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Sequence

import numpy as np

from .spectral import (DEFAULT_SEED, AmenabilityVerdict, InputError, LinOp, _MAX_BUILD,
                       _increasing_ints, _is_int, _is_real, _positive, _window, in_spectrum,
                       residual)

_QUAD_DENSITY = 1.0 / (4.0 * math.pi)


class HalfLineGrid:
    """Uniform half-line discretization: n cells of width h up to max_r.

    Cell j has midpoint (j + 1/2) h and mass cell_mass = h / (4 pi), its
    share of the spectral measure; the grid stores no per-cell array.
    """

    def __init__(self, h: float, max_r: float):
        h, max_r = _positive(h, "grid step h"), _positive(max_r, "grid extent max_r")
        cells = max_r / h
        if not cells <= _MAX_BUILD:      # an overflow to inf included
            raise InputError(f"too many grid cells: {cells:.3g}, more than {_MAX_BUILD}")
        n = int(round(cells))
        if n < 2 or abs(n * h - max_r) > 1e-9 * max(1.0, max_r):
            raise InputError("max_r must be an integer multiple of h, at least 2 cells")
        self.h, self.max_r, self.n = h, max_r, n
        self.cell_mass = self.h * _QUAD_DENSITY

    def snap(self, r: float) -> int:
        """Nearest positive multiple of h, in cell units, rounding half up."""
        return max(1, int(math.floor(_positive(r, "shift parameter r") / self.h + 0.5)))


def half_line_grid(h: float, max_r: float) -> HalfLineGrid:
    return HalfLineGrid(h, max_r)


def _reflection_bands(n: int, k: int) -> np.ndarray:
    """Rows and columns, as a 2 x m array, of the three unit bands of the
    reflection shift by k cells: j -> j - k, j + k and k - j - 1, in j order."""
    j, t = np.arange(max(n - k, 0)), np.arange(min(k, n))
    return np.stack((np.concatenate((j + k, j, t)), np.concatenate((j, j + k, k - 1 - t))))


def shift_operator(grid: HalfLineGrid, r: float) -> LinOp:
    """Reflection operator for parameter r, snapped to the grid.

    Rows hold at most two unit entries; the operator is exactly symmetric
    and its norm is bounded by the fiber dimension 2.
    """
    k = grid.snap(r)
    if k >= grid.n:
        raise InputError(f"shift parameter {r} reaches past the grid extent")
    rows, cols = _reflection_bands(grid.n, k)
    return LinOp.from_entries(grid.n, rows, cols, np.ones(len(rows)),
                              meta={"r": float(r), "r_snapped": k * grid.h,
                                    "snap_delta": k * grid.h - float(r),
                                    "shift_cells": k})


def interval_operator(grid: HalfLineGrid, a: float, b: float) -> LinOp:
    """Window operator for the interval [a, b], endpoints snapped outward.

    Quadrature nodes sit at the positive multiples of h covering the
    snapped interval, each carrying cell mass h / (4 pi). The membership
    target (b_s - a_s) / (2 pi) is stored in meta["target"].
    """
    if not (_is_real(a) and _is_real(b) and 0 <= a <= b <= grid.max_r):
        raise InputError("interval must satisfy 0 <= a <= b <= max_r")
    a, b = float(a), float(b)
    if a == b:
        return LinOp.from_entries(grid.n, [], [], [],
                                  meta={"a": a, "b": b, "snapped": [a, a],
                                        "nodes": 0, "target": 0.0})
    k_lo = int(math.floor(a / grid.h + 1e-9))
    k_hi = int(math.ceil(b / grid.h - 1e-9))
    # node k emits 2 max(n - k, 0) + min(k, n) = 2n - min(k, n) entries
    n, inside = grid.n, max(min(k_hi, grid.n) - k_lo, 0)          # nodes with k <= n
    entries = n * (k_hi - k_lo + inside) - inside * (2 * k_lo + inside + 1) // 2
    if entries > _MAX_BUILD:
        raise InputError(f"interval operator has {entries} entries, more than {_MAX_BUILD}")
    rows, cols = np.hstack([_reflection_bands(n, k) for k in range(k_lo + 1, k_hi + 1)]
                           or [np.empty((2, 0), dtype=np.int64)])
    vals = np.full(len(rows), grid.cell_mass)
    a_s, b_s = k_lo * grid.h, k_hi * grid.h
    target = (b_s - a_s) / (2.0 * math.pi)
    return LinOp.from_entries(grid.n, rows, cols, vals,
                              meta={"a": a, "b": b, "snapped": [a_s, b_s],
                                    "nodes": k_hi - k_lo, "target": target})


def interval_witness(grid: HalfLineGrid, m: float) -> np.ndarray:
    """Indicator of the dyadic band [m, 2m], unit norm in the cell measure.

    The residual of the interval operator against these witnesses decays
    like 1/m: the band is long enough that only its edges feel the window.
    """
    m = _positive(m, "witness scale m")
    if 2 * m > grid.max_r:
        raise InputError("witness band [m, 2m] must fit inside the grid")
    pts = (np.arange(grid.n) + 0.5) * grid.h
    v = np.where((pts >= m) & (pts <= 2 * m), math.sqrt(4.0 * math.pi / m), 0.0)
    nrm2 = float(v @ (grid.cell_mass * v))
    if nrm2 == 0:
        raise InputError("witness band contains no grid point")
    return v / math.sqrt(nrm2)


def interval_spectrum_test(grid: HalfLineGrid, a: float, b: float,
                           witness_ms: Sequence[float] = (2.0, 4.0, 8.0),
                           tol: float = 5e-2, seed: int = DEFAULT_SEED) -> AmenabilityVerdict:
    """Membership test for the interval mass, with banded witnesses.

    The verdict carries the interval operator it tested.
    """
    op = interval_operator(grid, a, b)
    target = op.meta["target"]
    witnesses = []
    for m in witness_ms:
        witnesses.append((f"band-{m:g}", interval_witness(grid, m)))
    verdict = in_spectrum(op, target, tol=tol, witnesses=witnesses, seed=seed)
    per = {}
    for wid, v in witnesses:
        per[wid] = residual(op, target, v)
    notes = {"snapped": op.meta["snapped"], "nodes": op.meta["nodes"],
             "grid": {"h": grid.h, "max_r": grid.max_r, "cells": grid.n},
             "witness_residuals": per}
    return dataclasses.replace(verdict, notes=notes)


# -- integer pair classes ----------------------------------------------------


def canonical_pair(a: int, b: int) -> tuple:
    return (a, b) if a < b else (b, a)


def conj_pair(c: tuple) -> tuple:
    return canonical_pair(-c[0], -c[1])


class PairLattice:
    """Unordered distinct integer pairs inside the box [-B, B]^2."""

    def __init__(self, bound: int):
        if not (_is_int(bound) and bound >= 1):
            raise InputError("bound must be a positive integer")
        self.bound = int(bound)
        self.size = self.bound * (2 * self.bound + 1)      # the class count
        if self.size > _MAX_BUILD:
            raise InputError(f"the bound-{bound} box has more than {_MAX_BUILD} classes")

    @property
    def classes(self) -> tuple:
        """Every class (g, g'), g < g', in class order, decoded on demand."""
        return tuple(zip(*(c.tolist() for c in _class_coords(self.bound))))


def pair_lattice(bound: int) -> PairLattice:
    return PairLattice(bound)


def _class_coords(bound: int) -> tuple:
    """Coordinates g < g' of every class of the box [-bound, bound], in class order."""
    g, gp = np.triu_indices(2 * bound + 1, 1)
    return g - bound, gp - bound


def _class_index(i, j, m: int):
    """The index of the class of box coordinates i < j (g + B and g' + B) in a box of width m."""
    return i * m - i * (i + 1) // 2 + j - i - 1


def _shift(shift) -> tuple:
    """shift, a pair of _is_int integers, as Python ints; else an InputError."""
    pair = tuple(shift) if isinstance(shift, Iterable) and not isinstance(shift, str) else ()
    if not (len(pair) == 2 and all(map(_is_int, pair))):
        raise InputError(f"a shift must be a pair of integers, got {shift!r}")
    return int(pair[0]), int(pair[1])


def pair_shift_operator(pairs: PairLattice, shift) -> LinOp:
    """Class-shift operator for one shift pair (r, r') with r != r'.

    Each class {g, g'} feeds its two shifted classes; degenerate targets
    (equal coordinates) are dropped, as is anything leaving the box. Every
    entry is 1: the family is unimodular, so the modular prefactor of any
    exponent p is identically 1 and the builder takes no p. Transposing
    gives the operator of the negated shift, so a single shift is symmetric
    only when {r, r'} = {-r, -r'}.
    """
    r, rp = _shift(shift)
    if r == rp:
        raise InputError("shift coordinates must be distinct")
    B, m = pairs.bound, 2 * pairs.bound + 1
    g, gp = _class_coords(B)
    cr, crp = (min(max(c, -m), m) for c in (r, rp))   # |c| >= m leaves the box; fits int64
    # both targets of each class in turn, as (i, j) box coordinates with i <= j
    x, y = np.stack((g - cr, g - crp), axis=1) + B, np.stack((gp - crp, gp - cr), axis=1) + B
    i, j = np.minimum(x, y).ravel(), np.maximum(x, y).ravel()
    keep = (i != j) & (i >= 0) & (j < m)
    rows = np.repeat(np.arange(len(g)), 2)[keep]
    cols = _class_index(i, j, m)[keep]
    dropped = int(np.count_nonzero(~keep))
    return LinOp.from_entries(pairs.size, rows, cols, np.ones(len(rows)),
                              meta={"shift": (r, rp), "bound": pairs.bound,
                                    "dropped": dropped})


def pair_window_operator(pairs: PairLattice, omega: Sequence) -> LinOp:
    """Sum of class shifts over a negation-closed window of shift pairs, each
    read as the unordered pair it shifts by, so (r, r') and (r', r) repeat.

    Conjugation {g, g'} -> {-g', -g} maps the shift by (r, r') to the shift
    by (-r, -r'), which the window holds, so the sum commutes with it; it is
    the operator's sigma, and a solve runs on its (n + B) / 2 orbits, the B
    classes {-a, a} fixed."""
    omega = [_shift(s) for s in omega]
    _window([canonical_pair(*s) for s in omega], "shift window", conj_pair, "negation")
    ops = [pair_shift_operator(pairs, s) for s in omega]
    B = pairs.bound
    g, gp = _class_coords(B)
    return LinOp(sum((o.matrix for o in ops[1:]), ops[0].matrix),
                 meta={"bound": B, "omega": [list(o.meta["shift"]) for o in ops],
                       "dropped": sum(o.meta["dropped"] for o in ops)},
                 sigma=_class_index(B - gp, B - g, 2 * B + 1))


def _box_witness(pairs: PairLattice, m: int) -> np.ndarray:
    g, gp = _class_coords(pairs.bound)
    flags = ((-g <= m) & (gp <= m)).astype(float)      # g < g', so max |.| is max(-g, g')
    total = flags.sum()
    return flags / math.sqrt(total) if total else flags


def bicrossed_amenability_test(bounds, omega: Sequence, tol: float = 5e-2,
                               seed: int = DEFAULT_SEED) -> AmenabilityVerdict:
    """Membership test for the window mass over a sweep of box bounds.

    omega is a conjugation-closed list of shift pairs; the window operator
    is the sum of their class shifts and the primary target is 2 |omega|
    (fiber dimension times window count). Witnesses are normalized box
    indicators at three scales plus the Ritz route. notes additionally
    reports the plain window count |omega| as a secondary membership check
    at the final bound, on that bound's Lanczos run, and eigensolver_converged
    says, per bound, whether its Lanczos run converged (a failed run did
    not). errors lists the route errors of every certificate, each prefixed
    with its bound or with "secondary".
    """
    bounds = _increasing_ints([bounds] if _is_int(bounds) else bounds, "bounds")
    omega = [tuple(s) for s in omega]

    target = 2.0 * len(omega)
    trace = []
    errors = []
    solved = []
    cert = None
    best_bound = None
    secondary = None
    for b in bounds:
        pairs = pair_lattice(b)
        op = pair_window_operator(pairs, omega)
        witnesses = [(f"box-{m}", _box_witness(pairs, m))
                     for m in sorted({max(1, b // 4), max(1, b // 2), b})]
        here = in_spectrum(op, target, tol=tol, witnesses=witnesses, seed=seed)
        if cert is None or here.best_residual < cert.best_residual:
            cert = here
            best_bound = b
        trace.append({"bound": b, "classes": pairs.size,
                      "best_residual": here.best_residual,
                      "witness_id": here.witness_id})
        errors += [f"bound {b}: {e}" for e in here.errors]
        solved.append(here.spectral is not None and here.spectral.converged)
        if b == bounds[-1]:
            sec = in_spectrum(op, float(len(omega)), tol=tol, seed=seed, reuse=here)
            secondary = {"target": sec.target, "best_residual": sec.best_residual,
                         "certified": sec.certified, "witness_id": sec.witness_id,
                         "gap_hint": sec.gap_hint}
            errors += [f"secondary: {e}" for e in sec.errors]
    notes = {"bounds": bounds, "best_bound": best_bound, "trace": trace,
             "window": op.meta["omega"], "secondary": secondary,
             "eigensolver_converged": solved}
    return dataclasses.replace(cert, notes=notes, errors=errors, operator=None,
                               spectral=None)
