"""Cayley walk operators on word-metric balls of finitely generated groups.

Two built-in families: integer lattices Z^d and free groups F_k, both with
explicit multiplication so balls can be enumerated breadth first. The walk
operator (A f)(x) = sum over generators s of w(s) f(s^{-1} x) is compressed
to a ball; steps leaving the ball are dropped. The growth criterion
compares the compressed spectral radius against the total generator weight:
for an amenable group the normalized radius climbs to 1 as the ball grows,
for a free group it stays pinned near the tree bound.
"""

from __future__ import annotations

import math
import string
from collections.abc import Sequence
from itertools import accumulate

import numpy as np
import scipy.sparse as sp

from .spectral import (EIGEN_TOL, AmenabilityVerdict, InputError, LinOp, _MAX_BUILD,
                       _check_solver_args, spectral_radius)

_MAX_STEPS = 2 ** 22   # most coordinate steps a lattice ball build takes (_check_ball_size)


class ZLattice:
    """Z^d with generator names x1..xd and uppercase inverses X1..Xd.
    name is the spec parse_group reads back."""

    def __init__(self, d: int):
        if d < 0:
            raise InputError("lattice rank must be nonnegative")
        if 2 * d * d > _MAX_BUILD:
            raise InputError(f"lattice rank {d}: 2d^2 coordinates, more than {_MAX_BUILD}")
        self.d = int(d)
        self.name = f"Z^d:{self.d}"
        self.identity = (0,) * self.d
        self.generators = {}
        for i in range(self.d):
            e = tuple(1 if j == i else 0 for j in range(self.d))
            self.generators[f"x{i + 1}"] = e
            self.generators[f"X{i + 1}"] = tuple(-c for c in e)
        self.generator_names = tuple(self.generators)

    def inverse_name(self, name: str) -> str:
        if name not in self.generators:
            raise InputError(f"unknown generator {name!r}")
        return name.swapcase()

    def mul(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def inv(self, x):
        return tuple(-a for a in x)

    def describe(self) -> dict:
        return {"family": "lattice", "rank": self.d}


class FreeGroup:
    """F_k on letters a, b, c, ... with uppercase inverses; reduced words.
    name is the spec parse_group reads back."""

    def __init__(self, k: int):
        if k < 0:
            raise InputError("free rank must be nonnegative")
        if k > 26:
            raise InputError("free rank capped at 26 letters")
        self.k = int(k)
        self.name = f"F:{self.k}"
        self.identity = ()
        self.generators = {}
        for i in range(self.k):
            self.generators[string.ascii_lowercase[i]] = (i + 1,)
            self.generators[string.ascii_uppercase[i]] = (-(i + 1),)
        self.generator_names = tuple(self.generators)

    def inverse_name(self, name: str) -> str:
        if name not in self.generators:
            raise InputError(f"unknown generator {name!r}")
        return name.swapcase()

    def mul(self, x, y):
        out = list(x)
        for s in y:
            if out and out[-1] == -s:
                out.pop()
            else:
                out.append(s)
        return tuple(out)

    def inv(self, x):
        return tuple(-s for s in reversed(x))

    def describe(self) -> dict:
        return {"family": "free", "rank": self.k}


def parse_group(text: str):
    """Group spec strings: 'Z^d:<d>' for lattices, 'F:<k>' for free groups."""
    if not isinstance(text, str):
        raise InputError("group spec must be a string")
    for prefix, cls in (("Z^d:", ZLattice), ("F:", FreeGroup)):
        if text.startswith(prefix):
            tail = text[len(prefix):]
            if not tail.isdigit():
                raise InputError(f"bad group rank in {text!r}")
            return cls(int(tail))
    raise InputError(f"unknown group spec {text!r}; use 'Z^d:<d>' or 'F:<k>'")


class _BallWords(Sequence):
    """A free ball's words, none stored: words[i] follows parent/step back
    to the identity, and get(word) walks right out from it one letter at a
    time and only away from it, so a word that is not reduced is not found.
    A slice is a tuple of words."""

    def __init__(self, letters, parent, step, right):
        self._letters, self._parent, self._step, self._right = letters, parent, step, right
        self._column = {s: c for c, s in enumerate(letters)}

    def __len__(self):
        return len(self._parent)

    def __getitem__(self, key):
        i = range(len(self))[key]
        if isinstance(i, range):
            return tuple(self[j] for j in i)
        word = []
        while i > 0:
            word.append(self._letters[self._step.item(i)])
            i = self._parent.item(i)
        return tuple(reversed(word))

    def get(self, word, default=None):
        if not isinstance(word, tuple):
            return default
        i = 0
        for s in word:
            j = self._right.item(i, self._column[s]) if s in self._column else -1
            if j < 0 or self._parent.item(j) != i:
                return default
            i = j
        return i

    def __contains__(self, word):
        return self.get(word) is not None


class BallTruncation:
    """Word-metric ball enumerated breadth first; order is deterministic.

    Row i of an operator on the ball is elements[i]; the operator keeps only
    its matrix. The ball is built once, at its radius, and every smaller ball
    is a prefix of it: the ball of radius r is elements[:sphere_ends[r]], so
    an operator on it is the leading principal block of the operator on this
    ball. right[i, c] is the index of elements[i] times the generator named
    group.generator_names[c], or -1 when that product lies outside the ball;
    parent[i] and step[i] give the element and the generator column through
    which the search first reached elements[i] (-1 for the identity).

    A lattice ball is searched with group multiplication and keeps a tuple
    of elements and an {element: position} dict. A free ball is closed-form,
    the Cayley graph of F_k being a tree. The search takes a word's children
    in column order, so sphere m lists its reduced words lexicographically:
    position p spells its word in digits, the first letter p // G^(m-1)
    (G = 2k - 1), each later one among the G columns other than the inverse
    of the one before. Its tables are built at the first read of one; its
    elements and index are one read-only sequence that decodes words on demand.
    """

    def __init__(self, group, radius: int, sphere_ends: tuple, **tables):
        self.group, self.radius, self.sphere_ends = group, radius, sphere_ends
        self.size = sphere_ends[-1]
        self.__dict__.update(tables)

    def __getattr__(self, name):    # a free ball's tables, at the first read of one
        if name not in ("elements", "index", "right", "parent", "step"):
            raise AttributeError(name)
        self.__dict__.update(_free_tables(self.group, self.radius))
        return self.__dict__[name]


def _free_tables(group: FreeGroup, radius: int) -> dict:
    """Tables of the F_k ball, one numpy pass per sphere: a word's children
    are the columns other than the inverse of its last step, in order, which
    makes each sphere lexicographic (BallTruncation). Column c ^ 1 is the
    inverse of column c; the identity's step -1 excludes none."""
    columns = np.arange(len(group.generator_names))
    parent, step, ends = [np.array([-1])], [np.array([-1])], [0, 1]
    for _ in range(radius):
        rows, cols = np.nonzero(columns != (step[-1][:, None] ^ 1))
        parent.append(rows + ends[-2])
        step.append(cols)
        ends.append(ends[-1] + len(cols))
    parent, step = np.concatenate(parent), np.concatenate(step)
    n = ends[-1]
    right = np.full((n, len(columns)), -1, dtype=np.int64)
    inner = np.arange(1, n)
    right[parent[1:], step[1:]] = inner
    right[inner, step[1:] ^ 1] = parent[1:]
    words = _BallWords(tuple(group.generators[nm][0] for nm in group.generator_names),
                       parent, step, right)
    return {"elements": words, "index": words, "right": right, "parent": parent, "step": step}


def _check_ball_size(group, radius: int) -> None:
    """Refuse a ball past _MAX_BUILD elements, counted in closed form, or
    spheres, and a lattice ball whose build takes more than _MAX_STEPS
    coordinate steps: n elements times 2d generators times d coordinates.
    The slowest build that passes, Z^d:1 at radius 1048575 (4,194,302
    steps), took 6.0 s and 651 MB (one core, Python 3.11); Z^d:2 at radius
    511 took 2.4 s and Z^d:100 at radius 1 0.4 s."""
    if isinstance(group, FreeGroup) and group.k > 1:    # the 2k-regular tree
        terms = (2 * group.k * (2 * group.k - 1) ** i for i in range(radius))
    else:   # Z^d, F_0 = Z^0, F_1 = Z^1: 2^j C(d, j) C(r, j) points with j nonzero coordinates
        d = group.k if isinstance(group, FreeGroup) else group.d
        terms = (2 ** j * math.comb(d, j) * math.comb(radius, j)
                 for j in range(1, min(d, radius) + 1))
    for n in accumulate(terms, initial=1):
        if n > _MAX_BUILD:
            raise InputError(f"the radius-{radius} ball has more than {_MAX_BUILD} elements")
    if radius + 1 > _MAX_BUILD:
        raise InputError(f"the radius-{radius} ball has more than {_MAX_BUILD} spheres")
    if isinstance(group, ZLattice) and n * 2 * group.d ** 2 > _MAX_STEPS:
        raise InputError(f"the radius-{radius} ball takes more than {_MAX_STEPS} "
                         "coordinate steps to build (elements times 2d^2)")


def build_ball(group, radius: int) -> BallTruncation:
    if not isinstance(radius, int) or radius < 0:
        raise InputError("radius must be a nonnegative integer")
    _check_ball_size(group, radius)
    if isinstance(group, FreeGroup):   # spheres of 1, then 2k (2k - 1)^m words
        return BallTruncation(group, radius, tuple(accumulate(
            (2 * group.k * (2 * group.k - 1) ** m for m in range(radius)), initial=1)))
    order = [group.identity]
    index = {group.identity: 0}
    parent, step, right, ends = [-1], [-1], [], []
    gens = list(enumerate(group.generators[nm] for nm in group.generator_names))
    mul, lookup = group.mul, index.get
    start = 0
    for d in range(radius + 1):
        end = len(order)
        ends.append(end)
        for i in range(start, end):
            x = order[i]
            for c, g in gens:
                y = mul(x, g)
                j = lookup(y)
                if j is None and d < radius:
                    j = index[y] = len(order)
                    order.append(y)
                    parent.append(i)
                    step.append(c)
                right.append(-1 if j is None else j)
        start = end
    n = len(order)
    return BallTruncation(group, radius, tuple(ends), elements=tuple(order), index=index,
                          right=np.array(right, dtype=np.int64).reshape(n, len(gens)),
                          parent=np.array(parent, dtype=np.int64),
                          step=np.array(step, dtype=np.int64))


def cayley_operator(group, weights: dict, ball: BallTruncation) -> LinOp:
    """Weighted left-convolution walk compressed to the ball.

    (A f)(x) = sum_s w(s) f(s^{-1} x). Exactly symmetric when the weight
    function is symmetric under inversion of the generator set. Z^d is
    abelian, so s^{-1} x = x s^{-1}: its left neighbours are columns of the
    ball's right-neighbour table. A free walk reads no table: the word x at
    position p = c q + rem of sphere m >= 1, q = G^(m-1), has first letter c
    (BallTruncation), and its tail, x without it, is the identity for m = 1,
    else position rem + [rem // r >= c ^ 1] r of sphere m - 1, r = q / G.
    Left convolution joins a word only to its tail, A[x, tail x] = w(c) and
    A[tail x, x] = w(c^-1), so A = B + C^T for B and C of one entry per row;
    a letter outside the window weighs 0, and the sum drops its entries.
    """
    if not weights:
        raise InputError("weights must be nonempty")
    for nm, w in weights.items():
        if nm not in group.generators:
            raise InputError(f"unknown generator {nm!r}")
        if not (isinstance(w, (int, float)) and np.isfinite(w) and w > 0):
            raise InputError(f"weight for {nm!r} must be a positive number")
    names, n, ends = group.generator_names, ball.size, (0,) + ball.sphere_ends
    meta = {"group": group.describe(), "radius": ball.radius, "weights": dict(weights)}
    if isinstance(group, FreeGroup):
        g, (first, tail) = len(names) - 1, np.zeros((2, n), dtype=np.int64)
        second = np.arange(g) + (np.arange(g) >= np.arange(g + 1)[:, None] ^ 1)  # [c, j]
        for m in range(1, ball.radius + 1):
            q, r, sphere = g ** (m - 1), g ** (m - 1) // g, slice(ends[m], ends[m + 1])
            first[sphere] = np.repeat(np.arange(g + 1), q)
            if m > 1:   # rem = j r + i, i < r: the tail sits at (j + [j >= c ^ 1]) r + i
                tail[sphere] = (ends[m - 1] + second[..., None] * r + np.arange(r)).ravel()
        w = np.array([float(weights.get(nm, 0.0)) for nm in names])
        indptr = np.r_[0, np.arange(n)]     # row 0, the identity, has no tail
        op = LinOp(sp.csr_matrix((w[first[1:]], tail[1:], indptr), shape=(n, n))
                   + sp.csc_matrix((w[first[1:] ^ 1], tail[1:], indptr), shape=(n, n)), meta)
    else:   # column c ^ 1 is the inverse of column c
        left = ball.right[:, [names.index(nm) ^ 1 for nm in weights]]
        kept = left.ravel() >= 0
        rows = np.repeat(np.arange(n), len(weights))[kept]
        vals = np.tile(np.array([float(w) for w in weights.values()]), n)[kept]
        op = LinOp.from_entries(n, rows, left.ravel()[kept], vals, meta)
    op.meta["dropped"] = n * len(weights) - op.nnz
    return op


def modular_weight_operator(group, p: float, density: dict,
                            ball: BallTruncation) -> LinOp:
    """Right-shift operator with modular prefactor, for exponent p >= 1.

    (A f)(x) = sum_z c(z) modular(z)^((1-p)/2) f(x z^{-1}), summed over the
    support of the density c. Both built-in families are unimodular, so the
    prefactor is identically 1 and the entries are the density itself; p is
    only validated and recorded in meta.
    """
    if not (isinstance(p, (int, float)) and np.isfinite(p) and p >= 1):
        raise InputError("exponent p must be a number >= 1")
    if not density:
        raise InputError("density must be nonempty")
    for z, w in density.items():
        if z not in ball.index:
            raise InputError(f"density support point {z!r} lies outside the ball")
        if not (isinstance(w, (int, float)) and np.isfinite(w) and w > 0):
            raise InputError(f"density weight for {z!r} must be a positive number")
    shifts = np.empty((ball.size, len(density)), dtype=np.int64)   # x z^-1, or -1 outside
    for c, z in enumerate(density):
        zi = group.inv(z)
        if isinstance(group, FreeGroup):
            # walk right from x along the reduced word z^-1, a path in the tree
            # that never backtracks: once out of the ball, it stays out
            j = np.arange(ball.size)
            for s in zi:
                j = np.where(j < 0, -1, ball.right[j, ball.elements._column[s]])
            shifts[:, c] = j
        else:
            shifts[:, c] = [ball.index.get(group.mul(x, zi), -1) for x in ball.elements]
    kept = shifts.ravel() >= 0
    rows = np.repeat(np.arange(ball.size), len(density))[kept]
    vals = np.tile(np.array([float(w) for w in density.values()]), ball.size)[kept]
    return LinOp.from_entries(ball.size, rows, shifts.ravel()[kept], vals,
                              meta={"group": group.describe(), "radius": ball.radius,
                                    "p": float(p), "support": len(density),
                                    "dropped": int(kept.size - kept.sum())})


def kesten_test(group, radii, omega: Sequence[str] | None = None, tol: float = 0.05,
                max_iter: int = 300, weights: dict | None = None) -> AmenabilityVerdict:
    """Growth test: does the compressed walk radius reach the total weight.

    radii may be a single radius (swept from 1) or an increasing sequence.
    The ball is built once, at the largest radius; breadth-first order makes
    each smaller ball a prefix of it, so each smaller radius is solved on a
    leading principal block of that one operator. With unit weights the
    target is |omega|; an explicit symmetric weight map shifts the target to
    its total mass. The verdict certifies when some ball's rigorous lower
    bound comes within tol of the target. notes carries the per-radius trace
    and a curvature-corrected limit estimate from the last two radii; the
    verdict carries the largest ball's operator and its SpectralReport.
    """
    # a range increases by construction; build_ball bounds it before it is listed
    radii = range(1, radii + 1) if isinstance(radii, int) else [int(r) for r in radii]
    if not radii or radii[0] <= 0 or isinstance(radii, list) and any(
            b <= a for a, b in zip(radii, radii[1:])):
        raise InputError("radii must be strictly increasing positive integers")
    _check_solver_args(tol, max_iter)

    if not group.generator_names:
        # trivial group: the walk degenerates to averaging over {identity}
        op = LinOp(np.eye(1))
        rep = spectral_radius(op)
        notes = {"radii": [0], "ball_sizes": [1],
                 "radius_estimates": [rep.radius_estimate],
                 "lower_bounds": [rep.radius_lower_bound],
                 "normalized": [rep.radius_estimate], "limit_estimate": 1.0,
                 "eigensolver_converged": [rep.converged],
                 "convention": "trivial group walks over {identity}"}
        return AmenabilityVerdict(1.0, tol, abs(1.0 - rep.radius_lower_bound),
                                  rep.radius_lower_bound >= 1.0 - tol, "ball-0",
                                  max(0.0, 1.0 - rep.radius_estimate), notes,
                                  operator=op, spectral=rep)

    if weights is not None:
        if omega is not None and set(omega) != set(weights):
            raise InputError("omega and weights must name the same generators")
        names = list(weights)
    else:
        names = list(omega) if omega is not None else list(group.generator_names)
    if not names:
        raise InputError("generator window must be nonempty")
    if len(set(names)) != len(names):
        raise InputError("generator window must not repeat names")
    for nm in names:
        if nm not in group.generators:
            raise InputError(f"unknown generator {nm!r}")
    if {group.inverse_name(nm) for nm in names} != set(names):
        raise InputError("generator window must be closed under inversion")
    if weights is None:
        weights = {nm: 1.0 for nm in names}
    elif any(weights[group.inverse_name(nm)] != w for nm, w in weights.items()):
        raise InputError("weights must be symmetric under inversion")

    target = float(sum(weights.values()))
    sizes, estimates, lowers, solved = [], [], [], []
    ball = build_ball(group, radii[-1])
    full = cayley_operator(group, weights, ball)
    for r in radii:
        op = full.leading_block(ball.sphere_ends[r])
        op.meta = {**full.meta, "radius": r, "dropped": op.n * len(weights) - op.nnz}
        rep = spectral_radius(op, tol=EIGEN_TOL, max_iter=max_iter)
        sizes.append(op.n)
        estimates.append(rep.radius_estimate)
        lowers.append(rep.radius_lower_bound)
        solved.append(rep.converged)

    best = int(np.argmax(lowers))
    best_lower = lowers[best]
    normalized = [e / target for e in estimates]
    if len(radii) >= 2:
        r1, r2 = radii[-2], radii[-1]
        a, b = normalized[-2], normalized[-1]
        limit = (r2 ** 2 * b - r1 ** 2 * a) / (r2 ** 2 - r1 ** 2)
    else:
        limit = normalized[-1]
    notes = {"radii": list(radii), "ball_sizes": sizes, "radius_estimates": estimates,
             "lower_bounds": lowers, "normalized": normalized,
             "limit_estimate": float(limit), "eigensolver_converged": solved}
    certified = bool(best_lower >= target - tol)
    return AmenabilityVerdict(target, tol, float(max(0.0, target - best_lower)),
                              certified, f"ball-{radii[best]}",
                              float(max(0.0, target - max(estimates))), notes,
                              operator=op, spectral=rep)
