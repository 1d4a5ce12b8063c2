"""Cayley walk operators on word-metric balls of finitely generated groups.

Two built-in families: integer lattices Z^d and free groups F_k, both with
explicit multiplication so balls can be enumerated breadth first. The walk
operator (A f)(x) = sum over generators s of w(s) f(s^{-1} x) is compressed
to a ball; steps leaving the ball are dropped. The growth criterion
compares the compressed spectral radius against the total generator weight:
for an amenable group the normalized radius climbs to 1 as the ball grows,
for a free group it stays pinned near the tree bound. A walk of one weight
on every generator of F_k, k >= 2, is radial, and kesten_test solves it on
the ball's spheres.
"""

from __future__ import annotations

import dataclasses
import math
import string
from collections.abc import Sequence
from itertools import accumulate

import numpy as np
import scipy.sparse as sp

from .spectral import (EIGEN_TOL, AmenabilityVerdict, InputError, LinOp, _MAX_BUILD,
                       _increasing_ints, _is_int, _is_real, _positive, _raised_sum, _window,
                       spectral_radius)

_MAX_STEPS = 2 ** 22   # most coordinate steps a lattice ball build takes (_check_ball_size)


class _Group:
    """A group whose generators are named so that swapping case inverts one."""

    def inverse_name(self, name: str) -> str:
        if name not in self.generators:
            raise InputError(f"unknown generator {name!r}")
        return name.swapcase()


class ZLattice(_Group):
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

    def mul(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def inv(self, x):
        return tuple(-a for a in x)

    def describe(self) -> dict:
        return {"family": "lattice", "rank": self.d}


class FreeGroup(_Group):
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
            tail = text[len(prefix):]     # ASCII digits, no more than the build cap has
            if not (tail.isascii() and tail.isdigit() and len(tail) <= len(str(_MAX_BUILD))):
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
    group.generator_names[c], or -1 when that product lies outside the ball.

    A lattice ball is searched with group multiplication and keeps right, a
    tuple of elements and an {element: position} dict as index, nothing
    more. A free ball is closed-form, the Cayley graph of F_k being a tree.
    The search takes a word's children in column order, so sphere m lists
    its reduced words lexicographically: position p spells its word in
    digits, the first letter p // G^(m-1) (G = 2k - 1), each later one among
    the G columns other than the inverse of the one before. Its tables are
    built at the first read of one: right, and parent[i] and step[i], the
    element and the generator column through which the search first reached
    elements[i] (-1 for the identity); its elements and index are one
    read-only sequence that decodes words on demand.
    """

    def __init__(self, group, radius: int, sphere_ends: tuple, **tables):
        self.group, self.radius, self.sphere_ends = group, radius, sphere_ends
        self.size = sphere_ends[-1]
        self.__dict__.update(tables)

    def __getattr__(self, name):    # a free ball's tables, at the first read of one
        if name not in ("elements", "index", "right", "parent", "step") or not isinstance(
                self.group, FreeGroup):
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


def _free_sphere_ends(k: int, radius: int) -> tuple:
    """The sphere ends of the F_k ball: spheres of 1, then 2k (2k - 1)^m words."""
    return tuple(accumulate((2 * k * (2 * k - 1) ** m for m in range(radius)), initial=1))


def build_ball(group, radius: int) -> BallTruncation:
    if not (_is_int(radius) and radius >= 0):
        raise InputError("radius must be a nonnegative integer")
    radius = int(radius)
    _check_ball_size(group, radius)
    if isinstance(group, FreeGroup):
        return BallTruncation(group, radius, _free_sphere_ends(group.k, radius))
    order = [group.identity]
    index = {group.identity: 0}
    right, ends = [], []
    gens = [group.generators[nm] for nm in group.generator_names]
    mul, lookup = group.mul, index.get
    start = 0
    for d in range(radius + 1):
        end = len(order)
        ends.append(end)
        for x in order[start:end]:
            for g in gens:
                y = mul(x, g)
                j = lookup(y)
                if j is None and d < radius:
                    j = index[y] = len(order)
                    order.append(y)
                right.append(-1 if j is None else j)
        start = end
    n = len(order)
    return BallTruncation(group, radius, tuple(ends), elements=tuple(order), index=index,
                          right=np.array(right, dtype=np.int64).reshape(n, len(gens)))


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
    for nm in weights:
        group.inverse_name(nm)      # an unknown generator is an InputError
    weights = {nm: _positive(w, f"weight for {nm!r}") for nm, w in weights.items()}
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
    if not (_is_real(p) and 1 <= p < math.inf):
        raise InputError("exponent p must be a number >= 1")
    if not density:
        raise InputError("density must be nonempty")
    for z, w in density.items():
        if z not in ball.index:
            raise InputError(f"density support point {z!r} lies outside the ball")
        _positive(w, f"density weight for {z!r}")
    shifts = np.empty((ball.size, len(density)), dtype=np.int64)   # x z^-1, or -1 outside
    columns = {g: c for c, g in enumerate(group.generators.values())}
    for c, z in enumerate(density):
        zi = group.inv(z)
        if isinstance(group, FreeGroup):
            # walk right from x along the reduced word z^-1, a path in the tree
            # that never backtracks: once out of the ball, it stays out
            j = np.arange(ball.size)
            for s in zi:
                j = np.where(j < 0, -1, ball.right[j, columns[(s,)]])
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


def _sphere_quotient(k: int, radius: int, c: float) -> LinOp:
    """The walk of weight c on every generator of F_k (k >= 2) on the ball of
    the given radius, on its spheres: c times the unit walk's. The spheres
    partition the ball equitably: a word of sphere m has B[m, m+1]
    neighbours in sphere m + 1, 2k for m = 0 and 2k - 1 after, and B[m, m-1]
    = 1 in sphere m - 1. So the unit walk maps the sphere-constant
    vectors, scaled by sqrt(sphere size), to themselves by the symmetric
    Jacobi matrix of zero diagonal and off-diagonal sqrt(B[m, m+1] B[m+1, m]):
    sqrt(2k), then sqrt(2k - 1) (Godsil and Royle, Algebraic Graph Theory,
    9.3). Lanczos from the ball's constant vector never leaves that space, and
    the ball's Perron vector is sphere-constant, so its radius is this
    matrix's (Kesten, Trans. AMS 92, 1959). A smaller radius's quotient is
    its leading block."""
    beta = np.full(radius, math.sqrt(2 * k - 1))
    beta[0] = math.sqrt(2 * k)
    return LinOp(sp.diags([c * beta, c * beta], [-1, 1]))


def _sphere_solve(quotient: LinOp, k: int, r: int, ends: tuple, c: float) -> tuple:
    """(operator, SpectralReport) of the F_k walk of weight c on every
    generator on the radius-r ball, solved on the leading r + 1 block of its
    _sphere_quotient from sqrt(sphere sizes / n), the image of the ball's
    constant start: in exact arithmetic the run is the ball's. The operator's meta names the ball's
    size n and nnz 2(n - 1), a tree's edges stored twice, for fingerprint.

    The report keeps the ball's proven bounds. The upper one is the ball's
    Gershgorin bound, row sums of at most 2k entries c, 2k c raised as
    _row_sum_bound raises them. The lower one is the Rayleigh quotient, on
    the ball, of the sphere-constant x with x_0 = 1 and t x_m = x_m-1 +
    B[m, m+1] x_m+1 (x_-1 = 0), the unit walk's eigenvector recurrence at
    t = theta / c, theta the estimate: the ball's Perron vector up to
    rounding. With s_m the sphere sizes, x'Ax = 2 c sum s_m+1 x_m x_m+1 and
    x'x = sum s_m x_m^2 are summed exactly in integers, the float x_m over a
    common power of two and c as its integer ratio, and their quotient is
    rounded down; a Rayleigh quotient never exceeds lambda_max. The
    quotient's own, on rounded square roots, can: by 1.2e-15 at F_2 radius
    10."""
    n = ends[r]
    spheres = [b - a for a, b in zip((0,) + ends, ends[:r + 1])]
    op = quotient.leading_block(r + 1)
    op.meta = {**quotient.meta, "radius": r, "dropped": 2 * k * n - 2 * (n - 1),
               "quotient_of": {"size": n, "nnz": 2 * (n - 1)}}
    rep = spectral_radius(op, tol=EIGEN_TOL, start=np.sqrt(np.array(spheres) / n))
    theta = rep.radius_estimate
    t = theta / c
    x = [1.0, t / (2 * k)]
    while len(x) <= r:
        x.append((t * x[-1] - x[-2]) / (2 * k - 1))
    ratios = [v.as_integer_ratio() for v in x]      # x_m = X_m / d, exactly
    d = max(b for _, b in ratios)
    X = [a * (d // b) for a, b in ratios]
    cp, cq = c.as_integer_ratio()
    num = abs(2 * cp * sum(s * a * b for s, a, b in zip(spheres[1:], X, X[1:])))
    den = cq * sum(s * v * v for s, v in zip(spheres, X))
    lower = num / den           # an int quotient, correctly rounded
    p, q = lower.as_integer_ratio()
    if p * den > num * q:       # rounded up: step down
        lower = math.nextafter(lower, 0.0)
    return op, dataclasses.replace(rep, radius_estimate=max(theta, lower),
                                   radius_lower_bound=lower,
                                   radius_upper_bound=_raised_sum(2.0 * k * c, 2 * k))


def kesten_test(group, radii, omega: Sequence[str] | None = None, tol: float = 0.05,
                weights: dict | None = None) -> AmenabilityVerdict:
    """Growth test: does the compressed walk radius reach the total weight.

    radii may be one integer radius (swept from 1) or an increasing sequence
    of them. With unit weights the target is |omega|; an explicit symmetric
    weight map shifts the target to its total mass. The verdict certifies
    when some ball's rigorous lower bound comes within tol of the target.
    notes carries the per-radius trace and a curvature-corrected limit
    estimate from the last two radii; the verdict carries the largest ball's
    operator and its SpectralReport.

    A walk of one weight c on every generator of F_k, k >= 2, is solved on
    its spheres (_sphere_quotient, _sphere_solve): no ball is built, and the
    verdict's operator is the largest radius's quotient, an (R+1)-square
    Jacobi matrix whose meta["quotient_of"] holds the ball's size and nnz,
    which fingerprint reports. Any other walk builds one ball, at the
    largest radius; breadth-first order makes each smaller ball a prefix of
    it, so each smaller radius is solved on a leading principal block of
    that one operator, and the verdict's operator is the ball's own. The
    trivial group has no generator to name: it takes no window, and its
    walk is the 1 x 1 identity on the identity, solved once, at radius 0,
    against target 1, with a convention note.
    """
    # a range increases by construction; build_ball bounds it before it is listed
    radii = range(1, int(radii) + 1) if _is_int(radii) else _increasing_ints(radii, "radii")
    if not radii or radii[0] <= 0:
        raise InputError("radii must be strictly increasing positive integers")
    tol = _positive(tol, "tol")
    if weights is not None:
        if omega is not None and set(omega) != set(weights):
            raise InputError("omega and weights must name the same generators")
        names = list(weights)
    else:
        names = list(omega) if omega is not None else list(group.generator_names)
    if names or group.generator_names:
        names = _window(names, "generator window", group.inverse_name, "inversion")
    if weights is None:
        weights = {nm: 1.0 for nm in names}
    elif any(weights[group.inverse_name(nm)] != w for nm, w in weights.items()):
        raise InputError("weights must be symmetric under inversion")
    weights = {nm: _positive(w, f"weight for {nm!r}") for nm, w in weights.items()}
    tree = (isinstance(group, FreeGroup) and group.k > 1
            and set(weights) == set(group.generator_names) and len(set(weights.values())) == 1)

    target = float(sum(weights.values()))
    if not group.generator_names:       # the walk averages over {identity}
        full, target, radii, ends = LinOp(np.eye(1)), 1.0, [0], (1,)
    elif tree:
        _check_ball_size(group, radii[-1])
        c = weights[names[0]]
        full = _sphere_quotient(group.k, radii[-1], c)
        ends = _free_sphere_ends(group.k, radii[-1])
        full.meta = {"group": group.describe(), "radius": radii[-1], "weights": weights}
    else:
        ball = build_ball(group, radii[-1])
        full, ends = cayley_operator(group, weights, ball), ball.sphere_ends
    sizes, estimates, lowers, solved = [], [], [], []
    for r in radii:
        if tree:
            op, rep = _sphere_solve(full, group.k, r, ends, c)
        else:
            op = full.leading_block(ends[r])
            if op is not full:
                op.meta = {**full.meta, "radius": r, "dropped": op.n * len(weights) - op.nnz}
            rep = spectral_radius(op, tol=EIGEN_TOL)
        sizes.append(ends[r])
        estimates.append(rep.radius_estimate)
        lowers.append(rep.radius_lower_bound)
        solved.append(rep.converged)

    best = int(np.argmax(lowers))
    normalized = [e / target for e in estimates]
    if len(radii) >= 2:
        (r1, r2), (a, b) = radii[-2:], normalized[-2:]
        limit = (r2 ** 2 * b - r1 ** 2 * a) / (r2 ** 2 - r1 ** 2)
    else:
        limit = normalized[-1]
    notes = {"radii": list(radii), "ball_sizes": sizes, "radius_estimates": estimates,
             "lower_bounds": lowers, "normalized": normalized,
             "limit_estimate": float(limit), "eigensolver_converged": solved}
    if not group.generator_names:
        notes["convention"] = "trivial group walks over {identity}"
    return AmenabilityVerdict(target, tol, float(max(0.0, target - lowers[best])),
                              bool(lowers[best] >= target - tol), f"ball-{radii[best]}",
                              float(max(0.0, target - max(estimates))), notes,
                              operator=op, spectral=rep)
