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

import string
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .spectral import (DEFAULT_SEED, DISCRETE_LABELS, EIGEN_TOL, AmenabilityVerdict,
                       InputError, LinOp, SpectrumDomain, fingerprint, spectral_radius)


class ZLattice:
    """Z^d with generator names x1..xd and uppercase inverses X1..Xd."""

    kind = "lattice"

    def __init__(self, d: int):
        if d < 0:
            raise InputError("lattice rank must be nonnegative")
        self.d = int(d)
        self.name = f"Z^{self.d}"
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

    def modular(self, x) -> float:
        return 1.0

    def describe(self) -> dict:
        return {"family": "lattice", "rank": self.d}


class FreeGroup:
    """F_k on letters a, b, c, ... with uppercase inverses; reduced words."""

    kind = "free"

    def __init__(self, k: int):
        if k < 0:
            raise InputError("free rank must be nonnegative")
        if k > 26:
            raise InputError("free rank capped at 26 letters")
        self.k = int(k)
        self.name = f"F_{self.k}"
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

    def modular(self, x) -> float:
        return 1.0

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


@dataclass(eq=False, repr=False)
class BallTruncation:
    """Word-metric ball enumerated breadth first; order is deterministic.

    The ball is built once, at its radius, and every smaller ball is a
    prefix of it: the ball of radius r is elements[:sphere_ends[r]], so an
    operator on it is the leading principal block of the operator on this
    ball. right[i, c] is the index of elements[i] times the generator named
    group.generator_names[c], or -1 when that product lies outside the ball;
    parent[i] and step[i] give the element and the generator column through
    which the search first reached elements[i] (-1 for the identity).
    """

    group: object
    radius: int
    elements: tuple
    index: dict
    sphere_ends: tuple
    right: np.ndarray
    parent: np.ndarray
    step: np.ndarray

    def __post_init__(self):
        n = len(self.elements)
        self.domain = SpectrumDomain(DISCRETE_LABELS, self.elements, np.ones(n), np.ones(n))

    @property
    def size(self) -> int:
        return len(self.elements)


def build_ball(group, radius: int) -> BallTruncation:
    if not isinstance(radius, int) or radius < 0:
        raise InputError("radius must be a nonnegative integer")
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
    return BallTruncation(group, radius, tuple(order), index, tuple(ends),
                          np.array(right, dtype=np.int64).reshape(n, len(gens)),
                          np.array(parent, dtype=np.int64), np.array(step, dtype=np.int64))


def cayley_operator(group, weights: dict, ball: BallTruncation) -> LinOp:
    """Weighted left-convolution walk compressed to the ball.

    (A f)(x) = sum_s w(s) f(s^{-1} x). Exactly symmetric when the weight
    function is symmetric under inversion of the generator set. The left
    neighbours come from the ball's right-neighbour table through the BFS
    parents: s^{-1} (p g) = (s^{-1} p) g, and s^{-1} p always lies in the
    ball because p lies strictly inside it.
    """
    if not weights:
        raise InputError("weights must be nonempty")
    for nm, w in weights.items():
        if nm not in group.generators:
            raise InputError(f"unknown generator {nm!r}")
        if not (isinstance(w, (int, float)) and np.isfinite(w) and w > 0):
            raise InputError(f"weight for {nm!r} must be a positive number")
    symmetric = all(weights.get(group.inverse_name(nm)) == w
                    for nm, w in weights.items())
    column = {nm: c for c, nm in enumerate(group.generator_names)}
    left = np.empty((ball.size, len(weights)), dtype=np.int64)
    left[0] = ball.right[0, [column[group.inverse_name(nm)] for nm in weights]]
    for lo, hi in zip(ball.sphere_ends, ball.sphere_ends[1:]):
        left[lo:hi] = ball.right[left[ball.parent[lo:hi]], ball.step[lo:hi, None]]
    kept = left.ravel() >= 0
    rows = np.repeat(np.arange(ball.size), len(weights))[kept]
    vals = np.tile(np.array([float(w) for w in weights.values()]), ball.size)[kept]
    return LinOp.from_entries(ball.domain, rows, left.ravel()[kept], vals,
                              symmetric=symmetric,
                              meta={"group": group.describe(), "radius": ball.radius,
                                    "weights": dict(weights),
                                    "dropped": int(kept.size - kept.sum())})


def _leading_block(op: LinOp, n: int, radius: int) -> LinOp:
    """The walk operator on the ball of the first n elements, sliced out of op."""
    if radius == op.meta["radius"]:
        return op
    block = op.matrix[:n, :n]
    domain = SpectrumDomain(DISCRETE_LABELS, op.domain.points[:n], np.ones(n), np.ones(n))
    dropped = n * len(op.meta["weights"]) - block.nnz
    return LinOp(domain, block, symmetric=op.symmetric,
                 meta={**op.meta, "radius": radius, "dropped": dropped})


def modular_weight_operator(group, p: float, density: dict,
                            ball: BallTruncation) -> LinOp:
    """Right-shift operator with modular prefactor, for exponent p >= 1.

    (A f)(x) = sum_z c(z) modular(z)^((1-p)/2) f(x z^{-1}), summed over the
    support of the density c. Both built-in families are unimodular, so the
    prefactor is identically 1; it is kept in the arithmetic so densities on
    a non-unimodular extension slot in unchanged.
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
    symmetric = all(density.get(group.inv(z)) == w for z, w in density.items())
    rows, cols, vals = [], [], []
    dropped = 0
    shifts = {z: (group.inv(z), w * group.modular(z) ** ((1.0 - p) / 2.0))
              for z, w in density.items()}
    for i, x in enumerate(ball.elements):
        for z, (zi, c) in shifts.items():
            j = ball.index.get(group.mul(x, zi))
            if j is None:
                dropped += 1
            else:
                rows.append(i)
                cols.append(j)
                vals.append(c)
    return LinOp.from_entries(ball.domain, rows, cols, vals, symmetric=symmetric,
                              meta={"group": group.describe(), "radius": ball.radius,
                                    "p": float(p), "support": len(density),
                                    "dropped": dropped})


def kesten_test(group, radii, omega: Sequence[str] | None = None, tol: float = 0.05,
                seed: int = DEFAULT_SEED, max_iter: int = 300,
                weights: dict | None = None) -> AmenabilityVerdict:
    """Growth test: does the compressed walk radius reach the total weight.

    radii may be a single radius (swept from 1) or an increasing sequence.
    The ball is built once, at the largest radius; breadth-first order makes
    each smaller ball a prefix of it, so each smaller radius is solved on a
    leading principal block of that one operator. With unit weights the
    target is |omega|; an explicit symmetric weight map shifts the target to
    its total mass. The verdict certifies when some ball's rigorous lower
    bound comes within tol of the target. notes carries the per-radius trace
    and a curvature-corrected limit estimate from the last two radii.
    """
    if isinstance(radii, int):
        radii = list(range(1, radii + 1))
    radii = [int(r) for r in radii]
    if not radii or any(r <= 0 for r in radii) or any(
            b <= a for a, b in zip(radii, radii[1:])):
        raise InputError("radii must be strictly increasing positive integers")
    if tol <= 0:
        raise InputError("tol must be positive")

    if not group.generator_names:
        # trivial group: the walk degenerates to averaging over {identity}
        ball = build_ball(group, 0)
        op = LinOp(ball.domain, sp.eye(1, format="csr"), symmetric=True)
        rep = spectral_radius(op, seed=seed)
        notes = {"radii": [0], "ball_sizes": [1],
                 "radius_estimates": [rep.radius_estimate],
                 "lower_bounds": [rep.radius_lower_bound],
                 "normalized": [rep.radius_estimate], "limit_estimate": 1.0,
                 "eigensolver_converged": [rep.converged],
                 "convention": "trivial group walks over {identity}",
                 "final_operator": fingerprint(op),
                 "final_spectral": rep.to_dict()}
        return AmenabilityVerdict(1.0, tol, abs(1.0 - rep.radius_lower_bound),
                                  rep.radius_lower_bound >= 1.0 - tol, "ball-0",
                                  max(0.0, 1.0 - rep.radius_estimate), notes)

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
    ends = ball.sphere_ends
    del ball            # the search tables are not needed by the eigensolves
    for r in radii:
        op = _leading_block(full, ends[r], r)
        rep = spectral_radius(op, tol=EIGEN_TOL, max_iter=max_iter, seed=seed)
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
    notes = {"radii": radii, "ball_sizes": sizes, "radius_estimates": estimates,
             "lower_bounds": lowers, "normalized": normalized,
             "limit_estimate": float(limit), "eigensolver_converged": solved,
             "final_operator": fingerprint(op), "final_spectral": rep.to_dict()}
    certified = bool(best_lower >= target - tol)
    return AmenabilityVerdict(target, tol, float(max(0.0, target - best_lower)),
                              certified, f"ball-{radii[best]}",
                              float(max(0.0, target - max(estimates))), notes)
