"""Closed-form answers for the benchmark workloads, computed without amenspec.

Each function gives what a report must say about one operator family:

- the ``a1`` window of the free-su2 ladder truncated at T labels is the
  adjacency of the path on T vertices, so rho = 2 cos(pi / (T + 1));
- the unit-weight walk on the radius-R ball of F_k has a radial Perron
  vector, so rho is the top eigenvalue of the (R + 1)-point tridiagonal
  with off-diagonal sqrt(2k), then sqrt(2k - 1) repeated;
- the pair-class window {(0, 1), (-1, 0)} at bound B is the antisymmetric
  part of the Dirichlet grid Laplacian's adjacency on (2B + 1)^2 points,
  with spectrum {2 cos(pi i / (2B + 2)) + 2 cos(pi j / (2B + 2))},
  1 <= i < j <= 2B + 1.

Sizes and nonzero counts come from counting, not from the package.
"""

from __future__ import annotations

import math

import numpy as np


def path_radius(trunc: int) -> float:
    return 2.0 * math.cos(math.pi / (trunc + 1))


def path_counts(trunc: int) -> tuple[int, int]:
    """(size, nnz) of the path adjacency: each of T - 1 edges twice."""
    return trunc, 2 * (trunc - 1)


def free_ball_radius(k: int, radius: int) -> float:
    """Top eigenvalue of the radial reduction of the F_k ball walk."""
    if radius == 0:
        return 0.0
    off = [math.sqrt(2 * k)] + [math.sqrt(2 * k - 1)] * (radius - 1)
    t = np.diag(off, 1)
    return float(np.linalg.eigvalsh(t + t.T)[-1])


def free_ball_counts(k: int, radius: int) -> tuple[int, int]:
    """(size, nnz) of the F_k ball walk: a tree, each edge stored twice."""
    size, sphere = 1, 2 * k
    for _ in range(radius):
        size += sphere
        sphere *= 2 * k - 1
    return size, 2 * (size - 1)


def pair_spectrum(bound: int) -> np.ndarray:
    """Every eigenvalue of the pair-class window at box bound B, ascending."""
    n = 2 * bound + 1
    c = 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
    i, j = np.triu_indices(n, 1)
    return np.sort(c[i] + c[j])


def pair_radius(bound: int) -> float:
    return float(np.abs(pair_spectrum(bound)).max())


def pair_counts(bound: int) -> tuple[int, int]:
    """(size, nnz) of the pair-class window: grid edges with both ends g < g'."""
    rng = range(-bound, bound + 1)
    cells = {(a, b) for a in rng for b in rng if a < b}
    edges = sum((a + 1, b) in cells for a, b in cells) + \
        sum((a, b + 1) in cells for a, b in cells)
    return len(cells), 2 * edges


def radius_digits(estimate: float, exact: float, cap: float = 12.0) -> float:
    """-log10 of the relative radius error, capped so rounding reads as equal."""
    err = abs(estimate - exact) / exact
    return cap if err <= 10.0 ** -cap else min(cap, -math.log10(err))
