"""Truncated symmetric operators and residual-based spectrum membership.

Every example class downstream (fusion rings, group walks, grid operators)
builds a LinOp, a truncation's sparse matrix, and asks two questions: what
is the spectral radius of the truncation, and does a given target value sit
in the spectrum up to a certified residual. For a self-adjoint operator A
and a unit vector v, dist(target, spec(A)) <= ||A v - target v||, so a
small residual certifies membership. All truncations here are compressions
of a fixed operator, so certification is one-sided: growing the truncation
can only move the truncated spectrum outward, and non-membership is never
certified, only hinted at via the gap to the nearest truncated eigenvalue.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse as sp

DEFAULT_SEED = 7
EIGEN_TOL = 1e-8
CERT_TOL = 1e-2
_BREAKDOWN = 1e-13
_BLOCK = 32          # Krylov vectors per basis block in _lanczos
_DGKS_ETA = 1 / math.sqrt(2)   # second Gram-Schmidt pass below this norm ratio
_REORTH = 1e-13      # reorthogonalize once an estimate of some |q_j . q_k+1| passes this
_CHECK = 16          # steps between the checkpoints where _lanczos reads its top Ritz value
_SOLVES = 16         # most inverse solves the bracket finish makes
_SETTLED = 2.0 ** -40    # a Rayleigh quotient rising less than this, relative, has settled
_EPS = float(np.finfo(float).eps)
_TINY = 2.0 ** -1074     # the smallest subnormal
_MAX_BUILD = 2 ** 22  # most elements, cells, entries, classes or labels a build makes
_MAX_BASIS = 2 ** 28  # most entries a Krylov basis holds (2 GiB): steps are capped at this / n


class InputError(ValueError):
    """Bad operation input: wrong shape, unknown label, asymmetric window."""


class ValidationError(ValueError):
    """An axiom check failed. Carries the axiom name and the offending data."""

    def __init__(self, axiom: str, detail: str):
        self.axiom = axiom
        self.detail = detail
        super().__init__(f"{axiom}: {detail}")


class LinOp:
    """Finitely truncated operator: the n x n matrix on its builder's first n points.

    Stored as CSR, with finite nonnegative entries, which _lanczos's start
    relies on. symmetric is measured from the matrix, exactly, as
    max_asymmetry, when either is first read; the solvers need it true.
    Shifts past the truncation edge are dropped (zero padding), the
    compression semantics the certificates rely on.
    """

    def __init__(self, matrix, meta: dict | None = None):
        matrix = sp.csr_matrix(matrix)
        matrix.sum_duplicates()
        if not 0 < matrix.shape[0] == matrix.shape[1]:
            raise InputError(f"operator matrix must be square and nonempty, got {matrix.shape}")
        if matrix.nnz and not (np.all(np.isfinite(matrix.data)) and matrix.data.min() >= 0):
            raise InputError("operator entries must be finite and nonnegative")
        self.matrix = matrix
        self.meta = dict(meta or {})

    @classmethod
    def from_entries(cls, n: int, rows, cols, vals, meta: dict | None = None) -> "LinOp":
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
            raise InputError("entry index outside the operator")
        m = sp.coo_matrix((np.asarray(vals, dtype=float), (rows, cols)), shape=(n, n))
        return cls(m.tocsr(), meta)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    @functools.cached_property
    def max_asymmetry(self) -> float:
        return self.symmetry_defect()

    @property
    def symmetric(self) -> bool:
        return self.max_asymmetry == 0

    @functools.cached_property
    def bandwidth(self) -> int:
        """max |i - j| over the stored entries (i, j): 0 for a diagonal."""
        if not self.nnz:
            return 0
        rows = np.repeat(np.arange(self.n), np.diff(self.matrix.indptr))
        return int(np.abs(self.matrix.indices - rows).max())

    def symmetry_defect(self) -> float:
        d = (self.matrix - self.matrix.T).tocoo()
        return float(np.abs(d.data).max()) if d.nnz else 0.0

    def apply(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise InputError(f"vector length {v.shape} does not match operator size {self.n}")
        return self.matrix @ v

    def leading_block(self, n: int) -> "LinOp":
        """The compression to the first n points, the leading n x n block, or
        self when n == self.n; its meta is empty, as a builder's describes its size.
        It is symmetric when self is, and measured otherwise."""
        if not 1 <= n <= self.n:
            raise InputError(f"block size must be in [1, {self.n}], got {n}")
        if n == self.n:
            return self
        block = LinOp(self.matrix[:n, :n])
        if self.symmetric:      # a block of an exactly symmetric matrix is one
            block.max_asymmetry = 0.0
        return block

    def to_dense(self, limit: int = 2000) -> np.ndarray:
        if self.n > limit:
            raise InputError(f"refusing to densify size {self.n} > {limit}")
        return self.matrix.toarray()


@dataclass
class SpectralReport:
    radius_estimate: float
    radius_lower_bound: float
    radius_upper_bound: float    # proven: by a Cholesky factor, or Gershgorin's row sums
    top_eigenvalues: list
    iterations: int
    converged: bool
    stop: str                # why the solve stopped: closure, residual, bracket or budget
    reorthogonalized: int    # of its iterations, those that ran Gram-Schmidt
    truncation_trace: list = field(default_factory=list)
    method: str = "lanczos"

    def to_dict(self) -> dict:
        return {
            "radius_estimate": self.radius_estimate,
            "radius_lower_bound": self.radius_lower_bound,
            "radius_upper_bound": self.radius_upper_bound,
            "top_eigenvalues": list(self.top_eigenvalues),
            "iterations": self.iterations,
            "converged": self.converged,
            "stop": self.stop,
            "reorthogonalized": self.reorthogonalized,
            "truncation_trace": [list(t) for t in self.truncation_trace],
            "method": self.method,
        }


@dataclass
class MembershipCertificate:
    """Result of in_spectrum. spectral is the SpectralReport of its Lanczos
    run, None when that run failed; to_dict leaves it out. _run keeps the
    run, as (op, max_iter, run or route error), for in_spectrum's reuse=."""

    target: float
    tolerance: float
    best_residual: float
    witness_id: str | None
    certified: bool
    gap_hint: float
    errors: list = field(default_factory=list)   # "route: message", one per failed route
    spectral: SpectralReport | None = field(default=None, repr=False, compare=False)
    _run: tuple = field(default=(), repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "tolerance": self.tolerance,
            "best_residual": self.best_residual,
            "witness_id": self.witness_id,
            "certified": self.certified,
            "gap_hint": self.gap_hint,
            "errors": list(self.errors),
        }


@dataclass
class AmenabilityVerdict:
    """Verdict of a membership test. errors lists, as "route: message",
    every route error of the certificates the test ran. operator is the
    LinOp it tested and spectral the SpectralReport of the one solve of
    operator, when the test hands them back for reporting; a bicrossed
    sweep tests several operators and leaves both None. to_dict leaves
    both out."""

    target: float
    tolerance: float
    best_residual: float
    certified: bool
    witness_id: str | None
    gap_hint: float
    notes: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    operator: LinOp | None = field(default=None, repr=False, compare=False)
    spectral: SpectralReport | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_certificate(cls, cert: MembershipCertificate, notes: dict,
                         operator: LinOp | None = None,
                         errors: list | None = None) -> "AmenabilityVerdict":
        """The verdict of cert; errors defaults to the certificate's own.
        Handed the operator cert tested, it also takes cert's SpectralReport."""
        return cls(cert.target, cert.tolerance, cert.best_residual, cert.certified,
                   cert.witness_id, cert.gap_hint, notes,
                   list(cert.errors) if errors is None else errors, operator,
                   None if operator is None else cert.spectral)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "tolerance": self.tolerance,
            "best_residual": self.best_residual,
            "certified": self.certified,
            "witness_id": self.witness_id,
            "gap_hint": self.gap_hint,
            "notes": self.notes,
            "errors": list(self.errors),
        }


@dataclass
class _LanczosResult:
    """Ritz data from one Lanczos run, with f * T as (d, e), f a power of two.
    After a "bracket" stop the top pair, thetas[-1] and its vector, is the
    finish's refined one, and upper the bound its Cholesky factor proved."""

    blocks: list            # orthonormal Krylov basis, one row per step, in blocks
    thetas: np.ndarray      # Ritz values, ascending
    d: np.ndarray           # f * the diagonal of T
    e: np.ndarray           # f * its off-diagonal, all positive: T does not split
    f: float
    iterations: int
    stop: str               # "closure", "residual", "bracket" or "budget"
    second_passes: int      # steps that took the second Gram-Schmidt pass
    reorthogonalized: int   # steps that ran Gram-Schmidt at all
    upper: float | None = None     # the bracket's proven upper bound, after a "bracket" stop
    vectors: dict = field(default_factory=dict, repr=False)   # ritz_vector's, read-only

    @property
    def converged(self) -> bool:
        return self.stop != "budget"

    def ritz_vector(self, which: int) -> np.ndarray:
        """The unit Ritz vector of thetas[which], formed at its first read
        from its eigenvector of T, one dstein at f * thetas[which]."""
        if which not in self.vectors:
            k = len(self.d)
            self.vectors[which] = _ritz_vector(self.blocks, self.d, self.e,
                                               self.thetas[which] * self.f)
        return self.vectors[which]


def _ritz_vector(blocks: list, d: np.ndarray, e: np.ndarray, w: float) -> np.ndarray:
    """The unit Ritz vector, in the basis of row blocks, of the eigenvalue w
    of the unsplit tridiagonal (d, e): k = len(d) rows of blocks are read."""
    k = len(d)
    s = _eigenvector(d, e, np.array([w]), np.ones(k), np.full(k, k)) if k > 1 else np.ones(1)
    u = sum(s[j:j + _BLOCK] @ B[:k - j] for j, B in zip(range(0, k, _BLOCK), blocks))
    nrm = np.linalg.norm(u)
    return u / nrm if nrm > 0 else u


def _eigenvector(d: np.ndarray, e: np.ndarray, w: np.ndarray, iblock, isplit) -> np.ndarray:
    """The unit eigenvector of the tridiagonal (d, e), k > 1, at its eigenvalue
    w[0]: one inverse iteration (dstein), m = 1, so in its block iblock[0]."""
    z, info = scipy.linalg.lapack.dstein(d, e, w[:1], iblock, isplit)
    if info != 0:
        raise scipy.linalg.LinAlgError(f"dstein (Ritz vector) failed with info={info}")
    return z[:, 0]


def _top_ritz(alphas: np.ndarray, betas: np.ndarray) -> tuple:
    """The top eigenvalue of the tridiagonal (alphas, betas), scaled to a
    Gershgorin bound < 1, and the |last component| of its unit eigenvector.
    The value is bisected by the dstebz call eigvalsh_tridiagonal(select='i')
    makes, called directly, so bit-identical; the vector comes from
    _eigenvector at that value. O(k) each. The caller checks that the
    entries are finite."""
    k = len(alphas)
    if k == 1:
        return float(alphas[0]), 1.0
    _, w, iblock, isplit, info = scipy.linalg.lapack.dstebz(alphas, betas, 2, 0.0, 1.0,
                                                            k, k, 0.0, "E")
    if info != 0:
        raise scipy.linalg.LinAlgError(f"dstebz (top Ritz value) failed with info={info}")
    return float(w[0]), abs(float(_eigenvector(alphas, betas, w, iblock, isplit)[-1]))


def _row_sum_bound(op: LinOp) -> float:
    """Gershgorin's bound max_i sum_j A_ij >= lambda_max, rounded up: a sum
    of m nonnegative terms is computed within gamma_m of itself (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 4.2), m the
    most entries in a row, and the bound is raised by 2 m u = m eps, then
    one ulp for the product's own rounding."""
    m = int(np.diff(op.matrix.indptr).max())
    return math.nextafter(float((op.matrix @ np.ones(op.n)).max()) * (1 + m * _EPS), math.inf)


def _cholesky_bound(c: float, b: int, n: int) -> float:
    """The bound on lambda_max(A) that a banded Cholesky factor of
    fl(c I - A), run to completion, proves, for A of bandwidth b and size n
    with a nonnegative diagonal and c > 0.

    R'R = M + dM with |dM| <= g |R'| |R| (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Thm 10.3; Rump, BIT 46, 2006, proves
    definiteness so), g = gamma_{n+1} there for the n terms of the longest
    inner product plus the square root; in a band of width b an inner
    product has at most b + 1 terms, so g = gamma_{b+2}. dM lies in the
    band, and |R'||R|_ij <= ||r_i|| ||r_j|| <= max_j M_jj / (1 - g)
    (Demmel's bound, Higham ch. 10), so ||dM||_2 <= ||dM||_inf <= (2b + 1)
    g / (1 - g) max_j M_jj, and M_jj <= c. Forming M's diagonal, c - A_jj,
    rounds by u c more. R'R is positive semidefinite, so lambda_max(A) <=
    c (1 + K u), K = 2 (b + 2)(2b + 1), which covers both terms:
    (2b + 1)(b + 2)(1 + 1e-3) + 1 <= K. An underflow term 8 n (2 (b + 2) + c)
    eta, eta the smallest subnormal, modelled on the one Rump adds (his
    n + 1 being b + 2 here) and doubled, matters only for c within some
    hundred binades of underflow. The sum is rounded up by one ulp."""
    k = (b + 2) * (2 * b + 1)       # K u = k eps, and 1 + k eps is exact
    return math.nextafter(c * (1 + k * _EPS) + 8.0 * n * (2 * (b + 2) + c) * _TINY, math.inf)


def _upper_band(op: LinOp) -> np.ndarray:
    """-A in LAPACK's upper band storage: row b + i - j, column j holds
    -A_ij for i <= j, b the bandwidth."""
    A, b = op.matrix, op.bandwidth
    rows = np.repeat(np.arange(op.n), np.diff(A.indptr))
    up = A.indices >= rows
    band = np.zeros((b + 1, op.n))
    band[b + rows[up] - A.indices[up], A.indices[up]] = -A.data[up]
    return band


def _banded_cholesky(band: np.ndarray, c: float) -> np.ndarray | None:
    """The banded Cholesky factor (dpbtrf) of fl(c I - A), -A given as
    _upper_band's band, or None where a pivot is not positive."""
    m = band.copy()
    m[-1] += c
    r, info = scipy.linalg.lapack.dpbtrf(m, overwrite_ab=1)
    return r if info == 0 else None


def _bracket(op: LinOp, u: np.ndarray, tol: float) -> tuple | None:
    """Close [theta, upper] around lambda_max from the Ritz vector u, on an
    operator whose banded factor is cheap: (theta, its unit vector, upper),
    with upper - theta <= tol theta up to rounding, or None.

    1. c = min(Collatz-Wielandt max_i (A|u|)_i / |u|_i, Gershgorin's row
       sums), both >= lambda_max for a nonnegative A (Horn and Johnson,
       Matrix Analysis, 8.1), raised by _cholesky_bound so
       that a tight one still factors. The banded Cholesky of c I - A
       (LAPACK dpbtrf, O(n b^2)) proves lambda_max <= _cholesky_bound(c).
    2. Inverse iteration from u with that factor (dpbtrs), each solve giving
       a unit v, theta = v'Av and r = ||Av - theta v||. A solve that cuts r
       by less than 4 is slow: the shift is refactored at the smaller
       theta + 2r, whose factor, if it runs, proves that bound in turn.
    3. Once theta has settled, rising by less than _SETTLED relative in a
       solve, a factor at theta (1 + tol / 2) that runs proves the upper
       end, and theta, a Rayleigh quotient, is the lower end; one that
       fails lets the iteration go on.
    At most _SOLVES solves are made; a first factor that fails, a
    non-finite residual or the spent solves leave the bracket open (None).
    """
    A, n, b = op.matrix, op.n, op.bandwidth
    band = _upper_band(op)
    x = np.abs(u)
    with np.errstate(over="ignore", invalid="ignore"):
        cw = float((A @ x / x).max()) if x.min() > 0 else math.inf
        shift = _cholesky_bound(min(cw, _row_sum_bound(op)), b, n)
        R = _banded_cholesky(band, shift)
        if R is None:
            return None
        upper = _cholesky_bound(shift, b, n)
        v, theta, r = u, -math.inf, math.inf
        for _ in range(_SOLVES):
            v = scipy.linalg.lapack.dpbtrs(R, v)[0]
            v /= _norm(v)
            w = A @ v
            th = float(v @ w)
            res = _norm(w - th * v)
            if not math.isfinite(res):
                return None
            if th - theta <= _SETTLED * th:
                close = th * (1 + 0.5 * tol)
                if close >= upper:
                    return th, v, upper
                if _banded_cholesky(band, close) is not None:
                    return th, v, _cholesky_bound(close, b, n)
            elif res > 0.25 * r and th + 2 * res < shift:
                tighter = _banded_cholesky(band, th + 2 * res)
                if tighter is not None:
                    R, shift = tighter, th + 2 * res
                    upper = _cholesky_bound(shift, b, n)
            theta, r = th, res
    return None


def _beta(w: np.ndarray) -> float:     # ||w||: dnrm2 where the sum of squares leaves range
    b = math.sqrt(scipy.linalg.blas.ddot(w, w))     # BLAS: no numpy overflow warning
    return b if 1e-140 < b < math.inf else _norm(w)


def _gram_schmidt(basis: list, w: np.ndarray) -> None:
    """One classical Gram-Schmidt pass of w against the row blocks of basis,
    in place, taking every block's coefficients before subtracting any."""
    coeffs = [B @ w for B in basis]
    for B, c in zip(basis, coeffs):
        w -= c @ B


def _lanczos(op: LinOp, tol: float, max_iter: int) -> _LanczosResult:
    """Lanczos with partial reorthogonalization, at most
    min(max_iter, n, _MAX_BASIS // n) steps.

    The start is the constant vector 1/sqrt(n). A LinOp is nonnegative, so
    its radius is its largest eigenvalue, with a nonnegative eigenvector
    (Perron-Frobenius: Horn and Johnson, Matrix Analysis, 8.3) that meets
    the start, which thus reaches the radius for certain. Its Krylov space
    is spanned by its projections on the eigenspaces it meets, those of the
    "main" eigenvalues (Rowlinson, Appl. Anal. Discrete Math. 1, 2007), so
    it closes (breakdown, or dimension n) after as many steps as there are
    main eigenvalues, holding each exactly. No stop decision needs more
    than the radius, so the run reads only the top Ritz value hi, with the
    last component of its eigenvector (_top_ritz), and every test is
    relative to hi: hi >= alpha_1 = 1'A1/n > 0 for a nonzero operator, and a
    run of 2^e A is that of A, scaled. It reads them only at checkpoints,
    as ARPACK tests convergence only at restarts: every _CHECK = 16 steps,
    at the budget's last step, and where closure, beta <= 1e-13 hi, is
    possible: beta <= 1e-13 G, G = max|alpha| + 2 max beta >= hi being the
    Gershgorin bound. At a checkpoint the run stops on closure or on the
    rigorous bound beta * |last component| <= tol * hi / 2 (Parlett, The
    Symmetric Eigenvalue Problem, ch. 13). At the first checkpoint, step
    _CHECK = 16, with neither stop met, an operator of bandwidth b with
    n b^2 <= _CHECK nnz, whose banded factor costs about a checkpoint
    interval of products, is handed to _bracket; if the bracket closes, the
    run stops there ("bracket"), its top pair replaced by the finish's, and
    else it goes on. stop says why the run ended: the subspace closed
    ("closure"), the residual bound held ("residual"), the bracket closed
    ("bracket"), or the budget ran out ("budget"); converged means one of
    the first three.

    hi is bisected (dstebz, 53 O(k) halvings) on T times the power of two
    f that puts G in [1/2, 1): exact, and beta^2 stays in range. A run ends
    at a checkpoint, with the values alone of its f * T (dsterf, QR without
    vectors; Parlett, ch. 8) over f; ritz_vector forms a vector when read.

    Orthogonality is tracked by estimates omega_j of q_j . q_k+1, an O(k)
    recurrence with a rounding term eps ||T|| (H. D. Simon, The Lanczos
    algorithm with partial reorthogonalization, Math. Comp. 42, 1984). Only
    when some |omega_j| passes _REORTH = 1e-13, not Simon's sqrt(eps) but
    below the 1e-12 orthonormality the Ritz vectors and the closure test
    need, are this step and the next reorthogonalized, which resets omega
    to eps: one classical Gram-Schmidt pass against the basis, and a second
    when the first cut the norm below _DGKS_ETA (Daniel, Gragg, Kaufman and
    Stewart, Math. Comp. 30, 1976; ARPACK's dsaitr uses 0.717). A non-finite
    coefficient or Gershgorin bound, from an overflowing product, raises
    InputError at its step.

    Each Krylov vector is a contiguous row of a block of _BLOCK rows, and a
    new block is allocated when the last one fills, so k steps hold about
    8 * n * (k rounded up to _BLOCK) bytes and no row is ever copied. The
    steps are capped at _MAX_BASIS // n, _MAX_BASIS = 2^28 entries (2 GiB),
    so a basis that cannot fit is never started; at the 2^22 build cap that
    is 64 steps, and a run the cap cuts short stops on "budget".

    Every solve runs here, and each of these facts holds only for a
    symmetric matrix, so an asymmetric op is an InputError.
    """
    if not op.symmetric:
        raise InputError("the eigensolvers need a symmetric operator; this one is not")
    n = op.n
    A = op.matrix
    budget = min(max_iter, n, _MAX_BASIS // n)
    blocks = [np.empty((min(_BLOCK, budget + 1), n))]
    blocks[0][0] = 1 / math.sqrt(n)
    alphas = np.empty(budget)
    betas = np.empty(budget)
    prev, cur, new = np.zeros((3, budget + 1))   # omega of q_k-1, q_k and q_k+1
    cur[0] = 1.0
    amax = bmax = 0.0
    stop = "budget"
    second_passes = reorthogonalized = k = pending = 0
    while k < budget:
        q = blocks[-1][k % _BLOCK]
        w = A @ q
        a = float(q @ w)
        alphas[k] = a
        w -= a * q
        if k:
            w -= betas[k - 1] * blocks[(k - 1) // _BLOCK][(k - 1) % _BLOCK]
        b = _beta(w)
        amax = max(amax, abs(a))
        eps_t = _EPS * (amax + 2 * max(bmax, b))     # eps ||T||, by Gershgorin
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(eps_t)):
            raise InputError(f"Lanczos step {k + 1}: a coefficient or their Gershgorin "
                             "bound is not finite; the operator overflows floating point")
        reorth = pending or eps_t >= _REORTH * b     # omega_k = eps_t / b
        if not reorth and k:     # b omega_j = (T omega(q_k))_j - a omega_j(q_k) - beta omega_j(q_k-1)
            t = np.multiply(alphas[:k] - a, cur[:k], out=new[:k])
            t += betas[:k] * cur[1:k + 1] - betas[k - 1] * prev[:k]
            t[1:] += betas[:k - 1] * cur[:k - 1]
            t += np.copysign(eps_t, t)
            t /= b
            reorth = max(t.max(), -t.min()) > _REORTH
        if reorth:
            basis = blocks[:-1] + [blocks[-1][:k % _BLOCK + 1]]
            _gram_schmidt(basis, w)
            b, before = _beta(w), b
            if b < _DGKS_ETA * before:
                _gram_schmidt(basis, w)
                b = _beta(w)
                second_passes += 1
            reorthogonalized += 1
            new[:k + 1] = _EPS
        else:
            new[k] = eps_t / b
        new[k + 1] = 1.0
        pending = reorth and not pending
        k += 1
        if k % _CHECK == 0 or k == budget or b <= _BREAKDOWN * (amax + 2 * bmax):
            f = math.ldexp(1.0, min(1000, -math.frexp(amax + 2 * bmax)[1]))  # exact; T * f bound < 1
            d, e = alphas[:k] * f, betas[:k - 1] * f
            top, last = _top_ritz(d, e)
            hi = top / f
            if k == n or b <= _BREAKDOWN * hi:
                stop = "closure"
                break
            if b * last <= 0.5 * tol * hi:      # the rigorous bound beta * |last component|
                stop = "residual"
                break
            if k == _CHECK and n * op.bandwidth ** 2 <= _CHECK * op.nnz:
                bracket = _bracket(op, _ritz_vector(blocks, d, e, top), tol)
                if bracket:
                    stop = "bracket"
                    break
        betas[k - 1] = b
        bmax = max(bmax, b)
        prev, cur, new = cur, new, prev
        if k % _BLOCK == 0:
            blocks.append(np.empty((min(_BLOCK, budget + 1 - k), n)))
        np.divide(w, b, out=blocks[-1][k % _BLOCK])
    thetas = scipy.linalg.eigvalsh_tridiagonal(d, e, lapack_driver="sterf") / f
    if k % _BLOCK:
        blocks[-1] = blocks[-1][:k % _BLOCK]
    res = _LanczosResult(blocks[:-(-k // _BLOCK)], thetas, d, e, f, k, stop, second_passes,
                         reorthogonalized)
    if stop == "bracket":
        thetas[-1], res.vectors[k - 1], res.upper = bracket
    return res


def _check_solver_args(tol: float, max_iter: int) -> None:
    if not 0 < tol < math.inf:
        raise InputError(f"tol must be positive and finite, got {tol!r}")
    if max_iter < 1:
        raise InputError("max_iter must be at least 1")


def spectral_radius(op: LinOp, tol: float = EIGEN_TOL, max_iter: int = 300) -> SpectralReport:
    """Spectral radius of the truncated operator, which must be symmetric:
    an asymmetric one is an InputError.

    Lanczos from the constant vector, which meets the nonnegative Perron
    eigenvector of the radius and closes at the number of main eigenvalues
    (see _lanczos), with a banded operator handed at step 16 to a finish
    that brackets the radius between a Rayleigh quotient and a bound proven
    by a banded Cholesky factor (see _bracket). The estimate is within tol
    of the largest eigenvalue of the truncation once converged, and
    converged: false means the budget of max_iter steps, or fewer for a
    basis past _MAX_BASIS entries, ran out. stop says why the solve ended:
    "closure" (the Krylov subspace closed, or the operator is zero),
    "residual" (the residual bound on the top Ritz value met tol),
    "bracket" (the finish's bracket closed) or "budget".
    radius_lower_bound is the |Rayleigh quotient| of the Ritz vector of the
    largest |Ritz value|, recomputed in the original space, hence a rigorous
    lower bound. radius_upper_bound is proven: by the finish's last factor
    (_cholesky_bound), or else by Gershgorin's row sums (_row_sum_bound).
    """
    _check_solver_args(tol, max_iter)
    return _radius_report(op, _lanczos(op, tol, max_iter) if op.nnz else None)


def _radius_report(op: LinOp, res: _LanczosResult | None) -> SpectralReport:
    """The SpectralReport of the Lanczos run res on op. The zero operator
    has a fixed one, whatever run was made on it, if any."""
    if op.nnz == 0:
        return SpectralReport(0.0, 0.0, 0.0, [0.0], 0, True, "closure", 0)
    thetas = res.thetas
    u = res.ritz_vector(int(np.argmax(np.abs(thetas))))
    lower = abs(float(u @ op.apply(u)))
    estimate = max(float(np.abs(thetas).max()), lower)
    upper = _row_sum_bound(op) if res.upper is None else res.upper

    ends = range(len(thetas))            # the top four, then the bottom four, each index once
    tops = [float(thetas[i]) for i in dict.fromkeys([*ends[:-5:-1], *ends[:4]])]
    return SpectralReport(estimate, min(lower, estimate), upper, tops,
                          res.iterations, res.converged, res.stop, res.reorthogonalized)


def fingerprint(op: LinOp) -> dict:
    """Report-ready summary of an operator: size, fill, its measured
    symmetry and defect, one measurement. boundary_policy is always zero-pad:
    no builder keeps what leaves the truncation."""
    return {"size": int(op.n), "nnz": int(op.nnz), "symmetric": op.symmetric,
            "max_asymmetry": op.max_asymmetry, "boundary_policy": "zero-pad"}


def _norm(v: np.ndarray) -> float:    # dnrm2 scales as it sums: no square overflows
    return float(scipy.linalg.norm(v, check_finite=False))


def residual(op: LinOp, target: float, v) -> float:
    """||A v - target v|| / ||v|| for a candidate approximate eigenvector."""
    v = np.asarray(v, dtype=float)
    nrm = _norm(v)
    if nrm == 0:
        raise InputError("zero witness vector")
    return _norm(op.apply(v) - target * v) / nrm


def in_spectrum(op: LinOp, target: float, tol: float = CERT_TOL,
                witnesses: Iterable | None = None, seed: int = DEFAULT_SEED,
                max_iter: int = 300,
                reuse: MembershipCertificate | None = None) -> MembershipCertificate:
    """Residual-based membership certificate for target in the spectrum of
    op, which must be symmetric: an asymmetric one is an InputError.

    Residuals are evaluated over three routes, in order: the supplied
    witness family, the Lanczos Ritz vector nearest to target
    ("lanczos-ritz"), and, when neither is within tol, four steps of
    inverse iteration with one sparse LU factor of A - shift, shift just
    off target ("shift-invert"); that factor is not made for a |target|
    past radius_upper_bound + tol, which no vector can certify, as the
    spectrum lies in [-upper, upper] for a nonnegative A. certified means some witness has residual
    <= tol, which places a point of the truncated spectrum within that
    residual of target; best_residual is always measured against op
    itself, so it is rigorous whichever route found it. Non-membership is
    never certified. gap_hint is only a hint: the distance from target to
    the nearest Ritz value found, the Rayleigh quotient of the shift-invert
    vector counting as one. errors lists, as "route: message", each route
    that produced no vector: a LinAlgError from the eigensolver, an exactly
    singular factor.

    The certificate's spectral is the SpectralReport of its Lanczos run,
    equal to spectral_radius(op, max_iter=max_iter). seed picks only the
    shift-invert start, which must stay generic: an interior eigenvector
    can be orthogonal to the constant vector. reuse, an earlier certificate
    on op with the same max_iter, whatever its seed, supplies that run (or
    its failure) instead of a new solve; any other is an InputError.
    """
    _check_solver_args(tol, max_iter)
    if not math.isfinite(target):       # a window mass past float range
        raise InputError(f"target must be finite, got {target!r}")
    if reuse is not None and reuse._run[:2] != (op, max_iter):
        raise InputError("reuse needs a certificate on the same operator and max_iter")

    best_res = np.inf
    best_id = None
    for i, item in enumerate(witnesses or ()):
        if isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str):
            wid, vec = item
        else:
            wid, vec = f"witness-{i}", item
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (op.n,):
            raise InputError(f"witness {wid} has wrong length")
        if _norm(vec) == 0:
            continue
        r = residual(op, target, vec)
        if r < best_res:
            best_res, best_id = r, wid

    gap = np.inf
    errors = []
    spectral = None
    if reuse is not None:
        run = reuse._run[2]
    else:
        try:
            run = _lanczos(op, EIGEN_TOL, max_iter)
        except scipy.linalg.LinAlgError as e:
            run = f"lanczos-ritz: {e}"   # the certificate rests on the witnesses
    if isinstance(run, str):
        errors.append(run)
    else:
        spectral = _radius_report(op, run)
        dist = np.abs(run.thetas - target)
        gap = float(dist.min())
        r = residual(op, target, run.ritz_vector(int(np.argmin(dist))))
        if r < best_res:
            best_res, best_id = r, "lanczos-ritz"

    outside = spectral is not None and abs(target) > spectral.radius_upper_bound + tol
    if best_res > tol and op.nnz and not outside:
        # interior targets: extremal Ritz pairs miss them, inverse iteration
        # does not. The shift sits 1e-7 (relative) off target so that a target
        # that is an exact eigenvalue does not give an exactly singular factor.
        from scipy.sparse.linalg import splu  # late: 0.1 s at every start
        shift = target + 1e-7 * max(1.0, abs(target))
        try:
            lu = splu((op.matrix - shift * sp.eye(op.n, format="csr")).tocsc())
        except RuntimeError as e:
            errors.append(f"shift-invert: {e}")  # the witness and Ritz routes stand
        else:
            u = np.random.default_rng(seed + 3).standard_normal(op.n)
            for _ in range(4):
                u = lu.solve(u / _norm(u))
            u /= _norm(u)
            if np.all(np.isfinite(u)):
                gap = min(gap, abs(float(u @ op.apply(u)) - target))
                r = residual(op, target, u)
                if r < best_res:
                    best_res, best_id = r, "shift-invert"

    certified = bool(best_res <= tol)
    return MembershipCertificate(float(target), float(tol), float(best_res),
                                 best_id, certified, float(gap), errors, spectral,
                                 (op, max_iter, run))


def truncation_sweep(op: LinOp, sizes: Sequence[int], tol: float = EIGEN_TOL,
                     max_iter: int = 300) -> SpectralReport:
    """Solve the leading n x n block of op at each size n; record the estimates.

    sizes must be strictly increasing and lie in [1, op.n]. Every block of
    a symmetric op is symmetric; a block that is not is an InputError, as
    in any solve. The returned report is the one for the largest size,
    with truncation_trace filled; its stop is "budget" if the solve at any
    size spent its budget, else that of the largest size's solve.
    converged requires the solve at every size to have converged and, given
    two sizes or more, the Cauchy-style flag (the last two estimates differ
    by less than tol).
    """
    _check_solver_args(tol, max_iter)
    sizes = [int(s) for s in sizes]
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise InputError("sizes must be strictly increasing and nonempty")
    if sizes[0] < 1 or sizes[-1] > op.n:
        raise InputError(f"sizes must lie in [1, {op.n}]")
    trace = []
    solved = True
    for s in sizes:
        report = spectral_radius(op.leading_block(s), tol=min(tol, EIGEN_TOL),
                                 max_iter=max_iter)
        trace.append((s, report.radius_estimate))
        solved = solved and report.converged
    report.truncation_trace = trace
    report.method = "sweep"
    if not solved:
        report.stop = "budget"
    if len(trace) >= 2:
        report.converged = solved and bool(abs(trace[-1][1] - trace[-2][1]) < tol)
    return report
