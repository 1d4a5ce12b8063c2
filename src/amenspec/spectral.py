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
_INVERSE_FROM = 48   # k0: Ritz values by inverse iteration from this many steps on
_INERTIA = 32        # its margin delta, in eps of the scaled tridiagonal (see _lanczos)
_EPS = float(np.finfo(float).eps)
_MAX_BUILD = 2 ** 22  # most elements, cells, entries, classes or labels a build makes


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
    relies on. symmetric is asserted by the builder and then verified
    exactly: every builder here produces an exactly symmetric matrix when it
    asserts one. Shifts past the truncation edge are dropped (zero padding),
    the compression semantics the certificates rely on.
    """

    def __init__(self, matrix, symmetric: bool, meta: dict | None = None):
        matrix = sp.csr_matrix(matrix)
        matrix.sum_duplicates()
        if not 0 < matrix.shape[0] == matrix.shape[1]:
            raise InputError(f"operator matrix must be square and nonempty, got {matrix.shape}")
        if matrix.nnz and not (np.all(np.isfinite(matrix.data)) and matrix.data.min() >= 0):
            raise InputError("operator entries must be finite and nonnegative")
        self.matrix = matrix
        self.symmetric = bool(symmetric)
        self.meta = dict(meta or {})
        if self.symmetric:
            defect = self.symmetry_defect()
            if defect > 0:
                raise InputError(
                    f"operator asserted symmetric but max |A_ij - A_ji| = {defect:g}")

    @classmethod
    def from_entries(cls, n: int, rows, cols, vals, **kw) -> "LinOp":
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
            raise InputError("entry index outside the operator")
        m = sp.coo_matrix((np.asarray(vals, dtype=float), (rows, cols)), shape=(n, n))
        return cls(m.tocsr(), **kw)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

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
        self when n == self.n; its meta is empty, as a builder's describes its size."""
        if not 1 <= n <= self.n:
            raise InputError(f"block size must be in [1, {self.n}], got {n}")
        if n == self.n:
            return self
        block = LinOp(self.matrix[:n, :n], symmetric=False)
        block.symmetric = self.symmetric    # a block of an exactly symmetric matrix is one
        return block

    def to_dense(self, limit: int = 2000) -> np.ndarray:
        if self.n > limit:
            raise InputError(f"refusing to densify size {self.n} > {limit}")
        return self.matrix.toarray()


@dataclass
class SpectralReport:
    radius_estimate: float
    radius_lower_bound: float
    top_eigenvalues: list
    iterations: int
    converged: bool
    stop: str                # why Lanczos stopped: closure, residual or budget
    reorthogonalized: int    # of its iterations, those that ran Gram-Schmidt
    truncation_trace: list = field(default_factory=list)
    method: str = "lanczos"

    def to_dict(self) -> dict:
        return {
            "radius_estimate": self.radius_estimate,
            "radius_lower_bound": self.radius_lower_bound,
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
    """Ritz data from one Lanczos run."""

    blocks: list            # orthonormal Krylov basis, one row per step, in blocks
    thetas: np.ndarray      # Ritz values, ascending
    S: np.ndarray           # eigenvectors of the tridiagonal, one per column
    iterations: int
    stop: str               # "closure", "residual" or "budget"
    second_passes: int      # steps that took the second Gram-Schmidt pass
    reorthogonalized: int   # steps that ran Gram-Schmidt at all
    vectors: dict = field(default_factory=dict, repr=False)   # ritz_vector's, read-only

    @property
    def converged(self) -> bool:
        return self.stop != "budget"

    def ritz_vector(self, which: int) -> np.ndarray:
        if which not in self.vectors:
            s = self.S[:, which]
            u = sum(s[j:j + len(B)] @ B for j, B in zip(range(0, len(s), _BLOCK), self.blocks))
            nrm = np.linalg.norm(u)
            self.vectors[which] = u / nrm if nrm > 0 else u
        return self.vectors[which]


def _top_ritz(alphas: np.ndarray, betas: np.ndarray, guess: float) -> tuple:
    """The top eigenvalue of the tridiagonal (alphas, betas), scaled to a
    Gershgorin bound < 1, and the |last component| of its unit eigenvector.
    From _INVERSE_FROM steps on, by inverse iteration (LAPACK dstein) from
    guess, proven within delta by inertia (see _lanczos); otherwise, or when
    that fails, by eigvalsh_tridiagonal(select='i')'s bisection called
    directly, so bit-identical, and one dstein for its vector, O(k) each.
    The caller checks that the entries are finite."""
    k = len(alphas)
    if k == 1:
        return float(alphas[0]), 1.0
    if k >= _INVERSE_FROM and math.isfinite(guess):
        block, split = np.ones(k, np.int32), np.full(k, k, np.int32)
        z, info = scipy.linalg.lapack.dstein(alphas, betas, [guess], block, split)
        rho = float(alphas @ z[:, 0] ** 2 + 2 * (betas @ (z[:-1, 0] * z[1:, 0])))
        if info == 0 and scipy.linalg.lapack.dpttrf(rho - alphas + _INERTIA * _EPS,
                                                    betas)[2] == 0:
            return rho, abs(float(z[-1, 0]))
    _, w, iblock, isplit, info = scipy.linalg.lapack.dstebz(alphas, betas, 2, 0.0, 1.0,
                                                            k, k, 0.0, "E")
    if info != 0:
        raise scipy.linalg.LinAlgError(f"dstebz (top Ritz value) failed with info={info}")
    # one value (m = 1) keeps dstein's block right when the tridiagonal splits
    z, info = scipy.linalg.lapack.dstein(alphas, betas, w[:1], iblock, isplit)
    if info != 0:
        raise scipy.linalg.LinAlgError(f"dstein (top Ritz vector) failed with info={info}")
    return float(w[0]), abs(float(z[-1, 0]))


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
    """Lanczos with partial reorthogonalization, at most min(max_iter, n) steps.

    The start is the constant vector 1/sqrt(n). A LinOp is nonnegative, so
    its radius is its largest eigenvalue, with a nonnegative eigenvector
    (Perron-Frobenius: Horn and Johnson, Matrix Analysis, 8.3) that meets
    the start, which thus reaches the radius for certain. Its Krylov space
    is spanned by its projections on the eigenspaces it meets, those of the
    "main" eigenvalues (Rowlinson, Appl. Anal. Discrete Math. 1, 2007), so
    it closes (breakdown, or dimension n) after as many steps as there are
    main eigenvalues, holding each exactly. No stop decision needs more
    than the radius, so each step finds only the top Ritz value hi, with
    the last component of its eigenvector (_top_ritz), and every test is
    relative to hi: hi >= alpha_1 = 1'A1/n > 0 for a nonzero operator, and a
    run of 2^e A is that of A, scaled. A stall of hi for two steps is
    confirmed by the rigorous bound beta * |last component| <= tol * hi / 2.
    stop says why the run ended: the subspace closed ("closure"), that bound
    held ("residual"), or the budget ran out ("budget"); converged means one
    of the first two.

    hi is found on T times the power of two that puts max|alpha| + 2 max
    beta in [1/2, 1): exact, and beta^2 stays in range. From _INVERSE_FROM
    = 48 steps on, it is the Rayleigh quotient rho of the eigenvector dstein
    finds by inverse iteration at the last value plus its last increment.
    One LDL^T (dpttrf) of (rho + delta) I - T with positive pivots proves no
    eigenvalue above rho + delta (Sylvester; Kahan, Stanford CS-41, 1966,
    for rounding), and a Rayleigh quotient lies in the spectrum: rho is the
    value within delta = 32 eps (Parlett, The Symmetric Eigenvalue Problem,
    ch. 4-5, 3.3). Otherwise it is bisected (dstebz, 53 O(k) halvings) and
    its eigenvector found by one dstein. 48 is the measured crossover of
    the value alone: 21.9 us a call against 20.3 (158 against 38 at
    k = 300, Xeon).

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
    8 * n * (k rounded up to _BLOCK) bytes and no row is ever copied.
    """
    n = op.n
    A = op.matrix
    budget = min(max_iter, n)
    blocks = [np.empty((min(_BLOCK, budget + 1), n))]
    blocks[0][0] = 1 / math.sqrt(n)
    alphas = np.empty(budget)
    betas = np.empty(budget)
    prev, cur, new = np.zeros((3, budget + 1))   # omega of q_k-1, q_k and q_k+1
    cur[0] = 1.0
    his = np.full(budget + 1, math.nan)    # the top Ritz values, by step
    amax = bmax = 0.0
    stop = "budget"
    second_passes = reorthogonalized = stall = k = pending = 0
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
        f = math.ldexp(1.0, min(1000, -math.frexp(amax + 2 * bmax)[1]))  # exact; T * f bound < 1
        hi, last = _top_ritz(alphas[:k] * f, betas[:k - 1] * f,
                             f * 2 * his[k - 1] - f * his[k - 2])      # no overflow
        his[k] = hi = hi / f
        if k == n or b <= _BREAKDOWN * hi:
            stop = "closure"
            break
        stall = stall + 1 if k > 1 and abs(hi - his[k - 1]) <= 0.01 * tol * hi else 0
        if stall >= 2:
            if b * last <= 0.5 * tol * hi:      # the rigorous bound beta * |last component|
                stop = "residual"
                break
            stall = 0
        betas[k - 1] = b
        bmax = max(bmax, b)
        prev, cur, new = cur, new, prev
        if k % _BLOCK == 0:
            blocks.append(np.empty((min(_BLOCK, budget + 1 - k), n)))
        np.divide(w, b, out=blocks[-1][k % _BLOCK])
    if k == 1:
        thetas, S = alphas[:1].copy(), np.ones((1, 1))
    else:
        thetas, S = scipy.linalg.eigh_tridiagonal(alphas[:k], betas[:k - 1])
    if k % _BLOCK:
        blocks[-1] = blocks[-1][:k % _BLOCK]
    return _LanczosResult(blocks[:-(-k // _BLOCK)], thetas, S, k, stop, second_passes,
                          reorthogonalized)


def _check_solver_args(tol: float, max_iter: int) -> None:
    if not 0 < tol < math.inf:
        raise InputError(f"tol must be positive and finite, got {tol!r}")
    if max_iter < 1:
        raise InputError("max_iter must be at least 1")


def spectral_radius(op: LinOp, tol: float = EIGEN_TOL, max_iter: int = 300) -> SpectralReport:
    """Spectral radius of the truncated operator.

    Lanczos from the constant vector, which meets the nonnegative Perron
    eigenvector of the radius and closes at the number of main eigenvalues
    (see _lanczos). For a symmetric operator the estimate is within tol of
    the largest eigenvalue of the truncation once converged, and converged:
    false means the budget of max_iter steps ran out. stop says why the
    solve ended: "closure" (the Krylov subspace closed, or the operator is
    zero), "residual" (the residual bound on the top Ritz value met tol) or
    "budget".
    radius_lower_bound is the |Rayleigh quotient| of the Ritz vector of the
    largest |Ritz value|, recomputed in the original space, hence a rigorous
    lower bound.
    """
    _check_solver_args(tol, max_iter)
    return _radius_report(op, _lanczos(op, tol, max_iter) if op.nnz else None)


def _radius_report(op: LinOp, res: _LanczosResult | None) -> SpectralReport:
    """The SpectralReport of the Lanczos run res on op. The zero operator
    has a fixed one, whatever run was made on it, if any."""
    if op.nnz == 0:
        return SpectralReport(0.0, 0.0, [0.0], 0, True, "closure", 0)
    thetas = res.thetas
    u = res.ritz_vector(int(np.argmax(np.abs(thetas))))
    lower = abs(float(u @ op.apply(u)))
    estimate = max(float(np.abs(thetas).max()), lower)

    tops = {}                           # the top four, then the bottom four, once each
    for t in list(thetas[::-1][:4]) + list(thetas[:4]):
        tops.setdefault(round(float(t), 14), float(t))
    return SpectralReport(estimate, min(lower, estimate), list(tops.values()),
                          res.iterations, res.converged, res.stop, res.reorthogonalized)


def fingerprint(op: LinOp) -> dict:
    """Report-ready summary of an operator: size, fill, symmetry check (made
    exactly when a symmetric LinOp was). boundary_policy is always zero-pad:
    no builder keeps what leaves the truncation."""
    return {"size": int(op.n), "nnz": int(op.nnz), "symmetric": op.symmetric,
            "max_asymmetry": 0.0 if op.symmetric else op.symmetry_defect(),
            "boundary_policy": "zero-pad"}


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
    """Residual-based membership certificate for target in the spectrum.

    Residuals are evaluated over three routes, in order: the supplied
    witness family, the Lanczos Ritz vector nearest to target
    ("lanczos-ritz"), and, when neither is within tol, four steps of
    inverse iteration with one sparse LU factor of A - shift, shift just
    off target ("shift-invert"). certified means some witness has residual
    <= tol, which for a symmetric operator places a point of the truncated
    spectrum within that residual of target; best_residual is always
    measured against op itself, so it is rigorous whichever route found
    it. Non-membership is never certified. gap_hint is only a hint: the
    distance from target to the nearest Ritz value found, the Rayleigh
    quotient of the shift-invert vector counting as one. errors lists, as
    "route: message", each route that produced no vector: a LinAlgError
    from the eigensolver, an exactly singular factor.

    The certificate's spectral is the SpectralReport of its Lanczos run,
    equal to spectral_radius(op, max_iter=max_iter). seed picks only the
    shift-invert start, which must stay generic: an interior eigenvector
    can be orthogonal to the constant vector. reuse, an earlier certificate
    on op with the same max_iter, whatever its seed, supplies that run (or
    its failure) instead of a new solve; any other is an InputError.
    """
    if not op.symmetric:
        raise InputError("membership certificates require a symmetric operator")
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

    if best_res > tol and op.nnz:
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

    sizes must be strictly increasing and lie in [1, op.n]. The returned
    report is the one for the largest size, with truncation_trace filled;
    its stop is that of the largest size's solve.
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
    if len(trace) >= 2:
        report.converged = solved and bool(abs(trace[-1][1] - trace[-2][1]) < tol)
    return report
