"""Truncated symmetric operators and residual-based spectrum membership.

Every example class downstream (fusion rings, group walks, grid operators)
builds a LinOp over a SpectrumDomain and asks two questions: what is the
spectral radius of the truncation, and does a given target value sit in the
spectrum up to a certified residual. For a self-adjoint operator A and a
unit vector v, dist(target, spec(A)) <= ||A v - target v||, so a small
residual certifies membership. All truncations here are compressions of a
fixed operator, so certification is one-sided: growing the truncation can
only move the truncated spectrum outward, and non-membership is never
certified, only hinted at via the gap to the nearest truncated eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp

DISCRETE_LABELS = "discrete-labels"
UNIFORM_GRID = "uniform-grid"
ZERO_PAD = "zero-pad"

DEFAULT_SEED = 7
EIGEN_TOL = 1e-8
CERT_TOL = 1e-2
_BREAKDOWN = 1e-13


class InputError(ValueError):
    """Bad operation input: wrong shape, unknown label, asymmetric window."""


class ValidationError(ValueError):
    """An axiom check failed. Carries the axiom name and the offending data."""

    def __init__(self, axiom: str, detail: str):
        self.axiom = axiom
        self.detail = detail
        super().__init__(f"{axiom}: {detail}")


@dataclass(frozen=True, eq=False)
class SpectrumDomain:
    """Truncated, discretized model of a representation spectrum with measure.

    points carry per-point dimension weights (the function dim) and
    quadrature weights (the measure of the atom or cell). Order is stable:
    identical construction input gives an identical point list.
    """

    kind: str
    points: tuple
    dim_weight: np.ndarray
    quad_weight: np.ndarray

    def __post_init__(self):
        if self.kind not in (DISCRETE_LABELS, UNIFORM_GRID):
            raise InputError(f"unknown domain kind {self.kind!r}")
        pts = tuple(self.points)
        if not pts:
            raise InputError("domain needs at least one point")
        index = {p: i for i, p in enumerate(pts)}
        if len(index) != len(pts):
            raise InputError("domain points must be unique")
        dw = np.array(self.dim_weight, dtype=float)
        qw = np.array(self.quad_weight, dtype=float)
        if dw.shape != (len(pts),) or qw.shape != (len(pts),):
            raise InputError("weight vectors must match the point list")
        if np.any(np.isnan(dw)) or not np.all(np.isfinite(qw)):
            # dim weights may overflow to +inf for deep fusion truncations;
            # exact arithmetic lives with the ring, not the domain vector
            raise InputError("weights must be well defined and quadrature finite")
        if np.any(qw <= 0):
            raise InputError("quadrature weights must be positive")
        if self.kind == DISCRETE_LABELS and np.any(dw < 1):
            raise InputError("dimension weights must be >= 1 on discrete domains")
        if np.any(dw <= 0):
            raise InputError("dimension weights must be positive")
        dw.setflags(write=False)
        qw.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "dim_weight", dw)
        object.__setattr__(self, "quad_weight", qw)
        object.__setattr__(self, "_index", index)

    @property
    def truncation_size(self) -> int:
        return len(self.points)

    def index(self, point) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise InputError(f"point {point!r} not in domain") from None


class LinOp:
    """Finitely truncated operator on the weighted l2 space over a domain.

    Stored as CSR. symmetric is asserted by the builder and then verified:
    discrete builders must be exactly symmetric (tol 0), quadrature builders
    up to 1e-12. boundary_policy records how shifts past the truncation edge
    were handled; only zero-pad is offered, matching the compression
    semantics the certificates rely on.
    """

    def __init__(self, domain: SpectrumDomain, matrix, symmetric: bool,
                 boundary_policy: str = ZERO_PAD, symmetry_tol: float = 0.0,
                 meta: dict | None = None):
        matrix = sp.csr_matrix(matrix)
        matrix.sum_duplicates()
        n = domain.truncation_size
        if matrix.shape != (n, n):
            raise InputError(f"matrix shape {matrix.shape} does not match domain size {n}")
        if matrix.nnz and not np.all(np.isfinite(matrix.data)):
            raise InputError("operator entries must be finite")
        if boundary_policy != ZERO_PAD:
            raise InputError(f"unsupported boundary policy {boundary_policy!r}")
        self.domain = domain
        self.matrix = matrix
        self.symmetric = bool(symmetric)
        self.boundary_policy = boundary_policy
        self.meta = dict(meta or {})
        self._kept_lanczos = None      # see _lanczos_once
        if self.symmetric:
            defect = self.symmetry_defect()
            if defect > symmetry_tol:
                raise InputError(
                    f"operator asserted symmetric but max |A_ij - A_ji| = {defect:g}")

    @classmethod
    def from_entries(cls, domain: SpectrumDomain, rows, cols, vals, **kw) -> "LinOp":
        n = domain.truncation_size
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
            raise InputError("entry index outside the domain")
        m = sp.coo_matrix((np.asarray(vals, dtype=float), (rows, cols)), shape=(n, n))
        return cls(domain, m.tocsr(), **kw)

    @property
    def n(self) -> int:
        return self.domain.truncation_size

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def symmetry_defect(self) -> float:
        d = (self.matrix - self.matrix.T).tocoo()
        return float(np.abs(d.data).max()) if d.nnz else 0.0

    def apply(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise InputError(f"vector length {v.shape} does not match domain size {self.n}")
        return self.matrix @ v

    def entry(self, row_point, col_point) -> float:
        i = self.domain.index(row_point)
        j = self.domain.index(col_point)
        return float(self.matrix[i, j])

    def entries(self):
        """Iterate ((row_point, col_point), value) over stored nonzeros."""
        coo = self.matrix.tocoo()
        pts = self.domain.points
        for i, j, v in zip(coo.row, coo.col, coo.data):
            yield (pts[i], pts[j]), float(v)

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
    truncation_trace: list = field(default_factory=list)
    method: str = "lanczos"

    def to_dict(self) -> dict:
        return {
            "radius_estimate": self.radius_estimate,
            "radius_lower_bound": self.radius_lower_bound,
            "top_eigenvalues": list(self.top_eigenvalues),
            "iterations": self.iterations,
            "converged": self.converged,
            "truncation_trace": [list(t) for t in self.truncation_trace],
            "method": self.method,
        }


@dataclass
class MembershipCertificate:
    target: float
    tolerance: float
    best_residual: float
    witness_id: str | None
    certified: bool
    gap_hint: float

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "tolerance": self.tolerance,
            "best_residual": self.best_residual,
            "witness_id": self.witness_id,
            "certified": self.certified,
            "gap_hint": self.gap_hint,
        }


@dataclass
class AmenabilityVerdict:
    """Verdict of a membership test. operator is the LinOp it tested, when
    the test hands it back for reporting; to_dict leaves it out."""

    target: float
    tolerance: float
    best_residual: float
    certified: bool
    witness_id: str | None
    gap_hint: float
    notes: dict = field(default_factory=dict)
    operator: LinOp | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "tolerance": self.tolerance,
            "best_residual": self.best_residual,
            "certified": self.certified,
            "witness_id": self.witness_id,
            "gap_hint": self.gap_hint,
            "notes": self.notes,
        }


class _LanczosResult:
    """Ritz data from one or more full-reorthogonalization Lanczos runs."""

    def __init__(self):
        self.runs = []          # (V, thetas, S) per run
        self.iterations = 0
        self.converged = False

    def all_thetas(self) -> np.ndarray:
        if not self.runs:
            return np.array([])
        return np.concatenate([t for _, t, _ in self.runs])

    def ritz_vector(self, run: int, which: int) -> np.ndarray:
        V, _, S = self.runs[run]
        u = V @ S[:, which]
        nrm = np.linalg.norm(u)
        return u / nrm if nrm > 0 else u

    def locate(self, key) -> tuple[int, int]:
        """(run, index) minimizing key(theta) over all Ritz values."""
        best = None
        for r, (_, thetas, _) in enumerate(self.runs):
            for i, th in enumerate(thetas):
                k = key(float(th))
                if best is None or k < best[0]:
                    best = (k, r, i)
        return best[1], best[2]


def _lanczos(op: LinOp, tol: float, max_iter: int, seed: int) -> _LanczosResult:
    """Lanczos with full reorthogonalization, restarting on subspace closure.

    A closed Krylov subspace (breakdown) gives exact Ritz values on that
    subspace; up to two fresh start vectors orthogonal to everything already
    captured guard against a start vector that misses the extremal space.
    """
    n = op.n
    A = op.matrix
    rng = np.random.default_rng(seed)
    result = _LanczosResult()
    prior = []          # orthonormal bases of earlier runs
    total_dim = 0

    for _attempt in range(3):
        if total_dim >= n or result.iterations >= max_iter:
            break
        v = rng.standard_normal(n)
        for P in prior:
            v -= P @ (P.T @ v)
        nrm = np.linalg.norm(v)
        if nrm < _BREAKDOWN:
            break
        budget = min(max_iter - result.iterations, n - total_dim)
        if budget <= 0:
            break
        V = np.empty((n, min(budget, 48) + 1))
        V[:, 0] = v / nrm
        alphas: list[float] = []
        betas: list[float] = []
        converged = False
        closed = False
        stall = 0
        k = 0
        while k < budget:
            if k + 1 >= V.shape[1]:
                grown = np.empty((n, min(budget, 2 * V.shape[1]) + 1))
                grown[:, :V.shape[1]] = V
                V = grown
            w = A @ V[:, k]
            a = float(V[:, k] @ w)
            alphas.append(a)
            w -= a * V[:, k]
            if betas:
                w -= betas[-1] * V[:, k - 1]
            # full reorthogonalization, twice, against this and prior runs
            B = V[:, :k + 1]
            w -= B @ (B.T @ w)
            w -= B @ (B.T @ w)
            for P in prior:
                w -= P @ (P.T @ w)
            b = float(np.linalg.norm(w))
            m = len(alphas)
            if m == 1:
                lo = hi = alphas[0]
            else:
                th = scipy.linalg.eigvalsh_tridiagonal(alphas, betas)
                lo, hi = float(th[0]), float(th[-1])
            scale = max(1.0, abs(lo), abs(hi))
            result.iterations += 1
            k += 1
            if b <= _BREAKDOWN * scale:
                closed = True
                converged = True
                break
            if m > 1:
                stall = stall + 1 if abs(lo - prev_lo) + abs(hi - prev_hi) <= 0.01 * tol * scale else 0
                if stall >= 2:
                    # confirm with the rigorous bound beta * |last Ritz component|
                    thv, Sv = scipy.linalg.eigh_tridiagonal(alphas, betas)
                    res_ext = b * max(abs(Sv[-1, 0]), abs(Sv[-1, -1]))
                    if res_ext <= 0.5 * tol * scale:
                        converged = True
                        break
                    stall = 0
            prev_lo, prev_hi = lo, hi
            betas.append(b)
            V[:, k] = w / b
        m = len(alphas)
        if m == 0:
            break
        B = V[:, :m]
        if m == 1:
            thetas = np.array([alphas[0]])
            S = np.ones((1, 1))
        else:
            thetas, S = scipy.linalg.eigh_tridiagonal(alphas, betas[:m - 1])
        result.runs.append((B, thetas, S))
        result.converged = result.converged or converged
        total_dim += m
        prior.append(B)
        if converged and not closed:
            break
        if not converged:
            break  # budget exhausted: caller decides on the fallback
    if total_dim >= n:
        result.converged = True
    return result


def _lanczos_once(op: LinOp, tol: float, max_iter: int, seed: int,
                  keep: bool) -> _LanczosResult:
    """_lanczos, reusing the run an earlier call kept on op with the same arguments.

    A kept run is taken off op either way, so it never outlives the next
    solve on op; keep=True puts this run back for the call after it.
    """
    args = (tol, max_iter, seed)
    kept, op._kept_lanczos = op._kept_lanczos, None
    res = kept[1] if kept is not None and kept[0] == args else _lanczos(op, *args)
    if keep:
        op._kept_lanczos = (args, res)
    return res


def _power_on_squared(op: LinOp, tol: float, max_iter: int, seed: int):
    """Power iteration on A^2. Returns (estimate, lower_bound, iters, converged)."""
    A = op.matrix
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal(op.n)
    x /= np.linalg.norm(x)
    est_prev = None
    best = 0.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        y = A @ x
        ny = float(np.linalg.norm(y))
        best = max(best, ny)      # ||A x|| <= spectral radius for unit x
        if ny < _BREAKDOWN:
            return 0.0, 0.0, it, True
        z = A @ y
        nz = float(np.linalg.norm(z))
        est = float(np.sqrt(nz)) if nz > 0 else ny
        if est_prev is not None and abs(est - est_prev) <= tol * max(1.0, est):
            converged = True
            est_prev = est
            break
        est_prev = est
        x = z / nz if nz > 0 else y / ny
    return float(max(est_prev or 0.0, best)), float(best), it, converged


def spectral_radius(op: LinOp, tol: float = EIGEN_TOL, max_iter: int = 300,
                    seed: int = DEFAULT_SEED) -> SpectralReport:
    """Spectral radius of the truncated operator.

    Lanczos with full reorthogonalization; for a symmetric operator the
    estimate is within tol of the largest |eigenvalue| of the truncation
    once converged. radius_lower_bound is the best Rayleigh quotient found,
    recomputed in the original space, hence a rigorous lower bound. Falls
    back to power iteration on A^2 when Lanczos stagnates. Reuses the
    Lanczos run of an earlier in_spectrum call on op with the same seed
    and budget.
    """
    if tol <= 0:
        raise InputError("tol must be positive")
    if op.nnz == 0:
        return SpectralReport(0.0, 0.0, [0.0], 0, True)
    res = _lanczos_once(op, tol, max_iter, seed, keep=False)
    thetas = res.all_thetas()
    method = "lanczos"
    iterations = res.iterations
    converged = res.converged

    estimate = float(np.abs(thetas).max()) if thetas.size else 0.0
    lower = 0.0
    if thetas.size:
        run, idx = res.locate(lambda th: -abs(th))
        u = res.ritz_vector(run, idx)
        rq = float(u @ op.apply(u))
        lower = abs(rq)
        estimate = max(estimate, lower)

    if not converged:
        p_est, p_low, p_it, p_conv = _power_on_squared(op, tol, max_iter, seed)
        method = "lanczos+power"
        iterations += p_it
        estimate = max(estimate, p_est)
        lower = max(lower, p_low)
        converged = p_conv

    if thetas.size:
        order = np.argsort(thetas)
        sel = list(thetas[order[::-1][:4]]) + list(thetas[order[:4]])
        seen, tops = set(), []
        for t in sel:
            key = round(float(t), 14)
            if key not in seen:
                seen.add(key)
                tops.append(float(t))
    else:
        tops = [estimate]
    return SpectralReport(float(estimate), float(min(lower, estimate)), tops,
                          iterations, bool(converged), method=method)


def fingerprint(op: LinOp) -> dict:
    """Report-ready summary of an operator: size, fill, symmetry check."""
    return {"size": int(op.n), "nnz": int(op.nnz), "symmetric": op.symmetric,
            "max_asymmetry": op.symmetry_defect(),
            "boundary_policy": op.boundary_policy}


def residual(op: LinOp, target: float, v) -> float:
    """||A v - target v|| / ||v|| for a candidate approximate eigenvector."""
    v = np.asarray(v, dtype=float)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise InputError("zero witness vector")
    return float(np.linalg.norm(op.apply(v) - target * v) / nrm)


def in_spectrum(op: LinOp, target: float, tol: float = CERT_TOL,
                witnesses: Iterable | None = None, seed: int = DEFAULT_SEED,
                max_iter: int = 300) -> MembershipCertificate:
    """Residual-based membership certificate for target in the spectrum.

    Residuals are evaluated over the supplied witness family and over the
    Lanczos Ritz vector nearest to target. certified means some witness has
    residual <= tol, which for a symmetric operator places a point of the
    truncated spectrum within that residual of target. Non-membership is
    never certified; gap_hint reports the distance from target to the
    nearest truncated eigenvalue found. The Lanczos run is kept on op for
    the next in_spectrum or spectral_radius call with the same seed and
    budget.
    """
    if not op.symmetric:
        raise InputError("membership certificates require a symmetric operator")
    if tol <= 0:
        raise InputError("tol must be positive")

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
        if np.linalg.norm(vec) == 0:
            continue
        r = residual(op, target, vec)
        if r < best_res:
            best_res, best_id = r, wid

    gap = np.inf
    try:
        res = _lanczos_once(op, EIGEN_TOL, max_iter, seed, keep=True)
        thetas = res.all_thetas()
        if thetas.size:
            gap = float(np.abs(thetas - target).min())
            run, idx = res.locate(lambda th: abs(th - target))
            u = res.ritz_vector(run, idx)
            r = residual(op, target, u)
            if r < best_res:
                best_res, best_id = r, "lanczos-ritz"
    except scipy.linalg.LinAlgError:
        pass  # no Ritz route: the certificate rests on supplied witnesses alone

    if best_res > tol and op.nnz:
        # interior targets: extremal Ritz pairs miss them, but the bottom of
        # (A - target)^2 is extremal and its Rayleigh quotient is exactly the
        # squared residual, so minimize that instead
        try:
            shifted = (op.matrix - target * sp.eye(op.n, format="csr")).tocsr()
            squared = LinOp(op.domain, shifted @ shifted, symmetric=True,
                            symmetry_tol=1e-9 * max(1.0, abs(target)) ** 2)
            res2 = _lanczos(squared, EIGEN_TOL, max_iter, seed + 3)
            if res2.runs:
                run, idx = res2.locate(lambda th: th)
                u = res2.ritz_vector(run, idx)
                r = residual(op, target, u)
                gap = min(gap, r)
                if r < best_res:
                    best_res, best_id = r, "shifted-lanczos"
        except (scipy.linalg.LinAlgError, InputError):
            pass

    certified = bool(best_res <= tol)
    return MembershipCertificate(float(target), float(tol),
                                 float(best_res), best_id, certified, float(gap))


def truncation_sweep(builder: Callable[[int], LinOp], sizes: Sequence[int],
                     tol: float = EIGEN_TOL, seed: int = DEFAULT_SEED,
                     max_iter: int = 300) -> SpectralReport:
    """Rebuild the operator at each size and record the radius estimates.

    sizes must be strictly increasing. The returned report is the one for
    the largest size, with truncation_trace filled and converged set to the
    Cauchy-style flag (the last two estimates differ by less than tol).
    """
    sizes = [int(s) for s in sizes]
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise InputError("sizes must be strictly increasing and nonempty")
    trace = []
    report = None
    for s in sizes:
        try:
            op = builder(s)
        except Exception as e:
            raise InputError(f"builder failed at size {s}: {e}") from e
        report = spectral_radius(op, tol=min(tol, EIGEN_TOL), max_iter=max_iter, seed=seed)
        trace.append((s, report.radius_estimate))
    report.truncation_trace = trace
    report.method = "sweep"
    if len(trace) >= 2:
        report.converged = bool(abs(trace[-1][1] - trace[-2][1]) < tol)
    return report
