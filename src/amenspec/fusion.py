"""Fusion rings and tensoring operators on truncated label sets.

A fusion ring is given either by explicit structure tables or by the
free rank-one rule family: a_m (x) a_n = a_|m-n| + a_{|m-n|+2} + ... + a_{m+n},
with dimensions following d_{k+1} = N d_k - d_{k-1}, d_0 = 1, d_1 = N. The
same rule with N = 2 gives the classical SU(2) ring (d_k = k + 1) and with
integer N >= 3 the free orthogonal family, whose dimensions grow
geometrically. Dimension arithmetic that has to be exact (bookkeeping,
table axiom checks) runs over Python integers whenever the dimensions are
integral; their float values (FusionRing.dim) overflow to inf for deep
truncations.

Operators act on the span of the first `trunc` labels: the entry at
(beta, alpha) is the multiplicity of beta inside kappa (x) alpha, and
contributions landing outside the window are dropped (zero padding), which
keeps every fusion truncation a compression of the full operator; the
half-line interval operator of semidirect is not one (see spectral).
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from typing import Iterable, Sequence

import numpy as np

from .spectral import (CERT_TOL, DEFAULT_SEED, AmenabilityVerdict, InputError, LinOp,
                       ValidationError, _MAX_BUILD, _is_int, _is_real, _read_json, _window,
                       in_spectrum)

FREE_SU2 = "free-su2"
_TABLE_FIELDS = {"kind", "labels", "dims", "conj", "fusion"}
_RULE_FIELDS = {"kind", "rule", "N", "level"}
_PROBE_RANDOM = 200
_PROBE_RNG_SEED = 987654321
_REL_TOL = 1e-9

# The rule family satisfies every ring axiom for each finite N >= 2, so a
# rule descriptor is reported against these rows, in the table order,
# instead of being re-checked. a_k stands for the Chebyshev polynomial U_k
# and d_k = U_k(N/2): the ladder rule is the product U_i U_j = sum of U_k
# over k = |i-j|, |i-j|+2, ..., i+j, the SU(2) Clebsch-Gordan rule.
_RULE_AXIOMS = (
    ("dimension positivity",
     "d_k = U_k(N/2) >= U_k(1) = k + 1 >= 1 since N >= 2 is finite"),
    ("unit element", "a0 (x) a_n = a_n: the ladder range runs from n to n"),
    ("conjugation involution", "self-conjugate family: conj(a_n) = a_n"),
    ("dimension homomorphism",
     "d_i d_j = sum of d_k over the unclipped ladder range: the Chebyshev-U "
     "product evaluated at N/2"),
    ("frobenius reciprocity",
     "a_k lies in a_i (x) a_j iff |i-j| <= k <= i+j and i+j+k is even, "
     "a condition symmetric in i, j, k"),
    ("associativity",
     "a_k -> U_k maps the unclipped rule onto polynomial multiplication, "
     "which is associative"),
)


@dataclasses.dataclass
class RingDescriptor:
    """Parsed, format-checked ring description. Axioms are checked later."""

    kind: str
    labels: list | None = None
    dims: list | None = None
    conj: list | None = None
    fusion: list | None = None
    rule: str | None = None
    N: int | float | None = None
    level: int | None = None

    def to_dict(self) -> dict:
        if self.kind == "table":
            return {"kind": "table", "labels": list(self.labels),
                    "dims": list(self.dims), "conj": list(self.conj),
                    "fusion": [[list(r) for r in p] for p in self.fusion]}
        return {"kind": "rule", "rule": self.rule, "N": self.N, "level": self.level}


def parse_descriptor(obj: dict) -> RingDescriptor:
    """Strict parse of a ring descriptor mapping. Unknown fields are errors."""
    if not isinstance(obj, dict):
        raise InputError("ring descriptor must be a JSON object")
    kind = obj.get("kind")
    if kind == "table":
        extra = set(obj) - _TABLE_FIELDS
        missing = _TABLE_FIELDS - set(obj)
        if extra:
            raise InputError(f"unexpected descriptor field(s): {sorted(extra)}")
        if missing:
            raise InputError(f"missing descriptor field(s): {sorted(missing)}")
        labels = obj["labels"]
        if (not isinstance(labels, list) or not labels
                or not all(isinstance(s, str) and s for s in labels)):
            raise InputError("labels must be a nonempty list of strings")
        if len(set(labels)) != len(labels):
            raise InputError("labels must be unique")
        n = len(labels)
        dims = obj["dims"]
        if not isinstance(dims, list) or len(dims) != n or not all(map(_is_real, dims)):
            raise InputError("dims must be a list of numbers, one per label")
        conj = obj["conj"]
        if not isinstance(conj, list) or len(conj) != n or not all(c in labels for c in conj):
            raise InputError("conj must list the conjugate label for every label")
        fusion = obj["fusion"]
        ok = (isinstance(fusion, list) and len(fusion) == n
              and all(isinstance(p, list) and len(p) == n for p in fusion)
              and all(isinstance(r, list) and len(r) == n for p in fusion for r in p))
        if not ok:
            raise InputError("fusion must be an n x n x n table of multiplicities")
        if not all(_is_int(v) and v >= 0 for p in fusion for r in p for v in r):
            raise InputError("fusion multiplicities must be nonnegative integers")
        fusion = [[[int(v) for v in r] for r in p] for p in fusion]
        return RingDescriptor("table", labels=list(labels), dims=[_number(d) for d in dims],
                              conj=list(conj), fusion=fusion)
    if kind == "rule":
        extra = set(obj) - _RULE_FIELDS
        missing = _RULE_FIELDS - set(obj)
        if extra:
            raise InputError(f"unexpected descriptor field(s): {sorted(extra)}")
        if missing:
            raise InputError(f"missing descriptor field(s): {sorted(missing)}")
        if obj["rule"] != FREE_SU2:
            raise InputError(f"unknown rule {obj['rule']!r}")
        N, level = obj["N"], obj["level"]
        if not (_is_real(N) and 2 <= _number(N) <= sys.float_info.max):
            raise InputError("rule rings need a finite numeric N >= 2 within float range")
        if not (_is_int(level) and level >= 0):
            raise InputError("level must be a nonnegative integer")
        return RingDescriptor("rule", rule=FREE_SU2, N=_number(N), level=int(level))
    raise InputError("descriptor kind must be 'table' or 'rule'")


def _number(v):     # an _is_real v as a Python int or float, which JSON can hold
    return int(v) if _is_int(v) else float(v)


def load_descriptor_file(path: str) -> RingDescriptor:
    return parse_descriptor(_read_json(path, "ring descriptor"))


class FusionRing:
    """Closed label set with decomposition, conjugation and dimensions.

    Construct through load_ring / free_su2_ring so the axioms have been
    checked. decompose() clips to the closed label set and reports nothing
    about what fell off; the clip count is tracked by the operator builders.
    """

    def __init__(self, desc: RingDescriptor):
        self.kind = desc.kind
        if desc.kind == "table":
            self.labels = tuple(desc.labels)
            self._index = {s: i for i, s in enumerate(self.labels)}
            self._conj = {s: c for s, c in zip(self.labels, desc.conj)}
            self._fusion = np.array(desc.fusion, dtype=np.int64)
            self.integral_dims = all(float(d).is_integer() for d in desc.dims)
            if self.integral_dims:
                self._dims_exact = [int(d) for d in desc.dims]
            else:
                self._dims_exact = [float(d) for d in desc.dims]
            self.unit_label = self.labels[_find_unit(self._fusion)]
            self.level = None
            self.N = None
        else:
            if desc.level + 1 > _MAX_BUILD:
                raise InputError(f"the level-{desc.level} ring has more than {_MAX_BUILD} labels")
            self.level = desc.level
            self.N = int(desc.N) if float(desc.N).is_integer() else float(desc.N)
            self.integral_dims = isinstance(self.N, int)
            self._dims_exact = [1, self.N] if self.level >= 1 else [1]
            self.unit_label = "a0"

    # -- label plumbing ----------------------------------------------------

    @functools.cached_property
    def labels(self) -> tuple:      # a rule ring's, at first read; a table ring sets its own
        return tuple(f"a{k}" for k in range(self.level + 1))

    @property
    def size(self) -> int:
        return len(self.labels) if self.kind == "table" else self.level + 1

    def index(self, label: str) -> int:     # a rule ring's label a<k>, k in ASCII digits, is k
        if self.kind == "table" and label in self._index:
            return self._index[label]
        k = label[1:] if self.kind == "rule" and isinstance(label, str) and label[:1] == "a" else ""
        if (k.isascii() and k.isdigit() and len(k) <= len(str(self.level))
                and str(int(k)) == k and int(k) <= self.level):
            return int(k)
        raise InputError(f"unknown label {label!r}")

    def conj(self, label: str) -> str:
        i = self.index(label)
        return self._conj[label] if self.kind == "table" else f"a{i}"

    # -- dimensions ---------------------------------------------------------

    def _dim_at(self, k: int):
        """Exact dimension of the k-th label, extending past the level cut."""
        seq = self._dims_exact
        while len(seq) <= k:
            seq.append(self.N * seq[-1] - seq[-2])
        return seq[k]

    def dim_exact(self, label: str):
        return self._dim_at(self.index(label))

    def dim(self, label: str) -> float:
        try:
            return float(self._dim_at(self.index(label)))
        except OverflowError:
            return float("inf")

    # -- decomposition -------------------------------------------------------

    def decompose(self, kappa: str, alpha: str) -> dict:
        """Multiplicities of the closed labels inside kappa (x) alpha."""
        pairs = self.decompose_indices(self.index(kappa), self.index(alpha))
        return {(self.labels[k] if self.kind == "table" else f"a{k}"): m for k, m in pairs}

    def decompose_indices(self, i: int, j: int, clip: bool = True):
        """Index pairs (k, mult). With clip=False, rule rings extend past level."""
        if self.kind == "table":
            row = self._fusion[i, j]
            return [(k, int(m)) for k, m in enumerate(row) if m]
        lo, hi = abs(i - j), i + j
        if clip:
            hi = min(hi, self.level)
        return [(k, 1) for k in range(lo, hi + 1, 2)]

    def describe(self) -> dict:
        if self.kind == "table":
            return {"kind": "table", "labels": self.size}
        return {"kind": "rule", "rule": FREE_SU2, "N": self.N, "level": self.level}


def _find_unit(fusion: np.ndarray) -> int:
    n = fusion.shape[0]
    eye = np.eye(n, dtype=np.int64)
    for u in range(n):
        if np.array_equal(fusion[u], eye) and np.array_equal(fusion[:, u], eye):
            return u
    raise ValidationError("unit element", "no label acts as a two-sided unit")


def _close(a, b, exact: bool) -> bool:
    if exact:
        return a == b
    fa, fb = float(a), float(b)
    if not (np.isfinite(fa) and np.isfinite(fb)):
        return False
    return abs(fa - fb) <= _REL_TOL * max(1.0, abs(fa), abs(fb))


def validate_descriptor(desc: RingDescriptor) -> list:
    """Run the ring axioms; returns rows {axiom, passed, detail}.

    Small table rings are checked in full, large ones probed on low labels
    plus a seeded random sample. A rule descriptor gets the fixed rows of
    _RULE_AXIOMS: the family satisfies every axiom for each finite N >= 2,
    which parse_descriptor enforces.
    """
    return _check_axioms(desc)[0]


def _check_axioms(desc: RingDescriptor) -> tuple:
    """validate_descriptor's rows and the table ring its checks ran on,
    None for a rule descriptor or a table with no unit."""
    rows = []
    rng = np.random.default_rng(_PROBE_RNG_SEED)

    def push(axiom, passed, detail=""):
        rows.append({"axiom": axiom, "passed": bool(passed), "detail": detail})

    if desc.kind == "table":
        ring = None
        try:
            ring = FusionRing(desc)
            push("unit element", True, f"unit is {ring.unit_label!r}")
        except ValidationError as e:
            push("unit element", False, e.detail)
        dims = [float(d) for d in desc.dims]
        bad = [s for s, d in zip(desc.labels, dims) if d < 1 - _REL_TOL]
        push("dimension positivity", not bad,
             f"labels with dim < 1: {bad}" if bad else "all dims >= 1")
        if ring is None:
            return rows, None
        n = ring.size
        conj_idx = np.array([ring.index(c) for c in desc.conj])
        invol = np.array_equal(conj_idx[conj_idx], np.arange(n))
        dim_match = all(_close(ring.dim_exact(s), ring.dim_exact(ring.conj(s)),
                               ring.integral_dims) for s in ring.labels)
        push("conjugation involution", invol and dim_match,
             "conj(conj(x)) = x and dim(conj(x)) = dim(x)" if invol and dim_match
             else "conjugation is not a dimension-preserving involution")
        F = ring._fusion
        exact = ring.integral_dims
        hom_bad = None
        for i in range(n):
            for j in range(n):
                lhs = ring._dim_at(i) * ring._dim_at(j)
                rhs = sum(m * ring._dim_at(k) for k, m in ring.decompose_indices(i, j))
                if not _close(lhs, rhs, exact):
                    hom_bad = (ring.labels[i], ring.labels[j], lhs, rhs)
                    break
            if hom_bad:
                break
        push("dimension homomorphism", hom_bad is None,
             "d(x) d(y) = sum of summand dims for all pairs" if hom_bad is None
             else f"fails at {hom_bad[0]!r} (x) {hom_bad[1]!r}: {hom_bad[2]} != {hom_bad[3]}")
        # F[i, j, k] == F[conj(i), k, j] for every triple
        frob_ok = bool(np.array_equal(F, F[conj_idx].transpose(0, 2, 1)))
        push("frobenius reciprocity", frob_ok,
             "mult(b in k (x) a) = mult(a in conj(k) (x) b)" if frob_ok
             else "multiplicity table breaks duality symmetry")
        if n <= 40:
            left = np.tensordot(F, F, axes=([2], [0]))       # (i,j,l,m)
            right = np.einsum("jlk,ikm->ijlm", F, F)
            assoc = bool(np.array_equal(left, right))
            scope = "all triples"
        else:
            assoc = True
            trip = {(i, j, l) for i in range(8) for j in range(8) for l in range(8)}
            extra = rng.integers(0, n, size=(_PROBE_RANDOM, 3))
            trip |= {(int(a), int(b), int(c)) for a, b, c in extra}
            for i, j, l in sorted(trip):
                lrow = np.tensordot(F[i, j, :], F[:, l, :], axes=(0, 0))
                rrow = np.tensordot(F[j, l, :], F[i, :, :], axes=(0, 0))
                if not np.array_equal(lrow, rrow):
                    assoc = False
                    break
            scope = "probed triples"
        push("associativity", assoc,
             f"(x (x) y) (x) z = x (x) (y (x) z) on {scope}" if assoc
             else "fusion table is not associative")
        return rows, ring

    return [{"axiom": a, "passed": True, "detail": d} for a, d in _RULE_AXIOMS], None


def load_ring(desc: RingDescriptor) -> FusionRing:
    """Validate the axioms and construct the ring, a table ring once; fail
    on the first break."""
    rows, ring = _check_axioms(desc)
    for row in rows:
        if not row["passed"]:
            raise ValidationError(row["axiom"], row["detail"])
    return ring if ring is not None else FusionRing(desc)


def free_su2_ring(N, level: int) -> FusionRing:
    return load_ring(parse_descriptor(
        {"kind": "rule", "rule": FREE_SU2, "N": N, "level": level}))


def fusion_operator(ring: FusionRing, kappa: str, trunc: int) -> LinOp:
    """Tensoring-by-kappa multiplicity operator on the first trunc labels.

    Entry (beta, alpha) is mult(beta in kappa (x) alpha). Symmetric exactly
    when kappa is self-conjugate. The dual route, mult(alpha in conj(kappa)
    (x) beta), agrees entry by entry without a check here: that is the
    Frobenius reciprocity load_ring validates on the whole table, and rule
    rings satisfy it through their symmetric triangle condition.
    """
    ki = ring.index(kappa)
    if not (_is_int(trunc) and 1 <= trunc <= ring.size):
        raise InputError(f"trunc must be in [1, {ring.size}], got {trunc!r}")
    trunc = int(trunc)
    if ring.kind == "table":        # column j: the nonzero entries of fusion row (ki, j)
        cols, rows = np.nonzero(ring._fusion[ki, :trunc])
        vals, dropped = ring._fusion[ki, cols, rows], 0
    else:       # column j: rows lo + 2t for t < count, lo = |ki - j|, to min(ki + j, level)
        j = np.arange(trunc)
        lo = np.abs(ki - j)
        count = (np.minimum(ki + j, ring.level) - lo) // 2 + 1
        cols, vals = np.repeat(j, count), np.ones(count.sum(), dtype=np.int64)
        rows = np.repeat(lo - 2 * (np.cumsum(count) - count), count) + 2 * np.arange(cols.size)
        # column j clips the summands ki + j, ki + j - 2, ... past level (lo <= level)
        dropped = int((np.maximum(ki + j - ring.level + 1, 0) // 2).sum())
    keep = rows < trunc
    dropped += int(vals[~keep].sum())
    return LinOp.from_entries(trunc, rows[keep], cols[keep], vals[keep],
                              meta={"kappa": kappa, "trunc": trunc,
                                    "dropped": dropped, "ring": ring.describe()})


def window_operator(ring: FusionRing, omega: Sequence[str], trunc: int) -> LinOp:
    """Sum of the tensoring operators over a finite window of labels."""
    omega = _window(omega, "window")
    ops = [fusion_operator(ring, s, trunc) for s in omega]
    target = float(sum(ring.dim(s) for s in omega))
    meta = {"omega": omega, "trunc": ops[0].n, "target": target,
            "dropped": sum(o.meta["dropped"] for o in ops), "ring": ring.describe()}
    if ring.integral_dims:
        meta["target_exact"] = int(sum(ring.dim_exact(s) for s in omega))
    return LinOp(sum((o.matrix for o in ops[1:]), ops[0].matrix), meta=meta)


def dim_bookkeeping_check(ring: FusionRing, kappa: str, omega: Sequence[str]) -> bool:
    """dim(kappa) * sum of window dims == total dim of the decompositions.

    Uses unclipped decompositions and exact integer arithmetic whenever the
    ring has integral dimensions, so a pass means equality, not closeness.
    """
    ki = ring.index(kappa)
    idx = [ring.index(s) for s in _window(omega, "window")]
    lhs = ring._dim_at(ki) * sum(ring._dim_at(a) for a in idx)
    rhs = sum(m * ring._dim_at(b)
              for a in idx for b, m in ring.decompose_indices(ki, a, clip=False))
    if not ring.integral_dims:
        fl, fr = float(lhs), float(rhs)
        if not (np.isfinite(fl) and np.isfinite(fr)):
            raise InputError("dimension range exceeds float precision for this check")
        return _close(fl, fr, exact=False)
    return lhs == rhs


def coamenability_test(ring: FusionRing, omega: Sequence[str], trunc: int = 2000,
                       tol: float = CERT_TOL, seed: int = DEFAULT_SEED) -> AmenabilityVerdict:
    """Test whether the window mass sum(dim) lies in the truncated spectrum.

    Witness schedule: normalized indicator vectors of the first m labels for
    m near trunc/8, trunc/4, trunc/2, plus the Ritz vector route inside
    in_spectrum. Certification is one-sided; a miss reports the gap to the
    nearest truncated eigenvalue instead. The verdict carries the window
    operator it tested. omega must be closed under conjugation, which makes
    that operator symmetric.
    """
    omega = _window(omega, "window", ring.conj, "conjugation")
    op = window_operator(ring, omega, trunc)
    target, trunc = op.meta["target"], op.n
    witnesses = []
    for m in sorted({max(1, trunc // 8), max(1, trunc // 4), max(1, trunc // 2)}):
        v = np.zeros(trunc)
        v[:m] = 1.0 / np.sqrt(m)
        witnesses.append((f"level-ball-{m}", v))
    verdict = in_spectrum(op, target, tol=tol, witnesses=witnesses, seed=seed)
    notes = {"truncation_size": trunc, "window": omega,
             "witness_ids": [w for w, _ in witnesses] + ["lanczos-ritz"],
             "multiplicities_dropped": op.meta["dropped"],
             "ring": ring.describe()}
    return dataclasses.replace(verdict, notes=notes)
