"""Fusion ring construction, axiom validation, and tensoring operators."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amenspec import (InputError, LinOp, ValidationError, coamenability_test,
                      dim_bookkeeping_check, free_su2_ring, fusion_operator,
                      load_descriptor_file, load_ring, parse_descriptor,
                      validate_descriptor, window_operator)

GOLDEN = (1 + math.sqrt(5)) / 2


def cyclic3_descriptor(**overrides):
    """Group ring of the cyclic group of order 3: g and h = g*g are dual."""
    mult = [[[1 if k == (i + j) % 3 else 0 for k in range(3)]
             for j in range(3)] for i in range(3)]
    obj = {"kind": "table", "labels": ["e", "g", "h"], "dims": [1, 1, 1],
           "conj": ["e", "h", "g"], "fusion": mult}
    obj.update(overrides)
    return obj


def golden_descriptor():
    # two labels, t (x) t = e + t, dimension the golden ratio
    return {"kind": "table", "labels": ["e", "t"], "dims": [1.0, GOLDEN],
            "conj": ["e", "t"],
            "fusion": [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]}


def rule_mult(i, j, k):
    """Independent statement of the free rank-one rule: parity plus range."""
    return 1 if (abs(i - j) <= k <= i + j and (i + j - k) % 2 == 0) else 0


# -- rule rings ---------------------------------------------------------------


def test_rank_one_rule_ring_shape():
    ring = free_su2_ring(2, 10)
    assert ring.size == 11
    assert ring.labels[0] == "a0" and ring.labels[10] == "a10"
    assert ring.unit_label == "a0"
    assert ring.conj("a4") == "a4"
    assert ring.integral_dims
    assert [ring.dim(f"a{k}") for k in range(5)] == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_rule_ring_keeps_no_label_table():
    # a label's index is its digits: the largest ring the build cap admits
    # makes no string or dict per label, until its labels are read
    tracemalloc.start()
    try:
        ring = free_su2_ring(3, 2 ** 22 - 1)
        assert ring.size == 2 ** 22
        assert ring.index("a4194303") == 2 ** 22 - 1 and ring.index("a0") == 0
        assert ring.conj("a17") == "a17"
        assert ring.decompose("a1", "a4194303") == {"a4194302": 1}
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()
    small = free_su2_ring(2, 3)
    assert small.labels == ("a0", "a1", "a2", "a3") and small.size == 4


@pytest.mark.parametrize("label", ["a01", "a00", "a-1", "a+1", "a１", "a٣", "a4",
                                   "A1", " a1", "a1 ", "a", "", "1", "a" + "9" * 5000, 1, None])
def test_rule_ring_labels_are_spelled_one_way(label):
    # a0 ... a<level>: ASCII digits, no sign, no leading zero; anything else,
    # a fullwidth or Arabic-Indic digit or a number past int's digit limit
    # included, is an unknown label
    with pytest.raises(InputError, match="unknown label"):
        free_su2_ring(2, 3).index(label)


def test_free_orthogonal_dims_match_fibonacci():
    # for N = 3 the dimension recursion walks the even-index Fibonacci numbers
    ring = free_su2_ring(3, 60)
    a, b = 1, 1
    fib = [a]
    for _ in range(130):
        a, b = b, a + b
        fib.append(a)
    for k in range(61):
        assert ring.dim_exact(f"a{k}") == fib[2 * k + 1]


def test_rule_decomposition_and_clipping():
    ring = free_su2_ring(2, 10)
    assert ring.decompose("a1", "a1") == {"a0": 1, "a2": 1}
    assert ring.decompose("a0", "a7") == {"a7": 1}
    assert ring.decompose("a5", "a7") == {f"a{k}": 1 for k in range(2, 11, 2)}
    # a5 (x) a6 .. a5 (x) a10 drop 1, 1, 2, 2 and 3 summands past the level cut
    assert fusion_operator(ring, "a5", 11).meta["dropped"] == 9
    assert fusion_operator(ring, "a1", 11).meta["dropped"] == 1   # a1 (x) a10 drops a11


@pytest.mark.parametrize("kappa, trunc, dropped", [("a2", 5, 2), ("a1", 5, 1), ("a3", 4, 4)])
def test_clipped_summands_are_counted_at_either_parity(kappa, trunc, dropped):
    # level 4: a2 (x) a3 = a1 + a3 + a5 clips a5, a2 (x) a4 clips a6, a1 (x) a4
    # clips a5; a3 (x) a2 and a3 (x) a3 clip a5 and a6, and a4 falls past trunc 4
    # in a3 (x) a1 and a3 (x) a3
    assert fusion_operator(free_su2_ring(3, 4), kappa, trunc).meta["dropped"] == dropped


def test_non_integral_parameter_keeps_float_dims():
    ring = free_su2_ring(2.5, 6)
    assert not ring.integral_dims
    assert abs(ring.dim("a2") - (2.5 * 2.5 - 1)) < 1e-12


def test_deep_truncation_domain_handles_dim_overflow():
    ring = free_su2_ring(3, 900)
    op = fusion_operator(ring, "a1", 900)
    assert op.n == 900 and ring.labels[op.n - 1] == "a899"
    assert ring.dim("a899") == np.inf      # the float value saturates
    assert ring.dim_exact("a899") >= 1     # exact value stays available


# -- operators ----------------------------------------------------------------


def test_generator_operator_is_tridiagonal():
    ring = free_su2_ring(2, 20)
    op = fusion_operator(ring, "a1", 8)
    want = np.zeros((8, 8))
    for i in range(7):
        want[i, i + 1] = want[i + 1, i] = 1.0
    assert np.array_equal(op.to_dense(), want)
    assert op.symmetric
    assert op.meta["dropped"] == 1         # a1 (x) a7 spills one summand


def test_unit_operator_is_identity():
    ring = free_su2_ring(2, 10)
    op = fusion_operator(ring, "a0", 5)
    assert np.array_equal(op.to_dense(), np.eye(5))
    assert op.meta["dropped"] == 0


def test_rule_operators_agree_across_parameter():
    # the multiplicity pattern depends on the rule, not on N
    a = fusion_operator(free_su2_ring(2, 60), "a2", 50)
    b = fusion_operator(free_su2_ring(3, 60), "a2", 50)
    assert (a.matrix != b.matrix).nnz == 0


def test_window_operator_matches_direct_rule_expansion():
    ring = free_su2_ring(2, 30)
    op = window_operator(ring, ["a1", "a2"], 10)
    want = np.zeros((10, 10))
    for j in range(10):
        for k in (1, 2):
            for i in range(10):
                want[i, j] += rule_mult(k, j, i)
    assert np.array_equal(op.to_dense(), want)
    assert op.symmetric
    assert op.meta["target"] == 5.0
    assert op.meta["target_exact"] == 5


def test_window_operator_input_checks():
    ring = free_su2_ring(2, 10)
    with pytest.raises(InputError):
        window_operator(ring, [], 5)
    with pytest.raises(InputError):
        window_operator(ring, ["a1", "a1"], 5)
    with pytest.raises(InputError):
        window_operator(ring, ["b9"], 5)
    for trunc in (12, 0):
        with pytest.raises(InputError, match=r"trunc must be in \[1, 11\]"):
            fusion_operator(ring, "a1", trunc)
        with pytest.raises(InputError, match=r"trunc must be in \[1, 11\]"):
            window_operator(ring, ["a1"], trunc)


def test_transpose_matches_conjugate_label():
    ring = load_ring(parse_descriptor(cyclic3_descriptor()))
    g = fusion_operator(ring, "g", 3)
    h = fusion_operator(ring, "h", 3)
    assert (g.matrix.T != h.matrix).nnz == 0
    assert not g.symmetric
    win = window_operator(ring, ["g", "h"], 3)
    assert win.symmetric and win.symmetry_defect() == 0.0


def test_self_conjugate_operators_are_exactly_symmetric():
    for ring in (free_su2_ring(2, 40), free_su2_ring(3, 40)):
        for kappa in ("a1", "a2", "a5"):
            op = fusion_operator(ring, kappa, 30)
            assert op.symmetry_defect() == 0.0


def loop_fusion_operator(ring, kappa, trunc):
    """Reference build, entry by entry: the matrix and the dropped count."""
    ki = ring.index(kappa)
    rows, cols, vals, dropped = [], [], [], 0
    for j in range(trunc):
        for i, m in ring.decompose_indices(ki, j, clip=False):
            if i < trunc:
                rows.append(i)
                cols.append(j)
                vals.append(m)
            else:
                dropped += m
    return LinOp.from_entries(trunc, rows, cols, vals).matrix, dropped


@pytest.mark.parametrize("ring, kappa, trunc", [
    *[(free_su2_ring(N, level), kappa, trunc) for N in (2, 3) for level in (29, 30)
      for kappa in ("a1", "a2", "a5") for trunc in (20, level + 1)],
    *[(load_ring(parse_descriptor(cyclic3_descriptor())), kappa, trunc)
      for kappa in ("e", "g", "h") for trunc in (1, 2, 3)]])
def test_operator_build_is_the_entrywise_build(ring, kappa, trunc):
    # the same CSR arrays and dropped count, with and without rows past trunc
    op = fusion_operator(ring, kappa, trunc)
    want, dropped = loop_fusion_operator(ring, kappa, trunc)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(op.matrix, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert op.meta["dropped"] == dropped


# -- bookkeeping --------------------------------------------------------------


def test_dimension_bookkeeping_basic_identities():
    su2 = free_su2_ring(2, 10)
    o3 = free_su2_ring(3, 10)
    # 2*2 = 1 + 3 and 3*3 = 1 + 8 as decompositions of a1 (x) a1
    assert su2.dim_exact("a1") ** 2 == su2.dim_exact("a0") + su2.dim_exact("a2")
    assert o3.dim_exact("a1") ** 2 == o3.dim_exact("a0") + o3.dim_exact("a2")
    for ring in (su2, o3):
        for kappa in ring.labels:
            assert dim_bookkeeping_check(ring, kappa, list(ring.labels))
            assert dim_bookkeeping_check(ring, kappa, ["a1"])


def test_bookkeeping_exact_on_huge_integers():
    ring = free_su2_ring(3, 400)
    assert dim_bookkeeping_check(ring, "a399", ["a398", "a400"])


def test_bookkeeping_float_ring_and_overflow():
    golden = load_ring(parse_descriptor(golden_descriptor()))
    assert dim_bookkeeping_check(golden, "t", ["e", "t"])
    deep = free_su2_ring(2.5, 1200)
    with pytest.raises(InputError):
        dim_bookkeeping_check(deep, "a1100", ["a1100"])


def test_bookkeeping_rejects_empty_window():
    with pytest.raises(InputError):
        dim_bookkeeping_check(free_su2_ring(2, 5), "a1", [])


# -- coamenability ------------------------------------------------------------


def test_coamenability_certifies_classical_ring():
    verdict = coamenability_test(free_su2_ring(2, 99), ["a1"], trunc=100, tol=5e-2)
    assert verdict.certified
    assert verdict.target == 2.0
    assert verdict.best_residual <= 2.0 - 2.0 * math.cos(math.pi / 101) + 1e-9
    assert verdict.notes["truncation_size"] == 100
    assert "level-ball-50" in verdict.notes["witness_ids"]


def test_coamenability_reports_gap_for_free_ring():
    verdict = coamenability_test(free_su2_ring(3, 99), ["a1"], trunc=100, tol=1e-2)
    assert not verdict.certified
    assert verdict.target == 3.0
    assert 0.99 < verdict.gap_hint < 1.01


def test_coamenability_input_checks():
    ring = free_su2_ring(2, 30)
    with pytest.raises(InputError):
        coamenability_test(ring, ["a1"], trunc=0)
    cyc = load_ring(parse_descriptor(cyclic3_descriptor()))
    with pytest.raises(InputError):
        coamenability_test(cyc, ["g"], trunc=2000)
    # the cyclic group of order 10: g1 and g9 are dual, so {g1} is not closed
    labels = ["e"] + [f"g{i}" for i in range(1, 10)]
    cyc10 = load_ring(parse_descriptor({
        "kind": "table", "labels": labels, "dims": [1] * 10,
        "conj": [labels[-i % 10] for i in range(10)],
        "fusion": [[[int(k == (i + j) % 10) for k in range(10)] for j in range(10)]
                   for i in range(10)]}))
    with pytest.raises(InputError, match="closed under conjugation"):
        coamenability_test(cyc10, ["g1"], trunc=10)
    assert coamenability_test(cyc10, ["g1", "g9"], trunc=10).target == 2.0


# -- descriptors and validation -----------------------------------------------


def test_parse_rejects_malformed_descriptors():
    with pytest.raises(InputError):
        parse_descriptor([1, 2])
    with pytest.raises(InputError):
        parse_descriptor({"kind": "mystery"})
    with pytest.raises(InputError):
        parse_descriptor(cyclic3_descriptor(extra_field=1))
    bad = cyclic3_descriptor()
    del bad["conj"]
    with pytest.raises(InputError):
        parse_descriptor(bad)
    with pytest.raises(InputError):
        parse_descriptor(cyclic3_descriptor(labels=["e", "g", "g"]))
    with pytest.raises(InputError):
        parse_descriptor(cyclic3_descriptor(dims=[1, 1]))
    with pytest.raises(InputError):
        parse_descriptor(cyclic3_descriptor(conj=["e", "g", "q"]))
    fus = cyclic3_descriptor()["fusion"]
    fus[1][1][1] = -2
    with pytest.raises(InputError):
        parse_descriptor(cyclic3_descriptor(fusion=fus))
    with pytest.raises(InputError):
        parse_descriptor({"kind": "rule", "rule": "free-su2", "N": 1.5, "level": 4})
    for N in (math.nan, math.inf, 10 ** 400):
        with pytest.raises(InputError):
            parse_descriptor({"kind": "rule", "rule": "free-su2", "N": N, "level": 4})
    with pytest.raises(InputError):
        parse_descriptor({"kind": "rule", "rule": "free-su2", "N": 2, "level": -1})
    with pytest.raises(InputError):
        parse_descriptor({"kind": "rule", "rule": "other", "N": 2, "level": 4})


def test_descriptor_roundtrip():
    desc = parse_descriptor(cyclic3_descriptor())
    again = parse_descriptor(desc.to_dict())
    assert again.to_dict() == desc.to_dict()
    rule = parse_descriptor({"kind": "rule", "rule": "free-su2", "N": 3, "level": 7})
    assert rule.to_dict()["level"] == 7


def test_load_descriptor_file(tmp_path):
    p = tmp_path / "ring.json"
    p.write_text(json.dumps(cyclic3_descriptor()))
    ring = load_ring(load_descriptor_file(str(p)))
    assert ring.size == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(InputError):
        load_descriptor_file(str(bad))
    with pytest.raises(InputError):
        load_descriptor_file(str(tmp_path / "missing.json"))


def test_validate_all_axioms_pass():
    for obj in (cyclic3_descriptor(), golden_descriptor()):
        rows = validate_descriptor(parse_descriptor(obj))
        assert all(r["passed"] for r in rows)
        assert {r["axiom"] for r in rows} == {
            "unit element", "dimension positivity", "conjugation involution",
            "dimension homomorphism", "frobenius reciprocity", "associativity"}


def test_validate_flags_broken_conjugation():
    rows = validate_descriptor(parse_descriptor(
        cyclic3_descriptor(conj=["e", "g", "g"])))
    failed = [r["axiom"] for r in rows if not r["passed"]]
    # a non-involutive conj also breaks duality symmetry downstream; the
    # first reported failure is the conjugation axiom itself
    assert failed[0] == "conjugation involution"
    with pytest.raises(ValidationError) as err:
        load_ring(parse_descriptor(cyclic3_descriptor(conj=["e", "g", "g"])))
    assert err.value.axiom == "conjugation involution"


def test_validate_flags_dimension_mismatch():
    rows = validate_descriptor(parse_descriptor(
        cyclic3_descriptor(dims=[1, 2, 2])))
    failed = [r["axiom"] for r in rows if not r["passed"]]
    assert failed == ["dimension homomorphism"]


def test_validate_flags_broken_reciprocity():
    # every label its own dual: g (x) g contains h, but g (x) h does not contain g
    rows = validate_descriptor(parse_descriptor(cyclic3_descriptor(conj=["e", "g", "h"])))
    assert [r["axiom"] for r in rows if not r["passed"]] == ["frobenius reciprocity"]


def test_load_ring_refuses_broken_reciprocity():
    # fusion_operator builds on this: its dual route is reciprocity itself
    with pytest.raises(ValidationError) as err:
        load_ring(parse_descriptor(cyclic3_descriptor(conj=["e", "g", "h"])))
    assert err.value.axiom == "frobenius reciprocity"


def test_validate_flags_missing_unit():
    rows = validate_descriptor(parse_descriptor(
        {"kind": "table", "labels": ["x"], "dims": [1], "conj": ["x"],
         "fusion": [[[0]]]}))
    assert rows[0] == {"axiom": "unit element", "passed": False,
                       "detail": "no label acts as a two-sided unit"}


def test_validate_rule_descriptor_reports_fixed_rows():
    names = ["dimension positivity", "unit element", "conjugation involution",
             "dimension homomorphism", "frobenius reciprocity", "associativity"]
    for N, level in ((2, 0), (2.5, 40), (3, 2000), (50, 7)):
        rows = validate_descriptor(parse_descriptor(
            {"kind": "rule", "rule": "free-su2", "N": N, "level": level}))
        assert [r["axiom"] for r in rows] == names
        assert all(r["passed"] and r["detail"] for r in rows)


def test_validate_large_rule_ring_probes_quickly():
    rows = validate_descriptor(parse_descriptor(
        {"kind": "rule", "rule": "free-su2", "N": 2, "level": 500}))
    assert all(r["passed"] for r in rows)


# -- property tests -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 30), st.integers(0, 30))
def test_rule_decomposition_matches_direct_statement(i, j):
    ring = free_su2_ring(2, 60)
    got = dict(ring.decompose_indices(i, j, clip=False))
    want = {k: 1 for k in range(61) if rule_mult(i, j, k)}
    want.update({k: 1 for k in range(abs(i - j), i + j + 1, 2) if k > 60})
    assert got == want


def rule_product(*factors):
    """Multiplicities of a product of labels under the unclipped rule_mult."""
    out = {factors[0]: 1}
    for f in factors[1:]:
        nxt = {}
        for p, m in out.items():
            for k in range(abs(p - f), p + f + 1):
                if rule_mult(p, f, k):
                    nxt[k] = nxt.get(k, 0) + m
        out = nxt
    return out


def unclipped_product(ring, left, right):
    """Multiplicities of (sum of left) (x) (sum of right) via decompose_indices."""
    out = {}
    for i, mi in left.items():
        for j, mj in right.items():
            for k, m in ring.decompose_indices(i, j, clip=False):
                out[k] = out.get(k, 0) + mi * mj * m
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30))
def test_rule_is_associative(i, j, k):
    ring = free_su2_ring(3, 10)
    left = unclipped_product(ring, unclipped_product(ring, {i: 1}, {j: 1}), {k: 1})
    right = unclipped_product(ring, {i: 1}, unclipped_product(ring, {j: 1}, {k: 1}))
    assert left == right == rule_product(i, j, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30))
def test_rule_unit_and_frobenius_reciprocity(i, j, k):
    ring = free_su2_ring(2, 10)
    assert ring.decompose_indices(0, j, clip=False) == [(j, 1)]
    mult = dict(ring.decompose_indices(i, j, clip=False)).get(k, 0)
    dual = dict(ring.decompose_indices(i, k, clip=False)).get(j, 0)
    assert mult == dual == rule_mult(i, j, k)


@pytest.mark.parametrize("N", [2, 3, 2.5, 7.3])
def test_rule_dimension_homomorphism_and_positivity(N):
    ring = free_su2_ring(N, 60)
    for i in range(31):
        assert ring.dim_exact(f"a{i}") >= i + 1
        for j in range(31):
            lhs = ring.dim_exact(f"a{i}") * ring.dim_exact(f"a{j}")
            rhs = sum(ring.dim_exact(f"a{k}") for k in range(61) if rule_mult(i, j, k))
            if ring.integral_dims:
                assert lhs == rhs
            else:
                assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12))
def test_decomposition_is_commutative(i, j):
    ring = free_su2_ring(3, 40)
    assert ring.decompose(f"a{i}", f"a{j}") == ring.decompose(f"a{j}", f"a{i}")


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 8), st.integers(10, 40))
def test_operator_column_fill_bounded_by_label_index(k, trunc):
    ring = free_su2_ring(2, 60)
    op = fusion_operator(ring, f"a{k}", trunc)
    fill = np.diff(op.matrix.tocsc().indptr)
    assert fill.max() <= k + 1


_RINGS = {N: free_su2_ring(N, 30) for N in (2, 3, 2.5)}
_RINGS["table"] = load_ring(parse_descriptor(cyclic3_descriptor()))
_TABLE_WINDOWS = (["e"], ["g", "h"], ["e", "g", "h"])   # the conjugation-closed ones


@st.composite
def _window_and_sizes(draw):
    key = draw(st.sampled_from(sorted(_RINGS, key=str)))
    ring = _RINGS[key]
    if key == "table":
        omega = draw(st.sampled_from(_TABLE_WINDOWS))
    else:       # every rule label is self-conjugate
        omega = draw(st.lists(st.sampled_from(ring.labels), min_size=1, max_size=3,
                              unique=True))
    m = draw(st.integers(1, ring.size))
    return ring, omega, m, draw(st.integers(1, m))


@settings(max_examples=60, deadline=None)
@given(_window_and_sizes())
def test_window_operator_leading_block_is_a_fresh_build(case):
    # sweep solves leading blocks of one build: each must be the smaller build
    ring, omega, m, n = case
    block = window_operator(ring, omega, m).leading_block(n)
    fresh = window_operator(ring, omega, n)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(block.matrix, name), getattr(fresh.matrix, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert block.n == fresh.n == n
    assert block.symmetric == fresh.symmetric
