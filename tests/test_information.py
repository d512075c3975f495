"""Entropy, mutual information, divergences, and k-tree distributions."""

import itertools
import math
import warnings

import numpy as np
import pytest

from ktspan import (
    KTree,
    MutualInformationOracle,
    UndirectedGraph,
    build_tree_decomposition,
    chow_liu,
    entropy,
    kl_divergence,
    markov_ktree_distribution,
    materialize_scores,
    mutual_information,
    reroot,
    sample_markov_ktree,
    tables_to_joint,
    total_correlation,
)
from ktspan import information
from ktspan.errors import InstanceTooLargeError
from ktspan.generate import (
    gen_instance,
    random_conditionals,
    random_explicit_scores,
    random_joint_table,
    random_ktree,
)
from ktspan.graphs import iter_cliques
from ktspan.information import (
    ConditionalTable,
    ExplicitScoreOracle,
    JointTable,
    SampleMatrix,
    WeightProductOracle,
)

FAIR = JointTable((0,), np.array([0.5, 0.5]))


def xor_triple():
    # X0 = X1 xor X2 with X1, X2 independent fair coins
    t = np.zeros((2, 2, 2))
    for y in (0, 1):
        for z in (0, 1):
            t[y ^ z, y, z] = 0.25
    return JointTable((0, 1, 2), t)


def test_sample_matrix_validation():
    s = SampleMatrix([[0, 1], [1, 0], [0, 0]])
    assert s.m == 3 and s.n == 2
    assert s.alphabet_sizes == (2, 2)
    # constant column still gets a binary alphabet
    assert SampleMatrix([[0, 5]]).alphabet_sizes == (2, 6)
    with pytest.raises(ValueError):
        SampleMatrix([[0, -1]])
    with pytest.raises(ValueError):
        SampleMatrix(np.zeros((0, 2), dtype=int))
    with pytest.raises(ValueError):
        SampleMatrix([[0, 3]], alphabet_sizes=(2, 2))


def test_sample_matrix_refuses_non_integral_values():
    for data in ([[1.7, 0.2], [0, 1]], np.array([[0.0, np.nan]]),
                 np.array([[np.inf, 1.0]])):
        with pytest.raises(ValueError, match="non-integral symbol"):
            SampleMatrix(data)
    # integral floats and int arrays keep working
    ints = SampleMatrix(np.array([[1, 0], [0, 2]]))
    floats = SampleMatrix([[1.0, 0.0], [0.0, 2.0]])
    assert floats.data.dtype == np.int64
    assert np.array_equal(floats.data, ints.data)
    assert floats.alphabet_sizes == ints.alphabet_sizes == (2, 3)


@pytest.mark.parametrize("order", ["C", "F"])
def test_sample_matrix_data_is_a_read_only_column_major_copy(order):
    own = np.array([[0, 1], [1, 0], [0, 2]], dtype=np.int64, order=order)
    s = SampleMatrix(own)
    assert s.data.flags.f_contiguous
    with pytest.raises(ValueError):
        s.data[0, 0] = 1
    # the caller's array stays writable, and writing to it leaves s alone
    own[0, 0] = 5
    assert s.data[0, 0] == 0 and s.alphabet_sizes == (2, 3)


def test_sampler_output_is_read_only_and_column_major():
    rng = np.random.default_rng(3)
    t = random_ktree(5, 2, rng)
    s = sample_markov_ktree(t, random_conditionals(t, (2, 3, 2, 4, 2), rng), 50, seed=1)
    assert s.data.flags.f_contiguous and not s.data.flags.writeable
    assert SampleMatrix(s.data).data is s.data


def old_marginal(s, vs):
    """The marginal kernel as np.ravel_multi_index computed it, on a
    row-major copy of the samples."""
    data = np.ascontiguousarray(s.data)
    sizes = tuple(s.alphabet_sizes[v] for v in vs)
    flat = np.ravel_multi_index([data[:, v] for v in vs], sizes)
    return (np.bincount(flat, minlength=math.prod(sizes)) / s.m).reshape(sizes)


def test_marginal_kernel_matches_ravel_multi_index():
    # 320 seeded matrices: m 1..500, alphabets 2..7 with constant
    # columns, 1-4 variables in unsorted order; counts and entropy bits
    # must be exactly those of the ravel_multi_index kernel
    rng = np.random.default_rng(2024)
    for trial in range(320):
        m = int(rng.integers(1, 501))
        n = int(rng.integers(4, 8))
        sizes = rng.integers(2, 8, size=n)
        data = rng.integers(0, sizes, size=(m, n))
        for j in rng.choice(n, size=int(rng.integers(0, 3)), replace=False):
            data[:, j] = rng.integers(0, sizes[j])
        s = SampleMatrix(data, sizes if trial % 2 else None)
        for _ in range(3):
            vs = tuple(int(v) for v in rng.choice(n, size=int(rng.integers(1, 5)),
                                                  replace=False))
            got = information._marginal_array(s, vs)
            want = old_marginal(s, vs)
            assert got.shape == want.shape and np.array_equal(got, want)
            nz = want.ravel()[want.ravel() > 0]
            assert entropy(s, vs) == float(-(nz * np.log2(nz)).sum())


@pytest.mark.parametrize("m", [1, 63, 64, 65, 1000, 20000])
def test_bitset_and_bincount_marginals_match_ravel_multi_index(m):
    # counts come from row bitsets when cells * ceil(m/64) <= m and from
    # cell codes otherwise; both must equal the ravel_multi_index
    # counts exactly, on samples the sampler hands over uncopied
    rng = np.random.default_rng(m)
    sizes = (2, 3, 4, 4, 4, 5, 6, 2)
    t = random_ktree(len(sizes), 2, rng)
    s = sample_markov_ktree(t, random_conditionals(t, sizes, rng), m, seed=m)
    words = -(-m // 64)
    picks = [tuple(int(v) for v in rng.permutation(len(sizes))[:size])
             for size in (1, 2, 3) for _ in range(15)]
    if m == 64:
        picks.append((4, 2, 3))  # 64 cells: exactly at the rule
    sides = set()
    for vs in picks:
        fresh = SampleMatrix(s.data, s.alphabet_sizes)
        assert fresh.data is s.data
        got = information._marginal_array(fresh, vs)
        want = old_marginal(fresh, vs)
        assert got.shape == want.shape and np.array_equal(got, want)
        cost = math.prod(sizes[v] for v in vs) * words
        sides.add((cost > m) - (cost < m))
        built = [fresh._bits[v] is not None for v in range(len(sizes))]
        assert built == [cost <= m and v in vs for v in range(len(sizes))]
    assert 1 in sides and (-1 in sides or m == 1)
    assert 0 in sides or m != 64


def test_wide_alphabets_take_the_bincount_path():
    rng = np.random.default_rng(7)
    s = SampleMatrix(rng.integers(0, 300, size=(20000, 2)), (300, 300))
    got = information._marginal_array(s, (1, 0))
    assert np.array_equal(got, old_marginal(s, (1, 0)))
    assert s._bits == [None, None]


def test_bitsets_are_built_only_for_alphabets_up_to_8():
    # 9 and 18 cells pass the cell rule at m = 20,000, but a 9-symbol
    # variable's bitsets would cost nine column passes for few reuses
    rng = np.random.default_rng(8)
    data = np.column_stack([rng.integers(0, a, 20000) for a in (9, 2, 8)])
    s = SampleMatrix(data, (9, 2, 8))
    for vs in ((0,), (1, 0), (2,), (2, 1)):
        got = information._marginal_array(s, vs)
        assert np.array_equal(got, old_marginal(s, vs))
    assert [b is not None for b in s._bits] == [False, True, True]


@pytest.mark.parametrize("row, vs, cells", [
    ([1_000_000, 1_000_000, 0], (1, 0), 1_000_002_000_001),
    ([1_000_000, 1_000_000, 1_000_000], (0, 1, 2), 1_000_003_000_003_000_001),
    ([99, 99, 200], (2, 0, 1), 2_010_000),
])
def test_oversized_sample_marginal_is_refused(row, vs, cells):
    s = SampleMatrix([row])
    with pytest.raises(InstanceTooLargeError) as err:
        information._marginal_array(s, vs)
    assert str(err.value) == (
        f"marginal over variables {vs} would need {cells} cells "
        f"(limit {information.MAX_TABLE_CELLS})")
    # a single variable fits under the cap
    assert information._marginal_array(s, (0,)).shape == (row[0] + 1,)


def test_joint_table_validation():
    with pytest.raises(ValueError):
        JointTable((0,), np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        JointTable((0,), np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        JointTable((0, 0), np.full((2, 2), 0.25))


def test_joint_table_needs_a_variable():
    # a table over no variables would be written with the key "", which
    # no reader accepts as an assignment
    with pytest.raises(ValueError, match="at least one variable"):
        JointTable((), np.asarray(1.0))


@pytest.mark.parametrize("cells", [
    [np.nan, 1.0], [1.0, np.nan], [np.inf, 0.0], [[0.5, np.nan], [0.25, 0.25]],
], ids=["nan-first", "nan-last", "inf", "nan-2d"])
def test_joint_table_refuses_non_finite_cells(cells):
    # NaN compares false against both the minimum and the sum check
    variables = (0, 1) if np.ndim(cells) == 2 else (0,)
    with pytest.raises(ValueError, match="non-finite probability"):
        JointTable(variables, cells)


def test_entropy_examples():
    assert entropy(FAIR, (0,)) == pytest.approx(1.0)
    assert entropy(JointTable((0,), np.array([1.0, 0.0])), (0,)) == 0.0
    two = JointTable((0, 1), np.full((2, 2), 0.25))
    assert entropy(two, (0, 1)) == pytest.approx(2.0)
    assert entropy(two, ()) == 0.0
    # empirical source agrees with its exact table
    s = SampleMatrix([[0], [1], [0], [1]])
    assert entropy(s, (0,)) == pytest.approx(1.0)


def test_mutual_information_examples():
    indep = JointTable((0, 1), np.full((2, 2), 0.25))
    assert mutual_information(indep, 0, (1,)) == 0.0
    copy = JointTable((0, 1), np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert mutual_information(copy, 0, (1,)) == pytest.approx(1.0)
    xor = xor_triple()
    assert mutual_information(xor, 0, (1,)) == pytest.approx(0.0, abs=1e-12)
    assert mutual_information(xor, 0, (1, 2)) == pytest.approx(1.0)


def test_mutual_information_contract():
    assert mutual_information(FAIR, 0, ()) == 0.0
    with pytest.raises(ValueError):
        mutual_information(xor_triple(), 1, (1, 2))
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = random_joint_table((2, 2, 3), rng)
        val = mutual_information(p, 0, (1, 2))
        assert val >= 0.0
        # direct definitional sum over the pair (x, ys-block) marginal
        joint = p.table
        px = joint.sum(axis=(1, 2))
        pys = joint.sum(axis=0)
        direct = 0.0
        for i in range(2):
            for j in range(2):
                for l in range(3):
                    pv = joint[i, j, l]
                    if pv > 0:
                        direct += pv * math.log2(pv / (px[i] * pys[j, l]))
        assert val == pytest.approx(direct, abs=1e-9)


def test_total_correlation_examples():
    indep = JointTable((0, 1), np.full((2, 2), 0.25))
    assert total_correlation(indep, (0, 1)) == 0.0
    t = np.zeros((2, 2, 2))
    t[0, 0, 0] = t[1, 1, 1] = 0.5
    assert total_correlation(JointTable((0, 1, 2), t), (0, 1, 2)) == pytest.approx(2.0)


def test_total_correlation_equals_any_nesting_order():
    rng = np.random.default_rng(12)
    for _ in range(10):
        p = random_joint_table((2, 3, 2), rng)
        tc = total_correlation(p, (0, 1, 2))
        for order in itertools.permutations((0, 1, 2)):
            chained = sum(mutual_information(p, v, order[:j])
                          for j, v in enumerate(order))
            assert chained == pytest.approx(tc, abs=1e-9)


def test_kl_divergence_examples():
    assert kl_divergence(FAIR, FAIR) == 0.0
    skew = JointTable((0,), np.array([0.75, 0.25]))
    assert kl_divergence(skew, FAIR) == pytest.approx(0.75 * math.log2(3) - 1)
    assert kl_divergence(FAIR, skew) == pytest.approx(1 - 0.5 * math.log2(3))
    point = JointTable((0,), np.array([1.0, 0.0]))
    assert kl_divergence(FAIR, point) == float("inf")
    # p puts no mass where q is zero: finite
    assert kl_divergence(point, FAIR) == pytest.approx(1.0)


def test_kl_divergence_gibbs():
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = random_joint_table((2, 2, 2), rng)
        q = random_joint_table((2, 2, 2), rng)
        assert kl_divergence(p, q) >= 0.0
        assert kl_divergence(p, p) == 0.0
        if not np.allclose(p.table, q.table):
            assert kl_divergence(p, q) > 0.0


def test_kl_divergence_variable_alignment():
    p = JointTable((0, 1), np.array([[0.4, 0.1], [0.2, 0.3]]))
    q = JointTable((1, 0), p.table.T)
    assert kl_divergence(p, q) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        kl_divergence(p, FAIR)


def test_markov_distribution_sums_to_one():
    rng = np.random.default_rng(14)
    for _ in range(15):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k + 1, 7))
        t = random_ktree(n, k, rng)
        p = random_joint_table((2,) * n, rng)
        pg = markov_ktree_distribution(t, p)
        assert float(pg.table.sum()) == pytest.approx(1.0, abs=1e-9)


def test_markov_distribution_single_clique_is_exact():
    rng = np.random.default_rng(15)
    t = random_ktree(3, 2, rng)
    p = random_joint_table((2, 2, 2), rng)
    pg = markov_ktree_distribution(t, p)
    assert np.allclose(pg.table, p.table, atol=1e-12)


def test_markov_distribution_product_input():
    rng = np.random.default_rng(16)
    marg = [rng.dirichlet([1, 1]) for _ in range(5)]
    prod = np.ones((2,) * 5)
    for v, m in enumerate(marg):
        shape = [1] * 5
        shape[v] = 2
        prod = prod * m.reshape(shape)
    p = JointTable(tuple(range(5)), prod)
    for _ in range(5):
        t = random_ktree(5, 2, rng)
        pg = markov_ktree_distribution(t, p)
        assert np.allclose(pg.table, p.table, atol=1e-9)


def test_markov_distribution_zero_context_falls_back():
    # context (x1=1) never occurs; the conditional row falls back to
    # the marginal of the pivot and the result stays a distribution
    s = SampleMatrix([[0, 0, 0], [1, 0, 1], [0, 0, 1], [1, 0, 0]])
    t = KTree.from_creation_order(3, 1, [(1, ()), (0, (1,)), (2, (1,))])
    pg = markov_ktree_distribution(t, s)
    assert float(pg.table.sum()) == pytest.approx(1.0, abs=1e-9)
    assert pg.table.min() >= 0


def reference_projection(t, source):
    """markov_ktree_distribution as it read when every vertex computed
    its fallback marginal, empty contexts or not."""
    tables = {}
    for v, base in t.creation_order:
        scope = tuple(sorted(base + (v,)))
        joint = np.moveaxis(information._marginal_array(source, scope), scope.index(v), -1)
        ctx = joint.sum(axis=-1, keepdims=True)
        cond = np.where(ctx > 0, joint / np.where(ctx > 0, ctx, 1.0),
                        information._marginal_array(source, (v,)))
        tables[v] = ConditionalTable(v, base, cond)
    return tables_to_joint(t, tables)


def test_projection_computes_fallback_marginals_only_for_empty_contexts(monkeypatch):
    rng = np.random.default_rng(29)
    calls = []
    kernel = information._marginal_array
    monkeypatch.setattr(information, "_marginal_array",
                        lambda source, vs: calls.append(vs) or kernel(source, vs))
    fallbacks = 0
    for seed in range(12):
        t = random_ktree(6, 1 + seed % 3, rng)
        sizes = tuple(int(a) for a in rng.integers(2, 4, size=6))
        dense = random_joint_table(sizes, rng)
        sparse = SampleMatrix(rng.integers(0, 3, size=(int(rng.integers(5, 40)), 6)))
        for source in (dense, sparse):
            want = reference_projection(t, source).table
            calls.clear()
            got = markov_ktree_distribution(t, source).table
            assert got.tobytes() == want.tobytes(), seed
            fallbacks += len(calls) - 6
        # Dirichlet cells are positive, so no context of the table is
        # empty: one marginal per vertex
        calls.clear()
        markov_ktree_distribution(t, dense)
        assert len(calls) == 6, seed
    assert fallbacks > 0


def test_markov_distribution_guard():
    order = [(0, ()), (1, (0,))] + [(v, (v - 1,)) for v in range(2, 25)]
    t = KTree.from_creation_order(25, 1, order)
    p = SampleMatrix(np.zeros((4, 25), dtype=int))
    with pytest.raises(InstanceTooLargeError):
        markov_ktree_distribution(t, p)


def test_precursor_invariance():
    """Same edge set, different creation orders: identical projection
    and identical objective value."""
    rng = np.random.default_rng(17)
    for _ in range(12):
        k = int(rng.integers(1, 3))
        n = int(rng.integers(k + 2, 7))
        t = random_ktree(n, k, rng)
        p = random_joint_table((2,) * n, rng)
        nodes = build_tree_decomposition(t).nodes
        ref_table = None
        ref_obj = None
        for node in nodes:
            r = reroot(t, node)
            pg = markov_ktree_distribution(r, p)
            dec = build_tree_decomposition(r)
            obj = total_correlation(p, dec.root)
            for c in dec.nodes[1:]:
                w = dec.pivot[c]
                obj += mutual_information(p, w, tuple(x for x in c if x != w))
            if ref_table is None:
                ref_table, ref_obj = pg.table, obj
            else:
                assert np.allclose(pg.table, ref_table, atol=1e-9)
                assert obj == pytest.approx(ref_obj, abs=1e-9)


def test_mi_oracle_forbidden_on_non_cliques():
    rng = np.random.default_rng(18)
    p = random_joint_table((2, 2, 2, 2), rng)
    full = MutualInformationOracle(p, UndirectedGraph.complete(4))
    assert full.score(0, (1, 2)) is not None
    assert full.root_score((1, 2, 3)) is not None
    # a repeated vertex, or one past the host, is no clique
    assert full.score(1, (1, 2)) is None
    assert full.root_score((1, 1, 2)) is None
    assert full.score(7, (1, 2)) is None
    assert full.root_score((1, 2, 4)) is None
    assert full.score(5, (4, 6)) is None
    holed = UndirectedGraph(4, [e for e in
                                UndirectedGraph.complete(4).edges
                                if e != (0, 1)])
    oracle = MutualInformationOracle(p, holed)
    assert oracle.score(0, (1, 2)) is None
    assert oracle.score(3, (1, 2)) is not None
    assert oracle.root_score((0, 1, 2)) is None
    assert oracle.root_score((1, 2, 3)) is not None
    with pytest.raises(ValueError, match="must cover variables 0..4"):
        MutualInformationOracle(p, UndirectedGraph.complete(5))


def test_mi_oracle_values_and_asymmetry():
    rng = np.random.default_rng(5)
    p = random_joint_table((2, 2, 2, 2), rng)
    oracle = MutualInformationOracle(p, UndirectedGraph.complete(4))
    a = oracle.score(0, (1, 2))
    assert a == pytest.approx(mutual_information(p, 0, (1, 2)), abs=1e-12)
    assert oracle.root_score((0, 1, 2)) == pytest.approx(
        total_correlation(p, (0, 1, 2)), abs=1e-12)
    # the pivot matters: same clique, different attachment vertex
    b = oracle.score(1, (0, 2))
    assert abs(a - b) > 1e-6


def count_entropy_calls(monkeypatch):
    """Route the entropy kernel through a recorder of its subsets."""
    calls = []
    kernel = information.entropy

    def counted(source, variables):
        calls.append(tuple(variables))
        return kernel(source, variables)

    monkeypatch.setattr(information, "entropy", counted)
    return calls


def test_mi_oracle_computes_each_subset_entropy_once(monkeypatch):
    rng = np.random.default_rng(24)
    samples = SampleMatrix(rng.integers(0, 3, size=(400, 7)))
    g = UndirectedGraph.complete(7)
    calls = count_entropy_calls(monkeypatch)
    materialize_scores(MutualInformationOracle(samples, g), g, 2)
    # every single, pair and triple of the 35 triangles, once each
    assert len(calls) == 7 + 21 + 35
    assert sorted(calls) == sorted(
        c for s in (1, 2, 3) for c in itertools.combinations(range(7), s))


def test_chow_liu_estimates_each_variable_and_pair_once(monkeypatch):
    n = 8
    rng = np.random.default_rng(27)
    samples = SampleMatrix(rng.integers(0, 3, size=(500, n)))
    calls = count_entropy_calls(monkeypatch)
    chow_liu(samples)
    assert len(calls) <= n + n * (n - 1) // 2
    assert len(set(calls)) == len(calls)


def test_mi_oracle_matches_the_public_functions_exactly():
    rng = np.random.default_rng(25)
    sources = [random_joint_table((3, 2, 4, 3, 2), rng),
               SampleMatrix(rng.integers(0, 4, size=(300, 5)))]
    for src in sources:
        oracle = MutualInformationOracle(src, UndirectedGraph.complete(5))
        for c in itertools.combinations(range(5), 3):
            for w in c:
                base = tuple(x for x in c if x != w)
                for b in (base, base[::-1]):
                    assert oracle.score(w, b) == mutual_information(src, w, b)
            for order in (c, c[::-1]):
                assert oracle.root_score(order) == total_correlation(src, c)


def test_mutual_information_ignores_the_order_of_ys():
    rng = np.random.default_rng(26)
    sources = [random_joint_table((3, 4, 2, 3, 4), rng),
               SampleMatrix(rng.integers(0, 5, size=(500, 5)))]
    for src in sources:
        for x in range(5):
            ys = tuple(v for v in range(5) if v != x)
            values = {mutual_information(src, x, p)
                      for p in itertools.permutations(ys)}
            assert len(values) == 1


@pytest.mark.parametrize("labels", [(-1, 5), (10**6, 5), (7, -3, 10**6)])
def test_public_scores_on_any_labels_match_rounded_entropies(labels):
    # the memo's bits come from source positions: keyed by label bits,
    # -1 would be a negative shift and 10**6 a million-bit mask
    rng = np.random.default_rng(len(labels))
    p = JointTable(labels, random_joint_table((2, 3, 2)[:len(labels)], rng).table)

    def h(vs):
        return round(entropy(p, tuple(sorted(vs))) * 2.0 ** 36) / 2.0 ** 36

    for x in labels:
        ys = tuple(v for v in labels if v != x)
        want = max(h((x,)) + h(ys) - h((x,) + ys), 0.0)
        assert mutual_information(p, x, ys) == want
        assert mutual_information(p, x, ys[::-1]) == want
    want = max(sum(h((v,)) for v in sorted(labels)) - h(labels), 0.0)
    assert total_correlation(p, labels) == want
    assert total_correlation(p, labels[::-1]) == want
    with pytest.raises(ValueError, match="variable 4 not in table"):
        mutual_information(p, labels[0], (4,))
    with pytest.raises(ValueError, match="repeated variable"):
        total_correlation(p, (labels[0], labels[0]))


@pytest.mark.parametrize("kind", ["joint", "samples"])
def test_public_scores_check_their_variables(kind):
    rng = np.random.default_rng(27)
    if kind == "joint":
        src = random_joint_table((2, 3, 2, 2), rng)
        unknown = "variable 7 not in table"
    else:
        src = SampleMatrix(rng.integers(0, 3, size=(200, 4)))
        unknown = "variable 7 out of range"
    with pytest.raises(ValueError, match="variable 1 on both sides"):
        mutual_information(src, 1, (0, 1))
    # the both-sides check comes before the empty-ys and unknown-variable cases
    with pytest.raises(ValueError, match="variable 7 on both sides"):
        mutual_information(src, 7, (7,))
    for x, ys in ((7, (0,)), (0, (1, 7)), (7, ())):
        with pytest.raises(ValueError, match=unknown):
            mutual_information(src, x, ys)
    with pytest.raises(ValueError, match="repeated variable"):
        mutual_information(src, 0, (2, 2))
    with pytest.raises(ValueError, match=unknown):
        total_correlation(src, (0, 7))
    with pytest.raises(ValueError, match="repeated variable"):
        total_correlation(src, (1, 3, 1))
    for x in range(4):
        assert mutual_information(src, x, ()) == 0.0
        assert mutual_information(src, x, iter(())) == 0.0
        assert total_correlation(src, (x,)) == 0.0
    assert total_correlation(src, ()) == 0.0
    assert total_correlation(src, iter((0, 1, 2))) == total_correlation(src, (0, 1, 2))


# chow_liu's trees on seeded sources, pinned when its pair scores came
# from a label-keyed copy of the mutual-information formula; the
# independent columns have every pair score near zero
CHOW_LIU_TREES = [
    (lambda: gen_instance(8, 2, 3, 400, 1)["samples"],
     ((0, ()), (2, (0,)), (4, (0,)), (6, (0,)), (7, (0,)), (1, (4,)), (3, (4,)),
      (5, (3,)))),
    (lambda: gen_instance(8, 2, 3, 400, 2)["samples"],
     ((0, ()), (1, (0,)), (3, (0,)), (2, (1,)), (7, (1,)), (4, (3,)), (6, (3,)),
      (5, (7,)))),
    (lambda: gen_instance(8, 2, 3, 400, 3)["samples"],
     ((0, ()), (1, (0,)), (3, (0,)), (4, (0,)), (2, (1,)), (5, (1,)), (6, (2,)),
      (7, (5,)))),
    (lambda: SampleMatrix(np.random.default_rng(4).integers(0, 3, size=(200, 6))),
     ((0, ()), (5, (0,)), (2, (5,)), (1, (2,)), (3, (1,)), (4, (3,)))),
    (lambda: JointTable((3, 1, 0, 4, 2), random_joint_table(
        (2, 3, 2, 2, 3), np.random.default_rng(5)).table),
     ((0, ()), (2, (0,)), (1, (2,)), (3, (1,)), (4, (1,)))),
]


@pytest.mark.parametrize("case", range(len(CHOW_LIU_TREES)))
def test_chow_liu_trees_are_pinned(case):
    make, order = CHOW_LIU_TREES[case]
    t = chow_liu(make())
    assert t.creation_order == order
    assert t.edges == {tuple(sorted((v, base[0]))) for v, base in order[1:]}


def test_explicit_oracle_lookup_and_validation():
    oracle = ExplicitScoreOracle(
        2, {(0, 1, 2): 5.0}, {(3, (1, 2)): 7.0})
    assert oracle.root_score((2, 1, 0)) == 5.0
    assert oracle.root_score((0, 1, 3)) is None
    assert oracle.score(3, (2, 1)) == 7.0
    assert oracle.score(3, (0, 1)) is None
    with pytest.raises(ValueError):
        ExplicitScoreOracle(2, {(0, 1): 1.0}, {})
    with pytest.raises(ValueError):
        ExplicitScoreOracle(2, {}, {(1, (1, 2)): 1.0})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_explicit_oracle_refuses_non_finite_scores(bad):
    with pytest.raises(ValueError, match=r"non-finite score .* for root clique \(0, 1, 2\)"):
        ExplicitScoreOracle(2, {(0, 1, 2): bad}, {})
    with pytest.raises(ValueError, match=r"non-finite score .* for pivot 3 on \[1, 2\]"):
        ExplicitScoreOracle(2, {(0, 1, 2): 1.0}, {(3, (2, 1)): bad})


def fit_tables(seed, n, k):
    """The score tables `fit` writes for a seeded gen instance."""
    inst = gen_instance(n, k, 3, 2000, seed)
    g = inst["g"]
    return materialize_scores(MutualInformationOracle(inst["samples"], g), g, k)


def uniform_tables(n, k, value):
    g = UndirectedGraph.complete(n)
    cliques = list(iter_cliques(g.adj, k + 1))
    return ExplicitScoreOracle(
        k, {c: value for c in cliques},
        {(w, tuple(x for x in c if x != w)): value for c in cliques for w in c})


@pytest.mark.parametrize("k", [1, 2, 3])
def test_explicit_oracle_detects_root_invariant_tables(k):
    fitted = fit_tables(40 + k, 8, k)
    assert fitted.root_invariant
    g = UndirectedGraph.complete(8)
    assert not random_explicit_scores(g, k, np.random.default_rng(k)).root_invariant
    # weight products are root-invariant only up to rounding: off the grid
    rng = np.random.default_rng(10 + k)
    weights = {e: float(rng.uniform(0.5, 1.5)) for e in g.edges}
    wg = UndirectedGraph(8, g.edges, weights)
    products = materialize_scores(WeightProductOracle(wg), wg, k)
    assert not products.root_invariant
    # a pivot entry left without its root entry, a root entry without
    # one of its pivot entries, and a pivot moved by one grid step
    roots = fitted.root_scores
    pivots = {(w, tuple(sorted(b))): s for (w, b), s in fitted.pivot_scores.items()}
    first = min(roots)
    key = (first[0], first[1:])
    invariant = lambda roots, pivots: ExplicitScoreOracle(k, roots, pivots).root_invariant
    assert not invariant({c: s for c, s in roots.items() if c != first}, pivots)
    assert not invariant(roots, {p: s for p, s in pivots.items() if p != key})
    assert not invariant(roots, {**pivots, key: pivots[key] + 2.0 ** -36})


class ReferenceExplicitTables:
    """The per-entry ExplicitScoreOracle constructor and root-invariance
    check that whole-array passes replaced, with bases as frozensets."""

    def __init__(self, k, root_scores, pivot_scores):
        self.k = int(k)
        self.root_scores = {}
        for c, s in root_scores.items():
            key = tuple(sorted(c))
            if len(key) != self.k + 1 or len(set(key)) != len(key):
                raise ValueError(f"root clique {key} is not a {self.k + 1}-set")
            s = float(s)
            if not math.isfinite(s):
                raise ValueError(f"non-finite score {s} for root clique {key}")
            self.root_scores[key] = s
        self.pivot_scores = {}
        for (w, b), s in pivot_scores.items():
            bset = frozenset(b)
            if len(bset) != self.k:
                raise ValueError(f"attachment set {sorted(bset)} is not a {self.k}-set")
            if w in bset:
                raise ValueError(f"pivot {w} inside its own attachment set")
            s = float(s)
            if not math.isfinite(s):
                raise ValueError(
                    f"non-finite score {s} for pivot {w} on {sorted(bset)}")
            self.pivot_scores[(int(w), bset)] = s
        self.root_invariant = self._detect_root_invariant()

    def _detect_root_invariant(self):
        roots = self.root_scores
        if len(self.pivot_scores) != (self.k + 1) * len(roots):
            return False
        offsets = {}
        for (w, bset), s in self.pivot_scores.items():
            r = roots.get(tuple(sorted(bset | {w})))
            if r is None or offsets.setdefault(bset, r - s) != r - s:
                return False
        values = (*roots.values(), *self.pivot_scores.values())
        n = len({v for c in roots for v in c})
        return (n * max(map(abs, values), default=0.0) <= information._EXACT_LIMIT
                and all((v * information._GRID).is_integer() for v in values))


def tables_outcome(build, k, roots, pivots):
    """The tables in insertion order and root_invariant that build gives,
    or its error, with bases as sorted tuples. A numpy warning fails."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tables = build(k, roots, pivots)
    except ValueError as exc:
        return str(exc)
    return (list(tables.root_scores.items()),
            [((w, tuple(sorted(b))), s) for (w, b), s in tables.pivot_scores.items()],
            tables.root_invariant)


def as_rows(k, roots, pivots):
    """The oracle built from (rows, values) pairs of the same entries."""
    return ExplicitScoreOracle(
        k, ([tuple(c) for c in roots], list(roots.values())),
        ([(w, *b) for w, b in pivots], list(pivots.values())))


def table_cases():
    """(name, k, roots, pivots) score tables, keyed as mappings."""
    for k in (1, 2, 3):
        fitted = fit_tables(40 + k, 8, k)
        roots = fitted.root_scores
        pivots = dict(fitted.pivot_scores)
        yield f"fit-k{k}", k, roots, pivots
        first = min(roots)
        key = (first[0], first[1:])
        yield f"missing-root-k{k}", k, {c: s for c, s in roots.items() if c != first}, pivots
        yield f"missing-pivot-k{k}", k, roots, {p: s for p, s in pivots.items() if p != key}
        yield f"pivot-moved-k{k}", k, roots, {**pivots, key: pivots[key] + 2.0 ** -36}
        yield f"off-grid-k{k}", k, {**roots, first: roots[first] + 2.0 ** -37}, pivots
        # the same entry again with its vertices reversed: the later wins
        yield f"respelled-same-k{k}", k, {**roots, first[::-1]: roots[first]}, pivots
        yield (f"respelled-other-k{k}", k, roots,
               {**pivots, (key[0], key[1][::-1]): pivots[key] + 1.0})
        rng = np.random.default_rng(k)
        random = random_explicit_scores(UndirectedGraph.complete(7), k, rng)
        yield f"random-k{k}", k, random.root_scores, random.pivot_scores
        for value in (2.0 ** 15, 2.0 ** 15 + 2.0 ** -36, -(2.0 ** 15) - 2.0 ** -36,
                      3 * 2.0 ** -36, 2.0 ** -37, 1e308, -1e308):
            uniform = uniform_tables(4, k, value)
            yield f"uniform-k{k}-{value}", k, uniform.root_scores, uniform.pivot_scores
    yield "empty", 2, {}, {}
    yield "repeated-root-vertex", 2, {(0, 1, 2): 1.0, (0, 0, 1): 1.0}, {}
    yield "short-root", 2, {(0, 1, 2): 1.0, (0, 1): 1.0}, {}
    yield "pivot-in-base", 2, {(0, 1, 2): 1.0}, {(0, (1, 2)): 1.0, (1, (1, 2)): 1.0}
    yield "short-base", 2, {}, {(0, (1, 2)): 1.0, (3, (1,)): 1.0}
    yield "repeated-base-vertex", 2, {}, {(3, (1, 1)): 1.0}
    yield "long-base", 1, {}, {(3, (1, 2)): 1.0}
    yield "non-finite-root", 2, {(0, 1, 2): math.nan}, {}
    yield "non-finite-pivot", 2, {}, {(3, (2, 1)): -math.inf}
    # the first bad entry is named, whichever check it fails
    yield "first-of-two", 2, {(2, 1, 0): math.inf, (0, 1, 1): 1.0}, {}
    yield "first-of-two-pivots", 2, {}, {(3, (2, 2)): 1.0, (0, (0, 1)): math.nan}
    yield "root-before-pivot", 2, {(0, 1, 2): 1.0, (4, 5): 1.0}, {(1, (1, 2)): 1.0}


TABLE_CASES = list(table_cases())


@pytest.mark.parametrize("case", TABLE_CASES, ids=[c[0] for c in TABLE_CASES])
def test_explicit_tables_match_the_per_entry_reference(case):
    _, k, roots, pivots = case
    want = tables_outcome(ReferenceExplicitTables, k, roots, pivots)
    assert tables_outcome(ExplicitScoreOracle, k, roots, pivots) == want
    if all(len(c) == k + 1 for c in roots) and all(len(b) == k for _, b in pivots):
        assert tables_outcome(as_rows, k, roots, pivots) == want


def test_weight_product_oracle_edge_cases():
    # a weighted triangle 0, 1, 2 and vertex 3 hanging off vertex 2
    g = UndirectedGraph(4, [(0, 1), (0, 2), (1, 2), (2, 3)],
                        {(0, 1): 2.0, (0, 2): 3.0, (1, 2): 5.0, (2, 3): 7.0})
    oracle = WeightProductOracle(g)
    assert oracle.root_score((2, 0, 1)) == 30.0
    assert oracle.score(2, (1, 0)) == oracle.score(0, (2, 1)) == 30.0
    assert oracle.score(3, (2,)) == 7.0
    # a non-edge makes the clique forbidden
    assert oracle.root_score((0, 1, 3)) is None
    assert oracle.score(3, (0, 2)) is None
    # so does a pivot inside its own base
    assert oracle.score(1, (0, 1)) is None
    with pytest.raises(ValueError, match=r"^self-loop at vertex 0$"):
        oracle.root_score((0, 1, 0))
    with pytest.raises(ValueError, match="carries no edge weights"):
        WeightProductOracle(UndirectedGraph(3, [(0, 1), (1, 2)]))


def test_explicit_oracle_invariance_needs_exact_sums():
    # 4 vertices times the largest value must stay within 2**17
    assert uniform_tables(4, 2, 2.0 ** 15).root_invariant
    assert not uniform_tables(4, 2, 2.0 ** 15 + 2.0 ** -36).root_invariant
    assert not uniform_tables(4, 2, -(2.0 ** 15) - 2.0 ** -36).root_invariant
    assert uniform_tables(4, 2, 3 * 2.0 ** -36).root_invariant
    assert not uniform_tables(4, 2, 2.0 ** -37).root_invariant


@pytest.mark.parametrize("m, n", [(129, 2 ** 14), (257, 14564)])
def test_mi_oracle_refuses_sources_past_the_exact_range(m, n):
    # n * ceil(log2 m) is at least 2**17 bits here and below it at n - 1;
    # a graph has at most 2**14 vertices, so only m above 128 gets there.
    # A read-only column-major array is not copied
    def oracle(n):
        data = np.zeros((m, n), dtype=np.int64, order="F")
        data.flags.writeable = False
        return MutualInformationOracle(SampleMatrix(data), UndirectedGraph(n, []))

    with pytest.raises(InstanceTooLargeError, match="exact only below 131072 bits"):
        oracle(n)
    assert oracle(n - 1).root_invariant


def test_materialize_scores_reproduces_oracle():
    rng = np.random.default_rng(19)
    p = random_joint_table((2, 2, 2, 2, 2), rng)
    g = UndirectedGraph(5, [e for e in UndirectedGraph.complete(5).edges
                            if e != (0, 4)])
    lazy = MutualInformationOracle(p, g)
    frozen = materialize_scores(lazy, g, 2)
    for c in itertools.combinations(range(5), 3):
        assert frozen.root_score(c) == lazy.root_score(c)
        for w in c:
            base = tuple(x for x in c if x != w)
            assert frozen.score(w, base) == lazy.score(w, base)


def test_conditional_table_validation():
    ConditionalTable(2, (0, 1), np.full((2, 2, 2), 0.5))
    with pytest.raises(ValueError, match="sum to 1"):
        ConditionalTable(2, (0, 1), np.full((2, 2, 2), 0.4))
    with pytest.raises(ValueError):
        ConditionalTable(2, (1, 0), np.full((2, 2, 2), 0.5))


def test_tables_to_joint_matches_sampling():
    """Ancestral samples converge to the exact factored joint."""
    rng = np.random.default_rng(0)
    t = random_ktree(5, 2, rng)
    tables = random_conditionals(t, (2,) * 5, rng)
    joint = tables_to_joint(t, tables)
    assert float(joint.table.sum()) == pytest.approx(1.0, abs=1e-9)
    s = sample_markov_ktree(t, tables, 1_000_000, seed=1)
    codes = np.ravel_multi_index([s.data[:, v] for v in range(5)], (2,) * 5)
    freq = np.bincount(codes, minlength=32) / s.m
    tv = 0.5 * float(np.abs(freq - joint.table.ravel()).sum())
    assert tv < 0.01


def test_sampling_deterministic_and_seeded():
    rng = np.random.default_rng(21)
    t = random_ktree(4, 2, rng)
    tables = random_conditionals(t, (2,) * 4, rng)
    a = sample_markov_ktree(t, tables, 500, seed=42)
    b = sample_markov_ktree(t, tables, 500, seed=42)
    c = sample_markov_ktree(t, tables, 500, seed=43)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_sampling_deterministic_tables():
    t = KTree.from_creation_order(3, 1, [(0, ()), (1, (0,)), (2, (1,))])
    tables = {
        0: ConditionalTable(0, (), np.array([0.0, 1.0])),
        1: ConditionalTable(1, (0,), np.array([[1.0, 0.0], [0.0, 1.0]])),
        2: ConditionalTable(2, (1,), np.array([[0.0, 1.0], [1.0, 0.0]])),
    }
    s = sample_markov_ktree(t, tables, 50, seed=9)
    assert (s.data == np.array([1, 1, 0])).all()


def reference_sample_markov_ktree(t, tables, m, seed=None):
    """The sampler as it read when each row took the argmax of its
    cumulative probabilities exceeding u, kept as a reference."""
    sizes = {v: tables[v].probs.shape[-1] for v, _ in t.creation_order}
    rng = np.random.default_rng(seed)
    out = np.zeros((m, t.n), dtype=np.int64, order="F")
    for v, base in t.creation_order:
        ct = tables[v]
        a = ct.probs.shape[-1]
        flat = ct.probs.reshape(-1, a)
        if ct.parents:
            codes = np.ravel_multi_index([out[:, p] for p in ct.parents],
                                         tuple(sizes[p] for p in ct.parents))
            rows = flat[codes]
        else:
            rows = np.broadcast_to(flat[0], (m, a))
        u = rng.random((m, 1))
        out[:, v] = (rows.cumsum(axis=1) > u).argmax(axis=1)
    return out


class EdgeDraws(np.random.Generator):
    """A generator whose uniform draws hit the edges of the sampler's
    thresholds: every fourth draw is the largest double below 1 and
    every fourth 0.25, 0.5 or 0.75, which dyadic rows sum to exactly."""

    def random(self, size=None):
        u = super().random(size)
        flat = u.reshape(-1)
        flat[::4] = np.nextafter(1.0, 0.0)
        flat[1::4] = self.choice([0.25, 0.5, 0.75], size=flat[1::4].size)
        return u


def edge_conditionals(t, sizes, rng):
    """Dirichlet conditionals where some rows sum to just under 1 and
    some are dyadic, so cumulative sums land exactly on a draw."""
    tables = random_conditionals(t, sizes, rng)
    for v, ct in tables.items():
        rows = ct.probs.reshape(-1, ct.probs.shape[-1]).copy()
        a = rows.shape[1]
        for row in rows:
            kind = rng.integers(3)
            if kind == 0:
                row[-1] -= min(row[-1], 5e-10)
            elif kind == 1 and a in (2, 4):
                row[:] = rng.permutation([0.5, 0.5] if a == 2 else [0.25, 0.25, 0.5, 0.0])
        tables[v] = ConditionalTable(v, ct.parents, rows.reshape(ct.probs.shape))
    return tables


@pytest.mark.parametrize("first_seed", [0, 30])
def test_sampler_matches_the_argmax_reference(first_seed):
    for seed in range(first_seed, first_seed + 30):
        rng = np.random.default_rng([seed, 19])
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        t = random_ktree(n, k, rng)
        sizes = tuple(int(a) for a in rng.integers(2, 12, size=n))
        # parent contexts stay below 4,096, as random_conditionals
        # builds every row of each table
        while any(math.prod(sizes[p] for p in base) > 4096
                  for _, base in t.creation_order):
            sizes = tuple(max(2, a // 2) for a in sizes)
        m = int(rng.integers(1, 400))
        tables = edge_conditionals(t, sizes, rng)
        got = sample_markov_ktree(t, tables, m, seed=seed)
        assert np.array_equal(got.data, reference_sample_markov_ktree(t, tables, m, seed)), seed
        draws = lambda: EdgeDraws(np.random.PCG64(seed))
        got = sample_markov_ktree(t, tables, m, seed=draws())
        assert np.array_equal(got.data, reference_sample_markov_ktree(t, tables, m, draws())), seed
