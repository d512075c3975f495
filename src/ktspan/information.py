"""Discrete information measures and Markov k-tree distributions.

Distributions live in dense numpy arrays over small finite alphabets;
empirical tables come from integer sample matrices. All entropies and
divergences are in bits.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import InstanceTooLargeError
from .graphs import KTree, UndirectedGraph, iter_cliques

# dense joint tables beyond this many cells are refused
MAX_TABLE_CELLS = 1 << 20


class SampleMatrix:
    """Rows are joint observations of n discrete variables.

    Alphabet sizes are inferred from the data when not given, with a
    floor of 2 so constant columns still get a two-symbol alphabet.
    """

    __slots__ = ("data", "alphabet_sizes")

    def __init__(self, data, alphabet_sizes=None):
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("sample matrix must be 2-dimensional")
        if arr.shape[0] < 1:
            raise ValueError("need at least one sample row")
        if arr.size and arr.min() < 0:
            raise ValueError("negative symbol in sample matrix")
        if alphabet_sizes is None:
            alphabet_sizes = tuple(max(2, int(arr[:, j].max()) + 1)
                                   for j in range(arr.shape[1]))
        else:
            alphabet_sizes = tuple(int(a) for a in alphabet_sizes)
            if len(alphabet_sizes) != arr.shape[1]:
                raise ValueError("one alphabet size per column required")
            if any(a < 2 for a in alphabet_sizes):
                raise ValueError("alphabet sizes must be at least 2")
            for j, a in enumerate(alphabet_sizes):
                if int(arr[:, j].max()) >= a:
                    raise ValueError(f"column {j} holds symbols >= alphabet {a}")
        self.data = arr
        self.alphabet_sizes = alphabet_sizes

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


class JointTable:
    """Dense joint distribution over a tuple of variables."""

    __slots__ = ("variables", "table")

    def __init__(self, variables, table):
        self.variables = tuple(int(v) for v in variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("repeated variable")
        arr = np.asarray(table, dtype=float)
        if arr.ndim != len(self.variables):
            raise ValueError(
                f"table rank {arr.ndim} != {len(self.variables)} variables")
        if arr.size == 0:
            raise ValueError("empty table")
        if arr.min() < -1e-12:
            raise ValueError("negative probability")
        total = float(arr.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        self.table = np.clip(arr, 0.0, None)

    @property
    def alphabet_sizes(self) -> tuple:
        return self.table.shape

    @property
    def n(self) -> int:
        return len(self.variables)


def _marginal_array(source, variables):
    """Joint marginal over the given variables, axes in the given order."""
    vs = tuple(variables)
    if len(set(vs)) != len(vs):
        raise ValueError(f"repeated variable in {vs}")
    if isinstance(source, JointTable):
        pos = {v: i for i, v in enumerate(source.variables)}
        try:
            keep = [pos[v] for v in vs]
        except KeyError as ex:
            raise ValueError(f"variable {ex.args[0]} not in table") from None
        drop = tuple(i for i in range(source.n) if i not in set(keep))
        marg = source.table.sum(axis=drop) if drop else source.table
        kept_sorted = sorted(keep)
        return marg.transpose([kept_sorted.index(i) for i in keep])
    if isinstance(source, SampleMatrix):
        if source.m == 0:
            raise ValueError("no samples")
        for v in vs:
            if not 0 <= v < source.n:
                raise ValueError(f"variable {v} out of range")
        sizes = tuple(source.alphabet_sizes[v] for v in vs)
        flat = np.ravel_multi_index([source.data[:, v] for v in vs], sizes)
        counts = np.bincount(flat, minlength=int(np.prod(sizes)))
        return (counts / source.m).reshape(sizes)
    raise TypeError(f"unsupported source type {type(source).__name__}")


def entropy(source, variables) -> float:
    """Joint Shannon entropy in bits; no variables means 0."""
    vs = tuple(variables)
    if not vs:
        return 0.0
    p = _marginal_array(source, vs).ravel()
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def mutual_information(source, x: int, ys) -> float:
    """I(x ; ys) in bits, zero when ys is empty.

    The entropy identity can dip a few ulp below zero; information is
    nonnegative, so rounding noise is clamped away.
    """
    ys = tuple(ys)
    if x in ys:
        raise ValueError(f"variable {x} on both sides")
    if not ys:
        return 0.0
    value = (entropy(source, (x,)) + entropy(source, ys)
             - entropy(source, (x,) + ys))
    return max(value, 0.0)


def total_correlation(source, variables) -> float:
    """Sum of marginal entropies minus the joint entropy, in bits.

    Nonnegative by definition; rounding noise is clamped like in
    mutual_information.
    """
    vs = tuple(variables)
    value = sum(entropy(source, (v,)) for v in vs) - entropy(source, vs)
    return max(float(value), 0.0)


class ScoreOracle:
    """Scores clique attachments; None marks a forbidden configuration.

    score(pivot, base) values a vertex attached to a k-clique and
    root_score(clique) values a seed (k+1)-clique. None is absorbing:
    any construction touching a forbidden configuration is itself
    forbidden. Values must not depend on which construction produced
    the clique, only on the (pivot, base) pair itself.
    """

    mode = "abstract"

    def score(self, pivot: int, base):
        raise NotImplementedError

    def root_score(self, clique):
        raise NotImplementedError


class MutualInformationOracle(ScoreOracle):
    """score(pivot, base) = I(pivot ; base) estimated from data.

    Configurations that are not cliques of the host graph are
    forbidden. Root cliques score their total correlation, so a full
    construction sums to the total correlation of all variables split
    across the clique tree. Values are cached, solvers ask for the
    same attachment many times.
    """

    mode = "mi"

    def __init__(self, source, g: UndirectedGraph):
        self.source = source
        self.g = g
        self._cache = {}
        self._root_cache = {}

    def score(self, pivot, base):
        bset = frozenset(base)
        key = (pivot, bset)
        if key in self._cache:
            return self._cache[key]
        val = None
        if pivot not in bset and self.g.is_clique(sorted(bset | {pivot})):
            val = mutual_information(self.source, pivot, tuple(sorted(bset)))
        self._cache[key] = val
        return val

    def root_score(self, clique):
        members = tuple(sorted(clique))
        if members in self._root_cache:
            return self._root_cache[members]
        val = None
        if self.g.is_clique(members):
            val = total_correlation(self.source, members)
        self._root_cache[members] = val
        return val


def build_mi_oracle(source, g: UndirectedGraph, k: int) -> MutualInformationOracle:
    """Mutual-information score oracle over the cliques of g."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    _source_sizes(source, g.n)
    return MutualInformationOracle(source, g)


class WeightProductOracle(ScoreOracle):
    """Product of host edge weights inside the freshly completed clique.

    The value uses only the pair weights of {pivot} | base, so it does
    not depend on which vertex played the pivot. A missing weight or
    missing edge makes the configuration forbidden.
    """

    mode = "weight-product"

    def __init__(self, g: UndirectedGraph):
        if g.weights is None:
            raise ValueError("host graph carries no edge weights")
        self.g = g

    def _clique_product(self, members):
        prod = 1.0
        for u, v in itertools.combinations(sorted(members), 2):
            w = self.g.weight(u, v)
            if w is None:
                return None
            prod *= w
        return prod

    def score(self, pivot, base):
        members = tuple(base) + (pivot,)
        if len(set(members)) != len(members):
            return None
        return self._clique_product(members)

    def root_score(self, clique):
        return self._clique_product(tuple(clique))


class ExplicitScoreOracle(ScoreOracle):
    """Scores looked up from explicit tables; absent entries are forbidden.

    root_scores maps sorted (k+1)-tuples to floats and pivot_scores
    maps (pivot, base frozenset) pairs to floats.
    """

    mode = "explicit-table"

    def __init__(self, k: int, root_scores, pivot_scores):
        self.k = int(k)
        self.root_scores = {}
        for c, s in root_scores.items():
            key = tuple(sorted(c))
            if len(key) != self.k + 1 or len(set(key)) != len(key):
                raise ValueError(f"root clique {key} is not a {self.k + 1}-set")
            self.root_scores[key] = float(s)
        self.pivot_scores = {}
        for (w, b), s in pivot_scores.items():
            bset = frozenset(b)
            if len(bset) != self.k:
                raise ValueError(f"attachment set {sorted(bset)} is not a {self.k}-set")
            if w in bset:
                raise ValueError(f"pivot {w} inside its own attachment set")
            self.pivot_scores[(int(w), bset)] = float(s)

    def score(self, pivot, base):
        return self.pivot_scores.get((pivot, frozenset(base)))

    def root_score(self, clique):
        return self.root_scores.get(tuple(sorted(clique)))


def materialize_scores(oracle: ScoreOracle, g: UndirectedGraph,
                       k: int) -> ExplicitScoreOracle:
    """Evaluate an oracle on every (k+1)-clique of g and freeze the
    values into explicit tables. Forbidden entries stay absent, so the
    frozen oracle reproduces the original on all of g's cliques."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    root = {}
    pivot = {}
    for c in iter_cliques(g.adj, k + 1):
        rs = oracle.root_score(c)
        if rs is not None:
            root[c] = rs
        for w in c:
            base = tuple(x for x in c if x != w)
            fs = oracle.score(w, base)
            if fs is not None:
                pivot[(w, base)] = fs
    return ExplicitScoreOracle(k, root, pivot)


def _source_sizes(source, n):
    if isinstance(source, SampleMatrix):
        if source.n != n:
            raise ValueError(f"source covers {source.n} variables, need {n}")
        return tuple(source.alphabet_sizes)
    if isinstance(source, JointTable):
        if set(source.variables) != set(range(n)):
            raise ValueError(f"source must cover variables 0..{n - 1}")
        shape = [0] * n
        for v, a in zip(source.variables, source.table.shape):
            shape[v] = a
        return tuple(shape)
    raise TypeError(f"unsupported source type {type(source).__name__}")


def markov_ktree_distribution(t: KTree, source) -> JointTable:
    """Project source onto the k-tree: the joint that factors along it.

    Every vertex contributes P(v | attachment set) estimated from
    source; seed vertices condition on the earlier seed vertices only,
    so the product telescopes to a proper joint over all n variables.
    A context with zero probability falls back to the vertex's
    marginal, which keeps each conditional row normalized and the
    result an exact distribution.
    """
    _source_sizes(source, t.n)  # refuses a source that misses a vertex
    tables = {}
    for v, base in t.creation_order:
        # a sorted-axis marginal viewed with v last, so the context sums
        # add in the same order whatever the source type
        scope = tuple(sorted(base + (v,)))
        joint = np.moveaxis(_marginal_array(source, scope), scope.index(v), -1)
        ctx = joint.sum(axis=-1, keepdims=True)
        cond = np.where(ctx > 0,
                        joint / np.where(ctx > 0, ctx, 1.0),
                        _marginal_array(source, (v,)))
        tables[v] = ConditionalTable(v, base, cond)
    return tables_to_joint(t, tables)


def kl_divergence(p: JointTable, q: JointTable) -> float:
    """D(p || q) in bits; +inf where q lacks support that p uses.

    Divergence is nonnegative; a few ulp of cancellation noise below
    zero (e.g. q rebuilt from p's own marginals) is clamped away.
    """
    if set(p.variables) != set(q.variables):
        raise ValueError("distributions cover different variables")
    qt = q.table
    if p.variables != q.variables:
        qt = qt.transpose([q.variables.index(v) for v in p.variables])
    if p.table.shape != qt.shape:
        raise ValueError("alphabet mismatch")
    pf = p.table.ravel()
    qf = qt.ravel()
    mask = pf > 0
    if (qf[mask] == 0).any():
        return float("inf")
    return max(float((pf[mask] * np.log2(pf[mask] / qf[mask])).sum()), 0.0)


class ConditionalTable:
    """P(vertex | parents) as a dense array, one row per parent context."""

    __slots__ = ("vertex", "parents", "probs")

    def __init__(self, vertex: int, parents, probs):
        self.vertex = int(vertex)
        self.parents = tuple(int(p) for p in parents)
        if list(self.parents) != sorted(set(self.parents)):
            raise ValueError("parents must be sorted and distinct")
        arr = np.asarray(probs, dtype=float)
        if arr.ndim != len(self.parents) + 1:
            raise ValueError(
                f"table rank {arr.ndim} != {len(self.parents) + 1}")
        if arr.size and arr.min() < 0:
            raise ValueError("negative probability")
        rows = arr.reshape(-1, arr.shape[-1])
        if not np.allclose(rows.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("conditional rows must sum to 1")
        self.probs = arr


def _check_tables(t: KTree, tables):
    sizes = {}
    for v, base in t.creation_order:
        ct = tables[v]
        if ct.vertex != v:
            raise ValueError(f"table for vertex {v} labeled {ct.vertex}")
        if ct.parents != tuple(sorted(base)):
            raise ValueError(
                f"vertex {v} attaches to {tuple(sorted(base))}, "
                f"table conditions on {ct.parents}")
        for p, a in zip(ct.parents, ct.probs.shape[:-1]):
            if sizes[p] != a:
                raise ValueError(f"alphabet mismatch for parent {p}")
        sizes[v] = ct.probs.shape[-1]
    return sizes


def tables_to_joint(t: KTree, tables) -> JointTable:
    """Exact joint distribution defined by per-vertex conditionals."""
    sizes = _check_tables(t, tables)
    shape = tuple(sizes[v] for v in range(t.n))
    cells = 1
    for a in shape:
        cells *= a
    if cells > MAX_TABLE_CELLS:
        raise InstanceTooLargeError(
            f"joint table would need {cells} cells (limit {MAX_TABLE_CELLS})")
    result = np.ones(shape)
    for v, base in t.creation_order:
        ct = tables[v]
        scope = ct.parents + (v,)
        order = sorted(scope)
        arr = ct.probs.transpose([scope.index(u) for u in order])
        full_shape = [1] * t.n
        for u in order:
            full_shape[u] = sizes[u]
        result = result * arr.reshape(full_shape)
    return JointTable(tuple(range(t.n)), result)


def sample_markov_ktree(t: KTree, tables, m: int, seed=None) -> SampleMatrix:
    """Draw m joint samples by walking the creation order."""
    if m < 1:
        raise ValueError("need at least one sample")
    sizes = _check_tables(t, tables)
    rng = np.random.default_rng(seed)
    out = np.zeros((m, t.n), dtype=np.int64)
    for v, base in t.creation_order:
        ct = tables[v]
        a = ct.probs.shape[-1]
        flat = ct.probs.reshape(-1, a)
        if ct.parents:
            psizes = tuple(sizes[p] for p in ct.parents)
            idx = np.ravel_multi_index([out[:, p] for p in ct.parents], psizes)
            rows = flat[idx]
        else:
            rows = np.broadcast_to(flat[0], (m, a))
        u = rng.random((m, 1))
        out[:, v] = (rows.cumsum(axis=1) > u).argmax(axis=1)
    return SampleMatrix(out, tuple(sizes[v] for v in range(t.n)))
