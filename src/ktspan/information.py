"""Discrete information measures and Markov k-tree distributions.

Distributions live in dense numpy arrays over small finite alphabets;
empirical tables come from integer sample matrices. All entropies and
divergences are in bits.

A sample marginal is counted one of two ways, with the same exact
integer counts. When its cells times ceil(m/64) is at most the row
count m and no variable in it has more than 8 symbols, each cell is
the popcount of its symbols' row bitsets ANDed together, about one word
operation per 64 rows and cell. Otherwise every row gets its cell code
and np.bincount counts them, the only way that fits in memory for large
cell counts.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InstanceTooLargeError
from .graphs import (
    KTree,
    UndirectedGraph,
    iter_bits,
    iter_cliques,
    mask_is_clique,
    mask_of,
)

# dense joint tables beyond this many cells are refused
MAX_TABLE_CELLS = 1 << 20

# a memoized entropy is rounded to a multiple of 2**-_GRID_BITS bits, so
# every score built from entropies is a multiple too. A double holds each
# such multiple of magnitude at most _EXACT_LIMIT = 2**(53 - 36) = 2**17
# bits exactly, so sums below that bound are exact: every rooting of a
# k-tree sums its mutual-information scores to the same bits, and equal
# totals are real ties. The rounding moves an entropy by at most 2**-37
# bits, far below the plug-in estimator's O(1/m) bias
_GRID_BITS = 36
_GRID = 2.0 ** _GRID_BITS
_EXACT_LIMIT = 2.0 ** (53 - _GRID_BITS)

# widest alphabet counted from row bitsets. A variable's bitsets cost one
# pass over its column per symbol to build, and a wide variable meets
# few marginals small enough to reuse them: alone, or beside binary
# variables only. At m = 20,000 one marginal over one variable took
# 48-67 us by bincount; building and counting from bitsets took 36 us
# at 2 symbols, 57 at 4, 117 at 8, 203 at 16 and 867 at 63, and once
# built, 6-20 us for up to 32 symbols
_MAX_BITSET_ALPHABET = 8


class SampleMatrix:
    """Rows are joint observations of n discrete variables.

    Alphabet sizes are inferred from the data when not given, with a
    floor of 2 so constant columns still get a two-symbol alphabet.
    `data` is a read-only (m, n) int64 array stored column-major, so
    each variable's symbols are contiguous. It is a private copy of the
    input, except that a read-only column-major int64 array is kept as
    it is: the marginal kernel trusts the range checks made here, so
    no writable alias of `data` may outlive the constructor.
    """

    __slots__ = ("data", "alphabet_sizes", "_bits")

    def __init__(self, data, alphabet_sizes=None):
        shared = isinstance(data, np.ndarray) and not data.flags.writeable
        raw = np.asarray(data)
        # the int64 cast would truncate 1.7 to 1, and NaN or inf to junk
        if raw.dtype.kind == "f" and not (np.isfinite(raw).all()
                                          and (raw == np.trunc(raw)).all()):
            raise ValueError("non-integral symbol in sample matrix")
        arr = np.array(raw, dtype=np.int64, order="F",
                       copy=None if shared else True)
        if arr.ndim != 2:
            raise ValueError("sample matrix must be 2-dimensional")
        if arr.shape[0] < 1:
            raise ValueError("need at least one sample row")
        if arr.size and arr.min() < 0:
            raise ValueError("negative symbol in sample matrix")
        top = arr.max(axis=0)
        if alphabet_sizes is None:
            alphabet_sizes = tuple(max(2, int(t) + 1) for t in top)
        else:
            alphabet_sizes = tuple(int(a) for a in alphabet_sizes)
            if len(alphabet_sizes) != arr.shape[1]:
                raise ValueError("one alphabet size per column required")
            if any(a < 2 for a in alphabet_sizes):
                raise ValueError("alphabet sizes must be at least 2")
            for j, (t, a) in enumerate(zip(top, alphabet_sizes)):
                if t >= a:
                    raise ValueError(f"column {j} holds symbols >= alphabet {a}")
        arr.flags.writeable = False
        self.data = arr
        self.alphabet_sizes = alphabet_sizes
        self._bits = [None] * arr.shape[1]

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]

    def _symbol_bits(self, v):
        """Row bitsets of variable v, built on first use: an (alphabet,
        ceil(m/64)) uint64 array whose row s has bit r set when sample
        row r holds symbol s. Padding bits past row m - 1 are clear."""
        bits = self._bits[v]
        if bits is None:
            column = self.data[:, v]
            nbytes = -(-self.m // 8)
            packed = np.zeros((self.alphabet_sizes[v], 8 * -(-self.m // 64)),
                              dtype=np.uint8)
            for s, row in enumerate(packed):
                row[:nbytes] = np.packbits(column == s, bitorder="little")
            bits = self._bits[v] = packed.view(np.uint64)
        return bits


class JointTable:
    """Dense joint distribution over a nonempty tuple of variables."""

    __slots__ = ("variables", "table")

    def __init__(self, variables, table):
        self.variables = tuple(int(v) for v in variables)
        if not self.variables:
            raise ValueError("a joint table needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("repeated variable")
        arr = np.asarray(table, dtype=float)
        if arr.ndim != len(self.variables):
            raise ValueError(
                f"table rank {arr.ndim} != {len(self.variables)} variables")
        if arr.size == 0:
            raise ValueError("empty table")
        # NaN passes both checks below, since it compares false
        if not np.isfinite(arr).all():
            raise ValueError("non-finite probability")
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


def _cell_codes(columns, sizes):
    """Row-major cell index of each row of the symbol columns: the codes
    np.ravel_multi_index(columns, sizes) gives, without its bounds check,
    so every symbol must already lie in 0..size-1. A code stays below
    the product of the sizes."""
    code = columns[0]
    for column, size in zip(columns[1:], sizes[1:]):
        code = code * size  # a new array: the input columns are never written
        code += column
    return code


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
        for v in vs:
            if not 0 <= v < source.n:
                raise ValueError(f"variable {v} out of range")
        sizes = tuple(source.alphabet_sizes[v] for v in vs)
        cells = math.prod(sizes)
        if cells > MAX_TABLE_CELLS:
            raise InstanceTooLargeError(
                f"marginal over variables {vs} would need {cells} cells "
                f"(limit {MAX_TABLE_CELLS})")
        if (cells * -(-source.m // 64) <= source.m
                and max(sizes) <= _MAX_BITSET_ALPHABET):
            # fewer words to AND and count than rows to code: cell
            # (s0, s1, ...) is the popcount of its symbols' bitsets ANDed,
            # broadcast so the cells come out in row-major order
            bits = source._symbol_bits(vs[0])
            for v in vs[1:]:
                bits = bits[..., None, :] & source._symbol_bits(v)
            counts = np.bitwise_count(bits).sum(axis=-1, dtype=np.int64)
        else:
            codes = _cell_codes([source.data[:, v] for v in vs], sizes)
            counts = np.bincount(codes, minlength=cells).reshape(sizes)
        return counts / source.m
    raise TypeError(f"unsupported source type {type(source).__name__}")


def entropy(source, variables) -> float:
    """Joint Shannon entropy in bits; no variables means 0."""
    vs = tuple(variables)
    if not vs:
        return 0.0
    p = _marginal_array(source, vs).ravel()
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


class _Entropies:
    """Joint entropies of one source, each variable subset computed once
    and rounded to a multiple of 2**-36 bits.

    A subset is keyed by its bitmask over the source's variables, bit i
    for the i-th smallest: bits come from positions, not labels, which
    may be negative or huge. A memo hit is one dict lookup, and a miss
    hands the kernel the sorted variable tuple, so a subset has one
    marginal axis order, and one summation order, however a caller
    lists it. The mutual-information and total-correlation formulas
    live here so that every caller shares both the memo and the
    arithmetic. Their values are sums of grid multiples, so they are
    exact, and are not clamped: a clamp would break the entropy
    identity that makes every rooting of a k-tree score the same.
    """

    __slots__ = ("source", "_labels", "_bits", "_memo")

    def __init__(self, source):
        if isinstance(source, JointTable):
            labels = tuple(sorted(source.variables))
        elif isinstance(source, SampleMatrix):
            labels = tuple(range(source.n))
        else:
            raise TypeError(f"unsupported source type {type(source).__name__}")
        self.source = source
        self._labels = labels
        self._bits = {v: 1 << i for i, v in enumerate(labels)}
        self._memo = {}

    def mask(self, variables) -> int:
        """Bitmask of a tuple of distinct source variables; any other
        tuple raises the kernel's error for it."""
        bits = [self._bits.get(v) for v in variables]
        if None in bits or len(set(bits)) < len(bits):
            entropy(self.source, tuple(sorted(variables)))
        return sum(bits)

    def __call__(self, mask) -> float:
        """Joint entropy of the variables in mask, in bits."""
        h = self._memo.get(mask)
        if h is None:
            key = tuple(map(self._labels.__getitem__, iter_bits(mask)))
            # looked up as a module global, so a wrapper bound to
            # information.entropy sees exactly the kernel calls
            h = self._memo[mask] = round(entropy(self.source, key) * _GRID) / _GRID
        return h

    def information(self, xmask: int, ymask: int) -> float:
        """I(X ; Y) in bits between the disjoint variable sets of two
        masks. Rounding can put a zero one grid step below 0."""
        return self(xmask) + self(ymask) - self(xmask | ymask)

    def correlation(self, mask: int) -> float:
        """Sum of the marginal entropies of the variables in mask minus
        their joint entropy, in bits."""
        return sum(self(1 << i) for i in iter_bits(mask)) - self(mask)


def mutual_information(source, x: int, ys) -> float:
    """I(x ; ys) in bits, zero when ys is empty (x is checked either
    way): the score MutualInformationOracle gives, a multiple of 2**-36,
    clamped at zero so it is never negative. The same for every order
    of ys."""
    entropies = _Entropies(source)
    ys = tuple(ys)
    if x in ys:
        raise ValueError(f"variable {x} on both sides")
    xmask = entropies.mask((x,))
    if not ys:
        return 0.0
    return max(entropies.information(xmask, entropies.mask(ys)), 0.0)


def total_correlation(source, variables) -> float:
    """Sum of marginal entropies minus the joint entropy, in bits: the
    root score MutualInformationOracle gives, a multiple of 2**-36,
    clamped at zero so it is never negative."""
    entropies = _Entropies(source)
    return max(entropies.correlation(entropies.mask(tuple(variables))), 0.0)


class ScoreOracle:
    """Scores clique attachments; None marks a forbidden configuration.

    score(pivot, base) values a vertex attached to a k-clique and
    root_score(clique) values a seed (k+1)-clique. None is absorbing:
    any construction touching a forbidden configuration is itself
    forbidden. Values must not depend on which construction produced
    the clique, only on the (pivot, base) pair itself.

    root_invariant promises that every creation order of a k-tree sums
    to the same score, bit for bit, whichever of its cliques is the
    root. The solver then sweeps only the roots holding the smallest
    backbone edge, since every retaining k-tree has a clique holding it,
    and returns the winner rerooted at its lexicographically smallest
    clique. The default is False. Mutual-information oracles set it,
    since their scores are exact grid multiples; explicit tables work it
    out from their values, so the tables `fit` writes are root-invariant
    too, and a solve from samples and a solve on those tables give the
    same bits.
    """

    root_invariant = False

    def score(self, pivot: int, base):
        raise NotImplementedError

    def root_score(self, clique):
        raise NotImplementedError


class MutualInformationOracle(ScoreOracle):
    """score(pivot, base) = I(pivot ; base) estimated from data.

    Configurations that are not cliques of the host graph are
    forbidden. Root cliques score their total correlation, so a full
    construction sums to the total correlation of all variables split
    across the clique tree. Every score is built from one per-oracle
    entropy memo, so a fit or a solve computes each subset entropy once.

    Entropies are rounded to multiples of 2**-36 bits, so every rooting
    of a k-tree sums to the same bits and the oracle is root-invariant.
    That needs every sum the solver forms to stay below 2**17 bits. No
    sum of a k-tree's scores exceeds the sum of its variables'
    entropies, up to a few grid steps, and a plug-in entropy is at most
    log2 m bits, so a sample source with n * ceil(log2 m) >= 2**17 is
    refused with InstanceTooLargeError. A joint table's entropies sum to
    at most log2 of its cell count, far below the bound.
    """

    root_invariant = True

    def __init__(self, source, g: UndirectedGraph):
        _check_source(source, g.n)
        if isinstance(source, SampleMatrix):
            bits = g.n * (source.m - 1).bit_length()
            if bits >= _EXACT_LIMIT:
                raise InstanceTooLargeError(
                    f"{g.n} variables and {source.m} samples allow score sums "
                    f"of {bits} bits; sums are exact only below "
                    f"{int(_EXACT_LIMIT)} bits")
        self.source = source
        self.g = g
        self._entropies = _Entropies(source)

    # the host's vertices are the source's variables 0..n-1, so a vertex
    # mask is the memo's variable mask
    def score(self, pivot, base):
        bmask = mask_of(base)
        pbit = 1 << pivot
        if bmask & pbit or not mask_is_clique(self.g.adj, bmask | pbit):
            return None
        return self._entropies.information(pbit, bmask)

    def root_score(self, clique):
        mask = mask_of(clique)
        if mask.bit_count() != len(clique) or not mask_is_clique(self.g.adj, mask):
            return None
        return self._entropies.correlation(mask)


class WeightProductOracle(ScoreOracle):
    """Product of host edge weights inside the freshly completed clique.

    The value uses only the pair weights of {pivot} | base, so it does
    not depend on which vertex played the pivot. A missing weight or
    missing edge makes the configuration forbidden. A k-tree scores the
    sum of its (k+1)-cliques' products under every creation order, so
    the oracle is root-invariant.
    """

    root_invariant = True

    def __init__(self, g: UndirectedGraph):
        if g.weights is None:
            raise ValueError("host graph carries no edge weights")
        self.g = g

    def _clique_product(self, members):
        # sorted members give every pair as its normalized edge key
        weights = self.g.weights
        prod = 1.0
        for u, v in itertools.combinations(sorted(members), 2):
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            w = weights.get((u, v))
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

    root_scores maps sorted (k+1)-tuples to finite floats and
    pivot_scores maps (pivot, sorted base tuple) pairs to finite floats,
    so a lookup sorts its clique or base and builds no set. Each table
    is given as a mapping keyed as these are, in any vertex order, or as
    a pair (rows, values): an (m, k+1) integer array, a pivot's row
    being (pivot, *base), and m numbers. Of two entries for one key the
    later wins. The checks run over the rows as whole arrays, and the
    error names the first bad entry.

    root_invariant is worked out from the tables. It holds exactly when
    every root entry has all k+1 of its pivot entries and every pivot
    entry its root entry; root_score(S + w) - score(w | S) is the same
    for every pivot w of each base S; and every value is a multiple of
    2**-36 with n * max|value| <= 2**17, n the vertices the tables
    name. Moving a k-tree's root across a shared base S then trades
    equal differences, and every sum is exact, so every rooting scores
    the same bits. Tables `fit` writes pass.
    """

    def __init__(self, k: int, root_scores, pivot_scores):
        self.k = k = int(k)
        keys, roots, rvals = _score_rows(root_scores, k + 1, tuple)
        roots.sort(axis=1)
        bad = (roots[:, 1:] == roots[:, :-1]).any(axis=1)
        for i in np.flatnonzero(bad | ~np.isfinite(rvals))[:1]:
            key = tuple(sorted(map(int, keys[i])))
            raise ValueError(f"root clique {key} is not a {k + 1}-set" if bad[i] else
                             f"non-finite score {rvals[i]} for root clique {key}")
        keys, pivots, pvals = _score_rows(pivot_scores, k + 1, lambda key: (key[0], *key[1]))
        bases = pivots[:, 1:]
        bases.sort(axis=1)
        inside = (bases == pivots[:, :1]).any(axis=1)
        bad = inside | (bases[:, 1:] == bases[:, :-1]).any(axis=1) | ~np.isfinite(pvals)
        for i in np.flatnonzero(bad)[:1]:
            w, *base = map(int, keys[i])
            base = sorted(set(base))
            raise ValueError(
                f"attachment set {base} is not a {k}-set" if len(base) != k else
                f"pivot {w} inside its own attachment set" if inside[i] else
                f"non-finite score {pvals[i]} for pivot {w} on {base}")
        self.root_scores = dict(zip(zip(*roots.T.tolist()), rvals.tolist()))
        self.pivot_scores = dict(zip(zip(pivots[:, 0].tolist(), zip(*bases.T.tolist())),
                                     pvals.tolist()))
        self.root_invariant = self._detect_root_invariant(roots, rvals, pivots, pvals)

    def _detect_root_invariant(self, roots, rvals, pivots, pvals) -> bool:
        """The rule above, by whole-array passes over the checked rows:
        roots sorted, pivots as (pivot, *sorted base)."""
        k = self.k
        if len(self.root_scores) < len(roots) or len(self.pivot_scores) < len(pivots):
            # a later entry replaced an earlier one: check the tables as kept
            return ExplicitScoreOracle(k, self.root_scores, self.pivot_scores).root_invariant
        values = np.concatenate([rvals, pvals])
        n = len(set(roots.ravel().tolist()))
        # within the bound no value, scaled value or difference overflows
        if (len(pivots) != (k + 1) * len(roots)
                or n * float(np.abs(values).max(initial=0.0)) > _EXACT_LIMIT
                or (values * _GRID % 1).any()):
            return False
        # a clique has at most k+1 pivot keys, one per pivot, so every
        # pivot has its root exactly when the pivots' cliques, sorted,
        # are the sorted roots each repeated k+1 times
        by_root = np.lexsort(roots.T)
        cliques = np.sort(pivots, axis=1)
        by_clique = np.lexsort(cliques.T)
        if not np.array_equal(cliques[by_clique], roots[by_root].repeat(k + 1, axis=0)):
            return False
        offsets = rvals[by_root].repeat(k + 1) - pvals[by_clique]
        bases = pivots[by_clique, 1:]
        by_base = np.lexsort(bases.T)
        bases, offsets = bases[by_base], offsets[by_base]
        return not (offsets[1:] != offsets[:-1])[(bases[1:] == bases[:-1]).all(axis=1)].any()

    def score(self, pivot, base):
        return self.pivot_scores.get((pivot, tuple(sorted(base))))

    def root_score(self, clique):
        return self.root_scores.get(tuple(sorted(clique)))


def _score_rows(table, width, row):
    """A score table as (keys, rows, values): its keys, a mapping's as
    row(key); those as an (m, width) int64 array, where a key of another
    width is a row of zeros, which the checks refuse; and its values as
    floats."""
    if isinstance(table, tuple):
        keys, values = table
        rows = keys
    else:
        keys, values = [row(key) for key in table], list(table.values())
        rows = [key if len(key) == width else (0,) * width for key in keys]
    values = np.array(values, dtype=float)
    return keys, np.array(rows, dtype=np.int64).reshape(len(values), width), values


def materialize_scores(oracle: ScoreOracle, g: UndirectedGraph,
                       k: int) -> ExplicitScoreOracle:
    """Evaluate an oracle on every (k+1)-clique of g and freeze the
    values into explicit tables. Forbidden entries stay absent, so the
    frozen oracle reproduces the original on all of g's cliques."""
    if not 1 <= k < g.n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={g.n}")
    roots, root_values, pivots, pivot_values = [], [], [], []
    for c in iter_cliques(g.adj, k + 1):
        rs = oracle.root_score(c)
        if rs is not None:
            roots.append(c)
            root_values.append(rs)
        for w in c:
            base = tuple(x for x in c if x != w)
            fs = oracle.score(w, base)
            if fs is not None:
                pivots.append((w, *base))
                pivot_values.append(fs)
    return ExplicitScoreOracle(k, (roots, root_values), (pivots, pivot_values))


def _check_source(source, n=None):
    """Refuse a source that is neither samples nor a joint table, or
    that does not cover variables 0..n-1 (n defaults to its own count)."""
    if not isinstance(source, (SampleMatrix, JointTable)):
        raise TypeError(f"unsupported source type {type(source).__name__}")
    if n is None:
        n = source.n
    if isinstance(source, SampleMatrix):
        if source.n != n:
            raise ValueError(f"source covers {source.n} variables, need {n}")
    elif set(source.variables) != set(range(n)):
        raise ValueError(f"source must cover variables 0..{n - 1}")


def markov_ktree_distribution(t: KTree, source) -> JointTable:
    """Project source onto the k-tree: the joint that factors along it.

    Every vertex contributes P(v | attachment set) estimated from
    source; seed vertices condition on the earlier seed vertices only,
    so the product telescopes to a proper joint over all n variables.
    A context with zero probability falls back to the vertex's
    marginal, which keeps each conditional row normalized and the
    result an exact distribution.
    """
    _check_source(source, t.n)
    tables = {}
    for v, base in t.creation_order:
        # a sorted-axis marginal viewed with v last, so the context sums
        # add in the same order whatever the source type
        scope = tuple(sorted(base + (v,)))
        joint = np.moveaxis(_marginal_array(source, scope), scope.index(v), -1)
        ctx = joint.sum(axis=-1, keepdims=True)
        seen = ctx > 0
        if seen.all():
            cond = joint / ctx
        else:
            cond = np.where(seen, joint / np.where(seen, ctx, 1.0),
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
    """Draw m joint samples by walking the creation order.

    Each vertex takes one uniform draw u per row, in creation order. Its
    symbol is the first s whose cumulative probability P(v <= s | row's
    context) exceeds u, counted as the number of cumulative thresholds
    at or below u: the thresholds of each context come from one cumsum
    of its table row, gathered per symbol by the rows' context codes. A
    count of a, where rounding leaves a row summing just under 1 and u
    lies above its last threshold, gives symbol 0.
    """
    if m < 1:
        raise ValueError("need at least one sample")
    sizes = _check_tables(t, tables)
    rng = np.random.default_rng(seed)
    # column-major, so each vertex's column is one contiguous write
    out = np.zeros((m, t.n), dtype=np.int64, order="F")
    for v, base in t.creation_order:
        ct = tables[v]
        a = ct.probs.shape[-1]
        thresholds = ct.probs.reshape(-1, a).cumsum(axis=1)
        u = rng.random(m)
        column = out[:, v]
        codes = 0  # the one context of a parentless vertex
        if ct.parents:
            psizes = tuple(sizes[p] for p in ct.parents)
            codes = _cell_codes([out[:, p] for p in ct.parents], psizes)
        for s in range(a):
            column += thresholds[:, s].take(codes) <= u
        column[column == a] = 0
    out.flags.writeable = False  # read-only, so SampleMatrix keeps it uncopied
    return SampleMatrix(out, tuple(sizes[v] for v in range(t.n)))
