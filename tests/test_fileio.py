"""File formats: graphs, scores, samples, joints, results, DOT."""

import json
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from ktspan import (
    BackboneTree,
    KTree,
    SolveResult,
    UndirectedGraph,
    WeightProductOracle,
    path_backbone,
    solve_retaining_mskt,
    validate_backbone,
)
from ktspan import fileio
from ktspan.errors import InstanceTooLargeError
from ktspan.fileio import (
    ktree_to_dot,
    load_graph,
    load_joint,
    load_result_ktree,
    load_samples,
    load_scores,
    save_dot,
    save_graph,
    save_joint,
    save_ktree,
    save_result,
    save_samples,
    save_scores,
)
from ktspan.generate import (
    random_explicit_scores,
    random_joint_table,
    random_ktree,
)
from ktspan.graphs import mask_of
from ktspan.information import JointTable, SampleMatrix


def test_graph_round_trip(tmp_path):
    p = tmp_path / "g.json"
    g = UndirectedGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
                        {(0, 1): 0.5, (1, 2): 2.0, (2, 3): 1.0,
                         (3, 4): 1.0, (0, 4): 3.5})
    h = BackboneTree(5, [(0, 1), (1, 2), (2, 3), (3, 4)], 2)
    save_graph(p, g, h)
    g2, h2 = load_graph(p)
    assert g2.n == g.n and set(g2.edges) == set(g.edges)
    assert g2.weights == g.weights
    assert set(h2.edges) == set(h.edges)
    assert h2.degree_bound == 2


def test_graph_without_weights_or_backbone(tmp_path):
    p = tmp_path / "g.json"
    save_graph(p, UndirectedGraph(3, [(0, 1)]))
    g, h = load_graph(p)
    assert g.weights is None and h is None
    assert set(g.edges) == {(0, 1)}


def test_backbone_without_degree_bound_stays_unbounded(tmp_path):
    p = tmp_path / "g.json"
    obj = {"n": 4, "edges": [[0, 1], [0, 2], [0, 3]],
           "backbone": [[0, 1], [0, 2], [0, 3]]}
    p.write_text(json.dumps(obj))
    g, h = load_graph(p)
    assert h.degree_bound is None
    assert validate_backbone(g, h) is None


def test_graph_missing_key_message(tmp_path):
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"n": 3}))
    with pytest.raises(ValueError, match='"edges"'):
        load_graph(p)
    p.write_text(json.dumps({"edges": []}))
    with pytest.raises(ValueError, match='"n"'):
        load_graph(p)


@pytest.mark.parametrize("edges", [
    "x", {"0": [0, 1]}, [[0, 1], 5], [[0, 1], [0]], [[0, 1], [0, 1, 2]],
    [[0, 1], [0, True]], [[0, 1], [0, 1.0]], [[0, 1], [None, 1]], [[0, 1], ["0", 1]],
])
@pytest.mark.parametrize("key", ["edges", "backbone"])
def test_malformed_edge_lists_name_the_key(tmp_path, edges, key):
    # the whole list is checked in one pass per property; any entry that
    # is not a list of two ints (bools excluded) fails it
    obj = {"n": 3, "edges": [[0, 1], [1, 2]], "backbone": [[0, 1], [1, 2]]}
    obj[key] = edges
    p = tmp_path / "g.json"
    p.write_text(json.dumps(obj))
    with pytest.raises(ValueError) as exc:
        load_graph(p)
    assert str(exc.value) == f'{p}: "{key}" must be a list of [u, v] integer pairs'


def pivot_line(key):
    """The line a pivot key parses as, one key at a time: "w|b1,...,bk"
    as "w,b1,...,bk", and "|" for a key with no "|" or a "," before it."""
    w, bar, base = key.partition("|")
    return f"{w},{base}" if bar and "," not in w else "|"


@pytest.mark.parametrize("keys", [
    [], ["0|1"], ["0|1,2", "2|0,1", "10|3,4"], ["|"], ["0|"], ["|1"],
    ["0|1", "1,0"], ["0|1", "0,1|2"], ["0|1", "1|2|3"], ["0|1", "2|0\n1"],
    ["0|1\n2|3"], ["0|1\n2", "3|4"], ["0|1", "2|0\r1"], ["0|1", ""],
    ["0 | 1, 2", "\u0661|2"],
])
def test_pivot_lines_match_the_per_key_rule(keys):
    assert fileio._pivot_lines(keys) == [pivot_line(key) for key in keys]


def test_json_dump_deterministic(tmp_path):
    g = UndirectedGraph(4, [(2, 3), (0, 1)], {(2, 3): 1.0, (0, 1): 2.0})
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_graph(a, g, path_backbone(4))
    save_graph(b, g, path_backbone(4))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_scores_round_trip(tmp_path):
    p = tmp_path / "scores.json"
    g = UndirectedGraph.complete(5)
    oracle = random_explicit_scores(g, 2, np.random.default_rng(81))
    save_scores(p, oracle)
    back = load_scores(p, 5)
    assert back.k == 2
    assert [*map(dict, back._entries())] == [*map(dict, oracle._entries())]
    assert back.root_score(0b111) == oracle.root_score(0b111)
    assert back.score(4, 0b110) == oracle.score(4, 0b110)
    # sections are optional: absent entries are forbidden, not errors
    p.write_text(json.dumps({"k": 2, "root": {}}))
    assert load_scores(p, 5).score(0, 0b110) is None
    p.write_text(json.dumps({"root": {}}))
    with pytest.raises(ValueError, match='"k"'):
        load_scores(p, 5)


def test_samples_round_trip_and_errors(tmp_path):
    p = tmp_path / "s.csv"
    s = SampleMatrix([[0, 1, 2], [1, 0, 0], [0, 0, 1]])
    save_samples(p, s)
    back = load_samples(p)
    assert np.array_equal(back.data, s.data)
    assert back.alphabet_sizes == s.alphabet_sizes

    p.write_text("a,b\n0,1\n")
    with pytest.raises(ValueError, match="header"):
        load_samples(p)
    p.write_text("x0,x1\n")
    with pytest.raises(ValueError, match="no sample rows"):
        load_samples(p)
    p.write_text("x0,x1\n0,1.5\n")
    with pytest.raises(ValueError, match="non-integer"):
        load_samples(p)


def test_joint_round_trip_zero_fill(tmp_path):
    p = tmp_path / "joint.json"
    table = random_joint_table((2, 3), np.random.default_rng(82))
    save_joint(p, table)
    back = load_joint(p)
    assert back.variables == table.variables
    assert np.allclose(back.table, table.table, atol=1e-12)
    # omitted cells read back as zero mass
    obj = {"vars": [0, 1], "alphabets": [2, 2],
           "probs": {"0,0": 0.5, "1,1": 0.5}}
    p.write_text(json.dumps(obj))
    sparse = load_joint(p)
    assert sparse.table[0, 1] == 0.0 and sparse.table[1, 0] == 0.0
    obj = {"vars": [0], "alphabets": [2], "probs": {"5": 1.0}}
    p.write_text(json.dumps(obj))
    with pytest.raises(ValueError):
        load_joint(p)
    p.write_text(json.dumps({"vars": [0], "alphabets": [2]}))
    with pytest.raises(ValueError, match='"probs"'):
        load_joint(p)


def test_result_round_trip(tmp_path):
    p = tmp_path / "result.json"
    g = UndirectedGraph.complete(6)
    h = path_backbone(6)
    oracle = random_explicit_scores(g, 2, np.random.default_rng(83))
    res = solve_retaining_mskt(g, h, 2, oracle)
    save_result(p, res, oracle)
    t, obj = load_result_ktree(p)
    assert t.edges == res.ktree.edges
    assert obj["score"] == pytest.approx(res.score)
    assert len(obj["cliques"]) == 6 - 2 - 1

    obj["edges"] = obj["edges"][:-1]
    p.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="edge list disagrees"):
        load_result_ktree(p)


def test_result_with_broken_clique_order_names_the_path(tmp_path):
    p = tmp_path / "truth.json"
    save_ktree(p, KTree.from_creation_order(
        5, 2, [(0, ()), (1, (0,)), (2, (0, 1)), (3, (1, 2)), (4, (2, 3))]))
    obj = json.loads(p.read_text())
    # vertex 3 now attaches to vertex 4, which comes after it
    obj["cliques"][0]["base"] = [1, 4]
    p.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=re.escape(f"{p}: invalid k-tree")):
        load_result_ktree(p)


def test_joint_size_is_refused_before_allocating(tmp_path):
    p = tmp_path / "joint.json"
    p.write_text(json.dumps({"vars": list(range(21)), "alphabets": [2] * 21,
                             "probs": {}}))
    with pytest.raises(InstanceTooLargeError, match="2097152 cells"):
        load_joint(p)


def test_ktree_file_replays(tmp_path):
    p = tmp_path / "truth.json"
    t = random_ktree(6, 2, np.random.default_rng(84))
    save_ktree(p, t)
    back, _ = load_result_ktree(p)
    assert back.edges == t.edges


def ktree_layout_bytes(t, scores=None, total=None):
    """The result file as json.dumps writes its object: save_ktree's
    bytes without scores, save_result's with one score per attached
    clique and the total."""
    k = t.k
    obj = {"k": k, "root": sorted(v for v, _ in t.creation_order[:k + 1]),
           "cliques": [], "edges": [list(e) for e in sorted(t.edges)]}
    for i, (v, base) in enumerate(t.creation_order[k + 1:]):
        item = {"pivot": v, "base": list(base)}
        if scores is not None:
            item["score"] = scores[i]
        obj["cliques"].append(item)
    if scores is not None:
        obj["score"] = total
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


# scores json writes in other forms than float repr, or that sit at the
# edges of it
ODD_SCORES = [3, -2, -0.0, 5e-324, 1e16, np.float64(0.1), -7.5, 0]


class PivotScores:
    """Scores picked from ODD_SCORES by the pivot."""

    def score(self, pivot, base_mask):
        return ODD_SCORES[pivot % len(ODD_SCORES)]


def assert_writers_match_json(path, t, oracle, total):
    save_ktree(path, t)
    assert path.read_bytes() == ktree_layout_bytes(t)
    save_result(path, SolveResult(t, total, 0.0), oracle)
    scores = [oracle.score(w, mask_of(base)) for w, base in t.creation_order[t.k + 1:]]
    assert path.read_bytes() == ktree_layout_bytes(t, scores, total)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("extra", [0, 1, 3, 12])
def test_result_writers_match_json_dump(tmp_path, k, extra):
    # extra = 0 leaves the clique list empty; 12 gives vertex ids >= 10
    rng = np.random.default_rng(10 * k + extra)
    t = random_ktree(k + 1 + extra, k, rng)
    total = ODD_SCORES[extra % len(ODD_SCORES)]
    assert_writers_match_json(tmp_path / "r.json", t, PivotScores(), total)


def test_result_writers_match_json_dump_on_unsorted_bases(tmp_path):
    p = tmp_path / "truth.json"
    t = KTree.from_creation_order(6, 2, [(5, ()), (2, (5,)), (0, (2, 5)), (3, (0, 2)),
                                         (1, (2, 3)), (4, (0, 5))])
    obj = json.loads(ktree_layout_bytes(t))
    for item in obj["cliques"]:
        item["base"].reverse()
    p.write_text(json.dumps(obj))
    loaded, _ = load_result_ktree(p)
    oracle = random_explicit_scores(UndirectedGraph.complete(6), 2,
                                    np.random.default_rng(7))
    assert_writers_match_json(p, loaded, oracle, 12.5)


def test_result_writers_match_json_dump_on_overflowing_products(tmp_path):
    # pair products past the largest float: (0, 1, 3) gives inf, (0, 1, 4)
    # -inf and (0, 1, 5) inf * 0, which is nan
    weights = {e: 1.0 for e in UndirectedGraph.complete(6).edges}
    weights.update({(0, 1): 1e300, (0, 3): 1e300, (0, 4): -1e300, (0, 5): 1e300,
                    (1, 5): 0.0})
    g = UndirectedGraph(6, weights, weights)
    t = KTree.from_creation_order(6, 2, [(0, ()), (1, (0,)), (2, (0, 1)),
                                         (3, (0, 1)), (4, (1, 0)), (5, (0, 1))])
    oracle = WeightProductOracle(g)
    assert [oracle.score(w, mask_of(b)) for w, b in t.creation_order[3:]][:2] == [math.inf,
                                                                                  -math.inf]
    assert math.isnan(oracle.score(5, 0b11))
    assert_writers_match_json(tmp_path / "r.json", t, oracle, math.nan)


def test_dot_output():
    t = KTree.from_creation_order(
        5, 2, [(0, ()), (1, (0,)), (2, (0, 1)), (3, (1, 2)), (4, (2, 3))])
    h = path_backbone(5)
    dot = ktree_to_dot(t, h)
    assert dot.startswith("graph ktree {")
    assert dot.endswith("}\n")
    bold = [ln for ln in dot.splitlines() if "style=bold" in ln]
    assert len(bold) == 4
    for u, v in h.edges:
        assert f"{u} -- {v} [style=bold];" in dot


def test_dot_k1_edges_are_the_backbone():
    h = path_backbone(4)
    t = KTree.from_creation_order(
        4, 1, [(0, ()), (1, (0,)), (2, (1,)), (3, (2,))])
    dot = ktree_to_dot(t, h)
    plain = [ln for ln in dot.splitlines()
             if "--" in ln and "style=bold" not in ln]
    assert plain == []


def test_dot_isolated_vertices(tmp_path):
    t = KTree(1, 1, set(), [(0, ())])
    dot = ktree_to_dot(t)
    assert dot == "graph ktree {\n  0;\n}\n"
    out = tmp_path / "t.dot"
    save_dot(out, t)
    assert out.read_text() == dot


# The per-cell loaders the whole-array ones replaced, kept as references.
# Both carry the messages the whole-array loaders give where the loops
# used to differ: a bare int() error for a non-integer key, and
# "non-integer" (or a raw OverflowError) for a ragged or int64-overflowing
# sample row. A cell is read by cell_int, not int() alone: int() refuses
# \x1c-\x1f around a cell, though str.isspace counts them as whitespace,
# and reads "1_0" and non-ASCII digits.

def cell_int(cell):
    """The integer of one cell: ASCII digits with an optional sign and
    str.isspace whitespace around them."""
    text = cell.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an integer cell: {cell!r}")
    return int(text)


def reference_load_joint(path):
    try:
        obj = json.loads(path.read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    variables, alphabets, probs = obj["vars"], obj["alphabets"], obj["probs"]
    for p in probs.values():
        # an int too large for a float compares above the largest float
        if type(p) not in (int, float) or p != p or abs(p) > sys.float_info.max:
            raise ValueError(f'{path}: "probs" must be an object of finite numbers')
    if any(a < 1 for a in alphabets):
        raise ValueError(f'{path}: "alphabets" must be positive integers')
    table = np.zeros(tuple(alphabets))
    for key, p in probs.items():
        try:
            idx = tuple(cell_int(x) for x in key.split(","))
        except ValueError:
            raise ValueError(
                f"{path}: assignment {key!r} is not comma-separated integers") from None
        if len(idx) != len(variables):
            raise ValueError(f"{path}: assignment {key!r} has wrong arity")
        if any(not 0 <= x < a for x, a in zip(idx, alphabets)):
            raise ValueError(f"{path}: assignment {key!r} is out of range")
        table[idx] = float(p)
    try:
        return JointTable(tuple(variables), table)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def reference_load_samples(path):
    with open(path) as fh:
        header = fh.readline().strip()
        cols = header.split(",") if header else []
        if not cols or cols != [f"x{i}" for i in range(len(cols))]:
            raise ValueError(f"{path}: header must be x0,x1,...")
        rows = [line.strip() for line in fh if line.strip()]
    if not rows:
        raise ValueError(f"{path}: no sample rows")
    if any(len(row.split(",")) != len(cols) for row in rows):
        raise ValueError(f"{path}: row width disagrees with header")
    try:
        data = np.array([[cell_int(x) for x in row.split(",")] for row in rows],
                        dtype=np.int64)
    except (ValueError, OverflowError):
        raise ValueError(f"{path}: non-integer cell in sample rows") from None
    return SampleMatrix(data)


def reference_save_samples(path, samples):
    with open(path, "w") as fh:
        fh.write(",".join(f"x{i}" for i in range(samples.n)) + "\n")
        np.savetxt(fh, samples.data, fmt="%d", delimiter=",")


def dict_layout_bytes(p):
    """The joint file as the object layout under json.dumps: one key per
    cell of the table, sorted by the encoder."""
    probs = {",".join(map(str, idx)): float(p.table[idx])
             for idx in np.ndindex(*p.table.shape)}
    obj = {"vars": list(p.variables), "alphabets": list(p.table.shape),
           "probs": probs}
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def outcome(load, path):
    """A loader's table or its error, in a form that compares by value."""
    try:
        got = load(path)
    except Exception as exc:  # compared with the reference's error
        return type(exc), str(exc)
    if isinstance(got, JointTable):
        return got.variables, got.table.shape, got.table.tolist()
    return got.data.shape, got.data.tolist(), got.alphabet_sizes


BAD_CELLS = ["a", "1.0", "1.5", "1#x", "0x1", "", " ", "-1", "99999999999999999999",
             "\u01ff", "\u01fe0\u01fe"]

# whitespace drawn around cells: str.isspace characters, among them the
# ones int() refuses (\x1c-\x1f) and non-ASCII ones
PADS = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0"]


def spaced(cells, style, rng):
    """Join integer cells with commas, with whitespace around them by
    style; style 2 draws it from PADS, and styles 4 and 5 put line
    breaks there, which only keys hold."""
    if style == 0:
        return ", ".join(cells)
    if style == 1:
        return " " + ",".join(cells) + " "
    if style == 2:
        pads = rng.choice(PADS, size=(len(cells), 2))
        return ",".join(f"{a}{c}{b}" for c, (a, b) in zip(cells, pads))
    if style == 4:
        return ",".join(f"\n{c}\r" for c in cells)
    if style == 5:
        return "\r\n" + ",".join(cells) + "\n"
    return ",".join(cells)


def grid_near_miss(lines, rng):
    """Half the time, `lines` as they are; otherwise a copy with one
    near-miss of a single-digit grid: a cell of 10, a leading 0 or +, a
    trailing space or \\r, a cell just outside "0"-"9", a separator
    other than ",", a "," after every line, or one cell moved to the
    end of the line before it, which leaves the joined text as it was."""
    lines = list(lines)
    if rng.random() < 0.5:
        return lines
    i = int(rng.integers(len(lines)))
    cells = lines[i].split(",")
    j = int(rng.integers(len(cells)))
    kind = rng.integers(7)
    if kind == 0:
        cells[j] = "10"
    elif kind == 1:
        cells[j] = str(rng.choice(["0", "+"])) + cells[j]
    elif kind == 2:
        cells[-1] += str(rng.choice([" ", "\r"]))
    elif kind == 3:
        cells[j] = str(rng.choice(["/", ":", "a"]))
    elif kind == 4 and j > 0:
        cells[j] = str(rng.choice([";", ".", " "])) + cells[j]
        lines[i] = ",".join(cells[:j]) + ",".join(cells[j:])
        return lines
    elif kind == 5:
        return [line + "," for line in lines]
    elif kind == 6 and i + 1 < len(lines):
        lines[i] += lines[i + 1][:1]
        lines[i + 1] = lines[i + 1][1:]
        return lines
    lines[i] = ",".join(cells)
    return lines


def random_joint_obj(rng, clean=False):
    """A joint object with spaced keys and at times a second spelling
    of one key or a bad key. With clean, the keys are "d,d,...,d"
    (single digits unless an alphabet reaches 11), passed through
    grid_near_miss."""
    n = int(rng.integers(1, 9))
    alphabets = []
    for _ in range(n):
        a = int(rng.integers(2, 12 if clean else 6))
        alphabets.append(a if np.prod(alphabets + [a]) <= 4096 else 2)
    cells = list(np.ndindex(*alphabets))
    keep = rng.random(len(cells)) < rng.choice([0.1, 0.5, 1.0])
    kept = [c for c, k in zip(cells, keep) if k] or cells[:1]
    mass = rng.random(len(kept))
    mass /= mass.sum()
    if clean:
        keys = grid_near_miss([",".join(map(str, c)) for c in kept], rng)
        items = list(zip(keys, mass.tolist()))
        rng.shuffle(items)
    else:
        styles = rng.integers(6, size=len(kept))
        items = [(spaced([str(x) for x in c], style, rng), float(p))
                 for c, style, p in zip(kept, styles, mass)]
        rng.shuffle(items)
        if rng.random() < 0.2:
            # the same cell under a second spelling: the later key wins, so
            # the earlier one gets a mass that would break the sum
            j = int(rng.integers(len(items)))
            key, p = items[j]
            at = int(rng.integers(len(items) + 1))
            items.insert(at, (" " + key.replace(",", " , ") + " ", p))
            if at <= j:
                items[at] = (items[at][0], 0.5)
            else:
                items[j] = (key, 0.5)
        if rng.random() < 0.5:
            bad = [str(int(x)) for x in cells[int(rng.integers(len(cells)))]]
            kind = rng.integers(4)
            if kind == 0:
                bad[int(rng.integers(n))] = str(rng.choice(BAD_CELLS))
            elif kind == 1:
                bad.append("0") if rng.random() < 0.5 or n == 1 else bad.pop()
            elif kind == 2:
                i = int(rng.integers(n))
                bad[i] = str(alphabets[i] + int(rng.integers(3)))
            key = "" if kind == 3 else ",".join(bad)
            items.insert(int(rng.integers(len(items) + 1)), (key, 0.25))
    variables = [int(v) for v in rng.permutation(20)[:n]]
    return {"vars": variables, "alphabets": alphabets, "probs": dict(items)}


@pytest.mark.parametrize("first_seed", [0, 50, 100, 150])
def test_load_joint_matches_the_per_cell_loop(tmp_path, first_seed):
    p = tmp_path / "joint.json"
    for seed in range(first_seed, first_seed + 50):
        obj = random_joint_obj(np.random.default_rng([seed, 7]))
        p.write_text(json.dumps(obj))
        want = outcome(reference_load_joint, p)
        assert outcome(load_joint, p) == want, (seed, want)
        if isinstance(want[0], type):
            continue
        written = tmp_path / "a.json"
        save_joint(written, load_joint(p))
        assert written.read_bytes() == dict_layout_bytes(load_joint(p)), seed


SAVED_JOINTS = pytest.mark.parametrize("variables, shape", [
    (tuple(range(16)), (2,) * 16),  # more than one write and read block
    # string order differs from numeric order on the wider axes
    ((0, 1, 2), (3, 12, 2)),
    ((0,), (13,)),
    ((0, 1, 2), (3, 1, 2)),  # a one-symbol axis
    ((4,), (5,)),
    ((0,), (1,)),
    ((5, 2, 9), (2, 3, 2)),
    ((3, 0, 2, 1), (9, 10, 10, 10)),  # two read blocks, labels up to 9
], ids=["16-binary", "3x12x2", "13", "one-symbol-axis", "one-variable", "one-cell",
        "vars-out-of-order", "9x10x10x10"])


def saved_joint(variables, shape):
    """A joint over `shape`; past two cells, its first cell is zero and
    its last subnormal."""
    rng = np.random.default_rng(len(shape))
    table = rng.random(shape)
    if table.size > 2:
        table.flat[0] = table.flat[-1] = 0.0
    table /= table.sum()
    if table.size > 2:
        table.flat[-1] = 5e-324
    return JointTable(variables, table)


@SAVED_JOINTS
def test_save_joint_writes_the_dict_layout_byte_for_byte(tmp_path, variables, shape):
    p = saved_joint(variables, shape)
    path = tmp_path / "joint.json"
    save_joint(path, p)
    assert path.read_bytes() == dict_layout_bytes(p)
    back = load_joint(path)
    assert back.variables == p.variables
    assert np.array_equal(back.table, p.table)


@SAVED_JOINTS
def test_layout_reader_matches_the_json_parser(tmp_path, variables, shape):
    # a compact dump of the same object is not in save_joint's layout,
    # so it is read by the JSON parser
    layout, compact = tmp_path / "layout.json", tmp_path / "compact.json"
    save_joint(layout, saved_joint(variables, shape))
    compact.write_text(json.dumps(json.loads(layout.read_text())))
    a, b = load_joint(layout), load_joint(compact)
    assert a.variables == b.variables
    assert a.table.tobytes() == b.table.tobytes()


# Value tokens of one line of a saved joint: JSON numbers the reader must
# read as the parser does, and text that is no JSON number, no finite one,
# or more than one.
VALUE_EDITS = ["01", "1.", ".5", "+1", "NaN", "Infinity", "1_0", "1e400", "true", "null",
               '"x"', "[1]", "1E-3", "-0", " 5 ", "1" * 30, "0E0", " 0 ", "-0.0", "0, 0"]


def layout_edits(text):
    """(name, edited text) for edits of a saved 9x10x10x10 joint: each of
    VALUE_EDITS on its first and last line, its value respelled on the
    first line of the second read block, and edits of its lines and bytes.
    The first and last cells hold 0 and 5e-324, so zeros keep the sum."""
    lines = text.split("\n")
    first = lines.index('  "probs": {') + 1
    head, lines, tail = lines[:first], lines[first:first + 9000], lines[first + 9000:]
    assert lines[0].startswith('    "0,0,0,0": ')
    assert lines[-1].startswith('    "8,9,9,9": ')

    def joined(body):
        return "\n".join(head + body + tail)

    def with_value(i, value):
        key, _, old = lines[i].partition(": ")
        comma = "," if old.endswith(",") else ""
        return joined(lines[:i] + [f"{key}: {value}{comma}"] + lines[i + 1:])

    for value in VALUE_EDITS:
        yield f"first {value!r}", with_value(0, value)
        yield f"last {value!r}", with_value(8999, value)
    old = lines[8192].partition(": ")[2].rstrip(",")
    yield "respelled", with_value(8192, f" {old}0 ")
    yield "key digit", joined(lines[:8192] + [lines[8192].replace('"8,', '"7,', 1)]
                              + lines[8193:])
    yield "semicolon", joined(lines[:8192] + [lines[8192].replace('": ', '"; ')]
                              + lines[8193:])
    yield "comma moved", joined(lines[:8192] + [lines[8192].rstrip(","),
                                                lines[8193].replace(": ", ": ,")]
                                + lines[8194:])
    yield "swapped", joined(lines[:8191] + [lines[8192], lines[8191]] + lines[8193:])
    yield "dropped", joined(lines[:8192] + lines[8193:])
    yield "dropped last", joined(lines[:-2] + [lines[-2].rstrip(",")])
    yield "duplicated", joined(lines[:8192] + lines[8191:])
    yield "extra line", joined(lines[:-1] + [lines[-1] + ",",
                                             lines[0].replace(": 0.0,", ": 0.5")])
    yield "trailing comma", joined(lines[:-1] + [lines[-1] + ","])
    yield "unclosed", text[:-2] + " \n"
    yield "crlf", text.replace("\n", "\r\n")
    yield "bom", "\ufeff" + text


def test_layout_reader_matches_the_per_cell_loop_on_edited_files(tmp_path):
    path = tmp_path / "joint.json"
    save_joint(path, saved_joint((3, 0, 2, 1), (9, 10, 10, 10)))
    loaded = 0
    for name, text in layout_edits(path.read_text()):
        path.write_bytes(text.encode())
        want = outcome(reference_load_joint, path)
        assert outcome(load_joint, path) == want, name
        loaded += not isinstance(want[0], type)
    # the zeros, the respelled value, the tiny last cell dropped, and the
    # swapped, duplicated and CRLF files load; the others are refused
    assert loaded == 13


def test_layout_reader_memory_is_bounded_by_the_file_size(tmp_path):
    path = tmp_path / "joint.json"
    save_joint(path, saved_joint(tuple(range(16)), (2,) * 16))
    tracemalloc.start()
    try:
        load_joint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * path.stat().st_size


def test_load_joint_over_several_parse_blocks(tmp_path):
    rng = np.random.default_rng(85)
    shape = (2,) * 14
    table = rng.random(shape)
    p = JointTable(range(14), table / table.sum())
    path = tmp_path / "joint.json"
    save_joint(path, p)
    back = load_joint(path)
    assert np.array_equal(back.table, p.table)
    assert outcome(load_joint, path) == outcome(reference_load_joint, path)
    obj = json.loads(path.read_text())
    items = list(obj["probs"].items())
    rng.shuffle(items)
    # bad keys in the second and third blocks only; the first in file
    # order is out of range
    items.insert(12000, ("0," * 13 + "a", 0.0))
    items.insert(9000, (" " + "1," * 13 + "2", 0.0))
    items.append(("0", 0.0))
    obj["probs"] = dict(items)
    path.write_text(json.dumps(obj))
    want = outcome(reference_load_joint, path)
    assert want[1].endswith("is out of range")
    assert outcome(load_joint, path) == want


@pytest.mark.parametrize("key", ["1_0", "١", "0\r1", "0\n1", "+ 1", "", "\n"])
def test_load_joint_keys_are_ascii_integers(tmp_path, key):
    p = tmp_path / "joint.json"
    p.write_text(json.dumps({"vars": [0], "alphabets": [2], "probs": {key: 1.0}}))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=re.escape(
                f"{p}: assignment {key!r} is not comma-separated integers")):
            load_joint(p)
    assert seen == []


def test_load_joint_names_the_first_bad_key(tmp_path):
    p = tmp_path / "joint.json"
    p.write_text(json.dumps({"vars": [0], "alphabets": [2],
                             "probs": {"1\n": 0.5, "0\r\n": 0.5, "0\x1c": 0.0, "a": 0.0,
                                       "2": 0.0}}))
    with pytest.raises(ValueError, match=re.escape(f"{p}: assignment 'a' is not")):
        load_joint(p)


@pytest.mark.parametrize("key", ["1\n", "1\r\n", " +1\t", "\n1", "1\n\n", "\r1",
                                 "\u20031", "1\u3000", "\x851\xa0"])
def test_load_joint_allows_whitespace_around_a_key(tmp_path, key):
    p = tmp_path / "joint.json"
    p.write_text(json.dumps({"vars": [0], "alphabets": [2],
                             "probs": {key: 0.75, "0": 0.25}}))
    assert load_joint(p).table.tolist() == [0.25, 0.75]


@pytest.mark.parametrize("key", ["\r0,1", "0\r,1", "0\n,1", "0,\r\n1"])
def test_load_joint_reads_line_breaks_around_an_integer_as_whitespace(tmp_path, key):
    p = tmp_path / "joint.json"
    p.write_text(json.dumps({"vars": [0, 1], "alphabets": [2, 2],
                             "probs": {key: 0.75, "1,1": 0.25}}))
    assert load_joint(p).table.tolist() == [[0.0, 0.75], [0.0, 0.25]]
    assert outcome(load_joint, p) == outcome(reference_load_joint, p)


def random_samples_text(rng, clean=False):
    """A samples CSV with spaced rows, blank lines and at times a bad
    row. With clean, the rows are "d,d,...,d" (single digits unless a
    symbol reaches 10), passed through grid_near_miss."""
    n = int(rng.integers(1, 9))
    data = rng.integers(0, rng.integers(2, 12 if clean else 6),
                        size=(int(rng.integers(1, 40)), n))
    if clean:
        lines = grid_near_miss([",".join(map(str, row)) for row in data], rng)
    else:
        lines = [spaced([str(x) for x in row], style, rng)
                 for row, style in zip(data, rng.integers(4, size=len(data)))]
        for _ in range(int(rng.integers(3))):
            lines.insert(int(rng.integers(len(lines) + 1)), rng.choice(["", "  ", "\t"]))
        if rng.random() < 0.5:
            row = [str(x) for x in data[0]]
            kind = rng.integers(3)
            if kind == 0:
                row[int(rng.integers(n))] = str(rng.choice(BAD_CELLS))
            elif kind == 1:
                row.append(str(rng.choice(["0", ""])))
            elif n > 1:
                row.pop()
            lines.insert(int(rng.integers(len(lines) + 1)), ",".join(row))
    header = ",".join(f"x{i}" for i in range(n))
    return header + "\n" + "\n".join(lines) + "\n"


@pytest.mark.parametrize("first_seed", [0, 100])
def test_load_samples_matches_the_per_cell_loop(tmp_path, first_seed):
    p = tmp_path / "s.csv"
    for seed in range(first_seed, first_seed + 100):
        p.write_text(random_samples_text(np.random.default_rng([seed, 8])))
        want = outcome(reference_load_samples, p)
        assert outcome(load_samples, p) == want, (seed, want)
        if isinstance(want[0], type):
            continue
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_samples(a, load_samples(p))
        reference_save_samples(b, load_samples(p))
        assert a.read_bytes() == b.read_bytes(), seed


def test_save_samples_over_several_blocks(tmp_path):
    s = SampleMatrix(np.random.default_rng(86).integers(0, 12, size=(20000, 3)))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_samples(a, s)
    reference_save_samples(b, s)
    assert a.read_bytes() == b.read_bytes()
    assert np.array_equal(load_samples(a).data, s.data)


@pytest.mark.parametrize("text, message", [
    ("x0,x1\n0,1,1\n", "row width disagrees with header"),
    ("x0,x1\n0,1,\n", "row width disagrees with header"),
    ("x0,x1\n0,1\n1\n", "row width disagrees with header"),
    ("x0,x1\n0,1.5\n", "non-integer cell in sample rows"),
    ("x0,x1\na,1\n", "non-integer cell in sample rows"),
    ("x0,x1\n0,1#x\n", "non-integer cell in sample rows"),
    ("x0,x1\n0,99999999999999999999\n", "non-integer cell in sample rows"),
    ("x0,x1\n1,\u01ff\n", "non-integer cell in sample rows"),
    ("x0,x1\n0,1\n\u01fe0\u01fe,1\n", "non-integer cell in sample rows"),
])
def test_sample_row_errors(tmp_path, text, message):
    p = tmp_path / "s.csv"
    p.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{p}: {message}")):
        load_samples(p)


def digit_grid_results(monkeypatch):
    """The list that each later call of fileio._digit_grid appends its
    result to."""
    seen = []
    decode = fileio._digit_grid
    monkeypatch.setattr(fileio, "_digit_grid",
                        lambda lines: seen.append(decode(lines)) or seen[-1])
    return seen


def test_clean_grids_and_near_misses_match_the_per_cell_loops(tmp_path, monkeypatch):
    seen = digit_grid_results(monkeypatch)
    p, a, b = tmp_path / "in", tmp_path / "a", tmp_path / "b"
    grids = 0
    for seed in range(100):
        p.write_text(random_samples_text(np.random.default_rng([seed, 9]), clean=True))
        want = outcome(reference_load_samples, p)
        seen.clear()
        assert outcome(load_samples, p) == want, (seed, want)
        grids += seen[0] is not None
        if not isinstance(want[0], type):
            save_samples(a, load_samples(p))
            reference_save_samples(b, load_samples(p))
            assert a.read_bytes() == b.read_bytes(), seed
    for seed in range(50):
        obj = random_joint_obj(np.random.default_rng([seed, 10]), clean=True)
        p.write_text(json.dumps(obj))
        want = outcome(reference_load_joint, p)
        seen.clear()
        assert outcome(load_joint, p) == want, (seed, want)
        grids += seen[0] is not None
    # about half the files are clean grids: both sides of the choice run
    assert 50 <= grids <= 100


# Lines of three cells: a grid, then near-misses that _digit_grid must
# leave to numpy's parser. A _digit_grid without any one of its checks
# misreads, or fails on, at least one of them. Where numpy's parser
# accepts a near-miss, it reads the values the per-cell loops read.
GRID_NEAR_MISSES = {
    "grid": ["0,1,0", "1,1,0", "0,0,1"],
    "ten": ["0,1,0", "1,10,0", "0,0,1"],
    "leading-zero": ["0,1,0", "01,1,0", "0,0,1"],
    "plus": ["0,1,0", "1,+1,0", "0,0,1"],
    "inner-space": ["0,1,0", "1 ,1,0", "0,0,1"],
    "trailing-space": ["0,1,0", "1,1,0 ", "0,0,1"],
    "trailing-cr": ["0,1,0", "1,1,0\r", "0,0,1"],
    "unequal-lengths": ["0,1,0", "1,1,01", ",1,0"],
    "trailing-comma": ["0,1,0,", "1,1,0,", "0,0,1,"],
    "below-zero": ["0,1,0", "1,/,0", "0,0,1"],
    "above-nine": ["0,1,0", "1,:,0", "0,0,1"],
    "semicolon": ["0,1,0", "1;1,0", "0,0,1"],
}


@pytest.mark.parametrize("name", GRID_NEAR_MISSES)
def test_grid_near_misses_match_the_per_cell_loops(tmp_path, name):
    lines = GRID_NEAR_MISSES[name]
    p = tmp_path / "s.csv"
    p.write_text("x0,x1,x2\n" + "\n".join(lines) + "\n")
    got = outcome(load_samples, p)
    assert got == outcome(reference_load_samples, p)
    assert isinstance(got[0], type) == (name in (
        "unequal-lengths", "trailing-comma", "below-zero", "above-nine", "semicolon"))
    p = tmp_path / "joint.json"
    p.write_text(json.dumps({"vars": [0, 1, 2], "alphabets": [2, 2, 2],
                             "probs": {key: 1 / len(lines) for key in lines}}))
    assert outcome(load_joint, p) == outcome(reference_load_joint, p)


# Sample bodies around the one-pass decode: text mode reads "\r\n" and
# "\r" as newlines, so those two files are grids, while the other
# separators str.splitlines would break at stay inside a line, and
# strip() drops them only at a line's ends.
SAMPLE_BODIES = {
    "crlf": ("0,1\r\n1,0\r\n", True),
    "cr": ("0,1\r1,0\r", True),
    "blank-first": ("\n\n0,1\n1,0\n", False),
    "blank-last": ("0,1\n1,0\n\n\n", False),
    "blank-both": ("\r\n0,1\n1,0\n\r\n", False),
    "no-final-newline": ("0,1\n1,0", False),
    "no-final-newline-two-digits": ("0,1\n1,01", False),
    "double-width-row-inside": ("0,1\n1,0,0,1\n0,1\n", False),
    "vt-end": ("0,1\x0b\n1,0\n", False),
    "ff-start": ("\x0c0,1\n1,0\n", False),
    "fs-end": ("0,1\x1c\n1,0\n", False),
    "nel-start": ("0,1\n\x851,0\n", False),
    "vt-inside": ("0,1\x0b1,0\n", False),
    "ff-inside": ("0,1\x0c1,0\n", False),
    "fs-inside": ("0,1\x1c1,0\n", False),
    "nel-inside": ("0,1\x851,0\n", False),
    "ls-inside": ("0,1\u20281,0\n", False),
    "em-space-around-cells": ("0,\u20031\n1\u3000,\xa00\n", False),
}


@pytest.mark.parametrize("name", SAMPLE_BODIES)
def test_sample_bodies_match_the_per_cell_loop(tmp_path, monkeypatch, name):
    body, grid = SAMPLE_BODIES[name]
    seen = digit_grid_results(monkeypatch)
    p = tmp_path / "s.csv"
    p.write_bytes(("x0,x1\n" + body).encode())
    want = outcome(reference_load_samples, p)
    assert outcome(load_samples, p) == want
    assert (seen[0] is not None) == grid
    assert isinstance(want[0], type) == name.endswith("-inside")


def test_non_ascii_digits_are_refused_in_a_grid(tmp_path):
    # int() alone reads "١" as 1; a grid row holding it goes to numpy's parser
    p = tmp_path / "s.csv"
    p.write_text("x0,x1\n0,1\n١,0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{p}: non-integer cell in sample rows")):
        load_samples(p)
    p = tmp_path / "joint.json"
    p.write_text(json.dumps({"vars": [0, 1], "alphabets": [2, 2],
                             "probs": {"0,1": 0.5, "١,0": 0.5}}))
    with pytest.raises(ValueError, match=re.escape(
            f"{p}: assignment '١,0' is not comma-separated integers")):
        load_joint(p)


@pytest.mark.parametrize("symbols", [2, 9, 10, 11])
def test_save_samples_matches_savetxt_by_alphabet(tmp_path, symbols):
    s = SampleMatrix(np.random.default_rng(87).integers(0, symbols, size=(300, 5)))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_samples(a, s)
    reference_save_samples(b, s)
    assert a.read_bytes() == b.read_bytes()


def test_loaded_grid_is_kept_without_a_copy(tmp_path, monkeypatch):
    seen = digit_grid_results(monkeypatch)
    p = tmp_path / "s.csv"
    p.write_text("x0,x1,x2\n0,1,2\n1,0,0\n")
    grid = load_samples(p)
    assert grid.data is seen[-1]
    p.write_text("x0,x1,x2\n0, 1,2\n1,0,10\n")
    text = load_samples(p)
    assert seen[-1] is None
    for s, rows in ((grid, [[0, 1, 2], [1, 0, 0]]), (text, [[0, 1, 2], [1, 0, 10]])):
        assert s.data.tolist() == rows
        assert s.data.flags.f_contiguous and not s.data.flags.writeable


@pytest.mark.parametrize("value", [
    "true", '"1"', "null", "NaN", "Infinity", "-Infinity", "1" + "0" * 400])
def test_probabilities_must_be_finite_numbers(tmp_path, value):
    p = tmp_path / "joint.json"
    p.write_text('{"vars": [0], "alphabets": [2], "probs": {"0": %s, "1": 0}}' % value)
    with pytest.raises(ValueError, match=re.escape(
            f'{p}: "probs" must be an object of finite numbers')):
        load_joint(p)
    for probs in ('{"0": 1, "1": 0}', '{"0": 0.25, "1": 0.75}', '{"0": 1, "1": 0.0}'):
        p.write_text('{"vars": [0], "alphabets": [2], "probs": %s}' % probs)
        assert load_joint(p).table.sum() == 1.0
