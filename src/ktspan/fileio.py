"""Stable file formats: graph JSON, score JSON, samples CSV, joint
JSON, result JSON, and DOT rendering.

Every JSON file is the bytes of json.dump(obj, indent=2,
sort_keys=True) plus a newline, so identical inputs produce
byte-identical files. The joint and the result are not built as
objects. The joint's fixed layout is streamed, a block of probability
lines at a time, in those same bytes. A joint whose bytes are exactly
that layout, every alphabet at most 10, is read back by whole-array
passes, a block of lines at a time; any other valid joint goes through
the JSON parser, to the same table and the same errors.

A result is filled into one "%" template per list, its scores encoded
by json itself, so every number json accepts (ints, floats, NaN and
the infinities) reads as json.dump writes it. Score tables go to
ExplicitScoreOracle as parsed key rows, and it keys them by sorted
tuples. Errors from the JSON parser name the file.

Sample rows and integer keys are parsed by whole-array passes, not per
cell: a samples body in one pass, keys a block of lines at a time. Text
that is whole lines of one grid of single digits and commas, every line
the same length (as `gen` writes sample rows and joint keys), is
decoded from its bytes; other lines go through numpy's text parser,
and both accept the same grammar. Samples with at most 10 symbols per
variable are written as one byte grid, wider ones by a "%d" formatter a
block of rows at a time, and the bytes are the same either way.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InstanceTooLargeError
from .graphs import MAX_VERTICES, BackboneTree, KTree, UndirectedGraph, normalize_edge
from .information import MAX_TABLE_CELLS, ExplicitScoreOracle, JointTable, SampleMatrix

# Lines per whole-array pass. Parsing a 65,536-key joint in one pass
# raised peak RSS by about 6 MB; 8,192-line blocks by about 0.1 MB.
_BLOCK_LINES = 8192

# an integer cell too wide for int64 parses once its digits are zeroed
_ZERO_DIGITS = str.maketrans("123456789", "000000000")

# a line break around an integer of a key is whitespace, as a space is;
# numpy's parser would end the line there
_BREAKS_TO_SPACES = str.maketrans("\r\n", "  ")


def _load_json(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return obj


def _dump_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require(obj, key, path):
    if key not in obj:
        raise ValueError(f'{path} is missing the "{key}" key')
    return obj[key]


def _integer(value, key, path):
    if type(value) is not int:
        raise ValueError(f'{path}: "{key}" must be an integer')
    return value


def _integer_list(value, key, path):
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise ValueError(f'{path}: "{key}" must be a list of integers')
    return value


def _edge_list(value, key, path):
    if not isinstance(value, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)
            for e in value):
        raise ValueError(f'{path}: "{key}" must be a list of [u, v] integer pairs')
    return [tuple(e) for e in value]


def _finite_numbers(values):
    """Whether every value is a finite int or float. json reads NaN,
    Infinity and integers too large for a float; the type pass runs
    first, so isfinite sees only ints and floats."""
    try:
        return ({int, float}.issuperset(map(type, values))
                and all(map(math.isfinite, values)))
    except OverflowError:
        return False


def _number_map(value, key, path):
    if not (isinstance(value, dict) and _finite_numbers(value.values())):
        raise ValueError(f'{path}: "{key}" must be an object of finite numbers')
    return value


def _digit_grid(text):
    """Decode text that is whole lines "d,d,...,d\\n", single ASCII
    digits d and every line the same length, into an (m, width) int64
    array stored column-major; None for any other text."""
    length = text.find("\n") + 1
    if not length or length % 2 or len(text) % length or not text.isascii():
        return None
    grid = np.frombuffer(text.encode(), dtype=np.uint8).reshape(-1, length)
    digits = grid[:, ::2] - ord("0")  # uint8: a byte below "0" wraps above 9
    if ((digits > 9).any() or (grid[:, 1:-1:2] != ord(",")).any()
            or (grid[:, -1] != ord("\n")).any()):
        return None
    return digits.astype(np.int64, order="F")


def _int_rows(lines):
    """Parse lines of comma-separated integers into a 2-D int64 array.

    A single-digit grid is decoded from its bytes, any other lines by
    np.loadtxt. Returns None when numpy refuses the lines or warns
    about them (a block holding only empty lines), or when they hold
    a non-ASCII character that is not whitespace, which numpy's parser
    may read as a digit ("\u01ff" as 463). '#' starts no comment. A
    line holding a newline can come back as more than one row, so
    callers check the row count.
    """
    text = "\n".join([*lines, ""])
    rows = _digit_grid(text)
    if rows is not None:
        return rows
    if not text.isascii():
        spaces = {ord(c): " " for c in set(text) if c.isspace() and not c.isascii()}
        lines = [line.translate(spaces) for line in lines]
        if not all(map(str.isascii, lines)):
            return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(lines, delimiter=",", dtype=np.int64, ndmin=2,
                              comments=None)
    except (ValueError, Warning):
        return None


def _fits(rows, count, width, bounds):
    return (rows is not None and rows.shape == (count, width)
            and (bounds is None or not ((rows < 0).any() or (rows >= bounds).any())))


def _int_key_blocks(path, keys, width, label="key",
                    grammar="is not comma-separated integers", lines=None,
                    bounds=None):
    """Parse JSON object keys of `width` comma-separated integers.

    Yields (start, rows) per block of at most _BLOCK_LINES keys, where
    rows is the int64 array of keys[start:start + len(rows)]. `lines`
    is the text parsed for each key where that is not the key itself;
    `bounds`, when given, are exclusive upper bounds per column, and 0
    is every column's lower bound. A block that fails is parsed again
    with its line breaks read as spaces, and then one key at a time, and
    the error names the first bad key in file order: not integers, the
    wrong width, or out of range, which an integer too wide for int64
    always is.
    """
    lines = keys if lines is None else lines
    for start in range(0, len(keys), _BLOCK_LINES):
        block = lines[start:start + _BLOCK_LINES]
        rows = _int_rows(block)
        if not _fits(rows, len(block), width, bounds):
            block = [line.translate(_BREAKS_TO_SPACES) for line in block]
            rows = _int_rows(block)
        if not _fits(rows, len(block), width, bounds):
            for key, line in zip(keys[start:start + len(block)], block):
                row = _int_rows([line])
                wide = row is None
                if wide:
                    row = _int_rows([line.translate(_ZERO_DIGITS)])
                if row is None:
                    problem = grammar
                elif row.shape[1] != width:
                    problem = "has wrong arity"
                elif wide or not _fits(row, 1, width, bounds):
                    problem = "is out of range"
                else:
                    continue
                raise ValueError(f"{path}: {label} {key!r} {problem}")
            raise ValueError(f"{path}: keys must be comma-separated integers")
        yield start, rows


def _int_key_rows(path, keys, width, **kwargs):
    """The rows of _int_key_blocks as one (len(keys), width) array."""
    return np.concatenate([np.empty((0, width), dtype=np.int64),
                           *(rows for _, rows in _int_key_blocks(path, keys, width, **kwargs))])


def _int_key_items(path, mapping, width, **kwargs):
    """(integers of the key as a list, value) per item of a JSON object."""
    return zip(_int_key_rows(path, list(mapping), width, **kwargs).tolist(), mapping.values())


def load_graph(path):
    """Read a graph file; returns (UndirectedGraph, BackboneTree | None).

    An "n" above 16,384 vertices raises InstanceTooLargeError. A
    backbone without an explicit degree_bound keeps degree_bound None:
    any degree is allowed.
    """
    obj = _load_json(path)
    n = _integer(_require(obj, "n", path), "n", path)
    if n > MAX_VERTICES:
        raise InstanceTooLargeError(
            f'{path}: "n" is {n}, above the vertex limit {MAX_VERTICES}')
    edges = _edge_list(_require(obj, "edges", path), "edges", path)
    weights = None
    if obj.get("weights") is not None:
        weights = {(u, v): float(w) for (u, v), w in _int_key_items(
            path, _number_map(obj["weights"], "weights", path), 2)}
    g = UndirectedGraph(n, edges, weights)
    h = None
    if obj.get("backbone") is not None:
        bound = obj.get("degree_bound")
        h = BackboneTree(n, _edge_list(obj["backbone"], "backbone", path),
                         _integer(bound, "degree_bound", path)
                         if bound is not None else None)
    return g, h


def save_graph(path, g: UndirectedGraph, h: BackboneTree | None = None):
    obj = {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}
    if g.weights is not None:
        obj["weights"] = {f"{u},{v}": w for (u, v), w in g.weights.items()}
    if h is not None:
        obj["backbone"] = [list(e) for e in sorted(h.edges)]
        if h.degree_bound is not None:
            obj["degree_bound"] = h.degree_bound
    _dump_json(path, obj)


def _pivot_line(key):
    """A pivot key "w|b1,...,bk" as the line "w,b1,...,bk"; a key with
    no "|", or a "," before it, becomes "|", which parses as no integer."""
    w, bar, base = key.partition("|")
    return f"{w},{base}" if bar and "," not in w else "|"


def load_scores(path, n) -> ExplicitScoreOracle:
    """Read explicit score tables for a graph on n vertices; absent
    entries mean forbidden, and a "k" outside 1..n-1 or a key naming a
    vertex outside 0..n-1 is an error. The parsed key rows go to
    ExplicitScoreOracle as arrays, and its errors name the file."""
    obj = _load_json(path)
    k = _integer(_require(obj, "k", path), "k", path)
    if not 1 <= k < n:
        raise ValueError(f'{path}: "k" must satisfy 1 <= k < n, got k={k}, n={n}')
    bounds = (n,) * (k + 1)
    roots = _number_map(obj.get("root", {}), "root", path)
    root_rows = _int_key_rows(path, list(roots), k + 1, bounds=bounds)
    pivots = _number_map(obj.get("pivot", {}), "pivot", path)
    pivot_rows = _int_key_rows(path, list(pivots), k + 1, grammar='is not "pivot|base" integers',
                               lines=list(map(_pivot_line, pivots)), bounds=bounds)
    try:
        return ExplicitScoreOracle(k, (root_rows, list(roots.values())),
                                   (pivot_rows, list(pivots.values())))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_scores(path, oracle: ExplicitScoreOracle):
    obj = {
        "k": oracle.k,
        "root": {",".join(map(str, c)): s for c, s in oracle.root_scores.items()},
        "pivot": {f"{w}|" + ",".join(map(str, sorted(b))): s
                  for (w, b), s in oracle.pivot_scores.items()},
    }
    _dump_json(path, obj)


def load_samples(path) -> SampleMatrix:
    """Read a samples CSV with header x0,x1,...,x{n-1}.

    Rows are comma-separated integers; blank lines are skipped and '#'
    starts no comment. The body is read once: rows of single digits,
    every line ending in a newline, are decoded from its bytes in one
    pass, and any other body is split into lines at newlines only.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        body = fh.read()
    cols = header.split(",") if header else []
    if not cols or cols != [f"x{i}" for i in range(len(cols))]:
        raise ValueError(f"{path}: header must be x0,x1,...")
    data = _digit_grid(body)
    if data is None or data.shape[1] != len(cols):
        rows = [row for line in body.split("\n") if (row := line.strip())]
        if not rows:
            raise ValueError(f"{path}: no sample rows")
        data = _int_rows(rows)
        if data is None or data.shape[1] != len(cols):
            if any(row.count(",") != len(cols) - 1 for row in rows):
                raise ValueError(f"{path}: row width disagrees with header")
            raise ValueError(f"{path}: non-integer cell in sample rows")
    # no other reference to data exists, so SampleMatrix may keep it
    # without a copy when it is already column-major
    data.flags.writeable = False
    return SampleMatrix(data)


def save_samples(path, samples: SampleMatrix):
    m, n = samples.data.shape
    with open(path, "w") as fh:
        fh.write(",".join(f"x{i}" for i in range(n)) + "\n")
        if n and max(samples.alphabet_sizes) <= 10:
            # the bytes "%d" would give: digits, then "," or a newline
            grid = np.full((m, 2 * n), ord(","), dtype=np.uint8)
            grid[:, ::2] = samples.data
            grid[:, ::2] += ord("0")
            grid[:, -1] = ord("\n")
            fh.write(grid.tobytes().decode("ascii"))
            return
        line = ",".join(["%d"] * n) + "\n"
        for start in range(0, m, _BLOCK_LINES):
            block = samples.data[start:start + _BLOCK_LINES]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def _joint_frame(shape, variables):
    """The text save_joint writes before the first "probs" line and
    after the last one."""
    sep = ",\n    "
    return ('{\n  "alphabets": [\n    ' + sep.join(map(str, shape))
            + '\n  ],\n  "probs": {\n    ',
            '\n  },\n  "vars": [\n    ' + sep.join(map(str, variables)) + "\n  ]\n}\n")


def _read_layout(path):
    """(variables, table) of a joint whose bytes are exactly save_joint's
    layout with every alphabet in 1..10, read by whole-array passes; None
    for any other file.

    Single-digit labels sort as numbers, so the lines are the cells in
    row-major order. Each block of _BLOCK_LINES lines must start with
    the cells' own keys; blanking those prefixes leaves one JSON array
    of the block's values, which must hold one finite number per line,
    by the rule _number_map applies.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        shape, variables = (
            [int(x) for x in part[part.index(b"[") + 1:part.index(b"]")].split(b",")]
            for part in (data[:data.index(b'"probs"')], data[data.rindex(b'"vars"'):]))
    except ValueError:
        return None
    head, tail = (part.encode() for part in _joint_frame(shape, variables))
    cells = math.prod(shape)
    # a label of two digits matches no line's prefix; wider alphabets
    # are left to the JSON parser before the body is scanned
    if not (data.startswith(head) and data.endswith(tail) and len(variables) == len(shape)
            and all(1 <= a <= 10 for a in shape) and cells <= MAX_TABLE_CELLS):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    # from the newline before the first line to the one after the last
    lo, hi = len(head) - 5, len(data) - len(tail) + 1
    breaks = np.flatnonzero(buf[lo:hi] == ord("\n")) + lo
    width = 2 * len(shape) + 7
    if len(breaks) != cells + 1 or (buf[breaks[1:-1] - 1] != ord(",")).any():
        return None
    prefix = np.frombuffer(('    "' + ",".join("0" * len(shape)) + '": ').encode(),
                           dtype=np.uint8)
    table = np.empty(cells)
    for start in range(0, cells, _BLOCK_LINES):
        stop = min(start + _BLOCK_LINES, cells)
        starts = breaks[start:stop] + 1
        lines = sliding_window_view(buf, width)[starts]
        try:
            # a key's digits are every other byte after '    "'; any byte
            # other than a digit within its axis's alphabet raises
            codes = np.ravel_multi_index(lines[:, 5:width - 3:2].T - ord("0"), shape)
        except ValueError:
            return None
        if ((lines != prefix) & (prefix != ord("0"))).any() or (
                codes != np.arange(start, stop)).any():
            return None
        # the newline before the block and the comma after it become brackets
        text = bytearray(memoryview(data)[starts[0] - 1:breaks[stop] + (stop == cells)])
        text[0], text[-1] = ord("["), ord("]")
        sliding_window_view(np.frombuffer(text, dtype=np.uint8), width,
                            writeable=True)[starts - starts[0] + 1] = ord(" ")
        try:
            values = json.loads(text)
        except ValueError:
            return None
        if len(values) != stop - start or not _finite_numbers(values):
            return None
        table[start:stop] = np.fromiter(values, dtype=float, count=len(values))
    return variables, table.reshape(shape)


def load_joint(path) -> JointTable:
    """Read a dense joint table; absent assignments count as zero.

    A file in save_joint's layout is read by _read_layout; any other
    goes through the JSON parser, to the same table or the same error.
    """
    layout = _read_layout(path)
    if layout is None:
        obj = _load_json(path)
        variables = _integer_list(_require(obj, "vars", path), "vars", path)
        alphabets = _integer_list(_require(obj, "alphabets", path), "alphabets", path)
        probs = _number_map(_require(obj, "probs", path), "probs", path)
        if len(variables) != len(alphabets):
            raise ValueError(f"{path}: vars and alphabets differ in length")
        if any(a < 1 for a in alphabets):
            raise ValueError(f'{path}: "alphabets" must be positive integers')
        cells = math.prod(alphabets)
        if cells > MAX_TABLE_CELLS:
            raise InstanceTooLargeError(
                f"{path}: assignment space has {cells} cells (limit {MAX_TABLE_CELLS})")
        table = np.zeros(tuple(alphabets))
        keys = list(probs)
        values = np.fromiter(probs.values(), dtype=float, count=len(keys))
        for start, idx in _int_key_blocks(path, keys, len(alphabets),
                                          label="assignment", bounds=alphabets):
            # a later key naming the same cell overwrites it, as in file order
            table.reshape(-1)[np.ravel_multi_index(idx.T, table.shape)] = \
                values[start:start + len(idx)]
    else:
        variables, table = layout
    try:
        return JointTable(tuple(variables), table)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_joint(path, p: JointTable):
    """Write the bytes _dump_json would give the joint's layout object,
    the "probs" lines a block of _BLOCK_LINES cells at a time, so no
    dict of every key is built.

    Each axis's labels are sorted as strings; since "," sorts below
    every digit, the product of those orders is the sort_keys order of
    the "a,b,..." keys, and the table is read in that order."""
    labels = [sorted(map(str, range(a))) for a in p.table.shape]
    cells = p.table[np.ix_(*[list(map(int, axis)) for axis in labels])].ravel()
    keys = map(",".join, itertools.product(*labels))
    head, tail = _joint_frame(p.table.shape, p.variables)
    sep = ",\n    "
    with open(path, "w") as fh:
        fh.write(head)
        for start in range(0, cells.size, _BLOCK_LINES):
            values = cells[start:start + _BLOCK_LINES].tolist()
            lines = [f'"{key}": {value!r}'
                     for key, value in zip(itertools.islice(keys, len(values)), values)]
            fh.write((sep if start else "") + sep.join(lines))
        fh.write(tail)


def _write_ktree(path, t: KTree, scores=None):
    """Write the bytes _dump_json gives the result object {"cliques":
    [{"base", "pivot", "score"}, ...], "edges", "k", "root", "score"} of
    a k-tree, filled into one "%" template per list.

    Without scores the "score" keys are left out. Otherwise scores holds
    one value per attached clique, in creation order, then the total;
    json encodes them in one pass, one per line, so each number, NaN
    and infinity reads as json.dump writes it."""
    k = t.k
    attached = t.creation_order[k + 1:]
    item = ('    {\n      "base": [\n        ' + ",\n        ".join(["%d"] * k)
            + '\n      ],\n      "pivot": %d'
            + ("" if scores is None else ',\n      "score": %s') + "\n    }")
    if scores is None:
        cells = [x for w, base in attached for x in (*base, w)]
    else:
        scores = json.dumps(scores, separators=("\n", ": "))[1:-1].split("\n")
        cells = [x for (w, base), s in zip(attached, scores) for x in (*base, w, s)]
    cliques = "[\n" + ",\n".join([item] * len(attached)) % tuple(cells) + "\n  ]"
    edges = tuple(itertools.chain.from_iterable(sorted(t.edges)))
    root = sorted(v for v, _ in t.creation_order[:k + 1])
    text = "".join([
        '{\n  "cliques": ', cliques if attached else "[]", ',\n  "edges": [\n',
        ",\n".join(["    [\n      %d,\n      %d\n    ]"] * (len(edges) // 2)) % edges,
        '\n  ],\n  "k": %d,\n  "root": [\n    ' % k, ",\n    ".join(map(str, root)),
        "\n  ]" if scores is None else '\n  ],\n  "score": ' + scores[-1], "\n}\n"])
    with open(path, "w") as fh:
        fh.write(text)


def save_ktree(path, t: KTree):
    """Write a bare k-tree (no scores) in the result-file layout."""
    _write_ktree(path, t)


def save_result(path, result, oracle):
    """Write a solver.SolveResult; per-clique scores come from the oracle."""
    t = result.ktree
    _write_ktree(path, t, [*(oracle.score(w, base) for w, base in t.creation_order[t.k + 1:]),
                           result.score])


def load_result_ktree(path):
    """Rebuild the k-tree encoded in a result or truth file.

    Returns (KTree, raw object). The creation order is recovered from
    the root clique plus the clique list in file order and checked
    against the explicit edge list.
    """
    obj = _load_json(path)
    k = _integer(_require(obj, "k", path), "k", path)
    root = _integer_list(_require(obj, "root", path), "root", path)
    if k < 1:
        raise ValueError(f'{path}: "k" must be at least 1')
    if len(root) != k + 1:
        raise ValueError(f"{path}: root must list {k + 1} vertices")
    order = [(v, tuple(root[:j])) for j, v in enumerate(root)]
    cliques = _require(obj, "cliques", path)
    if not isinstance(cliques, list) or not all(isinstance(c, dict) for c in cliques):
        raise ValueError(f'{path}: "cliques" must be a list of objects')
    for item in cliques:
        pivot = _integer(_require(item, "pivot", path), "pivot", path)
        base = _integer_list(_require(item, "base", path), "base", path)
        order.append((pivot, tuple(base)))
    try:
        t = KTree.from_creation_order(len(order), k, order)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    edges = {normalize_edge(u, v)
             for u, v in _edge_list(_require(obj, "edges", path), "edges", path)}
    if edges != t.edges:
        raise ValueError(f"{path}: edge list disagrees with the clique list")
    return t, obj


def ktree_to_dot(t: KTree, h: BackboneTree | None = None) -> str:
    """Render the k-tree in DOT; backbone edges are drawn bold."""
    backbone = h.edges if h is not None else frozenset()
    lines = ["graph ktree {"]
    touched = set()
    for u, v in sorted(t.edges):
        touched.update((u, v))
        style = " [style=bold]" if (u, v) in backbone else ""
        lines.append(f"  {u} -- {v}{style};")
    for v in range(t.n):
        if v not in touched:
            lines.append(f"  {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_dot(path, t: KTree, h: BackboneTree | None = None):
    with open(path, "w") as fh:
        fh.write(ktree_to_dot(t, h))
