"""The input contract: every file a command reads, however damaged,
ends in exit 0, 1 or 2 with an error message, never a traceback."""

import json
import math
import random

import numpy as np
import pytest

from ktspan.cli import main
from ktspan.fileio import load_samples, save_joint, save_samples
from ktspan.information import JointTable, SampleMatrix

HUGE = 2 ** 70

# the files of one seeded instance and, per file, the commands that read
# it; every other file a command names is left intact
READERS = {
    "graph.json": ("fit", "solve-scores", "solve-samples", "oracle", "reduce"),
    "samples.csv": ("fit", "solve-samples", "chowliu"),
    "truth.json": ("kl-truth",),
    "scores.json": ("solve-scores", "oracle"),
    "result.json": ("kl",),
    "joint.json": ("kl", "kl-truth"),
}

# JSON values swapped in for any value of a file
SWAPS = (None, True, False, "x", [], {}, 1e308, HUGE, -HUGE, math.nan)

# sample cells swapped in for any cell of the samples file
CELLS = ("", "-1", str(HUGE), str(-HUGE), "1e308", "nan", "x", " 3 ", "0,1")

# bytes a byte-level mutation writes
BYTES = b'0169-+.,:|"{}[]\n\r \t\xff\x00'


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    """gen, fit and solve output for one small seeded instance, plus a
    uniform joint table over its variables for kl."""
    out = tmp_path_factory.mktemp("contract")
    assert main(["gen", "--n", "7", "--k", "2", "--degree", "3",
                 "--samples", "300", "--seed", "3", "--out", str(out)]) == 0
    assert main(["fit", "--samples", str(out / "samples.csv"),
                 "--graph", str(out / "graph.json"), "--k", "2",
                 "--out", str(out / "scores.json")]) == 0
    assert main(["solve", "--graph", str(out / "graph.json"),
                 "--scores", str(out / "scores.json"), "--k", "2",
                 "--out", str(out / "result.json")]) == 0
    save_joint(out / "joint.json",
               JointTable(tuple(range(7)), np.full((2,) * 7, 1 / 2 ** 7)))
    return out


@pytest.fixture(scope="module")
def large_instance(tmp_path_factory):
    """An instance whose joint and samples take the readers' wider
    paths: a joint over 14 binary variables (16,384 keys, more than one
    parse block) and samples with one 12-symbol column (written and read
    by the "%d" writer and numpy's text parser, not the digit grid)."""
    out = tmp_path_factory.mktemp("contract-large")
    n = 14
    assert main(["gen", "--n", str(n), "--k", "2", "--degree", "3",
                 "--samples", "200", "--seed", "4", "--out", str(out)]) == 0
    samples = load_samples(out / "samples.csv").data.copy()
    samples[:, 0] = np.arange(len(samples)) % 12
    save_samples(out / "samples.csv", SampleMatrix(samples))
    assert main(["fit", "--samples", str(out / "samples.csv"),
                 "--graph", str(out / "graph.json"), "--k", "2",
                 "--out", str(out / "scores.json")]) == 0
    assert main(["solve", "--graph", str(out / "graph.json"),
                 "--scores", str(out / "scores.json"), "--k", "2",
                 "--out", str(out / "result.json")]) == 0
    table = np.random.default_rng(4).random((2,) * n)
    save_joint(out / "joint.json", JointTable(tuple(range(n)), table / table.sum()))
    return out


def argv(command, paths, out):
    """The argument list of one reading command over the files paths
    names; what it writes goes to out."""
    p = {name: str(path) for name, path in paths.items()}
    return {
        "fit": ["fit", "--samples", p["samples.csv"], "--graph", p["graph.json"],
                "--k", "2", "--out", str(out / "scores.json")],
        "solve-scores": ["solve", "--graph", p["graph.json"],
                         "--scores", p["scores.json"], "--k", "2",
                         "--out", str(out / "result.json")],
        "solve-samples": ["solve", "--graph", p["graph.json"],
                          "--samples", p["samples.csv"], "--k", "2",
                          "--out", str(out / "result.dot"), "--format", "dot"],
        "oracle": ["oracle", "--graph", p["graph.json"], "--k", "2",
                   "--scores", p["scores.json"]],
        "reduce": ["reduce-clique", "--graph", p["graph.json"], "--k", "3"],
        "chowliu": ["chowliu", "--samples", p["samples.csv"],
                    "--out", str(out / "tree.json")],
        "kl": ["kl", "--joint", p["joint.json"], "--result", p["result.json"]],
        "kl-truth": ["kl", "--joint", p["joint.json"], "--result", p["truth.json"]],
    }[command]


def _pick_node(rng, doc):
    """A random node of a JSON document, as the path of keys and indexes
    that reaches it: the walk from the top stops at each level with
    probability 0.3."""
    path = []
    node = doc
    while isinstance(node, (dict, list)) and node and rng.random() < 0.7:
        key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
        path.append(key)
        node = node[key]
    return path


def _set(doc, path, value):
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def mutate_json(rng, text):
    """A value swap, key deletion or key rename somewhere in the JSON
    text, and a description of it."""
    doc = json.loads(text)
    path = _pick_node(rng, doc)
    kind = rng.choice(("swap", "swap", "delete", "rename"))
    if kind != "swap":
        # the key goes from the object holding the picked node, or from
        # the picked object itself at the top
        holder_path = path[:-1] if path else []
        holder = doc
        for key in holder_path:
            holder = holder[key]
        if isinstance(holder, dict) and holder:
            key = path[-1] if path else rng.choice(list(holder))
            value = holder.pop(key)
            if kind == "rename":
                new = rng.choice((key + "_", key.upper(), "", " " + key, key[:-1]))
                holder[new] = value
                return json.dumps(doc), f"rename {holder_path + [key]} to {new!r}"
            return json.dumps(doc), f"delete {holder_path + [key]}"
    value = rng.choice(SWAPS)
    return json.dumps(_set(doc, path, value)), f"swap {path} for {value!r}"


def top_level_mutations(text):
    """Every value swap, deletion and rename of a top-level key of the
    JSON text, each with a description."""
    doc = json.loads(text)
    for key in doc:
        for value in SWAPS:
            yield json.dumps(dict(doc, **{key: value})), f"swap {key!r} for {value!r}"
        rest = {k: v for k, v in doc.items() if k != key}
        yield json.dumps(rest), f"delete {key!r}"
        yield json.dumps(dict(rest, **{key + "_": doc[key]})), f"rename {key!r}"


def mutate_cells(rng, text):
    """One sample cell replaced, and a description of it."""
    lines = text.split("\n")
    row = rng.randrange(len(lines) - 1)
    cells = lines[row].split(",")
    col = rng.randrange(len(cells))
    cells[col] = rng.choice(CELLS)
    lines[row] = ",".join(cells)
    return "\n".join(lines), f"cell ({row}, {col}) set to {cells[col]!r}"


def mutate_bytes(rng, data):
    """A byte flip, truncation or insert, and a description of it."""
    pos = rng.randrange(len(data) + 1)
    kind = rng.choice(("flip", "truncate", "insert"))
    if kind == "truncate":
        return data[:pos], f"truncate at {pos}"
    byte = bytes([rng.choice(BYTES) if rng.random() < 0.8 else rng.randrange(256)])
    if kind == "flip" and pos < len(data):
        return data[:pos] + byte + data[pos + 1:], f"byte {pos} set to {byte!r}"
    return data[:pos] + byte + data[pos:], f"{byte!r} inserted at {pos}"


def mutations(name, original, trials=40):
    """Seeded mutations of one file's bytes, each with a description:
    every top-level mutation of a JSON file, then trials random ones,
    alternately structural and byte-level."""
    rng = random.Random(f"contract-{name}")
    csv = name.endswith(".csv")
    if not csv:
        for text, what in top_level_mutations(original.decode()):
            yield text.encode(), what
    for trial in range(trials):
        if trial % 2:
            yield mutate_bytes(rng, original)
        else:
            text, what = (mutate_cells if csv else mutate_json)(rng, original.decode())
            yield text.encode(), what


def check_mutations(instance, tmp_path, capsys, name):
    """Run every command that reads the file name on each of its
    mutations, the instance's other files intact."""
    paths = {other: instance / other for other in READERS}
    paths[name] = tmp_path / name
    codes = set()
    for data, what in mutations(name, (instance / name).read_bytes()):
        paths[name].write_bytes(data)
        for command in READERS[name]:
            try:
                code = main(argv(command, paths, tmp_path))
            except Exception as exc:
                pytest.fail(f"{name}, {what}: {command} raised {exc!r}")
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (name, what, command, code)
            assert "Traceback" not in err, (name, what, command, err)
            if code:
                assert err.startswith("error: ") or code == 2, (name, what, err)
            codes.add(code)
    # the mutated file is the one the commands read
    assert 1 in codes


@pytest.mark.parametrize("name", sorted(READERS))
def test_mutated_inputs_exit_cleanly(instance, tmp_path, capsys, name):
    check_mutations(instance, tmp_path, capsys, name)


@pytest.mark.parametrize("name", ["joint.json", "samples.csv"])
def test_mutated_large_inputs_exit_cleanly(large_instance, tmp_path, capsys, name):
    check_mutations(large_instance, tmp_path, capsys, name)


@pytest.mark.parametrize("k", [HUGE, -HUGE])
def test_huge_score_k_is_a_data_error(instance, tmp_path, capsys, k):
    scores = json.loads((instance / "scores.json").read_text())
    scores["k"] = k
    path = tmp_path / "scores.json"
    path.write_text(json.dumps(scores))
    assert main(["solve", "--graph", str(instance / "graph.json"),
                 "--scores", str(path), "--k", "2",
                 "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err == (
        f'error: {path}: "k" must satisfy 1 <= k < n, got k={k}, n=7\n')


@pytest.mark.parametrize("command", ["fit", "solve-scores", "solve-samples",
                                     "oracle", "reduce"])
def test_huge_graph_n_is_a_data_error(instance, tmp_path, capsys, command):
    graph = json.loads((instance / "graph.json").read_text())
    graph["n"] = HUGE
    paths = {name: instance / name for name in READERS}
    paths["graph.json"] = tmp_path / "graph.json"
    paths["graph.json"].write_text(json.dumps(graph))
    assert main(argv(command, paths, tmp_path)) == 1
    assert capsys.readouterr().err == (
        f'error: {paths["graph.json"]}: "n" is {HUGE}, above the vertex '
        f'limit 16384\n')
