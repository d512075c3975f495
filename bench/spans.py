"""Spans around calls into ktspan, recorded from the benchmark's side.

Nothing in the package is edited. `Tracer.install` rebinds the names
that callers look up (module attributes and oracle methods) to thin
wrappers that time each call and charge its duration to the enclosing
span, so every layer gets a total and a self time. Spans are kept in
memory, aggregated per (name, parent name) for the current round, and
`uninstall` puts the original objects back.
"""

from __future__ import annotations

import functools
import os
import sys
import time

from ktspan import fileio, generate, graphs, information, separation, solver

SOLVER = "solver.solve"
ORACLE_SCORE = "information.oracle_score"
ORACLE_ROOT = "information.oracle_root"
COMPONENTS = "separation.components"
ENTROPY = "information.entropy"
VALIDATE = "graphs.validate"

# span name -> functions whose calls it covers
_FUNCTIONS = {
    ENTROPY: [information.entropy],
    "information.materialize": [information.materialize_scores],
    "information.projection": [information.markov_ktree_distribution],
    "information.divergence": [information.kl_divergence],
    "fileio.load": [fileio.load_graph, fileio.load_scores, fileio.load_samples,
                    fileio.load_joint, fileio.load_result_ktree],
    "fileio.save": [fileio.save_graph, fileio.save_scores, fileio.save_samples,
                    fileio.save_joint, fileio.save_ktree, fileio.save_result,
                    fileio.save_dot],
    COMPONENTS: [separation.components_masks],
    SOLVER: [solver.solve_retaining_mskt],
    VALIDATE: [graphs.validate_ktree],
    "graphs.decomposition": [graphs.build_tree_decomposition],
    "generate.gen_instance": [generate.gen_instance],
}

# the per-layer metrics `Tracer.layer_metrics` reports, with their units
LAYER_UNITS = {
    "information.entropy_calls": "count",
    "information.entropy_subsets": "count",
    "information.entropy_calls_per_subset": "calls/subset",
    "information.entropy_s": "s",
    "information.materialize_s": "s",
    "information.oracle_score_calls": "count",
    "information.oracle_score_s": "s",
    "information.oracle_root_calls": "count",
    "information.oracle_root_s": "s",
    "information.projection_s": "s",
    "information.divergence_s": "s",
    "fileio.load_s": "s",
    "fileio.save_s": "s",
    "fileio.bytes_read": "bytes",
    "fileio.bytes_written": "bytes",
    "separation.components_calls": "count",
    "separation.components_s": "s",
    "solver.solve_s": "s",
    "solver.self_s": "s",
    "solver.s_per_clique": "s/clique",
    "solver.roots_scored": "count",
    "graphs.validate_calls": "count",
    "graphs.validate_s": "s",
    "graphs.decomposition_s": "s",
    "generate.gen_instance_s": "s",
}

_ORACLES = (information.MutualInformationOracle,
            information.WeightProductOracle,
            information.ExplicitScoreOracle)


class Tracer:
    """Per-round span aggregates plus the counters the spans feed."""

    def __init__(self):
        self._stack = []
        self._undo = []
        self.reset()

    def reset(self):
        """Start a new round: drop the aggregates of the previous one."""
        # (name, parent) -> [calls, total seconds, self seconds]
        self.spans = {}
        self.entropy_subsets = set()
        self.bytes_read = 0
        self.bytes_written = 0

    def _wrap(self, name, fn, before=None, after=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = self.spans.get((name, parent))
                if rec is None:
                    rec = self.spans[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if after is not None:
                after(args)
            return result

        return traced

    def _entropy_subset(self, args):
        self.entropy_subsets.add(frozenset(args[1]))

    def _read(self, args):
        self.bytes_read += os.path.getsize(args[0])

    def _written(self, args):
        self.bytes_written += os.path.getsize(args[0])

    def install(self):
        """Rebind every ktspan name that refers to a traced function."""
        hooks = {ENTROPY: (self._entropy_subset, None),
                 "fileio.load": (self._read, None),
                 "fileio.save": (None, self._written)}
        for name, fns in _FUNCTIONS.items():
            before, after = hooks.get(name, (None, None))
            for fn in fns:
                wrapped = self._wrap(name, fn, before, after)
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("ktspan"):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._rebind(mod, attr, wrapped)
        for cls in _ORACLES:
            self._rebind(cls, "score", self._wrap(ORACLE_SCORE, cls.score))
            self._rebind(cls, "root_score", self._wrap(ORACLE_ROOT, cls.root_score))

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _sum(self, name, field, parent=Ellipsis):
        # field 0 counts calls, fields 1 and 2 are seconds
        return sum((rec[field] for (n, p), rec in self.spans.items()
                    if n == name and (parent is Ellipsis or p == parent)),
                   0 if field == 0 else 0.0)

    def layer_metrics(self) -> dict:
        """The per-layer metrics of the round traced since `reset`."""
        calls = lambda name, parent=Ellipsis: self._sum(name, 0, parent)
        total = lambda name: self._sum(name, 1)
        solve_s = total(SOLVER)
        self_s = self._sum(SOLVER, 2)
        cliques = calls(COMPONENTS, SOLVER)
        subsets = len(self.entropy_subsets)
        return {
            "information.entropy_calls": calls(ENTROPY),
            "information.entropy_subsets": subsets,
            "information.entropy_calls_per_subset":
                calls(ENTROPY) / subsets if subsets else 0.0,
            "information.entropy_s": total(ENTROPY),
            "information.materialize_s": total("information.materialize"),
            "information.oracle_score_calls": calls(ORACLE_SCORE),
            "information.oracle_score_s": total(ORACLE_SCORE),
            "information.oracle_root_calls": calls(ORACLE_ROOT),
            "information.oracle_root_s": total(ORACLE_ROOT),
            "information.projection_s": total("information.projection"),
            "information.divergence_s": total("information.divergence"),
            "fileio.load_s": total("fileio.load"),
            "fileio.save_s": total("fileio.save"),
            "fileio.bytes_read": self.bytes_read,
            "fileio.bytes_written": self.bytes_written,
            "separation.components_calls": calls(COMPONENTS),
            "separation.components_s": total(COMPONENTS),
            "solver.solve_s": solve_s,
            "solver.self_s": self_s,
            "solver.s_per_clique": self_s / cliques if cliques else 0.0,
            "solver.roots_scored": calls(ORACLE_ROOT, SOLVER),
            "graphs.validate_calls": calls(VALIDATE),
            "graphs.validate_s": total(VALIDATE),
            "graphs.decomposition_s": total("graphs.decomposition"),
            "generate.gen_instance_s": total("generate.gen_instance"),
        }
