"""Seeded benchmark of ktspan's MI pipeline, DP and root sweep.

    python3 bench/run.py --workload mi-pipeline --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
its `src/` directory. One process, no worker threads. The inputs are
built from --seed, then rounds of the workload's operations repeat
until --seconds of operations have been measured, and every round's
outputs are checked against independent recomputations. The last line
of stdout is one JSON object: `correct`, `attempted`, `failed`, and the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1),
each the median over rounds. Raw wall-clock medians go to stderr.
Scratch files go under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("mi-pipeline", "dense-dp", "sparse-sweep")
# set-up runs once before the rounds and again after each round, up to
# this many times; setup_s reports the median
SETUP_SAMPLES = 9
# setup_s is given in seconds at the host speed at which the reference
# kernel takes this long (about its time on the 2-vCPU development host)
REF_NOMINAL_S = 0.005


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Put the checkout's sources first on the path and import the
    benchmark modules (which import numpy and ktspan); returns them
    with the import time."""
    src = ROOT / "src"
    if not (src / "ktspan" / "__init__.py").is_file():
        raise FileNotFoundError(f"no ktspan sources under {src}")
    # every run compiles the sources afresh, so the first run of a
    # checkout times the same imports as the later ones
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import spans
    import workloads
    return spans, workloads, time.perf_counter() - t0


def reimport_package():
    """Import ktspan again from its sources, as a new process would. The
    modules in use (and any tracing wrappers on them) are put back."""
    ours = lambda name: name == "ktspan" or name.startswith("ktspan.")
    saved = {name: mod for name, mod in sys.modules.items() if ours(name)}
    for name in saved:
        del sys.modules[name]
    try:
        importlib.import_module("ktspan")
    finally:
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def run_round(ops, reference_seconds):
    """One timed pass over the operations, each preceded by a timing of
    the reference kernel.

    Returns (seconds per op kind, reference units per op kind, outputs
    by label, errors, reference seconds per op).
    """
    seconds = {}
    refs = {}
    outputs = {}
    errors = []
    ref_times = []
    clock = time.perf_counter
    for op in ops:
        ref = reference_seconds()
        ref_times.append(ref)
        t0 = clock()
        try:
            outputs[op.label] = op.fn()
        except Exception as ex:  # a failed operation is counted, not fatal
            errors.append(f"{op.label}: {type(ex).__name__}: {ex}")
        dt = clock() - t0
        seconds[op.kind] = seconds.get(op.kind, 0.0) + dt
        refs[op.kind] = refs.get(op.kind, 0.0) + dt / ref
    return seconds, refs, outputs, errors, ref_times


def measure(workloads, spans, name, seed, seconds, trace, size="full", workdir=None):
    """Set up, run rounds until `seconds` of operations, check them.

    Returns (result object, raw wall-clock medians for the log).
    """
    import reference  # after import_package has timed the numpy import

    wl = workloads.WORKLOADS[name](seed, size, workdir)

    def set_up():
        # the same inputs each time; spread over the run, the samples
        # see the host at the speed the rounds see it
        ref = reference.seconds()
        t0 = time.perf_counter()
        reimport_package()
        wl.setup()
        raw_setups.append(time.perf_counter() - t0)
        setups.append(raw_setups[-1] / ref * REF_NOMINAL_S)

    setups = []
    raw_setups = []
    set_up()
    ops = wl.operations()
    tracer = spans.Tracer() if trace else None
    rounds = []
    failures = []
    attempted = failed = bad_checks = 0
    measured = 0.0
    ref_times = []
    if tracer is not None:
        tracer.install()
    try:
        while not rounds or measured < seconds:
            # each round starts from a collected heap, as each CLI call
            # would in its own process, so peak memory does not depend
            # on when the collector last ran
            gc.collect()
            if tracer is not None:
                tracer.reset()
            secs, refs, outputs, errors, refs_seen = run_round(ops, reference.seconds)
            layers = tracer.layer_metrics() if tracer is not None else {}
            measured += sum(secs.values())
            ref_times.extend(refs_seen)
            attempted += len(ops)
            failed += len(errors)
            failures.extend(errors)
            if not errors:
                try:
                    wl.check(outputs)
                except workloads.CheckFailed as ex:
                    bad_checks += 1
                    failures.append(f"check: {ex}")
            rounds.append((secs, refs, layers))
            if len(setups) < SETUP_SAMPLES:
                set_up()
    finally:
        if tracer is not None:
            tracer.uninstall()
    for line in dict.fromkeys(failures):
        print(f"{name}: {line}", file=sys.stderr)

    med = statistics.median
    solve = lambda per_kind: sum(v for k, v in per_kind.items() if k in workloads.SOLVE_KINDS)
    if trace:
        # counts repeat exactly from round to round; median_low keeps them whole
        metrics = {key: ((med if unit == "s" else statistics.median_low)(
                       [layers[key] for _, _, layers in rounds]), unit)
                   for key, unit in spans.LAYER_UNITS.items()}
        for kind in workloads.CLI_KINDS:
            metrics[f"cli.{kind}_s"] = (med([secs.get(kind, 0.0) for secs, _, _ in rounds]), "s")
    else:
        metrics = {
            "setup_s": (med(setups), "s"),
            "round_ref": (med([sum(refs.values()) for _, refs, _ in rounds]), "ref"),
            "solve_ref": (med([solve(refs) for _, refs, _ in rounds]), "ref"),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    raw = {
        "rounds": len(rounds),
        "round_s": med([sum(secs.values()) for secs, _, _ in rounds]),
        "solve_s": med([solve(secs) for secs, _, _ in rounds]),
        "ref_s": med(ref_times),
        "setup_s": med(raw_setups),
        "setup_samples": len(setups),
    }
    result = {
        "correct": bad_checks == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return result, raw


def main(argv=None):
    args = parse_args(argv)
    try:
        spans, workloads, import_s = import_package()
    except (FileNotFoundError, ImportError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as workdir:
        result, raw = measure(workloads, spans, args.workload, args.seed, args.seconds,
                              args.trace, workdir=workdir)
    raw["first_import_s"] = import_s
    print(f"{args.workload}: wall-clock medians " + json.dumps(raw), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
