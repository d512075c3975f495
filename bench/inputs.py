"""Write a workload's inputs for one seed into a directory and exit.

    python3 bench/inputs.py --workload sparse-sweep --seed 5 --out inputs/

The files are the ones a benchmark run builds in its set-up: graph and
score JSON for `sparse-sweep`, weighted graph JSON for `dense-dp`, and
for `mi-pipeline` the joint table plus what `ktspan gen` writes for the
seed (graph, samples, truth). Nothing is timed or checked.
"""

import argparse
import os
import sys

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    _, workloads, _ = run.import_package()
    os.makedirs(args.out, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, "full", args.out)
    wl.setup()
    for op in wl.operations():
        if op.kind == workloads.GEN:
            op.fn()
    for name in sorted(os.listdir(args.out)):
        print(os.path.join(args.out, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
