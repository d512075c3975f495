"""argparse front end.

Exit codes are a stable contract: 0 success, 2 infeasible, 1 for any
usage or data error. --threads is accepted for interface stability but
the driver is single-threaded; output bytes never depend on it.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import fileio
from .bruteforce import brute_max_score, enumerate_retaining_ktrees
from .errors import InfeasibleError, KtspanError
from .generate import gen_instance
from .information import (MutualInformationOracle, kl_divergence,
                          markov_ktree_distribution, materialize_scores)
from .reduction import decide_kclique
from .solver import chow_liu, rescore_result, solve_retaining_mskt


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the exit-code contract
    # reserves 2 for infeasible, so route usage errors to 1 instead.
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _add_threads(parser):
    parser.add_argument("--threads", type=_positive_int, default=1,
                        help="accepted for compatibility; output is identical for any value")


def _print_root(members):
    print("root " + ",".join(map(str, members)))


def cmd_fit(args) -> int:
    samples = fileio.load_samples(args.samples)
    g, _ = fileio.load_graph(args.graph)
    if samples.n != g.n:
        raise ValueError(f"samples have {samples.n} variables but graph has {g.n}")
    oracle = MutualInformationOracle(samples, g)
    fileio.save_scores(args.out, materialize_scores(oracle, g, args.k))
    return 0


def cmd_solve(args) -> int:
    g, h = fileio.load_graph(args.graph)
    if h is None:
        raise ValueError(f'{args.graph} is missing the "backbone" key')
    if args.scores is not None:
        oracle = fileio.load_scores(args.scores, g.n)
        if oracle.k != args.k:
            raise ValueError(f"score file is for k={oracle.k}, requested k={args.k}")
    else:
        samples = fileio.load_samples(args.samples)
        if samples.n != g.n:
            raise ValueError(f"samples have {samples.n} variables but graph has {g.n}")
        oracle = MutualInformationOracle(samples, g)
    result = solve_retaining_mskt(g, h, args.k, oracle)
    if args.format == "dot":
        fileio.save_dot(args.out, result.ktree, h)
    else:
        fileio.save_result(args.out, result, oracle)
    print(f"score {result.score}")
    _print_root(result.ktree.root_clique)
    print(f"root_score {result.root_score_component}")
    return 0


def cmd_chowliu(args) -> int:
    samples = fileio.load_samples(args.samples)
    t = chow_liu(samples)
    if args.format == "dot":
        fileio.save_dot(args.out, t)
    else:
        fileio.save_ktree(args.out, t)
    return 0


def cmd_kl(args) -> int:
    p = fileio.load_joint(args.joint)
    t, _ = fileio.load_result_ktree(args.result)
    pg = markov_ktree_distribution(t, p)
    print(f"{kl_divergence(p, pg):.6f}")
    return 0


def cmd_oracle(args) -> int:
    g, h = fileio.load_graph(args.graph)
    oracle = None
    if args.scores is not None:
        # a bad score file fails before the enumeration prints anything
        if h is None:
            raise ValueError(f'{args.graph} is missing the "backbone" key')
        oracle = fileio.load_scores(args.scores, g.n)
        if oracle.k != args.k:
            raise ValueError(f"score file is for k={oracle.k}, requested k={args.k}")
    ktrees = enumerate_retaining_ktrees(g, h, args.k)
    print(f"instances {len(ktrees)}")
    if oracle is not None:
        best, score = brute_max_score(ktrees, h, oracle)
        print(f"score {score}")
        if args.out is not None:
            fileio.save_result(args.out, rescore_result(best, h, oracle), oracle)
    return 0


def cmd_reduce_clique(args) -> int:
    g, _ = fileio.load_graph(args.graph)
    print("decision " + ("true" if decide_kclique(g, args.k) else "false"))
    return 0


def cmd_gen(args) -> int:
    inst = gen_instance(args.n, args.k, args.degree, args.samples, args.seed)
    os.makedirs(args.out, exist_ok=True)
    fileio.save_graph(os.path.join(args.out, "graph.json"), inst["g"], inst["h"])
    fileio.save_samples(os.path.join(args.out, "samples.csv"), inst["samples"])
    fileio.save_ktree(os.path.join(args.out, "truth.json"), inst["truth"])
    return 0


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="ktspan")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="estimate mutual-information scores from samples")
    p.add_argument("--samples", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--out", required=True)
    _add_threads(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("solve", help="maximum-score backbone-retaining k-tree")
    p.add_argument("--graph", required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--scores")
    src.add_argument("--samples")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    _add_threads(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("chowliu", help="maximum-MI spanning tree (k=1, no backbone)")
    p.add_argument("--samples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    _add_threads(p)
    p.set_defaults(func=cmd_chowliu)

    p = sub.add_parser("kl", help="divergence of a joint from a k-tree projection")
    p.add_argument("--joint", required=True)
    p.add_argument("--result", required=True)
    p.set_defaults(func=cmd_kl)

    p = sub.add_parser("oracle", help="exhaustive enumeration cross-check (tiny n)")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--scores")
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("reduce-clique", help="decide k-clique via the solver")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.set_defaults(func=cmd_reduce_clique)

    p = sub.add_parser("gen", help="random instance with ground truth")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--degree", type=_positive_int, required=True)
    p.add_argument("--samples", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except InfeasibleError as ex:
        print(str(ex), file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, KtspanError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
