"""Backbone-retaining maximum-score k-tree toolkit."""

from .errors import (
    InfeasibleError,
    InstanceTooLargeError,
    KtspanError,
    NotRetainingError,
)
from .graphs import (
    BackboneTree,
    KTree,
    TreeDecomposition,
    UndirectedGraph,
    build_tree_decomposition,
    normalize_edge,
    path_backbone,
    reroot,
    retains,
    require_retaining,
    validate_backbone,
    validate_ktree,
)
from .separation import components_masks
from .information import (
    ConditionalTable,
    ExplicitScoreOracle,
    JointTable,
    MutualInformationOracle,
    SampleMatrix,
    ScoreOracle,
    WeightProductOracle,
    entropy,
    kl_divergence,
    markov_ktree_distribution,
    materialize_scores,
    mutual_information,
    sample_markov_ktree,
    tables_to_joint,
    total_correlation,
)
from .solver import (
    SolveResult,
    chow_liu,
    rescore_result,
    score_ktree,
    solve_retaining_mskt,
)
from .bruteforce import (
    best_rooted_score,
    brute_max_score,
    brute_min_kl,
    enumerate_retaining_ktrees,
    max_clique_exists,
)
from .reduction import HMsktInstance, decide_kclique, reduce_kclique
from .generate import (
    gen_instance,
    gnp_graph,
    random_backbone,
    random_conditionals,
    random_explicit_scores,
    random_host_graph,
    random_joint_table,
    random_ktree,
    random_retaining_ktree,
)

__version__ = "0.1.0"
