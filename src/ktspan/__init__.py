"""Backbone-retaining maximum-score k-tree toolkit."""

from .errors import (
    InconsistentPartitionError,
    InfeasibleError,
    InstanceTooLargeError,
    KtspanError,
    NotRetainingError,
)
from .graphs import (
    BackboneTree,
    Clique,
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
from .separation import component_count_bound, components_masks
from .information import (
    ConditionalTable,
    ExplicitScoreOracle,
    JointTable,
    MutualInformationOracle,
    SampleMatrix,
    ScoreOracle,
    WeightProductOracle,
    build_mi_oracle,
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
    EnumerationReport,
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
