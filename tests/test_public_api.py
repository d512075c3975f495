"""The package's public names, as a literal list.

A change that adds or removes a public name of ktspan has to edit the
list below, so the change shows in its diff.
"""

import types

import ktspan

PUBLIC_NAMES = [
    "BackboneTree",
    "ConditionalTable",
    "ExplicitScoreOracle",
    "HMsktInstance",
    "InfeasibleError",
    "InstanceTooLargeError",
    "JointTable",
    "KTree",
    "KtspanError",
    "MutualInformationOracle",
    "NotRetainingError",
    "SampleMatrix",
    "ScoreOracle",
    "SolveResult",
    "TreeDecomposition",
    "UndirectedGraph",
    "WeightProductOracle",
    "best_rooted_score",
    "brute_max_score",
    "brute_min_kl",
    "build_tree_decomposition",
    "chow_liu",
    "components_masks",
    "decide_kclique",
    "entropy",
    "enumerate_retaining_ktrees",
    "gen_instance",
    "gnp_graph",
    "kl_divergence",
    "markov_ktree_distribution",
    "materialize_scores",
    "max_clique_exists",
    "mutual_information",
    "normalize_edge",
    "path_backbone",
    "random_backbone",
    "random_conditionals",
    "random_explicit_scores",
    "random_host_graph",
    "random_joint_table",
    "random_ktree",
    "random_retaining_ktree",
    "reduce_kclique",
    "require_retaining",
    "reroot",
    "rescore_result",
    "retains",
    "sample_markov_ktree",
    "score_ktree",
    "solve_retaining_mskt",
    "tables_to_joint",
    "total_correlation",
    "validate_backbone",
    "validate_ktree",
]


def test_public_names_match_the_snapshot():
    # submodules are attributes too once imported; they are not names
    # the package exports
    names = sorted(name for name, value in vars(ktspan).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


# public methods and properties of each public class, inherited ones
# included; a method that comes or goes has to edit this list
PUBLIC_MEMBERS = {
    "BackboneTree": ["complete", "degree", "is_clique", "subtree_masks"],
    "ConditionalTable": [],
    "ExplicitScoreOracle": ["root_score", "score"],
    "HMsktInstance": [],
    "InfeasibleError": [],
    "InstanceTooLargeError": [],
    "JointTable": ["alphabet_sizes", "n"],
    "KTree": ["from_creation_order", "root_clique"],
    "KtspanError": [],
    "MutualInformationOracle": ["root_score", "score"],
    "NotRetainingError": [],
    "SampleMatrix": ["m", "n"],
    "ScoreOracle": ["root_score", "score"],
    "SolveResult": [],
    "TreeDecomposition": [],
    "UndirectedGraph": ["complete", "degree", "is_clique"],
    "WeightProductOracle": ["root_score", "score"],
}

_MEMBER_KINDS = (types.FunctionType, classmethod, staticmethod, property)


def test_public_members_match_the_snapshot():
    members = {}
    for name in PUBLIC_NAMES:
        value = getattr(ktspan, name)
        if not isinstance(value, type):
            continue
        # the package's own classes only: builtin bases such as
        # Exception differ between Python versions
        members[name] = sorted({
            attr for cls in value.__mro__ if cls.__module__.startswith("ktspan")
            for attr, obj in vars(cls).items()
            if not attr.startswith("_") and isinstance(obj, _MEMBER_KINDS)})
    assert members == PUBLIC_MEMBERS
