"""Core contribution: joint query-plan + deployment optimization.

The algorithms here implement the paper's Section 2:

* :mod:`repro.core.cost` -- rate estimation and the communication-cost
  objective.
* :mod:`repro.core.enumeration` -- bushy join-tree enumeration with
  reuse alternatives.
* :mod:`repro.core.placement` -- optimal placement of a fixed tree on a
  candidate node set (tree-structured dynamic program; cost-equivalent
  to the paper's exhaustive per-cluster assignment search).
* :mod:`repro.core.search` -- the per-task search over trees and
  placements both hierarchical algorithms run (pruned enumeration,
  placement rows shared between trees).
* :mod:`repro.core.exhaustive` -- the optimal joint plan+placement
  search (subset DP, cross-validated by literal brute force).
* :mod:`repro.core.top_down` -- the Top-Down hierarchical algorithm.
* :mod:`repro.core.bottom_up` -- the Bottom-Up hierarchical algorithm.
* :mod:`repro.core.reuse` -- operator-reuse planning support.
* :mod:`repro.core.consolidation` -- multi-query consolidation.
* :mod:`repro.core.bounds` -- the analytical results (Lemma 1,
  Theorems 1-4, the beta ratio).
* :mod:`repro.core.optimizer` -- a uniform facade over every optimizer
  (including the baselines) used by experiments and examples.
"""

from repro.core.cost import RateModel, deployment_cost
from repro.core.enumeration import (
    all_join_trees,
    connected_join_trees,
    count_bushy_trees,
    trees_with_reuse,
)
from repro.core.placement import PlacementResult, optimal_tree_placement
from repro.core.exhaustive import BruteForceSearch, OptimalPlanner
from repro.core.containment import (
    ContainedReuse,
    best_provider_per_node,
    containment_candidates,
    contains,
)
from repro.core.top_down import TopDownOptimizer
from repro.core.bottom_up import BottomUpOptimizer
from repro.core.refinement import refine_placement
from repro.core.bounds import (
    beta,
    bottom_up_space_bound,
    exhaustive_space,
    hierarchy_estimate_slack,
    paper_join_orders,
    top_down_space_bound,
    top_down_suboptimality_bound,
)
from repro.core.optimizer import Optimizer, OptimizerResult, make_optimizer

__all__ = [
    "RateModel",
    "deployment_cost",
    "all_join_trees",
    "connected_join_trees",
    "count_bushy_trees",
    "trees_with_reuse",
    "PlacementResult",
    "optimal_tree_placement",
    "BruteForceSearch",
    "OptimalPlanner",
    "ContainedReuse",
    "containment_candidates",
    "contains",
    "best_provider_per_node",
    "refine_placement",
    "TopDownOptimizer",
    "BottomUpOptimizer",
    "beta",
    "exhaustive_space",
    "paper_join_orders",
    "top_down_space_bound",
    "bottom_up_space_bound",
    "hierarchy_estimate_slack",
    "top_down_suboptimality_bound",
    "Optimizer",
    "OptimizerResult",
    "make_optimizer",
]
