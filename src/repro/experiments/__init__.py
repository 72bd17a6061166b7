"""Experiment drivers that regenerate the paper's figures.

* :mod:`repro.experiments.harness` -- shared plumbing: running
  incremental multi-query deployments per optimizer over a
  :class:`repro.workload.World`.
* :mod:`repro.experiments.figures` -- one driver per paper figure
  (2, 5, 6, 7, 8, 9, 10, 11), each returning a structured result the
  benchmarks print as paper-vs-measured series.
* :mod:`repro.experiments.reporting` -- plain-text series/table
  rendering.
"""

from repro.experiments.harness import cumulative_costs, run_incremental
from repro.experiments.figures import (
    figure02_motivation,
    figure05_bottom_up_cluster_sweep,
    figure06_top_down_cluster_sweep,
    figure07_suboptimality_and_reuse,
    figure08_baseline_comparison,
    figure09_search_space_scalability,
    figure10_deployment_time,
    figure11_prototype_cumulative_cost,
)
from repro.experiments.reporting import format_series_table, print_result

__all__ = [
    "run_incremental",
    "cumulative_costs",
    "figure02_motivation",
    "figure05_bottom_up_cluster_sweep",
    "figure06_top_down_cluster_sweep",
    "figure07_suboptimality_and_reuse",
    "figure08_baseline_comparison",
    "figure09_search_space_scalability",
    "figure10_deployment_time",
    "figure11_prototype_cumulative_cost",
    "format_series_table",
    "print_result",
]
