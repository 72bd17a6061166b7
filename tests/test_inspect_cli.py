"""Tests for the inspect renderers and the CLI."""

import pytest

import repro
from repro.cli import build_parser, main
from repro.inspect import (
    describe_deployment,
    render_plan,
    summarize_state,
)
from repro.query.plan import Join, Leaf


@pytest.fixture(scope="module")
def small_system():
    net = repro.transit_stub_by_size(24, seed=71)
    hierarchy = repro.build_hierarchy(net, max_cs=4, seed=0)
    workload = repro.generate_workload(
        net,
        repro.WorkloadParams(num_streams=5, num_queries=3, joins_per_query=(2, 3)),
        seed=72,
    )
    rates = workload.rate_model()
    state = repro.DeploymentState(net.cost_matrix(), rates.rate, rates.source)
    optimizer = repro.TopDownOptimizer(hierarchy, rates)
    deployments = [optimizer.plan(q, state) for q in workload]
    for d in deployments:
        state.apply(d)
    return net, hierarchy, rates, state, deployments


class TestRenderPlan:
    def test_tree_structure(self):
        plan = Join(Join(Leaf.of("A"), Leaf.of("B")), Leaf.of("C"))
        text = render_plan(plan)
        assert "JOIN" in text
        assert "stream A" in text
        assert text.count("|--") + text.count("`--") == 4  # 2 joins' children

    def test_placement_annotations(self):
        a, b = Leaf.of("A"), Leaf.of("B")
        plan = Join(a, b)
        text = render_plan(plan, {a: 1, b: 2, plan: 3})
        assert "@node 3" in text

    def test_reuse_leaf_marked(self):
        plan = Leaf.of("A", "B")
        assert "REUSE" in render_plan(plan)


class TestDescribeDeployment:
    def test_breakdown_sums_to_deployment_cost(self, small_system):
        net, hierarchy, rates, state, deployments = small_system
        from repro.core.cost import deployment_cost

        for deployment in deployments:
            text = describe_deployment(deployment, net.cost_matrix(), rates)
            total_line = [l for l in text.splitlines() if "TOTAL" in l][0]
            reported = float(total_line.split()[-1])
            expected = deployment_cost(deployment, net.cost_matrix(), rates)
            assert reported == pytest.approx(expected, rel=1e-4)

    def test_summarize_state(self, small_system):
        *_, state, _ = small_system
        text = summarize_state(state)
        assert "deployments" in text
        assert "cost/unit-time" in text


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["bounds", "-k", "3", "-n", "64", "--max-cs", "8"])
        assert args.streams == 3

    def test_bounds_command(self, capsys):
        assert main(["bounds", "-k", "4", "-n", "128", "--max-cs", "32"]) == 0
        out = capsys.readouterr().out
        assert "exhaustive" in out
        assert "beta" in out

    def test_plan_command(self, capsys):
        rc = main([
            "plan",
            "SELECT A.x FROM A, B WHERE A.k = B.k",
            "--nodes", "16", "--sink", "3", "--seed", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "JOIN" in out
        assert "TOTAL" in out

    def test_plan_with_algorithm_choice(self, capsys):
        rc = main([
            "plan",
            "SELECT A.x FROM A, B WHERE A.k = B.k",
            "--nodes", "16", "--algorithm", "bottom-up",
        ])
        assert rc == 0

    def test_figures_unknown_name(self, capsys):
        assert main(["figures", "nope"]) == 2
        assert "unknown figure" in capsys.readouterr().out

    def test_figures_runs_one(self, capsys):
        assert main(["figures", "fig9"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out
        assert "plans considered" in out or "Scalability" in out

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            main([])
