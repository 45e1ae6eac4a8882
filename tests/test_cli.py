import json
import math
import re

import pytest

from mapf_dp import AgentSpec, Graph, Instance, Path, Plan, bench, mapio
from mapf_dp.ame import SolveLimits, SolveResult
from mapf_dp.bench import BenchConfig, run_bench
from mapf_dp.cli import (EXIT_INVALID, EXIT_NO_SOLUTION, EXIT_OK,
                         EXIT_TIMEOUT, EXIT_USAGE, build_parser, main)
from mapf_dp.dependency import approximate_average_makespan
from mapf_dp.simulate import RunStats, monte_carlo


def gen_instance(tmp_path, **over):
    argv = ["generate", "--width", "8", "--height", "8", "--agents", "4",
            "--seed", "3", "--out", str(tmp_path)]
    for k, v in over.items():
        argv += [f"--{k}", str(v)]
    assert main(argv) == EXIT_OK
    return tmp_path / "random-000.map", tmp_path / "random-000.agents"


class TestGenerate:
    def test_writes_files_and_checksum(self, tmp_path, capsys):
        map_p, agents_p = gen_instance(tmp_path)
        assert map_p.exists() and agents_p.exists()
        out = capsys.readouterr().out
        assert "checksum=" in out

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        gen_instance(a)
        gen_instance(b)
        assert (a / "random-000.map").read_bytes() \
            == (b / "random-000.map").read_bytes()
        assert (a / "random-000.agents").read_bytes() \
            == (b / "random-000.agents").read_bytes()

    def test_t_hat_sweep_shares_layout(self, tmp_path):
        assert main(["generate", "--width", "8", "--height", "8", "--agents",
                     "3", "--t-hat-sweep", "2,4", "--out", str(tmp_path)]) \
            == EXIT_OK
        m2 = (tmp_path / "t02.map").read_text()
        m4 = (tmp_path / "t04.map").read_text()
        assert m2 == m4
        assert (tmp_path / "t02.agents").read_text() \
            != (tmp_path / "t04.agents").read_text()

    @pytest.mark.parametrize("sweep", ["0", "2,1", "4,-3"])
    def test_t_hat_below_two_rejected(self, tmp_path, capsys, sweep):
        assert main(["generate", "--width", "8", "--height", "8", "--agents", "3",
                     "--t-hat-sweep", sweep, "--out", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: t_hat_max must be at least 2, got ")
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("option, value, message", [
        ("blocked", "1.5", "blocked fraction must be in [0, 1], got 1.5"),
        ("blocked", "-0.2", "blocked fraction must be in [0, 1], got -0.2"),
        ("agents", "0", "need at least one agent, got 0"),
        ("count", "0", "--count must be at least 1, got 0"),
        ("count", "-1", "--count must be at least 1, got -1"),
        ("width", "-3", "grid width must be at least 1, got -3"),
        ("height", "0", "grid height must be at least 1, got 0"),
        ("seed", "-1", "seed must be non-negative, got -1"),
    ])
    def test_degenerate_options_exit_one(self, tmp_path, capsys, option, value, message):
        assert main(["generate", "--width", "8", "--height", "8", f"--{option}", value,
                     "--out", str(tmp_path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("options, message", [
        (["--kind", "warehouse", "--t-hat-sweep", "2,4"],
         "--t-hat-sweep draws random grids; --kind warehouse does not apply"),
        (["--t-hat-sweep", ","], "--t-hat-sweep ',' names no value"),
        (["--t-hat-sweep", "2,2"], "--t-hat-sweep '2,2' repeats a value"),
        (["--count", "3", "--t-hat-sweep", "2,4"],
         "--t-hat-sweep writes one instance per value; --count does not apply"),
        (["--p-hi", "0.1", "--t-hat-sweep", "2,4"],
         "--t-hat-sweep draws each delay probability from its t_hat_max; "
         "--p-hi does not apply"),
    ], ids=["warehouse", "empty", "repeat", "count", "p-hi"])
    def test_bad_t_hat_sweep_exit_one(self, tmp_path, capsys, options, message):
        out = tmp_path / "gen"
        assert main(["generate", "--agents", "3", "--out", str(out)] + options) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_warehouse_kind(self, tmp_path):
        assert main(["generate", "--kind", "warehouse", "--agents", "5",
                     "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "warehouse-000.map").exists()

    @pytest.mark.parametrize("option, value", [
        ("width", "5"), ("height", "20"), ("blocked", "0.9")])
    def test_warehouse_rejects_grid_options(self, tmp_path, capsys, option, value):
        out = tmp_path / "gen"
        assert main(["generate", "--kind", "warehouse", "--agents", "2", f"--{option}", value,
                     "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == \
            f"error: --kind warehouse draws a fixed shelf layout; --{option} does not apply\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["random", "warehouse"])
    def test_p_hi_default(self, tmp_path, kind):
        # an omitted --p-hi reads as 0.5
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--kind", kind, "--agents", "3", "--out", str(a)]) == EXIT_OK
        assert main(["generate", "--kind", kind, "--agents", "3", "--p-hi", "0.5",
                     "--out", str(b)]) == EXIT_OK
        name = f"{kind}-000.agents"
        assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_random_grid_defaults(self, tmp_path):
        # omitted grid options read as 20 x 20 with 10% blocked
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--agents", "3", "--out", str(a)]) == EXIT_OK
        assert main(["generate", "--agents", "3", "--width", "20", "--height", "20",
                     "--blocked", "0.1", "--out", str(b)]) == EXIT_OK
        for name in ("random-000.map", "random-000.agents"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestSolveAndValidate:
    def test_round_trip(self, tmp_path, capsys):
        map_p, agents_p = gen_instance(tmp_path)
        plan_p = tmp_path / "plan.json"
        assert main(["solve", str(map_p), str(agents_p),
                     "--out", str(plan_p)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "status=solved" in out
        assert "approx_average_makespan=" in out
        assert main(["validate", str(map_p), str(agents_p),
                     str(plan_p)]) == EXIT_OK
        assert "plan is valid" in capsys.readouterr().out

    @pytest.mark.parametrize("solver, size", [
        # AME's stored labels of 9 of these 30 agents are stale in its result
        ("ame", ["--agents", "30", "--seed", "5"]),
        ("adapted-cbs", ["--width", "8", "--height", "8", "--agents", "4", "--seed", "3"]),
    ])
    def test_plan_is_written_with_its_own_labels(self, tmp_path, capsys, solver, size):
        assert main(["generate", *size, "--out", str(tmp_path)]) == EXIT_OK
        map_p, agents_p = tmp_path / "random-000.map", tmp_path / "random-000.agents"
        plan_p = tmp_path / "plan.json"
        capsys.readouterr()
        assert main(["solve", str(map_p), str(agents_p), "--solver", solver,
                     "--out", str(plan_p)]) == EXIT_OK
        printed = re.search(r"approx_average_makespan=(\S+)", capsys.readouterr().out)
        instance = mapio.read_instance(map_p, agents_p)
        plan, _ = mapio.read_plan(plan_p)
        fresh = bench.labeled(instance, plan)
        assert [p.labels for p in plan.paths] == \
            [tuple(round(v, 9) for v in p.labels) for p in fresh.paths]
        assert printed and printed.group(1) == f"{approximate_average_makespan(fresh):.6f}"

    def test_recompute_labels_with_adapted_cbs_exit_one(self, tmp_path, capsys):
        map_p, agents_p = gen_instance(tmp_path)
        plan_p = tmp_path / "plan.json"
        capsys.readouterr()
        assert main(["solve", str(map_p), str(agents_p), "--solver", "adapted-cbs",
                     "--recompute-labels", "--out", str(plan_p)]) == EXIT_USAGE
        assert capsys.readouterr().err == ("error: adapted-cbs ignores delay probabilities; "
                                           "--recompute-labels does not apply\n")
        assert not plan_p.exists()

    def test_plan_file_byte_deterministic(self, tmp_path):
        map_p, agents_p = gen_instance(tmp_path)
        p1, p2 = tmp_path / "p1.json", tmp_path / "p2.json"
        main(["solve", str(map_p), str(agents_p), "--out", str(p1)])
        main(["solve", str(map_p), str(agents_p), "--out", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_adapted_cbs_solver(self, tmp_path, capsys):
        map_p, agents_p = gen_instance(tmp_path)
        plan_p = tmp_path / "plan.json"
        assert main(["solve", str(map_p), str(agents_p), "--solver",
                     "adapted-cbs", "--out", str(plan_p)]) == EXIT_OK
        expanded = re.search(r"low_level_expanded=(\d+)", capsys.readouterr().out)
        assert expanded and int(expanded.group(1)) > 0
        assert main(["validate", str(map_p), str(agents_p),
                     str(plan_p)]) == EXIT_OK

    def test_status_line_counts_bypasses(self, tmp_path, capsys):
        # adapted CBS takes one bypass node on this instance; AME takes none
        map_p, agents_p = gen_instance(tmp_path)
        instance = mapio.read_instance(map_p, agents_p)
        for solver, bypasses in (("ame", 0), ("adapted-cbs", 1)):
            capsys.readouterr()
            assert main(["solve", str(map_p), str(agents_p), "--solver", solver,
                         "--out", str(tmp_path / "plan.json")]) == EXIT_OK
            status = capsys.readouterr().out.splitlines()[0]
            assert status.endswith(f" bypasses={bypasses}")
            assert bench.solve_with(solver, instance, SolveLimits()).bypasses == bypasses

    def test_emit_deps(self, tmp_path, capsys):
        map_p, agents_p = gen_instance(tmp_path)
        plan_p = tmp_path / "plan.json"
        main(["solve", str(map_p), str(agents_p), "--out", str(plan_p)])
        capsys.readouterr()
        assert main(["validate", str(map_p), str(agents_p), str(plan_p),
                     "--emit-deps"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "messages=" in out
        assert "reduced_inter_agent_edges=" in out

    def test_no_solution_exit_code(self, tmp_path):
        (tmp_path / "split.map").write_text(".@.\n")
        (tmp_path / "split.agents").write_text("0,0,0,2,0,0.5\n")
        assert main(["solve", str(tmp_path / "split.map"),
                     str(tmp_path / "split.agents")]) == EXIT_NO_SOLUTION

    def test_timeout_exit_code(self, tmp_path):
        map_p, agents_p = gen_instance(tmp_path)
        assert main(["solve", str(map_p), str(agents_p),
                     "--time-limit", "1e-9"]) == EXIT_TIMEOUT

    @pytest.mark.parametrize("limit", ["0", "-1", "nan"])
    def test_nonpositive_time_limit_exit_one(self, tmp_path, capsys, limit):
        map_p, agents_p = gen_instance(tmp_path)
        capsys.readouterr()
        assert main(["solve", str(map_p), str(agents_p), "--time-limit", limit,
                     "--out", str(tmp_path / "plan.json")]) == EXIT_USAGE
        assert capsys.readouterr().err == \
            f"error: time limit must be positive, got {float(limit)}\n"
        assert not (tmp_path / "plan.json").exists()

    @pytest.mark.parametrize("solver", ["ame", "adapted-cbs"])
    def test_agents_file_without_agents_exit_one(self, tmp_path, capsys, solver):
        map_p, agents_p = gen_instance(tmp_path)
        agents_p.write_text("# id,sx,sy,gx,gy,p\n")
        capsys.readouterr()
        assert main(["solve", str(map_p), str(agents_p), "--solver", solver]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: agents file has no agent line\n"

    def test_agent_lines_in_any_order(self, tmp_path, capsys):
        # a plan numbers agents by id, whatever the order of the agent lines
        map_p, agents_p = gen_instance(tmp_path)
        plan_p = tmp_path / "plan.json"
        assert main(["solve", str(map_p), str(agents_p), "--out", str(plan_p)]) == EXIT_OK
        lines = agents_p.read_text().splitlines(keepends=True)
        assert [ln.split(",")[0] for ln in lines] == ["0", "1", "2", "3"]
        agents_p.write_text("".join([lines[1], lines[0]] + lines[2:]))
        capsys.readouterr()
        assert main(["validate", str(map_p), str(agents_p), str(plan_p)]) == EXIT_OK
        assert capsys.readouterr().out == "plan is valid\n"

    def test_agent_id_outside_range_exit_one(self, tmp_path, capsys):
        map_p, agents_p, plan_p = head_on_fixture(tmp_path)
        agents_p.write_text("0,0,0,3,0,0.5\n2,3,0,0,0,0.5\n")
        assert main(["validate", str(map_p), str(agents_p), str(plan_p)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: agents line 2: agent id 2 is outside 0 ... 1\n"

    def test_checksum_mismatch_rejected(self, tmp_path, capsys):
        map_p, agents_p = gen_instance(tmp_path)
        plan_p = tmp_path / "plan.json"
        main(["solve", str(map_p), str(agents_p), "--out", str(plan_p)])
        doc = json.loads(plan_p.read_text())
        doc["checksum"] = "0" * 16
        plan_p.write_text(json.dumps(doc))
        assert main(["validate", str(map_p), str(agents_p),
                     str(plan_p)]) == EXIT_INVALID


def head_on_fixture(tmp_path):
    """A 1x4 corridor with a head-on plan: fine per-path, invalid jointly."""
    map_p = tmp_path / "line.map"
    agents_p = tmp_path / "line.agents"
    map_p.write_text("....\n")
    agents_p.write_text("0,0,0,3,0,0.5\n1,3,0,0,0,0.5\n")
    inst = mapio.read_instance(map_p, agents_p)
    plan = Plan((Path((0, 1, 2, 3)), Path((3, 2, 1, 0))))
    plan_p = tmp_path / "plan.json"
    mapio.write_plan(plan_p, plan, mapio.instance_checksum(inst))
    return map_p, agents_p, plan_p


class TestSimulate:
    def test_valid_plan_stats(self, tmp_path, capsys):
        map_p, agents_p = gen_instance(tmp_path)
        plan_p = tmp_path / "plan.json"
        main(["solve", str(map_p), str(agents_p), "--out", str(plan_p)])
        capsys.readouterr()
        assert main(["simulate", str(map_p), str(agents_p), str(plan_p),
                     "--policy", "mcp", "--runs", "50"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "mean_makespan=" in out
        assert "mean_collisions=0.0000" in out

    def test_invalid_plan_rejected_for_robust_policy(self, tmp_path):
        map_p, agents_p, plan_p = head_on_fixture(tmp_path)
        assert main(["simulate", str(map_p), str(agents_p), str(plan_p),
                     "--policy", "mcp"]) == EXIT_INVALID

    def test_invalid_plan_allowed_for_dummy(self, tmp_path, capsys):
        map_p, agents_p, plan_p = head_on_fixture(tmp_path)
        assert main(["simulate", str(map_p), str(agents_p), str(plan_p),
                     "--policy", "dummy", "--runs", "20"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "mean_collisions=" in out

    @pytest.mark.parametrize("paths, error", [
        ([[0, 1, 2, 3]], "plan has 1 paths for 2 agents"),
        ([[0, 999, 3], [3, 2, 1, 0]], "agent 0: vertex 999 is not in the graph"),
    ], ids=["one-path-for-two-agents", "vertex-outside-map"])
    @pytest.mark.parametrize("policy", ["dummy", "mcp"])
    def test_path_errors_rejected_for_every_policy(self, tmp_path, capsys,
                                                    paths, error, policy):
        map_p, agents_p, plan_p = head_on_fixture(tmp_path)
        plan_p.write_text(json.dumps(
            {"agents": [{"id": k, "path": p} for k, p in enumerate(paths)]}))
        assert main(["simulate", str(map_p), str(agents_p), str(plan_p),
                     "--policy", policy, "--runs", "5"]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert f"path error: {error}" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert "mean_makespan" not in captured.out

    def test_latency_and_horizon_reach_monte_carlo(self, tmp_path, capsys):
        map_p, agents_p = gen_instance(tmp_path)
        plan_p = tmp_path / "plan.json"
        main(["solve", str(map_p), str(agents_p), "--out", str(plan_p)])
        instance = mapio.read_instance(map_p, agents_p)
        plan, _ = mapio.read_plan(plan_p)
        argv = ["simulate", str(map_p), str(agents_p), str(plan_p), "--runs", "20"]
        for options, latency, horizon in (([], 0, None),
                                          (["--latency", "2", "--horizon", "9"], 2, 9)):
            capsys.readouterr()
            assert main(argv + options) == EXIT_OK
            stats = monte_carlo(instance, plan, "mcp", 20, 0,
                                horizon_cap=horizon, latency=latency)
            assert capsys.readouterr().out == "".join(
                f"{k}={v:.4f}\n" if isinstance(v, float) else f"{k}={v}\n"
                for k, v in stats.as_dict().items())

    @pytest.mark.parametrize("options", [["--latency", "-1"], ["--horizon", "0"]])
    def test_bad_latency_or_horizon_exit_one(self, tmp_path, capsys, options):
        map_p, agents_p = gen_instance(tmp_path)
        plan_p = tmp_path / "plan.json"
        main(["solve", str(map_p), str(agents_p), "--out", str(plan_p)])
        capsys.readouterr()
        assert main(["simulate", str(map_p), str(agents_p), str(plan_p),
                     "--runs", "5"] + options) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert "mean_makespan" not in captured.out

    def test_negative_seed_exit_one(self, tmp_path, capsys):
        map_p, agents_p = gen_instance(tmp_path)
        plan_p = tmp_path / "plan.json"
        main(["solve", str(map_p), str(agents_p), "--out", str(plan_p)])
        capsys.readouterr()
        assert main(["simulate", str(map_p), str(agents_p), str(plan_p),
                     "--runs", "5", "--seed", "-1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be non-negative, got -1\n"
        assert "mean_makespan" not in captured.out

    def test_zero_runs_exit_one(self, tmp_path, capsys):
        map_p, agents_p = gen_instance(tmp_path)
        plan_p = tmp_path / "plan.json"
        main(["solve", str(map_p), str(agents_p), "--out", str(plan_p)])
        capsys.readouterr()
        assert main(["simulate", str(map_p), str(agents_p), str(plan_p),
                     "--runs", "0"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "error: need at least one run, got 0\n"
        assert "mean_makespan" not in captured.out

    def test_invalid_validate_exit(self, tmp_path):
        map_p, agents_p, plan_p = head_on_fixture(tmp_path)
        assert main(["validate", str(map_p), str(agents_p),
                     str(plan_p)]) == EXIT_INVALID


class TestBench:
    def bench_args(self, out):
        return ["bench", "--experiment", "exp4", "--width", "8", "--height",
                "8", "--agents", "4", "--instances", "2", "--runs", "30",
                "--policy", "mcp", "--policy", "fsp",
                "--time-limit", "10", "--out", str(out)]

    def test_writes_csv_and_report(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(self.bench_args(out)) == EXIT_OK
        csv_text = (out / "results.csv").read_text()
        assert csv_text.splitlines()[0].startswith("experiment,instance,solver")
        assert (out / "report.txt").exists()
        assert len(csv_text.splitlines()) > 1

    def test_csv_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(self.bench_args(a))
        main(self.bench_args(b))
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()

    @pytest.mark.parametrize("field", [{"experiment": "exp3", "n_instances": 0}])
    def test_config_rejects_empty_sweeps(self, field):
        with pytest.raises(ValueError):
            BenchConfig(**field)

    def test_exp3_runs_n_instances_per_agent_count(self, monkeypatch):
        monkeypatch.setattr(bench, "solve_with", lambda *a: SolveResult("no-solution", None))
        rows, _ = run_bench(BenchConfig(experiment="exp3", n_instances=2, n_runs=5))
        assert [r["instance"] for r in rows if r["agents"] == 5] == \
            ["m5-1", "m5-2", "success-rate-5"]

    @pytest.fixture
    def configs(self, monkeypatch):
        """The `BenchConfig` of each `run_bench` call; nothing is run."""
        seen = []
        monkeypatch.setattr(bench, "run_bench",
                            lambda config, log=None: seen.append(config) or ([], []))
        return seen

    @pytest.mark.parametrize("options, per_count", [([], 5), (["--instances", "2"], 2)],
                             ids=["default", "explicit"])
    def test_exp3_instances_reach_config(self, tmp_path, configs, options, per_count):
        assert main(["bench", "--experiment", "exp3", "--out", str(tmp_path)]
                    + options) == EXIT_OK
        [config] = configs
        assert config.n_instances == per_count

    def test_exp3_rejects_agents(self, tmp_path, capsys, configs):
        assert main(["bench", "--experiment", "exp3", "--agents", "8",
                     "--out", str(tmp_path)]) == EXIT_USAGE
        message = "exp3 sweeps 5, 10, 15, 20 agents; --agents does not apply"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert configs == []
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BenchConfig(experiment="exp3", agents=8)

    @pytest.mark.parametrize("options, agents, instances",
                             [([], 10, 10), (["--agents", "4", "--instances", "3"], 4, 3)],
                             ids=["default", "explicit"])
    def test_agents_and_instances_reach_config(self, tmp_path, configs, options,
                                               agents, instances):
        assert main(["bench", "--experiment", "exp1", "--out", str(tmp_path)]
                    + options) == EXIT_OK
        [config] = configs
        assert (config.agents, config.n_instances) == (agents, instances)

    def test_negative_seed_exit_one(self, tmp_path, capsys, configs):
        assert main(["bench", "--seed", "-1", "--out", str(tmp_path)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert configs == []

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_nonpositive_time_limit_exit_one(self, tmp_path, capsys, configs, limit):
        out = tmp_path / "bench"
        assert main(["bench", "--time-limit", limit, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == \
            f"error: time limit must be positive, got {float(limit)}\n"
        assert configs == [] and not out.exists()

    @pytest.mark.parametrize("option, value, message", [
        ("width", "-3", "grid width must be at least 1, got -3"),
        ("height", "0", "grid height must be at least 1, got 0"),
        ("blocked", "1.5", "blocked fraction must be in [0, 1], got 1.5"),
        ("p-hi", "1.5", "upper delay probability must be in (0, 1), got 1.5"),
        ("runs", "0", "need at least one run, got 0"),
        ("agents", "0", "need at least one agent, got 0"),
        ("instances", "0", "need at least one instance, got 0"),
    ])
    def test_nonpositive_grid_size_exit_one(self, tmp_path, capsys, configs, option, value,
                                            message):
        out = tmp_path / "bench"
        assert main(["bench", f"--{option}", value, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert configs == [] and not out.exists()

    @pytest.mark.parametrize("make, message", [
        (lambda: BenchConfig(p_hi=1.5), "upper delay probability must be in (0, 1), got 1.5"),
        (lambda: BenchConfig(width=0), "grid width must be at least 1, got 0"),
        (lambda: BenchConfig(blocked_fraction=2.0),
         "blocked fraction must be in [0, 1], got 2.0"),
        (lambda: BenchConfig(experiment="exp5"), "unknown experiment 'exp5'"),
        (lambda: SolveLimits(time_s=0), "time limit must be positive, got 0"),
    ], ids=["p-hi", "width", "blocked", "experiment", "time-limit"])
    def test_config_checked_at_construction(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_subcommand_defaults_are_bench_config_defaults(self):
        # one home: a default changed in `BenchConfig` reaches every subcommand
        config, parse = BenchConfig(), build_parser().parse_args
        gen = parse(["generate"])
        assert (gen.agents, gen.seed) == (config.agents, config.seed)
        assert parse(["solve", "m", "a"]).time_limit == config.time_limit
        sim = parse(["simulate", "m", "a", "p"])
        assert (sim.runs, sim.seed) == (config.n_runs, config.seed)
        assert config.time_limit == SolveLimits().time_s

    def test_node_limit_reaches_config(self, tmp_path, configs):
        assert main(["bench", "--out", str(tmp_path)]) == EXIT_OK
        assert main(["bench", "--node-limit", "7", "--out", str(tmp_path)]) == EXIT_OK
        assert [c.node_limit for c in configs] == [50_000, 7]

    @pytest.mark.parametrize("limit", ["0", "-2"])
    def test_nonpositive_node_limit_exit_one(self, tmp_path, capsys, configs, limit):
        out = tmp_path / "bench"
        assert main(["bench", "--node-limit", limit, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: node limit must be at least 1, got {limit}\n"
        assert configs == [] and not out.exists()

    def test_node_limit_makes_csv_independent_of_time_limit(self, tmp_path):
        # 3 nodes stop some of these solves long before either time limit
        csvs = []
        for limit in ("5", "5000"):
            out = tmp_path / limit
            assert main(["bench", "--experiment", "exp1", "--width", "8", "--height", "8",
                         "--agents", "6", "--instances", "2", "--runs", "10",
                         "--node-limit", "3", "--time-limit", limit,
                         "--out", str(out)]) == EXIT_OK
            csvs.append((out / "results.csv").read_bytes())
        assert csvs[0] == csvs[1]
        statuses = [line.split(",")[6] for line in csvs[0].decode().splitlines()[1:]]
        assert sorted(set(statuses)) == ["solved", "timeout"]

    @pytest.mark.parametrize("experiment, option, value, field, message", [
        *[(e, "policy", "fsp", {"policies": ("fsp",)},
           f"{e} simulates mcp only; --policy applies to exp4")
          for e in ("exp1", "exp2", "exp3")],
        ("exp2", "instances", "7", {"n_instances": 7},
         "exp2 sweeps t_hat_max on one layout; --instances does not apply"),
        ("exp2", "p-hi", "0.2", {"p_hi": 0.2},
         "exp2 draws each delay probability from its t_hat_max; --p-hi does not apply"),
    ], ids=["exp1-policy", "exp2-policy", "exp3-policy", "exp2-instances", "exp2-p-hi"])
    def test_unread_option_exit_one(self, tmp_path, capsys, configs, experiment, option,
                                    value, field, message):
        out = tmp_path / "bench"
        assert main(["bench", "--experiment", experiment, f"--{option}", value,
                     "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert configs == [] and not out.exists()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BenchConfig(experiment=experiment, **field)

    @pytest.mark.parametrize("option, field, values", [
        ("solver", "solvers", ["ame", "adapted-cbs", "ame"]),
        ("policy", "policies", ["mcp", "fsp", "fsp"]),
    ])
    def test_repeated_solver_or_policy_exit_one(self, tmp_path, capsys, configs, option,
                                                 field, values):
        out = tmp_path / "bench"
        argv = ["bench", "--experiment", "exp4", "--out", str(out)]
        for v in values:
            argv += [f"--{option}", v]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: --{option} names {values[-1]} twice\n"
        assert configs == [] and not out.exists()
        with pytest.raises(ValueError, match=f"^--{option} names {values[-1]} twice$"):
            BenchConfig(experiment="exp4", **{field: tuple(values)})

    @pytest.mark.parametrize("policies", [("fsp",), ("mcp", "dummy")])
    def test_config_rejects_policies_outside_exp4(self, policies):
        with pytest.raises(ValueError, match="^exp1 simulates mcp only; --policy applies to exp4$"):
            BenchConfig(experiment="exp1", policies=policies)
        assert BenchConfig(experiment="exp4", policies=policies).policies == policies

    @pytest.mark.parametrize("experiment", ["exp1", "exp2", "exp3", "exp4"])
    def test_p_hi_reaches_config(self, tmp_path, configs, experiment):
        assert main(["bench", "--experiment", experiment, "--out", str(tmp_path)]) == EXIT_OK
        if experiment != "exp2":
            assert main(["bench", "--experiment", experiment, "--p-hi", "0.3",
                         "--out", str(tmp_path)]) == EXIT_OK
        assert [c.p_hi for c in configs] == ([0.5] if experiment == "exp2" else [0.5, 0.3])

    def test_config_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="got -1$"):
            BenchConfig(seed=-1)

    def test_each_solved_plan_validated_once(self, monkeypatch):
        validate = bench.validate_plan
        calls = []
        monkeypatch.setattr(bench, "validate_plan",
                            lambda inst, plan: calls.append(plan) or validate(inst, plan))
        rows, _ = run_bench(BenchConfig(
            experiment="exp4", width=8, height=8, agents=4, n_instances=2,
            policies=("mcp", "fsp", "dummy"), n_runs=5))
        solved = {r["instance"] for r in rows if r["status"] == "solved"}
        assert len(solved) == 2 and len(rows) == 6 and len(calls) == 2

    @pytest.mark.parametrize("policies, raises", [
        (("dummy",), False), (("dummy", "mcp"), True), (("fsp", "dummy"), True)])
    def test_invalid_plan_raises_unless_dummy_only(self, monkeypatch, policies, raises):
        # every solve returns the head-on plan on a 1x4 corridor
        line = Instance(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
                        (AgentSpec(0, 0, 3, 0.5), AgentSpec(1, 3, 0, 0.5)))
        head_on = Plan((Path((0, 1, 2, 3)), Path((3, 2, 1, 0))))
        monkeypatch.setattr(bench, "generate_random_instance", lambda *a: line)
        monkeypatch.setattr(bench, "solve_with",
                            lambda *a: SolveResult("solved", head_on, 0.0))
        config = BenchConfig(experiment="exp4", n_instances=1, policies=policies, n_runs=5)
        if raises:
            with pytest.raises(RuntimeError, match="invalid plan"):
                run_bench(config)
        else:
            assert [r["policy"] for r in run_bench(config)[0]] == ["dummy"]

    def test_exp2_trend_checked_per_solver(self, monkeypatch):
        # AME times out at t_hat_max 4; its series 10 -> 12 rises, while
        # adapted CBS's 35 -> 30 -> 40 falls once.  Comparing the first solved
        # row of each t_hat_max would mix the solvers (10 -> 30 -> 12)
        line = Graph.from_edges(3, [(0, 1), (1, 2)])
        sweep = [(t, Instance(line, (AgentSpec(0, 0, 2, p),)))
                 for t, p in ((2, 0.1), (4, 0.2), (8, 0.3))]
        t_of = {id(inst): t for t, inst in sweep}
        paths = {"ame": Path((0, 1, 2)), "adapted-cbs": Path((0, 0, 1, 2))}
        means = {("ame", 2): 10.0, ("ame", 8): 12.0, ("adapted-cbs", 2): 35.0,
                 ("adapted-cbs", 4): 30.0, ("adapted-cbs", 8): 40.0}

        def solve(solver, instance, limits):
            if (solver, t_of[id(instance)]) not in means:
                return SolveResult("timeout", None)
            return SolveResult("solved", Plan((paths[solver],)), 0.0)

        def simulate(instance, plan, policy, n_runs, seed):
            solver = "ame" if plan.max_index == 2 else "adapted-cbs"
            mean = means[solver, t_of[id(instance)]]
            return RunStats(n_runs, mean, 0.0, 0, 0.0, 0, policy)

        monkeypatch.setattr(bench, "delay_sweep", lambda *a: sweep)
        monkeypatch.setattr(bench, "solve_with", solve)
        monkeypatch.setattr(bench, "monte_carlo", simulate)
        rows, warnings = run_bench(BenchConfig(
            experiment="exp2", agents=1, solvers=("ame", "adapted-cbs"), n_runs=5))
        assert [r["status"] for r in rows].count("timeout") == 1
        assert warnings == ["adapted-cbs mcp mean makespan not increasing from "
                            "t_hat_max 2 to 4 (35.00 -> 30.00)"]


class TestErrors:
    def test_usage_error_exit_one(self):
        with pytest.raises(SystemExit) as err:
            main(["solve"])
        assert err.value.code == EXIT_USAGE

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == EXIT_USAGE

    def test_missing_file_reported(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.map"),
                     str(tmp_path / "nope.agents")]) == EXIT_USAGE

    @pytest.mark.parametrize("text", [
        "{not json", "[]", '{"checksum": ""}', '{"agents": 3}', '{"agents": [{"id": 0}]}',
        '{"agents": [{"id": 0, "path": [0]}, {"id": 0, "path": [3]}]}',
    ])
    def test_malformed_plan_file_reported(self, tmp_path, capsys, text):
        map_p, agents_p, plan_p = head_on_fixture(tmp_path)
        plan_p.write_text(text)
        assert main(["validate", str(map_p), str(agents_p), str(plan_p)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_non_finite_label_exit_one(self, tmp_path, capsys):
        # a solved plan with NaN labels used to print "plan is valid"
        map_p, agents_p = gen_instance(tmp_path)
        plan_p = tmp_path / "plan.json"
        assert main(["solve", str(map_p), str(agents_p), "--out", str(plan_p)]) == EXIT_OK
        doc = json.loads(plan_p.read_text())
        labels = doc["agents"][2]["labels"]
        doc["agents"][2]["labels"] = [0.0] + [math.nan] * (len(labels) - 1)
        plan_p.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["validate", str(map_p), str(agents_p), str(plan_p)]) == EXIT_USAGE
        assert capsys.readouterr().err == ("error: plan agents[2]: 'labels' must be a list "
                                           "of finite numbers, one per path vertex\n")

    def test_map_header_mismatch_exit_one(self, tmp_path, capsys):
        map_p, agents_p, plan_p = head_on_fixture(tmp_path)
        map_p.write_text("7 9\n....\n")
        assert main(["validate", str(map_p), str(agents_p), str(plan_p)]) == EXIT_USAGE
        assert capsys.readouterr().err == ("error: map header says 7 9, but the rows "
                                           "are 4 wide and 1 high\n")

    def test_vertex_outside_map_is_invalid(self, tmp_path, capsys):
        map_p, agents_p, plan_p = head_on_fixture(tmp_path)
        plan_p.write_text('{"agents": [{"id": 0, "path": [0, 99, 3]}, '
                          '{"id": 1, "path": [3, 2, 1, 0]}]}')
        assert main(["validate", str(map_p), str(agents_p), str(plan_p)]) == EXIT_INVALID
        assert "path error: agent 0: vertex 99 is not in the graph" in capsys.readouterr().out

    def test_duplicate_agent_id_reported(self, tmp_path, capsys):
        map_p, agents_p, plan_p = head_on_fixture(tmp_path)
        agents_p.write_text("0,0,0,3,0,0.5\n0,3,0,0,0,0.5\n")
        assert main(["validate", str(map_p), str(agents_p), str(plan_p)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: agents line 2: duplicate agent id 0\n"
