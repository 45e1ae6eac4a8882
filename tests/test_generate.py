import pytest

from mapf_dp import WarehouseParams, generate, generate_random_instance, \
    generate_warehouse_instance, resample_delays
from mapf_dp.generate import GenerationError, delay_sweep, warehouse_graph
from mapf_dp.model import MapError, shortest_path_distances


def check_connectivity(inst):
    """Raise ValueError unless every agent's goal is reachable from its start."""
    for a in inst.agents:
        dist = shortest_path_distances(inst.graph, a.goal)
        if dist[a.start] == float("inf"):
            raise ValueError(f"agent {a.id}: goal unreachable from start")


class TestRandomInstance:
    def test_table1_style_parameters(self):
        inst = generate_random_instance(30, 30, 0.10, 35, (0, 0.5), 42)
        assert inst.n_agents == 35
        assert all(0 < a.delay_prob < 0.5 for a in inst.agents)
        assert inst.graph.n_vertices == 900 - 90

    def test_single_agent_open_grid(self):
        inst = generate_random_instance(5, 5, 0.0, 1, (0, 0.5), 1)
        assert inst.n_agents == 1
        check_connectivity(inst)

    def test_deterministic_under_seed(self):
        a = generate_random_instance(12, 12, 0.2, 5, (0, 0.5), 9)
        b = generate_random_instance(12, 12, 0.2, 5, (0, 0.5), 9)
        assert a.graph.adjacency == b.graph.adjacency
        assert [(x.start, x.goal, x.delay_prob) for x in a.agents] \
            == [(x.start, x.goal, x.delay_prob) for x in b.agents]

    def test_starts_goals_distinct_and_reachable(self):
        inst = generate_random_instance(15, 15, 0.25, 8, (0, 0.5), 3)
        starts = [a.start for a in inst.agents]
        goals = [a.goal for a in inst.agents]
        assert len(set(starts)) == len(starts)
        assert len(set(goals)) == len(goals)
        check_connectivity(inst)
        # all 2m endpoints live in one component
        dist = shortest_path_distances(inst.graph, starts[0])
        assert all(dist[v] < float("inf") for v in starts + goals)

    def test_infeasible_parameters_rejected(self):
        with pytest.raises(GenerationError):
            generate_random_instance(3, 3, 0.0, 50, (0, 0.5), 0)

    @pytest.mark.parametrize("blocked, m, message", [
        (1.5, 3, "blocked fraction must be in [0, 1], got 1.5"),
        (-0.2, 3, "blocked fraction must be in [0, 1], got -0.2"),
        (0.1, 0, "need at least one agent, got 0"),
        (0.1, -2, "need at least one agent, got -2"),
    ])
    def test_degenerate_parameters_rejected_before_any_draw(self, monkeypatch,
                                                            blocked, m, message):
        monkeypatch.setattr(generate.np.random, "default_rng", None)
        with pytest.raises(GenerationError) as err:
            generate_random_instance(8, 8, blocked, m, (0, 0.5), 0)
        assert str(err.value) == message

    @pytest.mark.parametrize("width, height, message", [
        (-3, 8, "grid width must be at least 1, got -3"),
        (0, 8, "grid width must be at least 1, got 0"),
        (8, 0, "grid height must be at least 1, got 0"),
        (8, -1, "grid height must be at least 1, got -1"),
    ])
    def test_nonpositive_size_rejected_before_any_draw(self, monkeypatch,
                                                       width, height, message):
        monkeypatch.setattr(generate.np.random, "default_rng", None)
        with pytest.raises(GenerationError) as err:
            generate_random_instance(width, height, 0.1, 3, (0, 0.5), 0)
        assert str(err.value) == message

    @pytest.mark.parametrize("p_range", [(0.3, 0.5), (0.6, 0.5)])
    def test_nonzero_lower_delay_bound_rejected_before_any_draw(self, monkeypatch,
                                                                p_range):
        monkeypatch.setattr(generate.np.random, "default_rng", None)
        message = f"^the lower delay bound must be 0, got {p_range[0]}$"
        with pytest.raises(GenerationError, match=message):
            generate_random_instance(10, 10, 0.0, 20, p_range, 0)

    def test_blocked_fraction_bounds_are_accepted(self):
        assert generate_random_instance(4, 4, 0.0, 1, (0, 0.5), 0).n_agents == 1
        # 1.0 blocks every cell, which the map parser rejects
        with pytest.raises(MapError, match="^map has no free cells$"):
            generate_random_instance(4, 4, 1.0, 1, (0, 0.5), 0)

    def test_delay_sampling_through_move_duration(self):
        # p = 1 - 1/t with t uniform on (1, t_max); check the implied support
        inst = generate_random_instance(20, 20, 0.0, 30, (0, 0.8), 11)
        t_hats = [1.0 / (1.0 - a.delay_prob) for a in inst.agents]
        assert all(1.0 < t < 5.0 for t in t_hats)


class TestWarehouseInstance:
    def test_default_layout(self):
        inst = generate_warehouse_instance(WarehouseParams(), 10, (0, 0.5), 2)
        assert inst.n_agents == 10
        check_connectivity(inst)
        meta = inst.graph.grid
        side = WarehouseParams().side_width
        for a in inst.agents:
            sx, _ = meta.cell_of(a.start)
            gx, _ = meta.cell_of(a.goal)
            # one endpoint per side corridor
            assert (sx < side) != (gx < side)
            assert sx < side or sx >= meta.width - side
            assert gx < side or gx >= meta.width - side

    def test_zero_shelves_is_open_rectangle(self):
        params = WarehouseParams(shelf_rows=0, shelf_cols=0)
        g = warehouse_graph(params)
        assert g.n_vertices == params.grid_width * params.grid_height

    def test_deterministic_under_seed(self):
        a = generate_warehouse_instance(WarehouseParams(), 6, (0, 0.5), 5)
        b = generate_warehouse_instance(WarehouseParams(), 6, (0, 0.5), 5)
        assert [(x.start, x.goal, x.delay_prob) for x in a.agents] \
            == [(x.start, x.goal, x.delay_prob) for x in b.agents]

    def test_too_many_agents_rejected(self):
        with pytest.raises(GenerationError):
            generate_warehouse_instance(WarehouseParams(side_width=1), 500,
                                        (0, 0.5), 0)

    @pytest.mark.parametrize("p_range", [(0.3, 0.5), (0.6, 0.5)])
    def test_nonzero_lower_delay_bound_rejected_before_any_draw(self, monkeypatch,
                                                                p_range):
        monkeypatch.setattr(generate.np.random, "default_rng", None)
        message = f"^the lower delay bound must be 0, got {p_range[0]}$"
        with pytest.raises(GenerationError, match=message):
            generate_warehouse_instance(WarehouseParams(), 5, p_range, 0)

    @pytest.mark.parametrize("m", [0, -1])
    def test_no_agents_rejected(self, m):
        with pytest.raises(GenerationError, match=f"need at least one agent, got {m}$"):
            generate_warehouse_instance(WarehouseParams(), m, (0, 0.5), 0)


TINY = generate_random_instance(4, 4, 0.0, 2, (0, 0.5), 0)


@pytest.mark.parametrize("draw", [
    lambda seed: generate_random_instance(8, 8, 0.1, 3, (0, 0.5), seed),
    lambda seed: generate_warehouse_instance(WarehouseParams(), 3, (0, 0.5), seed),
    lambda seed: resample_delays(TINY, 0.5, seed),
], ids=["random", "warehouse", "resample"])
def test_negative_seed_rejected_before_any_draw(monkeypatch, draw):
    monkeypatch.setattr(generate.np.random, "default_rng", None)
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        draw(-1)


class TestResampleDelays:
    def test_layout_preserved(self):
        base = generate_random_instance(10, 10, 0.1, 5, (0, 0.5), 7)
        swept = resample_delays(base, 1.0 - 1.0 / 8, 99)
        assert swept.graph is base.graph
        assert [(a.start, a.goal) for a in swept.agents] \
            == [(a.start, a.goal) for a in base.agents]
        assert all(0 < a.delay_prob < 1.0 - 1.0 / 8 for a in swept.agents)
        assert [a.delay_prob for a in swept.agents] \
            != [a.delay_prob for a in base.agents]

    def test_delay_sweep_draws_each_value_from_its_own_seed(self):
        base = generate_random_instance(10, 10, 0.1, 5, (0, 0.5), 7)
        sweep = delay_sweep(base, [4, 2], 3)
        assert [t for t, _ in sweep] == [4, 2]
        for t, inst in sweep:
            assert inst == resample_delays(base, 1.0 - 1.0 / t, 3 + 7000 + t)

    def test_delay_sweep_checks_every_value_before_any_draw(self, monkeypatch):
        base = generate_random_instance(10, 10, 0.1, 5, (0, 0.5), 7)
        monkeypatch.setattr(generate.np.random, "default_rng", None)
        with pytest.raises(GenerationError, match="^t_hat_max must be at least 2, got 1$"):
            delay_sweep(base, [4, 1], 0)
