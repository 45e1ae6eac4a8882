import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mapf_dp import AgentSpec, Graph, Instance, Path, Plan, parse_map
from mapf_dp.mapio import (agents_from_text, agents_to_text, instance_checksum, plan_from_json,
                           plan_to_json)
from mapf_dp.model import MapError

GRID = parse_map("....\n.@..\n....\n")


def returns_or_raises_map_error(parse, *args):
    try:
        parse(*args)
    except MapError:
        pass


class TestAgentsFromText:
    def test_round_trip_fields(self):
        agents = agents_from_text(GRID, "# id,sx,sy,gx,gy,p\n0,0,0,3,0,0.5\n\n1,0,2,3,2,0.25\n")
        assert [(a.id, a.start, a.goal, a.delay_prob) for a in agents] == \
            [(0, 0, 3, 0.5), (1, 7, 10, 0.25)]

    def test_lines_in_any_order_come_back_by_id(self):
        agents = agents_from_text(GRID, "1,0,2,3,2,0.25\n# comment\n0,0,0,3,0,0.5\n")
        assert [(a.id, a.start) for a in agents] == [(0, 0), (1, 7)]

    @pytest.mark.parametrize("text, message", [
        ("0,0,0,3,0,0.5\n5,0,2,3,2,0.5\n", "agents line 2: agent id 5 is outside 0 ... 1"),
        ("\n-1,0,0,3,0,0.5\n", "agents line 2: agent id -1 is outside 0 ... 0"),
    ], ids=["above", "negative"])
    def test_id_outside_range_names_line(self, text, message):
        with pytest.raises(MapError) as err:
            agents_from_text(GRID, text)
        assert str(err.value) == message

    def test_duplicate_id_names_id_and_line(self):
        with pytest.raises(MapError, match=r"line 3: duplicate agent id 0"):
            agents_from_text(GRID, "0,0,0,3,0,0.5\n\n0,0,2,3,2,0.5\n")

    @pytest.mark.parametrize("line", ["0,a,0,3,0,0.5", "0,0,0,3,0,half", "0.5,0,0,3,0,0.5"])
    def test_non_numeric_field_names_line(self, line):
        with pytest.raises(MapError, match=r"^agents line 2: "):
            agents_from_text(GRID, f"1,0,2,3,2,0.5\n{line}\n")

    @pytest.mark.parametrize("text", ["", "\n\n", "# id,sx,sy,gx,gy,p\n"])
    def test_no_agent_line_raises(self, text):
        with pytest.raises(MapError, match="^agents file has no agent line$"):
            agents_from_text(GRID, text)

    def test_bad_probability_and_blocked_cell_name_line(self):
        with pytest.raises(MapError, match=r"^agents line 1: delay probability"):
            agents_from_text(GRID, "0,0,0,3,0,1.5\n")
        with pytest.raises(MapError, match=r"^agents line 1: cell \(1, 1\)"):
            agents_from_text(GRID, "0,1,1,3,0,0.5\n")


def test_agents_text_needs_a_grid():
    graph = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(MapError, match="^agents file needs grid coordinates$"):
        agents_to_text(Instance(graph, (AgentSpec(0, 0, 1, 0.5),)))
    with pytest.raises(MapError, match="^agents file needs grid coordinates$"):
        agents_from_text(graph, "0,0,0,1,0,0.5\n")


def test_instance_checksum_needs_a_grid():
    agents = (AgentSpec(0, 0, 1, 0.5),)
    assert len(instance_checksum(Instance(GRID, agents))) == 16
    with pytest.raises(MapError, match="^graph carries no grid metadata$"):
        instance_checksum(Instance(Graph.from_edges(2, [(0, 1)]), agents))


class TestPlanFromJson:
    def test_round_trip_sorts_by_id(self):
        plan = Plan((Path((0, 1), (0.0, 1.5)), Path((3,))))
        again, checksum = plan_from_json(plan_to_json(plan, "abc"))
        assert (again, checksum) == (plan, "abc")
        doc = {"agents": [{"id": 1, "path": [3]}, {"id": 0, "path": [0, 1]}]}
        assert plan_from_json(json.dumps(doc))[0].paths == (Path((0, 1)), Path((3,)))

    @pytest.mark.parametrize("text, message", [
        ("not json", "not JSON"),
        ("[]", "JSON object"),
        ('{"checksum": ""}', "'agents' list"),
        ('{"agents": {}}', "'agents' list"),
        ('{"agents": [], "checksum": 7}', "'checksum'"),
        ('{"agents": [{"id": 0}]}', r"agents\[0\]: needs an integer 'id'"),
        ('{"agents": [{"path": [0]}]}', r"agents\[0\]: needs an integer 'id'"),
        ('{"agents": [{"id": true, "path": [0]}]}', r"agents\[0\]: needs an integer 'id'"),
        ('{"agents": [{"id": 0, "path": []}]}', r"agents\[0\]: needs"),
        ('{"agents": [{"id": 0, "path": [0, "1"]}]}', r"agents\[0\]: needs"),
        ('{"agents": [{"id": 0, "path": [0], "labels": [0, 1]}]}', "'labels'"),
        ('{"agents": [{"id": 0, "path": [0, 1, 2], "labels": [0.0, NaN, NaN]}]}',
         r"^plan agents\[0\]: 'labels' must be a list of finite numbers"),
        ('{"agents": [{"id": 0, "path": [0, 1]}, {"id": 1, "path": [2, 3], '
         '"labels": [0, Infinity]}]}', r"^plan agents\[1\]: 'labels' must be"),
        ('{"agents": [{"id": 0, "path": [0, 1], "labels": [-Infinity, 1]}]}',
         r"agents\[0\]: 'labels'"),
        ('{"agents": [{"id": 0, "path": [0, 1], "labels": [0, 1e400]}]}',
         r"agents\[0\]: 'labels'"),
        ('{"agents": [{"id": 0, "path": [0, 1], "labels": [false, true]}]}',
         r"agents\[0\]: 'labels'"),
        ('{"agents": [{"id": 0, "path": [0]}, {"id": 0, "path": [1]}]}',
         r"agents\[1\]: duplicate agent id 0"),
    ])
    def test_malformed_raises_map_error(self, text, message):
        with pytest.raises(MapError, match=message):
            plan_from_json(text)

    def test_integer_label_past_the_floats_rejected(self):
        # finite as an int, but every label computation would overflow
        text = '{"agents": [{"id": 0, "path": [0, 1], "labels": [0, %d]}]}' % 10 ** 309
        with pytest.raises(MapError, match=r"agents\[0\]: 'labels' must be a list of finite"):
            plan_from_json(text)

    @pytest.mark.parametrize("ids, message", [
        ((0, 5), "plan agents[1]: agent id 5 is outside 0 ... 1"),
        ((-1, 0), "plan agents[0]: agent id -1 is outside 0 ... 1"),
    ], ids=["above", "negative"])
    def test_id_outside_range_rejected(self, ids, message):
        doc = {"agents": [{"id": i, "path": [0]} for i in ids]}
        with pytest.raises(MapError) as err:
            plan_from_json(json.dumps(doc))
        assert str(err.value) == message


# Parsers must return or raise MapError on any input, never another error.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["agents", "id", "path", "labels", "checksum"]) | st.text(max_size=3),
        inner, max_size=4),
    max_leaves=20)
AGENT_FIELDS = st.lists(
    st.integers(-2, 5).map(str) | st.floats().map(str) | st.text(max_size=3),
    min_size=1, max_size=7).map(",".join)


@given(st.text() | st.text(alphabet=".@T \n0123456789-"))
def test_parse_map_fuzz(text):
    returns_or_raises_map_error(parse_map, text)


@given(st.text() | st.lists(AGENT_FIELDS, max_size=4).map("\n".join))
def test_agents_from_text_fuzz(text):
    returns_or_raises_map_error(agents_from_text, GRID, text)


@given(st.text() | JSON_VALUES.map(json.dumps)
       | st.dictionaries(st.sampled_from(["agents", "checksum"]), JSON_VALUES).map(json.dumps))
def test_plan_from_json_fuzz(text):
    returns_or_raises_map_error(plan_from_json, text)
