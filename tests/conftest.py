import pytest
from hypothesis import settings

from mapf_dp import AgentSpec, Graph, Instance, Path, Plan

# No per-example deadline: several tests run many solves or simulations per
# example, and wall time on a shared machine drifts by tens of percent.
settings.register_profile("mapf-dp", deadline=None)
settings.load_profile("mapf-dp")

# filled by tests/test_acceptance.py, echoed after the test summary
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)

# corridor c1-c2-c3-c4 with a pocket cell north of c2; two agents must swap
# through it (ids: pocket=0, corridor=1..4)
POCKET = 0
C1, C2, C3, C4 = 1, 2, 3, 4


@pytest.fixture
def pocket_graph() -> Graph:
    return Graph.from_edges(5, [(C1, C2), (C2, C3), (C3, C4), (POCKET, C2)])


@pytest.fixture
def pocket_instance(pocket_graph) -> Instance:
    # agent 0: c2 -> c3, agent 1: c1 -> c4; agent 0 must step aside
    return Instance(pocket_graph, (
        AgentSpec(0, C2, C3, 0.5),
        AgentSpec(1, C1, C4, 0.5),
    ))


@pytest.fixture
def pocket_valid_plan() -> Plan:
    return Plan((
        Path((C2, POCKET, POCKET, POCKET, C2, C3)),
        Path((C1, C1, C2, C3, C4)),
    ))


@pytest.fixture
def pocket_invalid_plan() -> Plan:
    # fine under perfect execution, but agent 1 follows agent 0 too closely
    return Plan((
        Path((C2, POCKET, POCKET, C2, C3)),
        Path((C1, C2, C3, C4)),
    ))


@pytest.fixture
def pocket_long_plan() -> Plan:
    # the worked partial-order example: agent 0 bounces through the pocket twice
    return Plan((
        Path((C2, POCKET, C2, POCKET, POCKET, POCKET, C2, C3)),
        Path((C1, C1, C1, C1, C2, C3, C4)),
    ))
