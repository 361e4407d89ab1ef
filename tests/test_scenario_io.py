from pathlib import Path

import numpy as np
import pytest
import yaml

from rngswarm.engine import InitSpec, RoundReport, SwarmState, WorldConfig, run
from rngswarm.geom import Polygon
from rngswarm.graphs import GraphMetrics, effective_graph, visibility_graph
from rngswarm.motion import BehaviorSpec
from rngswarm.reporting import METRICS_COLUMNS, metrics_lines, write_metrics, write_svg_frame
from rngswarm import scenario
from rngswarm.scenario import ScenarioError, load_scenario, save_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SAVED_DIR = Path(__file__).resolve().parent / "data" / "saved"


def base_doc():
    return {
        "n": 3,
        "V": 2.0,
        "behavior": {"kind": "gather"},
        "init": {"box": [0.0, 0.0, 1.0, 1.0]},
    }


def load_doc(tmp_path, doc):
    p = tmp_path / "scn.yaml"
    p.write_text(yaml.safe_dump(doc))
    return load_scenario(p)


class TestLoadScenario:
    def test_defaults(self, tmp_path):
        w = load_doc(tmp_path, base_doc())
        assert w.n == 3
        assert w.vis_range == 2.0
        assert w.rng_plus == 0
        assert w.min_separation == 0.2  # V / 10
        assert w.seed == 0
        assert w.max_rounds == 1000
        assert w.behavior.max_step == 0.4  # V / 5
        assert w.behavior.desired_spacing == 0.2
        assert w.behavior.spring_gain == 0.5
        assert w.behavior.waypoint_tolerance == 0.1  # V / 20
        assert w.behavior.waypoints == ()
        assert w.obstacles == ()

    def test_explicit_positions(self, tmp_path):
        doc = base_doc()
        doc["init"] = {"positions": [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]}
        w = load_doc(tmp_path, doc)
        assert w.init.positions == ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))
        assert w.init.box is None

    def test_obstacles_parsed(self, tmp_path):
        doc = base_doc()
        doc["obstacles"] = [[[3.0, 0.0], [4.0, 0.0], [4.0, 1.0], [3.0, 1.0]]]
        w = load_doc(tmp_path, doc)
        assert len(w.obstacles) == 1
        assert w.obstacles[0].contains_xy(3.5, 0.5)

    def test_null_obstacles_means_none(self, tmp_path):
        doc = base_doc()
        doc["obstacles"] = None
        assert load_doc(tmp_path, doc).obstacles == ()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "absent.yaml")

    def test_unparseable_yaml(self, tmp_path):
        p = tmp_path / "scn.yaml"
        p.write_text("behavior: {kind: [unterminated\n")
        with pytest.raises(ScenarioError):
            load_scenario(p)

    def test_top_level_must_be_mapping(self, tmp_path):
        p = tmp_path / "scn.yaml"
        p.write_text("- 1\n- 2\n")
        with pytest.raises(ScenarioError, match="mapping"):
            load_scenario(p)

    @pytest.mark.parametrize("key", ["n", "V", "behavior", "init"])
    def test_required_keys(self, tmp_path, key):
        doc = base_doc()
        del doc[key]
        with pytest.raises(ScenarioError, match=f"missing required key '{key}'"):
            load_doc(tmp_path, doc)

    def test_unknown_top_key(self, tmp_path):
        doc = base_doc()
        doc["speed"] = 3
        with pytest.raises(ScenarioError, match="unknown key 'speed'"):
            load_doc(tmp_path, doc)

    def test_unknown_behavior_key(self, tmp_path):
        doc = base_doc()
        doc["behavior"]["speed"] = 3
        with pytest.raises(ScenarioError, match="unknown key 'behavior.speed'"):
            load_doc(tmp_path, doc)

    def test_n_must_be_integer(self, tmp_path):
        doc = base_doc()
        doc["n"] = 3.5
        with pytest.raises(ScenarioError, match="'n' must be an integer"):
            load_doc(tmp_path, doc)
        doc["n"] = True  # YAML booleans are not counts
        with pytest.raises(ScenarioError, match="'n' must be an integer"):
            load_doc(tmp_path, doc)

    def test_bad_range(self, tmp_path):
        doc = base_doc()
        doc["V"] = 0
        with pytest.raises(ScenarioError, match="'V' must be positive"):
            load_doc(tmp_path, doc)

    def test_bad_trim_level(self, tmp_path):
        doc = base_doc()
        doc["m"] = -1
        with pytest.raises(ScenarioError, match="'m' must be >= 0"):
            load_doc(tmp_path, doc)

    @pytest.mark.parametrize("key, value", [("seed", -3), ("max_rounds", -1)])
    def test_negative_count(self, tmp_path, key, value):
        doc = base_doc()
        doc[key] = value
        with pytest.raises(ScenarioError, match=f"^'{key}' must be >= 0 and an integer, got {value}$"):
            load_doc(tmp_path, doc)

    def test_separation_must_stay_below_range(self, tmp_path):
        doc = base_doc()
        doc["sep"] = 2.0
        with pytest.raises(ScenarioError, match="'sep' must satisfy 0 <= sep < V"):
            load_doc(tmp_path, doc)

    def test_bad_kind(self, tmp_path):
        doc = base_doc()
        doc["behavior"]["kind"] = "wander"
        with pytest.raises(ScenarioError, match="'behavior.kind'"):
            load_doc(tmp_path, doc)

    def test_bad_gain(self, tmp_path):
        doc = base_doc()
        doc["behavior"]["gain"] = 0.0
        with pytest.raises(ScenarioError, match="'behavior.gain'"):
            load_doc(tmp_path, doc)

    def test_leader_index_range(self, tmp_path):
        doc = base_doc()
        doc["behavior"]["kind"] = "leader_follow"
        doc["behavior"]["leader_index"] = 3
        with pytest.raises(ScenarioError, match="'behavior.leader_index'"):
            load_doc(tmp_path, doc)

    def test_malformed_waypoint(self, tmp_path):
        doc = base_doc()
        doc["behavior"]["waypoints"] = [[1.0, 2.0, 3.0]]
        with pytest.raises(ScenarioError, match=r"'behavior.waypoints\[0\]'"):
            load_doc(tmp_path, doc)

    def test_spacing_below_separation(self, tmp_path):
        doc = base_doc()
        doc["sep"] = 0.5
        doc["behavior"]["spacing"] = 0.3
        with pytest.raises(ScenarioError, match="'behavior.spacing' must be >= 'sep'"):
            load_doc(tmp_path, doc)

    def test_step_budget_versus_floor(self, tmp_path):
        doc = base_doc()
        doc["sep"] = 0.5
        doc["behavior"]["spacing"] = 0.5
        doc["behavior"]["max_step"] = 0.9
        with pytest.raises(ScenarioError, match=r"max_step' must be <= \(V - sep\) / 2"):
            load_doc(tmp_path, doc)

    def test_bad_obstacle(self, tmp_path):
        doc = base_doc()
        doc["obstacles"] = [[[0.0, 0.0], [1.0, 0.0]]]
        with pytest.raises(ScenarioError, match=r"'obstacles\[0\]'"):
            load_doc(tmp_path, doc)

    def test_non_finite_obstacle_vertex(self, tmp_path):
        doc = base_doc()
        doc["obstacles"] = [[[0.0, 0.0], [float("nan"), 0.0], [1.0, 1.0]]]  # written as .nan
        with pytest.raises(ScenarioError, match=r"'obstacles\[0\]': polygon vertices must be finite"):
            load_doc(tmp_path, doc)

    def test_init_needs_exactly_one_source(self, tmp_path):
        doc = base_doc()
        doc["init"] = {}
        with pytest.raises(ScenarioError, match="exactly one"):
            load_doc(tmp_path, doc)
        doc["init"] = {"positions": [[0, 0], [1, 0], [2, 0]], "box": [0, 0, 1, 1]}
        with pytest.raises(ScenarioError, match="exactly one"):
            load_doc(tmp_path, doc)

    def test_position_count(self, tmp_path):
        doc = base_doc()
        doc["init"] = {"positions": [[0.0, 0.0], [1.0, 0.0]]}
        with pytest.raises(ScenarioError, match="must list n=3 points"):
            load_doc(tmp_path, doc)

    def test_disconnected_positions(self, tmp_path):
        doc = base_doc()
        doc["init"] = {"positions": [[0.0, 0.0], [1.0, 0.0], [9.0, 0.0]]}
        with pytest.raises(ScenarioError, match="disconnected"):
            load_doc(tmp_path, doc)

    def test_positions_below_the_separation_floor(self, tmp_path):
        doc = base_doc()
        doc["init"] = {"positions": [[0.0, 0.0], [0.1, 0.0], [0.5, 0.0]]}  # sep defaults to 0.2
        with pytest.raises(ScenarioError, match="'init.positions' must keep every pair"):
            load_doc(tmp_path, doc)

    def test_bad_box(self, tmp_path):
        doc = base_doc()
        doc["init"] = {"box": [0.0, 0.0, 1.0]}
        with pytest.raises(ScenarioError, match=r"'init.box' must be \[xmin, ymin, xmax, ymax\]"):
            load_doc(tmp_path, doc)
        doc["init"] = {"box": [2.0, 0.0, 1.0, 1.0]}
        with pytest.raises(ScenarioError, match="xmin < xmax"):
            load_doc(tmp_path, doc)

    def test_shipped_scenarios_load(self):
        paths = sorted(SCENARIO_DIR.glob("*.yaml"))
        assert len(paths) >= 4
        for p in paths:
            w = load_scenario(p)
            assert isinstance(w, WorldConfig)

    def test_narrow_passage_details(self):
        w = load_scenario(SCENARIO_DIR / "narrow_passage.yaml")
        assert w.n == 15
        assert w.rng_plus == 1
        assert w.behavior.kind == "leader_follow"
        assert len(w.obstacles) == 2
        assert len(w.behavior.waypoints) == 5


def full_featured_world():
    spec = BehaviorSpec(
        kind="leader_follow",
        max_step=0.15,
        desired_spacing=0.1,
        spring_gain=0.7,
        leader_index=1,
        waypoints=((2.5, 0.25), (3.0, -1.0)),
        waypoint_tolerance=0.04,
    )
    wall = Polygon(((5.0, 0.0), (6.0, 0.0), (6.0, 1.0), (5.0, 1.0)))
    return WorldConfig(
        n=3,
        vis_range=1.0,
        behavior=spec,
        init=InitSpec(positions=((0.0, 0.0), (0.5, 0.0), (1.0, 0.0))),
        rng_plus=2,
        min_separation=0.1,
        obstacles=(wall,),
        max_rounds=750,
        seed=42,
    )


FULL_FEATURED_TEXT = """\
n: 3
V: 1.0
m: 2
sep: 0.1
seed: 42
max_rounds: 750
behavior:
  kind: leader_follow
  spacing: 0.1
  gain: 0.7
  leader_index: 1
  waypoints:
  - - 2.5
    - 0.25
  - - 3.0
    - -1.0
  waypoint_tolerance: 0.04
  max_step: 0.15
obstacles:
- - - 5.0
    - 0.0
  - - 6.0
    - 0.0
  - - 6.0
    - 1.0
  - - 5.0
    - 1.0
init:
  positions:
  - - 0.0
    - 0.0
  - - 0.5
    - 0.0
  - - 1.0
    - 0.0
"""


class TestSaveScenario:
    def test_round_trip_with_box(self, tmp_path):
        w1 = load_doc(tmp_path, base_doc())
        out = tmp_path / "saved.yaml"
        save_scenario(w1, out)
        assert load_scenario(out) == w1

    def test_round_trip_full_featured(self, tmp_path):
        w1 = full_featured_world()
        out = tmp_path / "saved.yaml"
        save_scenario(w1, out)
        w2 = load_scenario(out)
        assert w2 == w1

    def test_save_is_stable(self, tmp_path):
        w = load_scenario(SCENARIO_DIR / "formation.yaml")
        p1, p2 = tmp_path / "a.yaml", tmp_path / "b.yaml"
        save_scenario(w, p1)
        save_scenario(load_scenario(p1), p2)
        assert p1.read_text() == p2.read_text()

    @pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.yaml")))
    def test_bundled_scenario_bytes(self, tmp_path, name):
        # the text each bundled scenario saves as, pinned file by file
        out = tmp_path / name
        save_scenario(load_scenario(SCENARIO_DIR / name), out)
        assert out.read_text() == (SAVED_DIR / name).read_text()

    def test_full_featured_bytes(self, tmp_path):
        out = tmp_path / "saved.yaml"
        save_scenario(full_featured_world(), out)
        assert out.read_text() == FULL_FEATURED_TEXT

    def test_writes_every_key_the_loader_reads(self, tmp_path):
        # one world with a box and none with obstacles, one with positions and
        # walls: between them they write every key, and only keys, load accepts
        docs = []
        for i, world in enumerate((load_doc(tmp_path, base_doc()), full_featured_world())):
            out = tmp_path / f"saved{i}.yaml"
            save_scenario(world, out)
            docs.append(yaml.safe_load(out.read_text()))
        assert set().union(*docs) == scenario._TOP_KEYS
        for doc in docs:
            assert set(doc["behavior"]) == set(scenario._BEHAVIOR_FIELDS) | {"kind"}
        assert set().union(*(doc["init"] for doc in docs)) == scenario._INIT_KEYS


def idle_world(positions, max_rounds=30):
    return WorldConfig(
        n=len(positions),
        vis_range=1.0,
        behavior=BehaviorSpec(kind="idle", max_step=0.2),
        init=InitSpec(positions=tuple(positions)),
        min_separation=0.0,
        max_rounds=max_rounds,
    )


class TestMetricsCsv:
    def test_header(self):
        assert metrics_lines([])[0] == (
            "round,edge_count,effective_edge_count,connected,diameter_hops,"
            "min_pair_distance,max_pair_distance,reverted_agents"
        )
        assert ",".join(METRICS_COLUMNS) == metrics_lines([])[0]

    def test_one_line_per_round(self):
        reports = run(idle_world([(0.0, 0.0), (0.5, 0.0)]))
        lines = metrics_lines(reports)
        assert len(lines) == len(reports) + 1
        assert lines[1].startswith("1,")

    def test_field_formatting(self):
        metrics = GraphMetrics(
            edge_count=4,
            effective_edge_count=3,
            connected=True,
            diameter_hops=2,
            min_pair_distance=0.1234567891234,
            max_pair_distance=2.0 / 3.0,
        )
        rep = RoundReport(round=7, metrics=metrics, reverted_agents=1)
        assert metrics_lines([rep])[1] == "7,4,3,1,2,0.123456789,0.666666667,1"

    def test_disconnected_flag_and_sentinel(self):
        metrics = GraphMetrics(
            edge_count=0,
            effective_edge_count=0,
            connected=False,
            diameter_hops=-1,
            min_pair_distance=5.0,
            max_pair_distance=5.0,
        )
        rep = RoundReport(round=1, metrics=metrics, reverted_agents=0)
        assert metrics_lines([rep])[1] == "1,0,0,0,-1,5,5,0"

    def test_single_agent_row(self):
        # no pair to measure: min distance is reported as inf, max as 0
        reports = run(idle_world([(0.0, 0.0)]))
        assert metrics_lines(reports)[1] == "1,0,0,1,0,inf,0,0"

    def test_write_metrics_bytes_stable(self, tmp_path):
        reports = run(idle_world([(0.0, 0.0), (0.5, 0.0)]))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics(reports, p1)
        write_metrics(reports, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().endswith("\n")


def svg_for(world, positions):
    state = SwarmState(round=0, positions=np.asarray(positions, dtype=float))
    g = visibility_graph(state.positions, world.vis_range, world.obstacles)
    eff = effective_graph(g, state.positions, world.rng_plus)
    return state, eff


class TestSvgFrames:
    def test_two_agents_one_solid_edge(self, tmp_path):
        positions = [(0.0, 0.0), (0.5, 0.0)]
        world = idle_world(positions)
        state, eff = svg_for(world, positions)
        out = tmp_path / "frame.svg"
        write_svg_frame(state, world, eff, out)
        text = out.read_text()
        assert text.startswith("<svg xmlns=")
        assert text.rstrip().endswith("</svg>")
        assert text.count("<circle") == 2
        assert text.count("<line") == 1
        assert "stroke-dasharray" not in text
        assert text.count("<polygon") == 0
        assert "round 0" in text

    def test_trimmed_edge_drawn_dashed(self, tmp_path):
        # three collinear agents: the long edge is trimmed by the middle one
        positions = [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)]
        world = idle_world(positions)
        state, eff = svg_for(world, positions)
        assert len(eff.edges) == 2
        out = tmp_path / "frame.svg"
        write_svg_frame(state, world, eff, out)
        text = out.read_text()
        assert text.count("<line") == 3
        assert text.count("stroke-dasharray") == 1

    def test_obstacles_drawn_as_polygons(self, tmp_path):
        positions = [(0.0, 0.0), (0.5, 0.0)]
        walls = (
            Polygon(((2.0, 0.0), (3.0, 0.0), (3.0, 1.0), (2.0, 1.0))),
            Polygon(((2.0, -2.0), (3.0, -2.0), (3.0, -1.0), (2.0, -1.0))),
        )
        world = WorldConfig(
            n=2,
            vis_range=1.0,
            behavior=BehaviorSpec(kind="idle", max_step=0.2),
            init=InitSpec(positions=tuple(positions)),
            min_separation=0.0,
            obstacles=walls,
        )
        state, eff = svg_for(world, positions)
        out = tmp_path / "frame.svg"
        write_svg_frame(state, world, eff, out)
        assert out.read_text().count("<polygon") == 2

    def test_blocked_pair_is_not_drawn(self, tmp_path):
        # agents 0 and 1 are in range but a wall stands between them; agent 2
        # sees both around it. The blocked pair is neither solid nor dashed.
        positions = [(0.0, 0.0), (0.8, 0.0), (0.4, 0.8)]
        wall = Polygon(((0.35, -0.3), (0.45, -0.3), (0.45, 0.3), (0.35, 0.3)))
        world = WorldConfig(
            n=3,
            vis_range=1.0,
            behavior=BehaviorSpec(kind="idle", max_step=0.2),
            init=InitSpec(positions=tuple(positions)),
            min_separation=0.0,
            obstacles=(wall,),
        )
        state, eff = svg_for(world, positions)
        assert eff.edges.tolist() == [[0, 2], [1, 2]]
        out = tmp_path / "frame.svg"
        write_svg_frame(state, world, eff, out)
        text = out.read_text()
        assert text.count("<line") == 2
        assert "stroke-dasharray" not in text

    def test_leader_accent_and_waypoint_crosses(self, tmp_path):
        positions = [(0.0, 0.0), (0.5, 0.0)]
        spec = BehaviorSpec(
            kind="leader_follow", max_step=0.2, waypoints=((1.0, 0.0), (2.0, 0.0))
        )
        world = WorldConfig(
            n=2,
            vis_range=1.0,
            behavior=spec,
            init=InitSpec(positions=tuple(positions)),
            min_separation=0.0,
        )
        state, eff = svg_for(world, positions)
        out = tmp_path / "frame.svg"
        write_svg_frame(state, world, eff, out)
        text = out.read_text()
        assert text.count('fill="#c0392b"') == 1  # exactly one accented agent
        assert text.count("<path") == 2  # one cross per waypoint

    def test_no_accent_without_a_leader(self, tmp_path):
        positions = [(0.0, 0.0), (0.5, 0.0)]
        world = idle_world(positions)
        state, eff = svg_for(world, positions)
        out = tmp_path / "frame.svg"
        write_svg_frame(state, world, eff, out)
        assert 'fill="#c0392b"' not in out.read_text()
