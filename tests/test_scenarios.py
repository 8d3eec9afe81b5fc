import copy

import numpy as np
import pytest
import yaml

from smlr import scenario as scenario_module
from smlr.bundles import check_admissibility
from smlr.cli import EXIT_BAD_INPUT, main
from smlr.oracle import GridOracle
from smlr.planner import PlannerConfig
from smlr.scenario import (ScenarioError, load_scenario, shipped_scenario_dir,
                           shipped_scenarios)

ALL = shipped_scenarios()
NAMES = [p.stem for p in ALL]


def write(tmp_path, text):
    f = tmp_path / "scenario.yaml"
    f.write_text(text)
    return f


MINIMAL = """\
format_version: 1
name: minimal
ground_truth: feasible
levels:
  - space:
      - {type: real, bounds: [[0.0, 1.0], [0.0, 1.0]]}
    robot: {type: point}
start: [0.1, 0.1]
goal: [0.9, 0.9]
"""


class TestShippedCorpus:
    def test_corpus_complete(self):
        assert shipped_scenario_dir().is_dir()
        for stem in ("square_wall", "bugtrap2d", "torus_band", "se2_lshape",
                     "se2_bugtrap", "chain4"):
            assert f"{stem}_feasible" in NAMES
            assert f"{stem}_infeasible" in NAMES
        assert "torus_free" in NAMES

    @pytest.mark.parametrize("path", ALL, ids=NAMES)
    def test_loader_parses_like_safe_loader(self, path):
        text = path.read_text()
        fast = yaml.load(text, Loader=scenario_module._LOADER)
        safe = yaml.load(text, Loader=yaml.SafeLoader)
        # repr also tells 1 from 1.0 and keeps key order
        assert fast == safe
        assert repr(fast) == repr(safe)

    @pytest.mark.parametrize("path", ALL, ids=NAMES)
    def test_loads_and_validates(self, path):
        sc = load_scenario(path)
        assert sc.name == path.stem
        assert sc.ground_truth in ("feasible", "infeasible")
        finest = sc.seq.finest
        assert finest.space.contains(sc.start)
        assert finest.space.contains(sc.goal)
        # the query endpoints must be feasible on every level
        for k in range(sc.seq.depth):
            v = sc.seq.levels[k].validity
            assert v.is_valid(sc.seq.project_to_level(sc.start, k))
            assert v.is_valid(sc.seq.project_to_level(sc.goal, k))

    def test_torus_free_is_two_level(self):
        sc = load_scenario(shipped_scenario_dir() / "torus_free.yaml")
        assert sc.seq.depth == 2
        assert sc.seq.levels[0].space.dim == 1
        assert sc.seq.levels[1].space.dim == 2

    @pytest.mark.parametrize("path", ALL, ids=NAMES)
    def test_projections_admissible(self, path):
        sc = load_scenario(path)
        report = check_admissibility(sc.seq, 10 ** 4,
                                     np.random.default_rng(0))
        assert report.violations == 0

    @pytest.mark.parametrize("path", ALL, ids=NAMES)
    def test_ground_truth_agrees_with_oracle(self, path):
        sc = load_scenario(path)
        finest = sc.seq.finest
        delta = sc.config.delta_fraction * finest.space.max_extent()
        oracle = GridOracle(finest.space, finest.validity, delta / 4)
        assert oracle.feasible(sc.start, sc.goal) == \
            (sc.ground_truth == "feasible")


class TestDiagnostics:
    def test_minimal_ok(self, tmp_path):
        sc = load_scenario(write(tmp_path, MINIMAL))
        assert sc.seq.depth == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_scenario(tmp_path / "nope.yaml")

    def test_bad_yaml(self, tmp_path):
        with pytest.raises(ScenarioError, match="parse error"):
            load_scenario(write(tmp_path, "levels: [::"))

    def test_pure_python_loader_fallback(self, tmp_path, monkeypatch):
        # the loader of a PyYAML built without libyaml
        monkeypatch.setattr(scenario_module, "_LOADER", yaml.SafeLoader)
        assert load_scenario(write(tmp_path, MINIMAL)).name == "minimal"
        with pytest.raises(ScenarioError, match="parse error"):
            load_scenario(write(tmp_path, "levels: [::"))

    def test_wrong_format_version(self, tmp_path):
        text = MINIMAL.replace("format_version: 1", "format_version: 99")
        with pytest.raises(ScenarioError, match="format_version"):
            load_scenario(write(tmp_path, text))

    def test_bad_ground_truth(self, tmp_path):
        text = MINIMAL.replace("ground_truth: feasible",
                               "ground_truth: maybe")
        with pytest.raises(ScenarioError, match="ground_truth"):
            load_scenario(write(tmp_path, text))

    def test_start_out_of_bounds_named(self, tmp_path):
        text = MINIMAL.replace("start: [0.1, 0.1]", "start: [3.0, 0.1]")
        with pytest.raises(ScenarioError, match="start within bounds"):
            load_scenario(write(tmp_path, text))

    def test_start_dimension_mismatch(self, tmp_path):
        text = MINIMAL.replace("start: [0.1, 0.1]", "start: [0.1]")
        with pytest.raises(ScenarioError, match="start"):
            load_scenario(write(tmp_path, text))

    def test_missing_levels(self, tmp_path):
        text = "\n".join(line for line in MINIMAL.splitlines()
                         if not line.startswith(("levels", "  -", "    ",
                                                 "      ")))
        with pytest.raises(ScenarioError, match="levels"):
            load_scenario(write(tmp_path, text + "\n"))

    def test_unknown_obstacle_type(self, tmp_path):
        text = MINIMAL.replace(
            "levels:",
            "obstacles:\n  - {type: blob, center: [0.5, 0.5]}\nlevels:")
        with pytest.raises(ScenarioError, match="obstacle type"):
            load_scenario(write(tmp_path, text))

    def test_mixed_box_dimensions_named(self, tmp_path):
        text = MINIMAL.replace(
            "levels:",
            "obstacles:\n  - {type: box, lo: [0.4, 0.4], hi: [0.6, 0.6]}\n"
            "  - {type: box, lo: [0.4], hi: [0.6]}\nlevels:")
        with pytest.raises(ScenarioError,
                           match=r"levels\[0\]: box obstacles "
                                 r"mix dimensions \[1, 2\]"):
            load_scenario(write(tmp_path, text))

    def test_mixed_kind_dimensions_named(self, tmp_path):
        text = MINIMAL.replace(
            "levels:",
            "obstacles:\n  - {type: box, lo: [0.4, 0.4], hi: [0.6, 0.6]}\n"
            "  - {type: disc, center: [0.2, 0.2, 0.2], radius: 0.1}\n"
            "levels:")
        with pytest.raises(ScenarioError,
                           match=r"levels\[0\]: obstacles "
                                 r"mix dimensions \[2, 3\]"):
            load_scenario(write(tmp_path, text))

    def test_mismatched_base_indices(self, tmp_path):
        text = MINIMAL.replace(
            "start: [0.1, 0.1]\ngoal: [0.9, 0.9]",
            """  - space:
      - {type: real, bounds: [[0.0, 1.0], [0.0, 1.0]], weight: 1.0}
      - {type: circle, weight: 0.5}
    robot: {type: point}
    base_indices: [0, 1, 2]
start: [0.1, 0.1, 0.0]
goal: [0.9, 0.9, 0.0]""")
        with pytest.raises(ScenarioError, match="base_indices"):
            load_scenario(write(tmp_path, text))

    def test_weight_on_single_factor_rejected(self, tmp_path):
        text = MINIMAL.replace(
            "- {type: real, bounds: [[0.0, 1.0], [0.0, 1.0]]}",
            "- {type: real, bounds: [[0.0, 1.0], [0.0, 1.0]], weight: 0.5}")
        with pytest.raises(ScenarioError, match="weight"):
            load_scenario(write(tmp_path, text))

    @pytest.mark.parametrize("value", ["0", "abc", "2.0", "true"])
    def test_bad_check_resolution_named(self, tmp_path, value):
        text = MINIMAL + f"planner: {{check_resolution: {value}}}\n"
        with pytest.raises(ScenarioError,
                           match=r"planner: check_resolution must be in"):
            load_scenario(write(tmp_path, text))

    @pytest.mark.parametrize("planner, match", [
        ("{M: null}", "planner: M must be a whole number, got None"),
        ("{M: 2.7}", "planner: M must be a whole number, got 2.7"),
        ("{M: true}", "planner: M must be a whole number, got True"),
        ("{delta_fraction: null}", "planner: delta_fraction must be a number"),
        ("{eta: [1]}", r"planner: eta must be a whole number, got \[1\]"),
        ("{time_limit: null}", "planner: time_limit must be a number"),
        ("{time_limit: abc}", "planner: time_limit must be a number"),
        ("[1]", "'planner' must be a mapping"),
        ("5", "'planner' must be a mapping"),
    ])
    def test_bad_planner_named(self, tmp_path, planner, match):
        text = MINIMAL + f"planner: {planner}\n"
        with pytest.raises(ScenarioError, match=match):
            load_scenario(write(tmp_path, text))

    @pytest.mark.parametrize("obstacles, match", [
        ("3", "minimal: 'obstacles' must be a list"),
        ("[3]", r"minimal.obstacles\[0\] must be a mapping"),
    ])
    def test_bad_obstacles_named(self, tmp_path, obstacles, match):
        text = MINIMAL.replace("levels:", f"obstacles: {obstacles}\nlevels:")
        with pytest.raises(ScenarioError, match=match):
            load_scenario(write(tmp_path, text))

    def test_unset_planner_keys_keep_config_defaults(self, tmp_path):
        sc = load_scenario(write(tmp_path, MINIMAL +
                                 "planner: {eta: 7.0, time_limit: '5'}\n"))
        assert sc.config == PlannerConfig(eta=7, time_limit=5.0)


# a valid four-level scenario that sets every field the loader reads: each
# robot kind with all its keys, every obstacle kind, weights, bundle
# indices, a level's own obstacle list and every planner key
BOUNDARY = {
    "format_version": 1, "name": "boundary", "ground_truth": "feasible",
    "workspace": [[0.0, 1.0], [0.0, 1.0]],
    "obstacles": [
        {"type": "box", "lo": [0.45, 0.0], "hi": [0.55, 0.3]},
        {"type": "disc", "center": [0.5, 0.8], "radius": 0.05},
        {"type": "polygon",
         "vertices": [[0.1, 0.8], [0.2, 0.8], [0.15, 0.9]]}],
    "levels": [
        {"space": [{"type": "real", "bounds": [[0.0, 1.0], [0.0, 1.0]]}],
         "robot": {"type": "point", "position_indices": [0, 1]}},
        {"space": [{"type": "real", "bounds": [[0.0, 1.0], [0.0, 1.0]]}],
         "robot": {"type": "disc", "radius": 0.02,
                   "position_indices": [0, 1]},
         "base_indices": [0, 1]},
        {"space": [{"type": "real", "bounds": [[0.0, 1.0], [0.0, 1.0]],
                    "weight": 1.0},
                   {"type": "circle", "weight": 0.1}],
         "robot": {"type": "polygon",
                   "vertices": [[-0.02, -0.02], [0.02, -0.02], [0.0, 0.03]],
                   "pose_indices": [0, 1, 2]},
         "base_indices": [0, 1]},
        {"space": [{"type": "real", "bounds": [[0.0, 1.0], [0.0, 1.0]]},
                   {"type": "real", "bounds": [[-3.1, 3.1], [-3.1, 3.1]],
                    "weight": 0.05}],
         "robot": {"type": "chain", "link_lengths": [0.05, 0.05],
                   "link_radius": 0.01, "base_indices": [0, 1],
                   "angle_indices": [2, 3]},
         "base_indices": [0, 1, 2],
         "obstacles": [{"type": "box", "lo": [0.45, 0.0],
                        "hi": [0.55, 0.3]}]}],
    "planner": {"M": 50, "delta_fraction": 0.25, "eta": 100,
                "stretch_t": 3.0, "time_limit": 5.0,
                "check_resolution": 0.01},
    "start": [0.2, 0.5, 0.0, 0.0],
    "goal": [0.8, 0.5, 0.0, 0.0],
}

BOUNDARY_FIELDS = [
    ("workspace",), ("obstacles",), ("obstacles", 0),
    ("obstacles", 0, "type"), ("obstacles", 0, "lo"),
    ("obstacles", 0, "hi"), ("obstacles", 1, "center"),
    ("obstacles", 1, "radius"), ("obstacles", 2, "vertices"),
    ("levels",), ("levels", 0), ("levels", 0, "space"),
    ("levels", 0, "space", 0), ("levels", 0, "space", 0, "type"),
    ("levels", 0, "space", 0, "bounds"), ("levels", 2, "space", 0, "weight"),
    ("levels", 2, "space", 1, "weight"), ("levels", 0, "robot"),
    ("levels", 0, "robot", "type"), ("levels", 0, "robot", "position_indices"),
    ("levels", 1, "robot", "radius"),
    ("levels", 1, "robot", "position_indices"),
    ("levels", 2, "robot", "vertices"), ("levels", 2, "robot", "pose_indices"),
    ("levels", 3, "robot", "link_lengths"),
    ("levels", 3, "robot", "link_radius"),
    ("levels", 3, "robot", "base_indices"),
    ("levels", 3, "robot", "angle_indices"),
    ("levels", 1, "base_indices"), ("levels", 3, "base_indices"),
    ("levels", 1, "ignore_workspace"),
    ("levels", 3, "obstacles"), ("planner",), ("planner", "M"),
    ("planner", "delta_fraction"), ("planner", "eta"),
    ("planner", "stretch_t"), ("planner", "time_limit"),
    ("planner", "check_resolution"), ("start",), ("goal",),
]
# a string, a list, a ragged list, null, a bool, a mapping, a number, nan
# and an integer too large for a float
WRONG_VALUES = ["abc", [1], [[1], [1, 2]], None, True, {"a": 1}, 5,
                float("nan"), 10 ** 400]
NUMBER_KEYS = {"radius", "link_radius", "weight", "M", "delta_fraction",
               "eta", "stretch_t", "time_limit", "check_resolution"}


def _boundary_cases():
    for path in BOUNDARY_FIELDS:
        for value in WRONG_VALUES:
            if value == 5 and path[-1] in NUMBER_KEYS:
                continue  # the right type
            if value is True and path[-1] == "ignore_workspace":
                continue  # the right type
            if path in (("workspace",), ("planner",)) and (
                    value is None or value == {"a": 1}):
                continue  # null means absent; a planner mapping is its type
            yield path, value
    # indices of the right type outside the level's coordinates
    for robot, key, value in ((0, "position_indices", [0, 7]),
                              (2, "pose_indices", [0, 1, 7]),
                              (3, "base_indices", [0, -1]),
                              (3, "angle_indices", [2, 7])):
        yield ("levels", robot, "robot", key), value
    # a coordinate listed twice, which the body would read as two; the
    # chain's angle indices overlap its base indices (0, 1)
    for robot, key, value in ((1, "position_indices", [0, 0]),
                              (2, "pose_indices", [0, 1, 1]),
                              (3, "angle_indices", [1, 3])):
        yield ("levels", robot, "robot", key), value
    # bundle indices that a cast to int would read as other coordinates
    # ([0, 1] and [1, 1]), and a coordinate listed twice
    for value in ([0.5, 1], [0, 1.9], [True, 1], [0, 0]):
        yield ("levels", 1, "base_indices"), value
    yield from NON_FINITE_CASES


# a NaN or infinite coordinate, which would load and plan to a plausible
# wrong answer: through a wall, out of a box, or "start invalid"
NAN, INF = float("nan"), float("inf")
NON_FINITE_CASES = [
    (("workspace",), [[NAN, 1.0], [0.0, 1.0]]),
    (("workspace",), [[0.0, 1.0], [-INF, 1.0]]),
    (("obstacles", 0, "lo"), [NAN, 0.0]),
    (("obstacles", 0, "hi"), [0.55, INF]),
    (("obstacles", 1, "center"), [NAN, 0.5]),
    (("obstacles", 2, "vertices"), [[0.1, 0.8], [0.2, NAN], [0.15, 0.9]]),
    (("levels", 0, "space", 0, "bounds"), [[0.0, INF], [0.0, 1.0]]),
    (("levels", 2, "space", 0, "bounds"), [[0.0, 1.0], [NAN, 1.0]]),
    (("levels", 2, "robot", "vertices"),
     [[-0.02, -0.02], [0.02, NAN], [0.0, 0.03]]),
    (("levels", 3, "robot", "link_lengths"), [NAN, 0.05]),
    (("levels", 3, "robot", "link_lengths"), [0.05, INF]),
]


BOUNDARY_CASES = list(_boundary_cases())


def _corrupt(path, value) -> dict:
    doc = copy.deepcopy(BOUNDARY)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestBoundary:
    """Bad input fails at the scenario boundary with a named field."""

    def test_base_document_loads(self, tmp_path):
        sc = load_scenario(write(tmp_path, yaml.safe_dump(BOUNDARY)))
        assert sc.seq.depth == 4

    @pytest.mark.parametrize("flag", [True, False])
    def test_ignore_workspace_drops_the_level_bounds(self, tmp_path, flag):
        doc = _corrupt(("levels", 1, "ignore_workspace"), flag)
        sc = load_scenario(write(tmp_path, yaml.safe_dump(doc)))
        assert (sc.seq.levels[1].validity.workspace_lo is None) is flag

    @pytest.mark.parametrize(
        "path, value", BOUNDARY_CASES,
        ids=[".".join(map(str, p)) + f"={v!r:.20}" for p, v in BOUNDARY_CASES])
    def test_wrong_field_fails_by_name(self, tmp_path, capsys, path, value):
        f = write(tmp_path, yaml.safe_dump(_corrupt(path, value)))
        with pytest.raises(ScenarioError) as info:
            load_scenario(f)
        assert type(info.value) is ScenarioError
        assert str(info.value)
        out = tmp_path / "o"
        for cmd in (["plan", "--scenario", str(f), "--out", str(out)],
                    ["bench", "--scenarios", str(f), "--seeds", "1",
                     "--out", str(out)],
                    ["oracle", "--scenario", str(f), "--resolution", "0.1"]):
            assert main(cmd) == EXIT_BAD_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {info.value}\n"
            assert not out.exists()

    @pytest.mark.parametrize("path, value, match", [
        (("levels", 2, "space", 0, "weight"), "abc",
         r"^boundary.levels\[2\].space\[0\]: weight must be a number, "
         r"got 'abc'$"),
        (("start",), ["a", 0, 0, 0], r"^boundary.start: could not convert"),
        (("workspace",), "abc", r"^boundary.workspace: could not convert"),
        (("workspace",), [[0.0, 1.0], [0.0]], r"^boundary.workspace: "),
        (("levels", 3, "robot", "link_lengths"), 5,
         r"^boundary.levels\[3\].robot: "),
        (("levels", 1, "robot", "radius"), [1],
         r"^boundary.levels\[1\].robot: radius must be a number, "
         r"got \[1\]$"),
        (("levels", 0, "robot", "position_indices"), [0, 7],
         r"^boundary.levels\[0\].robot: position_indices must be indices "
         r"in 0..1, got \[0, 7\]$"),
        (("levels", 2, "robot", "pose_indices"), [0, 1],
         r"^boundary.levels\[2\].robot: polygon robot needs 3 pose "
         r"indices$"),
        (("levels", 3, "robot", "base_indices"), [0],
         r"^boundary.levels\[3\].robot: chain robot needs 2 base "
         r"indices$"),
        (("levels", 3, "robot", "angle_indices"), [1, 3],
         r"^boundary.levels\[3\].robot: base_indices and angle_indices "
         r"repeat a coordinate, got \[0, 1, 1, 3\]$"),
        (("planner", "stretch_t"), float("nan"),
         r"^boundary.planner: stretch_t must be a number, got nan$"),
        (("levels", 1, "robot", "radius"), float("inf"),
         r"^boundary.levels\[1\].robot: radius must be a number, "
         r"got inf$"),
        (("levels", 2, "space", 1, "weight"), 10 ** 400,
         r"^boundary.levels\[2\].space\[1\]: weight must be a number, "
         r"got 1000"),
        (("levels", 0, "robot", "position_indices"), [1],
         r"^boundary.levels\[0\]: obstacles\[0\] is not 1-D like the "
         r"robot$"),
        (("nmae",), "boundary", r"^boundary: unknown key 'nmae'$"),
        (("planner", "time_limt"), 1,
         r"^boundary.planner: unknown key 'time_limt'$"),
        (("levels", 1, "bse_indices"), [0, 1],
         r"^boundary.levels\[1\]: unknown key 'bse_indices'$"),
        (("levels", 0, "base_indices"), [0, 1],
         r"^boundary.levels\[0\]: unknown key 'base_indices'$"),
        (("levels", 2, "robot", "pose_indicse"), [0, 1, 2],
         r"^boundary.levels\[2\].robot: unknown key 'pose_indicse'$"),
        (("levels", 0, "robot", "radius"), 0.02,
         r"^boundary.levels\[0\].robot: unknown key 'radius'$"),
        (("levels", 2, "space", 1, "bounds"), [[0.0, 1.0]],
         r"^boundary.levels\[2\].space\[1\]: unknown key 'bounds'$"),
        (("obstacles", 1, "radious"), 0.05,
         r"^boundary.obstacles\[1\]: unknown key 'radious'$"),
        (("levels", 2, "robot", "vertices"),
         [[-0.02, -0.02, 0.0], [0.02, -0.02, 0.0], [0.0, 0.03, 0.0]],
         r"^boundary.levels\[2\].robot: polygon robot needs >= 3 planar "
         r"vertices$"),
        (("name",), [1], r": name must be a non-empty string, got \[1\]$"),
        (("name",), "", r": name must be a non-empty string, got ''$"),
        (("levels", 1, "ignore_workspace"), "false",
         r"^boundary.levels\[1\]: ignore_workspace must be true or false, "
         r"got 'false'$"),
        (("workspace",), [[NAN, 1.0], [0.0, 1.0]],
         r"^boundary.workspace: workspace must be finite, "
         r"got \[\[nan, 1.0\], \[0.0, 1.0\]\]$"),
        (("obstacles", 0, "lo"), [NAN, 0.0],
         r"^boundary.obstacles\[0\]: box lo must be finite, "
         r"got \[nan, 0.0\]$"),
        (("obstacles", 1, "center"), [NAN, 0.5],
         r"^boundary.obstacles\[1\]: disc center must be finite, "
         r"got \[nan, 0.5\]$"),
        (("obstacles", 2, "vertices"), [[0.1, 0.8], [0.2, NAN], [0.15, 0.9]],
         r"^boundary.obstacles\[2\]: polygon vertices must be finite, "),
        (("levels", 0, "space", 0, "bounds"), [[0.0, INF], [0.0, 1.0]],
         r"^boundary.levels\[0\].space\[0\]: bounds must be finite, "
         r"got \[\[0.0, inf\], \[0.0, 1.0\]\]$"),
        (("levels", 2, "robot", "vertices"),
         [[-0.02, -0.02], [0.02, NAN], [0.0, 0.03]],
         r"^boundary.levels\[2\].robot: polygon robot vertices must be "
         r"finite, "),
        (("levels", 3, "robot", "link_lengths"), [NAN, 0.05],
         r"^boundary.levels\[3\].robot: link_lengths must be finite, "
         r"got \[nan, 0.05\]$"),
        (("levels", 1, "base_indices"), [0.5, 1],
         r"^boundary.levels\[1\]: base_indices must be indices in 0..1, "
         r"got \[0.5, 1\]$"),
        (("levels", 1, "base_indices"), [True, 1],
         r"^boundary.levels\[1\]: base_indices must be indices in 0..1, "
         r"got \[True, 1\]$"),
        (("levels", 1, "base_indices"), [0, 0],
         r"^boundary.levels\[1\].base_indices: base_indices repeat a "
         r"coordinate, got \[0, 0\]$"),
    ], ids=["weight_text", "start_text", "workspace_text", "workspace_ragged",
            "link_lengths_number", "radius_list", "index_out_of_range",
            "pose_indices_two", "chain_base_indices_one",
            "chain_angle_indices_overlap_base", "stretch_t_nan",
            "radius_inf", "weight_too_large",
            "robot_below_obstacle_dimension", "unknown_top_level_key",
            "unknown_planner_key", "unknown_level_key",
            "base_indices_on_coarsest_level", "unknown_robot_key",
            "key_of_another_robot_type", "key_of_another_space_type",
            "unknown_obstacle_key", "polygon_robot_vertices_3d",
            "name_list", "name_empty", "ignore_workspace_text",
            "workspace_nan", "box_lo_nan", "disc_center_nan",
            "polygon_vertex_nan", "real_bounds_inf",
            "polygon_robot_vertex_nan", "link_length_nan",
            "base_indices_fraction", "base_indices_bool",
            "base_indices_repeated"])
    def test_field_named(self, tmp_path, path, value, match):
        f = write(tmp_path, yaml.safe_dump(_corrupt(path, value)))
        with pytest.raises(ScenarioError, match=match):
            load_scenario(f)
