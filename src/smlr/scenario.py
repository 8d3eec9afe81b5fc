"""Scenario files: on-disk planning problem definitions.

A scenario is a YAML document (format_version 1) declaring the level spaces,
per-level robot geometry, workspace obstacles, start/goal on the finest level,
planner parameter defaults and a declared ground-truth label.  Obstacles are
shared across levels; a level may override the list when its projection lives
in a different workspace (e.g. angle-space levels).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .bundles import FiberBundle, FiberBundleSequence, Level
from .geometry import Box, Disc, Polygon
from .planner import PlannerConfig
from .spaces import CircleSpace, ProductSpace, RealVectorSpace, StateSpace
from .validity import (ChainRobot, DiscRobot, LevelValidity, PointRobot,
                       PolygonRobot)

FORMAT_VERSION = 1

# libyaml's parser when this PyYAML build has it: the same safe constructor
# and resolver as yaml.SafeLoader, parsed in C
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ScenarioError(ValueError):
    """Raised on parse errors or invariant violations, with the offending
    field named in the message."""


@dataclass
class Scenario:
    name: str
    seq: FiberBundleSequence
    start: np.ndarray
    goal: np.ndarray
    config: PlannerConfig
    ground_truth: str


# scenario file key -> (PlannerConfig field, whether it takes whole numbers)
_PLANNER_KEYS = {"M": ("max_failures", True),
                 "delta_fraction": ("delta_fraction", False),
                 "eta": ("eta", True),
                 "stretch_t": ("stretch_t", False),
                 "time_limit": ("time_limit", False)}


def _require(mapping, key, where):
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{where} must be a mapping")
    if key not in mapping:
        raise ScenarioError(f"missing field '{key}' in {where}")
    return mapping[key]


def _build_factor(spec, where) -> StateSpace:
    kind = _require(spec, "type", where)
    if kind == "real":
        bounds = _require(spec, "bounds", where)
        try:
            return RealVectorSpace(bounds)
        except ValueError as e:
            raise ScenarioError(f"{where}: {e}") from None
    if kind == "circle":
        return CircleSpace()
    raise ScenarioError(f"{where}: unknown space type '{kind}'")


def _build_space(factors, where) -> StateSpace:
    if not isinstance(factors, list) or not factors:
        raise ScenarioError(f"{where}: 'space' must be a list of factors")
    spaces = [_build_factor(f, f"{where}.space[{i}]")
              for i, f in enumerate(factors)]
    weights = [float(f.get("weight", 1.0)) for f in factors]
    if len(spaces) == 1:
        if weights[0] != 1.0:
            raise ScenarioError(
                f"{where}: a single-factor space cannot carry a weight")
        return spaces[0]
    try:
        return ProductSpace(spaces, weights)
    except ValueError as e:
        raise ScenarioError(f"{where}: {e}") from None


def _build_obstacle(spec, where):
    kind = _require(spec, "type", where)
    try:
        if kind == "disc":
            return Disc(_require(spec, "center", where),
                        float(_require(spec, "radius", where)))
        if kind == "box":
            return Box(_require(spec, "lo", where),
                       _require(spec, "hi", where))
        if kind == "polygon":
            return Polygon(_require(spec, "vertices", where))
    except ValueError as e:
        raise ScenarioError(f"{where}: {e}") from None
    raise ScenarioError(f"{where}: unknown obstacle type '{kind}'")


def _build_robot(spec, space: StateSpace, where):
    kind = _require(spec, "type", where)
    default_pos = (0,) if space.dim == 1 else (0, 1)
    try:
        if kind == "point":
            return PointRobot(position_indices=tuple(
                spec.get("position_indices", default_pos)))
        if kind == "disc":
            return DiscRobot(radius=float(_require(spec, "radius", where)),
                             position_indices=tuple(
                                 spec.get("position_indices", default_pos)))
        if kind == "polygon":
            return PolygonRobot(
                vertices=_require(spec, "vertices", where),
                pose_indices=tuple(spec.get("pose_indices", (0, 1, 2))))
        if kind == "chain":
            lengths = tuple(_require(spec, "link_lengths", where))
            angles = tuple(spec.get(
                "angle_indices", range(2, 2 + len(lengths))))
            return ChainRobot(
                link_lengths=lengths,
                link_radius=float(_require(spec, "link_radius", where)),
                base_indices=tuple(spec.get("base_indices", (0, 1))),
                angle_indices=angles)
    except ValueError as e:
        raise ScenarioError(f"{where}: {e}") from None
    raise ScenarioError(f"{where}: unknown robot type '{kind}'")


def _obstacle_list(specs, where) -> list:
    if not isinstance(specs, list):
        raise ScenarioError(f"{where}: 'obstacles' must be a list")
    return [_build_obstacle(o, f"{where}.obstacles[{i}]")
            for i, o in enumerate(specs)]


def _planner_config(spec) -> PlannerConfig:
    """PlannerConfig from the keys the file sets; the rest keep the
    dataclass defaults."""
    fields = {}
    for key, (field, whole) in _PLANNER_KEYS.items():
        if key not in spec:
            continue
        value = spec[key]
        try:
            number = float(value)
        except (TypeError, ValueError):
            number = None
        if isinstance(value, bool) or number is None or \
                (whole and not number.is_integer()):
            kind = "a whole number" if whole else "a number"
            raise ScenarioError(
                f"planner: {key} must be {kind}, got {value!r}")
        fields[field] = int(number) if whole else number
    try:
        return PlannerConfig(**fields)
    except ValueError as e:
        raise ScenarioError(f"planner: {e}") from None


def _check_resolution(spec) -> float:
    """The motion-check step of every level's LevelValidity."""
    raw = spec.get("check_resolution", 0.01)
    message = f"planner: check_resolution must be in (0, 1], got {raw!r}"
    try:
        res = float(raw)
    except (TypeError, ValueError):
        raise ScenarioError(message) from None
    if isinstance(raw, bool) or not 0 < res <= 1:
        raise ScenarioError(message)
    return res


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        doc = yaml.load(path.read_text(), Loader=_LOADER)
    except yaml.YAMLError as e:
        raise ScenarioError(f"{path}: parse error: {e}") from None
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: scenario must be a mapping")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ScenarioError(
            f"{path}: format_version {version!r} unsupported "
            f"(expected {FORMAT_VERSION})")
    name = _require(doc, "name", str(path))
    ground_truth = _require(doc, "ground_truth", name)
    if ground_truth not in ("feasible", "infeasible"):
        raise ScenarioError(
            f"{name}: ground_truth must be 'feasible' or 'infeasible'")

    workspace = doc.get("workspace")
    if workspace is not None:
        workspace = np.asarray(workspace, dtype=float)
        if workspace.ndim != 2 or workspace.shape[1] != 2:
            raise ScenarioError(f"{name}: workspace must be [lo, hi] rows")

    shared_obstacles = _obstacle_list(doc.get("obstacles", []), name)

    planner_spec = doc.get("planner") or {}
    if not isinstance(planner_spec, dict):
        raise ScenarioError(f"{name}: 'planner' must be a mapping")
    cfg = _planner_config(planner_spec)
    check_res = _check_resolution(planner_spec)

    level_specs = _require(doc, "levels", name)
    if not isinstance(level_specs, list) or not level_specs:
        raise ScenarioError(f"{name}: 'levels' must be a non-empty list")

    levels: list[Level] = []
    bundles: list[FiberBundle] = []
    for k, lvl in enumerate(level_specs):
        where = f"{name}.levels[{k}]"
        space = _build_space(_require(lvl, "space", where), where)
        robot = _build_robot(_require(lvl, "robot", where), space,
                             f"{where}.robot")
        obstacles = shared_obstacles
        if "obstacles" in lvl:
            obstacles = _obstacle_list(lvl["obstacles"], where)
        ws_lo = ws_hi = None
        if workspace is not None and not lvl.get("ignore_workspace", False):
            pos_dim = len(getattr(robot, "position_indices",
                                  getattr(robot, "base_indices", (0, 1))))
            if pos_dim == len(workspace):
                ws_lo, ws_hi = workspace[:, 0], workspace[:, 1]
        try:
            validity = LevelValidity(space=space, robot=robot,
                                     obstacles=obstacles,
                                     workspace_lo=ws_lo, workspace_hi=ws_hi,
                                     check_resolution=check_res)
        except ValueError as e:
            raise ScenarioError(f"{where}: {e}") from None
        levels.append(Level(space=space, validity=validity))
        if k > 0:
            base_dim = levels[k - 1].space.dim
            indices = lvl.get("base_indices", list(range(base_dim)))
            try:
                bundles.append(FiberBundle(bundle_space=space,
                                           base_space=levels[k - 1].space,
                                           base_indices=indices))
            except ValueError as e:
                raise ScenarioError(f"{where}.base_indices: {e}") from None

    try:
        seq = FiberBundleSequence(levels=levels, bundles=bundles)
    except ValueError as e:
        raise ScenarioError(f"{name}: {e}") from None

    finest = seq.finest.space
    start = np.asarray(_require(doc, "start", name), dtype=float)
    goal = np.asarray(_require(doc, "goal", name), dtype=float)
    for label, x in (("start", start), ("goal", goal)):
        if x.shape != (finest.dim,):
            raise ScenarioError(
                f"{name}: {label} has {x.shape[0] if x.ndim else 0} "
                f"coordinates, finest level expects {finest.dim}")
    start = finest.normalize(start)
    goal = finest.normalize(goal)
    for label, x in (("start", start), ("goal", goal)):
        if not finest.contains(x):
            raise ScenarioError(f"{name}: {label} within bounds violated")

    return Scenario(name=name, seq=seq, start=start, goal=goal, config=cfg,
                    ground_truth=ground_truth)


def shipped_scenario_dir() -> Path:
    return Path(__file__).parent / "data" / "scenarios"


def shipped_scenarios() -> list[Path]:
    return sorted(shipped_scenario_dir().glob("*.yaml"))
