"""Scenario files: on-disk planning problem definitions.

A scenario is a YAML document (format_version 1) declaring the level spaces,
per-level robot geometry, workspace obstacles, start/goal on the finest level,
planner parameter defaults and a declared ground-truth label.  Obstacles are
shared across levels; a level may override the list when its projection lives
in a different workspace (e.g. angle-space levels).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from .bundles import FiberBundle, FiberBundleSequence, Level
from .geometry import Box, Disc, Polygon, finite_array
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

# The keys the loader reads from each mapping; any other key is rejected.
# Typed mappings (space factors, robots, obstacles) by their 'type'.
_SCENARIO_KEYS = {"format_version", "name", "ground_truth", "workspace",
                  "obstacles", "planner", "levels", "start", "goal"}
_LEVEL_KEYS = {"space", "robot", "obstacles", "ignore_workspace",
               "base_indices"}
_FACTOR_KEYS = {"real": {"type", "bounds", "weight"},
                "circle": {"type", "weight"}}
_ROBOT_KEYS = {"point": {"type", "position_indices"},
               "disc": {"type", "radius", "position_indices"},
               "polygon": {"type", "vertices", "pose_indices"},
               "chain": {"type", "link_lengths", "link_radius",
                         "base_indices", "angle_indices"}}
_OBSTACLE_KEYS = {"disc": {"type", "center", "radius"},
                  "box": {"type", "lo", "hi"},
                  "polygon": {"type", "vertices"}}


@contextmanager
def _named(where, message=None):
    """The loader's one conversion boundary: a TypeError, ValueError or
    OverflowError inside becomes ScenarioError(message or 'where: <e>')."""
    try:
        yield
    except ScenarioError:
        raise
    except (TypeError, ValueError, OverflowError) as e:
        raise ScenarioError(message or f"{where}: {e}") from None


def _mapping(spec, where) -> dict:
    if not isinstance(spec, dict):
        raise ScenarioError(f"{where} must be a mapping")
    return spec


def _require(mapping, key, where):
    if key not in _mapping(mapping, where):
        raise ScenarioError(f"missing field '{key}' in {where}")
    return mapping[key]


def _known(spec, keys, where) -> None:
    """Reject the first key of the mapping spec that is not in keys: a
    misspelt key would otherwise be ignored."""
    for key in _mapping(spec, where):
        if key not in keys:
            raise ScenarioError(f"{where}: unknown key {key!r}")


def _kind(spec, kinds: dict, what, where) -> str:
    """spec's 'type', a key of kinds, once spec carries no key outside
    kinds[type]."""
    kind = _require(spec, "type", where)
    if not isinstance(kind, str) or kind not in kinds:
        raise ScenarioError(f"{where}: unknown {what} type '{kind}'")
    _known(spec, kinds[kind], where)
    return kind


def _number(spec, key, where, default=None, kind="a number",
            accept=math.isfinite) -> float:
    """spec[key] as a float (default when absent; None: required).  A bool,
    a non-number or a value accept refuses fails as 'key must be kind'."""
    raw = (_require(spec, key, where) if default is None
           else spec.get(key, default))
    message = f"{where}: {key} must be {kind}, got {raw!r}"
    with _named(where, message):
        number = float(raw)
    if isinstance(raw, bool) or not accept(number):
        raise ScenarioError(message)
    return number


def _build_factor(spec, where) -> StateSpace:
    if _kind(spec, _FACTOR_KEYS, "space", where) == "circle":
        return CircleSpace()
    with _named(where):
        return RealVectorSpace(_require(spec, "bounds", where))


def _build_space(factors, where) -> StateSpace:
    if not isinstance(factors, list) or not factors:
        raise ScenarioError(f"{where}: 'space' must be a list of factors")
    wheres = [f"{where}.space[{i}]" for i in range(len(factors))]
    spaces = [_build_factor(f, at) for f, at in zip(factors, wheres)]
    weights = [_number(f, "weight", at, 1.0) for f, at in zip(factors, wheres)]
    if len(spaces) == 1:
        if weights[0] != 1.0:
            raise ScenarioError(
                f"{where}: a single-factor space cannot carry a weight")
        return spaces[0]
    with _named(where):
        return ProductSpace(spaces, weights)


def _build_obstacle(spec, where):
    kind = _kind(spec, _OBSTACLE_KEYS, "obstacle", where)
    with _named(where):
        if kind == "disc":
            return Disc(_require(spec, "center", where),
                        _number(spec, "radius", where))
        if kind == "box":
            return Box(_require(spec, "lo", where),
                       _require(spec, "hi", where))
        return Polygon(_require(spec, "vertices", where))


def _indices(spec, key, default, dim, where) -> tuple:
    """spec[key] as a tuple of coordinates in 0..dim-1; an index outside
    the level's space would fail every run."""
    idx = tuple(spec.get(key, default))
    if not all(type(i) is int and 0 <= i < dim for i in idx):
        raise ScenarioError(f"{where}: {key} must be indices in "
                            f"0..{dim - 1}, got {list(idx)}")
    return idx


def _build_robot(spec, space: StateSpace, where):
    kind = _kind(spec, _ROBOT_KEYS, "robot", where)
    ix = partial(_indices, spec, dim=space.dim, where=where)
    pos = (0,) if space.dim == 1 else (0, 1)
    with _named(where):
        if kind == "point":
            return PointRobot(position_indices=ix("position_indices", pos))
        if kind == "disc":
            return DiscRobot(radius=_number(spec, "radius", where),
                             position_indices=ix("position_indices", pos))
        if kind == "polygon":
            return PolygonRobot(vertices=_require(spec, "vertices", where),
                                pose_indices=ix("pose_indices", (0, 1, 2)))
        lengths = tuple(_require(spec, "link_lengths", where))
        return ChainRobot(
            link_lengths=lengths,
            link_radius=_number(spec, "link_radius", where),
            base_indices=ix("base_indices", (0, 1)),
            angle_indices=ix("angle_indices", range(2, 2 + len(lengths))))


def _obstacle_list(specs, where) -> list:
    if not isinstance(specs, list):
        raise ScenarioError(f"{where}: 'obstacles' must be a list")
    return [_build_obstacle(o, f"{where}.obstacles[{i}]")
            for i, o in enumerate(specs)]


def _planner_config(spec, where) -> PlannerConfig:
    """PlannerConfig from the keys the file sets; the rest keep the
    dataclass defaults."""
    fields = {field: (int(_number(spec, key, where, kind="a whole number",
                                  accept=float.is_integer)) if whole
                      else _number(spec, key, where))
              for key, (field, whole) in _PLANNER_KEYS.items() if key in spec}
    with _named(where):
        return PlannerConfig(**fields)


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
    if not isinstance(name, str) or not name:
        raise ScenarioError(
            f"{path}: name must be a non-empty string, got {name!r}")
    _known(doc, _SCENARIO_KEYS, name)
    ground_truth = _require(doc, "ground_truth", name)
    if ground_truth not in ("feasible", "infeasible"):
        raise ScenarioError(
            f"{name}: ground_truth must be 'feasible' or 'infeasible'")

    workspace = doc.get("workspace")
    if workspace is not None:
        with _named(f"{name}.workspace"):
            workspace = finite_array("workspace", workspace)
        if workspace.ndim != 2 or workspace.shape[1] != 2:
            raise ScenarioError(f"{name}: workspace must be [lo, hi] rows")

    shared_obstacles = _obstacle_list(doc.get("obstacles", []), name)

    planner_spec = doc.get("planner") or {}
    if not isinstance(planner_spec, dict):
        raise ScenarioError(f"{name}: 'planner' must be a mapping")
    where = f"{name}.planner"
    _known(planner_spec, {*_PLANNER_KEYS, "check_resolution"}, where)
    cfg = _planner_config(planner_spec, where)
    check_res = _number(planner_spec, "check_resolution", where, 0.01,
                        "in (0, 1]", lambda r: 0 < r <= 1)

    level_specs = _require(doc, "levels", name)
    if not isinstance(level_specs, list) or not level_specs:
        raise ScenarioError(f"{name}: 'levels' must be a non-empty list")

    levels: list[Level] = []
    bundles: list[FiberBundle] = []
    for k, lvl in enumerate(level_specs):
        where = f"{name}.levels[{k}]"
        _known(lvl, _LEVEL_KEYS if k else _LEVEL_KEYS - {"base_indices"},
               where)
        space = _build_space(_require(lvl, "space", where), where)
        robot = _build_robot(_require(lvl, "robot", where), space,
                             f"{where}.robot")
        obstacles = (_obstacle_list(lvl["obstacles"], where)
                     if "obstacles" in lvl else shared_obstacles)
        pos_dim = len(robot.position_indices)
        ignore = lvl.get("ignore_workspace", False)
        if not isinstance(ignore, bool):
            raise ScenarioError(f"{where}: ignore_workspace must be true or "
                                f"false, got {ignore!r}")
        ws_lo = ws_hi = None
        if workspace is not None and not ignore and pos_dim == len(workspace):
            ws_lo, ws_hi = workspace[:, 0], workspace[:, 1]
        with _named(where):
            validity = LevelValidity(space=space, robot=robot,
                                     obstacles=obstacles,
                                     workspace_lo=ws_lo, workspace_hi=ws_hi,
                                     check_resolution=check_res)
        for i, o in enumerate(obstacles):
            if any(np.shape(v) != (pos_dim,) for v in o.bounding_box()):
                raise ScenarioError(f"{where}: obstacles[{i}] is not "
                                    f"{pos_dim}-D like the robot")
        levels.append(Level(space=space, validity=validity))
        if k > 0:
            base = levels[k - 1].space
            with _named(f"{where}.base_indices"):
                bundles.append(FiberBundle(space, base, _indices(
                    lvl, "base_indices", range(base.dim), dim=space.dim,
                    where=where)))

    with _named(name):
        seq = FiberBundleSequence(levels=levels, bundles=bundles)

    finest = seq.finest.space
    ends = []
    for label in ("start", "goal"):
        with _named(f"{name}.{label}"):
            x = np.asarray(_require(doc, label, name), dtype=float)
        if x.shape != (finest.dim,):
            raise ScenarioError(
                f"{name}: {label} has {x.shape[0] if x.ndim else 0} "
                f"coordinates, finest level expects {finest.dim}")
        x = finest.normalize(x)
        if not finest.contains(x):
            raise ScenarioError(f"{name}: {label} within bounds violated")
        ends.append(x)

    return Scenario(name=name, seq=seq, start=ends[0], goal=ends[1],
                    config=cfg, ground_truth=ground_truth)


def shipped_scenario_dir() -> Path:
    return Path(__file__).parent / "data" / "scenarios"


def shipped_scenarios() -> list[Path]:
    return sorted(shipped_scenario_dir().glob("*.yaml"))
