"""Sparse multilevel roadmap planning over fiber-bundle abstractions."""

__version__ = "0.1.0"

from .bundles import (AdmissibilityReport, FiberBundle, FiberBundleSequence,
                      Level, check_admissibility)
from .geometry import Box, Disc, Polygon
from .planner import (PlannerConfig, PlannerResult, SmlrPlanner, Status,
                      compute_importance, smooth_parameter)
from .scenario import Scenario, ScenarioError, load_scenario, \
    shipped_scenarios
from .sparse_graph import AddOutcome, SparseRoadmap
from .spaces import (CircleSpace, ProductSpace, RealVectorSpace, StateSpace,
                     points_to_edge_distance)
from .validity import (ChainRobot, DiscRobot, LevelValidity, PointRobot,
                       PolygonRobot)
