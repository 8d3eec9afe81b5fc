"""Shipped queries pinned at their seeds: some once ended in an error and
now solve; the open defects are strict xfails, which their fixes flip."""

import re
from dataclasses import replace

import numpy as np
import pytest

from smlr.bench import make_planner
from smlr.cli import EXIT_OK, main
from smlr.geometry import Box
from smlr.planner import RevalidationError, Status
from smlr.scenario import (ScenarioError, load_scenario,
                            shipped_scenario_dir)
from smlr.spaces import RealVectorSpace
from smlr.validity import LevelValidity, PointRobot


def solve(name, seed, planner="smlr"):
    sc = load_scenario(shipped_scenario_dir() / f"{name}.yaml")
    return sc, make_planner(sc, planner, seed).solve(sc.start, sc.goal)


# Without section patterns the sampled path of these queries failed the
# final half-resolution check; a fiber detour now solves the finest level.
@pytest.mark.parametrize("name, seed", [("chain4_feasible", 44),
                                        ("chain4_feasible", 45),
                                        ("se2_bugtrap_feasible", 73)])
def test_section_pattern_solves_former_revalidation_error(name, seed):
    sc, res = solve(name, seed)
    assert res.status is Status.FEASIBLE
    assert re.fullmatch(r"section lift on level 2: fiber \d+", res.reason)
    finest = sc.seq.finest
    half = replace(finest.validity,
                   check_resolution=finest.validity.check_resolution / 2)
    assert all(half.motion_valid(a, b)
               for a, b in zip(res.path[:-1], res.path[1:]))
    assert res.path[0].tobytes() == finest.space.normalize(sc.start).tobytes()
    assert res.path[-1].tobytes() == finest.space.normalize(sc.goal).tobytes()


# One level, so no section test runs.  The roadmap path already fails at
# half resolution: one of its edges passed at the planning resolution
# because its states stepped over a thin contact.
@pytest.mark.xfail(strict=True, raises=RevalidationError,
                   reason="a roadmap edge fails at half resolution")
def test_single_level_simplified_path_revalidates():
    _, res = solve("square_wall_feasible", 1039)
    assert res.status is Status.FEASIBLE


# Feasible queries that end wrongly: a false Infeasible on an obstacle-free
# torus level and one in 2-D, and a roadmap edge that fails the final check
# in 4-D.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="false Infeasible on an obstacle-free level")
def test_obstacle_free_torus_is_feasible():
    _, res = solve("torus_free", 5073)
    assert res.status is Status.FEASIBLE


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="false Infeasible in 2-D")
def test_square_wall_is_feasible():
    _, res = solve("square_wall_feasible", 1271)
    assert res.status is Status.FEASIBLE


@pytest.mark.xfail(strict=True, raises=RevalidationError,
                   reason="a roadmap edge fails at half resolution")
def test_flat_chain_path_revalidates():
    _, res = solve("chain4_feasible", 70, "flat")
    assert res.status is Status.FEASIBLE


# Two guard components on the torus level stay just too far apart for a
# sample to join them.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="false Infeasible on level 1 (ROADMAP item 19)")
def test_torus_band_is_feasible():
    _, res = solve("torus_band_feasible", 424273)
    assert res.status is Status.FEASIBLE


@pytest.mark.xfail(strict=True, raises=RevalidationError,
                   reason="a roadmap edge fails at half resolution "
                          "(ROADMAP item 3)")
def test_chain_path_revalidates():
    _, res = solve("chain4_feasible", 100089)
    assert res.status is Status.FEASIBLE


# The base level's disc of radius 0.2 does not fit inside the L-shaped
# robot, so it rejects states the finest level accepts, and smlr stops on
# level 1's failure bound in a few ms while flat says Feasible.  Nothing
# checks at load that a level relaxes the next; once that proof rejects
# this file, or smlr solves it, the pin passes and must be rewritten.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="false Infeasible from a base level that does not "
                          "relax the next (ROADMAP item 13)")
def test_oversized_base_disc_is_feasible(tmp_path):
    text = (shipped_scenario_dir() / "se2_lshape_feasible.yaml").read_text()
    disc = "robot: {type: disc, radius: 0.025}"
    if disc not in text:
        pytest.fail("se2_lshape_feasible.yaml no longer has its base disc")
    path = tmp_path / "oversized_disc.yaml"
    path.write_text(text.replace(disc, "robot: {type: disc, radius: 0.2}"))
    try:
        sc = load_scenario(path)
    except ScenarioError:
        return
    res = make_planner(sc, "smlr", 1).solve(sc.start, sc.goal)
    assert res.status is Status.FEASIBLE


# The two motions' middle states differ in the last bit: a -> b stops at
# x = 0.39999999999999997, short of the box, and b -> a at x = 0.4, on it.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="motion_valid is not symmetric (ROADMAP item 3)")
def test_motion_valid_is_symmetric():
    v = LevelValidity(space=RealVectorSpace([[0, 1], [0, 1]]),
                      robot=PointRobot(),
                      obstacles=[Box([0.4, 0.3], [0.6, 0.7])],
                      check_resolution=0.3)
    a = np.array([0.10791468550554813, 0.5])
    b = np.array([0.6920853144944519, 0.5])
    assert v.motion_valid(a, b) == v.motion_valid(b, a)


def test_plan_prints_the_section_lift(capsys):
    path = shipped_scenario_dir() / "chain4_feasible.yaml"
    assert main(["plan", "--scenario", str(path), "--seed", "44"]) == EXIT_OK
    line = capsys.readouterr().out.splitlines()[0]
    assert " status=feasible " in line
    assert re.search(r" reason=section lift on level 2: fiber \d+$", line)

