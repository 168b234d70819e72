"""Lane-parallel coverage contract: lane counts never change the math.

Three layers are pinned here:

* :class:`ToggleCollector` on the bitpar backend -- lane-0 harvest
  bit-identical to a compiled-backend collector under the same traffic,
  and ``lane_harvest`` folding out an arbitrary lane;
* :class:`RtlWalkModel` -- a walk's coverage DB is a function of
  ``(walk_seed, walk_steps)`` alone, independent of lane width and of
  how a round is chunked into passes;
* the testgen loop -- ``coverage_driven_suite`` / ``undirected_suite``
  select the same suite with the same history whether candidates are
  scored one at a time or 8 lanes per pass.
"""

import random

import pytest

from repro.core import La1Config, RtlHost, build_la1_top_with_ovl
from repro.core.asm_model import La1AsmConfig, build_la1_asm
from repro.cover import (
    CoverageDB,
    RtlWalkModel,
    ToggleCollector,
    WalkCase,
    collect_rtl_coverage,
    coverage_driven_suite,
    la1_state_predicates,
    undirected_suite,
)
from repro.cover.testgen import _Gain, _map_walks, _walk_seed, walk_model
from repro.cover.traffic_walk import La1TrafficModel
from repro.rtl import RtlSimulator, elaborate


def _dbs_equal(a, b):
    return a.to_dict() == b.to_dict()


# ----------------------------------------------------------------------
# ToggleCollector on the bitpar backend
# ----------------------------------------------------------------------
def _driven_collector(backend, lanes=1):
    config = La1Config(banks=2, beat_bits=16, addr_bits=3)
    sim = RtlSimulator(elaborate(build_la1_top_with_ovl(config)),
                       backend=backend, lanes=lanes)
    collector = ToggleCollector(sim)
    host = RtlHost(sim, config)
    rng = random.Random(31)
    for __ in range(12):
        bank, addr = rng.randrange(2), rng.randrange(8)
        if rng.random() < 0.5:
            host.read(bank, addr)
        else:
            host.write(bank, addr, rng.getrandbits(32))
    host.run_cycles(90)
    return collector


def test_toggle_collector_lane0_matches_compiled():
    compiled = _driven_collector("compiled")
    bitpar = _driven_collector("bitpar", lanes=8)
    assert bitpar.toggles(lane=0) == compiled.toggles()
    assert _dbs_equal(bitpar.harvest(lane=0), compiled.harvest())


def test_lane_harvest_folds_one_lane():
    config = La1Config(banks=1, beat_bits=16, addr_bits=3)
    design = elaborate(build_la1_top_with_ovl(config))
    sim = RtlSimulator(design, backend="bitpar", lanes=4,
                       detect_bus_conflicts=False)
    collector = ToggleCollector(sim)
    scalars = []
    for lane in range(4):
        ssim = RtlSimulator(design, backend="compiled",
                            detect_bus_conflicts=False)
        scalars.append((ssim, ToggleCollector(ssim)))
    free = [flat for flat in design.inputs]
    rngs = [random.Random(lane + 77) for lane in range(4)]
    for __ in range(20):
        for flat in free:
            values = [rng.getrandbits(flat.width) for rng in rngs]
            sim.set_input_lanes(flat.path, values)
            for (ssim, __c), value in zip(scalars, values):
                ssim.set_input(flat.path, value)
        for edge in ("K", "K#"):
            sim.step(edge)
            for ssim, __c in scalars:
                ssim.step(edge)
    for lane, (__s, scol) in enumerate(scalars):
        assert collector.toggles(lane=lane) == scol.toggles()
        assert _dbs_equal(collector.lane_harvest(lane), scol.harvest())


def test_collect_rtl_coverage_lane_identical():
    scalar = collect_rtl_coverage(banks=1, traffic=10, seed=5)
    laned = collect_rtl_coverage(banks=1, traffic=10, seed=5, lanes=4)
    assert _dbs_equal(scalar, laned)


# ----------------------------------------------------------------------
# RtlWalkModel determinism
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def model():
    return RtlWalkModel(banks=1, addr_bits=3)


def test_walk_dbs_lane_count_independent(model):
    seeds = list(range(40, 52))
    scalar = model.walk_dbs(seeds, walk_steps=4, lanes=1)
    wide = model.walk_dbs(seeds, walk_steps=4, lanes=8)
    ragged = model.walk_dbs(seeds, walk_steps=4, lanes=5)  # uneven chunks
    assert len(scalar) == len(wide) == len(ragged) == len(seeds)
    for a, b, c in zip(scalar, wide, ragged):
        assert _dbs_equal(a, b) and _dbs_equal(a, c)


def test_walk_db_independent_of_neighbours(model):
    """A walk's DB depends on its seed only, not on which other walks
    share the pass."""
    solo = model.walk_dbs([42], walk_steps=4, lanes=8)[0]
    packed = model.walk_dbs([7, 42, 9, 3], walk_steps=4, lanes=8)[1]
    assert _dbs_equal(solo, packed)


def test_score_walks_matches_scalar_arithmetic(model):
    seeds = list(range(60, 68))
    base = model.walk_dbs([99], walk_steps=4, lanes=1)[0]
    wide = _map_walks(model, seeds, 4, 8, 1, None, _Gain(base))
    narrow = _map_walks(model, seeds, 4, 1, 1, None, _Gain(base))
    assert wide == narrow
    assert len(wide) == len(seeds)


def test_admit_walk_merges_scalar_replay(model):
    case = model.walk_case(123, 4)
    assert case == WalkCase(123, 4)
    db = model.walk_dbs([5], walk_steps=4, lanes=1)[0]
    before = db.counts()
    # a directed suite admits a walk by merging its one-lane replay
    db.merge(model.walk_dbs([case.walk_seed], case.walk_steps, 1)[0])
    solo = model.walk_dbs([123], walk_steps=4, lanes=8)[0]
    reference = model.walk_dbs([5], walk_steps=4, lanes=1)[0]
    reference.merge(solo)
    assert _dbs_equal(db, reference)
    assert db.counts()[0] >= before[0]


# ----------------------------------------------------------------------
# the walk protocol, on every vehicle
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=["asm", "rtl", "traffic"])
def vehicle(request, model):
    """``(machine, predicates, walk_steps)`` of one testgen vehicle."""
    if request.param == "asm":
        return build_la1_asm(La1AsmConfig(banks=2)), \
            la1_state_predicates(2), 6
    if request.param == "rtl":
        return model, {}, 4
    return La1TrafficModel(banks=1, seed=7), {}, 8


def test_gains_and_admission_come_from_walk_dbs(vehicle):
    machine, predicates, steps = vehicle
    walks = walk_model(machine, predicates)
    # a directed suite's DB is its meta plus the merge of the selected
    # walks' one-lane walk DBs
    result = coverage_driven_suite(
        machine, predicates, max_tests=3, candidates_per_round=4,
        walk_steps=steps, seed=5, plateau_rounds=2, lanes=8)
    drawn = [_walk_seed(5, "round", r, i)
             for r in range(result.candidates_scored // 4)
             for i in range(4)]
    expected = CoverageDB(meta={"generator": "coverage_driven", "seed": 5})
    for case in result.selected:
        seed = next(s for s in drawn if walks.walk_case(s, steps) == case)
        expected.merge(walks.walk_dbs([seed], steps, 1)[0])
    assert result.num_tests >= 2
    assert _dbs_equal(result.db, expected)
    # one round's gains at 8 lanes are the clone-and-merge arithmetic
    # over one-lane walk DBs
    seeds = list(range(60, 68))
    base = walks.walk_dbs([99], steps, 1)[0]
    covered = base.counts()[0]
    manual = [base.clone().merge(db).counts()[0] - covered
              for db in walks.walk_dbs(seeds, steps, 1)]
    assert _map_walks(walks, seeds, steps, 8, 1, None, _Gain(base)) == manual
    assert len(manual) == len(seeds)


# ----------------------------------------------------------------------
# the testgen loop over the RTL vehicle
# ----------------------------------------------------------------------
def test_coverage_driven_suite_lane_independent(model):
    runs = {}
    for lanes in (1, 8):
        runs[lanes] = coverage_driven_suite(
            model, {}, max_tests=3, candidates_per_round=4,
            walk_steps=4, seed=17, lanes=lanes)
    assert runs[1].selected == runs[8].selected
    assert runs[1].history == runs[8].history
    assert _dbs_equal(runs[1].db, runs[8].db)
    assert all(isinstance(case, WalkCase)
               for case in runs[8].selected)


def test_undirected_suite_lane_independent(model):
    runs = {}
    for lanes in (1, 8):
        runs[lanes] = undirected_suite(
            model, {}, 5, walk_steps=4, seed=17, lanes=lanes)
    assert runs[1].selected == runs[8].selected
    assert runs[1].history == runs[8].history
    assert _dbs_equal(runs[1].db, runs[8].db)
