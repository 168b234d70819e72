"""Coverage-driven test generation: rank candidates by incremental gain.

The paper's AsmL workflow generates tests from the explored FSM and
admits "the test suite ... usually does not cover all possible states
and transitions".  This module closes the loop with coverage feedback:
candidate stimulus comes from
:func:`repro.asm.testgen.generate_random_walks`, and each round the
candidate that newly covers the most ASM coverage points (rules plus
state predicates, :mod:`repro.cover.asm_cov`) is admitted to the suite.
The loop stops at a coverage target or after a configurable number of
gainless rounds (plateau) -- whichever comes first.

:func:`undirected_suite` runs the same number of walks *without*
selection, which is the baseline the tests compare against: directed
selection must reach strictly higher coverage for the same test budget
on the 2-bank model.

Both suites drive every stimulus vehicle through one two-method walk
protocol: ``walk_case(walk_seed, walk_steps)`` returns the test a seed
names, and ``walk_dbs(walk_seeds, walk_steps, lanes)`` returns each
walk's coverage DB in seed order.  The lane-parallel RTL vehicles
(:class:`repro.cover.rtl_walk.LaneWalkModel`) speak it natively and
pack up to ``lanes`` walks into one bit-parallel simulation pass;
:func:`walk_model` adapts an ASM machine, whose walk is a seeded
:func:`~repro.asm.testgen.generate_random_walks` sequence replayed into
its own DB (the ASM model has no lane encoding, so it ignores
``lanes``).  A candidate's gain is what its walk DB newly covers when
merged into a clone of the accumulated DB, and admitting the winner
merges its walk DB into the accumulated one -- one arithmetic for every
vehicle, which is why the selected suite is independent of the lane
count and of how walks are sharded over processes
(:func:`_map_walks`).
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..asm.machine import Action, AsmMachine
from ..asm.testgen import generate_random_walks
from ..par.seeds import derive_seed
from .asm_cov import AsmCoverage, Predicate
from .db import CoverageDB

__all__ = ["CoverageDrivenResult", "coverage_driven_suite",
           "undirected_suite", "replay_coverage", "walk_model"]


def _walk_seed(seed: int, stream: str, round_index: int,
               walk_index: int) -> int:
    """The per-walk seed stream: hash-split from the suite seed so every
    candidate walk is reproducible in isolation -- the property that
    lets ``jobs=N`` workers regenerate exactly the walk a ``jobs=1`` run
    would have drawn, independent of batch sizes or shard boundaries.
    (The old ``seed + 7919 * round`` arithmetic collided across nearby
    seeds and tied a walk's stream to its batch position.)"""
    return derive_seed(seed, "testgen", stream, round_index, walk_index)


def replay_coverage(
    machine: AsmMachine,
    case: list[Action],
    predicates: Mapping[str, Predicate],
    db: Optional[CoverageDB] = None,
) -> CoverageDB:
    """Replay a from-reset action sequence and harvest its ASM coverage
    into ``db`` (fresh DB by default).  Leaves the machine reset."""
    db = db if db is not None else CoverageDB()
    collector = AsmCoverage(machine, predicates)
    try:
        machine.reset()
        for action in case:
            machine.fire(action)
    finally:
        collector.detach()
        machine.reset()
    collector.harvest(db)
    return db


class CoverageDrivenResult:
    """Outcome of the coverage-driven selection loop."""

    def __init__(self, selected: list[list[Action]], db: CoverageDB,
                 history: list[float], reached_target: bool,
                 plateaued: bool, candidates_scored: int):
        self.selected = selected
        self.db = db
        self.history = history
        self.reached_target = reached_target
        self.plateaued = plateaued
        self.candidates_scored = candidates_scored

    @property
    def coverage(self) -> float:
        """Final coverage fraction of the accumulated DB."""
        return self.db.coverage()

    @property
    def num_tests(self) -> int:
        """Number of selected test sequences."""
        return len(self.selected)

    def __repr__(self):
        stop = ("target" if self.reached_target
                else "plateau" if self.plateaued else "budget")
        return (
            f"CoverageDrivenResult({self.num_tests} tests, "
            f"{self.coverage:.1%}, stop={stop})"
        )


class _AsmWalks:
    """An ASM machine behind the walk protocol (see :func:`walk_model`)."""

    def __init__(self, machine: AsmMachine,
                 predicates: Mapping[str, Predicate]):
        self.machine = machine
        self.predicates = predicates
        # a suite asks for a walk's DB and then for the walk itself;
        # drawing a walk costs more than replaying it, so draw it once
        self._walks: dict = {}

    def walk_case(self, walk_seed: int, walk_steps: int) -> list[Action]:
        key = (walk_seed, walk_steps)
        if key not in self._walks:
            self._walks[key] = generate_random_walks(
                self.machine, 1, walk_steps, seed=walk_seed)[0]
        return self._walks[key]

    def walk_dbs(self, walk_seeds: list[int], walk_steps: int,
                 lanes: int) -> list[CoverageDB]:
        return [
            replay_coverage(self.machine,
                            self.walk_case(walk_seed, walk_steps),
                            self.predicates)
            for walk_seed in walk_seeds
        ]


def walk_model(machine, predicates: Mapping[str, Predicate]):
    """``machine`` as a walk-protocol vehicle: an :class:`AsmMachine`
    through the replay adapter (a walk is a seeded
    :func:`generate_random_walks` sequence replayed into its own DB;
    ``lanes`` is ignored), any other vehicle as it is."""
    if isinstance(machine, AsmMachine):
        return _AsmWalks(machine, predicates)
    return machine


class _Gain:
    """Picklable reducer of a directed round: the points a walk DB newly
    covers on top of the accumulated DB."""

    def __init__(self, db: CoverageDB):
        self.db = db
        self.covered = db.counts()[0]

    def __call__(self, walk_db: CoverageDB) -> int:
        return self.db.clone().merge(walk_db).counts()[0] - self.covered


def _whole(walk_db: CoverageDB) -> CoverageDB:
    """Reducer of the undirected suite: the walk DB itself."""
    return walk_db


def _map_walks(model, walk_seeds: list[int], walk_steps: int, lanes: int,
               jobs: int, model_spec, fn) -> list:
    """``fn`` of each seed's walk DB, in seed order.

    Inline by default.  With ``jobs > 1`` and a ``model_spec`` the seeds
    are sharded over the supervised process pool, where
    :func:`repro.par.workers.testgen_walk_shard` rebuilds the vehicle
    and applies ``fn`` itself, so only its values cross the pipe.  A
    worker that crashes or hangs is retried; a shard quarantined after
    its attempt budget is re-run on ``model``.  A walk DB depends on its
    seed alone, so the values equal the inline ones under any sharding
    and any fault the supervisor can contain.
    """
    if jobs <= 1 or model_spec is None or len(walk_seeds) <= 1:
        return [fn(db) for db in model.walk_dbs(walk_seeds, walk_steps,
                                                lanes)]
    from ..par import ShardError, plan_shards, run_supervised
    from ..par.workers import testgen_walk_shard

    shards = plan_shards(list(enumerate(walk_seeds)), jobs)
    shard_seeds = [[seed for __, seed in shard] for shard in shards]
    results, __ = run_supervised(
        testgen_walk_shard,
        [(model_spec, seeds, walk_steps, lanes, fn) for seeds in shard_seeds],
        jobs=jobs,
    )
    values = [None] * len(walk_seeds)
    for shard, seeds, shard_values in zip(shards, shard_seeds, results):
        if shard_values is None or isinstance(shard_values, ShardError):
            shard_values = [fn(db) for db in model.walk_dbs(
                seeds, walk_steps, lanes)]
        for (index, __), value in zip(shard, shard_values):
            values[index] = value
    return values


def coverage_driven_suite(
    machine: AsmMachine,
    predicates: Mapping[str, Predicate],
    target: float = 1.0,
    max_tests: int = 16,
    candidates_per_round: int = 8,
    walk_steps: int = 16,
    seed: int = 0,
    plateau_rounds: int = 3,
    jobs: int = 1,
    model_spec=None,
    lanes: int = 1,
) -> CoverageDrivenResult:
    """Greedy coverage-feedback selection of random-walk tests.

    Each round draws ``candidates_per_round`` fresh random walks (each
    from its own hash-derived seed), scores every candidate by how many
    *new* points its walk DB would cover on top of the accumulated DB
    (merged into a clone), admits the best gainer (lowest candidate
    index on ties), and merges its walk DB into the real DB.  Stops when
    coverage reaches ``target``, after ``plateau_rounds`` consecutive
    rounds with zero gain, or at ``max_tests``.

    ``jobs > 1`` parallelizes the candidate scoring of each round across
    a process pool; the greedy selection itself stays serial (each round
    depends on the previous round's DB).  Because candidates are seeded
    individually, the selected suite, DB and history are identical to a
    ``jobs=1`` run.  Parallel scoring needs a picklable ``model_spec``
    (e.g. :func:`repro.par.workers.la1_model_spec`) so workers can
    rebuild the machine; without one, scoring stays inline.

    ``lanes > 1`` asks a lane-parallel vehicle
    (:class:`repro.cover.rtl_walk.LaneWalkModel`) to pack that many
    candidates into one bit-parallel pass; the ASM adapter ignores it.
    """
    model = walk_model(machine, predicates)
    db = CoverageDB(meta={"generator": "coverage_driven", "seed": seed})
    selected: list = []
    history: list[float] = []
    gainless = 0
    scored = 0
    round_index = 0
    while len(selected) < max_tests:
        if db.coverage() >= target and len(db):
            return CoverageDrivenResult(
                selected, db, history, True, False, scored)
        walk_seeds = [
            _walk_seed(seed, "round", round_index, i)
            for i in range(candidates_per_round)
        ]
        round_index += 1
        gains = _map_walks(model, walk_seeds, walk_steps, lanes, jobs,
                           model_spec, _Gain(db))
        scored += len(gains)
        if not gains:
            break
        best_gain = max(gains)
        best_index = gains.index(best_gain)
        if best_gain <= 0 and len(db):
            gainless += 1
            if gainless >= plateau_rounds:
                return CoverageDrivenResult(
                    selected, db, history, False, True, scored)
            continue  # gainless round: do not spend test budget on it
        gainless = 0
        best_seed = walk_seeds[best_index]
        db.merge(model.walk_dbs([best_seed], walk_steps, 1)[0])
        selected.append(model.walk_case(best_seed, walk_steps))
        history.append(db.coverage())
    reached = db.coverage() >= target and bool(len(db))
    return CoverageDrivenResult(selected, db, history, reached, False, scored)


def undirected_suite(
    machine: AsmMachine,
    predicates: Mapping[str, Predicate],
    num_tests: int,
    walk_steps: int = 16,
    seed: int = 0,
    jobs: int = 1,
    model_spec=None,
    lanes: int = 1,
) -> CoverageDrivenResult:
    """The unranked baseline: ``num_tests`` random walks merged in
    generation order with no coverage feedback.

    With ``jobs > 1`` and a ``model_spec`` the walks fan out over the
    process pool; each worker returns its per-walk DBs and the
    coordinator merges them in walk order, which -- DB merge being
    lossless -- reproduces the sequential accumulation exactly.  A
    lane-parallel vehicle collects up to ``lanes`` per-walk DBs from
    each bit-parallel pass, merged in the same order.
    """
    model = walk_model(machine, predicates)
    db = CoverageDB(meta={"generator": "undirected", "seed": seed})
    walk_seeds = [
        _walk_seed(seed, "undirected", 0, i) for i in range(num_tests)
    ]
    history: list[float] = []
    for walk_db in _map_walks(model, walk_seeds, walk_steps, lanes, jobs,
                              model_spec, _whole):
        db.merge(walk_db)
        history.append(db.coverage())
    walks = [model.walk_case(walk_seed, walk_steps)
             for walk_seed in walk_seeds]
    return CoverageDrivenResult(walks, db, history, False, False, 0)
