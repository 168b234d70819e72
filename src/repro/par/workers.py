"""Module-level worker entry points for :func:`repro.par.run_supervised`.

The task functions live here at module level, so a worker process can
reach them by reference under any start method.  A shard runs only its
task: what it shares with its siblings (an elaborated netlist and the
simulator kernels compiled for it, a checker automaton, a rebuilt
model) comes from a bounded per-process memo on the builder
(:func:`functools.lru_cache`).  A coordinator fills the memos before it
forks, so the workers inherit them -- the warm start that keeps
per-shard cost at the actual work, not at model construction.

Unpicklable objects (machines with closure rules, predicate functions)
never cross the pipe: callers ship a :class:`ModelSpec` -- a dotted
``"package.module:factory"`` path plus keyword arguments -- and each
worker rebuilds the model locally.  Deterministic factories plus
:func:`repro.par.derive_seed` streams are what make ``jobs=N`` replay
``jobs=1`` exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
from typing import Optional

__all__ = [
    "ModelSpec",
    "built_model",
    "la1_model_spec",
    "build_la1_testgen_model",
    "la1_traffic_model_spec",
    "build_la1_traffic_model",
    "campaign_shard",
    "testgen_walk_shard",
    "cover_collect_shard",
    "mc_check_shard",
    "sat_check_shard",
]


# ----------------------------------------------------------------------
# model specs: picklable recipes for unpicklable models
# ----------------------------------------------------------------------
class ModelSpec:
    """A picklable recipe: ``factory`` is a dotted ``"module:attr"``
    path to a callable returning ``(machine, predicates)``; ``kwargs``
    are its keyword arguments (JSON-serializable values only, so the
    cache key below is stable)."""

    __slots__ = ("factory", "kwargs")

    def __init__(self, factory: str, kwargs: Optional[dict] = None):
        self.factory = factory
        self.kwargs = dict(kwargs or {})

    def key(self) -> str:
        return f"{self.factory}?{json.dumps(self.kwargs, sort_keys=True)}"

    def build(self):
        module_name, __, attr = self.factory.partition(":")
        if not attr:
            raise ValueError(
                f"ModelSpec factory {self.factory!r} must be 'module:attr'"
            )
        factory = getattr(importlib.import_module(module_name), attr)
        return factory(**self.kwargs)

    def __eq__(self, other):
        return isinstance(other, ModelSpec) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"ModelSpec({self.factory!r}, {self.kwargs!r})"


@functools.lru_cache(maxsize=8)
def built_model(spec: ModelSpec):
    """``spec.build()``, cached per process: every testgen shard of one
    spec walks the same rebuilt model."""
    return spec.build()


def build_la1_testgen_model(banks: int = 2):
    """The standard LA-1 testgen target: the N-bank ASM machine plus its
    state predicates (the factory behind :func:`la1_model_spec`)."""
    from ..core.asm_model import La1AsmConfig, build_la1_asm
    from ..cover.asm_cov import la1_state_predicates

    machine = build_la1_asm(La1AsmConfig(banks=banks))
    return machine, la1_state_predicates(banks)


def la1_model_spec(banks: int = 2) -> ModelSpec:
    """Spec for :func:`build_la1_testgen_model` -- what
    ``coverage_driven_suite(..., jobs=N)`` callers pass for the shipped
    LA-1 models."""
    return ModelSpec("repro.par.workers:build_la1_testgen_model",
                     {"banks": banks})


def build_la1_traffic_model(banks: int = 2, seed: int = 7):
    """The RTL traffic-walk testgen target: an
    :class:`~repro.cover.traffic_walk.La1TrafficModel`, whose
    ``walk_dbs`` runs a whole candidate batch lane-parallel (one
    candidate per lane), plus its (empty) predicate placeholder."""
    from ..cover.traffic_walk import La1TrafficModel

    return La1TrafficModel(banks=banks, seed=seed), None


def la1_traffic_model_spec(banks: int = 2, seed: int = 7) -> ModelSpec:
    """Spec for :func:`build_la1_traffic_model` -- what lane-parallel
    ``coverage_driven_suite(..., jobs=N)`` callers pass so each worker
    rebuilds the traffic model (and its bitpar simulator) locally."""
    return ModelSpec("repro.par.workers:build_la1_traffic_model",
                     {"banks": banks, "seed": seed})


# ----------------------------------------------------------------------
# fault campaign
# ----------------------------------------------------------------------
def campaign_shard(config, faults, lanes: int = 1,
                   patterns_per_pass: Optional[int] = None) -> dict:
    """Sweep one shard of faults through the one executor
    (:meth:`~repro.fault.campaign.FaultCampaign.execute_faults`) of a
    campaign of its own; returns a mergeable mini
    :class:`~repro.fault.campaign.CampaignReport` as a dict, whose
    engine stats count this shard alone.  With ``lanes > 1`` the
    compatible (lane-encodable) faults of the shard run as PPSFP
    batches on the bitpar backend (verdicts unchanged), so lane
    parallelism multiplies with the process fan-out;
    ``patterns_per_pass`` caps the pattern-group tiling per pass."""
    from ..fault.campaign import CampaignConfig, CampaignReport, FaultCampaign

    # the shard never checkpoints (the coordinator owns the state file)
    # and never enforces the whole-campaign deadline (the coordinator
    # owns the clock); per-fault deadlines still apply locally
    campaign = FaultCampaign(CampaignConfig(
        banks=config.banks,
        traffic=config.traffic,
        seed=config.seed,
        backend=config.backend,
        rtl_cycles=config.rtl_cycles,
        fault_deadline_s=config.fault_deadline_s,
        design=config.design,
        patterns=config.patterns,
    ))
    verdicts = campaign.execute_faults(
        faults, lanes=lanes, patterns_per_pass=patterns_per_pass)
    return CampaignReport(
        verdicts, config.fingerprint(),
        sum(v.cpu_time for v in verdicts), campaign._engine_stats(),
    ).to_dict()


# ----------------------------------------------------------------------
# coverage-driven test generation
# ----------------------------------------------------------------------
def testgen_walk_shard(spec: ModelSpec, walk_seeds, walk_steps: int,
                       lanes: int, fn) -> list:
    """``fn`` of each walk DB of one shard of testgen walks, in seed
    order.

    The worker runs its shard through the rebuilt vehicle's walk
    protocol (:func:`repro.cover.testgen.walk_model`; a lane-parallel
    vehicle packs up to ``lanes`` walks per bit-parallel pass, so
    process fan-out multiplies with lane fan-out) and reduces each walk
    DB in place with the picklable ``fn``: a directed round ships back
    one gain per walk, the undirected suite the walk DBs themselves.
    """
    from ..cover.testgen import walk_model

    machine, predicates = built_model(spec)
    model = walk_model(machine, predicates)
    return [fn(db) for db in model.walk_dbs(walk_seeds, walk_steps, lanes)]


# ----------------------------------------------------------------------
# cross-level coverage collection
# ----------------------------------------------------------------------
def cover_collect_shard(kwargs: dict) -> dict:
    """Collect one four-level LA-1 coverage shard (one seed)."""
    from ..cover.la1 import collect_la1_coverage

    return collect_la1_coverage(**kwargs).to_dict()


# ----------------------------------------------------------------------
# symbolic model checking sweeps
# ----------------------------------------------------------------------
def mc_check_shard(banks: int, datapath: bool, name: str, prop,
                   options: dict) -> dict:
    """Check one PSL property with the BDD engine against the netlist
    of :func:`repro.core.rulebase.mc_design`."""
    from ..core.rulebase import check_read_mode_rtl

    result = check_read_mode_rtl(
        banks,
        prop=prop,
        datapath=datapath,
        property_name=name,
        **options,
    )
    return result.to_dict()


def sat_check_shard(banks: int, datapath: bool, name: str, prop,
                    options: dict) -> dict:
    """Check one PSL property with the SAT engine (BMC + k-induction)
    against the same netlist.  Same signature and result shape as
    :func:`mc_check_shard`, so sweeps swap engines without re-sharding."""
    from ..sat.bmc import check_read_mode_sat

    result = check_read_mode_sat(
        banks,
        prop=prop,
        datapath=datapath,
        property_name=name,
        **options,
    )
    return result.to_dict()
