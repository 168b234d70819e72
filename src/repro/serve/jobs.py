"""Job adapters: the verification engines behind a uniform service API.

Every job kind wraps one batch tool of the methodology -- fault
campaigns (:mod:`repro.fault`), coverage-driven testgen
(:mod:`repro.cover`), RTL model-checking sweeps (:mod:`repro.mc`) and
the full Figure-2 flow (:mod:`repro.core.flow`) -- behind three
methods:

* :meth:`Job.fingerprint` -- the *content identity* of the work: every
  field that can change the result (design shape, stimulus seed,
  workload config) and none that cannot (process/lane fan-out, retry
  budgets).  Two submissions with equal fingerprints are
  the same work, so the server dedupes them onto one computation and
  one content-addressed store entry (:func:`repro.serve.store.content_key`
  of ``(kind, fingerprint)``).
* :meth:`Job.run` -- execute, streaming incremental events through the
  ``emit`` callback as shards land (campaign verdicts the moment their
  shard is collected -- the supervised pool's out-of-order
  ``on_result``), returning the JSON result payload.
* per-key work directories -- a campaign job given a ``workdir``
  places its checkpoint there under its content key, so a job
  interrupted by a server crash resumes on resubmission without
  recomputing collected work.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from ..cli import BACKENDS, JOBS_RANGE, LANES_RANGE, PATTERNS_RANGE, check_mc_choice
from .store import content_key

__all__ = ["Job", "CampaignJob", "CoverJob", "McJob", "FlowJob",
           "JOB_KINDS", "build_job"]

Emit = Callable[[dict], None]


class Job:
    """One unit of verification work behind the service.

    A kind declares each spec field once, by the :meth:`_field` call
    that reads it with its type and default; :func:`build_job` refuses
    a spec that names any other field.
    """

    kind = "abstract"

    def __init__(self, spec: dict):
        if not isinstance(spec, dict):
            raise ValueError("job spec must be a JSON object")
        self.spec = dict(spec)
        #: the spec fields this kind reads
        self.fields: set = set()
        # execution knobs: shape the *how*, never the result content
        self.jobs = self._bounded("jobs", JOBS_RANGE)
        self.lanes = self._bounded("lanes", LANES_RANGE)
        self.shard_attempts = int(self._field("shard_attempts", 2, (int,)))
        self.shard_deadline_s = self._field(
            "shard_deadline_s", None, (int, float))

    def _field(self, key: str, default, kinds) -> object:
        """Spec field ``key`` (``default`` when absent), which must be
        None or of ``kinds``."""
        self.fields.add(key)
        value = self.spec.get(key, default)
        if value is not None and not isinstance(value, kinds):
            raise ValueError(f"job field {key!r} must be {kinds}, "
                             f"got {type(value).__name__}")
        return value

    def _bounded(self, key: str, bounds: tuple) -> int:
        """An integer field (default 1) within the inclusive range the
        CLIs enforce for the same option."""
        value = int(self._field(key, 1, (int,)))
        lo, hi = bounds
        if not lo <= value <= hi:
            raise ValueError(f"job field {key!r} must be between {lo} and "
                             f"{hi}, got {value}")
        return value

    def _banks(self) -> int:
        """The LA-1 bank count, refused below 1 at submission instead of
        inside the engine once the job was accepted."""
        banks = int(self._field("banks", 2, (int,)))
        if banks < 1:
            raise ValueError(f"job field 'banks' must be >= 1, got {banks}")
        return banks

    def _zoo_design(self) -> Optional[str]:
        """A ``repro.dsl.zoo`` design name (None: the LA-1 workload)."""
        design = self._field("design", None, (str,))
        if design:
            from ..dsl.zoo import zoo_names

            if design not in zoo_names():
                raise ValueError(f"unknown design {design!r}; expected one "
                                 f"of {zoo_names()}")
        return design

    def fingerprint(self) -> dict:
        raise NotImplementedError

    def key(self) -> str:
        return content_key(self.kind, self.fingerprint())

    def run(self, emit: Emit, workdir: Optional[str] = None) -> dict:
        raise NotImplementedError

    def storable(self, result: dict) -> bool:
        """Whether ``result`` is this job's final answer, which the
        store then gives every later submission of the content key."""
        return True

    def _spool(self, workdir: Optional[str], suffix: str) -> Optional[str]:
        """A durable per-content-key scratch path under ``workdir``."""
        if not workdir:
            return None
        os.makedirs(workdir, exist_ok=True)
        return os.path.join(workdir, f"{self.key()}.{suffix}")

    def __repr__(self):
        return f"{type(self).__name__}({self.fingerprint()!r})"


class CampaignJob(Job):
    """A fault-injection campaign (:class:`repro.fault.FaultCampaign`)."""

    kind = "campaign"

    def __init__(self, spec: dict):
        super().__init__(spec)
        # a repro.dsl.zoo design name switches the campaign workload
        # from the LA-1 transaction host to the open-loop DSL stimulus
        self.design = self._zoo_design()
        self.banks = self._banks()
        self.traffic = int(self._field("traffic", 24, (int,)))
        self.seed = int(self._field("seed", 2004, (int,)))
        self.backend = str(self._field(
            "backend", "interp" if self.design else "compiled", (str,)))
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown campaign backend {self.backend!r}; "
                             f"expected one of {list(BACKENDS)}")
        self.rtl_cycles = int(self._field(
            "rtl_cycles", 32 if self.design else 160, (int,)))
        self.max_faults = self._field("max_faults", None, (int,))
        # stimulus patterns per fault are workload content (verdicts
        # merge across patterns); the per-pass tiling cap is not
        self.patterns = self._bounded("patterns", PATTERNS_RANGE)
        if self.design and self.patterns > 1:
            raise ValueError("job field 'patterns' must be 1 for a zoo "
                             f"design (open-loop stimulus), got "
                             f"{self.patterns}")
        self.patterns_per_pass = self._field("patterns_per_pass", None,
                                             (int,))
        self.deadline_s = self._field("deadline_s", None, (int, float))

    def fingerprint(self) -> dict:
        fingerprint = {
            "banks": self.banks,
            "traffic": self.traffic,
            "seed": self.seed,
            "backend": self.backend,
            "rtl_cycles": self.rtl_cycles,
            "max_faults": self.max_faults,
        }
        if self.patterns > 1:
            # conditional key: single-pattern submissions keep their
            # pre-pattern content identity (and store entries)
            fingerprint["patterns"] = self.patterns
        if self.design:
            # content identity of the *elaborated netlist*, not of the
            # Python frontend source: an edit that lowers identically
            # (comments, names of locals) dedupes onto the same work
            from ..dsl.elab import netlist_fingerprint
            from ..dsl.zoo import build_elaborated

            fingerprint["design"] = self.design
            fingerprint["netlist"] = netlist_fingerprint(
                build_elaborated(self.design))
        return fingerprint

    def run(self, emit: Emit, workdir: Optional[str] = None) -> dict:
        from ..fault.campaign import CampaignConfig, FaultCampaign

        config = CampaignConfig(
            design=self.design,
            banks=self.banks,
            traffic=self.traffic,
            seed=self.seed,
            backend=self.backend,
            rtl_cycles=self.rtl_cycles,
            max_faults=self.max_faults,
            patterns=self.patterns,
            campaign_deadline_s=self.deadline_s,
            checkpoint_path=self._spool(workdir, "ckpt.json"),
            shard_attempts=self.shard_attempts,
            shard_deadline_s=self.shard_deadline_s,
        )
        report = FaultCampaign(config).run(
            jobs=self.jobs,
            lanes=self.lanes,
            patterns_per_pass=self.patterns_per_pass,
            on_verdict=lambda v: emit({
                "type": "verdict",
                "fault_id": v.fault_id,
                "outcome": v.outcome,
                "detected_by": v.detected_by,
            }),
        )
        return report.to_dict()

    def storable(self, result: dict) -> bool:
        # a truncated or error verdict is an answer of this run's
        # deadline or crash, not of the content key: never cache it
        counts = result["counts"]
        return not (counts["truncated"] or counts["error"])


class CoverJob(Job):
    """Coverage-driven (or undirected) test generation.

    ``vehicle`` selects the stimulus model: ``"asm"`` (default) walks
    the abstract machine; ``"traffic"`` drives seeded LA-1 transaction
    streams through the RTL netlist
    (:class:`repro.cover.traffic_walk.La1TrafficModel`), where the
    ``lanes`` execution knob packs that many candidates per
    bit-parallel scoring pass.
    """

    kind = "cover"

    def __init__(self, spec: dict):
        super().__init__(spec)
        self.banks = self._banks()
        self.mode = str(self._field("mode", "directed", (str,)))
        if self.mode not in ("directed", "undirected"):
            raise ValueError(f"unknown cover mode {self.mode!r}")
        self.vehicle = str(self._field("vehicle", "asm", (str,)))
        if self.vehicle not in ("asm", "traffic"):
            raise ValueError(f"unknown cover vehicle {self.vehicle!r}")
        self.seed = int(self._field("seed", 0, (int,)))
        self.max_tests = int(self._field("max_tests", 8, (int,)))
        self.walk_steps = int(self._field("walk_steps", 16, (int,)))
        self.candidates_per_round = int(
            self._field("candidates_per_round", 8, (int,)))
        self.target = float(self._field("target", 1.0, (int, float)))
        self.plateau_rounds = int(self._field("plateau_rounds", 3, (int,)))

    def fingerprint(self) -> dict:
        fingerprint = {
            "banks": self.banks,
            "mode": self.mode,
            "seed": self.seed,
            "max_tests": self.max_tests,
            "walk_steps": self.walk_steps,
            "candidates_per_round": self.candidates_per_round,
            "target": self.target,
            "plateau_rounds": self.plateau_rounds,
        }
        if self.vehicle != "asm":
            # conditional key: ASM submissions keep their pre-vehicle
            # content identity (and store entries)
            fingerprint["vehicle"] = self.vehicle
        return fingerprint

    def run(self, emit: Emit, workdir: Optional[str] = None) -> dict:
        from ..cover.testgen import coverage_driven_suite, undirected_suite
        from ..par.workers import la1_model_spec, la1_traffic_model_spec

        if self.vehicle == "traffic":
            spec = la1_traffic_model_spec(self.banks, seed=self.seed)
        else:
            spec = la1_model_spec(self.banks)
        machine, predicates = spec.build()
        if self.mode == "directed":
            result = coverage_driven_suite(
                machine, predicates,
                target=self.target,
                max_tests=self.max_tests,
                candidates_per_round=self.candidates_per_round,
                walk_steps=self.walk_steps,
                seed=self.seed,
                plateau_rounds=self.plateau_rounds,
                jobs=self.jobs,
                model_spec=spec,
                lanes=self.lanes,
            )
        else:
            result = undirected_suite(
                machine, predicates,
                num_tests=self.max_tests,
                walk_steps=self.walk_steps,
                seed=self.seed,
                jobs=self.jobs,
                model_spec=spec,
                lanes=self.lanes,
            )
        for index, coverage in enumerate(result.history):
            emit({"type": "round", "test": index,
                  "coverage": round(coverage, 6)})
        return {
            "mode": self.mode,
            "num_tests": result.num_tests,
            "coverage": result.coverage,
            "history": result.history,
            "reached_target": result.reached_target,
            "plateaued": result.plateaued,
            "candidates_scored": result.candidates_scored,
            "db": result.db.to_dict(),
        }


class McJob(Job):
    """A read-mode RTL model-checking sweep (:mod:`repro.mc`)."""

    kind = "mc"

    def __init__(self, spec: dict):
        super().__init__(spec)
        self.banks = self._banks()
        self.datapath = bool(self._field("datapath", False, (bool, int)))

    def fingerprint(self) -> dict:
        return {"banks": self.banks, "datapath": self.datapath}

    def run(self, emit: Emit, workdir: Optional[str] = None) -> dict:
        from ..core.properties import read_mode_suite
        from ..mc import sweep_rtl_properties

        sweep = sweep_rtl_properties(
            self.banks,
            read_mode_suite(1),
            datapath=self.datapath,
            jobs=self.jobs,
            shard_attempts=self.shard_attempts,
            shard_deadline_s=self.shard_deadline_s,
        )
        for name, result in sweep.results:
            emit({"type": "property", "name": name, "holds": result.holds})
        return sweep.to_dict()

    def storable(self, result: dict) -> bool:
        # a property quarantined or cut by a wall clock answers for this
        # run's host, not for the content key
        from ..mc.sweep import host_cut

        return not any(host_cut(p["bdd_stats"].get("budget"))
                       for p in result["properties"])


class FlowJob(Job):
    """The full Figure-2 flow (:func:`repro.core.flow.run_flow`)."""

    kind = "flow"

    def __init__(self, spec: dict):
        super().__init__(spec)
        # a repro.dsl.zoo design name runs the DSL flow
        # (repro.dsl.flow.run_dsl_flow) instead of the LA-1 Figure-2 flow
        self.design = self._zoo_design()
        self.banks = self._banks()
        self.traffic = int(self._field("traffic", 40, (int,)))
        self.seed = int(self._field("seed", 2004, (int,)))
        self.rtl_mc = self._field("rtl_mc", "control", (str,))
        # the zoo flow proves its properties by SAT; the LA-1 flow's
        # RuleBase-style stage defaults to BDD (FlowConfig's default)
        self.mc_engine = str(self._field(
            "mc_engine", "sat" if self.design else "bdd", (str,)))
        check_mc_choice(self.mc_engine, self.rtl_mc)
        self.coverage = bool(self._field("coverage", True, (bool, int)))

    def fingerprint(self) -> dict:
        if self.design:
            from ..dsl.elab import netlist_fingerprint
            from ..dsl.zoo import build_elaborated

            return {
                "design": self.design,
                "netlist": netlist_fingerprint(
                    build_elaborated(self.design)),
                "seed": self.seed,
                "mc_engine": self.mc_engine,
            }
        fingerprint = {
            "banks": self.banks,
            "traffic": self.traffic,
            "seed": self.seed,
            "rtl_mc": self.rtl_mc,
            "coverage": self.coverage,
        }
        if self.mc_engine != "bdd":
            # conditional key: BDD submissions keep their pre-engine
            # content identity (and store entries)
            fingerprint["mc_engine"] = self.mc_engine
        return fingerprint

    def run(self, emit: Emit, workdir: Optional[str] = None) -> dict:
        if self.design:
            from ..dsl.flow import run_dsl_flow

            report = run_dsl_flow(self.design, seed=self.seed,
                                  mc_engine=self.mc_engine)
            result = {"design": self.design,
                      "fingerprint": report.fingerprint}
        else:
            from ..core.flow import FlowConfig, run_flow

            report = run_flow(FlowConfig(
                banks=self.banks,
                traffic=self.traffic,
                seed=self.seed,
                rtl_mc=self.rtl_mc,
                mc_engine=self.mc_engine,
                coverage=self.coverage,
                jobs=self.jobs,
                shard_attempts=self.shard_attempts,
                shard_deadline_s=self.shard_deadline_s,
            ))
            result = {"verilog_lines": len(report.verilog.splitlines())}
        from ..mc.checker import SymbolicCheckResult

        stages = []
        for stage in report.stages:
            emit({"type": "stage", "name": stage.name, "ok": stage.ok})
            entry = {
                "name": stage.name,
                "ok": stage.ok,
                "detail": stage.detail,
                "cpu_time": round(stage.cpu_time, 4),
            }
            # a model-checking stage names the budgets it ran out of
            if isinstance(stage.data, SymbolicCheckResult) and (
                    stage.data.bdd_stats.get("budget")):
                entry["budget"] = stage.data.bdd_stats["budget"]
            stages.append(entry)
        return {"ok": report.ok, "stages": stages, **result}

    def storable(self, result: dict) -> bool:
        from ..mc.sweep import host_cut

        return not any(host_cut(stage.get("budget"))
                       for stage in result["stages"])


JOB_KINDS = {
    job.kind: job for job in (CampaignJob, CoverJob, McJob, FlowJob)
}


def build_job(kind: str, spec: dict) -> Job:
    """Instantiate and validate one job; raises ``ValueError`` for an
    unknown kind, a malformed spec or a field the kind does not read
    (the server's 400 path)."""
    try:
        factory = JOB_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown job kind {kind!r}; expected one of "
            f"{sorted(JOB_KINDS)}"
        ) from None
    job = factory(spec)
    unknown = sorted(set(job.spec) - job.fields)
    if unknown:
        raise ValueError(f"unknown {kind} job field(s) {unknown}; "
                         f"expected some of {sorted(job.fields)}")
    return job
