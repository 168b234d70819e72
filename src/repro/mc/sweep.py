"""Parallel PSL property sweeps over one RTL design.

A RuleBase session checks a *suite* of properties against the same
netlist; the properties are independent, so the sweep is the natural
third fan-out axis of :mod:`repro.par`: one process-pool task per
property, forked after the coordinator elaborated the design
(:func:`repro.core.rulebase.mc_design`), each re-encoding the symbolic
model per property (checker automata are satellite state variables and
must not accumulate across checks).

:func:`sweep_rtl_properties` returns a :class:`PropertySweepReport`
whose :meth:`~PropertySweepReport.combined` collapses the per-property
results into one :class:`~repro.mc.checker.SymbolicCheckResult` with
conjunction semantics -- sweeping the three read-mode conjuncts reaches
the same verdict as checking their conjunction in one run, which is how
``run_flow(jobs=N)`` parallelizes its RTL model-checking stage.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..psl.ast import Property
from .checker import SymbolicCheckResult

__all__ = ["PropertySweepReport", "sweep_rtl_properties"]


class PropertySweepReport:
    """Per-property results of one sweep plus pool accounting."""

    def __init__(self, results: list, par_stats: Optional[dict] = None,
                 quarantined: Optional[list] = None):
        #: list of (name, SymbolicCheckResult), in suite order
        self.results = list(results)
        #: ParStats.to_dict() of the underlying supervised run
        self.par_stats = dict(par_stats or {})
        #: names of properties whose shard was quarantined (worker
        #: failed every attempt) -- no verdict exists for them, so the
        #: sweep's conjunction degrades to inconclusive, never to a
        #: silent pass
        self.quarantined = list(quarantined or [])

    @property
    def holds(self) -> Optional[bool]:
        """Conjunction verdict: ``False`` if any property fails,
        ``None`` if any is inconclusive (exploded/truncated/quarantined)
        and none fails, else ``True``."""
        verdicts = [r.holds for __, r in self.results]
        if any(v is False for v in verdicts):
            return False
        if self.quarantined or any(v is not True for v in verdicts):
            return None
        return True

    def failures(self) -> list:
        return [(name, r) for name, r in self.results if r.holds is False]

    def combined(self) -> SymbolicCheckResult:
        """One aggregate result with conjunction semantics: CPU times
        add (the sequential-equivalent cost), size metrics take the
        per-property maximum (the worst single encoding), explosion or
        truncation anywhere taints the whole sweep, and the shallowest
        counterexample is reported.  Numeric ``bdd_stats`` add up;
        ``budget`` lists the distinct budgets the exploded or truncated
        properties ran out of, in property order, comma-separated."""
        results = [r for __, r in self.results]
        cex_depths = [
            r.counterexample_depth for r in results
            if r.counterexample_depth is not None
        ]
        bdd_stats: dict = {}
        budgets: dict = {}
        for r in results:
            for key, value in (r.bdd_stats or {}).items():
                if isinstance(value, (int, float)) and not isinstance(
                        value, bool):
                    bdd_stats[key] = bdd_stats.get(key, 0) + value
            if (r.exploded or r.truncated) and r.bdd_stats.get("budget"):
                budgets[r.bdd_stats["budget"]] = None
        if budgets:
            bdd_stats["budget"] = ",".join(budgets)
        names = ",".join(name for name, __ in self.results)
        return SymbolicCheckResult(
            self.holds,
            sum(r.cpu_time for r in results),
            max((r.peak_nodes for r in results), default=0),
            max((r.reached_size for r in results), default=0),
            max((r.iterations for r in results), default=0),
            max((r.memory_mb for r in results), default=0.0),
            exploded=any(r.exploded for r in results),
            counterexample_depth=min(cex_depths, default=None),
            property_name=f"sweep({names})",
            truncated=any(r.truncated for r in results),
            bdd_stats=bdd_stats,
        )

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "properties": [
                {"name": name, **r.to_dict()} for name, r in self.results
            ],
            "quarantined": list(self.quarantined),
            "par": self.par_stats,
        }

    def __repr__(self):
        return (
            f"PropertySweepReport({len(self.results)} properties, "
            f"holds={self.holds})"
        )


def sweep_rtl_properties(
    banks: int,
    properties: Sequence[Tuple[str, Property]],
    datapath: bool = True,
    jobs: int = 1,
    shard_attempts: int = 2,
    shard_deadline_s: Optional[float] = None,
    engine: str = "bdd",
    **options,
) -> PropertySweepReport:
    """Check every named property against the N-bank LA-1 RTL.

    ``properties`` is a ``[(name, Property), ...]`` suite (e.g.
    :func:`repro.core.properties.read_mode_suite`).  With ``jobs > 1``
    each property is one process-pool task, forked after the
    coordinator elaborated the design, so every worker shares it.
    ``jobs=1`` runs the same tasks inline against the same design --
    verdicts are identical either way (BDD reachability is
    deterministic), only wall-clock differs.  The sweep runs supervised
    (:func:`repro.par.run_supervised`): a crashed or hung worker is
    reaped and its property retried up to ``shard_attempts`` times
    (``shard_deadline_s`` bounds one property's wall-clock); a property
    quarantined after the budget lands in
    :attr:`PropertySweepReport.quarantined` and degrades the sweep to
    inconclusive rather than aborting it.

    ``engine`` picks the per-property checker: ``"bdd"`` (default)
    routes through :func:`repro.core.rulebase.check_read_mode_rtl`,
    ``"sat"`` through :func:`repro.sat.bmc.check_read_mode_sat`
    (BMC + k-induction past the BDD explosion wall); extra ``options``
    pass through to the selected checker (budgets, deadline, ``coi``,
    and for SAT ``max_k``/``max_depth``/``method``).
    """
    from ..core.rulebase import MC_SCALE_CONFIG, mc_design
    from ..par import ShardError, run_supervised
    from ..par.workers import mc_check_shard, sat_check_shard

    if engine not in ("bdd", "sat"):
        raise ValueError(f"unknown mc engine {engine!r}")
    shard_fn = sat_check_shard if engine == "sat" else mc_check_shard
    shard_args = [
        (banks, datapath, name, prop, dict(options))
        for name, prop in properties
    ]
    try:
        mc_design(MC_SCALE_CONFIG(banks), datapath)
    except Exception:  # noqa: BLE001 - an optimisation, not a verdict
        pass  # each shard meets the failure again and is quarantined
    results, stats = run_supervised(
        shard_fn,
        shard_args,
        jobs=jobs,
        max_attempts=shard_attempts,
        shard_deadline_s=shard_deadline_s,
    )
    paired = []
    quarantined = []
    for (name, __), result in zip(properties, results):
        if isinstance(result, ShardError):
            quarantined.append(name)
        elif result is not None:
            paired.append((name, SymbolicCheckResult.from_dict(result)))
    return PropertySweepReport(paired, stats.to_dict(), quarantined)
