"""The one place a PSL property suite is checked on an RTL design.

:func:`check_property` is the one engine dispatch: one property, BDD
reachability or SAT (BMC + k-induction), one
:class:`~repro.mc.checker.SymbolicCheckResult`.
:func:`sweep_rtl_properties` checks a named suite against the LA-1 RTL
one supervised shard per property -- inline at ``jobs=1``, forked after
the coordinator elaborated the design at ``jobs>1`` -- so every
``jobs`` gives the same report, and
:meth:`PropertySweepReport.combined` is the one fold of a suite into
one result with conjunction semantics.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Tuple

from ..bdd import BddBudgetExceeded
from ..cli import check_mc_choice
from ..psl.ast import Property, PslError
from ..rtl.netlist import FlatDesign
from .checker import SymbolicCheckResult, SymbolicModelChecker
from .transition import SymbolicModel

__all__ = ["PropertySweepReport", "check_la1_property", "check_property",
           "host_cut", "sweep_rtl_properties"]

#: how the fold combines a ``bdd_stats`` depth or size; any other
#: number is a counter and adds up
FOLDS = {"k": max, "peak_nodes": max, "clean_depth": min}



def check_property(
    design: FlatDesign,
    prop: Property,
    labels: dict,
    name: str = "property",
    engine: str = "bdd",
    *,
    coi: bool = True,
    transient_node_budget: Optional[int] = 12_000_000,
    live_node_budget: Optional[int] = 1_500_000,
    gc_threshold: int = 2_000_000,
    method: str = "prove",
    max_k: int = 40,
    max_depth: int = 60,
    check_proofs: bool = False,
) -> SymbolicCheckResult:
    """Check the PSL safety property ``prop`` on ``design`` with
    ``engine``; ``labels`` maps every atom to a ``("net.path", bit)``.

    ``coi`` encodes only the cone of influence of the label nets the
    property reads.  BDD runs under the node budgets (an exhausted one
    is the *state explosion* verdict); SAT proves by k-induction up to
    ``max_k`` or, with ``method="bmc"``, only refutes up to
    ``max_depth``, and its statistics travel in ``bdd_stats``
    (``engine="sat"``, ``peak_nodes`` is the clause count).  An
    undecided result names its budget in ``bdd_stats["budget"]``.  Every
    budget counts work, none time, so the result is the same on any
    host.
    """
    check_mc_choice(engine)
    start = time.perf_counter()
    if engine == "sat":
        from ..sat.bmc import SatModelChecker

        checker = SatModelChecker(design, prop, labels, name=name, coi=coi)
        if method == "bmc":
            run = checker.bmc(max_depth, check_proofs=check_proofs)
            cex, replayed = run.failed_at, run.replayed
            depth = {"clean_depth": run.clean_depth}
            iterations = run.clean_depth if cex is None else cex
            truncated = False  # clean to max_depth is BMC's answer
        else:
            run = checker.prove(max_k=max_k, check_proofs=check_proofs)
            cex = run.cex.failed_at if run.cex is not None else None
            replayed = run.cex.replayed if run.cex is not None else None
            depth = {"k": run.k}
            iterations = run.k if run.k is not None else run.stats["frames"]
            truncated = run.truncated
        stats = {"method": "bmc" if method == "bmc" else "k-induction",
                 **run.stats, **depth, "replayed": replayed,
                 "proof_checked": "proof_lemmas" in run.stats,
                 "properties": 1}
        return SymbolicCheckResult(
            run.holds, time.perf_counter() - start, stats["clauses"], 0,
            max(iterations, 0), 0.0, counterexample_depth=cex,
            property_name=name, truncated=truncated, bdd_stats=stats,
        )
    roots = None
    if coi:
        used = prop.atoms()
        roots = sorted(
            path for atom, (path, __) in labels.items() if atom in used)
    try:
        model = SymbolicModel(design, node_budget=transient_node_budget,
                              coi_roots=roots)
    except BddBudgetExceeded:
        # the encoding itself outgrew the budget, before any checking
        budget = transient_node_budget or 0
        return SymbolicCheckResult(
            None, time.perf_counter() - start, budget, 0, 0,
            budget * 88 / 1e6, exploded=True, property_name=name,
            bdd_stats={"budget": "transient_node_budget"},
        )
    checker = SymbolicModelChecker(model, live_node_budget=live_node_budget,
                                   gc_threshold=gc_threshold)
    return checker.check_property(prop, labels, name)


def check_la1_property(banks: int, prop: Property, name: str,
                       engine: str = "bdd", datapath: bool = True,
                       config=None, **budgets) -> SymbolicCheckResult:
    """:func:`check_property` on the N-bank LA-1 RTL of
    :func:`repro.core.rtl_model.la1_netlist` (``config`` defaults to the
    model-checking scale), with the LA-1 atom labels."""
    from ..core.properties import rtl_labels
    from ..core.rtl_model import la1_netlist
    from ..core.rulebase import MC_SCALE_CONFIG

    design = la1_netlist(config or MC_SCALE_CONFIG(banks), datapath)
    return check_property(design, prop, rtl_labels("la1_top", banks), name,
                          engine, **budgets)


def host_cut(budget: Optional[str]) -> bool:
    """Whether a ``bdd_stats["budget"]`` list names a budget a run
    exhausts by its host's speed or health rather than by its spec: a
    wall-clock deadline, or the attempts of a quarantined shard."""
    return any(name in ("deadline_s", "shard_attempts")
               for name in (budget or "").split(","))


def _undecided(name: str, budget: str,
               truncated: bool = False) -> SymbolicCheckResult:
    """A property the sweep's deadline cut off, or quarantined."""
    return SymbolicCheckResult(None, 0.0, 0, 0, 0, 0.0, property_name=name,
                               truncated=truncated,
                               bdd_stats={"budget": budget})


class PropertySweepReport:
    """Per-property results of one sweep plus pool accounting."""

    def __init__(self, results: list, par_stats: Optional[dict] = None,
                 quarantined: Optional[list] = None):
        #: list of (name, SymbolicCheckResult), in suite order
        self.results = list(results)
        #: ParStats.to_dict() of the underlying supervised run
        self.par_stats = dict(par_stats or {})
        #: names of properties whose shard was quarantined (worker
        #: failed every attempt): the conjunction is then inconclusive,
        #: never a silent pass
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

    def combined(self, name: Optional[str] = None) -> SymbolicCheckResult:
        """One result named ``name`` with conjunction semantics.

        CPU times and counters add up; sizes, ``k`` and ``iterations``
        take the maximum and depths the minimum (:data:`FOLDS`); an
        explosion or truncation anywhere taints the suite; a string all
        properties agree on is kept; ``proof_checked`` holds when every
        proof was checked; ``replayed`` is the shallowest
        counterexample's; ``budget`` lists the distinct budgets run out
        of, in property order, comma-separated."""
        results = [r for __, r in self.results]
        cex = [r for r in results if r.counterexample_depth is not None]
        shallowest = min(cex, key=lambda r: r.counterexample_depth,
                         default=None)
        stats: dict = {}
        strings: dict = {}
        budgets: dict = {}
        for r in results:
            for key, value in r.bdd_stats.items():
                if key == "budget":
                    budgets.update(dict.fromkeys(value.split(",")))
                elif key == "proof_checked":
                    stats[key] = all(
                        p.bdd_stats.get(key) is True for p in results)
                elif key == "replayed":
                    stats[key] = (None if shallowest is None
                                  else shallowest.bdd_stats.get(key))
                elif isinstance(value, str):
                    strings.setdefault(key, set()).add(value)
                elif key in FOLDS:
                    given = [v for v in (stats.get(key), value)
                             if v is not None]
                    stats[key] = FOLDS[key](given) if given else None
                elif not isinstance(value, bool):
                    stats[key] = stats.get(key, 0) + value
        stats.update((key, values.pop()) for key, values in strings.items()
                     if len(values) == 1)
        if budgets:
            stats["budget"] = ",".join(budgets)
        names = ",".join(n for n, __ in self.results)
        return SymbolicCheckResult(
            self.holds,
            sum(r.cpu_time for r in results),
            max((r.peak_nodes for r in results), default=0),
            max((r.reached_size for r in results), default=0),
            max((r.iterations for r in results), default=0),
            max((r.memory_mb for r in results), default=0.0),
            exploded=any(r.exploded for r in results),
            counterexample_depth=(shallowest.counterexample_depth
                                  if shallowest is not None else None),
            property_name=name or f"sweep({names})",
            truncated=any(r.truncated for r in results),
            bdd_stats=stats,
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
    deadline_s: Optional[float] = None,
    **options,
) -> PropertySweepReport:
    """Check every named property of ``properties`` (e.g.
    :func:`repro.core.properties.read_mode_suite`) against the N-bank
    LA-1 RTL with :func:`check_property`, passing ``engine`` and
    ``options`` (budgets, ``coi``, ``method``, ``config``) through.
    ``jobs`` only sets the process count; the report is the same.

    ``deadline_s`` bounds the whole sweep from outside the engines, as
    the ``timeout_s`` of :func:`repro.par.run_supervised`: inline, no
    property starts after it and a property already running finishes;
    forked, the workers still running at it are killed.  A crashed or
    hung worker is retried up to ``shard_attempts`` times
    (``shard_deadline_s`` bounds one forked property), then quarantined.
    A property the deadline cut off or a quarantined one is undecided,
    naming ``deadline_s`` or ``shard_attempts``, so the suite degrades
    to inconclusive.  An unknown ``engine``, and a property that is not a
    safety property or reads an atom the LA-1 labels do not map, raise
    (a :class:`~repro.psl.PslError` naming the property) before any
    property starts: a spec error is no crash to retry.
    """
    from ..core.properties import rtl_labels
    from ..core.rtl_model import la1_netlist
    from ..core.rulebase import MC_SCALE_CONFIG
    from ..par import ShardError, run_supervised
    from ..par.workers import mc_check_shard

    check_mc_choice(engine)
    labels = rtl_labels("la1_top", banks)
    for name, prop in properties:
        if not prop.is_safety():
            raise PslError(f"{name}: {prop!r} is not a safety property")
        unmapped = sorted(prop.atoms() - labels.keys())
        if unmapped:
            raise PslError(
                f"{name}: no label mapping for atom {unmapped[0]!r}")
    shard_args = [(banks, datapath, name, prop, engine, options)
                  for name, prop in properties]
    try:
        la1_netlist(options.get("config") or MC_SCALE_CONFIG(banks), datapath)
    except Exception:  # noqa: BLE001 - an optimisation, not a verdict
        pass  # each shard meets the failure again and is quarantined
    results, stats = run_supervised(
        mc_check_shard,
        shard_args,
        jobs=jobs,
        timeout_s=deadline_s,
        max_attempts=shard_attempts,
        shard_deadline_s=shard_deadline_s,
    )
    paired, quarantined = [], []
    for (name, __), result in zip(properties, results):
        if isinstance(result, ShardError):
            quarantined.append(name)
            result = _undecided(name, "shard_attempts")
        elif result is None:
            result = _undecided(name, "deadline_s", truncated=True)
        else:
            result = SymbolicCheckResult.from_dict(result)
        paired.append((name, result))
    return PropertySweepReport(paired, stats.to_dict(), quarantined)
