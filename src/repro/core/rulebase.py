"""The RuleBase experiment driver (Table 2).

One call builds the bit-level LA-1 RTL at the model-checking scale,
symbolically encodes it, embeds the Read-Mode property's checker
automaton and runs BDD reachability under the configured resource
budgets, converting any budget exhaustion -- during encoding or during
reachability -- into the *state explosion* verdict Table 2 reports for
the 4-bank configuration.
"""

from __future__ import annotations

import functools
from typing import Optional

from ..mc.checker import SymbolicCheckResult
from ..mc.sweep import check_la1_property
from ..psl.ast import Property
from ..rtl import FlatDesign, elaborate
from .properties import read_mode_property
from .rtl_model import build_la1_top_rtl
from .spec import La1Config

__all__ = ["check_read_mode_rtl", "mc_design", "MC_SCALE_CONFIG"]


def MC_SCALE_CONFIG(banks: int) -> La1Config:
    """The model-checking scale: 1-bit beats, 1-bit addresses.

    RuleBase users verified a *behavioral model* of the interface rather
    than the full-width datapath; this is the equivalent reduction that
    keeps the bit-level control and timing exact.
    """
    return La1Config(banks=banks, beat_bits=1, addr_bits=1)


# a serve process sees any bank count, so the memo is bounded
@functools.lru_cache(maxsize=8)
def mc_design(config: La1Config, datapath: bool) -> FlatDesign:
    """The elaborated LA-1 RTL of ``config``, cached per process and
    shared by every BDD and SAT check of that shape (a check never
    writes to it: the symbolic encoding is rebuilt per check)."""
    return elaborate(build_la1_top_rtl(config, datapath=datapath))


def check_read_mode_rtl(
    banks: int,
    prop: Optional[Property] = None,
    transient_node_budget: Optional[int] = 12_000_000,
    live_node_budget: Optional[int] = 1_500_000,
    gc_threshold: int = 2_000_000,
    datapath: bool = True,
    config: Optional[La1Config] = None,
    property_name: Optional[str] = None,
    coi: bool = True,
) -> SymbolicCheckResult:
    """Model check the Read-Mode property on the N-bank RTL.

    Returns a :class:`SymbolicCheckResult`; ``exploded=True`` marks the
    run that ran out of BDD capacity (transient allocation within one
    image step, or live size after garbage collection), and
    ``truncated=True`` a run stopped short of a fixpoint by the
    checker's image-step limit; either way ``bdd_stats["budget"]`` names
    the budget (``"transient_node_budget"``, ``"live_node_budget"`` or
    ``"max_iterations"``).

    ``coi`` (default on) restricts the symbolic encoding to the cone of
    influence of the label nets the property reads, via
    :func:`repro.lint.coi.reduce_design`: registers the property cannot
    observe get no BDD variables.  Verdicts and counterexample depths
    are unaffected (the dropped state is unconstrained and unobserved);
    only BDD sizes change.  Pass ``coi=False`` to encode the full
    netlist, e.g. for the ablation benchmark.

    One check of the conjunction (or of ``prop``) through the engine
    dispatch :func:`repro.mc.sweep.check_property`, on the netlist of
    :func:`mc_design`, so checks of one shape elaborate once per process.
    """
    return check_la1_property(
        banks, read_mode_property(0) if prop is None else prop,
        property_name or f"read_mode[{banks}banks]", "bdd", datapath, config,
        transient_node_budget=transient_node_budget,
        live_node_budget=live_node_budget, gc_threshold=gc_threshold,
        coi=coi)
