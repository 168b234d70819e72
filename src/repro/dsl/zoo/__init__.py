"""``repro.dsl.zoo`` -- the design zoo: a scenario library and a
standing cross-level stress test.

Every entry elaborates to all three model levels, ships a PSL property
set over its probe nets and declares covergroup points.  Its
default-parameter elaboration is cached per process
(:func:`build_elaborated`), so forked workers inherit it, and the
service layer fingerprints it by elaborated-netlist content."""

from __future__ import annotations

import functools
from typing import List

from ..elab import ElaboratedDesign, elaborate
from ..lang import Design, DslError
from . import arbiter, fifo, noc, qdr

__all__ = [
    "ZOO",
    "zoo_names",
    "build_design",
    "build_elaborated",
    "zoo_properties",
    "conformance_budget",
    "zoo_state_predicates",
]

#: name -> zoo module (each exports NAME, PARAMS, CONFORMANCE,
#: build(**params) and properties(elab))
ZOO = {mod.NAME: mod for mod in (fifo, arbiter, qdr, noc)}


def zoo_names() -> List[str]:
    return sorted(ZOO)


def _entry(name: str):
    try:
        return ZOO[name]
    except KeyError:
        raise DslError(
            f"unknown zoo design {name!r}; have {zoo_names()}") from None


def build_design(name: str, **params) -> Design:
    """A fresh frontend design; ``params`` override the defaults."""
    entry = _entry(name)
    merged = dict(entry.PARAMS)
    merged.update(params)
    return entry.build(**merged)


# unbounded, yet one entry per ZOO name at most: any other name raises
# in build_design before anything is stored
@functools.cache
def build_elaborated(name: str) -> ElaboratedDesign:
    """The default-parameter elaboration, cached per process -- the
    warm-start object campaign and testgen workers share."""
    return elaborate(build_design(name))


def zoo_properties(name: str, elab: ElaboratedDesign = None):
    """``(name, Property, labels)`` triples for a zoo design."""
    entry = _entry(name)
    return entry.properties(elab or build_elaborated(name))


def conformance_budget(name: str) -> dict:
    """Per-design BFS budget (depth scales inversely with input width)."""
    return dict(_entry(name).CONFORMANCE)


def zoo_state_predicates(elab: ElaboratedDesign):
    """ASM state predicates for :class:`repro.cover.asm_cov.AsmCoverage`:
    one bin per 1-bit state variable, a non-zero bin for wider ones."""
    predicates = {}
    for sig in elab.design.state_sigs():
        var = sig.var_name
        if sig.width == 1:
            predicates[var] = (lambda state, v=var: bool(state[v]))
        else:
            predicates[f"{var}_nz"] = (
                lambda state, v=var: state[v] != 0)
    return predicates
