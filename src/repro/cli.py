"""Shared command-line helpers for the ``python -m repro.*`` drivers."""

from __future__ import annotations

__all__ = ["BACKENDS", "JOBS_RANGE", "LANES_RANGE", "MC_ENGINES",
           "PATTERNS_RANGE", "RTL_MC_MODELS", "bounded_int",
           "check_mc_choice"]

#: inclusive bounds of the process fan-out (``jobs``) and bit-parallel
#: lane width (``lanes``) execution knobs, shared by the CLIs and the
#: service's job specs
JOBS_RANGE = (1, 128)
LANES_RANGE = (1, 4096)

#: a fault campaign's scalar RTL backends and its stimulus-pattern
#: count, shared by the campaign CLI and the service's campaign specs
BACKENDS = ("compiled", "interp")
PATTERNS_RANGE = (1, 1024)

#: the flows' model-checking engines (SAT: BMC + k-induction; BDD:
#: RuleBase-style reachability) and the RTL models the LA-1 flow's
#: model-checking stage checks, shared by the flows, the DSL CLI and the
#: service's flow specs
MC_ENGINES = ("sat", "bdd")
RTL_MC_MODELS = ("control", "full")


def check_mc_choice(mc_engine: str, rtl_mc=None) -> None:
    """Raise ``ValueError`` for an engine outside :data:`MC_ENGINES`,
    or an RTL model neither None (no RTL model checking) nor in
    :data:`RTL_MC_MODELS`."""
    if mc_engine not in MC_ENGINES:
        raise ValueError(f"unknown mc engine {mc_engine!r}; expected one "
                         f"of {list(MC_ENGINES)}")
    if rtl_mc not in (None,) + RTL_MC_MODELS:
        raise ValueError(f"unknown rtl_mc model {rtl_mc!r}; expected None "
                         f"or one of {list(RTL_MC_MODELS)}")


def bounded_int(name: str, lo: int, hi: int):
    """An ``argparse`` type validating an integer in ``[lo, hi]``.

    Out-of-range or non-integer values fail argument parsing -- a
    one-line ``error: argument --x: ...`` message and exit status 2 --
    instead of surfacing later as a deep engine traceback (a negative
    lane count would otherwise die inside the bitpar codegen)."""
    # imported here: the service imports the ranges above, not argparse
    import argparse

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{name} must be an integer, got {text!r}") from None
        if not (lo <= value <= hi):
            raise argparse.ArgumentTypeError(
                f"{name} must be between {lo} and {hi}, got {value}")
        return value

    return parse
