"""Shared command-line helpers for the ``python -m repro.*`` drivers."""

from __future__ import annotations

__all__ = ["BACKENDS", "JOBS_RANGE", "LANES_RANGE", "PATTERNS_RANGE",
           "bounded_int"]

#: inclusive bounds of the process fan-out (``jobs``) and bit-parallel
#: lane width (``lanes``) execution knobs, shared by the CLIs and the
#: service's job specs
JOBS_RANGE = (1, 128)
LANES_RANGE = (1, 4096)

#: a fault campaign's scalar RTL backends and its stimulus-pattern
#: count, shared by the campaign CLI and the service's campaign specs
BACKENDS = ("compiled", "interp")
PATTERNS_RANGE = (1, 1024)


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
