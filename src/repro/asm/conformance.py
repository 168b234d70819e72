"""Conformance testing: co-executing a model and an implementation.

"The AsmL tool performs a conformance test by executing the program under
test, called the implementation (SystemC model for our case), together
with the model program in ASM ... It then verifies if for all the possible
inputs, both models behave the same" (paper, Section 5.1).

:func:`check_conformance` drives the ASM machine and an implementation
through the same breadth-first action tree up to a depth bound, comparing
observable projections after every step.  Implementations plug in through
the tiny :class:`Implementation` protocol (factory-reset + apply-action +
observe), which :mod:`repro.core.conformance` adapts the SystemC-level
LA-1 model to.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence

from .exploration import ExplorationConfig, search
from .machine import Action, AsmMachine

__all__ = ["Implementation", "Divergence", "ConformanceResult", "check_conformance"]


class Implementation:
    """Protocol for the program under test.

    Subclasses provide a fresh restartable system: :meth:`reset` restores
    the initial condition, :meth:`apply` performs the action named by an
    ASM rule with its arguments, and :meth:`observe` returns the
    observable state as a dictionary comparable with the model's.
    """

    def reset(self) -> None:
        """Restore the implementation to its initial state."""
        raise NotImplementedError

    def apply(self, rule_name: str, args: dict) -> None:
        """Perform one action."""
        raise NotImplementedError

    def observe(self) -> dict:
        """The observable state after the last action."""
        raise NotImplementedError


class Divergence:
    """A behavioural mismatch found during co-execution."""

    def __init__(self, path: list[str], model_obs: dict, impl_obs: dict):
        self.path = path
        self.model_obs = model_obs
        self.impl_obs = impl_obs

    def __repr__(self):
        return (
            f"Divergence(after {' -> '.join(self.path) or '<initial>'}: "
            f"model={self.model_obs}, impl={self.impl_obs})"
        )


class ConformanceResult:
    """Outcome of a conformance run."""

    def __init__(
        self,
        conformant: bool,
        paths_checked: int,
        steps_executed: int,
        cpu_time: float,
        divergence: Optional[Divergence] = None,
    ):
        self.conformant = conformant
        self.paths_checked = paths_checked
        self.steps_executed = steps_executed
        self.cpu_time = cpu_time
        self.divergence = divergence

    def __repr__(self):
        verdict = "CONFORMANT" if self.conformant else "DIVERGENT"
        return (
            f"ConformanceResult({verdict}, paths={self.paths_checked}, "
            f"steps={self.steps_executed}, cpu={self.cpu_time:.3f}s)"
        )


def check_conformance(
    machine: AsmMachine,
    implementation: Implementation,
    observables: Sequence[str],
    max_depth: int = 4,
    max_paths: int = 10000,
    action_filter: Optional[Callable[[Action], bool]] = None,
) -> ConformanceResult:
    """Co-execute model and implementation over all action sequences.

    The model's observable projection is the listed state variables; the
    implementation's :meth:`~Implementation.observe` must return a
    dictionary with the same keys.  The first mismatch stops the run and
    is reported with the action path that exposes it -- the paper notes
    this phase "is sometimes time consuming, however, it is quite
    important to make sure the ASM to SystemC mapping preserves the
    system's properties".

    The search's monitor component is the path of fired actions: the
    implementation has no snapshot to merge states by, so every path is
    its own node and is replayed, action by action, on a freshly reset
    implementation.
    """
    start = time.perf_counter()
    machine.reset()

    def model_obs() -> dict:
        return {name: machine.state[name] for name in observables}

    implementation.reset()
    first_impl = implementation.observe()
    first_model = model_obs()
    if first_impl != first_model:
        elapsed = time.perf_counter() - start
        return ConformanceResult(
            False, 1, 0, elapsed, Divergence([], first_model, first_impl)
        )

    steps_executed = 0
    divergence: Optional[Divergence] = None

    def replay(src, action, dst, path: tuple) -> bool:
        nonlocal steps_executed, divergence
        implementation.reset()
        for fired in path:
            implementation.apply(fired.rule.name, fired.args)
            steps_executed += 1
        impl_observation = implementation.observe()
        model_observation = model_obs()
        if impl_observation == model_observation:
            return False
        divergence = Divergence([a.label for a in path], model_observation,
                                impl_observation)
        return True

    config = ExplorationConfig(max_states=None, max_transitions=max_paths,
                               max_depth=max_depth,
                               action_filter=action_filter)
    __, paths_checked, __ = search(
        machine, config, (), lambda path, action: path + (action,), replay)
    elapsed = time.perf_counter() - start
    return ConformanceResult(divergence is None, paths_checked,
                             steps_executed, elapsed, divergence)
