"""``repro.asm`` -- the Abstract State Machine framework (AsmL analogue).

State variables + guarded update rules with atomic update sets
(:mod:`machine`), finite domains for rule arguments (:mod:`domains`),
bounded reachability generating FSMs (:mod:`exploration`),
exploration-based PSL model checking with counterexamples
(:mod:`checker`) and model/implementation conformance co-execution
(:mod:`conformance`).  All of them, and the lint sweep of
:mod:`repro.lint.asm_rules`, run one breadth-first search,
:func:`exploration.search`, each stepping its own monitor component: a
recorded FSM, a property bank or cover automaton, or the action path an
implementation replays.
"""

from .domains import BoolDomain, Domain, EnumDomain, ExplicitDomain, IntRange
from .machine import Action, AsmError, AsmMachine, Rule
from .fsm import Fsm, Transition
from .exploration import ExplorationConfig, ExplorationResult, Explorer
from .checker import AsmModelChecker, CoverResult, Labeling, ModelCheckResult
from .testgen import (
    ReplayReport,
    TestSuite,
    generate_transition_cover,
    replay_suite,
)
from .conformance import (
    ConformanceResult,
    Divergence,
    Implementation,
    check_conformance,
)

__all__ = [
    "Domain",
    "IntRange",
    "EnumDomain",
    "BoolDomain",
    "ExplicitDomain",
    "AsmMachine",
    "AsmError",
    "Rule",
    "Action",
    "Fsm",
    "Transition",
    "Explorer",
    "ExplorationConfig",
    "ExplorationResult",
    "AsmModelChecker",
    "CoverResult",
    "Labeling",
    "ModelCheckResult",
    "Implementation",
    "Divergence",
    "ConformanceResult",
    "check_conformance",
    "TestSuite",
    "ReplayReport",
    "generate_transition_cover",
    "replay_suite",
]
