"""Fault injection & campaign robustness for the LA-1 verification flow.

The paper's methodology builds three nested verification environments
(ASM exploration, SystemC + PSL monitors, RTL + OVL checkers) -- this
package answers the question the paper leaves open: *would those
environments actually catch a broken implementation?*  It injects
faults at each layer (netlist stuck-ats/SEUs, LA-1 protocol mutations,
guarded-rule perturbations), sweeps them under the Table-3 workload
shape, and reports detection coverage per monitor -- with hardened
engines underneath (work budgets that read no clock, a whole-campaign
deadline that stops work only between batches or by reaping forked
workers, checkpoint/resume, exception containment) so a campaign always
ends in a structured report, and a decided verdict is the same on any
host.  An ASM perturbation costs one exploration: the model checker
retires each bank property at its first failure and steps the rest.
"""

from .campaign import (
    CampaignConfig,
    CampaignReport,
    FaultCampaign,
    FaultVerdict,
    default_fault_list,
)
from .models import (
    ASM_KINDS,
    PROTOCOL_GAP_KINDS,
    PROTOCOL_KINDS,
    AsmPerturbation,
    Fault,
    ProtocolMutation,
    RtlBitFlip,
    RtlStuckAt,
)
from .asm_perturb import build_perturbed_la1_asm, expected_asm_detectors
from .rtl_inject import RtlFaultInjector
from .sysc_inject import ProtocolSaboteur

__all__ = [
    "ASM_KINDS",
    "PROTOCOL_GAP_KINDS",
    "PROTOCOL_KINDS",
    "AsmPerturbation",
    "CampaignConfig",
    "CampaignReport",
    "Fault",
    "FaultCampaign",
    "FaultVerdict",
    "ProtocolMutation",
    "ProtocolSaboteur",
    "RtlBitFlip",
    "RtlFaultInjector",
    "RtlStuckAt",
    "build_perturbed_la1_asm",
    "default_fault_list",
    "expected_asm_detectors",
]
