"""Host-side stimulus mutation: the transactor shim behind
:class:`~repro.fault.models.StimulusMutation`.

Protocol mutations (:mod:`repro.fault.sysc_inject`) sabotage the *device*
side of the observation boundary inside the SystemC transactor; a
stimulus mutation corrupts the *host's* transaction stream before it
reaches the RTL transactor.  The lane-encodable kinds touch only
datapath fields (address, write data, byte enables) of one transaction,
so the mutated stream keeps the base command schedule bit for bit --
which is exactly the invariant PPSFP pattern lanes rely on: the mutation
lowers to a per-lane divergent input drive
(:meth:`~repro.rtl.simulator.RtlSimulator.set_input_words`) instead of a
dedicated compiled run.  The schedule-changing kinds (``drop_read``,
``duplicate_read``) cannot be lane-encoded and demonstrate the
degradation ladder: they always run per-fault.

All stimulus mutations are coverage-gap probes: the mutated stream is
protocol-legal, no monitor watches the *values* the host chose, so only
golden-run differencing can see them.  Because the mutation corrupts the
issued fields themselves, the golden comparison excludes the issued
address (:func:`reduce_log_signature`): both the per-fault and the lane
path diff only what comes back over the bus, which keeps their verdicts
bit-identical.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.spec import BEATS_PER_WORD, La1Config
from .models import STIM_KINDS, STIM_LADDER_KINDS, StimulusMutation

__all__ = [
    "StimulusApplicator",
    "full_byte_enables",
    "queue_mutated_traffic",
    "reduce_log_signature",
]


class StimulusApplicator:
    """Occurrence-counting mutation state for one
    :class:`StimulusMutation` over one replay of the base schedule.

    The counters advance per read (or write, by kind) to the fault's
    bank, so for a fixed command schedule the trigger point -- and hence
    ``triggered`` -- is identical whether the stream is queued scalar or
    assembled into lane values.
    """

    #: kinds whose occurrence counter advances on *reads* to the bank
    READ_KINDS = ("corrupt_read_address", "drop_read", "duplicate_read")

    def __init__(self, fault: StimulusMutation, config: La1Config):
        if fault.kind not in STIM_KINDS + STIM_LADDER_KINDS:
            raise ValueError(f"unknown stimulus mutation kind {fault.kind!r}")
        self.fault = fault
        self.config = config
        self.count = 0
        self.triggered = False

    def on_read(self, bank: int) -> Optional[str]:
        """Advance the counter for a read to ``bank``; the fault's kind
        when this is the mutated occurrence, else None."""
        fault = self.fault
        if fault.kind not in self.READ_KINDS or bank != fault.bank:
            return None
        self.count += 1
        if self.count != fault.occurrence:
            return None
        self.triggered = True
        return fault.kind

    def on_write(self, bank: int) -> Optional[str]:
        """Advance the counter for a write to ``bank``; the fault's kind
        when this is the mutated occurrence, else None."""
        fault = self.fault
        if fault.kind in self.READ_KINDS or bank != fault.bank:
            return None
        self.count += 1
        if self.count != fault.occurrence:
            return None
        self.triggered = True
        return fault.kind

    # -- field mutations (pure, schedule-preserving) -------------------
    def mutate_read_addr(self, addr: int) -> int:
        return addr ^ 1

    def mutate_write(self, addr: int, word: int,
                     byte_enables: int) -> Tuple[int, int, int]:
        kind = self.fault.kind
        config = self.config
        if kind == "corrupt_write_address":
            return addr ^ 1, word, byte_enables
        if kind == "corrupt_write_data":
            return addr, word ^ 1, byte_enables
        if kind == "corrupt_byte_enable":
            return addr, word, byte_enables ^ 1
        if kind == "swap_write_beats":
            beat_mask = (1 << config.beat_bits) - 1
            beat0 = word & beat_mask
            beat1 = (word >> config.beat_bits) & beat_mask
            return addr, (beat0 << config.beat_bits) | beat1, byte_enables
        raise ValueError(f"{kind!r} is not a write mutation")


def full_byte_enables(config: La1Config) -> int:
    """The host's default (all-bytes) write enable mask."""
    return (1 << (config.byte_lanes * BEATS_PER_WORD)) - 1


def queue_mutated_traffic(host, config: La1Config, schedule,
                          values, fault: StimulusMutation) -> bool:
    """Queue ``schedule`` (with pattern ``values``) onto ``host`` with
    ``fault`` applied; True when the mutation window was reached.

    ``schedule``/``values`` come from :mod:`repro.core.traffic`, so the
    unmutated replay is bit-identical to the campaign's golden stream.
    """
    state = StimulusApplicator(fault, config)
    full_bw = full_byte_enables(config)
    for (is_read, bank, __a, __w), (addr, word) in zip(schedule, values):
        if is_read:
            action = state.on_read(bank)
            if action == "drop_read":
                continue
            if action == "duplicate_read":
                host.read(bank, addr)
                host.read(bank, addr)
                continue
            if action == "corrupt_read_address":
                addr = state.mutate_read_addr(addr)
            host.read(bank, addr)
        else:
            action = state.on_write(bank)
            if action is None:
                host.write(bank, addr, word)
            else:
                addr, word, bw = state.mutate_write(addr, word, full_bw)
                host.write(bank, addr, word, bw)
    return state.triggered


def reduce_log_signature(signature: tuple) -> tuple:
    """Project a campaign log signature
    (:func:`~repro.fault.campaign.log_signature`) onto its address-free
    shape: what came back over the bus, the same observable the lane
    path's ``log_diff`` accumulates."""
    return tuple(
        (bank, word, beats, parities)
        for bank, __addr, word, beats, parities in signature
    )
