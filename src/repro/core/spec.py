"""LA-1 protocol constants and timing conventions shared by all levels.

From the paper (Section 3) and the NPF Look-Aside (LA-1) Implementation
Agreement rev 1.1, the modelled interface has:

* a master clock pair K / K# 180 degrees out of phase -- in this
  reproduction a full clock period is two *half-cycles*; K edges land on
  even half-cycles and K# edges on odd half-cycles;
* concurrent read and write operation over unidirectional read and write
  data paths sharing a single address bus;
* 18-pin DDR data paths: each beat carries 16 data bits plus 2 even
  byte-parity bits, two beats per word;
* byte write control (one enable per 8-bit lane per beat);
* read timing per the paper's Figure 3 sequence diagram: the request and
  address are sampled on a rising K; the SRAM array is accessed on the
  next rising K; the data word is released in two consecutive beats on
  the following rising K and rising K#;
* write timing: WRITE_SEL (W#) is sampled on a rising K; the write
  address and first data beat arrive on the following rising K#; the
  second beat arrives on the next rising K, when the (byte-merged) word
  commits to the array.

The scale-model parameters (:class:`La1Config`) default to the full
16-bit beats but can be narrowed so the symbolic model checker operates
on a tractable bit-level design, exactly as RuleBase users abstracted
their behavioral models.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "BEAT_DATA_BITS",
    "BEAT_PARITY_BITS",
    "BEATS_PER_WORD",
    "BYTE_LANES_PER_BEAT",
    "READ_LATENCY_HALF_CYCLES",
    "READ_SECOND_BEAT_HALF_CYCLES",
    "WRITE_ADDR_HALF_CYCLES",
    "WRITE_COMMIT_HALF_CYCLES",
    "La1Config",
    "la1_config",
    "even_parity_int",
    "merge_byte_lanes",
]

#: Data bits per DDR beat (the LA-1 18-pin path: 16 data + 2 parity).
BEAT_DATA_BITS = 16
#: Parity bits per beat (even byte parity, one per 8-bit lane).
BEAT_PARITY_BITS = 2
#: Beats per transferred word.
BEATS_PER_WORD = 2
#: 8-bit lanes per beat.
BYTE_LANES_PER_BEAT = 2

#: Half-cycles from the read request's K edge to the first data beat
#: (request @K(c), array access @K(c+1), beat 0 @K(c+2) = +4 half-cycles).
READ_LATENCY_HALF_CYCLES = 4
#: Half-cycles from the request to the second beat (@K#(c+2) = +5).
READ_SECOND_BEAT_HALF_CYCLES = 5
#: Half-cycles from W# to the write address / first beat (@K#(c) = +1).
WRITE_ADDR_HALF_CYCLES = 1
#: Half-cycles from W# to the commit of the merged word (@K(c+1) = +2).
WRITE_COMMIT_HALF_CYCLES = 2


def even_parity_int(value: int, bits: int) -> int:
    """The even-parity bit of ``value``'s low ``bits`` bits (XOR fold)."""
    value &= (1 << bits) - 1
    parity = 0
    while value:
        parity ^= value & 1
        value >>= 1
    return parity


def merge_byte_lanes(old: int, new: int, byte_enables: int, lanes: int) -> int:
    """Byte-write merge: lane ``i`` of the result comes from ``new`` when
    bit ``i`` of ``byte_enables`` is set, else from ``old``."""
    result = 0
    for lane in range(lanes):
        mask = 0xFF << (8 * lane)
        source = new if (byte_enables >> lane) & 1 else old
        result |= source & mask
    return result


@dataclass(frozen=True)
class La1Config:
    """Scale parameters of a modelled LA-1 device.

    ``beat_bits`` is the data width of one DDR beat (16 in the standard;
    narrowed for symbolic model checking), ``addr_bits`` the address bus
    width, ``banks`` the bank count of the device (Figure 1 shows four).
    """

    banks: int = 4
    beat_bits: int = BEAT_DATA_BITS
    addr_bits: int = 8

    def __post_init__(self):
        if self.banks < 1:
            raise ValueError("banks must be >= 1")
        if self.beat_bits < 1 or self.beat_bits % 8 not in (0, self.beat_bits):
            # allow sub-byte widths for scale models, or whole bytes
            pass
        if self.addr_bits < 1:
            raise ValueError("addr_bits must be >= 1")

    @property
    def word_bits(self) -> int:
        """Bits in a full transferred word (two beats)."""
        return self.beat_bits * BEATS_PER_WORD

    @property
    def byte_lanes(self) -> int:
        """Byte lanes per beat (1 for sub-byte scale models)."""
        return max(1, self.beat_bits // 8)

    @property
    def mem_words(self) -> int:
        """Words in each bank's SRAM array."""
        return 1 << self.addr_bits


def la1_config(banks: int) -> La1Config:
    """The simulation scale: 16-bit beats, 4-bit addresses (the flow's
    simulation-level models, fault campaigns, OVL lint and CEC)."""
    return La1Config(banks=banks, beat_bits=16, addr_bits=4)
