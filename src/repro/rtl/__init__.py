"""``repro.rtl`` -- synthesizable RTL: IR, elaboration, simulation, Verilog.

Substitutes for the Verilog RTL level of the paper's flow.  Designs are
built from :class:`RtlModule` / expression trees, flattened by
:func:`elaborate` into a bit-level :class:`FlatDesign`, executed by
:class:`RtlSimulator` (the stand-in for a commercial Verilog simulator in
Table 3) and rendered to Verilog text by :func:`emit_verilog`.
"""

from .hdl import (
    BinOp,
    BusConflict,
    C,
    Concat,
    Const,
    Expr,
    HdlError,
    Instance,
    Mux,
    Net,
    Port,
    Reduce,
    Ref,
    Reg,
    RtlModule,
    Slice,
    TristateDriver,
    UnOp,
    Wire,
)
from .netlist import FlatDesign, FlatMonitor, FlatNet, elaborate
from .compile import CompiledDesign, compile_design, mangle_edge
from .bitsim import BitparDesign, compile_bitpar
from .simulator import (
    AssertionFailure,
    MonitorRecord,
    RtlSimulator,
    design_kernel,
)
from .verilog_emit import emit_expr, emit_verilog

__all__ = [
    "Expr",
    "Const",
    "C",
    "Ref",
    "UnOp",
    "BinOp",
    "Mux",
    "Slice",
    "Concat",
    "Reduce",
    "Net",
    "Wire",
    "Reg",
    "Port",
    "Instance",
    "TristateDriver",
    "RtlModule",
    "HdlError",
    "BusConflict",
    "FlatNet",
    "FlatMonitor",
    "FlatDesign",
    "elaborate",
    "CompiledDesign",
    "compile_design",
    "mangle_edge",
    "BitparDesign",
    "compile_bitpar",
    "RtlSimulator",
    "design_kernel",
    "AssertionFailure",
    "MonitorRecord",
    "emit_verilog",
    "emit_expr",
]
