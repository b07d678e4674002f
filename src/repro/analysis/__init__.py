"""Program analyses over the Java subset.

* ``ir``        — three-address intermediate representation + AST lowering
* ``cfg``       — control-flow graphs over the IR
* ``dataflow``  — generic forward worklist dataflow framework
* ``alias``     — local must-alias analysis (paper §3.1)
* ``callgraph`` — whole-program call graph
"""

from repro.analysis.cfg import CFG, CFGNode, build_cfg
from repro.analysis.ir import (
    AssertInstr,
    Assign,
    BinOp,
    Call,
    Const,
    FieldLoad,
    FieldStore,
    Instr,
    NewObj,
    ReturnInstr,
    SyncEnter,
    SyncExit,
    UnOp,
    UseVar,
    lower_method,
)

__all__ = [
    "CFG",
    "CFGNode",
    "build_cfg",
    "Instr",
    "Assign",
    "FieldStore",
    "ReturnInstr",
    "AssertInstr",
    "SyncEnter",
    "SyncExit",
    "UseVar",
    "Const",
    "NewObj",
    "Call",
    "FieldLoad",
    "BinOp",
    "UnOp",
    "lower_method",
]
