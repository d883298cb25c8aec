"""Boolean circuit intermediate representation.

The generic-SMC baseline (Yao) operates on boolean circuits; this module
is the circuit IR: wires are dense integer ids, gates are
``(op, inputs, output)`` records in topological order (enforced by
construction — a gate may only read wires that already exist).

Supported ops: XOR, AND, OR, NOT, plus constant-0/1 *wires*.  That basis
is complete and matches what the garbler knows how to handle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.exceptions import CircuitError

__all__ = ["GateOp", "Gate", "Circuit"]


class GateOp(enum.Enum):
    """Boolean gate types (XOR/AND/OR/NOT) with their truth tables."""
    XOR = "xor"
    AND = "and"
    OR = "or"
    NOT = "not"

    @property
    def arity(self) -> int:
        return 1 if self is GateOp.NOT else 2

    def evaluate(self, *bits: int) -> int:
        """Apply the gate's truth table to plaintext bits."""
        if self is GateOp.XOR:
            return bits[0] ^ bits[1]
        if self is GateOp.AND:
            return bits[0] & bits[1]
        if self is GateOp.OR:
            return bits[0] | bits[1]
        return bits[0] ^ 1  # NOT


@dataclass(frozen=True)
class Gate:
    """One gate: ``output = op(*inputs)``."""

    op: GateOp
    inputs: Tuple[int, ...]
    output: int

    def __post_init__(self) -> None:
        if len(self.inputs) != self.op.arity:
            raise CircuitError(
                "%s gate needs %d inputs, got %d"
                % (self.op.name, self.op.arity, len(self.inputs))
            )


class Circuit:
    """A topologically ordered boolean circuit.

    Wires 0 and 1 are reserved constants (0 = constant false,
    1 = constant true).  Input wires are allocated next, then gate
    outputs.  The class is append-only; :class:`repro.circuits.builder.
    CircuitBuilder` provides the ergonomic construction API.
    """

    CONST_ZERO = 0
    CONST_ONE = 1

    def __init__(self) -> None:
        self._next_wire = 2  # after the two constants
        self.gates: List[Gate] = []
        self.input_wires: List[int] = []
        self.output_wires: List[int] = []
        #: which party feeds each input wire ("garbler" / "evaluator")
        self.input_owner: Dict[int, str] = {}

    # -- construction ---------------------------------------------------------

    def new_input(self, owner: str) -> int:
        """Allocate an input wire attributed to ``owner``."""
        wire = self._next_wire
        self._next_wire += 1
        self.input_wires.append(wire)
        self.input_owner[wire] = owner
        return wire

    def add_gate(self, op: GateOp, *inputs: int) -> int:
        """Append a gate reading existing wires; returns the output wire."""
        for w in inputs:
            if not 0 <= w < self._next_wire:
                raise CircuitError("gate reads undefined wire %d" % w)
        output = self._next_wire
        self._next_wire += 1
        self.gates.append(Gate(op, tuple(inputs), output))
        return output

    def mark_outputs(self, wires: Sequence[int]) -> None:
        """Declare which wires carry the circuit's outputs."""
        for w in wires:
            if not 0 <= w < self._next_wire:
                raise CircuitError("output marks undefined wire %d" % w)
        self.output_wires = list(wires)

    # -- introspection ----------------------------------------------------------

    @property
    def gate_count(self) -> int:
        return len(self.gates)

    def count_gates(self, op: GateOp) -> int:
        """Number of gates of one type (size accounting)."""
        return sum(1 for g in self.gates if g.op is op)

    def inputs_of(self, owner: str) -> List[int]:
        """Input wires owned by ``owner``, in allocation order."""
        return [w for w in self.input_wires if self.input_owner[w] == owner]

    # -- plaintext evaluation -----------------------------------------------------

    def evaluate(self, assignments: Dict[int, int]) -> List[int]:
        """Evaluate in the clear; ``assignments`` maps input wire -> bit.

        Returns the output-wire bits.  This is the reference semantics
        the garbled evaluation is tested against.
        """
        values: Dict[int, int] = {self.CONST_ZERO: 0, self.CONST_ONE: 1}
        for wire in self.input_wires:
            if wire not in assignments:
                raise CircuitError("missing assignment for input wire %d" % wire)
            bit = assignments[wire]
            if bit not in (0, 1):
                raise CircuitError("wire %d assigned non-bit %r" % (wire, bit))
            values[wire] = bit
        for gate in self.gates:
            try:
                in_bits = [values[w] for w in gate.inputs]
            except KeyError as exc:
                raise CircuitError(
                    "gate reads wire %s before definition" % exc
                ) from exc
            values[gate.output] = gate.op.evaluate(*in_bits)
        if not self.output_wires:
            raise CircuitError("circuit has no marked outputs")
        return [values[w] for w in self.output_wires]

    def evaluate_int(self, assignments: Dict[int, int]) -> int:
        """Evaluate and decode the outputs little-endian into an integer."""
        bits = self.evaluate(assignments)
        return sum(bit << i for i, bit in enumerate(bits))
