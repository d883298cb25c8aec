"""Circuit construction: adders, maskers, and the selected-sum circuit.

The Yao baseline needs one specific circuit — the paper's functionality
as a boolean function: the evaluator (client) supplies n selection bits,
the garbler (server) supplies n ``value_bits``-bit numbers, the output
is ``sum_i I_i * x_i`` over ``sum_bits`` bits.

Built from first principles: AND-masking (multiplying by a bit) followed
by a chain of ripple-carry adders into an accumulator wide enough that
no sum can overflow.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.circuits.circuit import Circuit, GateOp
from repro.exceptions import CircuitError

__all__ = ["CircuitBuilder", "build_selected_sum_circuit"]

GARBLER = "garbler"
EVALUATOR = "evaluator"


class CircuitBuilder:
    """Ergonomic gate-level construction on top of :class:`Circuit`."""

    def __init__(self) -> None:
        self.circuit = Circuit()

    # -- inputs ------------------------------------------------------------

    def input_bit(self, owner: str) -> int:
        """Allocate one input wire owned by ``owner``."""
        return self.circuit.new_input(owner)

    def input_number(self, owner: str, bits: int) -> List[int]:
        """A little-endian ``bits``-wide input bundle."""
        if bits < 1:
            raise CircuitError("numbers need at least one bit")
        return [self.circuit.new_input(owner) for _ in range(bits)]

    # -- primitive gates --------------------------------------------------------

    def xor(self, a: int, b: int) -> int:
        """Append an XOR gate; returns its output wire."""
        return self.circuit.add_gate(GateOp.XOR, a, b)

    def and_(self, a: int, b: int) -> int:
        """Append an AND gate; returns its output wire."""
        return self.circuit.add_gate(GateOp.AND, a, b)

    def or_(self, a: int, b: int) -> int:
        """Append an OR gate; returns its output wire."""
        return self.circuit.add_gate(GateOp.OR, a, b)

    # -- composite blocks -----------------------------------------------------------

    def full_adder(self, a: int, b: int, carry_in: int) -> Tuple[int, int]:
        """(sum, carry_out) of three bits — 5 gates."""
        axb = self.xor(a, b)
        total = self.xor(axb, carry_in)
        carry = self.or_(self.and_(a, b), self.and_(axb, carry_in))
        return total, carry

    def ripple_add(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        """Little-endian addition, output width = max width (carry dropped
        off the top — callers size accumulators so it never matters)."""
        width = max(len(a), len(b))
        a = list(a) + [Circuit.CONST_ZERO] * (width - len(a))
        b = list(b) + [Circuit.CONST_ZERO] * (width - len(b))
        carry = Circuit.CONST_ZERO
        out: List[int] = []
        for bit_a, bit_b in zip(a, b):
            total, carry = self.full_adder(bit_a, bit_b, carry)
            out.append(total)
        return out

    def mask(self, bit: int, number: Sequence[int]) -> List[int]:
        """``bit * number``: AND every bit of the bundle with ``bit``."""
        return [self.and_(bit, w) for w in number]

    def mux(self, select: int, when_zero: Sequence[int], when_one: Sequence[int]) -> List[int]:
        """Bitwise 2-to-1 multiplexer: out = select ? when_one : when_zero."""
        if len(when_zero) != len(when_one):
            raise CircuitError("mux branches must have equal width")
        out = []
        for z, o in zip(when_zero, when_one):
            diff = self.xor(z, o)
            out.append(self.xor(z, self.and_(select, diff)))
        return out

    def constant_number(self, value: int, bits: int) -> List[int]:
        """A constant bundle from the reserved constant wires."""
        if value < 0 or value >= 1 << bits:
            raise CircuitError("constant %d does not fit %d bits" % (value, bits))
        return [
            Circuit.CONST_ONE if (value >> i) & 1 else Circuit.CONST_ZERO
            for i in range(bits)
        ]

    # -- finalization ------------------------------------------------------------------

    def outputs(self, wires: Sequence[int]) -> Circuit:
        """Mark the output wires and return the finished circuit."""
        self.circuit.mark_outputs(wires)
        return self.circuit


def build_selected_sum_circuit(
    n: int, value_bits: int = 32, sum_bits: int = 0
) -> Circuit:
    """The paper's functionality as a boolean circuit.

    Evaluator inputs: n selection bits.  Garbler inputs: n numbers of
    ``value_bits`` bits.  Output: ``sum_i I_i * x_i`` over ``sum_bits``
    bits (default: wide enough for the worst case, ``value_bits +
    ceil(log2 n)``).

    Gate count is Θ(n · sum_bits) — the quadratic-ish blowup (relative
    to the homomorphic protocol's n big-int ops and n ciphertexts) that
    makes generic SMC impractical at database scale, which is the
    paper's motivating comparison (§2: Fairplay at ≥15 minutes for 100
    elements [16]).
    """
    if n < 1:
        raise CircuitError("need at least one element")
    if value_bits < 1:
        raise CircuitError("value width must be positive")
    if sum_bits <= 0:
        sum_bits = value_bits + max(1, (n - 1).bit_length() if n > 1 else 1)

    builder = CircuitBuilder()
    selection = [builder.input_bit(EVALUATOR) for _ in range(n)]
    numbers = [builder.input_number(GARBLER, value_bits) for _ in range(n)]

    accumulator = builder.constant_number(0, sum_bits)
    for bit, number in zip(selection, numbers):
        masked = builder.mask(bit, number)
        accumulator = builder.ripple_add(accumulator, masked)
    return builder.outputs(accumulator)
