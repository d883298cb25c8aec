"""Classic Yao garbling with point-and-permute.

Each wire gets two random 128-bit labels (for bit 0 and bit 1), the
bit-1 label carrying the complement *permute bit* of the bit-0 label.
Each binary gate becomes a table of 4 encrypted rows ordered by the
input permute bits, so the evaluator decrypts exactly one row — the one
its labels point at — and learns nothing else.  Row encryption is
``H(label_a, label_b, gate_id) XOR (output_label || permute_padding)``
with SHA-256 as the hash (the standard random-oracle instantiation).

NOT gates are free (the garbler swaps labels; no table).  Constant
wires are garbler-known: the garbled circuit carries the active label.

The default is deliberately the *textbook* scheme — no row reduction,
no half gates — because the baseline's role is to reproduce the cost
profile of 2004-era generic SMC (Fairplay), not to win a benchmark.
``garble(..., free_xor=True)`` additionally enables the free-XOR
optimization (Kolesnikov–Schneider 2008): all wire-label pairs share a
global offset Δ, XOR gates become a local label-XOR with *no table*,
and only AND/OR gates are garbled — the post-2004 improvement the
ablation bench quantifies against the classic scheme.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.circuits.circuit import Circuit, GateOp
from repro.crypto.rng import RandomSource, as_random_source
from repro.exceptions import GarblingError

__all__ = ["WireLabel", "GarbledGate", "GarbledCircuit", "garble", "evaluate_garbled"]

LABEL_BITS = 128
LABEL_BYTES = LABEL_BITS // 8


@dataclass(frozen=True)
class WireLabel:
    """A wire label: the key material plus its public permute bit."""

    key: bytes
    permute: int

    def __post_init__(self) -> None:
        if len(self.key) != LABEL_BYTES:
            raise GarblingError("labels must be %d bytes" % LABEL_BYTES)
        if self.permute not in (0, 1):
            raise GarblingError("permute must be a bit")


def _hash_row(a: WireLabel, b: WireLabel, gate_id: int) -> bytes:
    data = a.key + b.key + gate_id.to_bytes(4, "big")
    return hashlib.sha256(b"repro-garble" + data).digest()


def _encrypt_row(a: WireLabel, b: WireLabel, gate_id: int, out: WireLabel) -> bytes:
    pad = _hash_row(a, b, gate_id)
    plaintext = out.key + bytes([out.permute]) + b"\x00" * 15
    return bytes(x ^ y for x, y in zip(plaintext, pad))


def _decrypt_row(a: WireLabel, b: WireLabel, gate_id: int, row: bytes) -> WireLabel:
    pad = _hash_row(a, b, gate_id)
    plaintext = bytes(x ^ y for x, y in zip(row, pad))
    if any(plaintext[LABEL_BYTES + 1 :]):
        raise GarblingError("row authentication failed (wrong labels?)")
    return WireLabel(plaintext[:LABEL_BYTES], plaintext[LABEL_BYTES])


@dataclass(frozen=True)
class GarbledGate:
    """Four ciphertext rows indexed by the input permute bits."""

    gate_id: int
    output_wire: int
    input_wires: Tuple[int, int]
    rows: Tuple[bytes, bytes, bytes, bytes]


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


@dataclass
class GarbledCircuit:
    """Everything the evaluator receives (plus the garbler's secrets).

    Evaluator-visible: ``gates``, ``not_gates``, ``constant_labels``,
    ``output_decode``.  Garbler-secret: ``wire_labels`` (both labels per
    wire) — kept here because tests and the in-process protocol need
    them; a two-party deployment would transfer only the visible parts
    plus the active input labels.
    """

    circuit: Circuit
    gates: List[GarbledGate]
    not_gates: Dict[int, int]  # output wire -> input wire (free)
    constant_labels: Dict[int, WireLabel]  # active labels of const wires
    output_decode: Dict[int, Dict[int, int]]  # wire -> permute bit -> value
    wire_labels: Dict[int, Tuple[WireLabel, WireLabel]]
    free_xor: bool = False  # XOR gates are table-free (global offset)

    def active_label(self, wire: int, bit: int) -> WireLabel:
        """Garbler-side lookup of the label encoding ``bit`` on ``wire``."""
        if bit not in (0, 1):
            raise GarblingError("bit must be 0 or 1")
        return self.wire_labels[wire][bit]

    def size_bytes(self) -> int:
        """Wire size of the evaluator-visible garbled circuit."""
        table_bytes = sum(len(row) for g in self.gates for row in g.rows)
        const_bytes = len(self.constant_labels) * (LABEL_BYTES + 1)
        decode_bytes = len(self.output_decode) * 2
        return table_bytes + const_bytes + decode_bytes


def _fresh_label(rng: RandomSource, permute: int) -> WireLabel:
    return WireLabel(rng.randbytes(LABEL_BYTES), permute)


def garble(
    circuit: Circuit,
    rng: Optional[RandomSource] = None,
    free_xor: bool = False,
) -> GarbledCircuit:
    """Garble ``circuit``; returns the full garbled structure.

    With ``free_xor=True``, every wire's two labels differ by one global
    secret offset Δ, so XOR outputs are computed locally from the input
    labels and need no ciphertext rows.
    """
    source = as_random_source(rng)
    labels: Dict[int, Tuple[WireLabel, WireLabel]] = {}
    delta = source.randbytes(LABEL_BYTES) if free_xor else b""

    def make_labels(wire: int) -> None:
        p = source.randbits(1)
        zero = _fresh_label(source, p)
        if free_xor:
            one = WireLabel(_xor_bytes(zero.key, delta), 1 - p)
        else:
            one = _fresh_label(source, 1 - p)
        labels[wire] = (zero, one)

    for const_wire in (Circuit.CONST_ZERO, Circuit.CONST_ONE):
        make_labels(const_wire)
    for wire in circuit.input_wires:
        make_labels(wire)

    garbled_gates: List[GarbledGate] = []
    not_gates: Dict[int, int] = {}

    for gate_id, gate in enumerate(circuit.gates):
        if gate.op is GateOp.NOT:
            src = gate.inputs[0]
            zero, one = labels[src]
            labels[gate.output] = (one, zero)  # swap: free NOT
            not_gates[gate.output] = src
            continue
        if free_xor and gate.op is GateOp.XOR:
            a0 = labels[gate.inputs[0]][0]
            b0 = labels[gate.inputs[1]][0]
            out_zero = WireLabel(
                _xor_bytes(a0.key, b0.key), a0.permute ^ b0.permute
            )
            out_one = WireLabel(
                _xor_bytes(out_zero.key, delta), 1 - out_zero.permute
            )
            labels[gate.output] = (out_zero, out_one)
            continue
        make_labels(gate.output)
        wire_a, wire_b = gate.inputs
        rows: List[bytes] = [b""] * 4
        for bit_a in (0, 1):
            for bit_b in (0, 1):
                label_a = labels[wire_a][bit_a]
                label_b = labels[wire_b][bit_b]
                out_bit = gate.op.evaluate(bit_a, bit_b)
                row = _encrypt_row(
                    label_a, label_b, gate_id, labels[gate.output][out_bit]
                )
                rows[label_a.permute * 2 + label_b.permute] = row
        garbled_gates.append(
            GarbledGate(gate_id, gate.output, (wire_a, wire_b), tuple(rows))
        )

    constant_labels = {
        Circuit.CONST_ZERO: labels[Circuit.CONST_ZERO][0],
        Circuit.CONST_ONE: labels[Circuit.CONST_ONE][1],
    }
    output_decode = {
        wire: {
            labels[wire][0].permute: 0,
            labels[wire][1].permute: 1,
        }
        for wire in circuit.output_wires
    }
    return GarbledCircuit(
        circuit=circuit,
        gates=garbled_gates,
        not_gates=not_gates,
        constant_labels=constant_labels,
        output_decode=output_decode,
        wire_labels=labels,
        free_xor=free_xor,
    )


def evaluate_garbled(
    garbled: GarbledCircuit, input_labels: Dict[int, WireLabel]
) -> List[int]:
    """Evaluate with *labels only* — the evaluator's view.

    ``input_labels`` maps every input wire to its active label (the
    garbler sends its own, the evaluator got its own via OT).  Returns
    the decoded output bits.
    """
    circuit = garbled.circuit
    active: Dict[int, WireLabel] = dict(garbled.constant_labels)
    for wire in circuit.input_wires:
        if wire not in input_labels:
            raise GarblingError("missing active label for input wire %d" % wire)
        active[wire] = input_labels[wire]

    gate_iter = iter(garbled.gates)
    for gate in circuit.gates:
        if gate.op is GateOp.NOT:
            active[gate.output] = active[gate.inputs[0]]
            continue
        if garbled.free_xor and gate.op is GateOp.XOR:
            label_a = active[gate.inputs[0]]
            label_b = active[gate.inputs[1]]
            active[gate.output] = WireLabel(
                _xor_bytes(label_a.key, label_b.key),
                label_a.permute ^ label_b.permute,
            )
            continue
        garbled_gate = next(gate_iter)
        label_a = active[gate.inputs[0]]
        label_b = active[gate.inputs[1]]
        row = garbled_gate.rows[label_a.permute * 2 + label_b.permute]
        active[gate.output] = _decrypt_row(
            label_a, label_b, garbled_gate.gate_id, row
        )

    bits: List[int] = []
    for wire in circuit.output_wires:
        label = active[wire]
        decode = garbled.output_decode[wire]
        if label.permute not in decode:
            raise GarblingError("output label has unknown permute bit")
        bits.append(decode[label.permute])
    return bits
