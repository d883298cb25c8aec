"""Two-party private selected sum via garbled circuits — the generic-SMC
baseline the paper compares against (§2).

The paper: "initial results of the Fairplay system [14] suggest that
straightforward implementation of Yao's solution would require an
execution time of at least 15 minutes for a database of only 100
elements [16]".  This module is that comparator, built for real:

* the **server** (data holder) garbles the selected-sum circuit and
  sends it together with the active labels of its own data bits;
* the **client** obtains the labels of its selection bits via 1-out-of-2
  oblivious transfer (one per database element — batched under a single
  RSA key, as any practical implementation would);
* the client evaluates the garbled circuit and decodes only the sum.

Client privacy: OT hides the selection bits.  Database privacy: the
client sees only unlinkable labels and learns only the decoded output.

The run is *measured* (real wall clock) — this baseline exists to show
the asymmetric cost profile against the homomorphic protocol, so it runs
the real cryptography at small n and reports real seconds, plus the
modelled Fairplay scaling for paper-scale databases.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuits.builder import EVALUATOR, GARBLER, build_selected_sum_circuit
from repro.crypto.rng import RandomSource, as_random_source
from repro.crypto.rsa import generate_rsa_keypair
from repro.exceptions import OTError, ParameterError
from repro.yao.garbling import (
    LABEL_BYTES,
    WireLabel,
    evaluate_garbled,
    garble,
)

__all__ = ["YaoRunResult", "YaoSelectedSum", "BatchOT", "fairplay_model_minutes"]

#: The paper's quoted Fairplay figure: >= 15 minutes at n = 100 [16].
FAIRPLAY_MINUTES_AT_100 = 15.0


def fairplay_model_minutes(n: int) -> float:
    """Modelled 2004 Fairplay runtime for a selected sum of n elements.

    Linear extrapolation of the paper's quoted data point — conservative,
    since generic-SMC memory pressure grows superlinearly in practice.
    """
    if n < 1:
        raise ParameterError("n must be positive")
    return FAIRPLAY_MINUTES_AT_100 * n / 100.0


class BatchOT:
    """n parallel EGL oblivious transfers under one RSA key.

    Key generation is the expensive part of EGL, so a batch shares it;
    every transfer still uses fresh blinding elements, preserving the
    per-transfer security argument.
    """

    def __init__(
        self,
        pairs: Sequence[Tuple[int, int]],
        key_bits: int = 512,
        rng: Optional[RandomSource] = None,
    ) -> None:
        self._rng = as_random_source(rng)
        keypair = generate_rsa_keypair(key_bits, self._rng)
        self._public = keypair.public
        self._private = keypair.private
        for m0, m1 in pairs:
            if not (0 <= m0 < self._public.n and 0 <= m1 < self._public.n):
                raise OTError("messages must lie in [0, N)")
        self._pairs = list(pairs)

    def transfer(self, choices: Sequence[int]) -> List[int]:
        """Run all transfers; returns ``m_{b_i}`` for each choice bit."""
        if len(choices) != len(self._pairs):
            raise OTError("choice count != pair count")
        n = self._public.n
        results: List[int] = []
        for (m0, m1), choice in zip(self._pairs, choices):
            if choice not in (0, 1):
                raise OTError("choices must be bits")
            x0 = self._public.random_element(self._rng)
            x1 = self._public.random_element(self._rng)
            # receiver side
            k = self._public.random_element(self._rng)
            v = ((x1 if choice else x0) + self._public.apply(k)) % n
            # sender side
            k0 = self._private.invert((v - x0) % n)
            k1 = self._private.invert((v - x1) % n)
            reply0, reply1 = (m0 + k0) % n, (m1 + k1) % n
            # receiver side
            results.append(((reply1 if choice else reply0) - k) % n)
        return results

    def bytes_moved(self) -> int:
        """Wire bytes of the whole batch (key + per-OT messages)."""
        modulus_bytes = (self._public.n.bit_length() + 7) // 8
        per_transfer = 5 * modulus_bytes  # x0, x1, v, reply0, reply1
        return modulus_bytes + len(self._pairs) * per_transfer


def _label_to_int(label: WireLabel) -> int:
    return (int.from_bytes(label.key, "big") << 1) | label.permute


def _int_to_label(value: int) -> WireLabel:
    return WireLabel((value >> 1).to_bytes(LABEL_BYTES, "big"), value & 1)


@dataclass
class YaoRunResult:
    """Measured outcome of one garbled-circuit selected sum."""

    value: int
    n: int
    gate_count: int
    garbled_bytes: int
    ot_bytes: int
    garble_s: float
    ot_s: float
    evaluate_s: float

    @property
    def total_s(self) -> float:
        return self.garble_s + self.ot_s + self.evaluate_s

    @property
    def total_bytes(self) -> int:
        return self.garbled_bytes + self.ot_bytes

    def verify(self, expected: int) -> "YaoRunResult":
        """Assert the computed sum against ground truth (returns self)."""
        if self.value != expected:
            raise AssertionError(
                "Yao protocol returned %d, expected %d" % (self.value, expected)
            )
        return self


class YaoSelectedSum:
    """The full two-party garbled-circuit protocol, run in-process."""

    def __init__(
        self,
        value_bits: int = 32,
        ot_key_bits: int = 512,
        rng: Optional[RandomSource] = None,
        free_xor: bool = False,
    ) -> None:
        if value_bits < 1:
            raise ParameterError("value width must be positive")
        # Wire labels are 129-bit integers (128-bit key + permute bit);
        # the OT modulus must fit them with margin.
        if ot_key_bits < LABEL_BYTES * 8 + 32:
            raise ParameterError(
                "ot_key_bits must be at least %d to carry wire labels"
                % (LABEL_BYTES * 8 + 32)
            )
        self.value_bits = value_bits
        self.ot_key_bits = ot_key_bits
        self.free_xor = free_xor
        self._rng = as_random_source(rng)

    def run(
        self, values: Sequence[int], selection: Sequence[int]
    ) -> YaoRunResult:
        """Compute ``sum_i selection_i * values_i`` privately.

        Args:
            values: the server's data (each < 2**value_bits).
            selection: the client's 0/1 vector, same length.
        """
        n = len(values)
        if len(selection) != n:
            raise ParameterError("selection length != data length")
        if any(bit not in (0, 1) for bit in selection):
            raise ParameterError("selection must be 0/1")
        limit = 1 << self.value_bits
        if any(not 0 <= v < limit for v in values):
            raise ParameterError("value outside %d-bit range" % self.value_bits)

        circuit = build_selected_sum_circuit(n, self.value_bits)

        # --- server: garble ------------------------------------------------
        t0 = time.perf_counter()
        garbled = garble(circuit, self._rng, free_xor=self.free_xor)
        garble_s = time.perf_counter() - t0

        # Server's own input labels (its data bits) travel in the clear
        # as labels — unlinkable to bits by construction.
        garbler_labels: Dict[int, WireLabel] = {}
        garbler_wires = circuit.inputs_of(GARBLER)
        bit_cursor = 0
        for value in values:
            for b in range(self.value_bits):
                wire = garbler_wires[bit_cursor]
                garbler_labels[wire] = garbled.active_label(
                    wire, (value >> b) & 1
                )
                bit_cursor += 1

        # --- OT: client obtains labels for its selection bits ---------------
        evaluator_wires = circuit.inputs_of(EVALUATOR)
        t0 = time.perf_counter()
        pairs = [
            (
                _label_to_int(garbled.active_label(wire, 0)),
                _label_to_int(garbled.active_label(wire, 1)),
            )
            for wire in evaluator_wires
        ]
        batch = BatchOT(pairs, self.ot_key_bits, self._rng)
        received = batch.transfer(list(selection))
        ot_s = time.perf_counter() - t0
        evaluator_labels = {
            wire: _int_to_label(value)
            for wire, value in zip(evaluator_wires, received)
        }

        # --- client: evaluate ------------------------------------------------
        all_labels = {**garbler_labels, **evaluator_labels}
        t0 = time.perf_counter()
        bits = evaluate_garbled(garbled, all_labels)
        evaluate_s = time.perf_counter() - t0
        value = sum(bit << i for i, bit in enumerate(bits))

        garbler_label_bytes = len(garbler_labels) * (LABEL_BYTES + 1)
        return YaoRunResult(
            value=value,
            n=n,
            gate_count=circuit.gate_count,
            garbled_bytes=garbled.size_bytes() + garbler_label_bytes,
            ot_bytes=batch.bytes_moved(),
            garble_s=garble_s,
            ot_s=ot_s,
            evaluate_s=evaluate_s,
        )
