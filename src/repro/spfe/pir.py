"""Homomorphic private information retrieval — the sublinear direction.

The paper implements the *linear-communication* SPFE solution; the work
it builds on (Canetti et al. [5]) also gives sublinear-communication
solutions, whose engine is single-server computational PIR.  This module
implements that engine on the same Paillier substrate:

* :class:`LinearPIRProtocol` — retrieval of one element as a degenerate
  selected sum (a 0/1 vector with a single 1): Θ(n) upload, one
  ciphertext down.
* :class:`SquareRootPIRProtocol` — the Kushilevitz–Ostrovsky folding:
  the server arranges its n elements in a √n x √n grid; the client sends
  an encrypted *row* indicator (√n ciphertexts); the server returns, for
  every column, the homomorphic fold of that column against the
  indicator — √n ciphertexts, each an encryption of one element of the
  chosen row.  The client decrypts the column it wants.  Total
  communication Θ(√n) instead of Θ(n).

Both provide full client privacy (the server sees only ciphertexts).
Database privacy differs: √n-PIR reveals the whole retrieved *row* to
the client (standard for PIR, which protects the *client*); the result
metadata says so explicitly.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.datastore.database import ServerDatabase
from repro.exceptions import ParameterError
from repro.spfe.base import SelectedSumBase
from repro.spfe.context import CLIENT, SERVER
from repro.spfe.result import SumRunResult
from repro.spfe.selected_sum import SelectedSumProtocol
from repro.timing.costmodel import Op
from repro.timing.report import TimingBreakdown

__all__ = ["LinearPIRProtocol", "SquareRootPIRProtocol"]


class LinearPIRProtocol:
    """Single-element retrieval as a one-hot selected sum."""

    protocol_name = "pir-linear"

    def __init__(self, context=None) -> None:
        self._inner = SelectedSumProtocol(context)
        self.ctx = self._inner.ctx

    def retrieve(self, database: ServerDatabase, index: int) -> SumRunResult:
        """Privately fetch ``database[index]``."""
        if not 0 <= index < len(database):
            raise ParameterError("index %d out of range" % index)
        selection = [0] * len(database)
        selection[index] = 1
        result = self._inner.run(database, selection)
        result.metadata["retrieved_index"] = index
        result.metadata["reveals_to_client"] = "one element"
        return result


class SquareRootPIRProtocol(SelectedSumBase):
    """Two-level PIR with Θ(√n) communication (Kushilevitz–Ostrovsky
    style, instantiated with additively homomorphic encryption)."""

    protocol_name = "pir-sqrt"

    def grid_shape(self, n: int) -> Tuple[int, int]:
        """(rows, cols) of the server's grid: cols = ceil(sqrt(n))."""
        cols = max(1, math.isqrt(n))
        if cols * cols < n:
            cols += 1
        rows = (n + cols - 1) // cols
        return rows, cols

    def retrieve(self, database: ServerDatabase, index: int) -> SumRunResult:
        """Privately fetch ``database[index]`` with Θ(√n) communication."""
        ctx = self.ctx
        scheme = ctx.scheme
        n = len(database)
        if not 0 <= index < n:
            raise ParameterError("index %d out of range" % index)
        rows, cols = self.grid_shape(n)
        target_row, target_col = divmod(index, cols)

        keypair, keygen_s = ctx.generate_keypair(CLIENT)
        public = keypair.public
        # Capacity: the fold is sum of a one-hot against one column.
        if 2**database.value_bits >= scheme.plaintext_modulus(public):
            raise ParameterError("element range exceeds plaintext space")

        rnd = self.open_round(keypair)

        # Client: encrypted one-hot ROW indicator (rows ciphertexts).
        indicator = [1 if r == target_row else 0 for r in range(rows)]
        enc_indicator, encrypt_s = self.encrypt(public, indicator)
        rnd.client.advance(encrypt_s)
        received, comm_up_s = self.upload(rnd, enc_indicator)
        comm_s = comm_up_s + rnd.key_arrival

        # Server: fold every column against the indicator.
        with ctx.compute(SERVER, Op.WEIGHTED_STEP, rows * cols) as srv_block:
            column_folds = []
            for c in range(cols):
                column = [
                    database[r * cols + c] if r * cols + c < n else 0
                    for r in range(rows)
                ]
                column_folds.append(
                    scheme.weighted_product(public, received, column)
                )
        rnd.server.advance(srv_block.seconds)

        # Server returns one ciphertext per column (the chosen row,
        # encrypted element-wise).
        reply_started = rnd.server.now
        arrival = reply_started
        for fold in column_folds:
            arrival = self.reply(rnd, fold)
        comm_s += arrival - reply_started
        rnd.client.wait_until(arrival)
        payloads = [rnd.channel.client_recv()[0].payload for _ in column_folds]

        # Client decrypts only the column it needs (could decrypt all —
        # the whole row is information-theoretically in its hands).
        value, decrypt_s = self.decrypt(rnd, payloads[target_col])

        breakdown = TimingBreakdown(
            client_encrypt_s=encrypt_s,
            server_compute_s=srv_block.seconds,
            communication_s=comm_s,
            client_decrypt_s=decrypt_s,
        )
        return self.build_result(
            value=value,
            database=database,
            m=1,
            breakdown=breakdown,
            makespan_s=rnd.client.now,
            channels=[rnd.channel],
            metadata={
                "keygen_s": keygen_s,
                "grid": (rows, cols),
                "retrieved_index": index,
                "reveals_to_client": "one row (%d elements)" % cols,
                "uplink_ciphertexts": rows,
                "downlink_ciphertexts": cols,
                "channel": rnd.channel,
            },
        )
