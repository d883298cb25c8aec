"""Batch modular-exponentiation kernels for the selected-sum hot paths.

The paper's cost profile (§3.1) is dominated by two shapes of modular
exponentiation, and both have algorithmic structure a per-element
``pow()`` loop throws away:

* **The server aggregate** ``prod_i c_i^{w_i} mod n^2`` multiplies many
  independent bases, each raised to a *small* exponent (the 32-bit
  database values).  One algorithm computes it: :func:`fold_plan` cuts
  the exponents into blocks of up to :data:`FOLD_CAP` rows and compiles
  a Bos–Coster addition program (:class:`FoldProgram`) for each, and
  :meth:`FoldPlan.run` runs those programs on the bases, ~4.6
  multiplications per element at n = 1000 on random 32-bit values.
  The deployed server's exponents are its own database, fixed for its
  whole life, so it compiles its plan once and runs one block's
  program as each block of a query arrives; :func:`multi_exponent`
  compiles a plan per call, for products whose exponents change.

* **The encryption obfuscator** ``r^n mod n^2`` raises a *varying* base
  to the *fixed* per-key exponent ``n``.  Written as ``r = h^x mod n``
  for a fixed ``h``, the obfuscator becomes ``(h^n)^x mod n^2`` — a
  fixed-base exponentiation — and :class:`FixedBaseTable` precomputes
  the powers of ``h^n`` for every byte digit once per key, so that
  each obfuscator costs one table lookup and one multiplication per
  exponent byte, no squarings at all.  This is the crypto-kernel half
  of the paper's §3.3 preprocessing:
  :class:`~repro.crypto.paillier.RandomnessPool` uses it to refill
  ~8x faster than one full ``pow()`` per obfuscator at 512-bit keys.
  The key owner's sampler draws every obfuscator from two per-prime
  :class:`TeichmullerTable` objects, whose rows hold residues mod ``p``
  and their Fermat quotients instead of full-width powers mod ``p^2``.

Every kernel is bit-for-bit compatible with the naive loop it
replaces (same residues, same modulus — modular products are order
independent), which the property tests in
``tests/crypto/test_multiexp.py`` assert exhaustively.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_right
from typing import List, Literal, NamedTuple, Optional, Sequence, Tuple

from repro.crypto.ntheory import fermat_quotient
from repro.exceptions import ParameterError

__all__ = [
    "multi_exponent",
    "FoldProgram",
    "FoldPlan",
    "fold_plan",
    "fold_blocks",
    "FOLD_CAP",
    "FOLD_SINGLE",
    "FixedBaseTable",
    "TeichmullerTable",
]

#: byte order of the exponent digits the fixed-base tables' ``pow`` reads,
#: declared Literal so ``int.to_bytes`` type-checks under mypy
_LITTLE: Literal["little"] = "little"


#: Widest fold block.  A Bos–Coster program folds cheaper per element
#: the wider its block (random 32-bit values: ~5.2 multiplications per
#: element at 256 rows, ~4.6 at 500, ~4.2 at 1024), but a session holds
#: the ciphertexts of its incomplete block pending, up to
#: ``FOLD_CAP - 1`` of them, and a block folds only once its last row
#: has arrived (see :func:`fold_blocks`).
FOLD_CAP = 512

#: A database of at most this many rows folds as one block.
FOLD_SINGLE = 256


class FoldProgram:
    """A precompiled Bos–Coster program for ``prod_i bases[i]^exponents[i]``.

    The exponents are fixed when the program is compiled; :meth:`run`
    then takes any bases.  Compiling keeps a max-heap of
    ``(exponent, row)``, zero exponents left out, ties broken by the
    lower row.  Each step takes the largest ``(x1, i1)`` and the next
    ``(x2, i2)`` and records ``reg[i2] <- reg[i2] * reg[i1]^q`` for
    ``q = x1 // x2``, which leaves the product unchanged once ``x1`` drops
    to ``x1 mod x2`` (the row leaves the heap when that is 0).  The last
    row standing is raised to its remaining exponent.

    On random 32-bit exponents almost every quotient is 1, so a step is
    one modular multiplication; a block of 256 rows costs ~5.2 per
    element and one of 500 rows ~4.6, against ~7 for digit-plane
    buckets.  Steps are stored as two arrays of two-byte register
    indices, so a program takes at most :data:`FOLD_CAP` rows; the rare
    quotients above 1 are kept apart, each run as one ``pow``.
    """

    __slots__ = ("rows", "_dst", "_src", "_quotients", "_survivor", "_exponent")

    def __init__(self, exponents: Sequence[int]) -> None:
        if len(exponents) > FOLD_CAP:
            raise ParameterError(
                "a fold program takes at most %d rows, got %d"
                % (FOLD_CAP, len(exponents))
            )
        heap: List[Tuple[int, int]] = []
        for row, exponent in enumerate(exponents):
            if exponent < 0:
                raise ParameterError(
                    "exponents must be non-negative (got %d)" % exponent
                )
            if exponent:
                heap.append((-exponent, row))
        heapq.heapify(heap)
        dst = array("H")
        src = array("H")
        quotients: List[Tuple[int, int]] = []
        # The heap holds negated exponents, so divmod of two entries
        # gives the quotient and the negated remainder directly.
        while len(heap) > 1:
            # heap[0] is the largest; the next is the larger child.
            neg_top, top = heap[0]
            neg_next, following = (
                heap[1] if len(heap) == 2 or heap[1] < heap[2] else heap[2]
            )
            quotient, remainder = divmod(neg_top, neg_next)
            if quotient > 1:
                quotients.append((len(dst), quotient))
            dst.append(following)
            src.append(top)
            if remainder:
                heapq.heapreplace(heap, (remainder, top))
            else:
                heapq.heappop(heap)
        self.rows = len(exponents)
        self._dst = dst
        self._src = src
        self._quotients = tuple(quotients)
        #: the last row standing and its exponent; -1 and 0 if none
        self._survivor, self._exponent = (
            (heap[0][1], -heap[0][0]) if heap else (-1, 0)
        )

    @property
    def steps(self) -> int:
        """Steps of the program: one multiplication each (or a ``pow``)."""
        return len(self._dst)

    def run(self, bases: Sequence[int], modulus: int) -> int:
        """``prod_i bases[i]^exponents[i] mod modulus`` for the compiled
        exponents.  Bases of zero-exponent rows are never read."""
        if len(bases) != self.rows:
            raise ParameterError(
                "program folds %d rows, got %d bases" % (self.rows, len(bases))
            )
        if modulus < 2:
            raise ParameterError("modulus must be at least 2")
        if self._survivor < 0:
            return 1
        reg = list(bases)
        dst, src = self._dst, self._src
        start = 0
        for at, quotient in self._quotients:
            for d, s in zip(dst[start:at], src[start:at]):
                reg[d] = reg[d] * reg[s] % modulus
            d = dst[at]
            reg[d] = reg[d] * pow(reg[src[at]], quotient, modulus) % modulus
            start = at + 1
        for d, s in zip(dst[start:], src[start:]):
            reg[d] = reg[d] * reg[s] % modulus
        survivor = reg[self._survivor]
        if self._exponent == 1:
            return survivor % modulus
        return pow(survivor, self._exponent, modulus)

    def __repr__(self) -> str:
        return "FoldProgram(rows=%d, steps=%d)" % (self.rows, self.steps)


def fold_blocks(rows: int) -> Tuple[int, ...]:
    """First rows of the fold blocks of a ``rows``-row database.

    One fixed rule of ``rows`` alone: a database of at most
    :data:`FOLD_SINGLE` rows is one block; a wider one is cut into the
    fewest blocks of at most :data:`FOLD_CAP` rows, but at least two,
    of near-equal width.

    Almost every step of a block's program needs one of the block's
    last rows, so a block folds after its last row arrives.  With at
    least two blocks, no block but the last is wider than the rows
    still to come when it folds, so its fold runs while the rest of
    the query streams in; only the last block's fold waits for the end.
    """
    if rows <= FOLD_SINGLE:
        return (0,) if rows else ()
    count = max(2, -(-rows // FOLD_CAP))  # ceil
    return tuple(rows * block // count for block in range(count))


class FoldPlan(NamedTuple):
    """The server fold of one database: its blocks and their programs.

    Block ``i`` covers rows ``starts[i]`` up to the next start (or
    ``rows``), and ``programs[i]`` folds it.
    """

    rows: int
    starts: Tuple[int, ...]
    programs: Tuple[FoldProgram, ...]

    def block_end(self, row: int) -> int:
        """The row after the last of the block that holds ``row``."""
        block = bisect_right(self.starts, row)
        return self.starts[block] if block < len(self.starts) else self.rows

    def program_at(self, first: int) -> Optional[FoldProgram]:
        """The program of the block that starts at row ``first``; None
        when ``first`` is inside a block."""
        block = bisect_right(self.starts, first) - 1
        return self.programs[block] if self.starts[block] == first else None

    def bounds(self) -> Tuple[Tuple[int, int], ...]:
        """``(first, end)`` rows of every block, in order."""
        return tuple(zip(self.starts, self.starts[1:] + (self.rows,)))

    def run(
        self, bases: Sequence[int], modulus: int, initial: Optional[int] = None
    ) -> int:
        """``initial * prod_i bases[i]^exponents[i] mod modulus`` for the
        plan's exponents: each block's program runs on its bases and its
        product is multiplied into the accumulator."""
        if len(bases) != self.rows:
            raise ParameterError(
                "plan folds %d rows, got %d bases" % (self.rows, len(bases))
            )
        if modulus < 2:
            raise ParameterError("modulus must be at least 2")
        acc = 1 if initial is None else initial % modulus
        for (first, end), program in zip(self.bounds(), self.programs):
            acc = acc * program.run(bases[first:end], modulus) % modulus
        return acc


def fold_plan(exponents: Sequence[int]) -> FoldPlan:
    """One :class:`FoldProgram` per block of :func:`fold_blocks`, with
    ``exponents`` as the rows' values."""
    rows = len(exponents)
    starts = fold_blocks(rows)
    ends = starts[1:] + (rows,)
    return FoldPlan(
        rows,
        starts,
        tuple(FoldProgram(exponents[first:end]) for first, end in zip(starts, ends)),
    )


def multi_exponent(
    bases: Sequence[int],
    exponents: Sequence[int],
    modulus: int,
    initial: Optional[int] = None,
) -> int:
    """``initial * prod_i bases[i]^exponents[i] mod modulus``, batched.

    Compiles a :func:`fold_plan` of the exponents and runs it on the
    bases: the same Bos–Coster programs the deployed server runs, here
    compiled per call.  Exponents must be non-negative (reduce signed
    scalars into the exponent group first, exactly as the naive
    ``ciphertext_scale`` loop does).  A modular product has one value,
    so the result is bit for bit the naive per-element ``pow()`` loop's.

    Args:
        bases: batch of bases (ciphertexts), each in ``[0, modulus)``.
        exponents: matching non-negative exponents (weights).
        modulus: the ciphertext modulus (``n^2`` for Paillier).
        initial: running partial product to fold the batch into.

    Returns:
        The product as a plain int in ``[0, modulus)``.
    """
    if len(bases) != len(exponents):
        raise ParameterError(
            "base/exponent length mismatch: %d vs %d"
            % (len(bases), len(exponents))
        )
    if modulus < 2:
        raise ParameterError("modulus must be at least 2")
    lowest = min(exponents, default=0)
    if lowest < 0:
        raise ParameterError(
            "exponents must be non-negative (got %d); reduce into "
            "the exponent group first" % lowest
        )
    return fold_plan(exponents).run(bases, modulus, initial)


class FixedBaseTable:
    """Byte-digit precomputation for exponentiations of one fixed base.

    Stores ``base^(d * 256^i)`` for every byte position ``i`` and
    nonzero byte ``d``, so :meth:`pow` needs only one table lookup and
    one modular multiplication per byte of the exponent — no squarings.
    For a 256-bit exponent that is 32 multiplications (64 at 512 bits)
    against the ~384 (~768) of a full square-and-multiply.  The table
    is ``ceil(exponent_bits / 8)`` rows of 255 entries, built in one
    pass of ``entries`` multiplications, and :meth:`pow` reads every
    digit with a single ``int.to_bytes``.

    Used per public key: Paillier's obfuscator exponent ``n`` is fixed,
    so ``r^n = (h^n)^x`` for ``r = h^x`` turns every obfuscator into a
    fixed-base power of the precomputed ``g = h^n mod n^2`` (see
    :class:`repro.crypto.paillier.RandomnessPool`, which holds only the
    public key).  The key owner's per-prime powers mod ``p^2`` are
    Teichmüller lifts, which a :class:`TeichmullerTable` computes from
    half-width rows.
    """

    __slots__ = ("base", "modulus", "exponent_bits", "entries", "_rows")

    def __init__(self, base: int, modulus: int, exponent_bits: int) -> None:
        if modulus < 2:
            raise ParameterError("modulus must be at least 2")
        if exponent_bits < 1:
            raise ParameterError("exponent_bits must be positive")
        self.base = base % modulus
        self.modulus = modulus
        self.exponent_bits = exponent_bits
        self._rows: List[List[int]] = []
        step = self.base
        for _ in range(-(-exponent_bits // 8)):
            row = [1] * 256
            row[1] = step
            for digit in range(2, 256):
                row[digit] = row[digit - 1] * step % modulus
            self._rows.append(row)
            # Advance to base^(256^(i+1)) for the next row.
            step = row[255] * step % modulus
        self.entries = len(self._rows) * 255

    @property
    def capacity(self) -> int:
        """Exclusive upper bound on exponents :meth:`pow` accepts."""
        return 1 << self.exponent_bits

    def pow(self, exponent: int) -> int:
        """``base ** exponent % modulus`` from the table (no squarings)."""
        if not 0 <= exponent < self.capacity:
            raise ParameterError(
                "exponent outside [0, 2^%d)" % self.exponent_bits
            )
        modulus = self.modulus
        rows = self._rows
        result = 1
        for row, digit in zip(rows, exponent.to_bytes(len(rows), _LITTLE)):
            if digit:
                result = result * row[digit] % modulus
        return result

    def __repr__(self) -> str:
        return "FixedBaseTable(exponent_bits=%d, entries=%d)" % (
            self.exponent_bits,
            self.entries,
        )


class TeichmullerTable:
    """Half-width fixed-base table of a Teichmüller lift mod ``p^2``.

    :meth:`pow` returns ``w^x mod p^2`` for ``w = base^p mod p^2``,
    exactly what a :class:`FixedBaseTable` of ``w`` mod ``p^2`` returns,
    but each entry is a residue mod ``p`` (half the width) beside its
    Fermat quotient ``q(t) = (t^(p-1) - 1) / p mod p``.  It rests on
    two facts, for any integer ``P`` prime to ``p``:

    * ``w^x = (base^x)^p`` and ``P^p = P + p * (P * q(P) mod p) mod p^2``,
      since ``P^(p-1) = 1 + p * q(P) mod p^2``;
    * ``q(X * Y) = q(X) + q(Y) mod p`` for integers ``X`` and ``Y``.

    So :meth:`pow` multiplies the selected residues ``t_i`` into an
    accumulator ``P`` mod ``p^2`` (a full-width times half-width step,
    about half the digit work of a :class:`FixedBaseTable` step), sums
    their quotients into ``q(P)`` and applies the correction once.

    Row ``i`` holds ``t_d = s^d mod p`` for ``s = base^(256^i) mod p``
    and every byte digit ``d``.  The quotients follow without a
    per-entry inverse: ``t_(d-1) * s = t_d + k_d * p`` with ``k_d`` from
    ``divmod``, and ``q(X + k*p) = q(X) - k / X mod p``, so
    ``q(t_d) = q(t_(d-1)) + q(s) + k_d * s^(-d) mod p``, where
    ``s^(-d)`` is a running product of one ``pow(s, -1, p)`` per row.
    Only ``q(base)`` costs a full exponentiation.

    ``prime`` must be prime (it is not checked) and ``base`` prime to
    it.  The key owner's sampler holds one table per prime of its key
    (:meth:`repro.crypto.paillier.PaillierPrivateKey.sampler_tables`).
    """

    __slots__ = (
        "base", "prime", "modulus", "exponent_bits", "capacity", "entries",
        "_residues", "_quotients",
    )

    def __init__(self, base: int, prime: int) -> None:
        if prime < 3:
            raise ParameterError("prime must be an odd prime")
        step = base % prime
        if step == 0:
            raise ParameterError("base must be prime to the prime")
        self.prime = prime
        self.modulus = prime * prime
        self.exponent_bits = prime.bit_length()
        #: exclusive upper bound on exponents :meth:`pow` accepts
        self.capacity = 1 << self.exponent_bits
        step_quotient = fermat_quotient(step, prime)
        #: ``w = base^p mod p^2``, the lift the table raises to powers
        self.base = step + prime * (step * step_quotient % prime)
        self._residues: List[List[int]] = []
        self._quotients: List[List[int]] = []
        for _ in range(-(-self.exponent_bits // 8)):
            step_inverse = pow(step, -1, prime)
            residues, quotients = [1, step], [0, step_quotient]
            residue, quotient, inverse = step, step_quotient, step_inverse
            # 255 steps: digits 2..255, then s^256, the next row's step.
            for _ in range(255):
                carry, residue = divmod(residue * step, prime)
                inverse = inverse * step_inverse % prime
                quotient = (quotient + step_quotient + carry * inverse) % prime
                residues.append(residue)
                quotients.append(quotient)
            step, step_quotient = residues.pop(), quotients.pop()
            self._residues.append(residues)
            self._quotients.append(quotients)
        self.entries = len(self._residues) * 255

    def pow(self, exponent: int) -> int:
        """``self.base ** exponent % self.modulus`` from the table."""
        if not 0 <= exponent < self.capacity:
            raise ParameterError(
                "exponent outside [0, 2^%d)" % self.exponent_bits
            )
        prime, modulus = self.prime, self.modulus
        rows = self._residues
        product, quotient = 1, 0
        # Entry 0 of every row is residue 1 with quotient 0, so a zero
        # digit needs no branch.
        for residues, quotients, digit in zip(
            rows, self._quotients, exponent.to_bytes(len(rows), _LITTLE)
        ):
            product = product * residues[digit] % modulus
            quotient += quotients[digit]
        return (product + prime * (product * quotient % prime)) % modulus

    def __repr__(self) -> str:
        return "TeichmullerTable(exponent_bits=%d, entries=%d)" % (
            self.exponent_bits,
            self.entries,
        )
