"""Batch modular-exponentiation kernels for the selected-sum hot paths.

The paper's cost profile (§3.1) is dominated by two shapes of modular
exponentiation, and both have algorithmic structure a per-element
``pow()`` loop throws away:

* **The server aggregate** ``prod_i c_i^{w_i} mod n^2`` multiplies many
  independent bases, each raised to a *small* exponent (the 32-bit
  database values).  :func:`multi_exponent` computes the whole product
  with one shared squaring chain using the Pippenger/Straus *bucket
  method*: exponents are scanned window by window, bases with the same
  window digit are multiplied into a shared bucket, and each window
  costs one bucket sweep instead of a fresh exponentiation per element.
  At 512-bit keys and 32-bit weights this is ~5-8x faster than the
  naive loop in pure Python (see ``benchmarks/test_kernels.py``).
  The deployed server folds chunks as they arrive, so
  :func:`plane_insert` keeps 4-bit digit-plane buckets *across*
  batches and one closing :func:`multi_exponent` over the buckets
  (:func:`plane_terms`) pays the sweep and squaring chain once per
  query instead of once per chunk.

* **The encryption obfuscator** ``r^n mod n^2`` raises a *varying* base
  to the *fixed* per-key exponent ``n``.  Written as ``r = h^x mod n``
  for a fixed ``h``, the obfuscator becomes ``(h^n)^x mod n^2`` — a
  fixed-base exponentiation — and :class:`FixedBaseTable` precomputes
  the windowed powers of ``h^n`` once per key so that each obfuscator
  costs only table lookups and multiplications, no squarings at all.
  This is the crypto-kernel half of the paper's §3.3 preprocessing:
  :class:`~repro.crypto.paillier.RandomnessPool` uses it to refill
  many times faster than one full ``pow()`` per obfuscator.

Both kernels are bit-for-bit compatible with the naive loops they
replace (same residues, same modulus — modular products are order
independent), which the property tests in
``tests/crypto/test_multiexp.py`` assert exhaustively.  They are pure
functions of ints, safe to ship across process boundaries, which is how
:class:`~repro.crypto.engine.CryptoEngine` fans them out over cores.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.crypto.montgomery import MontgomeryContext
from repro.exceptions import ParameterError

__all__ = [
    "multi_exponent",
    "select_window",
    "plane_insert",
    "plane_terms",
    "PLANE_WINDOW",
    "PLANE_DIGITS",
    "FixedBaseTable",
]

#: Largest window the selector will consider.  2^(16+1) bucket slots is
#: already far past the break-even point for any batch this library sees.
_MAX_WINDOW = 16


def select_window(count: int, max_exponent_bits: int) -> int:
    """Pick the bucket-window width for a batch of ``count`` exponents.

    Minimises the modular-multiplication count of the bucket method:
    each of the ``ceil(bits / c)`` windows costs one bucket insertion
    per element plus a ``2^(c+1)``-multiplication bucket sweep, and the
    whole run costs ``bits`` squarings.  The optimum grows roughly with
    ``log2(count)`` — larger batches amortise larger bucket sweeps.
    """
    if count < 1 or max_exponent_bits < 1:
        return 1
    best_window, best_cost = 1, None
    for window in range(1, _MAX_WINDOW + 1):
        windows = -(-max_exponent_bits // window)  # ceil
        cost = windows * (count + (2 << window)) + max_exponent_bits
        if best_cost is None or cost < best_cost:
            best_window, best_cost = window, cost
        if window >= max_exponent_bits:
            break  # wider windows only grow the sweep
    return best_window


def multi_exponent(
    bases: Sequence[int],
    exponents: Sequence[int],
    modulus: int,
    initial: Optional[int] = None,
    window: Optional[int] = None,
    montgomery: Union[bool, MontgomeryContext] = False,
) -> int:
    """``initial * prod_i bases[i]^exponents[i] mod modulus``, batched.

    Simultaneous multi-exponentiation via the Pippenger bucket method:
    one shared squaring chain for the whole batch instead of one full
    ``pow()`` per element.  Exponents must be non-negative (reduce
    signed scalars into the exponent group first, exactly as the naive
    ``ciphertext_scale`` loop does); zero exponents are skipped and
    exponent 1 is a plain multiplication, matching the naive loop's
    fast paths so results agree bit for bit.

    Args:
        bases: batch of bases (ciphertexts), each in ``[0, modulus)``.
        exponents: matching non-negative exponents (weights).
        modulus: the ciphertext modulus (``n^2`` for Paillier).
        initial: running partial product to fold the batch into.
        window: bucket window width in bits; default adapts to the
            batch via :func:`select_window`.
        montgomery: run the bucket folds in Montgomery form — pass
            ``True`` (a context is built for ``modulus``, which must be
            odd) or a prebuilt
            :class:`~repro.crypto.montgomery.MontgomeryContext`.  The
            result is bit-for-bit identical either way; the calibration
            pass decides per key size whether the domain switch pays
            (see ``docs/performance.md``).

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
    acc = 1 if initial is None else initial % modulus

    # Split off the trivial exponents: 0 contributes nothing, 1 is one
    # multiplication — neither should pay for a bucket pass.
    pairs: List = []
    max_bits = 0
    for base, exponent in zip(bases, exponents):
        if exponent < 0:
            raise ParameterError(
                "exponents must be non-negative (got %d); reduce into "
                "the exponent group first" % exponent
            )
        if exponent == 0:
            continue
        if exponent == 1:
            acc = acc * base % modulus
            continue
        pairs.append((base, exponent))
        bits = exponent.bit_length()
        if bits > max_bits:
            max_bits = bits
    if not pairs:
        return acc

    if window is None:
        window = select_window(len(pairs), max_bits)
    elif window < 1:
        raise ParameterError("window must be positive")

    if montgomery:
        context = (
            montgomery
            if isinstance(montgomery, MontgomeryContext)
            else MontgomeryContext(modulus)
        )
        if context.modulus != modulus:
            raise ParameterError(
                "Montgomery context modulus does not match the fold modulus"
            )
        result = _bucket_fold_montgomery(pairs, max_bits, window, context)
    else:
        result = _bucket_fold(pairs, modulus, max_bits, window)
    return acc * result % modulus


#: Digit width, in bits, of the persistent bucket accumulator
#: (:func:`plane_insert`).  A module constant, not an option: journalled
#: bucket rows are laid out by it, so changing it needs a store
#: migration.  3 bits costs more multiplications per element; 5 bits
#: folds ~10% cheaper once journal commits are per read, not per chunk
#: (``docs/performance.md``).
PLANE_WINDOW = 4

#: Buckets per digit plane: one for each nonzero digit.
PLANE_DIGITS = (1 << PLANE_WINDOW) - 1


def plane_insert(
    buckets: List[int],
    bases: Sequence[int],
    exponents: Sequence[int],
    modulus: int,
) -> None:
    """Fold ``prod_i bases[i]^exponents[i]`` into digit-plane buckets.

    ``buckets`` is a flat accumulator that persists across calls: slot
    ``p * PLANE_DIGITS + d - 1`` holds the product of every base whose
    exponent has digit ``d`` in plane ``p`` (bits ``4p .. 4p+3``).  The
    Pippenger bucket pass is linear, so batches can be inserted one at
    a time and closed once: each base costs one multiplication per
    nonzero digit of its exponent (~7.5 for a 32-bit weight), whatever
    the batch size.  Start from an empty list; planes are appended as
    exponents need them.  :func:`plane_terms` turns the buckets into
    the closing :func:`multi_exponent` batch.
    """
    if len(bases) != len(exponents):
        raise ParameterError(
            "base/exponent length mismatch: %d vs %d"
            % (len(bases), len(exponents))
        )
    if modulus < 2:
        raise ParameterError("modulus must be at least 2")
    mask = PLANE_DIGITS
    for base, exponent in zip(bases, exponents):
        if exponent < 0:
            raise ParameterError(
                "exponents must be non-negative (got %d); reduce into "
                "the exponent group first" % exponent
            )
        needed = -(-exponent.bit_length() // PLANE_WINDOW) * PLANE_DIGITS
        if needed > len(buckets):
            buckets.extend([1] * (needed - len(buckets)))
        slot = -1
        while exponent:
            digit = exponent & mask
            if digit:
                buckets[slot + digit] = buckets[slot + digit] * base % modulus
            exponent >>= PLANE_WINDOW
            slot += PLANE_DIGITS


def plane_terms(buckets: Sequence[int]) -> Tuple[List[int], List[int]]:
    """The non-unit buckets and their exponents ``d * 2^(4p)``.

    ``multi_exponent(*plane_terms(buckets), modulus)`` equals the
    product of every ``base^exponent`` inserted by :func:`plane_insert`.
    """
    bases: List[int] = []
    exponents: List[int] = []
    for slot, bucket in enumerate(buckets):
        if bucket != 1:
            plane, digit = divmod(slot, PLANE_DIGITS)
            bases.append(bucket)
            exponents.append((digit + 1) << (plane * PLANE_WINDOW))
    return bases, exponents


def _bucket_fold(
    pairs: Sequence[Tuple[int, int]], modulus: int, max_bits: int, window: int
) -> int:
    """The Pippenger bucket fold with builtin ``%`` reductions."""
    mask = (1 << window) - 1
    num_windows = -(-max_bits // window)  # ceil
    result = 1
    for win in range(num_windows - 1, -1, -1):
        shift = win * window
        # Bucket pass: bases sharing a window digit share one slot.
        buckets = [1] * (mask + 1)
        for base, exponent in pairs:
            digit = (exponent >> shift) & mask
            if digit:
                buckets[digit] = buckets[digit] * base % modulus
        # Sweep: sum_d d * B_d via running suffix products, so the whole
        # window costs at most 2 * 2^window multiplications.
        running = 1
        window_product = 1
        for digit in range(mask, 0, -1):
            bucket = buckets[digit]
            if bucket != 1:
                running = running * bucket % modulus
            if running != 1:
                window_product = window_product * running % modulus
        if win != num_windows - 1:
            for _ in range(window):
                result = result * result % modulus
        if window_product != 1:
            result = result * window_product % modulus
    return result


def _bucket_fold_montgomery(
    pairs: Sequence[Tuple[int, int]],
    max_bits: int,
    window: int,
    context: MontgomeryContext,
) -> int:
    """The same bucket fold carried in the Montgomery domain.

    Bases are converted in once, the buckets/sweep/squaring chain run on
    Montgomery residues (three multiplications per REDC, no division),
    and the single final conversion brings the product back.  Bit-for-bit
    equal to :func:`_bucket_fold` by construction.
    """
    mont_pairs = [
        (context.to_mont(base), exponent) for base, exponent in pairs
    ]
    one = context.r
    mul = context.mul
    mask = (1 << window) - 1
    num_windows = -(-max_bits // window)  # ceil
    result = one
    for win in range(num_windows - 1, -1, -1):
        shift = win * window
        buckets = [one] * (mask + 1)
        for base, exponent in mont_pairs:
            digit = (exponent >> shift) & mask
            if digit:
                buckets[digit] = mul(buckets[digit], base)
        running = one
        window_product = one
        for digit in range(mask, 0, -1):
            bucket = buckets[digit]
            if bucket != one:
                running = mul(running, bucket)
            if running != one:
                window_product = mul(window_product, running)
        if win != num_windows - 1:
            for _ in range(window):
                result = mul(result, result)
        if window_product != one:
            result = mul(result, window_product)
    return context.from_mont(result)


class FixedBaseTable:
    """Windowed precomputation for exponentiations of one fixed base.

    Stores ``base^(d * 2^(i*window))`` for every window position ``i``
    and digit ``d``, so :meth:`pow` needs only one table lookup and one
    modular multiplication per window — no squarings.  For a 512-bit
    exponent at window 6 that is ~86 multiplications versus the ~768 of
    a full square-and-multiply, and the table builds in one pass of
    ``entries`` multiplications that amortises after a few dozen uses.

    Used per public key: Paillier's obfuscator exponent ``n`` is fixed,
    so ``r^n = (h^n)^x`` for ``r = h^x`` turns every obfuscator into a
    fixed-base power of the precomputed ``g = h^n mod n^2`` (see
    :meth:`repro.crypto.paillier.RandomnessPool`).
    """

    __slots__ = ("base", "modulus", "exponent_bits", "window", "entries", "_rows")

    #: Default window width: builds fast enough to amortise within ~20
    #: uses at 512-bit keys while staying within ~6x of a full pow().
    DEFAULT_WINDOW = 6

    def __init__(
        self,
        base: int,
        modulus: int,
        exponent_bits: int,
        window: Optional[int] = None,
    ) -> None:
        if modulus < 2:
            raise ParameterError("modulus must be at least 2")
        if exponent_bits < 1:
            raise ParameterError("exponent_bits must be positive")
        window = self.DEFAULT_WINDOW if window is None else window
        if not 1 <= window <= _MAX_WINDOW:
            raise ParameterError(
                "window must be in 1..%d, got %d" % (_MAX_WINDOW, window)
            )
        self.base = base % modulus
        self.modulus = modulus
        self.exponent_bits = exponent_bits
        self.window = window
        self._rows: List[List[int]] = []
        slots = 1 << window
        step = self.base
        for _ in range(-(-exponent_bits // window)):
            row = [1] * slots
            row[1] = step
            for digit in range(2, slots):
                row[digit] = row[digit - 1] * step % modulus
            self._rows.append(row)
            # Advance to base^(2^((i+1)*window)) for the next row.
            step = row[slots - 1] * step % modulus
        self.entries = len(self._rows) * (slots - 1)

    @classmethod
    def from_rows(
        cls,
        base: int,
        modulus: int,
        exponent_bits: int,
        window: int,
        rows: List[List[int]],
    ) -> "FixedBaseTable":
        """Rebuild a table from previously exported rows.

        The persistence path (:class:`repro.store.state.StateStore`)
        round-trips tables through this constructor so a warm restart
        pays zero recomputation — the whole point of persisting the
        precomputation.  Shape is validated; entry *values* are trusted
        (the store lives in the key owner's trust domain).
        """
        if modulus < 2:
            raise ParameterError("modulus must be at least 2")
        if exponent_bits < 1:
            raise ParameterError("exponent_bits must be positive")
        if not 1 <= window <= _MAX_WINDOW:
            raise ParameterError(
                "window must be in 1..%d, got %d" % (_MAX_WINDOW, window)
            )
        slots = 1 << window
        expected_rows = -(-exponent_bits // window)  # ceil
        if len(rows) != expected_rows or any(len(row) != slots for row in rows):
            raise ParameterError(
                "table shape mismatch: want %d rows of %d slots"
                % (expected_rows, slots)
            )
        table = cls.__new__(cls)
        table.base = base % modulus
        table.modulus = modulus
        table.exponent_bits = exponent_bits
        table.window = window
        table._rows = [list(row) for row in rows]
        table.entries = len(table._rows) * (slots - 1)
        return table

    def export_rows(self) -> List[List[int]]:
        """A copy of the precomputed rows, for persistence."""
        return [list(row) for row in self._rows]

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
        mask = (1 << self.window) - 1
        modulus = self.modulus
        result = 1
        row_index = 0
        while exponent:
            digit = exponent & mask
            if digit:
                result = result * self._rows[row_index][digit] % modulus
            exponent >>= self.window
            row_index += 1
        return result

    def __repr__(self) -> str:
        return "FixedBaseTable(exponent_bits=%d, window=%d, entries=%d)" % (
            self.exponent_bits,
            self.window,
            self.entries,
        )
