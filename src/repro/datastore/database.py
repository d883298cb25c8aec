"""The server-side database of the selected-sum setting.

Paper §2: "The server holds a database of n numbers x_1, ..., x_n" —
32-bit values in all experiments.  :class:`ServerDatabase` enforces the
value bound (so protocol sums stay within the homomorphic plaintext
range by a documented margin), serves chunk iteration for the batching
protocol, and exposes a squared view so the statistics layer can compute
Σx² for variances with the *same* private-sum machinery.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Tuple

from repro.crypto.multiexp import FoldPlan, fold_plan
from repro.exceptions import DatabaseError

__all__ = ["ServerDatabase", "VALUE_BITS", "MAX_VALUE", "elementwise_product"]

VALUE_BITS = 32  # the paper's element size
MAX_VALUE = 2**VALUE_BITS - 1


class ServerDatabase:
    """An immutable sequence of bounded non-negative integers.

    Args:
        values: the database contents.
        value_bits: per-element bit bound (default: the paper's 32).

    Raises:
        DatabaseError: on empty input or out-of-range values.
    """

    def __init__(self, values: Iterable[int], value_bits: int = VALUE_BITS) -> None:
        if value_bits < 1:
            raise DatabaseError("value_bits must be positive")
        self._values: Tuple[int, ...] = tuple(values)
        self.value_bits = value_bits
        self._fold_plan: Optional[FoldPlan] = None
        limit = 2**value_bits - 1
        if not self._values:
            raise DatabaseError("database cannot be empty")
        for i, v in enumerate(self._values):
            if not isinstance(v, int) or isinstance(v, bool):
                raise DatabaseError("element %d is not an integer: %r" % (i, v))
            if not 0 <= v <= limit:
                raise DatabaseError(
                    "element %d (= %d) outside [0, 2^%d)" % (i, v, value_bits)
                )

    # -- sequence protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, index: int) -> int:
        return self._values[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self._values)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ServerDatabase)
            and self._values == other._values
            and self.value_bits == other.value_bits
        )

    def __repr__(self) -> str:
        return "ServerDatabase(n=%d, value_bits=%d)" % (
            len(self._values),
            self.value_bits,
        )

    # -- views -----------------------------------------------------------------

    @property
    def values(self) -> Tuple[int, ...]:
        return self._values

    def chunks(self, size: int) -> Iterator[Tuple[int, Sequence[int]]]:
        """Yield ``(offset, values)`` chunks for the batching protocol."""
        if size < 1:
            raise DatabaseError("chunk size must be positive")
        for start in range(0, len(self._values), size):
            yield start, self._values[start : start + size]

    def fold_plan(self) -> FoldPlan:
        """The server fold's plan: the block bounds
        :func:`~repro.crypto.multiexp.fold_blocks` cuts for this many
        rows (near-equal blocks of at most
        :data:`~repro.crypto.multiexp.FOLD_CAP` rows) and one program
        per block, with the values as exponents.

        Built on first call and kept, since the values never change;
        every session and thread folding against this database shares
        it.  Two threads racing the first call build equal plans, and
        either may win.
        """
        plan = self._fold_plan
        if plan is None:
            plan = fold_plan(self._values)
            self._fold_plan = plan
        return plan

    def squared(self) -> "ServerDatabase":
        """The element-wise squared database (for Σx² / variance).

        Squared 32-bit values need 64 bits, so the bound doubles.
        """
        return ServerDatabase(
            [v * v for v in self._values], value_bits=2 * self.value_bits
        )

    def max_selected_sum(self, m: int) -> int:
        """Upper bound on any sum of ``m`` selected elements.

        Protocols check this against the scheme's plaintext modulus so a
        sum can never wrap around undetected.
        """
        if not 0 <= m <= len(self._values):
            raise DatabaseError("selection size %d outside [0, %d]" % (m, len(self)))
        return m * (2**self.value_bits - 1)

    def select_sum(self, indices: Sequence[int]) -> int:
        """Ground-truth selected sum (for verification in tests/benches).

        ``indices`` is the paper's 0/1 vector — weight ``I_i`` applied to
        ``x_i`` — so weighted sums verify through the same code path.
        """
        if len(indices) != len(self._values):
            raise DatabaseError(
                "index vector length %d != database size %d"
                % (len(indices), len(self._values))
            )
        return sum(i * x for i, x in zip(indices, self._values))


def elementwise_product(x: "ServerDatabase", y: "ServerDatabase") -> "ServerDatabase":
    """The server-side product column x_i * y_i (for covariances).

    Both inputs are the server's own data, so this is local server
    computation, not a protocol step.  The value bound doubles.
    """
    if len(x) != len(y):
        raise DatabaseError("databases must have equal length")
    return ServerDatabase(
        [a * b for a, b in zip(x.values, y.values)],
        value_bits=x.value_bits + y.value_bits,
    )
