"""Data substrate: the server database and reproducible workloads."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.datastore.database import MAX_VALUE, VALUE_BITS, ServerDatabase
    from repro.datastore.table import Table
    from repro.datastore.workload import (
        PAPER_DATABASE_SIZES,
        WorkloadGenerator,
        indices_to_bits,
    )

__all__ = [
    "MAX_VALUE",
    "PAPER_DATABASE_SIZES",
    "ServerDatabase",
    "Table",
    "VALUE_BITS",
    "WorkloadGenerator",
    "indices_to_bits",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.datastore.database": ("MAX_VALUE", "VALUE_BITS", "ServerDatabase"),
    "repro.datastore.table": ("Table",),
    "repro.datastore.workload": (
        "PAPER_DATABASE_SIZES",
        "WorkloadGenerator",
        "indices_to_bits",
    ),
})
