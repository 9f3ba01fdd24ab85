"""Content-addressed experiment result store.

The study grid — (benchmark × driver × model × thread-count) — is pure:
every cell's rows are a function of the instance, the driver, its
kwargs, and the code version.  This package gives that purity teeth:

* :mod:`repro.store.fingerprint` — a stable SHA-256 key over exactly
  those inputs, so a cell's identity changes iff its inputs do;
* :mod:`repro.store.cache` — :class:`ResultStore`, an on-disk JSON
  store with durable atomic writes and ``stats``/``gc``/``clear``
  maintenance.

:func:`repro.analysis.run_parallel` writes each unit to the store the
moment it finishes, so the store is also the checkpoint: a killed run
reruns through the same store and recomputes only the units that had
not finished.  The CLI surface is ``repro study --cache-dir`` and
``repro cache {stats,gc,clear}``.  See ``docs/CACHING.md`` for the
layout and the invalidation contract.
"""

from .fingerprint import (
    CODE_VERSION,
    canonical_encode,
    fingerprint_instance,
    fingerprint_unit,
)
from .cache import ResultStore, StoreCorruptionError, StoreStats

__all__ = [
    "CODE_VERSION",
    "canonical_encode",
    "fingerprint_instance",
    "fingerprint_unit",
    "ResultStore",
    "StoreCorruptionError",
    "StoreStats",
]
