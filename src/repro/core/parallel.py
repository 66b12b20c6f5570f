"""Compatibility alias: :class:`SeqlockArena` now lives in :mod:`repro.serve.shm`.

Only ``perfbench/probe.py`` imports the arena from here; this module
goes with the next benchmark change, once the probe imports it from
:mod:`repro.serve.shm` directly.
"""

from repro.serve.shm import SeqlockArena

__all__ = ["SeqlockArena"]
