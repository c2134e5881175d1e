"""Coherence bookkeeping shared by the L1 and L2 models.

TileLink expresses coherence through the permission lattice
(:mod:`repro.tilelink.permissions`); the L2's full-map directory (§3.4)
lives here.
"""

from repro.coherence.directory import DirectoryEntry

__all__ = ["DirectoryEntry"]
