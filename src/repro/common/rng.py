"""Deterministic random-number streams.

Every stochastic component of the simulator draws from its own named stream
derived from a single root seed, so that (a) whole-fleet simulations are
reproducible bit-for-bit, and (b) adding randomness to one component does not
perturb the draws seen by any other component.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.common.errors import ConfigurationError

__all__ = ["SeedSequenceFactory", "seed_index", "stream"]


class SeedSequenceFactory:
    """Derives independent, reproducible RNG streams from one root seed.

    Streams are identified by string names (plus optional integer indices),
    hashed into spawn keys, so the same ``(seed, name)`` pair always yields
    the same stream regardless of creation order.

    Example::

        rngs = SeedSequenceFactory(42)
        workload_rng = rngs.stream("workload", job_id=7)
        arena_rng = rngs.stream("zsmalloc")
    """

    def __init__(self, root_seed: int = 0):
        if root_seed < 0:
            raise ConfigurationError(
                f"root seed must be non-negative, got {root_seed}"
            )
        self.root_seed = int(root_seed)

    def stream(self, name: str, **indices: int) -> np.random.Generator:
        """Return the generator for the named stream.

        Args:
            name: a stable component name, e.g. ``"workload"``.
            **indices: optional integer coordinates (job id, machine id, ...)
                that distinguish sibling streams within a component.
        """
        key = name + "".join(f"/{k}={v}" for k, v in sorted(indices.items()))
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
        seq = np.random.SeedSequence([self.root_seed, *words])
        return np.random.default_rng(seq)

    def fork(self, name: str, **indices: int) -> "SeedSequenceFactory":
        """Return a child factory whose streams are disjoint from this one."""
        child = self.stream(name, **indices).integers(0, 2**31 - 1)
        return SeedSequenceFactory(int(child))


def stream(seed: int, name: str, **indices: int) -> np.random.Generator:
    """One-shot convenience wrapper around :class:`SeedSequenceFactory`."""
    return SeedSequenceFactory(seed).stream(name, **indices)


def seed_index(key: str, bits: int, absolute: bool = False) -> int:
    """A ``bits``-wide stream index for a job or machine name:
    ``hash(key)`` (its absolute value when ``absolute``) masked to
    ``bits`` bits.

    The values depend on ``PYTHONHASHSEED``: string hashing is salted
    per interpreter, so runs reproduce only under a fixed hash seed
    (the golden-digest tests pin ``PYTHONHASHSEED=0``).  A stable hash
    here would change every seeded output.
    """
    value = hash(key)
    if absolute:
        value = abs(value)
    return value & ((1 << bits) - 1)
