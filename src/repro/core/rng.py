"""Counter-based deterministic randomness for the whole repository.

Every stochastic choice the simulation stack makes — which node a fault
plan crashes, whether a transfer attempt fails, where a hash placement
puts a chunk, how an ablation schedule shuffles its pairs — must be a
pure function of an explicit ``(seed, counter)`` pair.  Stateful RNGs
(``random.Random``, a shared ``np.random`` global) make a draw's value
depend on *how many draws happened before it*, which couples logically
independent subsystems through hidden state and breaks byte-identical
replay the moment any consumer adds or removes a draw.

This module is the single home of the splitmix64 mixer everything else
derives from; :mod:`repro.faults` re-exports :func:`splitmix64` for
backwards compatibility.  Simulation code draws through these helpers
(or an explicitly seeded ``np.random.default_rng``), never through wall
clocks or unseeded RNGs; the replay gates (the fence, the determinism
tests) fail when it does (DESIGN.md §7.1).
"""

from __future__ import annotations

from typing import List, Sequence, TypeVar

__all__ = ["splitmix64", "uniform", "choose", "deterministic_shuffle"]

_MASK = 2**64 - 1

T = TypeVar("T")


def splitmix64(seed: int, counter: int) -> int:
    """The ``counter``-th draw of a splitmix64 stream seeded with ``seed``.

    Counter-based (no hidden state) so concurrent consumers can draw
    deterministically regardless of process interleaving.
    """
    z = (seed * 0xFF51AFD7ED558CCD + (counter + 1) * 0x9E3779B97F4A7C15) & _MASK
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def uniform(seed: int, counter: int) -> float:
    """Uniform [0, 1) draw number ``counter`` from the seed's stream."""
    return splitmix64(seed, counter) / 2.0**64


def choose(seed: int, counter: int, n: int) -> int:
    """Deterministically choose an index in ``[0, n)``."""
    if n <= 0:
        raise ValueError(f"cannot choose from {n} options")
    return splitmix64(seed, counter) % n


def deterministic_shuffle(items: Sequence[T], seed: int) -> List[T]:
    """Fisher–Yates shuffle driven by counter-based splitmix64 draws.

    Unlike ``random.Random(seed).shuffle`` the output depends only on
    ``(items, seed)`` and this module's mixer — not on the Python
    standard library's Mersenne Twister internals — so shuffled
    schedules replay byte-identically everywhere the repo runs.
    """
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = splitmix64(seed, i) % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out
