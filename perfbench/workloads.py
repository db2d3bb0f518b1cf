"""Workload key sets for the qwk benchmark.

A key is ``(check, parts, g)``:

  ``routes``   ``parts`` are insertions d; the worker compares
               ``correlator(d, g)`` (commutator engine) with
               ``hurwitz_correlator(d, g)`` (closed Hurwitz formula).
  ``hurwitz``  ``parts`` are a partition mu; the worker compares
               ``one_part_number(g, mu)`` with
               ``aut_factor(mu) * factorization_count(g, mu, cap=7)``.

Key lists are generated here, in canonical order, without importing qwk.
The seed only permutes that order (see ``shuffled``): every memo table in qwk
is exhaustive, so the total work and the value hash do not depend on it.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations_with_replacement
from typing import Dict, List, Sequence, Tuple

Key = Tuple[str, Tuple[int, ...], int]


def theorem_grid(g_max: int = 2, n_max: int = 3, slack: int = 3) -> List[Key]:
    """The key set of ``qwk verify main-theorem`` at its defaults (g_max=2, n_max=3).

    Sum d <= 4g-3+n+slack, and only stable keys (2g-3+n >= 0).
    """
    keys = []
    for g in range(g_max + 1):
        for n in range(1, n_max + 1):
            if 2 * g - 3 + n < 0:
                continue
            cap = 4 * g - 3 + n + slack
            for d in combinations_with_replacement(range(max(cap, 0) + 1), n):
                if sum(d) <= cap:
                    keys.append(("routes", d, g))
    return keys


def partitions(d: int) -> List[Tuple[int, ...]]:
    """All partitions of d, parts descending."""
    out = []

    def rec(remaining: int, largest: int, prefix: Tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for first in range(min(remaining, largest), 0, -1):
            rec(remaining - first, first, prefix + (first,))

    rec(d, d, ())
    return out


def hurwitz_oracle(d_max: int = 7, g_max: int = 3) -> List[Key]:
    """Every partition of d <= d_max at every g <= g_max."""
    return [("hurwitz", mu, g)
            for d in range(1, d_max + 1) for mu in partitions(d)
            for g in range(g_max + 1)]


DEEP_KEYS: List[Key] = [("routes", d, 3) for d in
                        [(10,), (9, 2), (7, 4), (10, 1, 1), (6, 3, 1)]]

# name -> (keys, values must be nonzero)
WORKLOADS: Dict[str, Tuple[List[Key], bool]] = {
    "theorem-grid": (theorem_grid(), False),
    "deep-keys": (DEEP_KEYS, True),
    "hurwitz-oracle": (hurwitz_oracle(), False),
    # a few-second variant for the harness self-test; not in BENCHMARK.json
    "smoke": (theorem_grid(g_max=1) + hurwitz_oracle(d_max=4, g_max=1), False),
}


def key_str(key: Key) -> str:
    check, parts, g = key
    return f"{check}:{','.join(map(str, parts))}:g{g}"


def shuffled(keys: Sequence[Key], rng: random.Random) -> List[Tuple[int, Key]]:
    """(canonical index, key) pairs in an order drawn from ``rng``."""
    order = list(enumerate(keys))
    rng.shuffle(order)
    return order


def value_hash(workload: str, keys: Sequence[Key], values: Sequence[str]) -> str:
    """SHA-256 over "workload|key|value" lines in canonical key order."""
    h = hashlib.sha256()
    for key, value in zip(keys, values):
        h.update(f"{workload}|{key_str(key)}|{value}\n".encode())
    return h.hexdigest()
