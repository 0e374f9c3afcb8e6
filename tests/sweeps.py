"""Multiset sweeps and cached word families shared across test modules.

`all_mults` lists the multisets a sweep runs over; `qs_words` caches
each family the module tests read, keyed by the multiplicity tuple so
lru_cache applies. The acceptance criteria read their families through
the package's own cache, `core._family_counts`, via `qstirling.verify`.
"""

from functools import lru_cache

import qstirling as q


def compositions(total):
    """All ordered sequences of positive integers summing to `total`."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def all_mults(max_K):
    """Every multiplicity vector with 1 <= K <= max_K."""
    return [m for K in range(1, max_K + 1) for m in compositions(K)]


@lru_cache(maxsize=None)
def qs_words(mult):
    """The full quasi-Stirling family of a multiset, as a tuple."""
    return tuple(q.enumerate_qs(q.MultisetSpec(mult)))
