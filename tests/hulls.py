"""Facet sets shared by the test modules, which read the hulls of the same
instances many times over.

`facets(inst)` is `hull.enumerate_facets(inst)`, kept for the 256 most
recently used instances; the package itself caches no hull.
"""

from functools import lru_cache

from mixcut import hull

facets = lru_cache(maxsize=256)(hull.enumerate_facets)
