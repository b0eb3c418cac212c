"""Enumeration caps for the brute-force oracles.

All oracles are exact but exponential; the caps below bound their inputs or
the work they do, so that exceeding a cap raises :class:`CapExceeded`
instead of silently running forever.  Every cap can be overridden through
an environment variable ``EICOUNT_<NAME>`` holding an integer, e.g.
``EICOUNT_PATTERN_CAP=10``.
"""

import os

_DEFAULTS = {
    # max |V(H)| for the partition-sum oracle (Bell(|V(H)|) partitions)
    "PATTERN_CAP": 8,
    # max |E(G)| for edge-subset oracles (odd edge-sets by enumeration)
    "EDGE_SUBSET_CAP": 24,
    # max |V(G)| for exhaustive vertex-cover search
    "VERTEX_COVER_CAP": 24,
    # max memoised states (unmatched-vertex sets reached, dead ends included)
    # of the perfect-matching counter; 10^6 states take about 10 s and
    # 110 MB (a random cubic graph on 120 vertices, Python 3.11), while the
    # 162-vertex collar encoding of the prism needs 1,700
    "PERFMATCH_CAP": 10**6,
    # max candidate images the hom/emb/edginj map search tries, summed over
    # its nodes; at roughly 10^6 per second, 10^7 take about 10 s
    "SEARCH_VOLUME_CAP": 10**7,
    # max |V(G)| for brute-force isomorphism search
    "ISO_CAP": 24,
    # max colorful assignments enumerated by col_holant and col_sig
    "HOLANT_CAP": 2 * 10**6,
}


class CapExceeded(Exception):
    """An oracle was asked for an instance beyond its enumeration cap."""


def cap(name: str) -> int:
    env = os.environ.get("EICOUNT_" + name)
    if env is not None:
        return int(env)
    return _DEFAULTS[name]


def check_cap(name: str, value: int) -> None:
    limit = cap(name)
    if value > limit:
        raise CapExceeded(f"{name}: {value} exceeds cap {limit}")
