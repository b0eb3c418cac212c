"""Work caps for every exponential search.

The oracles, the searches of ``eihom`` and the Holant enumeration are
exact but exponential.  Each charges the work it does, in its own unit, to
one of the caps below through :func:`charge`, and a charge that takes a
cap's total past its limit raises :class:`CapExceeded` instead of running
on.  Inside a :func:`meter` the charges of every search are summed per
cap, so a pipeline of many searches shares one budget; the CLI runs each
command inside one meter.  Outside a meter each charge stands alone, so a
library call is bounded per search.

Every cap can be overridden through an environment variable
``EICOUNT_<NAME>`` holding an integer, e.g. ``EICOUNT_ISO_CAP=10``.
"""

import os
from contextlib import contextmanager
from contextvars import ContextVar

_DEFAULTS = {
    # max edge subsets the odd edge-set enumeration tabulates, 2^ceil(m/2) +
    # 2^floor(m/2) for m edges (meet in the middle); 2^12 + 2^12 admits
    # every graph on at most 24 edges
    "EDGE_SUBSET_CAP": 8192,
    # max candidate subsets the exhaustive vertex-cover search tries, or
    # nodes the search tree for the quotient covers of an eihom plan visits;
    # 10^6 subsets take about 1.2 s (K_{12,12}, Python 3.11)
    "VERTEX_COVER_CAP": 10**6,
    # max memoised states (unmatched-vertex sets reached, dead ends included)
    # of the perfect-matching counter; 10^6 states take about 10 s and
    # 110 MB (a random cubic graph on 120 vertices, Python 3.11), while the
    # 162-vertex collar encoding of the prism needs 1,700
    "PERFMATCH_CAP": 10**6,
    # max candidate images the hom/emb/edginj map search tries, edges the
    # matching enumerations try, or steps the eihom searches take (host
    # vertices tried and classes split by the cover placement, sub-partition
    # and allocation nodes, occupancy slots), summed over their nodes; at
    # roughly 10^6 per second, 10^7 take about 10 s
    "SEARCH_VOLUME_CAP": 10**7,
    # max search nodes of the brute-force isomorphism test; two random
    # 3-regular graphs on 24 to 96 vertices take about 400,000 per second
    # (Python 3.11), so 3 * 10^5 take under a second
    "ISO_CAP": 3 * 10**5,
    # max colorful assignments enumerated by col_holant and col_sig
    "HOLANT_CAP": 2 * 10**6,
}


class CapExceeded(Exception):
    """A search was asked for more work than its cap allows, or
    ``eihom.count_edginj_poly`` for a pattern past its cover bound."""


# cap name -> work charged to it in the open meter; None outside a meter
_spent: ContextVar = ContextVar("eicount_spent", default=None)


def cap(name: str) -> int:
    env = os.environ.get("EICOUNT_" + name)
    if env is not None:
        return int(env)
    return _DEFAULTS[name]


@contextmanager
def meter():
    """Sum the charges made inside the block, per cap, against one budget."""
    token = _spent.set({})
    try:
        yield
    finally:
        _spent.reset(token)


def left(name: str) -> int:
    """The work the cap ``name`` still allows: its limit less what the open
    meter has charged to it."""
    spent = _spent.get()
    return cap(name) - (spent.get(name, 0) if spent else 0)


def charge(name: str, amount: int, unit: str) -> None:
    """Charge ``amount`` of work, counted in ``unit``, to the cap ``name``;
    raise :class:`CapExceeded` if that takes its total past the limit."""
    spent = _spent.get()
    if spent is not None:
        amount = spent[name] = spent.get(name, 0) + amount
    limit = cap(name)
    if amount > limit:
        raise CapExceeded(f"{name}: {amount} {unit} exceed cap {limit}")

