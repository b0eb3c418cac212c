"""Exact graph-pattern counting toolkit.

Counts edge-injective homomorphisms, matchings (plain, colorful, perfect)
and related quantities, both by brute-force oracles and by the
polynomial-time / reduction-pipeline routes whose identities the oracles
certify.

Nothing below is imported with the package: a public name, or a submodule
such as ``eicount.holant``, loads its module the first time it is looked up
(PEP 562), so a command-line call compiles only the modules its route runs.
"""

from importlib import import_module

# each public name, listed under the submodule that defines it
_EXPORTS = {
    "_backend": ["BACKEND"],
    "graphs": ["Graph", "line_graph", "make_pattern", "parse_graph",
               "quotient", "serialize_graph", "subdivide",
               "vertex_cover_number"],
    "oracles": ["count_edginj", "count_edginj_weighted", "count_emb",
                "count_hom", "count_matchings", "count_odd_edge_sets_enum",
                "count_perfect_matchings", "count_query", "is_isomorphic"],
    "eihom": ["count_edginj_poly", "count_emb_small_vc", "reduce_isolated"],
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name)
    if home is not None:
        return getattr(import_module(f"{__name__}.{home}"), name)
    try:
        return import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
