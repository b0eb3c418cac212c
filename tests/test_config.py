"""The one cap mechanism: every search charges its work through
``config.charge``, and a meter sums the charges of a whole command."""

import ast
import re
from pathlib import Path

import pytest

from eicount import config, reductions
from eicount import oracles as O
from eicount.config import CapExceeded, charge, meter
from eicount.graphs import make_pattern, minimum_vertex_cover
from eicount.holant import build_gamma, col_sig

K4 = make_pattern("K", 4)

# each cap, one small input, its answer and the work it charges
CHARGES = {
    # K_4's 6 edges split 3 + 3: 2^3 + 2^3 subsets tabulated
    "EDGE_SUBSET_CAP": (lambda: O.count_odd_edge_sets_enum(K4), 8, 16),
    # 1 + 4 + 6 subsets of sizes 0..2, then {0, 1, 2}
    "VERTEX_COVER_CAP": (lambda: minimum_vertex_cover(K4), {0, 1, 2}, 12),
    # the full set, two branches of vertex 0's three, and the empty set
    "PERFMATCH_CAP": (lambda: O.count_perfect_matchings(K4), 3, 5),
    # 3 images for the first end of the edge, 2 for the other per first
    "SEARCH_VOLUME_CAP": (lambda: O.count_emb(make_pattern("P", 1),
                                              make_pattern("K", 3)), 6, 9),
    # one node per vertex of C_4 placed, and the complete mapping
    "ISO_CAP": (lambda: O.is_isomorphic(make_pattern("C", 4),
                                        make_pattern("Kab", 2, 2)), True, 5),
    # colors (1,3) and (1,4) leave 4 x 4 assignments to enumerate
    "HOLANT_CAP": (lambda: col_sig(build_gamma(
        1, [("e", j) for j in range(4)], 2), {1, 2}), 6, 16),
}


def test_every_cap_has_a_pinned_charge():
    assert set(CHARGES) == set(config._DEFAULTS)


@pytest.mark.parametrize("name", sorted(CHARGES))
def test_cap_passes_at_its_charge(monkeypatch, name):
    run, want, work = CHARGES[name]
    monkeypatch.setenv("EICOUNT_" + name, str(work))
    assert run() == want
    with meter():
        run()
        assert config._spent.get()[name] == work
    monkeypatch.setenv("EICOUNT_" + name, str(work - 1))
    with pytest.raises(CapExceeded, match=f"^{name}: .* exceed cap {work - 1}$"):
        run()


def test_meter_sums_the_charges_of_one_budget(monkeypatch):
    monkeypatch.setenv("EICOUNT_ISO_CAP", "9")
    charge("ISO_CAP", 5, "search nodes")
    charge("ISO_CAP", 5, "search nodes")  # outside a meter: alone
    with meter():
        charge("ISO_CAP", 5, "search nodes")
        with pytest.raises(CapExceeded, match="10 search nodes exceed cap 9"):
            charge("ISO_CAP", 5, "search nodes")
    charge("ISO_CAP", 5, "search nodes")  # the meter closed with its block


def test_pipeline_searches_share_one_budget(monkeypatch):
    # ec_cycles_via_paths makes 16 searches on K_4 that try 2,912 images
    # in all, none more than 774
    monkeypatch.setenv("EICOUNT_SEARCH_VOLUME_CAP", "1000")
    assert reductions.ec_cycles_via_paths(K4, 3) == 4
    with meter(), pytest.raises(CapExceeded, match="SEARCH_VOLUME_CAP"):
        reductions.ec_cycles_via_paths(K4, 3)
    monkeypatch.setenv("EICOUNT_SEARCH_VOLUME_CAP", "2912")
    with meter():
        assert reductions.ec_cycles_via_paths(K4, 3) == 4
        assert config._spent.get() == {"SEARCH_VOLUME_CAP": 2912}


def test_only_config_decides_a_cap():
    # every other module charges named caps through config.charge and
    # config.left; none reads a cap or words a cap message itself
    src = Path(config.__file__).parent
    charged = set()
    for path in sorted(src.glob("*.py")):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id != "cap", f"{path.name}:{node.lineno} cap()"
                if node.func.id in ("charge", "left"):
                    name = node.args[0].value
                    assert name in config._DEFAULTS, f"{path.name}:{node.lineno}"
                    charged.add(name)
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert not re.search(r"_CAP:|exceeds? cap", node.value), \
                    f"{path.name}:{node.lineno} cap message"
    assert charged == set(config._DEFAULTS)
