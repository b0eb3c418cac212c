import os

import pytest


@pytest.fixture(autouse=True)
def _default_caps(monkeypatch):
    """Every test starts from the default caps: an ``EICOUNT_*`` override
    exported in the shell cannot change a result."""
    for name in [k for k in os.environ if k.startswith("EICOUNT_")]:
        monkeypatch.delenv(name)
