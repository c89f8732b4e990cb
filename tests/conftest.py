"""One session fixture per bundled config: ``<stem>_cfg`` is the RunConfig of
``configs/<stem>.json``, loaded once. A test that needs a variant edits a
deep copy of the fixture's ``raw`` dict and loads it with
``RunConfig.from_dict``."""

from pathlib import Path

import pytest

from flagdyn.config import RunConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _config_fixture(path):
    @pytest.fixture(scope="session", name=f"{path.stem}_cfg")
    def config():
        return RunConfig.load(path)
    return config


for _path in sorted(CONFIGS.glob("*.json")):
    globals()[f"{_path.stem}_cfg"] = _config_fixture(_path)
