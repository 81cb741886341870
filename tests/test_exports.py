import importlib
import pkgutil

import pytest

import crnn_forecast

MODULES = [info.name for info in pkgutil.iter_modules(crnn_forecast.__path__)]


def test_every_module_is_checked():
    assert {"cli", "data", "evaluation", "models", "training"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"crnn_forecast.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
