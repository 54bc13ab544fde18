"""Every function the benchmark's layer table names exists where it says.

perfbench/layers.py wraps these targets for ``--trace 1`` and counts their
calls; a renamed or deleted library function would break tracing or silently
stop counting its layer.  The module is loaded by path and left unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()
TARGETS = sorted(
    {t for table in (layers.LAYERS, layers.COUNTED) for targets in table.values() for t in targets}
)


@pytest.mark.parametrize("target", TARGETS)
def test_layer_target_is_defined_on_its_owner(target):
    module, qualname = target.split(":")
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{target} is not defined on {owner!r}"
    assert callable(layers._resolve(target)[2])


def test_every_layer_has_targets():
    assert all(layers.LAYERS.values()) and all(layers.COUNTED.values())
