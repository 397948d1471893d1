"""The package namespace re-exports exactly the public names of its modules."""

import puflab
from puflab import attack, bits, core, crp, features, metrics


def test_package_all_is_the_union_of_module_all():
    names = puflab.__all__
    assert len(names) == len(set(names))
    modules = (attack, bits, core, crp, features, metrics)
    assert set(names) == {"__version__"}.union(*(m.__all__ for m in modules))
    for module in modules:
        for name in module.__all__:
            assert getattr(puflab, name) is getattr(module, name)
    assert isinstance(puflab.__version__, str)
