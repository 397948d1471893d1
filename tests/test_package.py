"""The package namespace re-exports exactly the public names of its modules,
and README's library example runs as written."""

import re
from pathlib import Path

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


def test_readme_library_example_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
