"""The package namespace re-exports exactly the public names of its modules,
README's library example runs as written, and the source-size tool counts
the package from any directory."""

import re
import shutil
import subprocess
import sys
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


def test_src_lines_counts_the_package_from_any_directory(tmp_path):
    tool = Path(__file__).parents[1] / "tools" / "src_lines.py"

    def run(script, cwd):
        return subprocess.run([sys.executable, str(script)], cwd=cwd,
                              capture_output=True, text=True)
    at_root, elsewhere = run(tool, tool.parents[1]), run(tool, tmp_path)
    assert at_root.returncode == elsewhere.returncode == 0
    total = at_root.stdout.splitlines()[-1]
    assert total.startswith("total code, docstring, comment: ")
    assert int(total.split()[-3]) > 0
    assert elsewhere.stdout == at_root.stdout
    (tmp_path / "tools").mkdir()   # a copy with no src/puflab beside it
    alone = run(shutil.copy(tool, tmp_path / "tools"), tmp_path)
    assert alone.returncode == 1 and "no module found" in alone.stderr
