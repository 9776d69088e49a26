"""The README quick start runs, the package exports exactly what the
quick start and the demos import from ``effectsym``, and the module map
names only what its modules define."""

import ast
import importlib
import re
from pathlib import Path

import effectsym

ROOT = Path(__file__).resolve().parent.parent


def readme_python_blocks() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def names_imported_from_package(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "effectsym"
        for alias in node.names
    }


def test_readme_quick_start_runs(capsys):
    blocks = readme_python_blocks()
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_public_surface_is_what_the_demos_and_readme_import():
    sources = readme_python_blocks() + [p.read_text(encoding="utf-8") for p in (ROOT / "demos").glob("*.py")]
    used = set().union(*map(names_imported_from_package, sources))
    assert sorted(effectsym.__all__) == sorted(used)
    assert all(hasattr(effectsym, name) for name in used)


def test_module_map_names_resolve():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Module map\n", 1)[1].split("\n## ", 1)[0]
    bullets = [b for b in re.split(r"^- ", section, flags=re.MULTILINE) if b.startswith("`effectsym.")]
    assert len(bullets) >= 9
    for bullet in bullets:
        names = re.findall(r"`([^`]+)`", bullet)
        modules = [importlib.import_module(n) for n in names if n.startswith("effectsym.")]
        for name in filter(str.isidentifier, names):
            assert any(hasattr(m, name) for m in modules), f"{name} is not in {bullet.split()[0]}"
