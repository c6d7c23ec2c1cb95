import ast
import importlib.metadata
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def test_no_tracked_file_is_ignored():
    # build outputs (generated C, egg-info, caches) are matched by
    # .gitignore and must not be committed
    try:
        top = git("rev-parse", "--show-toplevel")
    except FileNotFoundError:
        pytest.skip("git not installed")
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git checkout of this repository")
    listed = git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout.split() == []


def test_build_requirements_are_installed():
    # no build step may need what an offline host cannot provide: every
    # [build-system] requirement must be met by an installed distribution
    tomllib = pytest.importorskip("tomllib")
    requirements = pytest.importorskip("packaging.requirements")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    unmet = []
    for entry in pyproject["build-system"]["requires"]:
        req = requirements.Requirement(entry)
        if req.marker is not None and not req.marker.evaluate():
            continue
        try:
            version = importlib.metadata.version(req.name)
        except importlib.metadata.PackageNotFoundError:
            unmet.append(f"{entry}: not installed")
            continue
        if not req.specifier.contains(version, prereleases=True):
            unmet.append(f"{entry}: {version} installed")
    assert unmet == []


def test_every_public_function_and_class_has_a_caller():
    # a reference is a Name or Attribute node in the package or in the
    # benchmark (its test file excluded) outside the definition itself;
    # sonarray/__init__.py re-exports are import aliases and strings, so
    # they do not count
    sources = sorted((ROOT / "src" / "sonarray").rglob("*.py"))
    bench = [p for p in sorted((ROOT / "perfbench").glob("*.py"))
             if not p.name.startswith("test_")]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources + bench}
    defined = {node.name: path for path in sources for node in trees[path].body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    referenced = set()
    for tree in trees.values():
        for statement in tree.body:
            owner = getattr(statement, "name", None)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    referenced.add(name)
    unused = sorted(set(defined) - referenced)
    assert unused == [], [f"{defined[n].relative_to(ROOT)}: {n}" for n in unused]
