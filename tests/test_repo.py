import ast
import importlib.metadata
import os
import re
import subprocess
import sys
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


def test_the_package_runs_on_numpy_alone():
    # the runtime needs numpy and the standard library only; scipy is the
    # tests' oracle, so it sits in the test extra and no import of the
    # package, lazy or not, may load it
    tomllib = pytest.importorskip("tomllib")
    requirements = pytest.importorskip("packaging.requirements")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [requirements.Requirement(entry).name for entry in project["dependencies"]] == [
        "numpy"]
    allowed = {*sys.stdlib_module_names, "numpy", "sonarray"}
    foreign = []
    for path in sorted((ROOT / "src" / "sonarray").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.relative_to(ROOT)}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert foreign == []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, sonarray.cli; print(*sys.modules)"],
        env=env, capture_output=True, text=True)
    assert loaded.returncode == 0, loaded.stderr
    assert [name for name in loaded.stdout.split() if name.startswith("scipy")] == []


def definitions_and_references():
    """Top-level definitions of the package, and the names referenced in the
    package or the benchmark (its test file excluded).

    A definition maps a name a top-level statement of a package module
    defines (a def or class, or an assignment target) to the statement and
    its path.  A reference is a Name or Attribute node outside the
    statements that define that name.
    """
    sources = sorted((ROOT / "src" / "sonarray").rglob("*.py"))
    bench = [p for p in sorted((ROOT / "perfbench").glob("*.py"))
             if not p.name.startswith("test_")]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources + bench}

    def owned(statement):
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            return {statement.name}
        targets = (statement.targets if isinstance(statement, ast.Assign)
                   else [statement.target] if isinstance(statement, ast.AnnAssign) else [])
        return {target.id for target in targets if isinstance(target, ast.Name)}

    defined = {name: (statement, path) for path in sources for statement in trees[path].body
               for name in owned(statement)}
    referenced = set()
    for tree in trees.values():
        for statement in tree.body:
            own = owned(statement)
            for node in ast.walk(statement):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name not in own:
                    referenced.add(name)
    return defined, referenced


def test_every_public_function_and_class_has_a_caller():
    defined, referenced = definitions_and_references()
    unused = sorted(name for name, (statement, _) in defined.items()
                    if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
                    and not name.startswith("_") and name not in referenced)
    assert unused == [], [f"{defined[n][1].relative_to(ROOT)}: {n}" for n in unused]


def test_every_public_constant_is_read():
    # a public UPPER_CASE module constant is read outside its own
    # assignment, so a deleted default cannot leave its constant behind
    defined, referenced = definitions_and_references()
    unread = sorted(name for name, (statement, _) in defined.items()
                    if isinstance(statement, (ast.Assign, ast.AnnAssign))
                    and re.fullmatch(r"[A-Z][A-Z0-9_]*", name) and name not in referenced)
    assert unread == [], [f"{defined[n][1].relative_to(ROOT)}: {n}" for n in unread]


def test_every_config_key_is_read():
    # a key is read when its name is a string literal in the package or the
    # benchmark (its test file excluded) outside the DEFAULTS table, so a
    # deleted code path cannot leave its knob behind
    from sonarray.cli import DEFAULTS

    sources = sorted((ROOT / "src" / "sonarray").rglob("*.py")) + [
        p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    literals = set()
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        table = {id(node) for statement in tree.body if isinstance(statement, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "DEFAULTS" for t in statement.targets)
                 for node in ast.walk(statement)}
        literals.update(node.value for node in ast.walk(tree)
                        if isinstance(node, ast.Constant) and isinstance(node.value, str)
                        and id(node) not in table)
    assert sorted(set(DEFAULTS) - literals) == []


def test_every_key_read_or_named_is_a_config_key():
    # a string literal passed as the key to get_float, get_int, get_bool or
    # ConfigError in the CLI or the benchmark (its test file excluded), or a
    # key FIELD_KEYS re-keys a library check to, is a DEFAULTS key or one of
    # the CLI's own sources, so a deleted key cannot stay read by the
    # benchmark or named in a message
    from sonarray.cli import DEFAULTS, FIELD_KEYS

    sources = [ROOT / "src" / "sonarray" / "cli.py"] + [
        p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    readers = {"get_float", "get_int", "get_bool", "ConfigError"}
    keys = [node.args[0].value for path in sources
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Call) and node.args
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in readers
            and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)]
    assert keys
    keys += FIELD_KEYS.values()
    assert sorted(set(keys) - set(DEFAULTS) - {"input", "config", "--set"}) == []


def test_only_the_cli_names_config_keys():
    # ConfigError, the error that names a config key, is referenced only in
    # the CLI, and no other module holds a string, or an f-string part, that
    # starts with a key's section ("grid.", "chirp.", ...), so the library
    # knows nothing of config keys or files and names its own fields
    from sonarray.cli import DEFAULTS

    sections = tuple({key.partition(".")[0] + "." for key in DEFAULTS if "." in key})
    package = ROOT / "src" / "sonarray"
    found = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = {getattr(node, field, None) for field in ("id", "attr", "name")}
            if "ConfigError" in names:  # a name, an attribute, an import or a class
                found.append(f"{path.name}: ConfigError")
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node.value.startswith(sections)):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []


def test_the_cli_reads_no_pipeline_constant():
    # the ping window's fixed decisions (WINDOW_S, FRAMES_PER_WINDOW, ...)
    # are read inside sonarray.pipeline, so every window check sits there
    # and the CLI keeps to config and I/O
    upper = re.compile(r"[A-Z][A-Z0-9_]*")
    tree = ast.parse((ROOT / "src" / "sonarray" / "cli.py").read_text())
    read = [node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "pipeline"
            and upper.fullmatch(node.attr)]
    read += [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "pipeline"
             for alias in node.names if upper.fullmatch(alias.name)]
    assert read == []


def test_every_top_level_import_is_used():
    # a name a package module imports at top level must be referenced in
    # that module, and "import a.b" by its dotted name a.b, so a deleted
    # code path cannot leave its import behind
    def dotted(node):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None

    unused = []
    for path in sorted((ROOT / "src" / "sonarray").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = [alias.asname or alias.name
                    for statement in tree.body
                    if isinstance(statement, (ast.Import, ast.ImportFrom))
                    and getattr(statement, "module", None) != "__future__"
                    for alias in statement.names]
        referenced = {dotted(node) for node in ast.walk(tree)
                      if isinstance(node, (ast.Name, ast.Attribute))}
        unused += [f"{path.relative_to(ROOT)}: {name}" for name in imported
                   if name not in referenced]
    assert unused == []


def test_package_top_level_binds_only_the_version():
    # modules import from the module that defines a name (sonarray.cli,
    # sonarray.geometry, ...), so sonarray/__init__.py re-exports nothing:
    # past its docstring it holds the __version__ assignment alone
    tree = ast.parse((ROOT / "src" / "sonarray" / "__init__.py").read_text())
    docstring, *statements = tree.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert [ast.dump(statement.targets[0]) if isinstance(statement, ast.Assign)
            else ast.dump(statement) for statement in statements] == [
        ast.dump(ast.Name("__version__", ast.Store()))]


def test_readme_key_table_is_the_config_table():
    # README's table of keys holds one row per DEFAULTS key with its default
    # string, so a removed or re-defaulted key fails until README follows
    from sonarray.cli import DEFAULTS

    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| key | default | read by |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key, default, _ = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((key.strip("`"), default.strip("`")))
    assert rows == list(DEFAULTS.items())



def test_readme_read_by_column_is_what_each_command_reads(tmp_path, monkeypatch):
    # each command runs once, on a one-ping stream for simulate, localize
    # and decode, with Config.values wrapped to record the keys it reads;
    # README's "read by" cell of each key lists exactly those commands
    from sonarray import cli

    read = set()

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    init = cli.Config.__init__

    def recording_init(self, values):
        init(self, values)
        self.values = Recording(self.values)

    monkeypatch.setattr(cli.Config, "__init__", recording_init)
    stream = str(tmp_path / "simulate" / "stream.bin")
    runs = {"psf": [], "scan": [], "chirp": [], "simulate": ["--set", "simulate.duration_s=0.1"],
            "localize": [stream], "decode": [stream]}
    readers = {key: set() for key in cli.DEFAULTS}
    for command, argv in runs.items():
        read.clear()
        assert cli.main([command, "--out", str(tmp_path / command), *argv]) == 0
        for key in read:
            readers[key].add(command)

    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| key | default | read by |") + 2
    column = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key, _, commands = (cell.strip() for cell in line.strip("|").split("|"))
        column[key.strip("`")] = set(commands.split(", "))
    assert column == readers
