"""Import hygiene of the package sources, checked on their syntax trees alone
(the package is located, not imported, so a broken export fails here by name),
and the import footprint of a run, checked in a fresh interpreter."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(importlib.util.find_spec("echotrain").submodule_search_locations[0])
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree):
    """(bound name, line) of every module-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def defined_names(tree):
    """Every name a module binds at its top level."""
    names = {name for name, _ in imported_names(tree)}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line}: {name}" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_every_name_the_package_exports_resolves():
    missing = []
    for node in parse(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.ImportFrom):
            have = defined_names(parse(PACKAGE / f"{node.module}.py"))
            missing += [f"{node.module}.{a.name}" for a in node.names if a.name not in have]
    assert not missing, "unresolved exports: " + ", ".join(missing)


def private_definitions(tree):
    """(name, line) of every module-level private function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node.lineno) for name in names
                    if name.startswith("_") and not name.startswith("__"))


def used_names(trees):
    """Every name the trees read, bare or as an attribute."""
    used = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_private_definition_is_used_in_the_package():
    # a private helper kept alive only by a test is dead code: delete it
    trees = {p.name: parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    used = used_names(trees.values())
    unused = [f"{module}:{line}: {name}" for module, tree in trees.items()
              for name, line in private_definitions(tree) if name not in used]
    assert not unused, "private definitions nothing in the package uses: " + ", ".join(unused)


def test_every_public_export_is_used_in_the_package_or_a_demo():
    # an export only a test calls is a second, unused API: delete it
    demos = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    used = used_names(parse(p) for p in MODULES + demos)
    exported = [a.name for node in parse(PACKAGE / "__init__.py").body
                if isinstance(node, ast.ImportFrom) for a in node.names]
    unused = [name for name in exported if name not in used]
    assert not unused, "exports nothing in the package or its demos uses: " + ", ".join(unused)


def test_the_package_keeps_its_line_budget():
    # counted as `wc -l src/echotrain/*.py` counts them: newline characters
    lines = sum(p.read_bytes().count(b"\n") for p in PACKAGE.glob("*.py"))
    assert lines <= 2784, (f"src/echotrain/*.py has {lines} lines, over the budget of 2784 "
                           "that ROADMAP.md item 5 (aim 2, lean core) sets: pay for new "
                           "code with deletions")


def heavy_modules_after(code):
    """The scipy and numpy.ma modules loaded once `code` has run in a fresh
    interpreter.  numpy.ma is about 1 MB of peak RSS, and numpy loads it on
    first use of some functions (np.unique among them)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p))
    code += "\nimport sys\nprint(*(m for m in sys.modules if m.startswith(('scipy', 'numpy.ma.'))))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_importing_the_package_loads_no_scipy():
    # scipy.signal and scipy.stats took most of a run's start-up time and memory
    assert heavy_modules_after("import echotrain, echotrain.cli") == set()


def test_every_bundled_run_loads_no_scipy():
    # the package's runtime needs numpy alone: building every config, an
    # optical_labels iteration (its label quantiles) and a 40 kHz forward and
    # backward pass (on the partitioned FFT engine: test_system's
    # test_feedback_path_follows_block_times_live_lags) load no scipy, and
    # no numpy.ma either
    loaded = heavy_modules_after("""
from dataclasses import replace
import numpy as np
from echotrain.cli import ConfigFile, build_experiment, bundled_config_names, resolve_config_path
from echotrain.signal import Signal
from echotrain.system import backward, forward
from echotrain.training import train
for name in bundled_config_names():
    e = build_experiment(ConfigFile.parse(resolve_config_path(name)))
    if name == "optical_labels":
        train(e.system, e.template, e.task, replace(e.train_cfg, iterations=1),
              np.random.default_rng(e.seed))
    if name == "acoustic_delay_task_40khz":
        rng = np.random.default_rng(0)
        s = Signal(rng.standard_normal((1, 5000)), e.system.dt)
        tr = forward(e.system, s)
        backward(e.system, tr, Signal(rng.standard_normal((1, 5000)), e.system.dt))
""")
    assert loaded == set()

