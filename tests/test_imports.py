"""Stdlib stand-ins for six linter rules, and the package root's imports.

Every name a module imports is used, every module-level private
function or constant is referenced outside its own definition, every
module-level public function or class has a caller in the package or
the benchmark (or a place on an allowlist), only the JSON and CSV
writers open files for writing, the README lists exactly the keys
that ``ptjc pseudo`` writes and that a ``ptjc compare``, ``ptjc evolve``
or ``ptjc pseudo`` config takes (and the evolve ``rhs`` names), all read
from the commands' key tables, and every
``ptjc`` module and name the README backticks exists.  ``import ptjc``
loads every module but the CLI and re-exports no name.
"""

import ast
import fnmatch
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ptjc
from ptjc.cli import _BINDERS, _COMPARE, _EVOLVE, _MODULATION, _PSEUDO, main

PACKAGE = sorted(Path(ptjc.__file__).parent.glob("*.py"))
# The package __init__ imports its modules only to load them.
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
BENCHMARK = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
README = Path(__file__).parents[1] / "README.md"


def test_package_root_loads_every_module_and_re_exports_no_name():
    # names are imported from their modules; the root's one job is to load them
    probe = ("import sys, types, ptjc\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'ptjc'))\n"
             "print(sorted(n for n, v in vars(ptjc).items()\n"
             "             if not n.startswith('_') and not isinstance(v, types.ModuleType)))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(ptjc.__file__).parents[1])}
    loaded, names = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                   capture_output=True, text=True).stdout.splitlines()
    assert loaded == str(["ptjc"] + [f"ptjc.{p.stem}" for p in MODULES if p.stem != "cli"])
    assert names == "[]"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements of ``source`` that no expression loads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_finds_a_stale_import():
    source = "from typing import Optional, Union\nimport numpy as np\nx: Optional[int] = np.pi\n"
    assert unused_imports(source) == ["Union (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def orphaned_privates(sources: list[str]) -> list[str]:
    """Module-level ``_private`` functions and constants that nothing else loads.

    A name counts as referenced when any statement of any source other
    than its own definition loads it, bare or as an attribute.
    """
    defined, loaded = {}, set()
    for source in sources:
        for stmt in ast.parse(source).body:
            if isinstance(stmt, ast.FunctionDef):
                own = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                own = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                own = set()
            defined.update((name, stmt.lineno) for name in own if name.startswith("_")
                           and not name.startswith("__"))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name not in own:
                    loaded.add(name)
    return sorted(f"{name} (line {line})" for name, line in defined.items() if name not in loaded)


def test_finds_an_orphaned_private():
    source = ("_LIMIT = 2\n_USED = 3\n\ndef _recurse(n):\n    return _recurse(n - 1)\n\n"
              "def f():\n    return _USED\n")
    other = "from mod import _LIMIT\nprint(mod._LIMIT)\n"
    assert orphaned_privates([source]) == ["_LIMIT (line 1)", "_recurse (line 4)"]
    assert orphaned_privates([source, other]) == ["_recurse (line 4)"]


def test_no_orphaned_privates():
    assert orphaned_privates([p.read_text(encoding="utf-8") for p in PACKAGE]) == []


# Public names with no caller yet, each with the ROADMAP item that gives it one.
UNCALLED_PUBLIC = {
    "quasi_basis_check": "item 7",
    "t_alpha_diagonalization_check": "item 7",
    "pseudo_algebra_residuals": "item 7",
    "build_subspace_hamiltonian": "item 11",
}


def orphaned_publics(sources: dict[str, str], callers: list[str]) -> list[str]:
    """Module-level public functions and classes of ``sources`` that nothing else loads.

    ``sources`` maps module file names to their text.  A name counts as
    loaded when a statement of ``sources`` other than its own definition,
    or any of ``callers``, loads it bare or as an attribute, or holds it
    as a string constant (the benchmark wraps functions by name).
    """
    defined, loaded = {}, set()
    for module, source in list(sources.items()) + [(None, text) for text in callers]:
        for stmt in ast.parse(source).body:
            own = set()
            if module and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = {stmt.name}
                if not stmt.name.startswith("_"):
                    defined[stmt.name] = (module, stmt.lineno)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                if name not in own:
                    loaded.add(name)
    return sorted(f"{module} {name} (line {line})" for name, (module, line) in defined.items()
                  if name not in loaded)


def test_finds_an_orphaned_public():
    source = ("class Used:\n    pass\n\n"
              "def orphan(n):\n    return orphan(n - 1)\n\n"
              "def wrapped():\n    return Used()\n\n"
              "def _private():\n    pass\n")
    caller = "TARGETS = [('mod', 'wrapped')]\n"
    assert orphaned_publics({"mod.py": source}, []) == [
        "mod.py orphan (line 4)", "mod.py wrapped (line 7)"]
    assert orphaned_publics({"mod.py": source}, [caller]) == ["mod.py orphan (line 4)"]


def test_no_orphaned_publics():
    found = orphaned_publics({p.name: p.read_text(encoding="utf-8") for p in MODULES},
                             [p.read_text(encoding="utf-8") for p in BENCHMARK])
    assert [entry for entry in found if entry.split()[1] not in UNCALLED_PUBLIC] == []
    assert sorted(entry.split()[1] for entry in found) == sorted(UNCALLED_PUBLIC)


# The only functions that open files for writing: output formats live in one place.
FILE_WRITERS = {("cli.py", "_dump_json"), ("dynamics.py", "write_csv")}


def stray_writes(sources: dict[str, str]) -> list[str]:
    """``open`` calls with a write mode outside the module-level FILE_WRITERS.

    ``sources`` maps module file names to their text.  Both ``open(...)``
    and ``<expr>.open(...)`` count; a mode that is not a string literal
    counts as a write.
    """
    found = []
    for name, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, ast.FunctionDef) and (name, stmt.name) in FILE_WRITERS:
                continue
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                bare = isinstance(node.func, ast.Name)  # open(file, mode), else x.open(mode)
                if (node.func.id if bare else getattr(node.func, "attr", None)) != "open":
                    continue
                at = 1 if bare else 0
                mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                            node.args[at] if len(node.args) > at else ast.Constant("r"))
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                        and not set(mode.value) & set("wax+")):
                    found.append((name, node.lineno))
    return [f"{name} line {line}" for name, line in sorted(found)]


def test_finds_a_stray_write():
    source = ("def write_csv(path):\n"
              "    open(path, 'w')\n"
              "\n"
              "def other(path, how):\n"
              "    with open(path, mode='a') as fh:\n"
              "        fh.write(open(path).read() + open(path, 'rb').read())\n"
              "    path.open('wb')\n"
              "    path.open()\n"
              "    open(path, how)\n"
              "\n"
              "open('log', 'r+')\n")
    assert stray_writes({"dynamics.py": source}) == [
        "dynamics.py line 5", "dynamics.py line 7", "dynamics.py line 9", "dynamics.py line 11"]
    assert stray_writes({"cli.py": source}) == [
        "cli.py line 2", "cli.py line 5", "cli.py line 7", "cli.py line 9", "cli.py line 11"]


def test_only_the_json_and_csv_writers_write_files():
    assert stray_writes({p.name: p.read_text(encoding="utf-8") for p in PACKAGE}) == []


PSEUDO_KEYS_SENTENCE = "`pseudo.json` holds exactly these keys:"
CONFIG_KEYS_SENTENCE = "Config keys, all optional:"
RHS_SENTENCE = "`rhs` selects the right-hand side:"


def documented_keys(readme: str, opener: str = PSEUDO_KEYS_SENTENCE) -> dict:
    """The key tree of the README sentence that opens with ``opener``.

    Backticked names outside parentheses are top-level keys; the
    backticked names inside the parentheses that follow a key are its
    nested keys.  Leaves map to None.  The sentence ends at the first
    full stop outside parentheses and backticks.
    """
    paragraph = readme.split(opener, 1)[1].split("\n\n", 1)[0]
    tree, depth, last = {}, 0, None
    for token in re.findall(r"`([^`]*)`|([()])|(\.(?:\s|$))", paragraph):
        name, paren, stop = token
        if stop:
            if depth == 0:
                break
        elif paren:
            depth += 1 if paren == "(" else -1
        elif depth == 0:
            tree[name] = None
            last = name
        else:
            tree[last] = {**(tree[last] or {}), name: None}
    return tree


def key_tree(payload: dict) -> dict:
    return {k: key_tree(v) if isinstance(v, dict) else None for k, v in payload.items()}


def test_finds_drift_in_the_documented_keys():
    readme = ("Intro `pseudo.json` and `alpha`.\n\n"
              + PSEUDO_KEYS_SENTENCE + " `alpha`, `cond2` (the exact condition\n"
              "number of S), `metric_residuals` (`identity_abs_max`,\n`probe_count`) and "
              "`generated_by`.\n\nLater `energies`.\n")
    written = {"alpha": 0.5, "cond2": 2.0, "metric_residuals": {"identity_abs_max": 0.0},
               "generated_by": "ptjc"}
    assert documented_keys(readme) == {
        "alpha": None, "cond2": None, "generated_by": None,
        "metric_residuals": {"identity_abs_max": None, "probe_count": None}}
    assert documented_keys(readme) != key_tree(written)
    assert documented_keys(readme.replace(",\n`probe_count`", "")) == key_tree(written)


def test_finds_drift_in_the_compare_config_keys():
    # a key the parser no longer takes fails the lint; a name in parentheses
    # or after the sentence's full stop is not a key
    readme = (CONFIG_KEYS_SENTENCE + " `n`, `periods`,\n`measure` "
              "(`slow`. or `printed`), `beta`.  Later `ratios`.\n")
    keys = {"n", "measure", "beta"}
    assert set(documented_keys(readme, CONFIG_KEYS_SENTENCE)) == keys | {"periods"}
    assert set(documented_keys(readme.replace(" `periods`,", ""), CONFIG_KEYS_SENTENCE)) == keys


def test_readme_lists_the_pseudo_json_keys(tmp_path):
    (tmp_path / "small.json").write_text(json.dumps({"boson_levels": 8}), encoding="utf-8")
    assert main(["pseudo", "--config", str(tmp_path / "small.json"),
                 "--output-dir", str(tmp_path)]) == 0
    written = json.loads((tmp_path / "pseudo.json").read_text(encoding="utf-8"))
    assert documented_keys(README.read_text(encoding="utf-8")) == key_tree(written)


@pytest.mark.parametrize("command, table", [("compare", _COMPARE), ("pseudo", _PSEUDO)])
def test_readme_lists_the_config_keys(command, table):
    section = README.read_text(encoding="utf-8").split(f"\n### {command}\n", 1)[1]
    assert set(documented_keys(section, CONFIG_KEYS_SENTENCE)) == set(table)


def test_readme_lists_the_evolve_config_keys_and_rhs_names():
    section = README.read_text(encoding="utf-8").split("\n### evolve\n", 1)[1]
    example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    assert set(example) == set(_EVOLVE)
    assert set(example["modulation"]) == set(_MODULATION)
    assert set(documented_keys(section, RHS_SENTENCE)) == set(_BINDERS)


def readme_package_names(readme: str) -> list[str]:
    """Every backticked ``ptjc.<module>`` or ``ptjc.<module>.<name>``, in order.

    A backticked call such as ``ptjc.kernels.rk4_linear(...)`` names ``rk4_linear``.
    """
    return re.findall(r"`(ptjc\.\w+(?:\.[\w*]+)?)", readme)


def unresolved(names: list[str]) -> list[str]:
    """The ``names`` whose module does not import or has no attribute matching the name.

    A ``*`` in the name matches as a glob, as in ``ptjc.dynamics.bind_*_rhs``.
    """
    missing = []
    for dotted in names:
        _, module, *name = dotted.split(".")
        try:
            attrs = dir(importlib.import_module(f"ptjc.{module}"))
        except ImportError:
            attrs = []
        if not attrs or (name and not fnmatch.filter(attrs, name[0])):
            missing.append(dotted)
    return missing


def test_finds_a_readme_name_that_does_not_exist():
    readme = ("`ptjc.dynamics.bind_*_rhs` and `ptjc.kernels.rk4_linear(rhs.matrix, ...)` exist;\n"
              "`ptjc.dynamics.InitialState`, `ptjc.nowhere` and `ptjc.jc.t_*_block` do not,\n"
              "and ptjc.dynamics.Gone outside backticks is prose.\n")
    names = readme_package_names(readme)
    assert names == ["ptjc.dynamics.bind_*_rhs", "ptjc.kernels.rk4_linear",
                     "ptjc.dynamics.InitialState", "ptjc.nowhere", "ptjc.jc.t_*_block"]
    assert unresolved(names) == ["ptjc.dynamics.InitialState", "ptjc.nowhere",
                                 "ptjc.jc.t_*_block"]


def test_readme_names_only_names_that_exist():
    names = readme_package_names(README.read_text(encoding="utf-8"))
    assert names and unresolved(names) == []
