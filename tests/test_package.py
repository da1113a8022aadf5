"""The package namespace, the README's library example and the CLI's
numpy-free paths, each run in a fresh interpreter so no module the test
session already imported hides what they load or need; and the sources,
parsed, for exported names that no module uses.
"""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# public module-level functions and classes that no src/ code names, and why
# each stays
UNNAMED_IN_SRC = {
    ("mixture", "score"): "the reference noised_score names; it goes with ScoreEval "
                          "once the benchmark stops counting its calls (ROADMAP item 1a)",
    ("mixture", "noised_mixture"): "perfbench/spans.py's COUNT_TARGETS looks it up by name and "
                                   "perfbench/run.py reads its count into mixtures_built, so "
                                   "every traced run needs it; it leaves src/ with ROADMAP "
                                   "item 1a, as the noised table's reference in the tests",
    ("monitor", "hoeffding_false_alarm"): "the false-alarm bound a calibrated switch rule "
                                          "would use, with SlopeNoiseModel; acceptance "
                                          "criterion 09 checks both, so they stay until "
                                          "a rule calls them (ROADMAP item 4)",
}

# public methods and properties of public classes that no src/ code reads as
# an attribute, and why each stays
UNREAD_IN_SRC = {
    ("monitor", "DiscrepancySeries", "has"): "perfbench/spans.py's _detections reads it to "
                                             "find the switch a traced run detected",
    ("schedules", "NoiseSchedule", "sigma"): "the accessor the README documents, and the "
                                             "tests' reference for the sigma table",
}


def run_fresh(code: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_hybridpar_loads_no_submodule_and_no_numpy(tmp_path):
    proc = run_fresh("import sys, hybridpar\n"
                     "print(sorted(m for m in sys.modules if m.startswith('hybridpar.')\n"
                     "             or m.split('.')[0] == 'numpy'))", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_library_example_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    proc = run_fresh(block, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_readme_library_example_imports_each_name_from_its_module(tmp_path):
    """As the README says: no name is taken from a module that only re-imports it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    names = [(node.module, alias.name) for node in ast.walk(ast.parse(block))
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    proc = run_fresh("import importlib\n"
                     f"for module, name in {names!r}:\n"
                     "    home = getattr(importlib.import_module(module), name).__module__\n"
                     "    print(module, name, home)", tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert len(rows) == len(names) >= 4
    assert [(module, name) for module, name, home in rows if home != module] == []


NUMERIC_MODULES = ("numpy", "hybridpar.engine", "hybridpar.mixture", "hybridpar.schedules")


def test_detect_and_config_parsing_load_no_numeric_module(tmp_path):
    """Importing the CLI, parsing documents that set no model key and running
    detect load neither numpy nor a module that imports it; a simulate in the
    same interpreter afterwards imports them and still writes its files.
    Importing the CLI builds no argument parser; the first main() call
    builds the one that every later call reuses."""
    (tmp_path / "switch.json").write_text('{"switch": {"L": 2, "tau_cap": 5, "k": 1}}',
                                          encoding="utf-8")
    (tmp_path / "series.csv").write_text(
        "t,rel_mae\n" + "".join(f"{9 - i},{1.0 / (i + 1)!r}\n" for i in range(10)),
        encoding="utf-8")
    proc = run_fresh(
        "import sys\n"
        "def loaded():\n"
        f"    return [m for m in {NUMERIC_MODULES!r} if m in sys.modules]\n"
        "import hybridpar.cli as cli\n"
        "print('loaded by import:', loaded())\n"
        "print('parsers built by import:', cli._build_parser.cache_info().misses)\n"
        "cli.load_config('switch.json')\n"
        "print('loaded by load_config:', loaded())\n"
        "from hybridpar.config import ExperimentConfig\n"
        "ExperimentConfig.from_dict({})\n"
        "print('loaded by from_dict:', loaded())\n"
        "assert cli.main(['detect', '--series', 'series.csv', '--config', 'switch.json']) == 0\n"
        "assert cli.main(['detect', '--series', 'series.csv']) == 0\n"
        "print('loaded by detect:', loaded())\n"
        "assert cli.main(['simulate', '--config', 'switch.json', '--out', 'run']) == 0\n"
        "print('parsers built by three calls:', cli._build_parser.cache_info().misses)\n",
        tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    steps = [line for line in proc.stdout.splitlines() if line.startswith("loaded by ")]
    assert steps == [f"loaded by {step}: []"
                     for step in ("import", "load_config", "from_dict", "detect")]
    built = [line for line in proc.stdout.splitlines() if line.startswith("parsers built ")]
    assert built == ["parsers built by import: 0", "parsers built by three calls: 1"]
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
        "metrics.json", "trace.csv", "trace.json"]


def src_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src" / "hybridpar").glob("*.py"))}


def test_every_public_function_and_class_is_named_in_src():
    """A public module-level function or class that no src/ code names, by a
    load, an attribute or an import, is exported for no plan or command;
    only the names UNNAMED_IN_SRC gives a reason for may be."""
    trees = src_trees()
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                named.update(alias.name for alias in node.names)
    unnamed = {(module, node.name) for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_") and node.name not in named}
    assert unnamed == set(UNNAMED_IN_SRC)


def test_every_public_method_and_property_is_read_in_src():
    """A public method or property of a public class is reached as an
    attribute: one that no src/ code reads as one is there for no plan or
    command; only those UNREAD_IN_SRC gives a reason for may be."""
    trees = src_trees()
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    unread = {(module, cls.name, node.name) for module, tree in trees.items()
              for cls in tree.body
              if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
              for node in cls.body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_") and node.name not in read}
    assert unread == set(UNREAD_IN_SRC)


def benchmark_reexports() -> set[tuple[str, str]]:
    """(module, name) of each name a src/ module imports on a `noqa: F401`
    line and never reads: a re-export, kept for perfbench to find there."""
    found = set()
    for module, tree in src_trees().items():
        lines = (ROOT / "src" / "hybridpar" / f"{module}.py").read_text(
            encoding="utf-8").splitlines()
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found |= {(module, alias.name) for node in tree.body
                  if isinstance(node, ast.ImportFrom)
                  and "noqa: F401" in lines[node.end_lineno - 1]
                  for alias in node.names if alias.name not in loaded}
    return found


def test_every_name_kept_for_the_benchmark_still_names_something_in_perfbench():
    """A name src/ keeps only for the benchmark (an allowlist entry whose
    reason cites it, or a re-export) is still named in perfbench/*.py, read
    as text: a module-level name as its patch or count target, `"hybridpar.
    <module>", "<name>"`, a method as an attribute read. Once the benchmark
    stops reading one, this fails, and the name leaves src/ or its list."""
    bench = "\n".join(path.read_text(encoding="utf-8")
                      for path in sorted((ROOT / "perfbench").glob("*.py")))
    cites = ("benchmark", "perfbench")
    names = {key for key, why in UNNAMED_IN_SRC.items() if any(c in why for c in cites)}
    reexports = benchmark_reexports()
    assert reexports == {("engine", "rel_mae"), ("engine", "sample_x0"),
                         ("engine", "cfg_combine"), ("cli", "replay_series")}
    assert names == {("mixture", "score"), ("mixture", "noised_mixture")}
    unread = [(module, name) for module, name in names | reexports
              if f'"hybridpar.{module}", "{name}"' not in bench]
    methods = [key for key, why in UNREAD_IN_SRC.items() if any(c in why for c in cites)]
    assert methods == [("monitor", "DiscrepancySeries", "has")]
    unread += [key for key in methods if f".{key[2]}(" not in bench]
    assert unread == []
