"""Source hygiene of the package: no module imports a name it never uses,
only `config` loads YAML, every module-level function and class is named
somewhere else, only the listed ones are named by tests alone, every name
the bench tracer wraps is used by the package itself, every method and
dataclass field of a module-level class is read as an attribute
somewhere, only the listed ones by tests alone, and no module keeps state
in a module-level name."""
import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mortkit"

#: Every module but `__init__.py`, whose imports are re-exports.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

#: Every Python source that may name a definition of the package.
CORPUS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))

#: The bench tracer patches package names given as strings.
BENCH = ROOT / "bench"

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


def unused_imports(source: str) -> list:
    """Names bound by a module-level import that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_sees_an_unused_import():
    source = "import os\nfrom a import b, c as d\nprint(b)\n"
    assert unused_imports(source) == ["d (line 2)", "os (line 1)"]


def test_checker_counts_annotations_and_attribute_roots():
    source = ("from __future__ import annotations\nimport numpy as np\n"
              "from x import T\ndef f(a: T):\n    return np.zeros(1)\n")
    assert unused_imports(source) == []


#: PyYAML's functions that parse a document: `load`, `safe_load`,
#: `full_load_all` and the like.
YAML_LOAD = re.compile(r"(\w+_)?load(_all)?")


def yaml_loads(source: str) -> list:
    """The YAML load functions a module names, through `yaml.` or imported
    from `yaml`."""
    loads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "yaml":
            loads.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module == "yaml":
            loads.extend((alias.name, node.lineno) for alias in node.names)
    return sorted(f"{name} (line {line})" for name, line in loads
                  if YAML_LOAD.fullmatch(name))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "config.py"],
                         ids=lambda p: p.name)
def test_only_config_loads_yaml(path):
    # `config.load_yaml` is the one reader of both YAML documents: it
    # refuses a syntax error on one line naming the file.
    assert yaml_loads(path.read_text()) == []


def test_checker_sees_a_yaml_load():
    source = ("import yaml\nfrom yaml import safe_dump, load_all as every\n"
              "doc = yaml.safe_load(text)\nyaml.safe_dump(doc)\n"
              "loader = yaml.CSafeLoader\nyaml.load(text, Loader=loader)\n")
    assert yaml_loads(source) == ["load (line 6)", "load_all (line 2)",
                                  "safe_load (line 3)"]


def names_used(source: str, strings: bool = False) -> set:
    """Names a module reads or imports, and with `strings` the strings it
    spells whole (as the bench tracer patches names), leaving out each
    module-level definition's mentions of its own name.  A report key
    such as "deviance" keeps no function of that name alive."""
    used = set()
    for node in ast.parse(source).body:
        own = node.name if isinstance(node, DEFINITIONS) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            elif isinstance(sub, ast.alias):
                name = sub.name.rpartition(".")[2]
            elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                name = sub.value
            else:
                continue
            if name != own:
                used.add(name)
    return used


def dead_definitions(source: str, used: set) -> list:
    """Module-level functions and classes of `source` missing from `used`."""
    return sorted(node.name for node in ast.parse(source).body
                  if isinstance(node, DEFINITIONS) and node.name not in used)


@pytest.fixture(scope="module")
def corpus_names():
    return set().union(*(names_used(p.read_text(), p.is_relative_to(BENCH))
                         for p in CORPUS))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_module_level_definition(path, corpus_names):
    assert dead_definitions(path.read_text(), corpus_names) == []


def test_checker_sees_a_dead_definition():
    module = ("def called():\n    pass\n\n"
              "def recursive(n):\n    return recursive(n - 1)\n\n"
              "class Unused:\n    def copy(self) -> 'Unused':\n        return Unused()\n\n"
              "def patched():\n    pass\n")
    caller = "from m import called\nsetattr(m, 'patched', None)\n"
    used = names_used(module) | names_used(caller, strings=True)
    assert dead_definitions(module, used) == ["Unused", "recursive"]


def test_checker_counts_string_mentions_only_from_bench():
    module = "def deviance():\n    pass\n"
    caller = "report = {'deviance': 0.0}\n"
    assert dead_definitions(module, names_used(caller)) == ["deviance"]
    assert dead_definitions(module, names_used(caller, strings=True)) == []


#: Package definitions that only tests name, each with why it stays.
TEST_ONLY = {
    "fit_common_trend": "acceptance criterion 2 fits the common layer alone",
    "loglik_gradient": "acceptance criterion 2 checks the gradient at that fit",
    "cohort_life_expectancy": "acceptance criterion 7 checks the cohort table",
    "poisson_loglik": "acceptance criterion 2's oracle scores the likelihood with it",
}

#: The program: the package's modules, whose `__init__.py` re-exports call
#: nothing, and the bench.
PROGRAM = [*MODULES, *sorted(BENCH.rglob("*.py"))]


def mislisted_test_only(sources: list, program: set, tests: set, listed) -> list:
    """Names on which `listed` and the test-only definitions disagree: a
    module-level definition of `sources` that `tests` name and `program`
    does not, left off `listed`, or a listed name that is no such
    definition."""
    test_only = {node.name for source in sources for node in ast.parse(source).body
                 if isinstance(node, DEFINITIONS)
                 and node.name in tests and node.name not in program}
    return sorted(test_only ^ set(listed))


def test_test_only_definitions_are_listed():
    program = set().union(*(names_used(p.read_text(), p.is_relative_to(BENCH))
                            for p in PROGRAM))
    tests = set().union(*(names_used(p.read_text())
                          for p in sorted((ROOT / "tests").rglob("*.py"))))
    sources = [p.read_text() for p in MODULES]
    assert mislisted_test_only(sources, program, tests, TEST_ONLY) == []


def test_every_traced_name_has_a_program_caller():
    # The tracer wraps package names given as strings, which count as uses
    # above; a name the package stopped calling would live on for the
    # tracer alone.  Each wrapped name must be used by some module of the
    # package outside its own definition.
    code = ("import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
            "import tracer\n"
            "wrapped, wrap = [], tracer.Tracer.wrap\n"
            "def record(self, layer, fn, count=None):\n"
            "    wrapped.append(fn.__qualname__)\n"
            "    return wrap(self, layer, fn, count)\n"
            "tracer.Tracer.wrap = record\n"
            "tracer.install(tracer.Tracer())\n"
            "print(json.dumps(wrapped))\n")
    done = subprocess.run([sys.executable, "-c", code, str(BENCH), str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    wrapped = json.loads(done.stdout)
    program = set().union(*(names_used(p.read_text()) for p in MODULES))
    assert wrapped
    assert [name for name in wrapped if name.rpartition(".")[2] not in program] == []


def test_checker_sees_test_only_definitions():
    module = ("def run():\n    return called()\n\n"
              "def called():\n    pass\n\n"
              "def oracle():\n    pass\n")
    program = names_used(module)
    tests = names_used("from m import called, oracle\n")
    assert mislisted_test_only([module], program, tests, ["oracle"]) == []
    assert mislisted_test_only([module], program, tests, []) == ["oracle"]
    assert mislisted_test_only([module], program, tests,
                               ["called", "oracle"]) == ["called"]
    assert mislisted_test_only([module], program | {"oracle"}, tests,
                               ["oracle"]) == ["oracle"]


def attributes_used(source: str) -> set:
    """Attribute names a module reads and strings it spells whole."""
    return {sub.attr if isinstance(sub, ast.Attribute) else sub.value
            for sub in ast.walk(ast.parse(source))
            if isinstance(sub, ast.Attribute)
            or isinstance(sub, ast.Constant) and isinstance(sub.value, str)}


def _classes(source: str) -> list:
    return [node for node in ast.parse(source).body if isinstance(node, ast.ClassDef)]


def _methods(node: ast.ClassDef) -> list:
    """Names of the non-dunder methods and properties of a class."""
    return [item.name for item in node.body if isinstance(item, FUNCTIONS)
            and not (item.name.startswith("__") and item.name.endswith("__"))]


def _decorator_name(node) -> str:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _fields(node: ast.ClassDef) -> list:
    """Names of the annotated fields of a dataclass; none for another class."""
    if not any(_decorator_name(d) == "dataclass" for d in node.decorator_list):
        return []
    return [item.target.id for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def dead_methods(source: str, used: set) -> list:
    """Non-dunder methods and properties of the module-level classes of
    `source`, as "Class.method", whose name is missing from `used`."""
    return sorted(f"{node.name}.{name}" for node in _classes(source)
                  for name in _methods(node) if name not in used)


@pytest.fixture(scope="module")
def corpus_attributes():
    return set().union(*(attributes_used(p.read_text()) for p in CORPUS))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_method(path, corpus_attributes):
    assert dead_methods(path.read_text(), corpus_attributes) == []


def test_checker_sees_a_dead_method():
    module = ("class Series:\n"
              "    def __len__(self):\n        return 0\n\n"
              "    def called(self):\n        return self.helper()\n\n"
              "    def helper(self):\n        return 1\n\n"
              "    @property\n    def unread(self):\n        return 2\n\n"
              "    def patched(self):\n        pass\n\n"
              "    def unused(self):\n        pass\n")
    caller = "Series().called()\nsetattr(Series, 'patched', None)\ncalled = unread = 1\n"
    used = attributes_used(module) | attributes_used(caller)
    assert dead_methods(module, used) == ["Series.unread", "Series.unused"]


def dead_fields(source: str, used: set) -> list:
    """Annotated fields of the module-level dataclasses of `source`, as
    "Class.field", whose name is missing from `used`."""
    return sorted(f"{node.name}.{name}" for node in _classes(source)
                  for name in _fields(node) if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_dataclass_field(path, corpus_attributes):
    assert dead_fields(path.read_text(), corpus_attributes) == []


def test_checker_sees_a_dead_field():
    module = ("from dataclasses import dataclass\nimport dataclasses\n\n"
              "@dataclass(frozen=True)\nclass Fit:\n    psi: list\n"
              "    unread: dict\n    named: int = 0\n\n"
              "@dataclasses.dataclass\nclass Row:\n    year: int\n\n"
              "class Plain:\n    annotated: int\n")
    caller = "fit = Fit(psi=[], unread={}, named=1)\nprint(fit.psi, 'named')\n"
    used = attributes_used(module) | attributes_used(caller)
    assert dead_fields(module, used) == ["Fit.unread", "Row.year"]


#: Methods, properties and dataclass fields that only tests read, each
#: with why it stays.
TEST_ONLY_MEMBERS = {
    "LiLeeParams.log_mu": "acceptance criterion 5 checks the fitted final-year rates",
    "TrendFit.loglik_trace": "the monotone-trace tests check every sweep's likelihood",
    "TimeSeriesFit.weights": "acceptance criterion 6 builds a TimeSeriesFit with "
                             "weights, and the criteria are never edited",
}


def mislisted_test_only_members(sources: list, program: set, tests: set,
                                listed) -> list:
    """Names on which `listed` and the test-only members disagree: a
    method, property or dataclass field of a module-level class of
    `sources`, as "Class.member", whose name `tests` read as an attribute
    and `program` does not, left off `listed`, or a listed name that is no
    such member.  Members are matched by name alone, so a program read of
    a same-named attribute of any other object hides a member: a
    `MortalitySurface.death_rates` property that no program code called
    once went unseen while the program read a weekly series' field of
    that name."""
    test_only = {f"{node.name}.{name}" for source in sources
                 for node in _classes(source)
                 for name in _methods(node) + _fields(node)
                 if name in tests and name not in program}
    return sorted(test_only ^ set(listed))


def test_test_only_members_are_listed():
    program = set().union(*(attributes_used(p.read_text()) for p in PROGRAM))
    tests = set().union(*(attributes_used(p.read_text())
                          for p in sorted((ROOT / "tests").rglob("*.py"))))
    sources = [p.read_text() for p in MODULES]
    assert mislisted_test_only_members(sources, program, tests,
                                       TEST_ONLY_MEMBERS) == []


def test_checker_sees_test_only_members():
    module = ("from dataclasses import dataclass\n\n"
              "@dataclass\nclass Fit:\n    used: int\n    trace: tuple\n\n"
              "    def run(self):\n        return self.used\n\n"
              "    def oracle(self):\n        pass\n\n"
              "    @property\n    def rates(self):\n        return 1\n\n"
              "class Series:\n    rates: dict\n\n"
              "def call(fit, series):\n    return fit.run(), series.rates\n")
    program = attributes_used(module)
    tests = attributes_used("fit.trace, fit.oracle(), fit.rates, fit.run()\n")
    assert mislisted_test_only_members([module], program, tests,
                                       ["Fit.oracle", "Fit.trace"]) == []
    assert mislisted_test_only_members([module], program, tests,
                                       ["Fit.oracle"]) == ["Fit.trace"]
    assert mislisted_test_only_members([module], program, tests,
                                       ["Fit.oracle", "Fit.run", "Fit.trace"]) \
        == ["Fit.run"]
    # Matching by name: the program's read of `series.rates` hides the
    # property `Fit.rates`, which only the tests call.
    assert mislisted_test_only_members([module], program, tests, []) \
        == ["Fit.oracle", "Fit.trace"]


#: A constant's name: capitals, digits and underscores, maybe private.
CONSTANT_NAME = re.compile(r"_?[A-Z][A-Z0-9_]*")

#: Module dunders that are not state.
MODULE_DUNDERS = {"__all__", "__version__"}

#: Nodes whose names live in a scope of their own.
SCOPES = DEFINITIONS + (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp,
                        ast.GeneratorExp)


def module_state(source: str) -> list:
    """Names a module binds at module level, other than by import, def or
    class, that are neither constants named in capitals nor exempt dunders."""
    bound = set()
    todo = [node for node in ast.parse(source).body if not isinstance(node, SCOPES)]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        todo.extend(child for child in ast.iter_child_nodes(node)
                    if not isinstance(child, SCOPES))
    return sorted(name for name in bound
                  if not CONSTANT_NAME.fullmatch(name) and name not in MODULE_DUNDERS)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_state(path):
    assert module_state(path.read_text()) == []


def test_checker_sees_module_state():
    module = ("import os\nfrom a import b as lower\n__all__ = ['f']\n"
              "__version__ = '1'\nMAX_AGE = 120\n_CACHE: dict = {}\nV2_TOP = 1\n"
              "state = {}\n_lock = None\ncounter += 1\nfor i in range(3):\n    pass\n"
              "with open(os.devnull) as handle:\n    pass\n"
              "if True:\n    flag = 1\n"
              "AGES = [age for age in range(3)]\nKEY = lambda seed: seed\n"
              "def f(arg):\n    local = arg\n\n"
              "class C:\n    attr = 1\n")
    assert module_state(module) == ["_lock", "counter", "flag", "handle", "i", "state"]
