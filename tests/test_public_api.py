"""Public-API integrity: exports resolve, and everything is documented.

Four repository-wide invariants:

* every name in every ``__all__`` actually exists in its module;
* every package exports lazily (:mod:`repro._lazy`): each name
  resolves to its home module's object on first read, and
  ``repro serve`` loads only the modules it runs;
* every public module, class, and function in :mod:`repro` carries a
  docstring (documentation is a deliverable, so its absence is a test
  failure, not a style nit);
* every module under ``src/repro`` is imported by something that runs:
  a command, an example, a benchmark or a perfbench workload.  Tests do
  not count, so code only its own tests use shows up as an orphan.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

MODULES = sorted(
    name
    for _, name, __ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.startswith("repro._")
)


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports_and_is_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, "module %s has no docstring" % module_name


@pytest.mark.parametrize("module_name", MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), (
            "%s.__all__ lists %r, which does not exist" % (module_name, name)
        )


#: packages whose ``__init__`` exports lazily through :mod:`repro._lazy`
LAZY_PACKAGES = (
    "repro",
    "repro.crypto",
    "repro.datastore",
    "repro.net",
    "repro.obs",
    "repro.spfe",
    "repro.store",
    "repro.timing",
)


def _type_checking_homes(package):
    """Export name -> home module, from the package's ``if TYPE_CHECKING:``
    import block (what mypy and ruff read in place of ``__getattr__``)."""
    path = Path(importlib.import_module(package).__file__)
    homes = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            for statement in node.body:
                for alias in statement.names:
                    homes[alias.name] = statement.module
    return homes


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_resolve_to_their_home_objects(package):
    module = importlib.import_module(package)
    homes = _type_checking_homes(package)
    # ``repro.__version__`` is the one export bound eagerly
    assert set(homes) == set(module.__all__) - {"__version__"}
    for name, home in homes.items():
        assert getattr(module, name) is getattr(importlib.import_module(home), name), (
            "%s.%s is not %s.%s" % (package, name, home, name)
        )
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(module, "no_such_export")


def _run_fresh(code):
    """Run ``code`` in a new interpreter (nothing imported yet); its stdout."""
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(_PACKAGE_DIR.parent)),
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def test_serve_path_import_budget():
    """``repro serve`` without ``--stats-port`` or ``--state-dir`` loads
    no HTTP, TLS or SQLite module and none of the in-process protocols,
    the cost model, the fault injector or the experiments."""
    loaded = set(
        _run_fresh(
            "import sys, repro.cli, repro.net.server; print(*sys.modules)"
        ).split()
    )
    assert "repro.spfe.session" in loaded
    forbidden = {
        "ssl",
        "http.server",
        "sqlite3",
        "repro.spfe.estimator",
        "repro.spfe.selected_sum",
        "repro.net.faults",
        "repro.timing.costmodel",
        "repro.experiments",
        "repro.yao",
    }
    assert not forbidden & loaded, sorted(forbidden & loaded)


def test_lazy_packages_in_a_fresh_interpreter():
    """An unknown name raises AttributeError, so ``from package import
    submodule`` still imports the submodule; and the README quickstart
    runs against the lazy root package."""
    _run_fresh(
        "import sys\n"
        "import repro.net\n"
        "assert 'repro.net.codec' not in sys.modules\n"
        "from repro.net import codec\n"
        "assert codec is sys.modules['repro.net.codec']\n"
    )
    readme = (_REPO / "README.md").read_text(encoding="utf-8")
    quickstart = readme.split("## Quickstart", 1)[1].split("```python\n", 1)[1]
    _run_fresh(quickstart.split("```", 1)[0])


@pytest.mark.parametrize("module_name", MODULES)
def test_public_callables_documented(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    for name in exported:
        obj = getattr(module, name)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if obj.__module__ != module_name:
            continue  # re-export; documented at its home
        assert obj.__doc__, "%s.%s has no docstring" % (module_name, name)
        if inspect.isclass(obj):
            for attr_name, attr in vars(obj).items():
                if attr_name.startswith("_"):
                    continue
                if inspect.isfunction(attr):
                    assert attr.__doc__, (
                        "%s.%s.%s has no docstring"
                        % (module_name, name, attr_name)
                    )


_REPO = Path(__file__).resolve().parents[1]
_PACKAGE_DIR = Path(repro.__file__).resolve().parent
_ENTRY_MODULES = ("repro", "repro.cli", "repro.__main__", "repro.analysis.__main__")
_ENTRY_DIRS = ("examples", "benchmarks", "perfbench")


def _source_modules():
    """Dotted name -> path of every module under ``src/repro``."""
    modules = {}
    for path in _PACKAGE_DIR.rglob("*.py"):
        parts = path.relative_to(_PACKAGE_DIR.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imported_names(path, module_name=None):
    """Every dotted name an ``import`` anywhere in ``path`` may load.

    ``from a import b`` yields both ``a`` and ``a.b``, since ``b`` may be
    a submodule; the caller keeps the names that are modules.  Relative
    imports resolve against ``module_name`` (``None`` outside ``src``).
    """
    is_package = path.name == "__init__.py"
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level and module_name:
                package = module_name if is_package else module_name.rpartition(".")[0]
                for _ in range(node.level - 1):
                    package = package.rpartition(".")[0]
                base = package + "." + base if base else package
            yield base
            yield from (base + "." + alias.name for alias in node.names)


def test_every_module_is_reachable_from_an_entry_point():
    """Parse imports (executing nothing) from the commands, examples,
    benchmarks and perfbench; every ``repro`` module must be reached."""
    modules = _source_modules()
    reached = set()
    frontier = list(_ENTRY_MODULES)
    for directory in _ENTRY_DIRS:
        for path in sorted((_REPO / directory).rglob("*.py")):
            frontier.extend(_imported_names(path))
    while frontier:
        name = frontier.pop()
        # Importing a.b.c runs a and a.b first.
        parts = name.split(".")
        for depth in range(1, len(parts) + 1):
            prefix = ".".join(parts[:depth])
            if prefix in modules and prefix not in reached:
                reached.add(prefix)
                frontier.extend(_imported_names(modules[prefix], prefix))
    orphans = sorted(set(modules) - reached)
    assert not orphans, "modules nothing runs imports: %s" % ", ".join(orphans)


def test_top_level_api_surface():
    """The README's advertised entry points exist on the package root."""
    for name in (
        "ServerDatabase",
        "WorkloadGenerator",
        "ExecutionContext",
        "SelectedSumProtocol",
        "PrivateStatisticsClient",
        "EncryptedNumber",
        "generate_keypair",
        "private_selected_sum",
        "links",
        "profiles",
        "__version__",
    ):
        assert hasattr(repro, name), "repro.%s missing" % name


class TestExceptionHierarchy:
    """Every public exception is exported, rooted at ReproError, and
    catchable by the single ``except ReproError`` contract."""

    def _exception_classes(self):
        import repro.exceptions as exceptions

        return {
            name: obj
            for name, obj in vars(exceptions).items()
            if inspect.isclass(obj) and issubclass(obj, BaseException)
        }

    def test_all_matches_defined_exceptions_exactly(self):
        import repro.exceptions as exceptions

        assert set(exceptions.__all__) == set(self._exception_classes())

    def test_every_exception_derives_from_repro_error(self):
        from repro.exceptions import ReproError

        for name, obj in self._exception_classes().items():
            assert issubclass(obj, ReproError), (
                "%s does not derive from ReproError" % name
            )
            assert obj.__doc__, "%s has no docstring" % name

    def test_transport_errors_are_present_and_nested(self):
        from repro import exceptions

        assert issubclass(exceptions.TransportTimeout, exceptions.TransportError)
        assert issubclass(exceptions.RetryExhausted, exceptions.TransportError)
        assert issubclass(exceptions.SessionResumeError, exceptions.ProtocolError)
        for name in ("TransportError", "TransportTimeout", "RetryExhausted",
                     "SessionResumeError"):
            assert name in exceptions.__all__

    def test_one_except_clause_catches_everything(self):
        from repro.exceptions import ReproError, TransportTimeout

        try:
            raise TransportTimeout("deadline passed")
        except ReproError as exc:
            assert "deadline" in str(exc)


def test_version_is_pep440ish():
    parts = repro.__version__.split(".")
    assert len(parts) >= 2
    assert all(part.isdigit() for part in parts)
