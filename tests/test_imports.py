"""Import graph: scipy and sympy load only in the functions that use them.

Each check runs in a fresh interpreter, since this test process has already
imported scipy through conftest.  Static checks also parse the package:
every module-level constant and every module-level private function must
be read somewhere.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import bandtopo as bt

HEAVY = ("scipy", "sympy")


def loaded_after(code, tmp_path):
    """Names of the scipy and sympy modules loaded once ``code`` has run in
    a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(bt.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {HEAVY!r})))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_package_and_cli_import_numpy_only(tmp_path):
    assert loaded_after("import bandtopo, bandtopo.cli", tmp_path) == set()


def test_report_runs_without_scipy(tmp_path):
    code = (
        "from bandtopo import cli\n"
        "code = cli.main(['report', '--model', 'weyl-lattice', '--param', 'm=2',\n"
        f"                 '--grid', '16', '--out', {str(tmp_path)!r}])\n"
        "assert code == 0, code"
    )
    assert loaded_after(code, tmp_path) == set()
    assert (tmp_path / "report.json").exists()


def test_cohomology_loads_sparse_not_optimize(tmp_path):
    code = (
        "from bandtopo import cli\n"
        "code = cli.main(['cohomology', '--fixture', 'point', '--resolution', '8',\n"
        f"                 '--out', {str(tmp_path)!r}])\n"
        "assert code == 0, code"
    )
    loaded = loaded_after(code, tmp_path)
    assert "scipy.sparse" in loaded
    assert not any(m.startswith("scipy.optimize") for m in loaded)


PACKAGE = Path(bt.__file__).parent
BENCH = PACKAGE.parents[1] / "bench"
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names_read(paths):
    """Every name loaded, and every attribute named, in the given files."""
    read = set()
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_module_constant_is_read():
    """A module-level UPPER_CASE name in ``src/bandtopo`` is read by name or
    as an attribute somewhere in the package or the benchmark: a tolerance
    that nothing reads gates nothing."""
    assert BENCH.is_dir()
    package = sorted(PACKAGE.glob("*.py"))
    defined = []
    for path in package:
        for node in _parse(path).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            defined += [
                (path.name, t.id) for t in targets
                if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)
            ]
    read = _names_read(package + sorted(BENCH.rglob("*.py")))
    assert len(defined) > 20
    assert [f"{mod}:{name}" for mod, name in defined if name not in read] == []


def test_every_private_function_is_read():
    """A module-level ``_name`` function in ``src/bandtopo`` is read by name
    or as an attribute somewhere in the package: a helper that only tests
    call is dead code."""
    package = sorted(PACKAGE.glob("*.py"))
    defined = [
        f"{path.name}:{node.name}" for path in package for node in _parse(path).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    read = _names_read(package)
    assert len(defined) > 20
    assert [d for d in defined if d.split(":")[1] not in read] == []


def test_no_module_imports_scipy_optimize():
    """Every zero-finder in ``src/bandtopo`` is a Newton step on the crossing
    Jacobian: no module imports ``scipy.optimize``, at any level."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            found += [f"{path.name}:{n}" for n in names
                      if n == "scipy.optimize" or n.startswith("scipy.optimize.")]
    assert found == []
