"""Import graph: scipy and sympy load only in the functions that use them.

Each check runs in a fresh interpreter, since this test process has already
imported scipy through conftest.
"""

import json
import os
import subprocess
import sys

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
