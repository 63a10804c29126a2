"""The package root's public names, and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import deauthsim


def test_every_exported_name_resolves():
    missing = [name for name in deauthsim.__all__ if not hasattr(deauthsim, name)]
    assert missing == []


def test_import_leaves_yaml_statistics_and_json_unloaded():
    # A fresh interpreter: this one has loaded them already.  The modules
    # that use them import them when first called.
    code = "import sys, deauthsim; print(*{'yaml', 'statistics', 'json'} & sys.modules.keys())"
    src = str(Path(deauthsim.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
