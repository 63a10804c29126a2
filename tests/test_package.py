"""The package root's public names, and what importing it loads."""

import deauthsim
from helpers import run_fresh


def test_every_exported_name_resolves():
    missing = [name for name in deauthsim.__all__ if not hasattr(deauthsim, name)]
    assert missing == []


def loaded_by_import(names: set[str]) -> list[str]:
    """Which of ``names`` a fresh interpreter has loaded after ``import deauthsim``.

    A fresh interpreter, because this one has loaded them already.
    """
    code = f"import sys, deauthsim; print(*{sorted(names)!r} & sys.modules.keys())"
    return run_fresh(code).split()


def test_import_leaves_yaml_statistics_and_json_unloaded():
    # The modules that use them import them when first called.
    assert loaded_by_import({"yaml", "statistics", "json"}) == []


def test_import_leaves_hashlib_and_openssl_unloaded():
    # Tokens hash with the interpreter's built-in SHA-512.
    assert loaded_by_import({"hashlib", "_hashlib"}) == []
