"""The package root's public names."""

import deauthsim


def test_every_exported_name_resolves():
    missing = [name for name in deauthsim.__all__ if not hasattr(deauthsim, name)]
    assert missing == []
