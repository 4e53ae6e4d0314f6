"""Test settings shared by every module.

When a ``@given`` test fails, hypothesis's pytest plugin imports libcst to
write the failing example as a patch, and libcst's import raises a
DeprecationWarning (from ``mypy_extensions.TypedDict``).  Under
``filterwarnings = error`` that warning is a pytest INTERNALERROR, which ends
the session with every later test unrun.  Importing libcst here, with that one
warning ignored, makes the plugin's import a lookup.
"""

import warnings

with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:  # the plugin then writes no patch
        pass
