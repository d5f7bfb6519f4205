"""Shared test setup.

helpers.py is not a test module, so pytest would not rewrite its asserts
and python -O would strip them.  Registering it before any test module
imports it keeps its cross-checks live under python -O too.
"""

import pytest

pytest.register_assert_rewrite("helpers")
