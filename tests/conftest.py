"""Shared pytest setup: a reproducible hypothesis profile.

Property tests draw the same examples on every run (``derandomize``), keep
no example database and carry no per-example deadline, so a slow shared
host changes neither their verdict nor their inputs.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("theta-forms", deadline=None, derandomize=True, database=None)
    settings.load_profile("theta-forms")
