"""Shared pytest setup: a reproducible hypothesis profile and fresh series
caches.

Property tests draw the same examples on every run (``derandomize``), keep
no example database and carry no per-example deadline, so a slow shared
host changes neither their verdict nor their inputs.  ``fresh_series_caches``
isolates a test that plants or grows the shared exact-series caches.
"""

import pytest

from theta_forms import hyperpoly, modforms

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("theta-forms", deadline=None, derandomize=True, database=None)
    settings.load_profile("theta-forms")


@pytest.fixture
def fresh_series_caches(monkeypatch):
    """Empty shared exact-series caches for one test, restored afterwards.

    The exact hypergeometric streams (``hyperpoly._STREAMS``), the table of
    powers of t = 1/j (``modforms._T_POWERS``) and the coefficients of q j,
    1/E4 and 1/E6 that the mod-p solve reads (``modforms._Q_J`` and
    ``modforms._INVERSE_EISENSTEIN``) are module-level and only ever
    extended, so a stream a test plants, or a table it grows, would reach
    every later reader.  The fixture swaps in fresh ones through
    ``monkeypatch`` and returns them as (streams, t_powers, q_j,
    inverse_eisenstein).
    """
    streams, t_powers, q_j, inverse_eisenstein = {}, [[1]], [1], {4: [1], 6: [1]}
    monkeypatch.setattr(hyperpoly, "_STREAMS", streams)
    monkeypatch.setattr(modforms, "_T_POWERS", t_powers)
    monkeypatch.setattr(modforms, "_Q_J", q_j)
    monkeypatch.setattr(modforms, "_INVERSE_EISENSTEIN", inverse_eisenstein)
    return streams, t_powers, q_j, inverse_eisenstein
