"""The names the benchmark's layer tracer wraps must still exist.

perfbench/layer_trace.py looks up functions and field methods by name when
``install`` runs, so a renamed or deleted definition would only surface as a
failed traced benchmark run.  This imports the tracer without installing it
and resolves every name it would wrap.
"""

import importlib.util
from pathlib import Path

from theta_forms.exact_arith import Fp, Fp2, Fp2Field, FpField

LAYER_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layer_trace.py"


def _load_layer_trace():
    spec = importlib.util.spec_from_file_location("layer_trace", LAYER_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_trace_names_resolve():
    lt = _load_layer_trace()
    for span, (module, names) in lt.SPANNED_FUNCTIONS.items():
        for name in names:
            assert callable(getattr(module, name, None)), (span, name)
    for counter, (module, name) in lt.COUNTED_FUNCTIONS.items():
        assert callable(getattr(module, name, None)), (counter, name)


def test_layer_trace_field_hooks_resolve():
    for field_cls, field in ((FpField, Fp(7)), (Fp2Field, Fp2(7))):
        assert callable(getattr(field_cls, "elements", None)), field_cls
        assert callable(getattr(field_cls, "squares", None)), field_cls
        assert hasattr(field, "_sqrt_table"), field_cls
