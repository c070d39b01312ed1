"""Outside-in layer spans for the traced benchmark run.

``install`` replaces public functions and methods of theta_forms with timing
wrappers in every module namespace that holds them (``harness`` and the
modules themselves look names up at call time, so a call made anywhere in the
package goes through the wrapper).  Nothing under src/ is edited and nothing
is traced unless ``install`` is called.

A span is (id, parent, name, start, end) with ``time.perf_counter`` stamps.
Spans and counters stay in memory and are written once, when the sample ends,
to ``<span_dir>/<run_id>.json``.  The benchmark runs lanes with jobs=1, so
every span is recorded in the sample's own process.
"""

import functools
import json
import os
import time

from theta_forms import curves, exact_arith, fppoly, harness, hyperpoly, modforms, qseries
from theta_forms.exact_arith import Fp2Field, FpField
from theta_forms.qseries import QSeries

_MODULES = (curves, exact_arith, fppoly, harness, hyperpoly, modforms, qseries)

# span name -> (module, public function names) whose calls it times
SPANNED_FUNCTIONS = {
    **{
        f"curves.{name}": (curves, (name,))
        for name in (
            "two_torsion_only_j_set",
            "legendre_image_j_set",
            "hex_zero_set",
            "hessian_norm_condition_j_set",
            "check_hessian_matches_hex",
            "supersingular_j_set",
            "n_torsion_structure",
        )
    },
    "exact_arith.bernoulli": (exact_arith, ("bernoulli",)),
    "qseries.build": (qseries, ("eisenstein", "delta", "theta_Z", "theta_H", "j_invariant")),
    "qseries.transform": (qseries, ("pow_rational", "compose", "invert_unit")),
    "modforms.basis": (modforms, ("basis",)),
    "modforms.solve": (modforms, ("basis_coordinates",)),
    "modforms.pf_polynomial": (modforms, ("pf_polynomial",)),
    "hyperpoly": (
        hyperpoly,
        (
            "truncated_poly",
            "gp_poly",
            "pochhammer",
            "scaled_coefficient_mod",
            "vanishing_window",
            "admissible_vanishing_primes",
            "theta_z_hypergeometric_mismatch",
            "theta_h_hypergeometric_mismatch",
            "e4_quarter_hypergeometric_mismatch",
            "euler_transform_mismatch",
            "cubic_transform_mismatch",
            "degenerate_eval_mismatch",
        ),
    ),
    "fppoly.reduce": (fppoly, ("reduce_poly",)),
    "fppoly.factor": (
        fppoly,
        ("factor_pattern", "is_squarefree", "splits_into_linears", "splits_over_fp2"),
    ),
    "fppoly.roots": (fppoly, ("roots_brute", "power_sums", "is_reciprocal")),
}

# counter name -> (module, public function name) whose calls it counts
COUNTED_FUNCTIONS = {"curves.point_count.calls": (curves, "point_count")}


class Tracer:
    """Span stack, finished spans and counters of one traced sample."""

    def __init__(self, span_dir: str, run_id: str):
        self.span_dir, self.run_id = span_dir, run_id
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self._seq = 0

    def count(self, name: str, n: int = 1):
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._seq += 1
            sid = self._seq
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        return traced

    def dump(self):
        path = os.path.join(self.span_dir, f"{self.run_id}.json")
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "spans": self.spans, "counters": self.counters}, fh)


def _replace(orig, new):
    """Point every theta_forms namespace entry bound to ``orig`` at ``new``."""
    for module in _MODULES:
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, new)


def install(span_dir: str, run_id: str) -> Tracer:
    tracer = Tracer(span_dir, run_id)

    for span, (module, names) in SPANNED_FUNCTIONS.items():
        for name in names:
            orig = getattr(module, name)
            _replace(orig, tracer.wrap(span, orig))

    for counter, (module, name) in COUNTED_FUNCTIONS.items():
        orig = getattr(module, name)
        _replace(orig, _counted(tracer, counter, orig))

    mul = QSeries.__mul__
    traced_mul = tracer.wrap("qseries.mul", mul)

    def series_mul(self, other):
        if not isinstance(other, QSeries):
            return mul(self, other)
        # QSeries.__mul__ visits n(n+1)/2 coefficient pairs for n the shorter window.
        n = min(len(self.coeffs), len(other.coeffs))
        tracer.count("qseries.mul.coeff_pairs", n * (n + 1) // 2)
        return traced_mul(self, other)

    QSeries.__mul__ = QSeries.__rmul__ = series_mul
    QSeries.__truediv__ = tracer.wrap("qseries.transform", QSeries.__truediv__)
    QSeries.__pow__ = _counted(tracer, "qseries.pow.calls", QSeries.__pow__)

    for field in (FpField, Fp2Field):
        field.elements = _counted_items(tracer, "exact_arith.elements_scanned", field.elements)
        field.squares = _traced_table_build(tracer, field.squares)
    return tracer


def _counted(tracer: Tracer, counter: str, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.count(counter)
        return fn(*args, **kwargs)

    return counted


def _counted_items(tracer: Tracer, counter: str, elements):
    """A field's element generator that counts the items it yields."""

    @functools.wraps(elements)
    def counted(self):
        n = 0
        try:
            for x in elements(self):
                n += 1
                yield x
        finally:
            tracer.count(counter, n)

    return counted


def _traced_table_build(tracer: Tracer, squares):
    """A field's square-root table accessor that times only the build."""
    traced = tracer.wrap("exact_arith.squares_table", squares)

    @functools.wraps(squares)
    def table(self):
        return squares(self) if self._sqrt_table is not None else traced(self)

    return table
