"""One benchmark sample, run in a fresh interpreter by perfbench/run.py.

Imports theta_forms from the checkout's src/, runs the sample's verify lanes
once through the public harness API and prints one JSON line: the monotonic
time at which the import finished (the parent subtracts its spawn time to get
the set-up time), the sweep's wall and CPU time, peak memory, and each lane's
canonical JSON report.  With a span directory in the spec, the layer tracer is
installed first and writes its spans there when the sample ends.

The spec is the single command-line argument, a JSON object with the keys
``lanes`` (each with lane, p_min, p_max, order, jobs, curve_cap and
supersingular_cap), ``weights`` (weights whose default series order to
report), ``setup_only``, ``span_dir`` and ``run_id``.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

LANE_FUNCTIONS = {
    "theta-z": "cmd_verify_theta_z",
    "theta-hex": "cmd_verify_theta_hex",
    "background": "cmd_verify_background",
    "identities": "cmd_verify_identities",
}


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src))
    import numpy
    import theta_forms
    from theta_forms import harness, modforms

    t_ready = time.monotonic()
    if Path(theta_forms.__file__).resolve().parent != src / "theta_forms":
        print(f"imported theta_forms from {theta_forms.__file__}, not {src}", file=sys.stderr)
        return 2
    if spec["setup_only"]:
        print(json.dumps({"t_ready": t_ready}))
        return 0

    tracer = None
    if spec["span_dir"]:
        import layer_trace

        tracer = layer_trace.install(spec["span_dir"], spec["run_id"])

    configs = [
        (
            lane["lane"],
            getattr(harness, LANE_FUNCTIONS[lane["lane"]]),
            harness.SweepConfig(
                p_min=lane["p_min"],
                p_max=lane["p_max"],
                order=lane["order"],
                jobs=lane["jobs"],
                fmt="json",
                curve_cap=lane["curve_cap"],
                supersingular_cap=lane["supersingular_cap"],
            ),
        )
        for lane in spec["lanes"]
    ]
    reports, errors = {}, {}
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    for name, verify, cfg in configs:
        if tracer is not None:
            verify = tracer.wrap(f"harness.lane.{name}", verify)
        try:
            reports[name] = verify(cfg)
        except Exception:
            errors[name] = traceback.format_exc()
    sweep_s = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        tracer.dump()

    print(
        json.dumps(
            {
                "t_ready": t_ready,
                "sweep_s": sweep_s,
                "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
                "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024,
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "default_orders": {str(k): modforms.default_order(k) for k in spec["weights"]},
                "reports": {name: harness.render_json(r) for name, r in reports.items()},
                "errors": errors,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
