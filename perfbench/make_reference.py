#!/usr/bin/env python3
"""Write the reference rows in perfbench/reference/ from the current sources.

    python3 perfbench/make_reference.py

For every lane of every workload this runs the widest window (seed 0) and
stores its canonical JSON rows, then runs every other window a seed can pick
and checks that ``run.expected_rows`` reproduces its rows exactly.  Rerun it
only when a change to the reports is intended, and name the changed rows in
CHANGES.md.
"""

import json
import sys

import run
from child import LANE_FUNCTIONS

sys.path.insert(0, str(run.ROOT / "src"))
from theta_forms import harness, modforms  # noqa: E402


def lane_rows(spec: run.LaneSpec, p_min: int) -> list[dict]:
    verify = getattr(harness, LANE_FUNCTIONS[spec.lane])
    cfg = harness.SweepConfig(
        p_min=p_min,
        p_max=spec.p_max,
        order=spec.order,
        jobs=run.JOBS,
        fmt="json",
        curve_cap=run.CURVE_CAP,
        supersingular_cap=run.SUPERSINGULAR_CAP,
    )
    return json.loads(harness.render_json(verify(cfg)))


def make_reference(workload: run.Workload) -> dict:
    lanes, weights = {}, set()
    for spec in workload.lanes:
        choices = run.p_min_choices(spec)
        rows = lane_rows(spec, choices[0])
        narrowest = rows if len(choices) == 1 else lane_rows(spec, choices[-1])
        fixed = sorted(
            run.row_key(r) for r in narrowest if r["p"] is not None and r["p"] < choices[-1]
        )
        lanes[spec.lane] = {"rows": rows, "fixed": fixed}
        for p_min in choices[1:]:
            got = narrowest if p_min == choices[-1] else lane_rows(spec, p_min)
            if run.expected_rows(lanes[spec.lane], p_min) != {
                run.row_key(r): run.canonical(r) for r in got
            }:
                raise SystemExit(f"{spec.lane}: rows at p_min={p_min} do not follow the widest window")
        if spec.order is None:
            weights |= {r["k"] for r in rows if r["k"] is not None}
    return {
        "inputs": run.reference_inputs(workload),
        "default_orders": {str(k): modforms.default_order(k) for k in sorted(weights)},
        "lanes": lanes,
    }


def main() -> int:
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, workload in run.WORKLOADS.items():
        ref = make_reference(workload)
        path = run.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        rows = sum(len(lane["rows"]) for lane in ref["lanes"].values())
        print(f"{path.relative_to(run.ROOT)}: {rows} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
