#!/usr/bin/env python3
"""Benchmark of the theta-forms verifier: lane sweeps in fresh interpreters.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each sample is one fresh interpreter (perfbench/child.py) that imports
theta_forms from src/ and runs the workload's verify lanes once, as the
``theta-forms verify`` CLI does.  Samples run one after another (a closed loop
with one client) while the next one should still end within ``--seconds``,
and at least three run.  Every sample's canonical JSON rows are compared with
the reference rows in perfbench/reference/.

With ``--trace 0`` the last line of output reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics of traced samples
(perfbench/layer_trace.py), alternated with untraced ones to measure the
tracing overhead.  Exit status is 0 only when every row matched.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = ROOT / ".perfbench-out"

# Every lane call passes these itself, so a changed SweepConfig or CLI default
# cannot change the work measured.
CURVE_CAP = SUPERSINGULAR_CAP = 103
JOBS = 1
MIN_SAMPLES = 3  # sweep samples per untraced run, even past --seconds
EXTRA_SETUP_SAMPLES = 8  # import-only interpreters per run, for setup_s
SAMPLE_TIMEOUT_S = 100  # a sample takes about 10 s; a run must end within 180 s


@dataclass(frozen=True)
class LaneSpec:
    """One verify lane call.  The seed moves p_min within [p_min, shift_to]."""

    lane: str
    p_min: int
    p_max: int
    order: int | None  # None: each prime's default order, as the CLI uses
    shift_to: int


@dataclass(frozen=True)
class Workload:
    lanes: tuple[LaneSpec, ...]
    why: str


# The oracles and the exact core grow as p^3 to p^5, so the top of a window
# sets its cost.  The seed moves only the lower edge, over primes whose rows
# cost under 2 % of the workload, so every seed keeps the size class.
WORKLOADS = {
    "oracle-sweep": Workload(
        (
            LaneSpec("theta-z", 5, 79, None, 19),
            LaneSpec("theta-hex", 5, 79, None, 19),
            LaneSpec("background", 5, 79, None, 19),
            LaneSpec("identities", 5, 79, 40, 19),
        ),
        "all four lanes over 5..79 under the 103 caps: the CLI's mix, mostly brute-force curve oracles",
    ),
    "algebra-large": Workload(
        (
            LaneSpec("background", 600, 700, None, 600),
            LaneSpec("theta-z", 600, 1000, None, 660),
        ),
        "background over 600..700 and theta-z over 600..1000: big-integer series products and basis solve, oracles skipped",
    ),
    "series-identities": Workload(
        (LaneSpec("identities", 5, 31, 64, 19),),
        "identities lane at order 64: few series products on Fraction coefficients via pow_rational, compose and inversion",
    ),
}

END_TO_END = {
    "sweep_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_CURVE_SPANS = (
    "two_torsion_only_j_set",
    "legendre_image_j_set",
    "hex_zero_set",
    "hessian_norm_condition_j_set",
    "check_hessian_matches_hex",
    "supersingular_j_set",
    "n_torsion_structure",
)
_LANES = ("theta-z", "theta-hex", "background", "identities")

PER_LAYER = {
    **{f"curves.{name}.self_s": "s" for name in _CURVE_SPANS},
    "curves.n_torsion_structure.calls": "count",
    "curves.point_count.calls": "count",
    "exact_arith.elements_scanned": "count",
    "exact_arith.squares_table.self_s": "s",
    "exact_arith.bernoulli.calls": "count",
    "exact_arith.bernoulli.self_s": "s",
    "qseries.mul.calls": "count",
    "qseries.mul.self_s": "s",
    "qseries.mul.coeff_pairs": "pairs-computed",
    "qseries.pow.calls": "count",
    "qseries.build.self_s": "s",
    "qseries.transform.self_s": "s",
    "modforms.basis.calls": "count",
    "modforms.basis.self_s": "s",
    "modforms.solve.self_s": "s",
    "modforms.pf_polynomial.calls": "count",
    "hyperpoly.calls": "count",
    "hyperpoly.self_s": "s",
    "fppoly.reduce.self_s": "s",
    "fppoly.factor.self_s": "s",
    "fppoly.roots.self_s": "s",
    "fppoly.calls": "count",
    **{f"harness.lane_s.{lane}": "s" for lane in _LANES},
    "harness.self_s": "s",
    "harness.rows": "count",
    "harness.rows_skipped": "count",
    "trace.coverage_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ---------------------------------------------------------------------------
# inputs


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def p_min_choices(spec: LaneSpec) -> list[int]:
    """Lower edges a seed may pick: p_min, or just above one of the band's primes."""
    return [spec.p_min] + [q + 1 for q in range(spec.p_min, spec.shift_to) if _is_prime(q)]


def lane_windows(workload: Workload, seed: int) -> list[dict]:
    """The SweepConfig inputs of every lane call; seed 0 gives the widest window."""
    out = []
    for spec in workload.lanes:
        choices = p_min_choices(spec)
        out.append(
            {
                "lane": spec.lane,
                "p_min": choices[seed % len(choices)],
                "p_max": spec.p_max,
                "order": spec.order,
                "jobs": JOBS,
                "curve_cap": CURVE_CAP,
                "supersingular_cap": SUPERSINGULAR_CAP,
            }
        )
    return out


# ---------------------------------------------------------------------------
# reference rows


def row_key(row: dict) -> tuple:
    return (row["check_id"], row["p"])


def canonical(row: dict) -> str:
    return json.dumps(row, sort_keys=True)


def reference_inputs(workload: Workload) -> dict:
    """What a reference file must have been made from, to apply to ``workload``."""
    return {
        "lanes": [asdict(spec) for spec in workload.lanes],
        "jobs": JOBS,
        "curve_cap": CURVE_CAP,
        "supersingular_cap": SUPERSINGULAR_CAP,
    }


def load_reference(name: str) -> dict:
    path = REFERENCE_DIR / f"{name}.json"
    ref = json.loads(path.read_text())
    if ref["inputs"] != reference_inputs(WORKLOADS[name]):
        raise BenchError(f"{path.name} was made for other inputs; rerun perfbench/make_reference.py")
    return ref


def expected_rows(lane_ref: dict, p_min: int) -> dict:
    """Reference rows of a lane whose window starts at ``p_min``.

    The reference holds the widest window.  A narrower one keeps the rows at or
    above its lower edge, the rows without a prime, and the ``fixed`` rows that
    the lane emits for primes of its own whatever the window.
    """
    fixed = {tuple(key) for key in lane_ref["fixed"]}
    return {
        row_key(row): canonical(row)
        for row in lane_ref["rows"]
        if row["p"] is None or row["p"] >= p_min or row_key(row) in fixed
    }


def count_wrong(expected: dict, rows: list[dict] | None) -> int:
    """Rows that differ from, are missing from or are not in the reference."""
    if rows is None:
        return len(expected)
    seen = set()
    wrong = 0
    for row in rows:
        key = row_key(row)
        if key in seen or expected.get(key) != canonical(row):
            wrong += 1
        seen.add(key)
    return wrong + len(expected.keys() - seen)


# ---------------------------------------------------------------------------
# samples


def spawn(spec: dict) -> dict:
    """Run one child interpreter and return its report plus ``setup_s``."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)]
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED="0"),  # same set orders in every sample
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"sample ran longer than {SAMPLE_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"sample exited with {proc.returncode}:\n{err[-3000:]}")
    result = json.loads(out.splitlines()[-1])
    result["setup_s"] = result["t_ready"] - t0
    return result


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(span_dir: Path, run_id: str) -> dict:
    """Per-layer self times, calls and counters of one traced sample."""
    data = json.loads((span_dir / f"{run_id}.json").read_text())
    spans, metrics = data["spans"], defaultdict(int, data["counters"])
    children = defaultdict(list)
    for sid, parent, _name, start, end in spans:
        children[parent].append((start, end))
    lane_total = uncovered = 0.0
    for sid, _parent, name, start, end in spans:
        self_s = end - start - _union_length(children[sid], start, end)
        if name.startswith("harness.lane."):
            metrics["harness.lane_s." + name.removeprefix("harness.lane.")] += end - start
            lane_total += end - start
            uncovered += self_s
        else:
            metrics[f"{name}.self_s"] += self_s
            metrics[f"{name}.calls"] += 1
    metrics["fppoly.calls"] = sum(metrics[f"fppoly.{g}.calls"] for g in ("reduce", "factor", "roots"))
    metrics["harness.self_s"] = uncovered
    metrics["trace.coverage_frac"] = 1 - uncovered / lane_total if lane_total else 0.0
    return metrics


# ---------------------------------------------------------------------------
# one run


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; return the result line and the run's metadata."""
    workload = WORKLOADS[name]
    ref = load_reference(name)
    lanes = lane_windows(workload, seed)
    expected = {
        lane["lane"]: expected_rows(ref["lanes"][lane["lane"]], lane["p_min"]) for lane in lanes
    }
    weights = sorted(int(k) for k in ref["default_orders"])
    spec = {"lanes": lanes, "weights": weights, "setup_only": False, "span_dir": None, "run_id": None}
    setup_spec = dict(spec, setup_only=True)
    span_dir = OUT_DIR / f"spans-{os.getpid()}"

    attempted = failed = 0
    problems: list[str] = []

    def check(sample: dict, what: str):
        nonlocal attempted, failed
        if sample["default_orders"] != ref["default_orders"]:
            problems.append(f"{what}: default series orders differ from the reference's")
        for lane in lanes:
            exp = expected[lane["lane"]]
            text = sample["reports"].get(lane["lane"])
            wrong = count_wrong(exp, None if text is None else json.loads(text))
            attempted += len(exp)
            failed += wrong
            if wrong:
                problems.append(f"{what}: {lane['lane']}: {wrong} of {len(exp)} rows wrong")
        for lane, tb in sample["errors"].items():
            problems.append(f"{what}: {lane} raised:\n{tb}")

    spawn(setup_spec)  # warm-up: byte-code cache and page cache, not measured
    untraced, traced, layers = [], [], []
    if trace:
        shutil.rmtree(span_dir, ignore_errors=True)
        span_dir.mkdir(parents=True)
    start = time.monotonic()
    try:
        while True:
            untraced.append(spawn(spec))
            check(untraced[-1], f"sample {len(untraced)}")
            if trace:
                run_id = f"s{len(traced)}"
                traced.append(spawn(dict(spec, span_dir=str(span_dir), run_id=run_id)))
                check(traced[-1], f"traced sample {len(traced)}")
                if traced[-1]["reports"] != untraced[0]["reports"]:
                    problems.append(f"traced sample {len(traced)}: rows differ from untraced rows")
                layers.append(layer_metrics(span_dir, run_id))
            # Start another round only if it should end within --seconds.
            elapsed = time.monotonic() - start
            if elapsed * (len(untraced) + 1) / len(untraced) > seconds and (
                trace or len(untraced) >= MIN_SAMPLES
            ):
                break
    finally:
        shutil.rmtree(span_dir, ignore_errors=True)

    sweep_s = statistics.median(s["sweep_s"] for s in untraced)
    if trace:
        values = {}
        for metric in PER_LAYER:
            values[metric] = statistics.median(m.get(metric, 0) for m in layers)
        rows = [json.loads(text) for text in untraced[0]["reports"].values()]
        values["harness.rows"] = sum(len(r) for r in rows)
        values["harness.rows_skipped"] = sum(row["status"] == "skipped" for r in rows for row in r)
        traced_s = statistics.median(s["sweep_s"] for s in traced)
        values["trace.overhead_frac"] = traced_s / sweep_s - 1
        units = PER_LAYER
    else:
        setups = [s["setup_s"] for s in untraced]
        setups += [spawn(setup_spec)["setup_s"] for _ in range(EXTRA_SETUP_SAMPLES)]
        values = {
            "sweep_s": sweep_s,
            "cpu_s": statistics.median(s["cpu_s"] for s in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
        }
        units = END_TO_END
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    meta = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "lanes": lanes,
        "samples": len(untraced),
        "traced_samples": len(traced),
        "rows_wrong_frac": failed / attempted,
        "python": untraced[0]["python"],
        "numpy": untraced[0]["numpy"],
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "problems": problems,
    }
    return result, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "theta_forms" / "harness.py").is_file():
        print(f"no theta_forms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            result, meta = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (BenchError, OSError, ValueError, KeyError) as exc:
            print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        for problem in meta["problems"]:
            print(f"{name}: {problem}", file=sys.stderr)
        print(json.dumps(meta))
        print(f"{name}: rows_wrong_frac = {meta['rows_wrong_frac']:.6g} ({result['failed']} of {result['attempted']} rows)")
        for metric, m in result["metrics"].items():
            print(f"{name}: {metric} = {m['value']:.6g} {m['unit']}")
        print(json.dumps(result))
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
