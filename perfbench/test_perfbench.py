"""Self-tests of the benchmark: python3 -m pytest perfbench/test_perfbench.py"""

import copy
import json

import pytest

import run


@pytest.fixture(scope="module")
def identities_sample():
    """One real sample of series-identities at seed 0, with its reference."""
    lanes = run.lane_windows(run.WORKLOADS["series-identities"], 0)
    ref = run.load_reference("series-identities")
    spec = {"lanes": lanes, "weights": [], "setup_only": False, "span_dir": None, "run_id": None}
    rows = json.loads(run.spawn(spec)["reports"]["identities"])
    return ref["lanes"]["identities"], rows


def test_current_code_matches_reference(identities_sample):
    lane_ref, rows = identities_sample
    assert run.count_wrong(run.expected_rows(lane_ref, 5), rows) == 0


def test_one_perturbed_reference_row_is_caught(identities_sample):
    lane_ref, rows = identities_sample
    perturbed = copy.deepcopy(lane_ref)
    perturbed["rows"][3]["status"] = "fail"
    assert run.count_wrong(run.expected_rows(perturbed, 5), rows) == 1


def test_missing_extra_and_raised_rows_are_caught(identities_sample):
    lane_ref, rows = identities_sample
    expected = run.expected_rows(lane_ref, 5)
    assert run.count_wrong(expected, rows[1:]) == 1
    assert run.count_wrong(expected, rows + [dict(rows[0], p=997)]) == 1
    assert run.count_wrong(expected, rows + rows[:1]) == 1
    assert run.count_wrong(expected, None) == len(expected)


def test_seed_moves_only_the_lower_edge_within_its_band():
    for name, workload in run.WORKLOADS.items():
        assert run.lane_windows(workload, 0) == run.lane_windows(workload, 0)
        for spec, lane in zip(workload.lanes, run.lane_windows(workload, 0)):
            assert (lane["p_min"], lane["p_max"]) == (spec.p_min, spec.p_max)
        for seed in range(1, 40):
            for spec, lane in zip(workload.lanes, run.lane_windows(workload, seed)):
                assert spec.p_min <= lane["p_min"] <= spec.shift_to
                assert lane["p_max"] == spec.p_max


def test_benchmark_json_matches_the_definitions_in_run_py():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
