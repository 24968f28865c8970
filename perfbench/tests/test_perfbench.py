"""Tests of the benchmark's own logic. Run: python3 -m pytest perfbench/tests"""

import ast
import json
from itertools import permutations
from pathlib import Path

import pytest

import measure
import refkernel
import run
import tracing
import workloads


# ---------------------------------------------------------------------------
# reference kernel and scaling


def test_kernel_imports_nothing_from_the_package_under_test():
    tree = ast.parse(Path(refkernel.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported and not any(name.split(".")[0] == "quorder" for name in imported)


def test_kernel_computes_its_checksum():
    assert refkernel._closure() == 360
    assert refkernel._distributivity_failures() == 0
    assert refkernel.kernel() == refkernel.KERNEL_CHECKSUM
    assert refkernel.sample_ms() > 0


def test_local_medians_use_the_window_around_each_sample():
    assert refkernel.local_medians([1, 9, 2, 8, 3], 1) == [5.0, 2, 8, 3, 5.5]


def _meter_with_host_speeds(speeds_ms):
    """A meter whose kernel reads speeds_ms in turn and whose operations take
    30 ms at nominal speed, slowed in proportion to the kernel (every
    operation is longer than the cadence, so each gets its own sample)."""
    samples = iter(speeds_ms)
    meter = measure.Meter(sampler=lambda: next(samples))
    for _ in speeds_ms:
        meter.before_op()
        kernel_ms = meter.kernel_ms[-1]
        meter.record(0.030 * kernel_ms / refkernel.NOMINAL_KERNEL_MS)
    return meter


def test_scaling_cancels_a_host_that_changes_speed():
    meter = _meter_with_host_speeds([2.0] * 20 + [4.0] * 20 + [3.0] * 20)
    raw = list(meter.raw_s)
    assert max(raw) / min(raw) == pytest.approx(2.0)
    assert meter.scaled_s() == pytest.approx([0.030] * 60)


def test_scaling_ignores_a_single_outlying_kernel_sample():
    speeds = [2.0] * 30
    speeds[15] = 20.0
    meter = _meter_with_host_speeds(speeds)
    assert meter.factors()[15] == pytest.approx(refkernel.NOMINAL_KERNEL_MS / 2.0)


def test_operations_share_the_kernel_sample_taken_before_them():
    samples = iter([2.0, 4.0])
    meter = measure.Meter(sampler=lambda: next(samples))
    for raw in (0.001, 0.001, 0.030, 0.001):
        meter.before_op()
        meter.record(raw)
    assert meter.kernel_ms == [2.0, 4.0]
    nominal = refkernel.NOMINAL_KERNEL_MS
    assert meter.factors() == pytest.approx([nominal / 3.0] * 4)  # median of [2, 4] is 3


# ---------------------------------------------------------------------------
# percentiles


def test_percentile_needs_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 101)]
    assert measure.percentile(values, 90) == 90.0
    assert measure.percentile(values, 50) == 50.0
    with pytest.raises(ValueError):
        measure.percentile(values[:99], 90)
    with pytest.raises(ValueError):
        measure.percentile(values[:19], 50)


def test_min_samples_matches_the_percentile_rule():
    for pct in (50, 90):
        n = measure.min_samples(pct)
        measure.percentile([0.0] * n, pct)
        with pytest.raises(ValueError):
            measure.percentile([0.0] * (n - 1), pct)
    assert run.MIN_OPS == 100


# ---------------------------------------------------------------------------
# failures


TRIVIAL5 = workloads.trivial(5)


def _enumerate_op(prop="right-circular", table=TRIVIAL5):
    check = lambda text: workloads.check_enumerate(text, table, prop)
    return workloads.Op(("enumerate", "--property", prop), check, "trivial:5/" + prop)


def _report(count, members, prop="right-circular", table=TRIVIAL5):
    return json.dumps(
        {
            "command": "enumerate",
            "property": prop,
            "input": {"table": [list(r) for r in table]},
            "count": count,
            "members": members,
        }
    )


def _printing(text, status=0):
    def main(argv):
        print(text)
        return status

    return main


def _all_arrangements(n):
    return [{"arrangement": [0, *rest]} for rest in permutations(range(1, n))]


def test_a_correct_report_passes():
    _, failure = measure.run_op(_printing(_report(24, _all_arrangements(5))), _enumerate_op())
    assert failure is None


def test_a_wrong_count_is_a_failure():
    members = _all_arrangements(5)[:-1]
    _, failure = measure.run_op(_printing(_report(23, members)), _enumerate_op())
    assert failure and "count 23" in failure


def test_right_count_with_wrong_members_is_a_failure():
    members = _all_arrangements(5)[:-1] + [{"arrangement": [0, 1, 2, 3, 3]}]
    _, failure = measure.run_op(_printing(_report(24, members)), _enumerate_op())
    assert failure is not None


def test_an_empty_space_reported_as_non_empty_is_a_failure():
    members = _all_arrangements(5)
    _, failure = measure.run_op(_printing(_report(24, members, "left-circular")), _enumerate_op("left-circular"))
    assert failure is not None


def test_a_raising_operation_is_a_failure():
    def main(argv):
        raise AssertionError("fast path and exhaustive search disagree")

    _, failure = measure.run_op(main, _enumerate_op())
    assert failure.startswith("raised AssertionError")


def test_a_nonzero_exit_is_a_failure():
    _, failure = measure.run_op(_printing(_report(24, _all_arrangements(5)), status=3), _enumerate_op())
    assert failure == "exit status 3"

    def exits(argv):
        raise SystemExit(2)

    _, failure = measure.run_op(exits, _enumerate_op())
    assert failure == "exit status 2"


def test_a_malformed_report_is_a_failure():
    _, failure = measure.run_op(_printing("not json"), _enumerate_op())
    assert failure.startswith("malformed report")


def test_tally_counts_failures_against_attempts():
    tally = run.Tally()
    op = _enumerate_op()
    tally.add(op, None)
    tally.add(op, "exit status 2")
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.reasons == ["trivial:5/right-circular: exit status 2"]


# ---------------------------------------------------------------------------
# inputs and expected answers


def _isomorphic(a, b):
    n = len(a)
    return any(
        all(b[p[i]][p[j]] == p[a[i][j]] for i in range(n) for j in range(n)) for p in permutations(range(n))
    )


def test_order5_data_is_the_22_classes():
    classes = workloads.order5_classes()
    assert len(classes) == 22
    assert all(workloads.is_quandle(t) for t in classes)
    for i, a in enumerate(classes):
        assert not any(_isomorphic(a, b) for b in classes[i + 1 :])


def test_every_input_is_a_quandle_and_relabels_to_one():
    for label, table in workloads.enumerate_inputs() + workloads.check_inputs():
        assert workloads.is_quandle(table), label
        perm = list(reversed(range(len(table))))
        assert workloads.is_quandle(workloads.relabel(table, perm)), label


def test_expected_members_of_trivial_and_non_trivial_quandles():
    assert len(workloads.expected_members(TRIVIAL5, "right-circular")) == 24
    assert len(workloads.expected_members(TRIVIAL5, "right-order")) == 120
    for prop in ("left-circular", "bi-circular", "left-order"):
        assert workloads.expected_members(TRIVIAL5, prop) == frozenset()
    for prop in workloads.PROPERTIES:
        assert workloads.expected_members(workloads.dihedral(5), prop) == frozenset()


def test_rounds_hold_every_pair_once_under_any_seed(tmp_path):
    import random

    for seed in (1, 2):
        (tmp_path / str(seed)).mkdir()
        w = workloads.build("check", seed, tmp_path / str(seed))
        keys = sorted(op.key for op in w.make_round(random.Random(seed)))
        assert keys == sorted(f"{label}/{p}" for label, _ in workloads.check_inputs() for p in workloads.PROPERTIES)


# ---------------------------------------------------------------------------
# against the real program


@pytest.fixture(scope="module")
def package():
    return run.load_package()


def test_census_report_matches_the_committed_digest(package):
    census = workloads.build("census", 0, Path("."))
    _, failure = measure.run_op(package.cli.main, census.warmup[0])
    assert failure is None


def test_warmup_operations_pass(package, tmp_path):
    for name in ("enumerate", "check"):
        (tmp_path / name).mkdir()
        w = workloads.build(name, 7, tmp_path / name)
        for op in w.warmup:
            assert measure.run_op(package.cli.main, op)[1] is None, op.key


def test_tracer_counts_work_and_restores_the_package(package):
    original_closure = package.search.closure
    original_decider = package.cli._DECIDERS["right-circular"]
    tracer = tracing.Tracer()
    tracer.install(package)
    try:
        census = workloads.build("census", 0, Path("."))
        assert measure.run_op(tracer.main_for(0), census.warmup[0])[1] is None
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert package.search.closure is original_closure
    assert package.cli._DECIDERS["right-circular"] is original_decider
    assert tracer.counts["search.decide_calls"] == 60
    assert tracer.counts["cli.report_bytes"] == 4370
    layers = tracer.layer_ms([1.0])
    assert layers["search.generate"] >= layers["search.iso"] > 0
    # self times of all spans add up to the operation's duration
    total = sum(tracer.self_times())
    top = [i for i, p in enumerate(tracer.parent) if p == -1]
    assert total == pytest.approx(sum(tracer.end[i] - tracer.start[i] for i in top))
