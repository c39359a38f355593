"""Smoke test of the benchmark itself: one op per workload at a tiny n.

    python3 -m pytest perfbench
"""

import pytest

import run

# metrics printed beside the result line's, by the names the workloads use
PRINTED = {
    "certify-l2": ("certs_per_s", "mean_bound", "certified_frac", "fail_frac"),
    "certify-linf-ext": ("certs_per_s", "mean_bound", "certified_frac", "fail_frac"),
    "radius-l2": ("radii_per_s", "mean_radius", "fail_frac"),
    "pareto-d5": ("points_per_s", "mean_overlap", "fail_frac"),
    "traced": (
        "discrepancy.dual_s", "discrepancy.dual_self_s", "discrepancy.epsilon",
        "classifiers.p0_s", "classifiers.p0_self_s", "classifiers.eval_s",
        "classifiers.eval_rows_per_s", "certify.cp_s", "certify.self_s", "lab.self_s",
        "fail_frac",
    ),
}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_one_op_emits_every_metric_and_checks_it(workload, trace):
    record = run.run_workload(workload, seed=3, seconds=0, trace=trace, n=2000,
                              quality_ops=1, setup_probes=False)
    line = record["line"]
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == (2 if trace else 1)
    assert line["metrics"].keys() == (run.PER_LAYER if trace else run.END_TO_END).keys()
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))

    for name in PRINTED["traced" if trace else workload]:
        assert record["metrics"][name]["unit"], name
    assert "missing" not in {m["value"] for m in record["metrics"].values()}

    checks = record["checks"]
    assert checks["ops"] == line["attempted"]
    if workload != "certify-linf-ext":
        assert checks["statistical_checks"] > 0
    else:
        assert checks["run_checks"] == ["transport"]
    if trace:
        assert set(record["counts"]) == set(run.COUNTS)



def test_missing_boundary_reads_missing_on_the_result_line(monkeypatch):
    import spans

    gone = tuple((name, module, attr + "_renamed" if name == "certify.dual_lower_bound" else attr, *rest)
                 for name, module, attr, *rest in spans.BOUNDARIES)
    monkeypatch.setattr(spans, "BOUNDARIES", gone)
    record = run.run_workload("certify-l2", seed=3, seconds=0, trace=True, n=2000,
                              quality_ops=1, setup_probes=False)
    assert record["missing_boundaries"] == ["certify.dual_lower_bound"]
    metrics = record["line"]["metrics"]
    assert metrics["discrepancy.dual_calls"]["value"] == "missing"
    assert metrics["discrepancy.lambda_evals"]["value"] == "missing"
    assert isinstance(metrics["families.draw_s"]["value"], float)


def test_tail_is_the_90th_percentile():
    assert run._tail([float(t) for t in range(1, 12)]) == (10.0, 1)
    assert run._tail([2.5]) == (2.5, 0)
