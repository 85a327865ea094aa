"""A short untraced run of g4-quick, and the checks on bad outputs."""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)
import checks   # noqa: E402
import metrics  # noqa: E402


def test_g4_quick_smoke_run():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "g4-quick", "--seed", "1", "--units", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
        cwd=os.path.dirname(HERE))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 5 + 5     # commands and set-up probes
    assert set(result["metrics"]) == set(metrics.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_checks_flag_bad_outputs(tmp_path):
    spans = tmp_path / "spans.json"
    spans.write_text(json.dumps({
        "f4_rank": 5, "squares_contained": True,
        "base_locus": {"violations": [[1, 2, 3, 4]],
                       "curve_points_contained": True}}))
    assert checks.check_spans(str(spans), 4) == ["1 base-locus violations"]
    sweep = tmp_path / "sweep.csv"
    sweep.write_text("u0,u1,u2,gamma_u,det_gram,kernel_match\n"
                     "1,2,3,0,0,1\n1,2,4,5,0,\n")
    assert checks.check_hessian(str(sweep), 2) == [
        "1 off-image fibers singular"]
