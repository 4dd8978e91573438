"""Checks of the benchmark itself.  Run with `python3 -m pytest perfbench -q`.

Each run uses the tiny scale, so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--scale", "tiny", "--seconds", "0.2", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for metric in wanted:
        assert any(line.split()[:1] == [metric["name"]] and line.endswith(metric["unit"])
                   for line in proc.stdout.splitlines())


def _copy_benchmark(to: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", to)
    shutil.copytree(HERE, to / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))


def test_corrupted_reference_digest_fails_the_run(tmp_path):
    _copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    copied = tmp_path / "perfbench" / "digests.json"
    digests = json.loads(copied.read_text(encoding="utf-8"))
    table = digests["tiny"]["reduce-members"]
    victim = sorted(table)[0]
    table[victim] = "0" * 64
    copied.write_text(json.dumps(digests), encoding="utf-8")

    proc = _run("--workload", "reduce-members", cwd=tmp_path)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert f"FAIL {victim}: output differs from the recorded digest" in proc.stderr


def test_held_out_seed_runs_every_other_check():
    proc = _run("--workload", "soundness-bounded", "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"]


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    _copy_benchmark(tmp_path)
    proc = _run("--workload", WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_checks_reject_corrupted_outputs():
    net = workloads.chain(workloads.random.Random(0), 3)
    reduce_check = workloads._reduced_to_one(net.nodes)
    tree = json.dumps([{"node": "x", "classes": [], "children": [{"node": n, "classes": [], "children": []}
                                                                 for n in sorted(net.nodes)]}])
    one = json.dumps({"places": ["x"], "transitions": []})
    two = json.dumps({"places": ["x", "y"], "transitions": []})
    assert reduce_check(workloads.Result(0, "", (tree, one))) is None
    assert reduce_check(workloads.Result(0, "", (tree, two))) is not None
    assert reduce_check(workloads.Result(0, "", (tree.replace('"p', '"q', 1), one))) is not None

    # A witness must replay to the marking it names, and an unsound verdict exits 2.
    replay_check = workloads._verdicts_replay(net, ("1",))
    (start,) = net.inputs
    (t,) = net.postset(start)
    good = f"a.net: unsound at k=1\na.net:  unsound k=1: firing {t} reaches stuck marking "
    reached = workloads.replay(net, workloads.input_marking(net, 1), [t])
    assert replay_check(workloads.Result(2, good + f"{reached!r}\n", ())) is None
    assert replay_check(workloads.Result(2, good + "{p9:1}\n", ())) is not None
    assert replay_check(workloads.Result(0, good + f"{reached!r}\n", ())) is not None
