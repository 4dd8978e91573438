"""Seeded end-to-end benchmark of `wfnet reduce`, `verify-andor` and `soundness`.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reduce-members --seed 1 --seconds 25 --trace 0

One closed-loop caller runs the workload's CLI commands in-process through
`wfnet.cli.main`, one at a time, in whole passes over the workload until
`--seconds` have gone by, and at least `MIN_PASSES` passes.  Before
timing, the inputs are planned once from the seed, untimed, then remade
and written at least `SETUP_REPEATS` times and for at least
`SETUP_SECONDS` (the median is `setup_s`), and one warm-up pass runs
every command and checks its output.  Every timed command must then print
and write the same bytes as in the warm-up.  With the default seed the
warm-up bytes must also match the digests in `digests.json`.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates
untraced and traced passes and reports the per-layer split of the traced
ones (see `tracing.py`), per pass.  The last line of stdout is one JSON
object; the exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
DIGESTS = HERE / "digests.json"
# Set-up runs at least SETUP_REPEATS times and for at least SETUP_SECONDS,
# so that the median of a cheap set-up spans a few seconds, not a fraction
# of one: on a shared host the speed drifts over seconds.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
TAIL_BEYOND = 10
# With at least three passes, the ten executions beyond the tail all come
# from the workload's largest inputs.
MIN_PASSES = 3


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs a few small inputs, for the benchmark's own tests")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's warm-up digests as the reference (default seed only)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
        import tracing
        from wfnet import cli
    except ImportError as exc:
        print(f"perfbench: cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.record_digests and args.seed != DEFAULT_SEED:
        print("perfbench: digests are recorded for the default seed only", file=sys.stderr)
        return 2

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_start": os.getloadavg(),
    }
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    try:
        inputs = workloads.plan(args.workload, args.seed, args.scale)
        setups = []
        while not setups or (not args.trace and (len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS)):
            gc.collect()
            start = time.perf_counter()
            ops = workloads.build(inputs, workdir)
            setups.append(time.perf_counter() - start)
        # Later collections then scan only what the ops allocate, as they
        # would in a fresh CLI process, so the per-op collection stays cheap.
        gc.collect()
        gc.freeze()
        os.chdir(workdir)
        bench = Bench(cli, ops)
        expected = _expected_digests(args)
        bench.warm_up(expected)
        if args.record_digests and not bench.bad:
            _record_digests(args, bench.reference)
        if args.trace:
            metrics = bench.traced(args.seconds, tracing.Tracer())
        else:
            metrics = bench.timed(args.seconds)
            metrics["setup_s"] = (statistics.median(setups), "s")
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    env["loadavg_end"] = os.getloadavg()

    for name, reason in bench.bad.items():
        print(f"FAIL {name}: {reason}", file=sys.stderr)
    correct = not bench.bad and bench.failed == 0
    print(f"workload {args.workload}, seed {args.seed}, scale {args.scale}, trace {args.trace}: "
          f"{bench.passes} passes, {bench.attempted} ops, {bench.failed} failed")
    for line in bench.notes:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28} {value:14.6g} {unit}")
    print(f"  env {json.dumps(env)}")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def _expected_digests(args: argparse.Namespace) -> dict[str, str] | None:
    if args.seed != DEFAULT_SEED or args.record_digests:
        return None
    try:
        stored = json.loads(DIGESTS.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return stored.get(args.scale, {}).get(args.workload, {})


def _record_digests(args: argparse.Namespace, reference: dict[str, str]) -> None:
    try:
        stored = json.loads(DIGESTS.read_text(encoding="utf-8"))
    except OSError:
        stored = {"seed": DEFAULT_SEED}
    stored.setdefault(args.scale, {})[args.workload] = reference
    DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _digest(result) -> str:
    h = hashlib.sha256(f"{result.code}\n".encode())
    for part in (result.stdout, *result.files):
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


class Bench:
    """Runs a workload's ops and keeps what the metrics and checks need."""

    def __init__(self, cli, ops) -> None:
        self.cli = cli
        self.ops = ops
        self.reference: dict[str, str] = {}
        self.bad: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.notes: list[str] = []

    def execute(self, argv, outputs=(), operation=contextlib.nullcontext):
        """Run one CLI call; only the call itself is inside the timed region."""
        from workloads import Result

        for name in outputs:
            Path(name).unlink(missing_ok=True)
        gc.collect()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            with operation():
                start = time.perf_counter()
                try:
                    code = self.cli.main(list(argv))
                except Exception as exc:  # a crash is a failed op, not a crashed benchmark
                    code, out = -1, io.StringIO(f"raised {exc!r}"[:200])
                elapsed = time.perf_counter() - start
        files = tuple(Path(name).read_text(encoding="utf-8") if Path(name).exists() else ""
                      for name in outputs)
        return elapsed, Result(code, out.getvalue(), files)

    def warm_up(self, expected: dict[str, str] | None) -> None:
        """Run every op once, untimed, and check what it printed and wrote."""
        from workloads import Result

        for op in self.ops:
            _, result = self.execute(op.argv, op.outputs)
            reason = op.check(result)
            if reason is None and op.member is not None:
                _, verdict = self.execute(("verify-andor", op.member))
                if verdict != Result(0, "AND-OR: yes\n", ()):
                    reason = f"member not AND-OR: {verdict.stdout[:80]!r}"
            self.reference[op.name] = _digest(result)
            if reason is None and expected is not None and expected.get(op.name) != self.reference[op.name]:
                reason = "output differs from the recorded digest"
            if reason is not None:
                self.bad[op.name] = reason

    def run_pass(self, operation=contextlib.nullcontext) -> list[float]:
        """One pass over all ops: the latency of each, in op order."""
        latencies = []
        for op in self.ops:
            elapsed, result = self.execute(op.argv, op.outputs, operation)
            self.attempted += 1
            if op.name in self.bad or _digest(result) != self.reference[op.name]:
                self.failed += 1
                self.bad.setdefault(op.name, "output differs from the warm-up run")
            latencies.append(elapsed)
        return latencies

    def timed(self, seconds: float) -> dict[str, tuple[float, str]]:
        """End-to-end metrics of the timed passes.

        `ops_per_s`, `nodes_per_s` and `op_p50_ms` use each op's median
        latency across the passes, which keeps a transient slowdown of one
        pass out of them and makes them independent of the pass count.
        `op_tail_ms` ranks every single execution.
        """
        passes = []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            passes.append(self.run_pass())
        self.passes = len(passes)
        per_op = [statistics.median(samples) for samples in zip(*passes)]
        busy = sum(per_op)
        samples = sorted(elapsed for latencies in passes for elapsed in latencies)
        tail_index = max(0, len(samples) - TAIL_BEYOND - 1)
        self.notes.append(
            f"ops_per_s, nodes_per_s and op_p50_ms use per-op medians over {self.passes} passes; "
            f"op_tail_ms is p{100 * (tail_index + 1) / len(samples):.1f} of {len(samples)} executions; "
            f"fail_ratio {self.failed}/{self.attempted}"
        )
        return {
            "ops_per_s": (len(per_op) / busy, "1/s"),
            "nodes_per_s": (sum(op.nodes for op in self.ops) / busy, "1/s"),
            "op_p50_ms": (statistics.median(per_op) * 1000, "ms"),
            "op_tail_ms": (samples[tail_index] * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def traced(self, seconds: float, tracer) -> dict[str, tuple[float, str]]:
        plain_busy = traced_busy = 0.0
        start = time.perf_counter()
        while self.passes == 0 or time.perf_counter() - start < seconds:
            plain_busy += sum(self.run_pass())
            with tracer.installed():
                traced_busy += sum(self.run_pass(tracer.operation))
            self.passes += 1
        n = self.passes
        totals = tracer.span_totals()
        selves = tracer.module_self_seconds()
        counts = tracer.counts

        def calls(name):
            return (totals.get(name, (0, 0.0))[0] / n, "count")

        def secs(name):
            return (totals.get(name, (0, 0.0))[1] / n, "s")

        explore_s = totals.get("soundness.explore", (0, 0.0))[1]
        self.notes.append(f"{n} untraced and {n} traced passes; per-layer figures are per traced pass")
        return {
            "nets.net_builds": (counts["nets.net_builds"] / n, "count"),
            "nets.self_s": (selves["nets"] / n, "s"),
            "subnets.contract.calls": calls("subnets.contract"),
            "subnets.contract.s": secs("subnets.contract"),
            "subnets.subnet_view.calls": calls("subnets.subnet_view"),
            "subnets.subnet_view.s": secs("subnets.subnet_view"),
            "subnets.is_well_nested.s": secs("subnets.is_well_nested"),
            "subnets.self_s": (selves["subnets"] / n, "s"),
            "reduction.contractions": (counts["reduction.contractions"] / n, "count"),
            "reduction.scan.calls": calls("reduction.scan"),
            "reduction.scan.hits": (counts["reduction.scan.hits"] / n, "count"),
            "reduction.scan.s": secs("reduction.scan"),
            "reduction.reduce_net.s": secs("reduction.reduce_net"),
            "reduction.self_s": (selves["reduction"] / n, "s"),
            "classes.classify.calls": calls("classes.classify"),
            "classes.self_s": (selves["classes"] / n, "s"),
            "soundness.explore.calls": calls("soundness.explore"),
            "soundness.explore.s": secs("soundness.explore"),
            "soundness.states": (counts["soundness.states"] / n, "count"),
            "soundness.states_per_s": (counts["soundness.states"] / explore_s if explore_s else 0.0, "1/s"),
            "soundness.bound_hits": (counts["soundness.bound_hits"] / n, "count"),
            "soundness.can_reach.s": secs("soundness.can_reach"),
            "soundness.self_s": (selves["soundness"] / n, "s"),
            "marking.self_s": (selves["marking"] / n, "s"),
            "fileio.parse_net.s": secs("fileio.parse_net"),
            "fileio.serialize_net.s": secs("fileio.serialize_net"),
            "fileio.serialize_forest.s": secs("fileio.serialize_forest"),
            "fileio.tree_bytes": (counts["fileio.tree_bytes"] / n, "bytes"),
            "cli.self_s": (tracer.root_self_seconds() / n, "s"),
            "trace.overhead_ratio": (traced_busy / plain_busy, "ratio"),
        }


if __name__ == "__main__":
    sys.exit(main())
