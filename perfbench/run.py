"""End-to-end benchmark of the ``python -m repro run`` jobs users wait on.

    python3 perfbench/run.py --workload fleet --seed 0 --seconds 40 --trace 0

Each workload (``workloads.json``) is one CLI invocation, with ``--seed``
passed through.  Every pass runs ``repro.store.cli.main(argv)`` in a fresh
interpreter: a **cold** pass into a fresh empty store, then a **warm** pass
with the same argv that must serve every cell from that store.  One
invocation runs at a time (a closed loop of one caller); there is no
arrival rate.

``--trace 0`` repeats rounds (a set-up probe, a cold pass, a warm pass)
while another round fits in ``--seconds``, at least ``MIN_ROUNDS`` of them,
and reports the medians of:

* ``setup_s``  — a fresh interpreter imports ``repro.store.cli`` and builds
  the workload's spec-variant engines;
* ``cold_s`` / ``warm_s`` — wall time of ``main(argv)`` in each pass;
* ``peak_rss_mb`` — the larger peak RSS of the two pass processes;
* ``store_kb_per_run`` — bytes under the store root after the cold pass,
  per run.

``fail_frac`` (failed over attempted cells) is printed, and carried in the
result's ``failed`` and ``attempted`` counts.

The three times are scaled to a reference host speed by calibration probes
taken before and after each step (see :class:`Probe`); the unscaled medians
are printed beside them.

``--trace 1`` reports the per-layer split instead: an untraced cold pass,
then a traced cold and warm pass (see ``tracing.py``), repeated while time
allows; the trace overhead is traced minus untraced ``cold_s``.

Outputs are checked: each pass's result table, with the store-path and index
lines stripped, must be byte-identical between cold and warm, and for the
default seed must match the digest in ``workloads.json``.  A non-zero exit,
a mismatch, a cold pass served from the store or a warm pass that executes
any task counts that pass's cells as failed.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

Every store is a fresh directory under ``.perfbench_out/`` in the checkout,
removed afterwards; the spans of the last traced run stay there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
RUNNER = HERE / "pass_runner.py"

MIN_ROUNDS = 3
PASS_TIMEOUT_S = 120

#: End-to-end metrics and their units.
UNITS = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "peak_rss_mb": "MB",
    "store_kb_per_run": "kB",
}

#: :func:`calibrate`'s time on an uncontended 2-vCPU Xeon VM.
CALIBRATION_REF_S = 0.14

SERVED_LINE = re.compile(
    r"^(\d+) task\(s\) executed, (\d+) served from the store \(.*\)$"
)
INDEX_LINE = re.compile(r"^index: \d+ run\(s\)$")

Metrics = Dict[str, Tuple[float, str]]


def child_env() -> Dict[str, str]:
    """The environment of a child: this checkout's sources come first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def calibrate() -> float:
    """Seconds this host takes for a fixed mix of the kinds of work the CLI
    does: JSON encode/decode of float lists (the store codec), Python object
    churn (trace materialisation) and small-vector numpy steps (lockstep
    stepping).  A shared host runs for seconds to minutes up to ~1.7x
    slower; scaling each step by ``CALIBRATION_REF_S`` over the probes
    around it keeps such a phase from reading as a regression.
    """
    import numpy as np

    start = time.perf_counter()
    values = [index * 0.37 for index in range(200_000)]
    json.loads(json.dumps(values))
    rows: Dict[int, Tuple[int, float]] = {}
    for index in range(150_000):
        rows[index % 1000] = (index, float(index))
    vector = np.zeros(192)
    for _ in range(1000):
        vector = np.minimum(np.sqrt(vector + 1.0), 3.0)
    return time.perf_counter() - start


def time_setup(argv: List[str]) -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(RUNNER), "setup", "--", *argv],
        env=child_env(),
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=PASS_TIMEOUT_S,
    )
    return time.perf_counter() - start


class Pass:
    """The outcome of one ``main(argv)`` pass in a fresh interpreter."""

    def __init__(self, argv: List[str], store: Path, trace_out: Optional[Path]):
        command = [sys.executable, str(RUNNER), "pass"]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["--", *argv, "--store", str(store)]
        self.result: Dict[str, Any] = {}
        self.table = ""
        self.executed = self.served = -1
        try:
            completed = subprocess.run(
                command,
                env=child_env(),
                capture_output=True,
                text=True,
                timeout=PASS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            print(f"pass timed out: {argv}", file=sys.stderr)
            return
        if completed.returncode == 0 and completed.stdout.strip():
            self.result = json.loads(completed.stdout.strip().splitlines()[-1])
        if completed.returncode != 0 or self.result.get("exit") != 0:
            print(completed.stderr, file=sys.stderr)
        kept = []
        for line in self.result.get("stdout", "").splitlines():
            served = SERVED_LINE.match(line)
            if served:
                self.executed, self.served = int(served[1]), int(served[2])
            elif not INDEX_LINE.match(line):
                kept.append(line)
        self.table = "\n".join(kept) + "\n"

    @property
    def ok(self) -> bool:
        return self.result.get("exit") == 0 and self.executed >= 0

    @property
    def seconds(self) -> float:
        return self.result["seconds"]

    @property
    def rss_mb(self) -> float:
        return self.result["maxrss_kb"] / 1024


def tree_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


class Bench:
    """Runs passes of one workload and keeps the failure accounting."""

    def __init__(self, name: str, spec: Dict[str, Any], seed: int, digest_seed: int):
        self.name = name
        self.cells = spec["cells"]
        self.argv = [*spec["argv"], "--seed", str(seed)]
        self.digest = spec["digest"] if seed == digest_seed else None
        self.attempted = 0
        self.failed = 0
        self.work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def store(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="store-", dir=self.work))

    def count(self, ok: bool) -> None:
        self.attempted += self.cells
        if not ok:
            self.failed += self.cells

    def check_cold(self, cold: Pass, reference: Optional[Pass] = None) -> None:
        ok = cold.ok and cold.executed == self.cells and cold.served == 0
        if ok and self.digest is not None:
            ok = hashlib.sha256(cold.table.encode()).hexdigest() == self.digest
        if ok and reference is not None:
            ok = cold.table == reference.table
        if not ok:
            print(f"{self.name}: cold pass failed its check", file=sys.stderr)
        self.count(ok)

    def check_warm(self, warm: Pass, cold: Pass) -> None:
        ok = (
            warm.ok
            and warm.executed == 0
            and warm.served == self.cells
            and warm.table == cold.table
        )
        if not ok:
            print(f"{self.name}: warm pass failed its check", file=sys.stderr)
        self.count(ok)


def loop(seconds: float, body: Callable[[], None]) -> int:
    """Call *body* while another call is expected to end within *seconds*."""
    deadline = time.perf_counter() + seconds
    durations: List[float] = []
    while len(durations) < MIN_ROUNDS or (
        time.perf_counter() + max(durations) <= deadline
    ):
        start = time.perf_counter()
        body()
        durations.append(time.perf_counter() - start)
    return len(durations)


class Probe:
    """Runs timed steps between calibration probes.

    A step's time is scaled by ``CALIBRATION_REF_S`` over the median of the
    two probes before and the two after it: a shared host's slow phases last
    seconds to minutes, so nearby probes track them, and the median keeps
    one noisy probe from skewing a step.
    """

    def __init__(self) -> None:
        self.calibrations = [calibrate()]
        self.steps: List[Tuple[str, float, int]] = []

    def run(self, step: Callable[[], Any]) -> Any:
        """*step*'s result; call :meth:`record` with its time right after."""
        result = step()
        self.calibrations.append(calibrate())
        return result

    def record(self, name: str, seconds: float) -> None:
        self.steps.append((name, seconds, len(self.calibrations) - 1))

    def samples(self, scaled: bool) -> Dict[str, List[float]]:
        samples: Dict[str, List[float]] = {}
        for name, seconds, after in self.steps:
            near = self.calibrations[max(0, after - 2) : after + 2]
            scale = CALIBRATION_REF_S / statistics.median(near) if scaled else 1.0
            samples.setdefault(name, []).append(seconds * scale)
        return samples


def measure(bench: Bench, seconds: float) -> Tuple[Metrics, int]:
    samples: Dict[str, List[float]] = {"peak_rss_mb": [], "store_kb_per_run": []}
    probe = Probe()

    def round_() -> None:
        probe.record("setup_s", probe.run(lambda: time_setup(bench.argv)))
        store = bench.store()
        cold = probe.run(lambda: Pass(bench.argv, store, None))
        bench.check_cold(cold)
        if cold.ok:
            probe.record("cold_s", cold.seconds)
            samples["store_kb_per_run"].append(tree_bytes(store) / 1024 / bench.cells)
        warm = probe.run(lambda: Pass(bench.argv, store, None))
        bench.check_warm(warm, cold)
        if warm.ok:
            probe.record("warm_s", warm.seconds)
        shutil.rmtree(store)
        if cold.ok and warm.ok:
            samples["peak_rss_mb"].append(max(cold.rss_mb, warm.rss_mb))

    rounds = loop(seconds, round_)
    print(
        f"host calibration median {statistics.median(probe.calibrations):.4f} s "
        f"(reference {CALIBRATION_REF_S} s); unscaled medians: "
        + ", ".join(
            f"{name} {statistics.median(values):.4f} s"
            for name, values in probe.samples(scaled=False).items()
        )
    )
    samples.update(probe.samples(scaled=True))
    metrics: Metrics = {
        name: (statistics.median(samples[name]), unit)
        for name, unit in UNITS.items()
        if samples.get(name)
    }
    return metrics, rounds


def measure_traced(bench: Bench, seconds: float) -> Tuple[Metrics, int]:
    samples: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    overheads: List[Tuple[float, float]] = []

    def add(prefix: str, metrics: Metrics) -> None:
        for name, (value, unit) in metrics.items():
            samples.setdefault(f"{prefix}.{name}", []).append(value)
            units[f"{prefix}.{name}"] = unit

    def traced_pass(label: str, store: Path, reference: Pass) -> Optional[Pass]:
        spans = OUT / f"trace-{bench.name}-{label}.json"
        result = Pass(bench.argv, store, spans)
        if label == "cold":
            bench.check_cold(result, reference)
        else:
            bench.check_warm(result, reference)
        if not result.ok:
            return None
        metrics = tracing.pass_metrics(
            json.loads(spans.read_text()), result.executed + result.served
        )
        metrics["count.tasks_executed"] = (float(result.executed), "count")
        metrics["count.tasks_served"] = (float(result.served), "count")
        add(label, metrics)
        return result

    def iteration() -> None:
        store = bench.store()
        untraced = Pass(bench.argv, store, None)
        bench.check_cold(untraced)
        shutil.rmtree(store)
        store = bench.store()
        cold = traced_pass("cold", store, untraced)
        if cold is not None:
            traced_pass("warm", store, cold)
            if untraced.ok:
                overheads.append((cold.seconds, untraced.seconds))
        shutil.rmtree(store)

    iterations = loop(seconds, iteration)
    metrics: Metrics = {
        name: (statistics.median(values), units[name])
        for name, values in samples.items()
    }
    if overheads:
        traced = statistics.median(t for t, _ in overheads)
        untraced = statistics.median(u for _, u in overheads)
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        metrics["trace.overhead_pct"] = (100 * (traced - untraced) / untraced, "%")
    return metrics, iterations


def print_split(metrics: Metrics) -> None:
    print("per-layer self time (share of the traced pass):")
    header = "pass  " + "".join(f"{layer:>16}" for layer in tracing.LAYERS)
    print(header)
    for label in ("cold", "warm"):
        wall = metrics.get(f"{label}.traced_s", (0.0, "s"))[0]
        cells = []
        for layer in tracing.LAYERS:
            ms = metrics.get(f"{label}.layer.{layer}_ms", (0.0, "ms"))[0]
            share = 100 * ms / (1e3 * wall) if wall else 0.0
            cells.append(f"{ms:9.1f}ms {share:4.1f}%")
        print(f"{label:<6}" + "".join(f"{cell:>16}" for cell in cells))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "store" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    config = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in config["workloads"]:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"known: {sorted(config['workloads'])}",
            file=sys.stderr,
        )
        return 2
    seed = config["default_seed"] if args.seed is None else args.seed
    OUT.mkdir(exist_ok=True)
    bench = Bench(
        args.workload, config["workloads"][args.workload], seed, config["default_seed"]
    )
    try:
        if args.trace:
            metrics, rounds = measure_traced(bench, args.seconds)
        else:
            metrics, rounds = measure(bench, args.seconds)
    finally:
        bench.close()

    fail_frac = bench.failed / bench.attempted
    print(f"workload {args.workload}, seed {seed}, {rounds} round(s), "
          f"{bench.cells} cell(s) per pass")
    if args.trace:
        print_split(metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:14.4f} {unit}")
    print(f"  {'fail_frac':<44} {fail_frac:14.4f} ({bench.failed}/{bench.attempted} cells)")
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
