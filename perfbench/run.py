"""Benchmark of the `ghzqss` command, run from the root of a source checkout.

    python3 perfbench/run.py --workload session-n3 --seed 0 --seconds 30 --trace 0

One single-threaded process drives `ghzqss.cli.main(argv)` in-process, one
command at a time in a closed loop, captures its output and checks every
command (see checks.py).  It measures whole cycles of the workload's
command mix for about ``--seconds`` seconds.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1``
it runs each command twice, untraced and then with spans around the
package's public functions (see tracing.py), and reports per-layer metrics
and the tracing overhead.  The last line of standard output is one JSON
object; details (environment, latency percentiles, failures) go to
``.bench_out/<workload>/`` together with the span log of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import tracing
from workloads import WORKLOADS, cycles, warm_up

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE_DIGESTS = HERE / "reference_digests.json"

END_TO_END = ("setup_s", "work_per_s", "cmd_s_p50", "peak_rss_mb")
SETUP_REPEATS = 9
KERNEL_ITERATIONS = 5000
REFERENCE_KERNEL_S = 0.1
CALIBRATE_EVERY_S = 1.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBE = (
    "import sys; sys.path[:0] = [{src!r}, {here!r}]; "
    "import workloads; workloads.warm_up({name!r}, {out!r})"
)


def latency_summary(samples: list[float]) -> dict:
    """Median, and the nearest-rank p90 only when >= 10 samples lie beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(0.9 * len(ordered))
    return {
        "samples": len(ordered),
        "p50": statistics.median(ordered),
        "p90": ordered[rank - 1] if len(ordered) - rank >= 10 else None,
    }


def git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def import_program():
    """Import `ghzqss` from this checkout's sources, never from elsewhere."""
    if not (SRC / "ghzqss" / "__init__.py").is_file():
        raise ImportError(f"no ghzqss sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ghzqss
    import ghzqss.cli

    if SRC not in Path(ghzqss.__file__).resolve().parents:
        raise ImportError(f"ghzqss was imported from {ghzqss.__file__}, not {SRC}")
    return ghzqss


class Runner:
    """Executes and checks commands, keeping the samples of one run."""

    def __init__(self, workload, seed: int, out_dir: Path, references: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.session_dir = str(out_dir / "session")
        self.message_path = str(out_dir / "message.txt")
        self.references = references
        self.attempted = 0
        self.failures: list[str] = []
        self.last_stdout = ""

    def reference(self, cmd):
        table = self.references.get(self.workload.name, {})
        if cmd.kind == "run" and self.seed != self.references.get("seed"):
            return None
        return table.get(cmd.key)

    def execute(self, cmd, tracer=None) -> float:
        """Run one command, check it, and return its wall time."""
        cli = sys.modules["ghzqss.cli"]
        for name in (checks.TRANSCRIPT_NAME, checks.REPORT_NAME):  # no stale outputs
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(self.session_dir, name))
        if cmd.message:
            with open(self.message_path, "w") as fh:
                fh.write(cmd.message)
        argv = cmd.argv(self.session_dir, self.message_path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            root = tracer.open("command " + " ".join(argv[:9])) if tracer else None
            start = perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash is a failed command, not a failed benchmark
                rc = "exception"
                err.write(traceback.format_exc())
            elapsed = perf_counter() - start
            if tracer:
                tracer.close(root)
        self.attempted += 1
        self.last_stdout = out.getvalue()
        reference = self.reference(cmd)
        if cmd.kind == "run":
            problems = checks.check_run(
                cmd, rc, self.last_stdout, err.getvalue(), self.session_dir, reference
            )
        else:
            problems = checks.check_analyze(cmd, rc, self.last_stdout, err.getvalue(), reference)
        if problems:
            self.failures.append(f"{' '.join(argv)}: {'; '.join(problems)}")
        return elapsed


def reference_kernel() -> float:
    """Wall time of a fixed mix of interpreter work and small numpy operations."""
    import numpy as np

    amps = np.full(16, 0.25, dtype=np.complex128)
    totals: dict[int, float] = {}
    start = perf_counter()
    for i in range(KERNEL_ITERATIONS):
        arr = amps.reshape(4, 2, 2)
        out = np.empty_like(arr)
        out[:, 0, :] = (arr[:, 0, :] + arr[:, 1, :]) * 0.7071
        out[:, 1, :] = (arr[:, 0, :] - arr[:, 1, :]) * 0.7071
        totals[i & 15] = totals.get(i & 15, 0.0) + float(np.sum(np.abs(out) ** 2))
        acc = 0
        for j in range(40):
            acc += j * j
    return perf_counter() - start


class ReferenceClock:
    """Converts wall times into reference seconds.

    A shared 2-vCPU host (Xeon, 2.1 GHz) was seen to change speed by up to a
    third for tens of seconds at a time.  The reference kernel runs between
    commands at least every CALIBRATE_EVERY_S, and each wall time is scaled
    by REFERENCE_KERNEL_S over the mean kernel time bracketing it, which
    cancels the machine's speed at that moment.
    """

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.scaled: list[float] = []
        self.kernels = [reference_kernel()]
        self._pending: list[float] = []
        self._since = perf_counter()

    def add(self, seconds: float) -> None:
        self._pending.append(seconds)
        if perf_counter() - self._since >= CALIBRATE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        self.kernels.append(reference_kernel())
        scale = REFERENCE_KERNEL_S / ((self.kernels[-2] + self.kernels[-1]) / 2)
        self.wall += self._pending
        self.scaled += [t * scale for t in self._pending]
        self._pending = []
        self._since = perf_counter()


def measure_setup(name: str, out_dir: Path) -> ReferenceClock:
    """Times of fresh interpreters importing ghzqss and warming up."""
    code = SETUP_PROBE.format(src=str(SRC), here=str(HERE), name=name, out=str(out_dir / "warmup"))
    clock = ReferenceClock()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], check=True, stdin=subprocess.DEVNULL, timeout=120
        )
        clock.add(perf_counter() - start)
        clock.flush()
    return clock


def run_cycles(workload, seed: int, seconds: float, step) -> None:
    """Call ``step(cmd)`` on whole cycles while another cycle fits in ``seconds``."""
    start = perf_counter()
    done = commands = 0
    for cycle in cycles(workload, seed):
        for cmd in cycle:
            step(cmd)
        done += 1
        commands += len(cycle)
        elapsed = perf_counter() - start
        # a traced run checks every command twice; stay within the check budget
        if elapsed * (done + 1) / done > seconds or commands >= checks.MAX_CHECKS_PER_RUN / 2:
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    for var in THREAD_VARS:  # before numpy loads, so its BLAS stays single-threaded
        os.environ[var] = "1"
    workload = WORKLOADS[args.workload]
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import numpy

    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(ROOT),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "loadavg_1m_start": os.getloadavg()[0],
    }
    references = json.loads(REFERENCE_DIGESTS.read_text()) if REFERENCE_DIGESTS.is_file() else {}
    runner = Runner(workload, args.seed, out_dir, references)

    warm_up(workload.name, str(out_dir / "warmup"))
    details: dict = {"environment": env}

    if args.trace:
        tracer = tracing.Tracer()
        untraced: list[float] = []
        traced: list[float] = []

        def step(cmd):
            untraced.append(runner.execute(cmd))
            with tracer.installed():
                traced.append(runner.execute(cmd, tracer))

        run_cycles(workload, args.seed, args.seconds, step)
        metrics = tracing.layer_metrics(tracer, len(traced), sum(untraced), sum(traced))
        units = {name: tracing.layer_unit(name) for name in metrics}
        tracer.write_csv(str(out_dir / "spans.csv"))
    else:
        setup = measure_setup(workload.name, out_dir)
        clock = ReferenceClock()
        run_cycles(workload, args.seed, args.seconds, lambda cmd: clock.add(runner.execute(cmd)))
        clock.flush()
        work = (workload.rounds if workload.kind == "run" else 1) * len(clock.scaled)
        latency = latency_summary(clock.scaled)
        details.update(
            setup_s_samples=setup.scaled,
            setup_wall_s_samples=setup.wall,
            setup_kernel_s=setup.kernels,
            cmd_s=latency,
            cmd_s_samples=clock.scaled,
            cmd_wall_s=latency_summary(clock.wall),
            work_per_wall_s=work / sum(clock.wall),
            kernel_s=clock.kernels,
        )
        metrics = {
            "setup_s": statistics.median(setup.scaled),
            "work_per_s": work / sum(clock.scaled),
            "cmd_s_p50": latency["p50"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "work_per_s": "1/s", "cmd_s_p50": "s", "peak_rss_mb": "MB"}

    env["loadavg_1m_end"] = os.getloadavg()[0]
    failed = len(runner.failures)
    details.update(
        attempted=runner.attempted,
        failed=failed,
        failed_frac=failed / runner.attempted,
        failures=runner.failures,
        metrics=metrics,
    )
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=2) + "\n"
    )
    for line in runner.failures[:10]:
        print(f"FAILED {line[:400]}")
    print(
        f"workload={workload.name} seed={args.seed} attempted={runner.attempted} "
        f"failed={failed} loadavg={env['loadavg_1m_start']:.2f}->{env['loadavg_1m_end']:.2f}"
    )
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
