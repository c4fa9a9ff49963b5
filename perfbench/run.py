"""lasergate benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload coefficient-table --seed 1 --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` runs the workload's command list
as fresh ``lasergate`` processes, one at a time (a closed loop with one
client), and reports the end-to-end metrics.  ``--trace 1`` runs the same
list in this process, untraced, traced and untraced again, and reports the
per-layer metrics; the trace overhead is the traced pass's wall time minus
that of the faster untraced pass.  Every output is checked after the timed
region.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record with
provenance goes to ``perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

# Seconds one pass over each command list takes at the commit that defined
# the benchmark, on a 2-core x86-64 machine.  A run makes
# max(2, ceil(seconds / NOMINAL_PASS_S)) passes, so its work is fixed by
# --seconds and is the same on every commit that is compared.
NOMINAL_PASS_S = {"coefficient-table": 10.0, "markov-vs-jc": 3.0, "trajectory-report": 8.0}
MIN_PASSES = 2           # byte-identical output is checked across passes
SETUP_PROBES = 9
RUN_DEADLINE_S = 150.0   # no command starts, and none may run, past this
WILSON_Z = 1.6449        # one-sided 95% upper bound on the failing share
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# What the installed `lasergate` console script runs.
LAUNCH = "from lasergate.cli import entry; entry()"
IMPORT_ONLY = "import lasergate.cli"


class RunAborted(RuntimeError):
    """The run could not start or would overrun its deadline."""


def failed_share_bound(failed: int, attempted: int) -> float:
    """Wilson upper bound on the share of commands that fail.

    It is never zero, so a run with no failures still has a ratio-comparable
    value, and it rises with every failure: 0 of n gives z^2 / (n + z^2).
    """
    z2 = WILSON_Z ** 2
    p = failed / attempted
    centre = p + z2 / (2 * attempted)
    spread = WILSON_Z * math.sqrt(p * (1 - p) / attempted + z2 / (4 * attempted ** 2))
    return (centre + spread) / (1 + z2 / attempted)


def child_env() -> dict[str, str]:
    """Children import from src/ and cache bytecode, as an installed package does."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "loadavg_at_start": os.getloadavg(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def spawn(code: str, argv: list[str], env: dict, deadline: float):
    """One fresh interpreter; returns (exit code, stdout bytes, stderr, wall s, cpu s)."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise RunAborted("run deadline reached")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code, *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunAborted(f"command overran the run deadline: {argv}") from None
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return proc.returncode, out, err.decode(errors="replace"), wall, cpu


def measure_setup(env: dict, deadline: float) -> list[float]:
    """Interpreter start plus ``import lasergate.cli``, in bare subprocesses.

    The first probe also compiles bytecode and must import from this
    checkout's src/, not from an installed copy.
    """
    code = IMPORT_ONLY + "; import sys; sys.stdout.write(lasergate.cli.__file__)"
    rc, out, err, _, _ = spawn(code, [], env, deadline)
    if rc != 0:
        raise RunAborted(f"cannot import lasergate.cli from {SRC}: {err.strip()}")
    if Path(out.decode()).resolve().parent.parent != SRC.resolve():
        raise RunAborted(f"lasergate.cli resolves to {out.decode()}, not to {SRC}")
    return [spawn(IMPORT_ONLY, [], env, deadline)[3] for _ in range(SETUP_PROBES)]


class Verdicts:
    """Per-attempt failures; each distinct output is checked once."""

    def __init__(self, commands):
        self.commands = commands
        self.reference: dict[int, bytes] = {}
        self.checked: dict[tuple[int, bytes], list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _problems(self, index: int, rc: int, out: bytes, err: str) -> list[str]:
        if rc != 0:
            return [f"exit {rc}: {err.strip()[-300:]}"]
        if out != self.reference.setdefault(index, out):
            return ["output differs from an identical earlier command"]
        key = (index, hashlib.sha256(out).digest())
        if key not in self.checked:
            self.checked[key] = checks.check_output(self.commands[index], out.decode())
        return self.checked[key]

    def record(self, index: int, rc: int, out: bytes, err: str) -> None:
        self.attempted += 1
        problems = self._problems(index, rc, out, err)
        if problems:
            self.failed += 1
            label = "lasergate " + " ".join(self.commands[index])
            self.failures += [f"{label}: {problem}" for problem in problems]


def timed_run(workload: str, commands, seconds: int) -> tuple[dict, Verdicts, dict]:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    env = child_env()
    setup = measure_setup(env, deadline)
    passes = max(MIN_PASSES, math.ceil(seconds / NOMINAL_PASS_S[workload]))
    walls = [[] for _ in commands]
    cpus = [[] for _ in commands]
    outputs = []
    for _ in range(passes):
        for i, argv in enumerate(commands):
            rc, out, err, wall, cpu = spawn(LAUNCH, argv, env, deadline)
            walls[i].append(wall)
            cpus[i].append(cpu)
            outputs.append((i, rc, out, err))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    verdicts = Verdicts(commands)  # outside the timed region
    for i, rc, out, err in outputs:
        verdicts.record(i, rc, out, err)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(statistics.median(w) for w in walls), "s"),
        "cpu_s": (sum(statistics.median(c) for c in cpus), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_ops": (failed_share_bound(verdicts.failed, verdicts.attempted), "share"),
    }
    detail = {"passes": passes, "setup_s": setup, "wall_s": walls, "cpu_s": cpus}
    return metrics, verdicts, detail


def run_inprocess(cli, argv: list[str]) -> tuple[int, bytes, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue().encode(), err.getvalue()


def traced_run(commands) -> tuple[dict, Verdicts, dict]:
    sys.path.insert(0, str(SRC))
    import lasergate.cli as cli
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise RunAborted(f"lasergate.cli resolves to {cli.__file__}, not to {SRC}")

    def untraced_pass() -> float:
        start = time.perf_counter()
        for argv in commands:
            results.append(run_inprocess(cli, argv))
        return time.perf_counter() - start

    results = []
    untraced_s = [untraced_pass()]
    tracer = tracing.Tracer()
    tracer.install()
    start = time.perf_counter()
    for request, argv in enumerate(commands):
        tracer.request = request
        rc, out, err = run_inprocess(cli, argv)
        tracer.counters["cli.bytes_out"] += len(out)
        results.append((rc, out, err))
    traced_s = time.perf_counter() - start
    tracer.uninstall()
    untraced_s.append(untraced_pass())

    verdicts = Verdicts(commands)
    for n, (rc, out, err) in enumerate(results):
        verdicts.record(n % len(commands), rc, out, err)
    layer = tracer.layer_metrics(traced_s - min(untraced_s))
    units = {"calls": "count", "validations": "count", "segments": "count",
             "fock_levels": "count", "bytes_out": "bytes", "self_s": "s", "overhead_s": "s",
             "ms_per_call": "ms", "us_per_validation": "us", "levels_per_s": "1/s",
             "p_unique_ratio": "ratio"}
    metrics = {name: (value, units[name.rpartition(".")[2]]) for name, value in layer.items()}
    detail = {"untraced_s": untraced_s, "traced_s": traced_s, "absent_spans": tracer.absent,
              "spans_by_name": tracer.by_name(), "spans": tracer.spans}
    return metrics, verdicts, detail


def write_record(args, commands, metrics, verdicts, detail, prov) -> None:
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = detail.pop("spans", None)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": prov, "commands": commands,
              "work_size": workloads.work_size(commands),
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "failures": verdicts.failures, "detail": detail}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with gzip.open(stem.with_suffix(".spans.json.gz"), "wt") as fh:
            json.dump({"fields": ["id", "parent", "request", "layer", "name", "start", "end"],
                       "spans": spans}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lasergate" / "cli.py").is_file():
        print(f"error: no lasergate sources at {SRC}", file=sys.stderr)
        return 2
    commands = workloads.commands_for(args.workload, args.seed)
    prov = provenance()
    try:
        if args.trace:
            metrics, verdicts, detail = traced_run(commands)
        else:
            metrics, verdicts, detail = timed_run(args.workload, commands, args.seconds)
    except RunAborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    write_record(args, commands, metrics, verdicts, detail, prov)
    for failure in verdicts.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"commit": prov["commit"], "src_sha256": prov["src_sha256"][:16],
                      "python": prov["python"], "numpy": prov["numpy"], "nproc": prov["nproc"],
                      "blas_env": prov["blas_env"]}), file=sys.stderr)
    print(json.dumps({
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
