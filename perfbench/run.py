"""heattrace benchmark: fixed mixes of CLI jobs, each in a fresh interpreter.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rank1-deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Load model: closed loop, one client.  Jobs run one after another, each as
``python -m heattrace.cli ... --no-timestamp`` in a fresh process, so every
job pays interpreter start-up and cold exact-number caches, as a CLI user
does.  ``--jobs`` is never passed.  The run measures whole blocks of rounds
(see workloads.py), as many as come closest to ``--seconds``, checks every output
against ``reference.json`` (see gate.py), and kills and counts as failed a
job that outlives its time budget.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:

* ``wall_s``: wall time of one round, first spawn to last exit (median over
  blocks of the block's mean round);
* ``cpu_s``: user + sys CPU of one round's job processes, from ``os.wait4``
  (median over blocks of the block's mean round);
* ``peak_rss_mib``: largest ``ru_maxrss`` of any job;
* ``setup_s``: median wall time of a fresh interpreter running
  ``import heattrace.cli``, sampled a few times before every round.

``fail_ratio`` (failed / attempted jobs) is printed in the summary on stderr;
the result line carries it as ``failed`` and ``attempted``.

With ``--trace 1`` every round runs twice, untraced and then with every job
under ``trace_job.py``, and the run reports the per-layer metrics of one
round (see NOTES.md).  Traced outputs pass the same
gate.  Spans and a record of every result are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402
from launcher import SPAN_FD  # noqa: E402
from trace_job import LAYERS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# setup_s samples taken before each round, so they see the same machine
# load as the jobs they are compared with.
SETUP_PER_ROUND = 3
# A run ends well inside the 180 s a run may take: jobs get at most the time
# left, and a block is started only if one more of the last one's length fits.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
PER_LAYER_UNITS = {
    **{f"{layer}.{m}": u for layer in LAYERS for m, u in (("calls", "count"), ("self_s", "s"))},
    "rank1.max_bits": "bits",
    "series.mults": "count",
    "series.max_bits": "bits",
    "plancherel.closed_form_s": "s",
    "plancherel.density_terms": "count",
    "oracle.traces": "count",
    "oracle.trace_s": "s",
    "verify.checks": "count",
    "cli.out_bytes": "bytes",
    "trace.overhead_s": "s",
}
# Time spent in these calls, plus the layer's import (so the figure is never 0
# on a workload that does not call them).
_INCLUSIVE = {("plancherel", "closed_form"): "plancherel.closed_form_s",
              ("plancherel", "import"): "plancherel.closed_form_s",
              ("oracle", "heat_trace"): "oracle.trace_s",
              ("oracle", "import"): "oracle.trace_s"}
_MAX_COUNTERS = ("rank1.max_bits", "series.max_bits")


@dataclass
class Proc:
    returncode: int | None  # None: killed at its time budget
    stdout: bytes
    stderr: bytes
    spans: bytes
    start: float
    end: float
    cpu_s: float
    maxrss_kib: int


@dataclass
class JobResult:
    entry_id: str
    start: float
    end: float
    cpu_s: float
    maxrss_kib: int
    out_bytes: int
    failure: str | None
    trace: dict | None = None


@dataclass
class BlockResult:
    rounds: int
    wall_s: float
    jobs: list[JobResult]


def _drain(fds: list[int], deadline: float) -> dict[int, bytes]:
    """Read every fd to end of file, or until the deadline."""
    chunks: dict[int, list[bytes]] = {fd: [] for fd in fds}
    with selectors.DefaultSelector() as sel:
        for fd in fds:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    return {fd: b"".join(c) for fd, c in chunks.items()}


class Launcher:
    """Runs processes through ``launcher.py`` (see there for why and how)."""

    def __init__(self) -> None:
        self._sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self._proc = subprocess.Popen(
                [sys.executable, str(HERE / "launcher.py"), str(theirs.fileno())],
                pass_fds=(theirs.fileno(),), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, env=dict(os.environ, PYTHONPATH=str(SRC)),
                cwd=ROOT, start_new_session=True)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, exc_type, *_) -> None:
        self._sock.close()  # an idle launcher exits on this
        if exc_type is not None:
            self._proc.terminate()  # the launcher kills its running job first
        self._proc.wait()

    def spawn(self, argv: list[str], timeout_s: float, spans: bool = False) -> Proc:
        """Run one process to its end, or kill it at ``timeout_s``.  With
        ``spans``, what the process writes to fd 3 is returned as ``spans``."""
        pipes = [os.pipe() for _ in range(3 if spans else 2)]
        try:
            request = json.dumps({"argv": argv, "timeout": timeout_s}).encode()
            socket.send_fds(self._sock, [request], [w for _, w in pipes])
        finally:
            for _, w in pipes:
                os.close(w)
        reads = [r for r, _ in pipes]
        try:
            # The launcher kills the job at timeout_s; its pipes then close.
            data = _drain(reads, time.perf_counter() + timeout_s + 10)
            reply = self._sock.recv(1 << 16)
        finally:
            for r in reads:
                os.close(r)
        if not reply:
            raise RuntimeError("the job launcher exited")
        done = json.loads(reply)
        return Proc(done["returncode"], data[reads[0]], data[reads[1]],
                    data[reads[2]] if spans else b"", done["start"], done["end"],
                    done["cpu_s"], done["maxrss_kib"])


def cli_argv(entry: workloads.Entry) -> list[str]:
    """The command line of one untraced job."""
    return [sys.executable, "-m", "heattrace.cli", *entry.args, "--no-timestamp"]


def run_job(launcher: Launcher, entry: workloads.Entry, reference: dict, traced: bool,
            timeout_s: float) -> JobResult:
    """Run one pool entry in a fresh interpreter and check its output."""
    if traced:
        p = launcher.spawn([sys.executable, str(HERE / "trace_job.py"), str(SPAN_FD),
                            *entry.args, "--no-timestamp"], timeout_s, spans=True)
    else:
        p = launcher.spawn(cli_argv(entry), timeout_s)
    failure = gate.check(reference, entry.args, p.returncode, p.stdout)
    if failure and p.stderr.strip():
        failure += f" (stderr: {p.stderr.decode(errors='replace').strip().splitlines()[-1]})"
    trace = None
    if traced:
        try:
            trace = json.loads(p.spans)
        except ValueError:
            failure = failure or "no trace written"
    return JobResult(entry.id, p.start, p.end, p.cpu_s, p.maxrss_kib, len(p.stdout),
                     failure, trace)


def run_block(launcher: Launcher, rounds: list[list[workloads.Entry]], reference: dict,
              traced: bool, deadline: float,
              setup_times: list[float] | None = None) -> BlockResult:
    """Run the rounds of one block; with ``setup_times`` given, append set-up
    samples to it before each round."""
    jobs: list[JobResult] = []
    wall = 0.0
    for round_jobs in rounds:
        if setup_times is not None:
            setup_times += [setup_time(launcher) for _ in range(SETUP_PER_ROUND)]
        done = []
        for entry in round_jobs:
            timeout = min(entry.budget_s, deadline - time.perf_counter())
            if timeout <= 0:
                now = time.perf_counter()
                done.append(JobResult(entry.id, now, now, 0.0, 0, 0, "run deadline"))
            else:
                done.append(run_job(launcher, entry, reference, traced, timeout))
        wall += done[-1].end - done[0].start
        jobs += done
    return BlockResult(len(rounds), wall, jobs)


def setup_time(launcher: Launcher) -> float:
    """Wall time of a fresh interpreter running ``import heattrace.cli``."""
    p = launcher.spawn([sys.executable, "-c", "import heattrace.cli"], 60.0)
    if p.returncode != 0:
        raise RuntimeError(f"import heattrace.cli failed: {p.stderr.decode()[-500:]}")
    return p.end - p.start


def layer_metrics(blocks: list[BlockResult]) -> dict[str, float]:
    """Per-layer metrics of one round: self time and calls per layer, counters."""
    m: dict[str, float] = {name: 0 for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
    for job in (j for b in blocks for j in b.jobs):
        m["cli.out_bytes"] += job.out_bytes
        if job.trace is None:
            continue
        spans = job.trace["spans"]
        child_ns = [0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (layer, name, start, end, _) in enumerate(spans):
            if layer not in LAYERS:
                continue
            m[f"{layer}.self_s"] += (end - start - child_ns[i]) / 1e9
            if name != "import":
                m[f"{layer}.calls"] += 1
            if (layer, name) in _INCLUSIVE:
                m[_INCLUSIVE[layer, name]] += (end - start) / 1e9
            if (layer, name) == ("oracle", "heat_trace"):
                m["oracle.traces"] += 1
        for key, value in job.trace["counters"].items():
            m[key] = max(m[key], value) if key in _MAX_COUNTERS else m[key] + value
    rounds = sum(b.rounds for b in blocks)
    return {k: v if k in _MAX_COUNTERS else v / rounds for k, v in m.items()}


def _merge(blocks: list[BlockResult]) -> BlockResult:
    return BlockResult(sum(b.rounds for b in blocks), sum(b.wall_s for b in blocks),
                       [j for b in blocks for j in b.jobs])


def _per_round(blocks: list[BlockResult], value) -> float:
    return statistics.median(value(b) / b.rounds for b in blocks)


def environment(seed: int) -> dict:
    def capture(argv: list[str], **kw) -> str | None:
        try:
            done = subprocess.run(argv, capture_output=True, text=True, timeout=30, cwd=ROOT, **kw)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted((SRC / "heattrace").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": capture(["git", "rev-parse", "HEAD"],
                          env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "mpmath_backend": capture([sys.executable, "-c",
                                   "import mpmath.libmp as m; print(m.BACKEND)"]),
    }


def run_workload(launcher: Launcher, name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload; return its result line and write its record under out/."""
    slots = workloads.WORKLOADS[name]
    reference = gate.load_reference()
    env = environment(seed)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    rng = random.Random(f"{name}:{seed}")
    setup_times: list[float] | None = None if trace else []
    plain: list[BlockResult] = []
    traced: list[BlockResult] = []
    t0 = time.perf_counter()
    while True:
        rounds = workloads.block(slots, rng)
        started = time.perf_counter()
        if trace:
            # Each round untraced, then traced: the machine's drift hits both alike.
            pairs = [(run_block(launcher, [r], reference, False, deadline),
                      run_block(launcher, [r], reference, True, deadline)) for r in rounds]
            plain.append(_merge([p for p, _ in pairs]))
            traced.append(_merge([t for _, t in pairs]))
        else:
            plain.append(run_block(launcher, rounds, reference, False, deadline, setup_times))
        now = time.perf_counter()
        last = now - started
        # Whole blocks only: stop where the run comes closest to --seconds.
        if now - t0 + last / 2 >= seconds or now + 1.2 * last >= deadline:
            break

    jobs = [j for b in plain + traced for j in b.jobs]
    failures = [(j.entry_id, j.failure) for j in jobs if j.failure]
    wall_s = _per_round(plain, lambda b: b.wall_s)
    if trace:
        metrics = layer_metrics(traced)
        metrics["trace.overhead_s"] = _per_round(traced, lambda b: b.wall_s) - wall_s
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_s": wall_s,
            "cpu_s": _per_round(plain, lambda b: sum(j.cpu_s for j in b.jobs)),
            "peak_rss_mib": max(j.maxrss_kib for b in plain for j in b.jobs) / 1024,
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not failures,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    _report(name, env, result, failures, len(plain), traced)
    return result


def _report(name: str, env: dict, result: dict, failures: list, blocks: int,
            traced: list[BlockResult]) -> None:
    """Summary on stderr; result record (and spans, when traced) under out/."""
    err = sys.stderr
    print(f"[{name}] env {json.dumps(env)}", file=err)
    print(f"[{name}] {blocks} block(s); fail_ratio = {result['failed']}/{result['attempted']}"
          f" = {result['failed'] / result['attempted']:.4g} (unit 1)", file=err)
    for job_id, why in failures:
        print(f"[{name}] FAILED {job_id}: {why}", file=err)
    metrics = result["metrics"]
    for key, m in metrics.items():
        print(f"[{name}] {key} = {m['value']:.6g} {m['unit']}", file=err)
    seed = env["seed"]
    OUT.mkdir(exist_ok=True)
    if traced:
        selfs = {layer: metrics[f"{layer}.self_s"]["value"] for layer in LAYERS}
        total = sum(selfs.values()) or 1.0
        for layer, s in sorted(selfs.items(), key=lambda kv: -kv[1]):
            print(f"[{name}] share {layer:<10} {s / total:6.1%}", file=err)
        with open(OUT / f"spans-{name}-seed{seed}.jsonl", "w") as f:
            for job_no, job in enumerate(j for b in traced for j in b.jobs):
                for layer, span, start, end, parent in (job.trace or {}).get("spans", []):
                    f.write(json.dumps({"job": job_no, "entry": job.entry_id, "layer": layer,
                                        "name": span, "start_ns": start, "end_ns": end,
                                        "parent": parent}) + "\n")
    record = {"workload": name, "env": env, "blocks": blocks, "failures": failures, **result}
    (OUT / f"{name}-seed{seed}-trace{int(bool(traced))}.json").write_text(
        json.dumps(record, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Let a terminated run stop its launcher, and so its running job, on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "heattrace" / "cli.py").is_file():
        print(f"error: no heattrace sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "heattrace")],
                   check=True, timeout=300)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    with Launcher() as launcher:
        results = {n: run_workload(launcher, n, args.seed, args.seconds, bool(args.trace))
                   for n in names}
    if len(results) == 1:
        line = results[names[0]]
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
