"""flatcert benchmark: seeded workloads against the real CLI entry point.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1|both]

Workloads (all closed loop, one client: the next request is issued when the
previous one returns):

- session-large: in-process classify / classify --direction / flat /
  decompose requests on sessions of embedded size n*d in {4, 8, 12, 16};
- graph-tori: in-process graph requests on graphs of 1-50 tori;
- cli-cold: a fresh ``python -m flatcert.cli`` process per request.

"In-process" means one worker process that imported flatcert.cli once and
calls ``flatcert.cli.main`` per request; a request that overruns its
deadline is counted as failed and the worker is replaced, so a hung request
cannot slow later ones.  Every report is checked against the answer known
from the construction of its input (oracle.py); a wrong answer makes the
run exit 1.  With --trace 0 the last stdout line holds the end-to-end
metrics, with --trace 1 the per-layer ones, timed from outside by tracer.py.
FLATCERT_THREADS is removed from the program's environment, so it runs at
its default worker count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from multiprocessing.connection import Connection
from pathlib import Path

import oracle
import tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Per-request deadline in seconds, several times the slowest correct request.
DEADLINE = {"session-large": 5.0, "graph-tori": 10.0, "cli-cold": 10.0}
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
WARMUP_REQUESTS = 4


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FLATCERT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# -- outcomes -----------------------------------------------------------------


class Tally:
    """Per-round latencies, failures, oracle verdicts and report digests."""

    def __init__(self):
        self.rounds: list[list[float]] = []
        self.failed = 0
        self.wrong: list[str] = []
        self.kinds: Counter = Counter()
        self.errors: Counter = Counter()
        self.round_digests: list[str] = []

    def start_round(self) -> None:
        self.rounds.append([])
        self._digest = hashlib.sha256()

    def add(self, req, outcome, latency: float) -> None:
        self.rounds[-1].append(latency)
        self.kinds[req.kind] += 1
        if outcome is None:
            self.failed += 1
            self.errors["deadline"] += 1
            self._digest.update(b"<deadline>\n")
            return
        code, out, err = outcome[:3]
        self._digest.update(f"{code}\n".encode() + out.encode())
        if code not in (0, 2):
            self.failed += 1
            self.errors[_error_type(err)] += 1
            return
        try:
            oracle.check(req.expect, code, out)
        except (oracle.WrongAnswer, ValueError, KeyError, TypeError) as e:
            self.wrong.append(f"{' '.join(req.argv)}: {type(e).__name__}: {e}")

    def end_round(self) -> None:
        self.round_digests.append(self._digest.hexdigest())

    @property
    def attempted(self) -> int:
        return sum(len(r) for r in self.rounds)

    def end_to_end(self) -> dict:
        """Rates and percentiles per round, then the median over rounds.
        Every round has the same mix, so the rounds are comparable samples,
        and the median keeps a burst of load from other processes on the
        machine, which slows every request in its window, out of the result."""
        rates, p50, p90 = [], [], []
        for lat in self.rounds:
            rates.append(len(lat) / sum(lat))
            p50.append(statistics.median(lat))
            p90.append(statistics.quantiles(lat, n=10, method="inclusive")[8])
        return {
            "throughput_rps": (statistics.median(rates), "req/s"),
            "latency_p50_ms": (statistics.median(p50) * 1e3, "ms"),
            "latency_p90_ms": (statistics.median(p90) * 1e3, "ms"),
            "fail_ratio": (self.failed / self.attempted, "1"),
        }


def _error_type(err: str) -> str:
    try:
        return json.loads(err)["error"]["type"]
    except (ValueError, KeyError, TypeError):
        lines = err.strip().splitlines()
        return lines[-1].split(":")[0] if lines else "exit1"


# -- clients --------------------------------------------------------------------


class Worker:
    """The in-process request server (worker.py) in a child process."""

    def __init__(self, env: dict, trace: bool):
        r_req, w_req = os.pipe()
        r_rep, w_rep = os.pipe()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(r_req), str(w_rep)],
            pass_fds=(r_req, w_rep), env=env, cwd=ROOT,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        os.close(r_req)
        os.close(w_rep)
        self.tx = Connection(w_req, readable=False)
        self.rx = Connection(r_rep, writable=False)
        if not self.rx.poll(120) or self.rx.recv() != "ready":
            self.kill()
            raise RuntimeError("benchmark worker did not start")
        if trace:
            self.set_trace(True)

    def set_trace(self, on: bool) -> None:
        self.tx.send(("trace", on))
        self.rx.recv()

    def call(self, argv, deadline: float):
        """(code, stdout, stderr, layers), or None when the deadline passed
        or the worker died; the worker is then unusable."""
        self.tx.send(("req", argv))
        try:
            if self.rx.poll(deadline):
                return self.rx.recv()
        except (EOFError, OSError):
            pass
        return None

    def close(self) -> None:
        try:
            self.tx.send(None)
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.tx.close()
        self.rx.close()


class InProcess:
    def __init__(self, env: dict, deadline: float):
        self.env = env
        self.deadline = deadline
        self.trace = False
        self.worker = Worker(env, False)

    def set_trace(self, on: bool) -> None:
        if on != self.trace:
            self.worker.set_trace(on)
            self.trace = on

    def call(self, argv, work: Path):
        t0 = time.perf_counter()
        outcome = self.worker.call(argv, self.deadline)
        latency = time.perf_counter() - t0
        if outcome is None:
            self.worker.kill()
            self.worker = Worker(self.env, self.trace)
        return outcome, latency

    def close(self) -> None:
        self.worker.close()


class Cold:
    def __init__(self, env: dict, deadline: float):
        self.env = env
        self.deadline = deadline
        self.trace = False
        self.count = 0

    def set_trace(self, on: bool) -> None:
        self.trace = on

    def call(self, argv, work: Path):
        if self.trace:
            self.count += 1
            spans = work / f"spans{self.count}.json"
            cmd = [sys.executable, str(BENCH / "cold_cli.py"), str(spans)] + argv
        else:
            cmd = [sys.executable, "-m", "flatcert.cli"] + argv
        t0 = time.perf_counter()
        try:
            p = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                               timeout=self.deadline)
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - t0
        latency = time.perf_counter() - t0
        layers = None
        if self.trace:
            with open(spans, encoding="utf-8") as fh:
                layers = json.load(fh)
        return (p.returncode, p.stdout, p.stderr, layers), latency

    def close(self) -> None:
        pass


# -- measurement ------------------------------------------------------------------


def measure_setup(env: dict) -> float:
    """Median wall time of a fresh interpreter importing flatcert.cli."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import flatcert.cli"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_imports(env: dict) -> dict:
    """Median cumulative import times from python -X importtime."""
    samples = {"flatcert": [], "sympy": [], "numpy": []}
    for _ in range(IMPORT_SAMPLES):
        p = subprocess.run([sys.executable, "-X", "importtime", "-c", "import flatcert.cli"],
                           env=env, cwd=ROOT, check=True, capture_output=True, text=True)
        found = {k: 0.0 for k in samples}
        for line in p.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            name = parts[2].strip()
            try:
                cumulative = int(parts[1]) / 1e6
            except ValueError:
                continue
            if name == "flatcert" or name.startswith("flatcert."):
                if parts[2].startswith(" ") and not parts[2].startswith("  "):
                    found["flatcert"] += cumulative  # top level only
            elif name in ("sympy", "numpy"):
                found[name] = max(found[name], cumulative)
        for k, v in found.items():
            samples[k].append(v)
    return {k: statistics.median(v) for k, v in samples.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    env = child_env()
    make_round = WORKLOADS[name]
    client_cls = Cold if name == "cli-cold" else InProcess
    record = {
        "workload": name, "seed": seed, "trace": int(trace),
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "FLATCERT_THREADS": "unset", "client": "closed loop, 1 client",
        "deadline_s": DEADLINE[name],
    }
    metrics: dict = {}
    if not trace:
        metrics["setup_s"] = (measure_setup(env), "s")
    else:
        imports = measure_imports(env)
        for k in ("flatcert", "sympy", "numpy"):
            metrics[f"import.{k}_s"] = (imports[k], "s")

    client = client_cls(env, DEADLINE[name])
    tally = Tally()
    layers: dict = {}
    busy = {False: 0.0, True: 0.0}  # seconds spent in requests, untraced / traced
    traced_requests = 0
    try:
        warm = make_round(random.Random(f"{name}/{seed}/warmup"), _round_dir(work, "w"), False)
        for req in warm[:WARMUP_REQUESTS]:
            client.call(req.argv, work)
        r = 0
        while sum(busy.values()) < seconds:
            reqs = make_round(random.Random(f"{name}/{seed}/{r}"), _round_dir(work, r), r == 0)
            tally.start_round()
            for i, req in enumerate(reqs):
                # a traced run sends each request without and with spans, in
                # alternating order, so the overhead ratio compares like with like
                modes = [False] if not trace else ([False, True] if i % 2 == 0 else [True, False])
                for mode in modes:
                    client.set_trace(mode)
                    outcome, latency = client.call(req.argv, work)
                    tally.add(req, outcome, latency)
                    busy[mode] += latency
                    if mode and outcome is not None and outcome[3] is not None:
                        layers = tracer.merge(layers, outcome[3])
                        traced_requests += 1
            tally.end_round()
            r += 1
    finally:
        client.close()

    attempted = tally.attempted
    record.update({
        "rounds": r, "requests": attempted, "mix": dict(sorted(tally.kinds.items())),
        "errors": dict(sorted(tally.errors.items())),
        "report_sha256_by_round": tally.round_digests,
        "busy_s_by_round": [round(sum(lat), 3) for lat in tally.rounds],
    })
    if trace:
        metrics.update(per_layer_metrics(layers, traced_requests))
        metrics["trace.overhead_ratio"] = (busy[True] / busy[False], "1")
    else:
        metrics.update(tally.end_to_end())
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                                  "MB")
    return {
        "record": record,
        "wrong": tally.wrong,
        "result": {
            "correct": not tally.wrong,
            "attempted": attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def per_layer_metrics(layers: dict, requests: int) -> dict:
    out = {}
    totals = layers["layers"]
    for name in tracer.SPAN_NAMES:
        calls, self_s, _ = totals[name]
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    out["exact.complex_roots.failed"] = (totals["exact.complex_roots"][2], "count")
    for name in ("linalg.charpoly", "exact.factor_q", "manifold.validate"):
        out[f"{name}.per_request"] = (totals[name][0] / max(requests, 1), "calls/req")
    good, tried = layers["witness"]
    out["flats.witness_yield"] = (good / tried if tried else 0.0, "1")
    return out


def _round_dir(work: Path, r) -> Path:
    path = work / f"r{r}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", default="both", choices=["0", "1", "both"])
    args = ap.parse_args(argv)
    if not (SRC / "flatcert" / "cli.py").is_file():
        print(f"flatcert sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all" and args.trace != "both":
        return single_run(args.workload, args.seed, args.seconds, args.trace == "1")
    # one child run per workload and mode, so peak RSS is measured per run
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = ["0", "1"] if args.trace == "both" else [args.trace]
    results = {}
    for name in names:
        for mode in modes:
            p = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", mode],
                stdout=subprocess.PIPE, text=True)
            lines = p.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if not lines:
                print(f"{name} --trace {mode} printed no result", file=sys.stderr)
                return 1
            results[(name, mode)] = json.loads(lines[-1])
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}:{k}": v for (name, _), r in results.items()
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def single_run(name: str, seed: int, seconds: float, trace: bool) -> int:
    work = ROOT / ".bench_work" / f"{name}-{seed}-{int(trace)}-{os.getpid()}"
    try:
        run = run_workload(name, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass
    for line in run["wrong"]:
        print(f"WRONG ANSWER: {line}", file=sys.stderr)
    print(json.dumps({"record": run["record"]}))
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
