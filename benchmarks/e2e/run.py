"""End-to-end benchmark of the phase-order space enumerator.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--runs N] [--seed S]
        [--seconds T] [--trace 0|1] [--traced] [--smoke] [--corpus-seed S]
        [--out DIR] [--write-goldens]

Each (workload, run) measures one or more *passes*; a pass is one fresh
``workloads.py`` process that sets up, reports ready, runs the
workload's fixed inputs once, and checks every output against
``goldens.json``.  Passes repeat until ``--seconds`` of timed work is
done.  ``setup_s`` is the time from launching a pass's process to its
ready message; it is sampled at least five times per run.  The other
time metrics are medians over passes of the timed work in *refs*, the
duration of a reference loop sampled throughout the same pass
(``refclock.py``), so that the shared host's changing speed cancels;
the raw seconds are printed beside them.

``--trace 1`` (or ``--traced``) runs one untraced pass and one traced
pass of the same inputs and reports per-layer metrics instead; the
end-to-end metrics always come from untraced passes.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every run also writes
``record.json`` (and, traced, ``layers.json``) under ``--out``.  The
exit status is 0 when every output matched, 1 on a mismatch or a
failed pass, 2 when the repository's sources are missing, and 3 when
the run is invalid on this host (``jobs`` above ``cpu_count``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from statistics import median
from typing import Dict, List, Optional

from workloads import CORPUS_WORKLOADS, ROOT, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
WORKLOADS_PY = os.path.join(HERE, "workloads.py")
DEFAULT_OUT = os.path.join(HERE, "out")

#: worker processes the corpus-jobs2 coordinator runs
JOBS = {"corpus-jobs2": 2}

#: end-to-end metric -> unit (the order of BENCHMARK.json); times are in
#: reference units measured during the same pass (see refclock.py)
E2E_METRICS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "edges_per_ref": "edges/ref",
    "cpu_ref": "ref",
    "peak_rss_mb": "MB",
}
MIN_SETUPS = 5
#: one run must end well inside the 180 s a caller may allow it
RUN_DEADLINE_S = 170.0


class PassFailed(RuntimeError):
    """A pass process died or broke the protocol."""


class PassProcess:
    """One ``workloads.py`` process, driven through the ready/go protocol."""

    def __init__(self, argv: List[str], index: int, deadline: float):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        # String hashing is randomized per process, and the dict layouts
        # it yields moved pass times by ~8%.  Pass k of every run uses
        # hash seed k, so each run samples the same set of layouts and
        # the median over passes spans several of them.
        env["PYTHONHASHSEED"] = str(index)
        argv = argv + ["--pass-index", str(index)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKLOADS_PY, *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=env,
            start_new_session=True,
        )
        self.timer = threading.Timer(max(deadline - time.monotonic(), 1.0), self.kill)
        self.timer.daemon = True
        self.timer.start()
        self.ready = self._guarded(self._read, "ready")
        self.setup_s = time.perf_counter() - start

    def _guarded(self, call, *args):
        """*call*, but a run stopped meanwhile (SIGTERM, Ctrl-C) takes
        the pass's whole process group down with it."""
        try:
            return call(*args)
        except PassFailed:
            raise
        except BaseException:
            self.kill()
            self.close()
            raise

    def _read(self, key: str) -> Dict[str, object]:
        for line in self.proc.stdout:
            try:
                message = json.loads(line)
            except ValueError:
                message = None
            if isinstance(message, dict) and key in message:
                return message[key]
            sys.stderr.write(line)
        self.close()
        raise PassFailed(f"pass process exited with status {self.proc.returncode} before {key!r}")

    def _send(self, word: str) -> None:
        try:
            self.proc.stdin.write(word + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            self.close()
            raise PassFailed(f"pass process exited with status {self.proc.returncode} after ready")

    def go(self) -> Dict[str, object]:
        self._send("go")
        result = self._guarded(self._read, "result")
        self.close()
        return result

    def stop(self) -> None:
        self._send("stop")
        self.close()

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        self.proc.wait()
        self.timer.cancel()


def git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_facts() -> Dict[str, object]:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            loadavg = [float(value) for value in handle.read().split()[:3]]
    except OSError:
        loadavg = list(os.getloadavg())
    return {
        "cpu_count": os.cpu_count(),
        "git": git_describe(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": loadavg,
    }


def measure(workload: str, seed: int, run: int, args, host, slice_path: Optional[str]):
    """One (workload, run): its passes, setups, checks and metrics."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    run_dir = os.path.join(
        args.out, workload, f"s{seed}-r{run}" + ("-traced" if args.trace else "")
    )
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    base = ["--workload", workload, "--seed", str(seed), "--work-dir", run_dir]
    if args.smoke:
        base.append("--smoke")
    if slice_path and workload in CORPUS_WORKLOADS:
        base += ["--slice", slice_path]
    setups: List[float] = []
    passes: List[Dict[str, object]] = []
    traced = None
    failures: List[str] = []

    def run_pass(index: int, extra=()) -> Optional[Dict[str, object]]:
        try:
            child = PassProcess(base + list(extra), index, deadline)
            setups.append(child.setup_s)
            return child.go()
        except PassFailed as error:
            failures.append(f"pass {index}: {error}")
            return None

    if args.trace:
        untraced = run_pass(0)
        if untraced is not None:
            passes.append(untraced)
            # the traced wall spans the input compile too
            baseline = untraced["compile_s"] + untraced["wall_s"]
            traced = run_pass(0, ["--traced", "--baseline-wall", repr(baseline)])
    else:
        measured = 0.0
        while True:
            result = run_pass(len(passes))
            if result is None:
                break
            passes.append(result)
            measured += result["wall_s"]
            # another whole pass only if it would end near the target
            if args.smoke or measured + 0.5 * result["wall_s"] > args.seconds:
                break
    while not args.smoke and not failures and len(setups) < MIN_SETUPS:
        try:
            child = PassProcess(base, len(setups), deadline)
            setups.append(child.setup_s)
            child.stop()
        except PassFailed as error:
            failures.append(f"set-up: {error}")
            break
    done = passes + ([traced] if traced else [])
    for result in done:
        failures.extend(result["failures"])
    attempted = sum(result["attempted"] for result in done) + sum(
        1 for failure in failures if failure.startswith(("pass", "set-up"))
    )
    metrics = {}
    if args.trace and traced is not None:
        from trace import per_layer_names, unit_of

        metrics = {
            name: {"value": traced["layers"][name], "unit": unit_of(name)}
            for name in per_layer_names()
        }
    elif passes:
        values = {
            "setup_s": median(setups),
            "wall_ref": median([p["wall_s"] / p["ref_s"] for p in passes]),
            "edges_per_ref": median([p["edges"] * p["ref_s"] / p["wall_s"] for p in passes]),
            "cpu_ref": median([p["cpu_s"] / p["ref_s"] for p in passes]),
            "peak_rss_mb": median([p["rss_mb"] for p in passes]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_METRICS.items()}
    valid = JOBS.get(workload, 1) <= (host["cpu_count"] or 1)
    outputs: Dict[str, object] = {}
    for result in done:
        for key, value in result["outputs"].items():
            outputs.setdefault(key, value)
    record = {
        "workload": workload,
        "seed": seed,
        "run": run,
        "trace": int(args.trace),
        "smoke": args.smoke,
        "corpus_seed": args.corpus_seed,
        "host": host,
        "valid": valid,
        "setups_s": setups,
        "passes": [{k: v for k, v in p.items() if k != "outputs"} for p in passes],
        "traced": {k: v for k, v in traced.items() if k != "outputs"} if traced else None,
        "metrics": metrics,
        "correct": not failures and bool(metrics),
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "failures": failures,
        "outputs": outputs,
    }
    with open(os.path.join(run_dir, "record.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return record


def report(record: Dict[str, object]) -> None:
    head = f"{record['workload']} seed={record['seed']} run={record['run']}"
    if not record["valid"]:
        print(
            f"{head}: INVALID on this host: jobs={JOBS[record['workload']]} > "
            f"cpu_count={record['host']['cpu_count']}"
        )
    for name, metric in record["metrics"].items():
        if record["trace"] and not metric["value"]:
            continue
        print(f"{head}: {name} = {metric['value']:.6g} {metric['unit']}")
    details = {}
    for p in record["passes"]:
        # raw seconds, which carry the host's speed: not gated
        raw = {"wall_s": p["wall_s"], "cpu_s": p["cpu_s"], "edges_per_s": p["edges"] / p["wall_s"]}
        if p["ref_s"]:
            raw["ref_ms"] = 1000 * p["ref_s"]
        for key, value in list(raw.items()) + list(p["detail"].items()):
            if not isinstance(value, dict):
                details.setdefault(key, []).append(value)
    for key, values in sorted(details.items()):
        print(f"{head}: {key} = {median(values):.6g} (median of {len(values)} pass(es))")
    ok = record["attempted"] - record["failed"]
    print(
        f"{head}: {len(record['passes'])} pass(es), {len(record['setups_s'])} set-up(s), "
        f"{ok}/{record['attempted']} checked operations ok"
    )
    for failure in record["failures"]:
        print(f"{head}: FAILED {failure}")


def contract_line(record: Dict[str, object]) -> str:
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    )


def select_slices(corpus_seed: int, out: str) -> str:
    """Rebuild the corpus slices of another generator seed (untimed)."""
    path = os.path.join(out, f"slices-{corpus_seed}.json")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, WORKLOADS_PY, "--select", str(corpus_seed)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(done.stdout)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark: six workloads, golden-checked outputs."
    )
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0, help="orders the pinned inputs")
    parser.add_argument("--seconds", type=float, default=12.0, help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace")
    parser.add_argument("--smoke", action="store_true", help="one small input per workload")
    parser.add_argument(
        "--corpus-seed",
        type=int,
        help="rebuild the corpus slices from this generator seed and check "
        "every path against a serial reference (held-out inputs)",
    )
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--write-goldens", action="store_true")
    args = parser.parse_args(argv)
    # unwind through PassProcess._guarded, which kills the live pass
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: repository sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.write_goldens:
        env = dict(os.environ, PYTHONPATH=SRC)
        return subprocess.run([sys.executable, WORKLOADS_PY, "--write-goldens"], cwd=ROOT, env=env).returncode
    args.out = os.path.abspath(args.out)
    os.makedirs(args.out, exist_ok=True)
    host = host_facts()
    if host["loadavg"][0] > (host["cpu_count"] or 1) - 1:
        print(
            f"warning: 1-minute load average {host['loadavg'][0]} exceeds "
            f"cpu_count - 1 = {(host['cpu_count'] or 1) - 1}; timings may be noisy",
            file=sys.stderr,
        )
    slice_path = None
    if args.corpus_seed is not None:
        slice_path = select_slices(args.corpus_seed, args.out)
    status = 0
    for workload in args.workload or WORKLOADS:
        for run in range(args.runs):
            record = measure(workload, args.seed, run, args, host, slice_path)
            report(record)
            print(contract_line(record), flush=True)
            if not record["correct"]:
                status = 1
            elif not record["valid"] and status == 0:
                status = 3
    return status


if __name__ == "__main__":
    sys.exit(main())
