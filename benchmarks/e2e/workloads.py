"""The six end-to-end workloads; one process runs one pass of one.

``run.py`` launches this file once per pass, so every pass starts from
a fresh interpreter: the flat-IR intern pools and kernel caches are
process-global, and a pass that inherited them would measure warm
caches that no user run starts with.

Protocol on stdout, one JSON object per line::

    {"ready": {...}}       set-up done (imports, inputs compiled, server up)
    <- "go" | "stop"       read from stdin
    {"result": {...}}      timed section done and every output checked

Two more modes serve ``run.py`` directly: ``--select SEED`` rebuilds the
corpus slices of another generator seed, and ``--write-goldens``
regenerates ``goldens.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from refclock import ReferenceClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GOLDENS_PATH = os.path.join(HERE, "goldens.json")

CORPUS_WORKLOADS = ("corpus-flat", "corpus-jobs2", "corpus-guarded")
WORKLOADS = CORPUS_WORKLOADS + ("seeds-loops", "study-e2e", "service-closed")

#: corpus rule: a generated function qualifies when it is not ``main``,
#: has no natural loop, and its space completes within this many nodes.
#: The cap keeps a guarded pass near 3 s, so a 10 s run holds several
#: passes (each under its own hash seed) to take the median of.
CORPUS_MAX_NODES = 1000
#: qualifying functions per slice (the full slice / the smoke slice)
CORPUS_SIZE = 3
#: the smoke slice is the first qualifying function this small
SMOKE_MAX_NODES = 500

#: the smallest loop-bearing MiBench port whose space completes; g and
#: l fall back to the object IR on it
LOOP_FUNCTIONS = (("bitcount", "main"),)

#: the complete small study functions behind Tables 4-6
STUDY_FUNCTIONS = (
    ("bitcount", "ntbl_bitcount"),
    ("bitcount", "tbl_bitcount"),
    ("bitcount", "ar_bitcount"),
    ("dijkstra", "next_rand"),
    ("dijkstra", "qinit"),
    ("dijkstra", "qcount"),
    ("dijkstra", "enqueue"),
    ("dijkstra", "dequeue"),
    ("fft", "fcos"),
    ("fft", "is_power_of_two"),
    ("fft", "index_to_frequency"),
    ("jpeg", "descale"),
    ("jpeg", "range_limit"),
    ("jpeg", "rgb_to_y"),
    ("jpeg", "rgb_to_cb"),
    ("jpeg", "ycc_to_r"),
    ("jpeg", "marker_category"),
    ("sha", "rol"),
    ("sha", "sha_init"),
    ("sha", "sha_final_word"),
)
#: programs whose every function goes through both compilers and whose
#: entry then runs in the VM (all six would make one pass ~8 s)
STUDY_COMPILE_PROGRAMS = ("bitcount", "dijkstra", "fft")
SMOKE_STUDY_PROGRAM = "sha"
SMOKE_STUDY_FUNCTIONS = (("sha", "rol"),)
#: VM fuel for the entry points (the tests use the same budget)
VM_FUEL = 40_000_000

#: service requests: fixed, so every pass stores the same spaces (the
#: store's memo grows with each one, and cold latency with the memo)
SERVICE_FUNCTIONS = (
    ("bitcount", "ar_bitcount"),
    ("fft", "is_power_of_two"),
    ("jpeg", "range_limit"),
    ("sha", "rol"),
)
SMOKE_SERVICE_COLD = (("sha", "rol"), ("jpeg", "descale"))
SMOKE_SERVICE_WARM = (("sha", "rol"),)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dag_outputs(dag, attempted: int) -> Dict[str, object]:
    """Node and edge counts plus the DAG digest the service also uses."""
    from repro.core.checkpoint import dag_to_dict

    return {
        "nodes": len(dag),
        "edges": attempted,
        "digest": sha256(json.dumps(dag_to_dict(dag), sort_keys=True)),
    }


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def proc_cpu_seconds(pid: int) -> float:
    """CPU time of another process and its reaped children (Linux /proc)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return sum(int(value) for value in fields[11:15]) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    """max ru_maxrss over this process and its reaped children (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class CorpusDrift(RuntimeError):
    """The generator no longer produces a pinned corpus source."""


class Pass:
    """State of one pass: inputs order, output checks, counters, spans."""

    def __init__(self, workload: str, seed: int, index: int, smoke: bool, traced: bool):
        self.workload = workload
        self.smoke = smoke
        #: the seed orders the pinned inputs; every pass of a run gets
        #: its own order
        self.rng = random.Random(f"{workload}:{seed}:{index}")
        self.seed = seed
        self.traced = traced
        self.layers = None
        self.obs = None
        if traced:
            from trace import LayerTracer

            self.layers = LayerTracer()
        #: key -> expected output; None records outputs without checking
        self.expected: Optional[Dict[str, object]] = None
        self.checksums: Dict[str, int] = {}
        self.outputs: Dict[str, object] = {}
        self.attempted = 0
        self.failures: List[str] = []
        self.edges = 0
        self.detail: Dict[str, object] = {}
        self.counts: Dict[str, float] = {}

    def span(self, layer: str):
        return self.layers.span(layer) if self.layers is not None else nullcontext()

    def check(self, label: str, ok: bool, why: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {why}")

    def record(self, key: str, value: object) -> None:
        """Check one operation's output against its golden (or reference)."""
        self.outputs.setdefault(key, value)
        if self.expected is None:
            return
        want = self.expected.get(key)
        if want is None:
            self.check(key, False, "no golden output")
        else:
            self.check(key, value == want, f"got {value}, golden {want}")


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def qualifying_candidates(stream: int):
    """Loop-free, non-main functions of the generator stream, in order."""
    from repro.analysis.loops import find_natural_loops
    from repro.frontend import compile_source
    from repro.frontend.fuzz import fuzz_source

    index = 0
    while True:
        source = fuzz_source(stream, index)
        for name, func in compile_source(source).functions.items():
            if name != "main" and not find_natural_loops(func):
                yield f"fuzz:{stream}:{index}:{name}", source, func
        index += 1


def select_slice(stream: int, smoke: bool) -> Dict[str, object]:
    """The corpus slice the rule picks from *stream*, with reference
    outputs from the serial flat engine (corpus-flat's path)."""
    from repro.core.enumeration import EnumerationConfig, enumerate_space

    limit, size = (SMOKE_MAX_NODES, 1) if smoke else (CORPUS_MAX_NODES, CORPUS_SIZE)
    pins, reference = [], {}
    for key, source, func in qualifying_candidates(stream):
        result = enumerate_space(func, EnumerationConfig(max_nodes=limit))
        if not result.completed:
            continue
        pins.append({"key": key, "source_sha256": sha256(source)})
        reference[key] = dag_outputs(result.dag, result.attempted_phases)
        if len(pins) == size:
            return {"pins": pins, "reference": reference}


def select_slices(stream: int) -> Dict[str, object]:
    return {"full": select_slice(stream, smoke=False), "smoke": select_slice(stream, smoke=True)}


def load_pinned(pins) -> List[Tuple[str, str]]:
    """(key, source) of each pinned generated function; raises
    :class:`CorpusDrift` when the generator's stream has changed."""
    from repro.frontend.fuzz import fuzz_source

    items = []
    for pin in pins:
        _, stream, index, _name = pin["key"].split(":")
        source = fuzz_source(int(stream), int(index))
        if sha256(source) != pin["source_sha256"]:
            raise CorpusDrift(
                f"corpus drifted: fuzz_source({stream}, {index}) no longer "
                f"hashes to the pinned sha256 of {pin['key']}; the default "
                "generator stream must stay unchanged (add a knob instead)"
            )
        items.append((pin["key"], source))
    return items


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Workload:
    """One pass's stages: ``load`` (untimed set-up), ``compile`` (set-up
    the traced pass attributes), ``timed``, ``check``, ``close``."""

    def __init__(self, p: Pass):
        self.p = p

    def compile(self) -> None:
        pass

    def close(self) -> None:
        pass


class EnumerationWorkload(Workload):
    """corpus-flat, corpus-jobs2, corpus-guarded and seeds-loops: enumerate
    every input function once, in the pass's order."""

    def __init__(self, p: Pass, pins):
        super().__init__(p)
        self.pins = pins
        self.items: List[Tuple[str, object, str]] = []
        self.results = []

    def load(self) -> None:
        from repro.programs import PROGRAMS

        if self.p.workload == "seeds-loops":
            self.sources = [
                (f"{prog}.{name}", PROGRAMS[prog].source) for prog, name in LOOP_FUNCTIONS
            ]
        else:
            self.sources = load_pinned(self.pins)
        self.p.rng.shuffle(self.sources)

    def compile(self) -> None:
        from repro.frontend import compile_source

        for key, source in self.sources:
            name = key.rsplit(":", 1)[-1].rsplit(".", 1)[-1]
            self.items.append((key, compile_source(source).functions[name], source))

    def timed(self) -> None:
        from repro.core.enumeration import EnumerationConfig, enumerate_space

        p = self.p
        if p.workload == "corpus-jobs2":
            from repro.parallel import EnumerationRequest, ParallelConfig, ParallelEnumerator

            for key, func, source in self.items:
                enumerator = ParallelEnumerator(
                    EnumerationConfig(), ParallelConfig(jobs=2, tracer=p.obs)
                )
                request = EnumerationRequest(key, func, source)
                self.results.append((key, enumerator.enumerate([request])[0]))
            return
        sanitize = "fast" if p.workload == "corpus-guarded" else None
        for key, func, _source in self.items:
            with p.span("core.enumeration"):
                result = enumerate_space(func, EnumerationConfig(sanitize=sanitize))
            self.results.append((key, result))

    def check(self) -> None:
        p = self.p
        for key, result in self.results:
            p.edges += result.attempted_phases
            p.check(key, result.completed, f"incomplete ({result.abort_reason})")
            p.record(key, dag_outputs(result.dag, result.attempted_phases))
            if p.workload == "corpus-guarded":
                findings = (result.sanitize_stats or {}).get("findings", 0)
                p.check(
                    f"{key} guard",
                    not len(result.quarantine) and not findings,
                    f"{len(result.quarantine)} quarantined, {findings} findings",
                )
        p.counts.update(dag_counts(result.dag for _key, result in self.results))
        p.detail["functions"] = {
            key: round(result.elapsed, 4) for key, result in self.results
        }


def dag_counts(dags) -> Dict[str, float]:
    """core.dag.dedupe_frac: active edges that land on an existing node."""
    active = new = 0
    for dag in dags:
        active += sum(len(node.active) for node in dag.nodes.values())
        new += len(dag) - 1
    return {"core.dag.dedupe_frac": (active - new) / active if active else 0.0}


class StudyWorkload(Workload):
    """study-e2e: the paper's Tables 3-7 pipeline on the seed programs:
    compile, enumerate the study functions, Tables 4-6, then both
    compilers over every function of a few programs and their entries in
    the VM."""

    def load(self) -> None:
        from repro.programs import PROGRAMS

        p = self.p
        self.functions = list(SMOKE_STUDY_FUNCTIONS if p.smoke else STUDY_FUNCTIONS)
        self.sources = {prog: PROGRAMS[prog].source for prog, _ in self.functions}
        names = [SMOKE_STUDY_PROGRAM] if p.smoke else list(STUDY_COMPILE_PROGRAMS)
        self.programs = [(name, PROGRAMS[name].source, PROGRAMS[name].entry) for name in names]
        p.rng.shuffle(self.programs)
        self.order = p.rng.sample(self.functions, len(self.functions))

    def timed(self) -> None:
        from repro.core.batch import BatchCompiler
        from repro.core.enumeration import EnumerationConfig, enumerate_space
        from repro.core.interactions import analyze_interactions
        from repro.core.probabilistic import ProbabilisticCompiler
        from repro.frontend import compile_source
        from repro.vm import Interpreter

        p = self.p
        compiled = {name: compile_source(source) for name, source in self.sources.items()}
        results = {}
        start = time.perf_counter()
        for prog, name in self.order:
            with p.span("core.enumeration"):
                results[(prog, name)] = enumerate_space(
                    compiled[prog].functions[name], EnumerationConfig()
                )
        enumerate_s = time.perf_counter() - start
        with p.span("core.interactions"):
            # canonical order: the tables sum floats, and the sum must
            # not depend on the pass's enumeration order
            analysis = analyze_interactions([results[f] for f in self.functions])
            tables = "\n".join(
                (analysis.format_enabling(), analysis.format_disabling(), analysis.format_independence())
            )
        self.results, self.tables = results, tables
        self.reports = {"batch": [], "probabilistic": []}
        self.vm = []
        seconds = {"batch": 0.0, "probabilistic": 0.0}
        for kind in ("batch", "probabilistic"):
            layer = f"core.{kind}"
            for prog, source, entry in self.programs:
                program = compile_source(source)
                for func in program.functions.values():
                    compiler = BatchCompiler() if kind == "batch" else ProbabilisticCompiler(analysis)
                    start = time.perf_counter()
                    with p.span(layer):
                        report = compiler.compile(func)
                    seconds[kind] += time.perf_counter() - start
                    self.reports[kind].append((f"{prog}.{func.name}", report))
                with p.span("vm"):
                    run = Interpreter(program, fuel=VM_FUEL).run(entry)
                self.vm.append((kind, prog, run))
        p.detail.update(
            enumerate_s=round(enumerate_s, 4),
            batch_compile_s=round(seconds["batch"], 4),
            prob_compile_s=round(seconds["probabilistic"], 4),
            table7_time_ratio=round(seconds["probabilistic"] / seconds["batch"], 4),
        )

    def check(self) -> None:
        p = self.p
        for (prog, name), result in self.results.items():
            p.edges += result.attempted_phases
            p.check(f"{prog}.{name}", result.completed, "incomplete")
            p.record(f"{prog}.{name}", dag_outputs(result.dag, result.attempted_phases))
        # the smoke pass derives its probabilities from one function, so
        # its tables and probabilistic results have goldens of their own
        scope = "smoke." if p.smoke else ""
        p.record(f"{scope}study.tables", sha256(self.tables))
        attempted = {}
        for kind, reports in self.reports.items():
            attempted[kind] = sum(report.attempted for _, report in reports)
            p.edges += attempted[kind]
            prefix = scope if kind == "probabilistic" else ""
            for key, report in reports:
                p.record(f"{prefix}{kind}:{key}", [report.attempted, report.code_size])
        p.detail["table7_attempt_ratio"] = round(
            attempted["probabilistic"] / attempted["batch"], 4
        )
        for kind, prog, run in self.vm:
            if p.expected is not None:
                want = p.checksums.get(prog)
                p.check(f"vm:{kind}:{prog}", run.value == want, f"got {run.value}, pinned {want}")
        p.counts.update(dag_counts(result.dag for result in self.results.values()))
        p.counts["vm.insts"] = sum(run.total_insts for _, _, run in self.vm)
        p.counts["core.batch.attempted"] = attempted["batch"]
        p.counts["core.probabilistic.attempted"] = attempted["probabilistic"]


class ServiceWorkload(Workload):
    """service-closed: one client, one connection at a time, a closed loop
    of cold enumerate requests (compute + store write) then the same
    functions again (store hits) against ``repro serve --workers 2``."""

    def __init__(self, p: Pass, work_dir: str):
        super().__init__(p)
        self.run_dir = os.path.join(work_dir, "service")
        self.server = None
        self.latencies: List[Tuple[str, float]] = []
        self.responses = []

    def load(self) -> None:
        from repro.service.client import ServiceClient

        p = self.p
        if p.smoke:
            cold, warm = list(SMOKE_SERVICE_COLD), list(SMOKE_SERVICE_WARM)
        else:
            cold = p.rng.sample(SERVICE_FUNCTIONS, len(SERVICE_FUNCTIONS))
            warm = p.rng.sample(cold, len(cold))
        self.plan = [(f, False) for f in cold] + [(f, True) for f in warm]
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        announce = os.path.join(self.run_dir, "service.json")
        with open(os.path.join(self.run_dir, "server.log"), "wb") as log:
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--run-dir", self.run_dir,
                 "--port", "0", "--workers", "2"],
                stdout=subprocess.DEVNULL,
                stderr=log,
            )
        deadline = time.monotonic() + 60.0
        while True:
            if self.server.poll() is not None:
                raise RuntimeError("repro serve exited during start-up")
            try:
                with open(announce, encoding="utf-8") as handle:
                    facts = json.load(handle)
                if facts.get("pid") == self.server.pid:
                    break
            except (OSError, ValueError):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve did not announce itself")
            time.sleep(0.005)
        self.client = ServiceClient(
            "127.0.0.1", facts["port"], rng=random.Random(p.seed)
        )

    def timed(self) -> None:
        from repro.robustness.retry import RetryError
        from repro.service.client import ServiceError

        p = self.p
        server_cpu0 = proc_cpu_seconds(self.server.pid)
        for (prog, name), warm in self.plan:
            start = time.perf_counter()
            with p.span("service.request"):
                try:
                    body = self.client.enumerate(benchmark=prog, function=name)
                except (ServiceError, RetryError) as error:
                    body = {"error": str(error)}
            self.latencies.append(("warm" if warm else "cold", time.perf_counter() - start))
            self.responses.append((f"{prog}.{name}", warm, body))
        self.server_cpu = proc_cpu_seconds(self.server.pid) - server_cpu0

    def check(self) -> None:
        p = self.p
        hits = 0
        for key, warm, body in self.responses:
            if "error" in body:
                p.check(key, False, f"request failed: {body['error']}")
                continue
            hits += bool(body.get("store_hit"))
            p.check(f"{key} store_hit", body.get("store_hit") is warm, f"store_hit={body.get('store_hit')}")
            p.edges += body["attempted_phases"]
            p.record(key, {
                "nodes": body["instances"],
                "edges": body["attempted_phases"],
                "digest": body["dag_fingerprint"],
            })
        for kind in ("cold", "warm"):
            values = [t for k, t in self.latencies if k == kind]
            p.detail[f"svc_{kind}_p50_ms"] = round(1000 * statistics.median(values), 3)
            p.detail[f"svc_{kind}_n"] = len(values)
        p.counts["service.store_hit_frac"] = hits / len(self.responses)

    def close(self) -> None:
        if self.server is None:
            return
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGTERM)
        try:
            self.server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        if self.p.traced:
            server_s = journal_server_seconds(os.path.join(self.run_dir, "events.jsonl"))
            client_s = sum(t for _, t in self.latencies)
            self.p.counts["service.server_s"] = server_s
            self.p.counts["service.transport_s"] = client_s - server_s
        shutil.rmtree(self.run_dir, ignore_errors=True)


def journal_server_seconds(path: str) -> float:
    """Σ request_admitted -> request_done over the server's journal."""
    admitted, total = {}, 0.0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["event"] == "request_admitted":
                admitted[record["request"]] = record["t"]
            elif record["event"] == "request_done" and record["request"] in admitted:
                total += record["t"] - admitted.pop(record["request"])
    return total


def make_workload(p: Pass, pins, work_dir: str):
    if p.workload == "study-e2e":
        return StudyWorkload(p)
    if p.workload == "service-closed":
        return ServiceWorkload(p, work_dir)
    return EnumerationWorkload(p, pins)


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------


def run_pass(args, goldens: Dict[str, object]) -> int:
    p = Pass(args.workload, args.seed, args.pass_index, args.smoke, args.traced)
    pins = goldens["corpus"]["smoke" if args.smoke else "full"]
    p.expected = goldens["outputs"]
    p.checksums = goldens["checksums"]
    if args.slice:
        with open(args.slice, encoding="utf-8") as handle:
            chosen = json.load(handle)["smoke" if args.smoke else "full"]
        pins = chosen["pins"]
        if args.workload in CORPUS_WORKLOADS:
            p.expected = dict(p.expected, **chosen["reference"])
    workload = make_workload(p, pins, args.work_dir)
    try:
        workload.load()
        if p.layers is not None:
            from repro.observability.tracer import Tracer, install

            p.layers.install()
            if p.layers.missing:
                print(f"warning: not traced (gone): {', '.join(p.layers.missing)}", file=sys.stderr)
            p.obs = Tracer()
            events = []
            p.obs.subscribe(lambda name, **fields: events.append((name, fields)))
            install(p.obs)
        start = time.perf_counter()
        workload.compile()
        compile_s = time.perf_counter() - start
        print(json.dumps({"ready": {"compile_s": compile_s}}), flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        # a traced pass reports raw seconds per layer; a sample inside
        # it would land in whichever layer it interrupted
        clock = ReferenceClock() if p.layers is None else None
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        with clock or nullcontext():
            workload.timed()
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0 + getattr(workload, "server_cpu", 0.0)
        if clock is not None:
            wall -= clock.wall_s
            cpu -= clock.cpu_s
        layers = None
        if p.layers is not None:
            from repro.ir.flat import flat_pool_stats
            from repro.observability.tracer import uninstall

            uninstall()
            p.layers.uninstall()
            pool = flat_pool_stats()
            p.counts["ir.flat.pool_insts"] = pool["instructions"]
            p.counts["ir.flat.pool_blocks"] = pool["blocks"]
            lookups = p.obs.analysis_hits + p.obs.analysis_misses
            p.counts["analysis.cache_hit_frac"] = p.obs.analysis_hits / lookups if lookups else 0.0
            shards = [fields for name, fields in events if name == "shard_done"]
            p.counts["parallel.shards"] = len(shards)
            p.counts["parallel.workers_busy_s"] = sum(s["wall"] for s in shards)
        workload.check()
    finally:
        workload.close()
    if p.layers is not None:
        from trace import per_layer_metrics

        traced_wall = compile_s + wall
        layers = per_layer_metrics(p.layers, traced_wall, args.baseline_wall, p.counts)
        dump = dict(p.layers.to_dict(), traced_wall_s=traced_wall, metrics=layers)
        with open(os.path.join(args.work_dir, "layers.json"), "w", encoding="utf-8") as handle:
            json.dump(dump, handle, indent=1, sort_keys=True)
    result = {
        "wall_s": wall,
        "compile_s": compile_s,
        "cpu_s": cpu,
        "ref_s": clock.unit_s if clock is not None else None,
        "ref_samples": len(clock.samples) if clock is not None else 0,
        "edges": p.edges,
        "rss_mb": peak_rss_mb(),
        "attempted": p.attempted,
        "failures": p.failures,
        "outputs": p.outputs,
        "detail": p.detail,
        "layers": layers,
    }
    print(json.dumps({"result": result}), flush=True)
    return 0


# ----------------------------------------------------------------------
# Goldens
# ----------------------------------------------------------------------


def write_goldens(goldens: Dict[str, object]) -> Dict[str, object]:
    """Regenerate every golden output with corpus-flat's serial engine.

    The VM checksums are hand-pinned constants and are carried over.
    """
    slices = select_slices(0)
    outputs: Dict[str, object] = {}
    for chosen in slices.values():
        outputs.update(chosen["reference"])
    for workload, smoke in (("seeds-loops", False), ("study-e2e", False), ("study-e2e", True)):
        p = Pass(workload, 0, 0, smoke, traced=False)
        runner = make_workload(p, None, "")
        runner.load()
        runner.compile()
        runner.timed()
        runner.check()
        outputs.update(p.outputs)
    return {
        "corpus": {
            "generator": "repro.frontend.fuzz.fuzz_source",
            "stream": 0,
            "rule": (
                f"not main, no natural loop, space completes within "
                f"{CORPUS_MAX_NODES} nodes; first {CORPUS_SIZE} (smoke: first "
                f"within {SMOKE_MAX_NODES} nodes)"
            ),
            "full": slices["full"]["pins"],
            "smoke": slices["smoke"]["pins"],
        },
        "checksums": goldens["checksums"],
        "outputs": dict(sorted(outputs.items())),
    }


def dump_goldens(goldens: Dict[str, object]) -> None:
    # one output per line, so a changed golden is a one-line diff
    outputs = ",\n".join(
        f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in goldens["outputs"].items()
    )
    with open(GOLDENS_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n")
        for key in ("corpus", "checksums"):
            nested = json.dumps(goldens[key], indent=1).replace("\n", "\n ")
            handle.write(f' "{key}": {nested},\n')
        handle.write(f' "outputs": {{\n{outputs}\n }}\n}}\n')


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--baseline-wall", type=float)
    parser.add_argument("--slice", help="corpus slices from --select")
    parser.add_argument("--work-dir", default=".")
    parser.add_argument("--select", type=int, metavar="STREAM")
    parser.add_argument("--write-goldens", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(GOLDENS_PATH, encoding="utf-8") as handle:
        goldens = json.load(handle)
    try:
        if args.select is not None:
            print(json.dumps(select_slices(args.select)), flush=True)
            return 0
        if args.write_goldens:
            dump_goldens(write_goldens(goldens))
            return 0
        return run_pass(args, goldens)
    except CorpusDrift as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
