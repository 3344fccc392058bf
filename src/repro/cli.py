"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
compile
    Compile a mini-C file and print the RTL of one or all functions,
    optionally after a phase sequence or a full batch compilation.
run
    Execute a function (or a benchmark's entry point) in the RTL
    interpreter and report the result and dynamic instruction counts.
enumerate
    Exhaustively enumerate a function's phase order space and print its
    Table 3 row; optionally dump the space DAG as Graphviz.  Robustness
    switches: ``--validate`` (IR validation of every active phase),
    ``--difftest`` (VM differential semantics testing), ``--checkpoint``
    / ``--resume`` (crash-safe persistence), ``--inject-faults`` (the
    deterministic fault harness) — see docs/ROBUSTNESS.md.
profile
    Run one enumeration under cProfile and print where the time goes —
    the drill-down companion to ``benchmarks/bench_hotpath.py``.
interactions
    Enumerate several functions and print the Table 4/5/6 matrices.
report
    Render a human summary of a ``--run-dir``'s telemetry (manifest,
    event journal, phase outcomes, cache hit rates, quarantines) — see
    docs/OBSERVABILITY.md.
serve
    Long-lived enumeration service: a JSON-over-HTTP server with
    admission control, per-tenant quotas, request coalescing, circuit
    breaking, and graceful drain — see docs/SERVICE.md.
search
    Heuristic search for a good phase ordering — genetic algorithm,
    hill climbing, simulated annealing, bandits, random sampling, or
    the table-driven probabilistic policy (``--strategy``).
search-bench
    Score every search strategy against the *known* optimum of each
    seed function's exhaustively enumerated space, and emit a JSON
    leaderboard with per-function Pareto frontiers — see
    docs/SEARCH.md.
list-benchmarks
    Show the bundled MiBench-like benchmark programs.

Mini-C files are read from disk; the bundled benchmarks are addressed
as ``bench:NAME`` (e.g. ``bench:sha``) wherever a file is expected.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.core.checkpoint import CheckpointError
from repro.core.enumeration import EnumerationConfig, enumerate_space
from repro.core.batch import BatchCompiler
from repro.core.interactions import analyze_interactions
from repro.core.stats import FunctionSpaceStats, format_stats_table, static_function_facts
from repro.frontend import CompileError, compile_source
from repro.ir.function import Program
from repro.ir.printer import format_function
from repro.opt import PHASE_IDS, apply_phase, implicit_cleanup, phase_by_id
from repro.programs import PROGRAMS
from repro.robustness import FaultInjector
from repro.search import GeneticSearcher, STRATEGY_BUILDERS, codesize_objective
from repro.vm import Interpreter, VMError


def _load_source(spec: str) -> str:
    """The mini-C text behind a file path or ``bench:NAME`` spec.

    Kept separate from compilation because the parallel service ships
    raw source to worker processes (each worker recompiles it) instead
    of pickling compiled Program objects.
    """
    if spec.startswith("bench:"):
        name = spec[len("bench:") :]
        if name not in PROGRAMS:
            raise SystemExit(
                f"unknown benchmark {name!r}; try: {', '.join(sorted(PROGRAMS))}"
            )
        return PROGRAMS[name].source
    try:
        with open(spec) as handle:
            return handle.read()
    except OSError as error:
        raise SystemExit(f"cannot read {spec}: {error}")


def _compile_spec(spec: str, source: str) -> Program:
    try:
        return compile_source(source)
    except CompileError as error:
        raise SystemExit(f"{spec}: {error}")


def _load_program(spec: str) -> Program:
    return _compile_spec(spec, _load_source(spec))


def _select_function(program: Program, name: Optional[str]):
    if name is None:
        raise SystemExit(
            f"--function required; available: {', '.join(program.functions)}"
        )
    func = program.functions.get(name)
    if func is None:
        raise SystemExit(
            f"no function {name!r}; available: {', '.join(program.functions)}"
        )
    return func


def _validate_sequence(sequence: str) -> str:
    for phase_id in sequence:
        if phase_id not in PHASE_IDS:
            raise SystemExit(
                f"unknown phase {phase_id!r}; phases: {''.join(PHASE_IDS)}"
            )
    return sequence


def _format_sanitize_stats(mode: str, stats) -> str:
    line = (
        f"sanitizer ({mode}): {stats.get('edges', 0)} edges checked, "
        f"{stats.get('findings', 0)} findings, "
        f"{stats.get('contract_violations', 0)} contract violations"
    )
    if mode == "full":
        line += (
            f" — verdicts: {stats.get('proved', 0)} proved, "
            f"{stats.get('tested', 0)} tested, "
            f"{stats.get('unverified', 0)} unverified, "
            f"{stats.get('refuted', 0)} refuted"
        )
    return line


def _format_collapse_stats(stats) -> str:
    return (
        f"collapse (semantic): {stats.get('merged', 0)} merged "
        f"({stats.get('merged_proved', 0)} proved, "
        f"{stats.get('merged_tested', 0)} tested) of "
        f"{stats.get('candidates', 0)} candidates — "
        f"{stats.get('split_unproven', 0)} unproven, "
        f"{stats.get('split_cycle', 0)} cycle-split, "
        f"{stats.get('split_size', 0)} size-split, "
        f"{stats.get('refuted', 0)} refuted"
    )


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def cmd_compile(args) -> int:
    program = _load_program(args.file)
    names = [args.function] if args.function else list(program.functions)
    for name in names:
        func = program.functions.get(name)
        if func is None:
            raise SystemExit(f"no function {name!r}")
        implicit_cleanup(func)
        applied = []
        if args.batch:
            report = BatchCompiler().compile(func)
            applied = list(report.active_sequence)
        elif args.sequence:
            for phase_id in _validate_sequence(args.sequence):
                if apply_phase(func, phase_by_id(phase_id)):
                    applied.append(phase_id)
        print(f"=== {name} ({func.num_instructions()} instructions"
              + (f"; active: {''.join(applied)}" if applied else "") + ") ===")
        print(format_function(func))
        print()
    return 0


def cmd_run(args) -> int:
    program = _load_program(args.file)
    if args.batch:
        for func in program.functions.values():
            BatchCompiler().compile(func)
    entry = args.entry
    if entry is None and args.file.startswith("bench:"):
        entry = PROGRAMS[args.file[len("bench:") :]].entry
    if entry is None:
        raise SystemExit("--entry required for source files")
    arguments = [int(a) for a in args.args]
    try:
        result = Interpreter(program, fuel=args.fuel).run(entry, arguments)
    except VMError as error:
        raise SystemExit(f"execution failed: {error}")
    print(f"value: {result.value}")
    print(f"dynamic instructions: {result.total_insts}")
    for name, count in sorted(result.per_function.items()):
        print(f"  {name}: {count}")
    return 0


def _build_tracer(args, tool: str):
    """The --run-dir journal + manifest, installed as the process-global
    tracer.  The caller closes it with the run's ok flag."""
    from repro.observability import build_manifest
    from repro.observability.tracer import Tracer, install

    seeds = {}
    if getattr(args, "inject_faults", 0.0):
        seeds["fault"] = args.fault_seed
    config = {
        key: value for key, value in sorted(vars(args).items())
        if key != "handler"
    }
    manifest = build_manifest(
        tool=tool, config=config, seeds=seeds, argv=sys.argv[1:]
    )
    tracer = Tracer(run_dir=args.run_dir, manifest=manifest)
    install(tracer)
    tracer.emit("run_start", tool=tool)
    return tracer


def _close_tracer(tracer, ok: bool) -> None:
    if tracer is None:
        return
    from repro.observability.tracer import uninstall

    uninstall()
    tracer.close(ok=ok)


def _parallel_service(args, store_dir, progress, run_dir, tracer=None):
    """Build the (ParallelConfig, reporter) pair for --jobs/--store."""
    from repro.parallel import ParallelConfig, ProgressReporter, SpaceStore

    store = SpaceStore(store_dir) if store_dir else None
    # The run-dir journal belongs to the tracer; the reporter is a pure
    # event consumer driving the status line (the coordinator delivers
    # every event to both).
    reporter = ProgressReporter() if progress else None
    parallel = ParallelConfig(
        jobs=args.jobs,
        run_dir=run_dir,
        resume=getattr(args, "resume", False),
        store=store,
        progress=reporter,
        tracer=tracer,
    )
    return parallel, reporter


def _dump_profile(profiler, run_dir: Optional[str]) -> None:
    """Write ``--profile`` stats (binary + cumtime-sorted text) to the
    run dir, or the working directory when no --run-dir was given."""
    import io
    import os
    import pstats

    directory = run_dir or "."
    os.makedirs(directory, exist_ok=True)
    binary_path = os.path.join(directory, "profile.pstats")
    text_path = os.path.join(directory, "profile.txt")
    profiler.dump_stats(binary_path)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(40)
    with open(text_path, "w") as handle:
        handle.write(buffer.getvalue())
    print(
        f"profile: {text_path} (cumtime top 40; full data in "
        f"{binary_path}, inspect with `python -m pstats`)",
        file=sys.stderr,
    )


def cmd_enumerate(args) -> int:
    source = _load_source(args.file)
    program = _compile_spec(args.file, source)
    func = _select_function(program, args.function)
    implicit_cleanup(func)
    facts = static_function_facts(func)
    use_parallel = args.jobs > 1 or bool(args.store)
    if args.resume and not (args.checkpoint or args.run_dir):
        raise SystemExit("--resume requires --checkpoint PATH (or --run-dir DIR)")
    if use_parallel and args.checkpoint:
        raise SystemExit(
            "--checkpoint is the serial persistence flag; "
            "use --run-dir DIR with --jobs/--store"
        )
    injector = None
    if args.inject_faults:
        if not 0.0 < args.inject_faults <= 1.0:
            raise SystemExit("--inject-faults RATE must be in (0, 1]")
        injector = FaultInjector(seed=args.fault_seed, rate=args.inject_faults)
    # A serial --run-dir run checkpoints into the run dir, so
    # --run-dir DIR --resume works the same with and without --jobs.
    checkpoint_path = args.checkpoint
    if not use_parallel and args.run_dir and not checkpoint_path:
        checkpoint_path = os.path.join(args.run_dir, "checkpoint.json")
    config = EnumerationConfig(
        max_nodes=args.max_nodes,
        time_limit=args.time_limit,
        exact=args.exact,
        validate=args.validate,
        difftest=args.difftest,
        phase_timeout=args.phase_timeout,
        fault_injector=injector,
        checkpoint_path=None if use_parallel else checkpoint_path,
        resume=False if use_parallel else args.resume,
        sanitize=args.sanitize,
        collapse=args.collapse,
    )
    if config.needs_program() and not use_parallel:
        config.program = program
    tracer = _build_tracer(args, "repro.enumerate") if args.run_dir else None
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    ok = False
    try:
        if use_parallel:
            from repro.parallel import EnumerationRequest, ParallelEnumerator

            parallel, reporter = _parallel_service(
                args, args.store, args.progress, args.run_dir, tracer
            )
            request = EnumerationRequest(
                args.function, func, source if config.needs_program() else None
            )
            try:
                result = ParallelEnumerator(config, parallel).enumerate(
                    [request]
                )[0]
            finally:
                if reporter is not None:
                    reporter.close()
            if parallel.store is not None:
                print(
                    f"store: {parallel.store.hits} hit(s), "
                    f"{parallel.store.misses} miss(es) ({args.store})",
                    file=sys.stderr,
                )
        else:
            result = enumerate_space(func, config)
        ok = True
    except CheckpointError as error:
        raise SystemExit(str(error))
    finally:
        if profiler is not None:
            profiler.disable()
            _dump_profile(profiler, args.run_dir)
        _close_tracer(tracer, ok)
    stats = FunctionSpaceStats(args.function, *facts, result)
    print(format_stats_table([stats]))
    if result.resumed_from:
        print(f"(resumed from {result.resumed_from})")
    if not result.completed:
        print(f"(aborted: {result.abort_reason})")
        if args.checkpoint and not use_parallel:
            print(
                f"(state saved; rerun with --checkpoint {args.checkpoint} "
                "--resume to continue)"
            )
        elif args.run_dir:
            print(
                f"(state saved; rerun with --run-dir {args.run_dir} "
                "--resume to continue)"
            )
    if injector is not None:
        print(
            f"fault injection: {injector.injected} fault(s) over "
            f"{injector.applications} guarded applications "
            f"(seed={injector.seed}, rate={injector.rate})"
        )
    if config.guards_enabled() or (use_parallel and args.difftest):
        print(result.quarantine.format_report())
    if args.sanitize and result.sanitize_stats is not None:
        print(_format_sanitize_stats(args.sanitize, result.sanitize_stats))
    if result.collapse_stats is not None:
        print(_format_collapse_stats(result.collapse_stats))
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(result.dag.to_dot())
        print(f"space DAG written to {args.dot}")
    return 0



def cmd_profile(args) -> int:
    """One enumeration under cProfile, with an edge-throughput summary.

    The profiling companion to ``benchmarks/bench_hotpath.py``: the
    benchmark tells you *whether* the phases regressed, this command
    tells you *where* the time went.  ``--cold`` resets the flat-kernel
    caches first so the run measures what a fresh process would pay.
    """
    import cProfile
    import time

    source = _load_source(args.file)
    program = _compile_spec(args.file, source)
    func = _select_function(program, args.function)
    implicit_cleanup(func)
    config = EnumerationConfig(max_nodes=args.max_nodes, time_limit=args.time_limit)
    if args.cold:
        from repro.opt.flat import reset_flat_kernel_caches

        reset_flat_kernel_caches()
    tracer = _build_tracer(args, "repro.profile") if args.run_dir else None
    ok = False
    profiler = cProfile.Profile()
    try:
        start = time.perf_counter()
        profiler.enable()
        result = enumerate_space(func, config)
        profiler.disable()
        wall = time.perf_counter() - start
        edges = result.attempted_phases
        if tracer is not None:
            tracer.emit(
                "profile_run",
                function=args.function,
                wall=round(wall, 4),
                edges=edges,
            )
        ok = True
    finally:
        if not ok:
            profiler.disable()
        _close_tracer(tracer, ok)
    status = "complete" if result.completed else f"aborted: {result.abort_reason}"
    print(
        f"{args.function}: {edges} edges in {wall:.3f}s "
        f"({edges / wall:,.0f} edges/s, {status})"
    )
    import pstats

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.run_dir:
        _dump_profile(profiler, args.run_dir)
    return 0


def cmd_lint(args) -> int:
    """Run the IR sanitizer over a program, an .ir dump, or a run dir."""
    from repro.staticanalysis import sanitize_function, sanitize_program

    findings = []
    checked = 0
    if os.path.isdir(args.target):
        findings, checked = _lint_run_dir(args.target, args.mode)
    elif args.target.endswith(".ir"):
        from repro.ir.parser import RTLParseError, parse_function

        try:
            with open(args.target) as handle:
                text = handle.read()
        except OSError as error:
            raise SystemExit(f"cannot read {args.target}: {error}")
        name = os.path.splitext(os.path.basename(args.target))[0]
        try:
            func = parse_function(text, name)
        except RTLParseError as error:
            raise SystemExit(f"{args.target}: {error}")
        _infer_ir_metadata(func)
        findings = sanitize_function(func, mode=args.mode)
        checked = 1
    else:
        return _lint_source_target(args)
    for finding in findings:
        print(finding)
    noun = "function" if checked == 1 else "functions"
    print(
        f"lint ({args.mode}): {checked} {noun} checked, "
        f"{len(findings)} finding(s)"
    )
    return 1 if findings else 0


def _lint_source_target(args) -> int:
    """Source mode of ``repro lint``: semantic diagnostics with caret
    spans first, then the IR sanitizer over the compiled program."""
    from repro.staticanalysis import sanitize_function, sanitize_program

    tracer = (
        _build_tracer(args, "repro.lint")
        if getattr(args, "run_dir", None)
        else None
    )
    ok = False
    try:
        source = _load_source(args.target)
        diagnostics = _lint_source(args.target, source)
        if diagnostics is None:
            total = 1  # unparseable: the parse error is the finding
            checked = 0
            findings = []
        elif any(d.severity == "error" for d in diagnostics):
            print(
                f"lint (source): {len(diagnostics)} diagnostic(s), "
                "IR checks skipped"
            )
            total = len(diagnostics)
            checked = 0
            findings = []
        else:
            program = _compile_spec(args.target, source)
            for func in program.functions.values():
                implicit_cleanup(func)
            if args.function:
                func = _select_function(program, args.function)
                findings = sanitize_function(
                    func, program=program, mode=args.mode
                )
                checked = 1
            else:
                findings = sanitize_program(program, mode=args.mode)
                checked = len(program.functions)
            total = len(diagnostics) + len(findings)
            for finding in findings:
                print(finding)
            noun = "function" if checked == 1 else "functions"
            print(
                f"lint ({args.mode}): {checked} {noun} checked, "
                f"{total} finding(s)"
            )
        if tracer is not None:
            tracer.emit(
                "lint_source",
                target=args.target,
                diagnostics=total - len(findings),
                findings=len(findings),
                functions=checked,
            )
        ok = True
    finally:
        _close_tracer(tracer, ok)
    return 1 if total else 0


def _lint_source(spec: str, source: str):
    """Source-level diagnostics for a mini-C target, spans included.

    Prints every semantic diagnostic with its caret span and returns
    the diagnostic list, or None after reporting a parse error (which
    also carries a span when the error has a position).
    """
    from repro.frontend import parse
    from repro.frontend.errors import CompileError, format_error
    from repro.frontend.sema import analyze

    filename = spec if not spec.startswith("bench:") else f"<{spec}>"
    try:
        unit = parse(source)
    except CompileError as error:
        print(format_error(error, source, filename))
        return None
    sema = analyze(unit)
    for diagnostic in sema.diagnostics:
        print(diagnostic.format(filename, source))
    return sema.diagnostics


def cmd_fuzz(args) -> int:
    """Stream generated well-typed programs through the full pipeline.

    Each program must clear the semantic gate with zero diagnostics,
    sanitize clean, and survive a bounded enumeration of every function
    with per-edge guards at ``--sanitize`` strength.  Any failure is
    shrunk with a line-granular ddmin before being reported.
    """
    from repro.frontend.fuzz import fuzz_source, minimize_lines

    if args.count <= 0:
        raise SystemExit("--count must be positive")
    tracer = _build_tracer(args, "repro.fuzz") if args.run_dir else None
    failures = 0
    ok = False
    try:
        for index in range(args.count):
            source = fuzz_source(args.seed, index)
            failure = _fuzz_check(source, args)
            if failure is None:
                continue
            failures += 1
            kind, detail = failure
            print(f"fuzz: program {index} (seed {args.seed}) failed "
                  f"[{kind}]: {detail}")
            if tracer is not None:
                tracer.emit(
                    "fuzz_program", index=index, kind=kind, detail=detail
                )
            if not args.no_minimize:
                def still_fails(candidate: str) -> bool:
                    result = _fuzz_check(candidate, args)
                    return result is not None and result[0] == kind

                reduced = minimize_lines(source, still_fails)
                print("minimized reproducer:")
                print(reduced)
        if tracer is not None:
            tracer.emit(
                "fuzz_run",
                count=args.count,
                seed=args.seed,
                failures=failures,
                sanitize=args.sanitize,
            )
        ok = True
    finally:
        _close_tracer(tracer, ok)
    print(
        f"fuzz: {args.count} program(s), seed {args.seed}, "
        f"sanitize={args.sanitize}, {failures} failure(s)"
    )
    return 1 if failures else 0


def _fuzz_check(args_source: str, args):
    """``(kind, detail)`` when one generated program fails, else None.

    Stages: the semantic gate (any diagnostic on generated code is a
    generator or analyzer bug), the whole-program sanitizer, then a
    bounded guarded enumeration of every function.
    """
    from repro.staticanalysis import sanitize_program

    try:
        program = compile_source(args_source)
    except CompileError as error:
        return "compile", str(error)
    except RecursionError:
        return "compile", "recursion limit exceeded"
    findings = sanitize_program(program, mode=args.sanitize)
    if findings:
        first = findings[0]
        return "sanitize", f"{len(findings)} finding(s), first: {first}"
    for name, func in program.functions.items():
        work = func.clone()
        implicit_cleanup(work)
        config = EnumerationConfig(
            max_nodes=args.max_nodes,
            time_limit=args.time_limit,
            sanitize=args.sanitize,
            difftest=args.difftest,
            program=program,
        )
        result = enumerate_space(work, config)
        if len(result.quarantine):
            record = result.quarantine.records[0]
            return (
                f"quarantine:{record.kind}",
                f"{name}: {len(result.quarantine)} rejection(s), "
                f"first: phase {record.phase_id} ({record.detail})",
            )
        stats = result.sanitize_stats or {}
        if stats.get("refuted"):
            return (
                "transval",
                f"{name}: {stats['refuted']} refuted edge(s)",
            )
    return None


def _infer_ir_metadata(func) -> None:
    """Reconstruct the metadata a bare RTL dump does not carry.

    A printed function records only blocks and instructions; the
    pseudo-register high-water mark and the frame extent are inferred
    from what the code actually touches, so the sanitizer's width and
    bounds checks run against the dump's own footprint instead of the
    zero defaults (which would flag every pseudo and frame access).
    """
    from repro.ir.instructions import Assign, Compare
    from repro.ir.operands import BinOp, Const, Mem, Reg
    from repro.machine.target import FP

    max_pseudo = -1
    frame_top = 0

    def fp_offset(expr, env):
        """Constant fp-relative offset of *expr*, or None."""
        if isinstance(expr, Reg):
            if expr == FP:
                return 0
            return env.get(expr)
        if (
            isinstance(expr, BinOp)
            and expr.op == "add"
            and isinstance(expr.right, Const)
        ):
            base = fp_offset(expr.left, env)
            if base is not None:
                return base + expr.right.value
        return None

    for block in func.blocks:
        # Local propagation of registers holding fp+c; block-scoped is
        # enough for an inference heuristic (address arithmetic is
        # emitted next to its memory access).
        env = {}
        for inst in block.insts:
            for reg in inst.defs() | inst.uses():
                if reg.pseudo:
                    max_pseudo = max(max_pseudo, reg.index)
            exprs = []
            if isinstance(inst, Assign):
                exprs = [inst.src, inst.dst]
            elif isinstance(inst, Compare):
                exprs = [inst.left, inst.right]
            for expr in exprs:
                for node in expr.walk():
                    if isinstance(node, Mem):
                        offset = fp_offset(node.addr, env)
                        if offset is not None and offset >= 0:
                            frame_top = max(frame_top, offset + 4)
            if isinstance(inst, Assign) and isinstance(inst.dst, Reg):
                offset = fp_offset(inst.src, env)
                if offset is not None:
                    env[inst.dst] = offset
                else:
                    env.pop(inst.dst, None)
    func.next_pseudo = max_pseudo + 1
    func.frame_size = frame_top

    # Arity: a dump carries no parameter list, so the definedness seed
    # would treat every argument register as undefined.  Argument
    # registers live into the entry block *are* the arguments.
    from repro.analysis.cache import liveness_of
    from repro.machine.target import ARG_REGS

    live_in = liveness_of(func).live_in.get(func.entry.label, frozenset())
    arity = max(
        (index + 1 for index, reg in enumerate(ARG_REGS) if reg in live_in),
        default=0,
    )
    func.params = [f"p{index}" for index in range(arity)]
    func.invalidate_analyses()


def _lint_run_dir(run_dir: str, mode: str):
    """Lint a run dir: journal schema + every checkpointed instance."""
    import glob
    import json as json_mod

    from repro.core import checkpoint as ckpt
    from repro.observability.events import JOURNAL_NAME, validate_journal
    from repro.staticanalysis import Finding, sanitize_function

    findings = []
    checked = 0
    journal = os.path.join(run_dir, JOURNAL_NAME)
    if os.path.exists(journal):
        _records, errors = validate_journal(journal)
        for error in errors:
            findings.append(
                Finding("JRN001", JOURNAL_NAME, "journal", error)
            )
    candidates = sorted(glob.glob(os.path.join(run_dir, "*.json")))
    saw_input = False
    for path in candidates:
        try:
            with open(path) as handle:
                state = json_mod.load(handle)
        except (OSError, ValueError):
            continue
        if not isinstance(state, dict) or "functions" not in state:
            continue
        saw_input = True
        for entry in state["functions"].values():
            try:
                func = ckpt.function_from_dict(entry)
            except Exception as error:
                findings.append(
                    Finding(
                        "CKP001",
                        entry.get("name", "?") if isinstance(entry, dict) else "?",
                        os.path.basename(path),
                        f"unparseable checkpointed instance: {error}",
                    )
                )
                continue
            findings.extend(sanitize_function(func, mode=mode))
            checked += 1
    if not saw_input and not os.path.exists(journal):
        raise SystemExit(
            f"{run_dir}: no {JOURNAL_NAME} or checkpoint files found "
            "— not a run dir?"
        )
    return findings, checked


def cmd_interactions(args) -> int:
    program = _load_program(args.file)
    names = args.functions.split(",") if args.functions else list(program.functions)
    config = EnumerationConfig(max_nodes=args.max_nodes, time_limit=args.time_limit)
    funcs = []
    for name in names:
        func = program.functions.get(name)
        if func is None:
            raise SystemExit(f"no function {name!r}")
        clone = func.clone()
        implicit_cleanup(clone)
        funcs.append((name, clone))
    tracer = (
        _build_tracer(args, "repro.interactions")
        if getattr(args, "run_dir", None)
        else None
    )
    ok = False
    try:
        if args.jobs > 1 or args.store:
            from repro.parallel import EnumerationRequest, ParallelEnumerator

            parallel, reporter = _parallel_service(
                args, args.store, args.progress, args.run_dir, tracer
            )
            requests = [EnumerationRequest(name, func) for name, func in funcs]
            try:
                results = ParallelEnumerator(config, parallel).enumerate(requests)
            finally:
                if reporter is not None:
                    reporter.close()
        else:
            results = [enumerate_space(func, config) for _name, func in funcs]
        ok = True
    finally:
        _close_tracer(tracer, ok)
    for (name, _func), result in zip(funcs, results):
        status = "complete" if result.completed else "truncated"
        if result.resumed_from and result.resumed_from.startswith("store:"):
            status += ", cached"
        print(
            f"{name}: {len(result.dag)} instances ({status})", file=sys.stderr
        )
    analysis = analyze_interactions(results)
    print(analysis.format_enabling())
    print()
    print(analysis.format_disabling())
    print()
    print(analysis.format_independence())
    return 0


def cmd_report(args) -> int:
    import json

    from repro.observability.report import (
        ReportError,
        render_report,
        summarize_run,
    )

    try:
        summary = summarize_run(args.run_dir)
    except ReportError as error:
        raise SystemExit(str(error))
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True, default=str))
    else:
        print(render_report(summary))
    return 0


def cmd_serve(args) -> int:
    from repro.service.server import ServiceConfig, serve_main

    config = ServiceConfig(
        run_dir=args.run_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        tenant_concurrency=args.tenant_concurrency,
        default_deadline=args.default_deadline,
        max_deadline=args.max_deadline,
        drain_grace=args.drain_grace,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        store_root=args.store,
        memory_watermark_mb=args.memory_watermark,
    )
    return serve_main(config)


def cmd_search(args) -> int:
    program = _load_program(args.file)
    func = _select_function(program, args.function)
    implicit_cleanup(func)
    if args.strategy == "ga":
        # the historical direct path, so --length/--generations work
        strategy = GeneticSearcher(
            func,
            sequence_length=args.length,
            generations=args.generations,
            seed=args.seed,
        )
    else:
        interactions = None
        if args.strategy == "policy":
            # the policy is table-driven; measure this function's own
            # interaction tables from its (budgeted) enumerated space
            space = enumerate_space(
                func, EnumerationConfig(max_nodes=args.max_nodes)
            )
            interactions = analyze_interactions([space])
        strategy = STRATEGY_BUILDERS[args.strategy](
            func, codesize_objective, args.seed, interactions
        )
    result = strategy.run()
    print(f"strategy      : {strategy.name}")
    print(f"best sequence : {''.join(result.best_sequence)}")
    print(f"code size     : {result.best_fitness:.0f} instructions")
    print(
        f"evaluations   : {result.evaluations} "
        f"({result.cache_hits} avoided by the fingerprint cache), "
        f"{result.attempted_phases} phases attempted"
    )
    print(format_function(result.best_function))
    return 0


def cmd_search_bench(args) -> int:
    from repro.search.harness import (
        HarnessConfig,
        QUICK_FUNCTIONS,
        SEED_FUNCTIONS,
        SeedFunction,
        format_leaderboard,
        run_search_bench,
        write_leaderboard,
    )

    if args.functions:
        functions = []
        for spec in args.functions.split(","):
            benchmark, _, function = spec.strip().partition(".")
            if not function:
                raise SystemExit(
                    f"bad --functions entry {spec!r}; expected BENCH.FUNCTION"
                )
            if benchmark not in PROGRAMS:
                raise SystemExit(
                    f"unknown benchmark {benchmark!r}; "
                    f"try: {', '.join(sorted(PROGRAMS))}"
                )
            functions.append(SeedFunction(benchmark, function))
        functions = tuple(functions)
    else:
        functions = QUICK_FUNCTIONS if args.quick else SEED_FUNCTIONS
    strategies = (
        tuple(s.strip() for s in args.strategies.split(","))
        if args.strategies
        else tuple(STRATEGY_BUILDERS)
    )
    trials = args.trials
    if trials is None:
        trials = 2 if args.quick else 3
    config = HarnessConfig(
        functions=functions,
        strategies=strategies,
        trials=trials,
        seed=args.seed,
        objective=args.objective,
        max_nodes=args.max_nodes,
        time_limit=args.time_limit,
        store=args.store,
        quick=args.quick,
    )
    tracer = _build_tracer(args, "repro.search-bench") if args.run_dir else None
    ok = False
    try:
        try:
            leaderboard = run_search_bench(config)
        except ValueError as error:
            raise SystemExit(str(error))
        print(format_leaderboard(leaderboard))
        path = write_leaderboard(leaderboard, args.out)
        print(f"\nleaderboard written to {path}")
        ok = True
    finally:
        _close_tracer(tracer, ok)
    return 0


def cmd_list_benchmarks(args) -> int:
    for name, bench in sorted(PROGRAMS.items()):
        print(
            f"{name:14s} {bench.category:10s} entry={bench.entry:6s} "
            f"functions: {', '.join(bench.study_functions)}"
        )
    return 0


# ----------------------------------------------------------------------


def _add_parallel_arguments(p) -> None:
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="enumerate with N worker processes (merged space is "
        "bit-identical to --jobs 1; see docs/PARALLEL.md)",
    )
    p.add_argument(
        "--store",
        metavar="DIR",
        help="persistent space store; completed spaces are cached "
        "here and later runs hit the cache instead of re-enumerating",
    )
    p.add_argument(
        "--progress",
        action="store_true",
        help="live status line on stderr (TTY only)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Exhaustive optimization phase order space exploration "
        "(CGO 2006 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile mini-C and print RTL")
    p.add_argument("file", help="mini-C file or bench:NAME")
    p.add_argument("--function", help="only this function")
    p.add_argument("--sequence", help="phase letters to apply, e.g. sckshu")
    p.add_argument("--batch", action="store_true", help="full batch compilation")
    p.set_defaults(handler=cmd_compile)

    p = sub.add_parser("run", help="execute in the RTL interpreter")
    p.add_argument("file", help="mini-C file or bench:NAME")
    p.add_argument("--entry", help="function to call (benchmark default: its main)")
    p.add_argument("--batch", action="store_true", help="optimize before running")
    p.add_argument("--fuel", type=int, default=50_000_000)
    p.add_argument(
        "--args",
        nargs="*",
        default=[],
        metavar="N",
        help="integer arguments passed to the entry function",
    )
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("enumerate", help="enumerate a phase order space")
    p.add_argument("file", help="mini-C file or bench:NAME")
    p.add_argument("--function", required=True)
    p.add_argument("--max-nodes", type=int, default=20_000)
    p.add_argument("--time-limit", type=float, default=300.0)
    p.add_argument(
        "--collapse",
        choices=["syntactic", "semantic"],
        default="syntactic",
        help="instance-merging mode: 'syntactic' (the default) is the "
        "paper's remap+CRC dedup; 'semantic' additionally merges "
        "instances whose canonical symbolic summaries are proved (or "
        "VM-co-execution-tested) equivalent — unproven collisions stay "
        "split; see docs/COLLAPSE.md",
    )
    p.add_argument("--exact", action="store_true", help="verify no hash collisions")
    p.add_argument("--dot", help="write the space DAG as Graphviz to this file")
    p.add_argument(
        "--validate",
        action="store_true",
        help="validate the IR after every active phase; malformed "
        "results are quarantined instead of entering the space",
    )
    p.add_argument(
        "--difftest",
        action="store_true",
        help="differential-test every candidate in the VM interpreter "
        "against the unoptimized function on recorded input vectors",
    )
    p.add_argument(
        "--sanitize",
        nargs="?",
        const="full",
        choices=["fast", "full"],
        default=None,
        help="statically verify every applied edge: 'fast' runs the IR "
        "sanitizer and phase-contract checker, 'full' (the default "
        "when the flag is given bare) adds per-edge translation "
        "validation with VM co-execution fallback — see "
        "docs/STATIC_ANALYSIS.md",
    )
    p.add_argument(
        "--phase-timeout",
        type=float,
        metavar="SECONDS",
        help="quarantine any phase application running longer than this",
    )
    p.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="periodically persist the enumeration state to PATH",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="continue from the --checkpoint file when it exists",
    )
    p.add_argument(
        "--inject-faults",
        type=float,
        default=0.0,
        metavar="RATE",
        help="sabotage this fraction of phase applications "
        "(deterministic; exercises the guard paths)",
    )
    p.add_argument(
        "--fault-seed",
        type=int,
        default=2006,
        help="random seed for --inject-faults",
    )
    _add_parallel_arguments(p)
    p.add_argument(
        "--run-dir",
        metavar="DIR",
        help="run journal directory (events.jsonl, manifest.json, "
        "checkpoints); works for serial and --jobs runs, makes both "
        "crash-safe and resumable; inspect with `repro report DIR`",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="profile the enumeration with cProfile; writes "
        "profile.pstats and a cumtime-sorted profile.txt to --run-dir "
        "(or the working directory)",
    )
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser(
        "profile",
        help="profile one enumeration with cProfile and print where "
        "the time goes",
    )
    p.add_argument("file", help="mini-C file or bench:NAME")
    p.add_argument("--function", required=True)
    p.add_argument("--max-nodes", type=int, default=20_000)
    p.add_argument("--time-limit", type=float, default=300.0)
    p.add_argument(
        "--cold",
        action="store_true",
        help="reset the flat-kernel caches first, so the run measures "
        "a fresh process instead of this one's warm state",
    )
    p.add_argument(
        "--sort",
        default="cumulative",
        metavar="KEY",
        help="pstats sort key for the printed table "
        "(default: cumulative; try tottime, ncalls)",
    )
    p.add_argument(
        "--top",
        type=int,
        default=25,
        metavar="N",
        help="rows of the stats table to print (default: 25)",
    )
    p.add_argument(
        "--run-dir",
        metavar="DIR",
        help="also write profile.pstats/profile.txt and a journal with "
        "a profile_run event here",
    )
    p.set_defaults(handler=cmd_profile)

    p = sub.add_parser(
        "lint", help="statically check IR (sanitizer + dataflow checks)"
    )
    p.add_argument(
        "target",
        help="mini-C file, bench:NAME, a printed-RTL .ir file, or a "
        "run dir with checkpointed instances",
    )
    p.add_argument("--function", help="only this function (source targets)")
    p.add_argument(
        "--mode",
        choices=["fast", "full"],
        default="full",
        help="fast: structural/machine/frame/call checks; full adds "
        "the dataflow definedness, frame-bounds and memory-access "
        "analyses",
    )
    p.add_argument(
        "--run-dir",
        metavar="DIR",
        help="write a journal with a lint_source event here "
        "(source targets)",
    )
    p.set_defaults(handler=cmd_lint)

    p = sub.add_parser(
        "fuzz",
        help="stream generated well-typed programs through the "
        "frontend, sanitizer, and guarded enumeration",
    )
    p.add_argument(
        "--count", type=int, default=25, metavar="N",
        help="programs to generate (default: 25)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="generator seed; (seed, index) fixes each program, so a "
        "failure reproduces without regenerating the stream",
    )
    p.add_argument(
        "--sanitize",
        choices=["fast", "full"],
        default="full",
        help="per-edge guard strength during enumeration (default: "
        "full — sanitizer battery, phase contracts, and translation "
        "validation)",
    )
    p.add_argument(
        "--difftest",
        action="store_true",
        help="also co-execute every instance against the source "
        "program in the VM",
    )
    p.add_argument(
        "--max-nodes", type=int, default=48, metavar="N",
        help="enumeration budget per function (default: 48)",
    )
    p.add_argument(
        "--time-limit", type=float, default=10.0, metavar="SECONDS",
        help="enumeration wall-clock budget per function (default: 10)",
    )
    p.add_argument(
        "--no-minimize",
        action="store_true",
        help="report failures without shrinking them (ddmin re-runs "
        "the whole pipeline per reduction step)",
    )
    p.add_argument(
        "--run-dir",
        metavar="DIR",
        help="journal directory: one fuzz_program event per failure "
        "plus a fuzz_run summary",
    )
    p.set_defaults(handler=cmd_fuzz)

    p = sub.add_parser("interactions", help="print Tables 4/5/6")
    p.add_argument("file", help="mini-C file or bench:NAME")
    p.add_argument("--functions", help="comma-separated subset")
    p.add_argument("--max-nodes", type=int, default=4000)
    p.add_argument("--time-limit", type=float, default=60.0)
    _add_parallel_arguments(p)
    p.add_argument(
        "--run-dir",
        metavar="DIR",
        help="run journal directory (events.jsonl, manifest.json); "
        "inspect with `repro report DIR`",
    )
    p.set_defaults(handler=cmd_interactions)

    p = sub.add_parser("report", help="summarize a run dir's telemetry")
    p.add_argument(
        "run_dir",
        metavar="RUN_DIR",
        help="the --run-dir of a previous enumerate/interactions run",
    )
    p.add_argument(
        "--json", action="store_true", help="machine-readable summary"
    )
    p.set_defaults(handler=cmd_report)

    p = sub.add_parser(
        "serve",
        help="run the enumeration service (JSON over HTTP); "
        "see docs/SERVICE.md",
    )
    p.add_argument(
        "--run-dir",
        required=True,
        metavar="DIR",
        help="service state root: journal, manifest, per-work-key "
        "checkpoints, the shared space store, and service.json (the "
        "bound port); a restarted server on the same DIR resumes "
        "drained work bit-identically",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 = ephemeral; the bound port is announced on "
        "stdout and in DIR/service.json)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="worker processes in the pool that runs requests",
    )
    p.add_argument(
        "--queue-depth",
        type=int,
        default=8,
        metavar="N",
        help="admitted requests allowed to wait for a worker; beyond "
        "this the server sheds with 429 + Retry-After",
    )
    p.add_argument(
        "--tenant-rate",
        type=float,
        default=10.0,
        metavar="R",
        help="sustained requests/second per tenant (token bucket)",
    )
    p.add_argument(
        "--tenant-burst", type=float, default=20.0, metavar="B",
        help="token-bucket burst capacity per tenant",
    )
    p.add_argument(
        "--tenant-concurrency",
        type=int,
        default=4,
        metavar="N",
        help="in-flight request quota per tenant",
    )
    p.add_argument(
        "--default-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="deadline applied to requests that name none",
    )
    p.add_argument(
        "--max-deadline", type=float, default=600.0, metavar="SECONDS",
        help="ceiling on any requested deadline",
    )
    p.add_argument(
        "--drain-grace",
        type=float,
        default=20.0,
        metavar="SECONDS",
        help="how long a SIGTERM'd server waits for in-flight work to "
        "checkpoint before exiting",
    )
    p.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        metavar="N",
        help="consecutive worker failures before a work key is "
        "circuit-broken",
    )
    p.add_argument(
        "--breaker-cooldown", type=float, default=30.0, metavar="SECONDS",
        help="how long an open circuit rejects before a half-open probe",
    )
    p.add_argument(
        "--store",
        metavar="DIR",
        help="space store shared across requests (default: RUN_DIR/store)",
    )
    p.add_argument(
        "--memory-watermark",
        type=float,
        default=None,
        metavar="MB",
        help="shed with 503 while resident memory exceeds this",
    )
    p.set_defaults(handler=cmd_serve)

    p = sub.add_parser("search", help="heuristic search for a phase ordering")
    p.add_argument("file", help="mini-C file or bench:NAME")
    p.add_argument("--function", required=True)
    p.add_argument(
        "--strategy",
        choices=sorted(STRATEGY_BUILDERS),
        default="ga",
        help="which searcher to run (default: ga)",
    )
    p.add_argument("--length", type=int, default=12)
    p.add_argument("--generations", type=int, default=15)
    p.add_argument("--seed", type=int, default=2006)
    p.add_argument(
        "--max-nodes",
        type=int,
        default=20_000,
        help="space budget when --strategy policy measures its "
        "interaction tables",
    )
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser(
        "search-bench",
        help="score search strategies against the exhaustive optimum",
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="CI subset: two seed functions, two trials",
    )
    p.add_argument(
        "--functions",
        metavar="BENCH.FUNC,...",
        help="comma-separated seed functions (default: the six-benchmark set)",
    )
    p.add_argument(
        "--strategies",
        metavar="NAME,...",
        help="comma-separated strategies "
        f"(default: all of {', '.join(STRATEGY_BUILDERS)})",
    )
    p.add_argument(
        "--trials",
        type=int,
        default=None,
        help="independent seeded trials per strategy "
        "(default: 3, or 2 with --quick)",
    )
    p.add_argument("--seed", type=int, default=2006)
    p.add_argument(
        "--objective",
        choices=("code_size", "dynamic_count", "cycles", "energy"),
        default="dynamic_count",
        help="the single objective strategies are scored on",
    )
    p.add_argument(
        "--max-nodes",
        type=int,
        default=20_000,
        help="refuse seed functions whose space exceeds this",
    )
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument(
        "--store",
        metavar="DIR",
        help="space store: enumerations are cached here and warm runs "
        "rebuild instances from the cached DAG",
    )
    p.add_argument(
        "--out",
        default=os.path.join("benchmarks", "results", "search.json"),
        help="leaderboard JSON path (default: benchmarks/results/search.json)",
    )
    p.add_argument(
        "--run-dir",
        help="write a run manifest and search_* event journal here",
    )
    p.set_defaults(handler=cmd_search_bench)

    p = sub.add_parser("list-benchmarks", help="show bundled benchmarks")
    p.set_defaults(handler=cmd_list_benchmarks)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
