"""``eclc`` — command-line front end of the ECL compiler reproduction.

Subcommands::

    eclc info design.ecl                  # modules, split report, sizes
    eclc compile design.ecl -m top --emit c -o outdir
    eclc build design.ecl -o outdir       # all modules, cached
    eclc simulate design.ecl -m top --trace stimuli.txt [--vcd out.vcd]
    eclc farm run design.ecl [more.ecl] --engines native,interp --traces 25
    eclc farm run --spec batch.json       # versioned simulation campaign
    eclc serve --port 8732 --data-root .eclc-serve   # persistent service
    eclc submit batch.json --watch        # inline designs, submit, stream
    eclc verify run design.ecl -m top --never "door_open&motor_on"
    eclc verify run --spec campaign.json  # versioned verification campaign
    eclc cover design.ecl -m top --rounds 4 --report coverage.json
    eclc dot design.ecl -m top            # Graphviz to stdout

``--emit`` choices are derived from the pipeline's backend registry
(:mod:`repro.pipeline.registry`), so a newly registered emitter shows up
here without CLI changes.  ``build`` uses the staged pipeline directly:
modules compile one after another, and artifacts keyed by the
preprocessed text are served from the artifact cache (``--cache-dir``,
default off), so an edit the parser cannot see recompiles nothing.  ``farm run`` dispatches
a batch of simulation jobs over worker processes
(:mod:`repro.farm`) and prints the resulting FarmReport.

Trace files for ``simulate`` have one instant per line: blank line = no
inputs; otherwise space-separated ``name`` (pure event) or ``name=value``
entries.  Lines starting with ``#`` are comments.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .engines import adapter_names, engine_names, names_with
from .errors import EclError
from .farm.spec import load_batch, module_names, read_document
from .pipeline import ArtifactCache, CompileOptions, Pipeline
from .pipeline.registry import DEFAULT_REGISTRY


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except EclError as error:
        print("eclc: error: %s" % error, file=sys.stderr)
        # a spec field a flag set is a usage error, as argparse's own
        usage = getattr(error, "field", None) in getattr(args, "flagged", ())
        return 2 if usage else 1
    except OSError as error:
        print("eclc: error: %s" % error, file=sys.stderr)
        return 1


def _build_parser():
    emit_names = DEFAULT_REGISTRY.names()

    parser = argparse.ArgumentParser(
        prog="eclc",
        description="ECL compiler (DAC 1999 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="list modules and split summary")
    info.add_argument("file")
    info.set_defaults(handler=_cmd_info)

    compile_ = sub.add_parser("compile", help="compile a module")
    compile_.add_argument("file")
    compile_.add_argument("-m", "--module", required=True)
    compile_.add_argument(
        "--emit", default="c", choices=emit_names + ["all"])
    compile_.add_argument("-o", "--outdir", default=".")
    compile_.add_argument("--no-optimize", action="store_true")
    compile_.set_defaults(handler=_cmd_compile)

    build = sub.add_parser(
        "build", help="batch-compile every module (cached)")
    build.add_argument("file")
    build.add_argument(
        "--emit", default="c",
        help="comma-separated backends (default: c; available: %s)"
             % ", ".join(emit_names))
    build.add_argument("-o", "--outdir", default=".")
    build.add_argument("-m", "--module", action="append", default=None,
                       help="restrict to this module (repeatable)")
    build.add_argument("--cache-dir", default=None,
                       help="persistent artifact cache directory")
    build.add_argument("--no-optimize", action="store_true")
    build.set_defaults(handler=_cmd_build)

    simulate = sub.add_parser("simulate", help="run a module on a trace")
    simulate.add_argument("file")
    simulate.add_argument("-m", "--module", required=True)
    simulate.add_argument("--trace", required=True)
    simulate.add_argument("--engine", default="efsm",
                          choices=names_with("step"))
    simulate.add_argument("--vcd", default=None, metavar="PATH",
                          help="dump the reaction trace as a VCD file")
    simulate.set_defaults(handler=_cmd_simulate)

    farm = sub.add_parser(
        "farm", help="batched multi-process simulation")
    farm_sub = farm.add_subparsers(dest="farm_command", required=True)
    run = farm_sub.add_parser(
        "run", help="execute a batch of simulation jobs")
    run.add_argument("files", nargs="*",
                     help="ECL design files (labelled by basename)")
    run.add_argument("--spec", default=None,
                     help="JSON batch spec (overrides matrix flags)")
    run.add_argument("-m", "--module", action="append", default=None,
                     help="restrict to this module (repeatable; "
                          "default: every module of every design)")
    run.add_argument("--engines", default=None,
                     help="comma-separated engines (%s; wide "
                          "record-free vector rounds sweep in numpy, "
                          "needs numpy)"
                          % ", ".join(engine_names()))
    run.add_argument("--task-engine", default=None,
                     choices=names_with("step"),
                     help="what runs inside each rtos task "
                          "(default: efsm; 'native' binds each "
                          "task's closure-compiled reactor)")
    run.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="persistent shared artifact cache (compiled "
                          "designs and native code survive the batch; "
                          "spawn-based workers warm-start)")
    run.add_argument("--traces", type=int, default=None,
                     help="random traces per design x module x engine")
    run.add_argument("--length", type=int, default=None,
                     help="instants per random trace")
    run.add_argument("--horizon", type=int, default=None,
                     help="max instants per job (0 = trace length)")
    run.add_argument("--seed", type=int, default=None,
                     help="batch seed folded into every job's "
                          "derived seed (via the job index offset)")
    run.add_argument("-j", "--workers", type=int, default=None)
    run.add_argument("--ledger", default=None, metavar="DIR",
                     help="trace ledger root (default: no persistence;"
                          " 'auto' = next to the artifact cache)")
    run.add_argument("--vcd", action="store_true",
                     help="also persist VCD waveforms to the ledger")
    run.add_argument("--report", default=None, metavar="PATH",
                     help="write the FarmReport as JSON")
    run.add_argument("-v", "--verbose", action="store_true",
                     help="print every job row, not only failures")
    run.add_argument("--profile", action="store_true",
                     help="enable telemetry spans and print a per-phase "
                          "time breakdown after the batch (forces "
                          "workers=1: spans do not cross processes)")
    run.set_defaults(handler=_cmd_farm_run)

    serve = sub.add_parser(
        "serve", help="run the persistent simulation service")
    serve.add_argument("--host", default=None,
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None,
                       help="bind port (default 8732; 0 = pick free)")
    serve.add_argument("--data-root", default=None, metavar="DIR",
                       help="persistence root: per-tenant artifact "
                            "namespaces, trace-ledger shards and the "
                            "batch journal live here; a journal found "
                            "there replays on startup (default: "
                            "in-memory)")
    serve.add_argument("-j", "--workers", type=int, default=None,
                       help="resident workers (default 2); more than "
                            "one runs each in a spawned child process, "
                            "one runs in-process")
    serve.add_argument("--queue-depth", type=int, default=None,
                       help="bounded job-queue depth; a batch that "
                            "does not fit is rejected queue_full "
                            "(default 1024)")
    serve.add_argument("--tenant-weight", action="append", default=None,
                       metavar="NAME=W",
                       help="fair-share weight of one tenant in the "
                            "deficit-round-robin dequeue (repeatable; "
                            "default weight 1)")
    serve.add_argument("--max-queued-per-tenant", type=int, default=None,
                       metavar="N",
                       help="per-tenant queued-jobs quota; a batch "
                            "exceeding it is rejected tenant_quota")
    serve.add_argument("--max-in-flight-per-tenant", type=int,
                       default=None, metavar="N",
                       help="per-tenant executing-jobs cap; excess "
                            "entries wait without blocking other "
                            "tenants")
    serve.add_argument("--max-attempts", type=int, default=None,
                       help="total tries a job gets across "
                            "worker-death retries (default 3)")
    serve.add_argument("-v", "--verbose", action="store_true",
                       help="log every HTTP request")
    serve.add_argument("--no-telemetry", dest="telemetry",
                       action="store_false", default=True,
                       help="disable the metrics registry (GET "
                            "/v1/metrics then serves an empty page)")
    serve.set_defaults(handler=_cmd_serve)

    stats = sub.add_parser(
        "stats", help="metrics of a running service (or offline "
                      "reports/ledgers)")
    stats.add_argument("--host", default=None,
                       help="service address (default 127.0.0.1)")
    stats.add_argument("--port", type=int, default=None,
                       help="service port (default 8732)")
    stats.add_argument("--json", action="store_true",
                       help="print the raw metrics snapshot as JSON")
    stats.add_argument("--watch", action="store_true",
                       help="refresh until interrupted")
    stats.add_argument("--interval", type=float, default=2.0,
                       metavar="SECONDS",
                       help="refresh period with --watch (default 2)")
    stats.add_argument("--count", type=int, default=0,
                       help="with --watch: stop after N refreshes "
                            "(0 = until interrupted)")
    stats.add_argument("--report", default=None, metavar="PATH",
                       help="offline: summarize a FarmReport JSON "
                            "instead of scraping a service")
    stats.add_argument("--ledger", default=None, metavar="DIR",
                       help="offline: summarize a trace-ledger root "
                            "('auto' = next to the artifact cache)")
    stats.add_argument("--tenant", default=None,
                       help="with --ledger: one tenant's index shard")
    stats.set_defaults(handler=_cmd_stats)

    submit = sub.add_parser(
        "submit", help="submit a farm spec to a running service")
    submit.add_argument("spec", help="JSON batch spec file (designs are "
                                     "inlined before sending)")
    submit.add_argument("--host", default=None,
                        help="service address (default 127.0.0.1)")
    submit.add_argument("--port", type=int, default=None,
                        help="service port (default 8732)")
    submit.add_argument("--tenant", default=None,
                        help="tenant namespace (default: 'default')")
    submit.add_argument("--priority", type=int, default=None,
                        help="batch priority (higher runs earlier)")
    submit.add_argument("--retries", type=int, default=0,
                        help="retry a 429/503 rejection (or a connection "
                             "failure) up to N times with exponential "
                             "backoff (default 0: fail fast)")
    submit.add_argument("--retry-backoff", type=float, default=None,
                        metavar="SECONDS",
                        help="first retry delay; doubles per attempt, "
                             "capped at 2s (default 0.2)")
    submit.add_argument("--watch", action="store_true",
                        help="stream results until the batch completes")
    submit.add_argument("--stable", action="store_true",
                        help="with --watch: stream the reproducible "
                             "serialization (drops elapsed/pid/paths)")
    submit.add_argument("--report", default=None, metavar="PATH",
                        help="with --watch: write streamed rows as a "
                             "JSON list")
    submit.set_defaults(handler=_cmd_submit)

    verify = sub.add_parser(
        "verify", help="compiled temporal monitors + fuzz campaigns")
    verify_sub = verify.add_subparsers(dest="verify_command",
                                       required=True)
    vrun = verify_sub.add_parser(
        "run", help="run a coverage-guided verification campaign")
    vrun.add_argument("file", nargs="?",
                      help="ECL design file (or use --spec)")
    vrun.add_argument("--spec", default=None,
                      help="JSON campaign spec (see repro.verify.spec)")
    vrun.add_argument("-m", "--module", default=None)
    vrun.add_argument("--never", action="append", default=[],
                      metavar="PRED",
                      help="property: PRED holds at no instant "
                           "(PRED: signal terms joined by '&'; '!' "
                           "negates, 'level>=3' compares values)")
    vrun.add_argument("--always", action="append", default=[],
                      metavar="PRED",
                      help="property: PRED holds at every instant")
    vrun.add_argument("--implies", action="append", default=[],
                      metavar="WHEN:THEN",
                      help="property: WHEN implies THEN (same instant)")
    vrun.add_argument("--within", action="append", default=[],
                      metavar="TRIGGER:EXPECT:N",
                      help="property: EXPECT within N instants of "
                           "TRIGGER")
    vrun.add_argument("--eventually", action="append", default=[],
                      metavar="PRED:N",
                      help="property: PRED holds by instant N")
    _campaign_flags(vrun)
    vrun.set_defaults(handler=_cmd_verify_run)

    cover = sub.add_parser(
        "cover", help="coverage campaign (state/transition/emit "
                      "bitmaps, no properties)")
    cover.add_argument("file")
    cover.add_argument("-m", "--module", required=True)
    cover.add_argument("--fail-under", type=float, default=None,
                       metavar="PCT",
                       help="exit 1 when transition coverage ends "
                            "below PCT")
    # Only engines whose reactors mark state/transition bitmaps can
    # fill what this command exists to report.
    _campaign_flags(cover, engines=names_with("coverage"))
    cover.set_defaults(handler=_cmd_cover)

    dot = sub.add_parser("dot", help="print the EFSM as Graphviz")
    dot.add_argument("file")
    dot.add_argument("-m", "--module", required=True)
    dot.set_defaults(handler=_cmd_dot)

    return parser


def _campaign_flags(parser, engines=None):
    # Defaults are None: a flag overlays the campaign document only when
    # given, and the defaults live in the spec schema (README, "Spec
    # reference").
    parser.add_argument("--engine", default=None,
                        choices=engines or adapter_names(),
                        help="simulation engine (rtos checks properties "
                             "under the kernel but collects record-level "
                             "emit coverage only; vector sweeps a round "
                             "of 128+ property-free jobs in numpy, needs "
                             "numpy)")
    parser.add_argument("--task-engine", default=None,
                        choices=names_with("step"),
                        help="rtos engine only: what runs inside each "
                             "task (default: efsm)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="campaign rounds")
    parser.add_argument("--jobs", type=int, default=None,
                        help="jobs per round")
    parser.add_argument("--length", type=int, default=None,
                        help="instants per generated trace")
    parser.add_argument("--target", type=float, default=None,
                        help="transition coverage %% that ends the "
                             "campaign early")
    parser.add_argument("--seed", type=int, default=None,
                        help="campaign salt (deterministic fuzzing)")
    parser.add_argument("-j", "--workers", type=int, default=None)
    parser.add_argument("--ledger", default=None, metavar="DIR",
                        help="trace ledger root (counterexamples and "
                             "job traces; 'auto' = next to the "
                             "artifact cache)")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write the campaign report as JSON")
    parser.add_argument("--profile", action="store_true",
                        help="enable telemetry spans and print a "
                             "per-phase time breakdown (forces "
                             "workers=1: spans do not cross processes)")


def _profile_enable():
    """Arm telemetry for a ``--profile`` run: fresh registry, span
    trace installed."""
    from . import telemetry

    telemetry.reset()
    telemetry.enable(trace=True)


def _profile_print(wall):
    """Print the per-phase breakdown, then put telemetry back to its
    default (off) state — ``--profile`` is a one-shot measurement, not
    a mode switch."""
    from . import telemetry

    trace = telemetry.trace_log()
    print(telemetry.format_profile(
        trace.entries() if trace is not None else [], wall))
    telemetry.disable()


def _load(args):
    options = CompileOptions()
    if getattr(args, "no_optimize", False):
        options.optimize = False
    return Pipeline(options).compile_file(args.file)


def _checked(design, name):
    """The handle of module ``name`` once its checker and phase 1 ran:
    a handle is lazy, so nothing raises their errors before this (and
    ``compile --emit all`` would report them as backend skips)."""
    handle = design.module(name)
    handle.check()
    handle.kernel()
    return handle


def _cmd_info(args):
    design = _load(args)
    for name in design.module_names:
        module = _checked(design, name)
        efsm = module.efsm()
        report = module.split_report()
        print("module %s: %d states, %d reaction leaves, %s"
              % (name, efsm.state_count, efsm.transition_count(),
                 report.summary()))
        for warning in module.warnings():
            print("  %s" % warning)
    return 0


def _cmd_compile(args):
    module = _checked(_load(args), args.module)
    os.makedirs(args.outdir, exist_ok=True)
    wanted = DEFAULT_REGISTRY.names() if args.emit == "all" \
        else [args.emit]
    written = []
    for kind in wanted:
        try:
            files = module.emit(kind)
        except EclError as error:
            if args.emit == "all":
                print("eclc: skipping %s: %s" % (kind, error),
                      file=sys.stderr)
            else:
                raise
        else:
            for filename in sorted(files):
                written.append(_write(args.outdir, filename,
                                      files[filename]))
    for path in written:
        print("wrote %s" % path)
    return 0


def _cmd_build(args):
    emit = [kind.strip() for kind in args.emit.split(",") if kind.strip()]
    options = CompileOptions()
    if args.no_optimize:
        options.optimize = False
    cache = ArtifactCache.persistent(args.cache_dir) \
        if args.cache_dir else ArtifactCache.memory()
    pipeline = Pipeline(options=options, cache=cache)
    with open(args.file) as handle:
        text = handle.read()
    report = pipeline.compile_design(
        text, filename=args.file, modules=args.module, emit=emit)
    for path in report.write_files(args.outdir):
        print("wrote %s" % path)
    print(report.summary())
    return 0 if report.ok else 1


def _write(outdir, filename, text):
    path = os.path.join(outdir, filename)
    with open(path, "w") as handle:
        handle.write(text)
    return path


def _cmd_simulate(args):
    module = _checked(_load(args), args.module)
    reactor = module.reactor(engine=args.engine)
    recorder = None
    if args.vcd:
        from .runtime.vcd import VcdRecorder
        recorder = VcdRecorder.for_reactor(reactor)
    with open(args.trace) as handle:
        lines = handle.readlines()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if line.startswith("#"):
            continue
        pure, valued = _parse_instant(line, lineno)
        # A bad stimulus line (undeclared signal, value on a pure
        # signal) surfaces as SignalTable.require_input's diagnostic;
        # locate it in the trace for the user.
        try:
            output = reactor.react(inputs=pure, values=valued)
        except EclError as error:
            raise EclError("trace line %d: %s" % (lineno, error.message))
        if recorder is not None:
            recorder.sample(inputs=pure, values=valued, output=output)
        emitted = []
        for signal in sorted(output.emitted):
            if signal in output.values:
                emitted.append("%s=%r" % (signal, output.values[signal]))
            else:
                emitted.append(signal)
        print("instant %d: %s" % (lineno, " ".join(emitted) or "-"))
        if output.terminated:
            print("module terminated")
            break
    if recorder is not None:
        with open(args.vcd, "w") as handle:
            handle.write(recorder.render())
        print("wrote %s" % args.vcd)
    return 0


def _parse_instant(line, lineno):
    pure = []
    valued = {}
    for item in line.split():
        if "=" in item:
            name, _eq, text = item.partition("=")
            try:
                valued[name] = int(text, 0)
            except ValueError:
                raise EclError(
                    "trace line %d: bad value %r" % (lineno, text))
        else:
            pure.append(item)
    return pure, valued


def _cmd_farm_run(args):
    from .farm import SimulationFarm

    if not args.spec and not args.files:
        print("eclc: error: farm run needs design files or --spec",
              file=sys.stderr)
        return 2
    document, base, origin = _document(args.spec, args.files)
    flags = _given(workers=args.workers, cache_dir=_abspath(args.cache_dir),
                   ledger=_abspath(_resolve_ledger(args.ledger)))
    args.flagged = set(flags)
    if not args.spec:
        document["jobs"] = _flag_entries(args, document["designs"])
        args.flagged.update(*document["jobs"])
    designs, jobs, settings = load_batch(dict(document, **flags), base,
                                         origin)
    if args.profile:
        _profile_enable()
        if settings["workers"] is None or settings["workers"] > 1:
            print("eclc: --profile runs inline (workers=1): spans do "
                  "not cross process boundaries", file=sys.stderr)
        settings["workers"] = 1
    farm = SimulationFarm(designs, ledger_root=settings["ledger"],
                          workers=settings["workers"],
                          cache_dir=settings["cache_dir"])
    from time import perf_counter
    started = perf_counter()
    report = farm.run(jobs)
    wall = perf_counter() - started
    print(report.summary(verbose=args.verbose))
    if args.profile:
        _profile_print(wall)
    if args.report:
        import json
        with open(args.report, "w") as handle:
            json.dump(report.as_dict(), handle, indent=2,
                      sort_keys=True)
        print("wrote %s" % args.report)
    return 0 if report.ok else 1


def _document(spec, files):
    """``(document, base, origin)`` of a spec file, or of a document
    holding the design files inline."""
    if spec:
        base = os.path.dirname(os.path.abspath(spec))
        return read_document(spec), base, spec
    designs = {}
    for path in files:
        with open(path) as handle:
            designs[os.path.basename(path)] = {"text": handle.read()}
    return {"designs": designs}, os.getcwd(), "<flags>"


def _flag_entries(args, designs):
    """``farm run`` flags as v2 job entries, one per design file.  ``-m``
    keeps the modules each design has; a name no design has stays in
    every entry, where the spec schema refuses it."""
    engines = args.engines and [name.strip() for name in
                                args.engines.split(",") if name.strip()]
    names = {label: module_names(design["text"], label)
             for label, design in designs.items()}
    known = set().union(*names.values())
    entries = []
    for label in designs:
        modules = args.module and [
            module for module in args.module
            if module in names[label] or module not in known]
        entries.append(_given(
            design=label, modules=modules, engines=engines,
            traces=args.traces, length=args.length, horizon=args.horizon,
            seed=args.seed, vcd=args.vcd, task_engine=args.task_engine))
    return entries


def _given(**values):
    """The flag values that were given (argparse leaves the rest None)."""
    return {key: value for key, value in values.items() if value is not None}


def _abspath(path):
    return path if path is None else os.path.abspath(path)


def _parse_tenant_weights(pairs):
    """``["acme=3", "batch=0.5"]`` -> ``{"acme": 3.0, "batch": 0.5}``."""
    if not pairs:
        return None
    from .errors import EclError

    weights = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        try:
            if not sep or not name:
                raise ValueError
            weight = float(value)
            if weight <= 0:
                raise ValueError
        except ValueError:
            raise EclError(
                "--tenant-weight wants NAME=WEIGHT with a positive "
                "weight, got %r" % (pair,)
            )
        weights[name] = weight
    return weights


def _cmd_serve(args):
    from .serve import (DEFAULT_HOST, DEFAULT_PORT, DEFAULT_QUEUE_DEPTH,
                        DEFAULT_WORKERS, SimulationService, make_server,
                        serve_forever)
    from .serve.pool import DEFAULT_MAX_ATTEMPTS

    if args.telemetry:
        from . import telemetry
        telemetry.enable()
    host = args.host or DEFAULT_HOST
    port = args.port if args.port is not None else DEFAULT_PORT
    workers = (args.workers if args.workers is not None
               else DEFAULT_WORKERS)
    service = SimulationService(
        data_root=args.data_root,
        workers=workers,
        queue_depth=args.queue_depth if args.queue_depth is not None
        else DEFAULT_QUEUE_DEPTH,
        max_attempts=args.max_attempts if args.max_attempts is not None
        else DEFAULT_MAX_ATTEMPTS,
        # Process workers whenever parallelism is actually requested:
        # CPU-bound tenants then scale with cores instead of
        # serializing on the GIL.
        pool_mode="process" if workers > 1 else "thread",
        tenant_weights=_parse_tenant_weights(args.tenant_weight),
        max_queued_per_tenant=args.max_queued_per_tenant,
        max_in_flight_per_tenant=args.max_in_flight_per_tenant,
    )
    summary = service.recovery
    if summary is not None and (summary["recovered_batches"]
                                or summary["torn_lines"]
                                or summary["failed_batches"]):
        print("eclc serve: recovered %d batch(es) from the journal "
              "(%d row(s) replayed, %d job(s) resumed, %d torn line(s)"
              ", %d failed)"
              % (summary["recovered_batches"], summary["replayed_rows"],
                 summary["resumed_jobs"], summary["torn_lines"],
                 summary["failed_batches"]),
              flush=True)
    # Bind before announcing: with --port 0 the OS picks the port.
    server = make_server(service, host=host, port=port,
                         verbose=args.verbose)
    print("eclc serve: listening on %s:%d (%d %s workers, depth %d%s)"
          % (host, server.server_address[1], service.pool.workers,
             service.pool.mode, service.queue.depth,
             ", data %s" % args.data_root if args.data_root
             else ", in-memory"),
          flush=True)
    serve_forever(service, server=server)
    print("eclc serve: stopped")
    return 0


def _cmd_stats(args):
    from . import telemetry

    if args.report:
        import json
        with open(args.report) as handle:
            print(telemetry.summarize_report(json.load(handle)))
        return 0
    if args.ledger:
        from .farm.ledger import TraceLedger
        ledger = TraceLedger(_resolve_ledger(args.ledger),
                             tenant=args.tenant)
        print(telemetry.summarize_ledger(ledger.entries()))
        return 0

    import json
    import time as time_mod
    from .serve import DEFAULT_HOST, DEFAULT_PORT, ServeClient

    client = ServeClient(host=args.host or DEFAULT_HOST,
                         port=args.port if args.port is not None
                         else DEFAULT_PORT)
    refreshes = 0
    while True:
        snapshot = client.metrics_json()
        if args.json:
            print(json.dumps(snapshot, indent=2, sort_keys=True))
        else:
            print(telemetry.format_snapshot(snapshot))
        refreshes += 1
        if not args.watch or (args.count and refreshes >= args.count):
            return 0
        try:
            time_mod.sleep(args.interval)
        except KeyboardInterrupt:
            return 0
        print("-- refresh %d --" % (refreshes + 1))


def _cmd_submit(args):
    from .farm.spec import inline_spec
    from .serve import DEFAULT_HOST, DEFAULT_PORT, ServeClient

    document = inline_spec(args.spec)
    client = ServeClient(host=args.host or DEFAULT_HOST,
                         port=args.port if args.port is not None
                         else DEFAULT_PORT)
    admitted = client.submit(document, tenant=args.tenant,
                             priority=args.priority,
                             retries=args.retries,
                             retry_backoff=args.retry_backoff)
    print("batch %s: %d job(s) admitted (tenant %s, priority %d)"
          % (admitted["batch"], admitted["jobs"], admitted["tenant"],
             admitted["priority"]))
    if not args.watch:
        return 0
    rows = []
    failures = 0
    for row in client.stream_results(admitted["batch"],
                                     stable=args.stable):
        rows.append(row)
        ok = row.get("status") in ("ok", "terminated")
        if not ok:
            failures += 1
        print("  [%s] %s/%s %s: %s"
              % (row.get("status"), row.get("design"), row.get("module"),
                 row.get("engine"),
                 row.get("error") or "%s instants" % row.get("instants")))
    print("batch %s: %d/%d ok" % (admitted["batch"],
                                  len(rows) - failures, len(rows)))
    if args.report:
        import json
        with open(args.report, "w") as handle:
            json.dump(rows, handle, indent=2, sort_keys=True)
        print("wrote %s" % args.report)
    return 0 if failures == 0 else 1


_SIGNAL_NAME = re.compile(r"[A-Za-z_]\w*")


def _signal_name(text, term):
    name = text.strip()
    if not _SIGNAL_NAME.fullmatch(name):
        raise EclError(
            "bad signal name %r in predicate term %r (terms are a "
            "signal name, '!name', or a comparison like level>=3; "
            "join terms with '&')" % (name, term))
    return name


def _flag_pred(text):
    """Parse a flag predicate: '&'-joined terms, each a signal name, a
    '!'-negated name or a value comparison like ``level>=3``."""
    from .verify import props

    preds = []
    for term in text.split("&"):
        term = term.strip()
        if not term:
            raise EclError("empty predicate term in %r" % text)
        for op in ("<=", ">=", "==", "!=", "<", ">"):
            if op in term:
                name, _op, constant = term.partition(op)
                try:
                    value = int(constant, 0)
                except ValueError:
                    raise EclError("bad value constant in %r" % term)
                preds.append(props.Value(_signal_name(name, term), op,
                                         value))
                break
        else:
            if term.startswith("!"):
                preds.append(props.absent(_signal_name(term[1:], term)))
            else:
                preds.append(props.present(_signal_name(term, term)))
    return props.fold_pred(props.And, preds)


def _split_flag(text, parts, flag):
    pieces = text.rsplit(":", parts - 1)
    if len(pieces) != parts:
        raise EclError("%s wants %d ':'-separated parts, got %r"
                       % (flag, parts, text))
    return pieces


def _flag_properties(args):
    from .verify import props

    properties = []
    for text in args.never:
        properties.append(props.Never(_flag_pred(text)))
    for text in args.always:
        properties.append(props.Always(_flag_pred(text)))
    for text in args.implies:
        when, then = _split_flag(text, 2, "--implies")
        properties.append(props.Implies(_flag_pred(when),
                                        _flag_pred(then)))
    for text in args.within:
        trigger, expect, limit = _split_flag(text, 3, "--within")
        properties.append(props.Within(_flag_pred(trigger),
                                       _flag_pred(expect), int(limit)))
    for text in args.eventually:
        pred, limit = _split_flag(text, 2, "--eventually")
        properties.append(props.Eventually(_flag_pred(pred), int(limit)))
    return tuple(properties)


def _resolve_ledger(text):
    if text == "auto":
        from .farm import default_ledger_root
        return default_ledger_root()
    return text


def _campaign(args, **given):
    """The campaign of ``--spec`` (or of the design file and ``-m``) with
    the campaign flags that were given overlaid; ``given`` are constructor
    arguments (flag-built properties)."""
    from .verify.spec import campaign_from_document

    spec = getattr(args, "spec", None)
    if not spec and not args.file:
        raise EclError("verify/cover needs a design file and -m MODULE "
                       "(or --spec)")
    document, base, origin = _document(spec, [args.file])
    flags = _given(module=args.module, engine=args.engine,
                   task_engine=args.task_engine, rounds=args.rounds,
                   jobs_per_round=args.jobs, length=args.length,
                   target=args.target, seed=args.seed, workers=args.workers,
                   ledger=_abspath(_resolve_ledger(args.ledger)))
    args.flagged = set(flags)
    return campaign_from_document(dict(document, **flags), base, origin,
                                  **given)


def _run_campaign(args, campaign):
    """Run one campaign, honoring ``--profile`` (inline workers, span
    trace, per-phase breakdown after the summary)."""
    from time import perf_counter

    if args.profile:
        _profile_enable()
        campaign.workers = 1
    started = perf_counter()
    result = campaign.run()
    wall = perf_counter() - started
    print(result.summary())
    if args.profile:
        _profile_print(wall)
    return result


def _write_campaign_report(args, result):
    if args.report:
        import json
        with open(args.report, "w") as handle:
            json.dump(result.as_dict(), handle, indent=2, sort_keys=True)
        print("wrote %s" % args.report)


def _cmd_verify_run(args):
    if args.spec:
        if args.file:
            print("eclc: error: --spec and a positional design file "
                  "are mutually exclusive (the spec names its designs)",
                  file=sys.stderr)
            return 2
        if _flag_properties(args):
            print("eclc: error: property flags cannot be combined with "
                  "--spec (declare properties in the spec)",
                  file=sys.stderr)
            return 2
        campaign = _campaign(args)
    else:
        properties = _flag_properties(args)
        if not properties:
            print("eclc: error: verify run needs at least one property "
                  "(--never/--always/--implies/--within/--eventually "
                  "or --spec); for bare coverage use 'eclc cover'",
                  file=sys.stderr)
            return 2
        campaign = _campaign(args, properties=properties)
    result = _run_campaign(args, campaign)
    _write_campaign_report(args, result)
    return 0 if result.ok else 1


def _cmd_cover(args):
    campaign = _campaign(args)
    result = _run_campaign(args, campaign)
    _write_campaign_report(args, result)
    if result.errors:
        return 1
    if args.fail_under is not None and \
            result.coverage.transition_percent < args.fail_under:
        print("eclc: error: transition coverage %.1f%% is below "
              "--fail-under %.1f%%"
              % (result.coverage.transition_percent, args.fail_under),
              file=sys.stderr)
        return 1
    return 0


def _cmd_dot(args):
    files = _checked(_load(args), args.module).emit("dot")
    print(files[args.module + ".dot"], end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
