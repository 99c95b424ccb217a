"""Command-line interface: ``repro`` (or ``python -m repro.cli``).

Subcommands:

* ``workloads``            -- every workload ``run`` accepts: the synthetic
                              suite with its suite/kind (``--order paper``
                              for the figure x-axis order), then the
                              scenario catalog as ``scenario:<name>``
                              (``--verbose`` adds each one's note)
* ``run WORKLOAD...``      -- simulate one or more workloads on one LSQ
                              design: a synthetic name, a
                              ``scenario:<name>`` (or inline
                              ``scenario:{json}``) spec, or a recorded
                              trace as ``trace:<path>`` (the whole trace
                              unless ``--instructions`` bounds it);
                              ``--sample-ratio R`` samples any of them
                              (``--check-full`` adds the sampled-vs-full
                              IPC error of a trace); ``--jobs N`` fans the
                              batch out over a process pool;
                              ``--profile`` prints a per-stage time and
                              occupancy report, ``--cycle-trace PATH``
                              dumps a cycle-level NDJSON event trace
* ``figure ID``            -- regenerate one paper artefact: an entry of
                              ``repro.experiments.artefacts.ARTEFACTS``
                              (``figure -h`` lists the IDs), with its bar
                              chart if the entry names one
* ``all``                  -- regenerate every artefact, in table order
* ``trace``                -- ``record`` a synthetic workload to a
                              ``.uoptrace`` file, ``info`` a file,
                              ``ingest`` a Spike commit log
* ``scenarios``            -- the declarative scenario catalog: ``show``
                              one composition, ``sweep`` the scenario x
                              geometry stress matrix
* ``verify``               -- differential conformance campaign: fuzzed
                              programs through every LSQ model across a
                              geometry grid, checked against the golden
                              in-order oracle (the pre-merge gate is
                              ``repro verify --programs 500 --jobs 8``)
* ``serve``                -- stand up the simulation service: a
                              long-running ``SimService`` (sharded
                              workers, in-flight dedup, admission
                              control) behind the HTTP/JSON API
* ``submit``               -- submit a workload batch to a running
                              service over HTTP and print the results
                              (``--stream`` follows progress events,
                              heartbeat frames included)
* ``top``                  -- live terminal dashboard for a running
                              service (``--once`` for a single frame)
* ``cache``                -- inspect (``info``) or empty (``clear``)
                              the content-addressed result store

The simulating verbs (``run``, ``figure``, ``all``, ``scenarios sweep``)
accept ``--jobs N`` (0 = one worker per core); uncached simulations fan
out over a ``ProcessPoolExecutor`` with results bit-identical to the
serial path.  Each command runs on one ``SimService`` whose result store
persists completed simulations as JSON (``~/.cache/samie-repro``,
relocated by ``--cache-dir DIR``), so a second invocation at the same
scale is served from the store; ``--no-cache`` disables it.  Flags are
the only inputs: a simulation's scale is ``--instructions``/``--warmup``
(``run``/``submit`` default to 20000/5000, ``figure``/``all``/``scenarios
sweep`` to 6000/3000), and a retired ``REPRO_*`` scale or cache variable
in the environment makes every command exit 2 naming the flag that
replaced it.

The simulating verbs and ``submit`` also accept ``--mem KEY=V[,KEY=V...]``
-- declarative memory-hierarchy overrides (MemConfig fields plus
``l1d_sets``/``l1d_ways`` sugar), e.g. ``--mem mshr_entries=4,l1d_sets=128``.
Overrides are part of the result-cache identity, so geometry sweeps never
collide.  ``--mem mshr_entries=1,mshr_targets=1`` selects the instant-fill
model (pre-MSHR timing): each miss is charged its own full latency, any
number of misses may be outstanding, and the line is installed at access
time.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys


#: environment variables that once set a run's scale or store -> the flag
#: that replaced each; ``main`` refuses to run while one is set, so an old
#: script fails loudly instead of silently running at the default scale
RETIRED_ENV = {
    "REPRO_CACHE": "--no-cache (serve: --memory-store)",
    "REPRO_CACHE_DIR": "--cache-dir",
    "REPRO_INSTR": "--instructions",
    "REPRO_WARMUP": "--warmup",
}

#: ``run``/``submit`` scale when ``--instructions``/``--warmup`` are unset
#: (a ``trace:`` workload then runs whole; a sampled run warms per window)
RUN_INSTRUCTIONS = 20000
RUN_WARMUP = 5000

#: ``run --lsq`` choice -> canonical machine (machine_key, lsq_spec)
def _run_machine(name: str):
    from repro.experiments import runner

    return {
        "conventional": runner.MACHINE_CONV128,
        "unbounded": runner.MACHINE_UNBOUNDED,
        "samie": runner.MACHINE_SAMIE,
        "arb": ("arb-default", runner.lsq_spec("arb")),
    }[name]


def _print_result(workload: str, res) -> None:
    print(f"workload={workload} lsq={res.lsq_name}")
    print(f"  instructions={res.instructions} cycles={res.cycles} ipc={res.ipc:.3f}")
    print(
        f"  mispredict_rate={res.mispredict_rate:.3f} "
        f"l1d_miss={res.l1d_miss_rate:.3f} dtlb_miss={res.dtlb_miss_rate:.3f}"
    )
    print(
        f"  lsq_energy={res.lsq_energy_total_pj / 1e3:.1f} nJ  "
        f"deadlock_flushes={res.deadlock_flushes}"
    )
    for cat, pj in sorted(res.lsq_energy_pj.items()):
        print(f"    {cat}: {pj / 1e3:.1f} nJ")
    sampling = res.telemetry().get("sampling")
    if sampling:
        print(
            f"  sampling: ratio={sampling['ratio']:.3f} "
            f"windows={sampling['windows']} "
            f"measured={sampling['measured_instructions']} "
            f"simulated={sampling['simulated_instructions']} "
            f"consumed={sampling['source_uops_consumed']}"
        )
        if "ipc_error_vs_full" in sampling:
            print(
                f"  full_ipc={sampling['full_ipc']:.3f} "
                f"ipc_error_vs_full={sampling['ipc_error_vs_full'] * 100:.2f}%"
            )


#: sentinel returned by :func:`_parse_mem` after reporting a bad --mem
#: (callers exit with the usage code; a bad override never tracebacks)
_MEM_ERROR = object()


def _parse_mem(args: argparse.Namespace):
    """``args.mem`` -> a validated override tuple (None when absent).

    Parses the field names *and* eagerly builds the hierarchy the spec
    describes, so value errors that only surface at construction time
    (zero MSHR entries, non-power-of-two set counts) fail here with the
    constructor's message.  On any problem the message is printed to
    stderr and :data:`_MEM_ERROR` returned; callers ``return 2``.
    """
    from repro.experiments.runner import parse_mem_overrides, validate_mem_spec

    if getattr(args, "mem", None) is None:
        return None
    try:
        mem = parse_mem_overrides(args.mem)
        validate_mem_spec(mem)
    except ValueError as e:
        print(e, file=sys.stderr)
        return _MEM_ERROR
    return mem


def _build_specs(args: argparse.Namespace, machine, mem,
                 sample: tuple | None = None) -> list | None:
    """The ``run``/``submit`` workload list as ``SimSpec``s (None = error).

    Every ``trace:`` file is checked first, so a missing, foreign or
    incomplete file fails with a message about the file; with
    ``--instructions`` unset a trace runs whole.  A sampled run's
    warmup is 0: the plan warms each window.
    """
    from repro.experiments.runner import SimSpec
    from repro.trace.format import TraceError, read_info
    from repro.workloads.registry import SCENARIO_SCHEME, TRACE_SCHEME, get_workload

    budgets = []
    for w in args.workload:
        n = args.instructions
        if w.startswith(TRACE_SCHEME):
            path = w[len(TRACE_SCHEME):]
            try:
                info = read_info(path)
            except (OSError, TraceError) as e:
                print(e, file=sys.stderr)
                return None
            if not info.complete:
                print(f"{path}: no valid footer; incomplete or corrupt trace "
                      "(see `repro trace info --scan`)", file=sys.stderr)
                return None
            if n is None:
                n = info.count
        elif not w.startswith(SCENARIO_SCHEME):
            try:
                get_workload(w)  # raises with the close-match suggestion
            except ValueError as e:
                print(e, file=sys.stderr)
                return None
        budgets.append(RUN_INSTRUCTIONS if n is None else n)
    warmup = args.warmup if args.warmup is not None else RUN_WARMUP
    try:
        return [
            SimSpec.make(w, machine, n, 0 if sample else warmup, args.seed,
                         sample=sample, mem=mem)
            for w, n in zip(args.workload, budgets)
        ]
    except ValueError as e:
        # unknown scenario name / malformed inline scenario JSON --
        # canonicalisation validates the spec at build time
        print(e, file=sys.stderr)
        return None


def _run_instrumented(args: argparse.Namespace, specs: list) -> int:
    """``run --profile`` / ``--cycle-trace``: simulate with obs hooks.

    Instrumented runs bypass the result cache on purpose -- profiling a
    cache hit would time nothing -- but the SimResults themselves stay
    bit-identical to the uninstrumented path (hooks observe, never
    steer).
    """
    from repro.obs.cycletrace import CycleTracer
    from repro.obs.profile import run_profiled

    if args.cycle_trace and len(specs) > 1:
        print("--cycle-trace writes one NDJSON file; run one workload "
              "at a time", file=sys.stderr)
        return 2
    for w, spec in zip(args.workload, specs):
        tracer = CycleTracer(every=1) if args.cycle_trace else None
        result, report = run_profiled(spec, tracer=tracer)
        _print_result(w, result)
        if args.profile:
            print()
            print(report.render())
        if tracer is not None:
            rows = tracer.dump(args.cycle_trace)
            print(f"cycle trace: {rows} records -> {args.cycle_trace}"
                  + (f" ({tracer.dropped} dropped: ring full)"
                     if tracer.dropped else ""))
    return 0


def _cache_config(args: argparse.Namespace):
    """The ``CacheConfig`` a command's flags select (default: ``CacheConfig()``)."""
    from repro.service.store import CacheConfig

    if getattr(args, "no_cache", False):
        return CacheConfig(backend="off")
    if getattr(args, "memory_store", False):
        return CacheConfig(backend="memory")
    if getattr(args, "cache_dir", None):
        return CacheConfig(directory=args.cache_dir)
    return CacheConfig()


def _session(args: argparse.Namespace):
    """The one ``SimService`` a command runs all its simulations on."""
    from repro.service.session import SimService

    return SimService(cache=_cache_config(args))


def _sampling_usage(args: argparse.Namespace) -> str | None:
    """Why ``run``'s sampling flags cannot combine as given (None = fine)."""
    from repro.workloads.registry import TRACE_SCHEME

    if args.check_full:
        if args.sample_ratio is None:
            return ("--check-full only applies to sampled replay; "
                    "pass --sample-ratio too")
        if args.instructions is not None:
            # a bounded sampled run spreads its budget across ~1/ratio
            # times as many source uops as a bounded full run covers, so
            # the two would describe different trace regions
            return "--check-full compares whole-trace replays; drop --instructions"
        endless = [w for w in args.workload if not w.startswith(TRACE_SCHEME)]
        if endless:
            return (f"--check-full compares whole-trace replays; {endless[0]} "
                    "is not a trace: workload (synthetic and scenario "
                    "sources never end)")
        if args.profile or args.cycle_trace:
            return "--check-full does not combine with --profile/--cycle-trace"
    if args.sample_ratio is not None and args.warmup:
        # sampling replaces the single up-front warmup with the plan's
        # per-window warmup; silently dropping the flag would be worse
        return ("--warmup does not apply to sampled replay (the sampling "
                "plan warms each window); drop it")
    return None


def _write_report(args: argparse.Namespace, machine, mem, results) -> None:
    """Print each result; with ``--json PATH``, write them there first."""
    import json

    if args.json:
        # write the report before printing: a consumer that closes stdout
        # early (| head) must not cost the artifact
        doc = [
            {"workload": w, "machine": machine[0],
             "mem": dict(mem) if mem else {}, "result": res.to_dict()}
            for w, res in zip(args.workload, results)
        ]
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    for w, res in zip(args.workload, results):
        _print_result(w, res)
    if args.json:
        print(f"report written to {args.json}")


def _cmd_run(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.core.pipeline import SimResult
    from repro.trace.format import TraceError
    from repro.trace.sampling import SamplePlan, attach_error

    usage = _sampling_usage(args)
    if usage:
        print(usage, file=sys.stderr)
        return 2
    machine = _run_machine(args.lsq)
    mem = _parse_mem(args)
    if mem is _MEM_ERROR:
        return 2
    sample = None
    if args.sample_ratio is not None:
        try:
            plan = SamplePlan.from_ratio(args.sample_ratio, period=args.sample_period)
        except ValueError as e:
            print(e, file=sys.stderr)
            return 2
        sample = plan.key()
    specs = _build_specs(args, machine, mem, sample)
    if specs is None:
        return 1
    # --check-full: each trace's full run, same whole-trace budget, warmup 0
    full = [replace(spec, sample=None) for spec in specs] if args.check_full else []
    try:
        if args.profile or args.cycle_trace:
            return _run_instrumented(args, specs)
        results = _session(args).run_many(specs + full, jobs=args.jobs)
    except (TraceError, ValueError) as e:
        # a corrupt frame behind a valid footer, a mistyped workload
        # (with the registry's close-match suggestion) or a trace too
        # short for one sampling window: a clean message, no traceback
        print(e, file=sys.stderr)
        return 1
    results, fulls = results[:len(specs)], results[len(specs):]
    if fulls:
        # detach from the session memo before annotating: the memoised
        # result must not accumulate this invocation's error fields
        results = [SimResult.from_dict(r.to_dict()) for r in results]
        for res, base in zip(results, fulls):
            attach_error(res, base)
    _write_report(args, machine, mem, results)
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.scenarios import CATALOG
    from repro.workloads.registry import list_workloads
    from repro.workloads.spec2000 import SPEC2000_PROFILES

    for name in list_workloads(order=args.order):
        profile = SPEC2000_PROFILES[name]
        if args.verbose:
            print(f"{name:<10} {profile.suite:<6} {profile.note}")
        else:
            print(f"{name:<10} {profile.suite}")
    for name, scn in CATALOG.items():
        progs = len(scn.programs)
        phases = max(len(p.phases) for p in scn.programs)
        shape = []
        if phases > 1:
            shape.append(f"{phases} phases")
        if progs > 1:
            shape.append(f"{progs}-way interleave/{scn.interleave}")
        tag = f" [{', '.join(shape)}]" if shape else ""
        if args.verbose:
            print(f"scenario:{name:<18}{tag} {scn.note}")
        else:
            print(f"scenario:{name}{tag}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.artefacts import ARTEFACTS

    mem = _parse_mem(args)
    if mem is _MEM_ERROR:
        return 2
    artefact = ARTEFACTS[args.id]
    result = artefact.compute(instructions=args.instructions, warmup=args.warmup,
                              jobs=args.jobs, mem=mem, session=_session(args))
    print(result.to_text())
    if artefact.bar:
        from repro.experiments.report import bar_chart

        col, baseline = artefact.bar
        labels = [str(r[0]) for r in result.rows]
        print()
        print(bar_chart(labels, result.column(col), baseline=baseline))
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    from repro.experiments.artefacts import ARTEFACTS

    out_dir = getattr(args, "out", None)
    mem = _parse_mem(args)
    if mem is _MEM_ERROR:
        return 2
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    session = _session(args)  # one session: Figures 5-12 share one sweep
    for exp, artefact in ARTEFACTS.items():
        result = artefact.compute(instructions=args.instructions, warmup=args.warmup,
                                  jobs=args.jobs, mem=mem, session=session)
        text = result.to_text()
        print(text)
        print()
        if out_dir:
            with open(os.path.join(out_dir, f"{exp}.txt"), "w") as fh:
                fh.write(text + "\n")
            with open(os.path.join(out_dir, f"{exp}.json"), "w") as fh:
                fh.write(result.to_json() + "\n")
    return 0


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from repro.trace.workload import record_trace, recommended_uops

    n = args.uops
    if n is None:
        n = recommended_uops(args.instructions, args.warmup)
    try:
        info = record_trace(args.out, args.workload, n, seed=args.seed)
    except OSError as e:
        print(e, file=sys.stderr)
        return 1
    except KeyError as e:
        print(e.args[0], file=sys.stderr)
        return 1
    print(info.describe())
    print(f"replay with: repro run trace:{args.out} --warmup 0")
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    from repro.trace.format import TraceError, read_info

    try:
        info = read_info(args.path, scan=args.scan)
    except (OSError, TraceError) as e:
        print(e, file=sys.stderr)
        return 1
    print(info.describe())
    return 0 if info.complete else 1


def _cmd_trace_ingest(args: argparse.Namespace) -> int:
    from repro.trace.spike import ingest_spike_log

    try:
        info, stats = ingest_spike_log(args.log, args.out)
    except OSError as e:
        print(e, file=sys.stderr)
        return 1
    print(stats.describe())
    print(info.describe())
    if stats.decoded == 0:
        print("no instructions decoded; is this a Spike commit log?", file=sys.stderr)
        return 1
    print(f"replay with: repro run trace:{args.out} --warmup 0")
    return 0


def write_port_file(path: str, port: int) -> None:
    """Publish the bound port atomically (write-temp + ``os.replace``).

    Scripts poll for this file and read it the instant it appears, so
    it must never be observable empty or half-written.
    """
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(f"{port}\n")
    os.replace(tmp, path)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.obs import log as obs_log
    from repro.service.httpapi import ServiceHTTPServer
    from repro.service.session import SimService

    if args.obs:
        obs.enable()
    obs_log.configure(verbosity=args.log_v - args.log_q,
                      json_lines=args.log_json)
    log = obs_log.get_logger("serve")
    service = SimService(
        cache=_cache_config(args),
        jobs=args.jobs,
        backend=args.backend,
        max_pending=args.max_pending,
    )
    service.standup()
    server = ServiceHTTPServer(service, args.host, args.port, quiet=not args.verbose)
    host, port = server.server_address[:2]
    info = service.store.info()
    log.info("serving on http://%s:%s", host, port)
    log.info("store=%s %s, %s entries warm",
             info.backend, info.location, info.entries)
    log.info("workers=%s backend=%s max_pending=%s obs=%s",
             args.jobs or "one per core", args.backend,
             args.max_pending or "unbounded", "on" if obs.enabled() else "off")
    if args.port_file:
        # written only after the socket is bound: scripts wait on this file
        write_port_file(args.port_file, port)
    # SIGTERM takes SIGINT's path, so either one closes the server and
    # joins the pool workers instead of orphaning them
    previous = signal.signal(signal.SIGTERM, _raise_interrupt)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        log.info("interrupted; tearing down")
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
        service.teardown()
    return 0


def _raise_interrupt(signum, frame):
    raise KeyboardInterrupt


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceClientError

    machine = _run_machine(args.lsq)
    mem = _parse_mem(args)
    if mem is _MEM_ERROR:
        return 2
    specs = _build_specs(args, machine, mem)
    if specs is None:
        return 1
    client = ServiceClient(args.server, timeout=args.timeout)
    try:
        batch = client.submit(specs)
        batch_id = batch["batch"]
        cached = sum(1 for j in batch["jobs"] if j["state"] == "done")
        print(f"batch {batch_id}: {len(batch['jobs'])} specs "
              f"({cached} already cached)")
        if args.stream:
            for event in client.stream(batch_id, timeout=args.timeout):
                if event["event"] == "job":
                    print(f"  [{event['state']:>8}] {event['workload']}"
                          f" @ {event['machine']} ({event['id'][:12]})")
                elif event["event"] == "heartbeat":
                    rate = event.get("sims_per_sec")
                    hit = event.get("store_hit_rate")
                    print(f"  [heartbeat] queued={event['queue_depth']} "
                          f"inflight={event['inflight']} "
                          f"simulated={event['simulated']}"
                          + (f" sims/sec={rate:.1f}" if rate is not None else "")
                          + (f" hit_rate={hit:.0%}" if hit is not None else ""))
                elif event["event"] == "done":
                    s = event["stats"]
                    print(f"  done: simulated={s['simulated']} "
                          f"deduplicated={s['deduplicated']} "
                          f"memo={s['memo_hits']} store={s['store_hits']}")
        results = client.results(batch_id, timeout=args.timeout)
    except ServiceClientError as e:
        print(e, file=sys.stderr)
        return 1
    except OSError as e:
        print(f"cannot reach service at {args.server}: {e}", file=sys.stderr)
        return 1
    _write_report(args, machine, mem, results)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.top import top

    return top(args.server, interval=args.interval, once=args.once)


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.service.store import build_store

    store = build_store(_cache_config(args))
    if args.cache_cmd == "info":
        print(store.info().describe())
        return 0
    clearance = store.clear()
    msg = (f"removed {clearance.removed} entries "
           f"({clearance.stale} stale/corrupt)")
    if clearance.tmp:
        msg += f", reaped {clearance.tmp} abandoned .tmp files"
    print(msg)
    return 0


def _cmd_scenarios_show(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        UnknownScenarioError,
        canonical_json,
        resolve_scenario,
        stressor_note,
    )

    try:
        scn = resolve_scenario(args.name)
    except (UnknownScenarioError, ValueError) as e:
        print(e, file=sys.stderr)
        return 1
    print(f"scenario {scn.name}: {scn.note}")
    for i, prog in enumerate(scn.programs):
        region = prog.region if prog.region is not None else i
        print(f"  program {i} (schedule={prog.schedule}, region slot {region}):")
        for j, ph in enumerate(prog.phases):
            length = ph.length if ph.length else "endless"
            extras = f" params={dict(ph.params)}" if ph.params else ""
            print(f"    phase {j}: {ph.stressor}@{ph.intensity} "
                  f"length={length}{extras}")
            print(f"      {stressor_note(ph.stressor)}")
    if len(scn.programs) > 1:
        print(f"  interleave: round-robin, {scn.interleave} uops per turn")
    print("  canonical spec (the cache identity):")
    print(f"    scenario:{canonical_json(scn)}")
    return 0


def _cmd_scenarios_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import scenario_sweep

    mem = _parse_mem(args)
    if mem is _MEM_ERROR:
        return 2
    session = _session(args)
    try:
        result = scenario_sweep.compute(
            scenarios=args.scenario or None,
            instructions=args.instructions,
            warmup=args.warmup,
            seed=args.seed,
            jobs=args.jobs,
            mem=mem,
            session=session,
        )
    except ValueError as e:
        print(e, file=sys.stderr)
        return 1
    print(result.to_text())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(result.to_json() + "\n")
        print(f"report written to {args.json}")
    # CI asserts warm reruns serve from the store: simulated == 0
    s = session.stats.snapshot()
    print(f"session: simulated={s['simulated']} memo={s['memo_hits']} "
          f"store={s['store_hits']}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify.campaign import GRIDS, CampaignConfig, run_campaign
    from repro.verify.fuzz import PROFILE_NAMES

    if args.profile and args.profile not in PROFILE_NAMES:
        # scenario catalog names (and inline scenario:{json} specs) are
        # valid campaign profiles too -- generate_program compiles them
        from repro.scenarios import catalog_names, has_scenario

        spec = (args.profile if args.profile.startswith("scenario:")
                else f"scenario:{args.profile}")
        if not has_scenario(spec):
            print(
                f"unknown profile {args.profile!r}; fuzz profiles: "
                f"{', '.join(PROFILE_NAMES)}; scenarios: "
                f"{', '.join(catalog_names())}",
                file=sys.stderr,
            )
            return 2

    fault = args.inject_bug
    profiles = (args.profile,) if args.profile else PROFILE_NAMES

    if args.replay is not None:
        # replay one program from its (seed, profile) pair
        from repro.verify.diff import diff_program
        from repro.verify.fuzz import ProgramSpec

        spec = ProgramSpec(index=0, seed=args.replay, profile=args.profile or "mixed")
        grid = GRIDS[args.grid]()
        div = diff_program(spec, grid, fault=fault if fault != "none" else None,
                           minimize=not args.no_minimize)
        if div is None:
            print(f"replay seed={spec.seed} profile={spec.profile}: no divergence "
                  f"({len(grid)} geometry points)")
            if fault != "none" and not args.no_selftest:
                # same convention as campaign self-tests: an injected fault
                # that goes undetected is the failure
                print("self-test FAILED: injected fault produced no divergence")
                return 1
            return 0
        div.grid, div.fault = args.grid, fault
        print(f"replay seed={spec.seed} profile={spec.profile}: DIVERGENCE")
        print(f"  point={div.point} reason={div.reason}")
        print(f"  {div.detail}")
        print(f"  minimized to {div.minimized_len} ops (from {div.program_len})")
        for t in div.minimized_program:
            print(f"    {t}")
        if fault != "none" and not args.no_selftest:
            print("self-test ok: injected fault was detected")
            return 0
        return 1

    cfg = CampaignConfig(
        programs=args.programs,
        seed=args.seed,
        jobs=args.jobs,
        grid=args.grid,
        profiles=profiles,
        fault=fault,
        minimize=not args.no_minimize,
        artifact_dir=args.artifacts,
    )
    report = run_campaign(cfg)
    print(report.summary_text())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json() + "\n")
        print(f"report written to {args.json}")
    # An injected fault is a self-test: finding the bug is the pass --
    # unless --no-selftest asked for the raw gate exit code (CI asserts
    # the gate goes red on an injected bug).
    if fault != "none" and not args.no_selftest:
        if report.ok:
            print("self-test FAILED: injected fault produced no divergence")
            return 1
        print("self-test ok: injected fault was detected")
        return 0
    return 0 if report.ok else 1


class _ArtefactIDs:
    """``figure``'s choices: the artefact table's IDs, read only when
    argparse checks or lists them.  Building the parser then leaves the
    table, and the runner and result store it imports, unimported, so
    ``serve`` starts without them; the argument names its own
    ``metavar`` because argparse would otherwise iterate the choices to
    build one when the argument is added."""

    def __iter__(self):
        from repro.experiments.artefacts import ARTEFACTS

        return iter(ARTEFACTS)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    wl_p = sub.add_parser("workloads", help="list the workloads `run` accepts")
    wl_p.add_argument("--order", default="name", choices=["name", "paper"],
                      help="sort the synthetic suite by name or by the "
                           "paper's figure x-axis order")
    wl_p.add_argument("--verbose", action="store_true",
                      help="include each workload's descriptive note")
    wl_p.set_defaults(fn=_cmd_workloads)

    def add_mem_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mem", default=None, metavar="K=V[,K=V...]",
                       help="memory-hierarchy overrides (MemConfig fields "
                            "plus l1d_sets/l1d_ways sugar), e.g. "
                            "--mem mshr_entries=4,l1d_sets=128; "
                            "mshr_entries=1,mshr_targets=1 selects the "
                            "instant-fill model (full latency per miss, "
                            "line installed at access time)")

    def add_sweep_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel simulation workers (0 = one per core)")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the result store (overrides --cache-dir)")
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result-store directory (default "
                            "~/.cache/samie-repro)")

    def add_artefact_flags(p: argparse.ArgumentParser) -> None:
        """Scale and memory overrides of figure/all/scenarios sweep."""
        p.add_argument("--instructions", type=int, default=None,
                       help="measured instructions per simulation (default 6000)")
        p.add_argument("--warmup", type=int, default=None,
                       help="warmup instructions per simulation (default 3000)")
        add_mem_flag(p)

    def add_spec_flags(p: argparse.ArgumentParser) -> None:
        """The workload batch and the flags that shape its specs (run, submit)."""
        p.add_argument("workload", nargs="+",
                       help="synthetic name (see `workloads`), scenario:<name> "
                            "or trace:<path>")
        p.add_argument("--lsq", default="samie",
                       choices=["conventional", "unbounded", "samie", "arb"])
        p.add_argument("--instructions", type=int, default=None,
                       help=f"measured instructions per simulation (default "
                            f"{RUN_INSTRUCTIONS}; a trace: workload runs whole)")
        p.add_argument("--warmup", type=int, default=None,
                       help=f"warmup instructions per simulation (default "
                            f"{RUN_WARMUP})")
        p.add_argument("--seed", type=int, default=1)
        add_mem_flag(p)
        p.add_argument("--json", default=None, metavar="PATH",
                       help="also write the results as a JSON report here")

    run_p = sub.add_parser("run", help="simulate one or more workloads")
    add_spec_flags(run_p)
    run_p.add_argument("--sample-ratio", type=float, default=None, metavar="R",
                       help="systematic sampling: measure fraction R of the "
                            "stream (e.g. 0.1); --instructions bounds the "
                            "measured instructions")
    run_p.add_argument("--sample-period", type=int, default=10000,
                       help="sampling interval length in instructions "
                            "(long periods keep splice boundaries rare "
                            "relative to MSHR stall backlogs)")
    run_p.add_argument("--check-full", action="store_true",
                       help="with --sample-ratio on trace: workloads, also run "
                            "each whole trace and report the sampled-vs-full "
                            "IPC error")
    run_p.add_argument("--profile", action="store_true",
                       help="per-stage time + structure-occupancy report "
                            "(instrumented run; bypasses the result cache)")
    run_p.add_argument("--cycle-trace", default=None, metavar="PATH",
                       help="dump a cycle-level NDJSON event trace here "
                            "(occupancy rows + flush events; one workload)")
    add_sweep_flags(run_p)
    run_p.set_defaults(fn=_cmd_run)

    fig_p = sub.add_parser("figure", help="regenerate one paper artefact")
    fig_p.add_argument("id", metavar="ID", choices=_ArtefactIDs(),
                       help="paper artefact: %(choices)s")
    add_artefact_flags(fig_p)
    add_sweep_flags(fig_p)
    fig_p.set_defaults(fn=_cmd_figure)

    all_p = sub.add_parser("all", help="regenerate every artefact")
    all_p.add_argument("--out", default=None,
                       help="also write per-artefact .txt/.json files here")
    add_artefact_flags(all_p)
    add_sweep_flags(all_p)
    all_p.set_defaults(fn=_cmd_all)

    trace_p = sub.add_parser("trace", help="record/inspect/ingest uop traces")
    trace_sub = trace_p.add_subparsers(dest="trace_cmd", required=True)

    rec_p = trace_sub.add_parser("record", help="record a synthetic workload to .uoptrace")
    rec_p.add_argument("workload")
    rec_p.add_argument("-o", "--out", required=True, help="output .uoptrace path")
    rec_p.add_argument("--uops", type=int, default=None,
                       help="records to capture (default: sized from "
                            "--instructions/--warmup plus fetch slack)")
    rec_p.add_argument("--instructions", type=int, default=RUN_INSTRUCTIONS)
    rec_p.add_argument("--warmup", type=int, default=RUN_WARMUP)
    rec_p.add_argument("--seed", type=int, default=1)
    rec_p.set_defaults(fn=_cmd_trace_record)

    info_p = trace_sub.add_parser("info", help="summarise a .uoptrace file")
    info_p.add_argument("path")
    info_p.add_argument("--scan", action="store_true",
                        help="verify every frame and histogram op classes")
    info_p.set_defaults(fn=_cmd_trace_info)

    ing_p = trace_sub.add_parser("ingest", help="convert a Spike commit log to .uoptrace")
    ing_p.add_argument("log", help="Spike/riscv-pythia commit log path")
    ing_p.add_argument("-o", "--out", required=True, help="output .uoptrace path")
    ing_p.set_defaults(fn=_cmd_trace_ingest)

    scn_p = sub.add_parser(
        "scenarios",
        help="show/sweep the declarative scenario catalog",
    )
    scn_sub = scn_p.add_subparsers(dest="scn_cmd", required=True)

    scn_show = scn_sub.add_parser(
        "show", help="describe one scenario (phases, interleave, cache key)")
    scn_show.add_argument("name",
                          help="catalog name or inline scenario:{json} spec")
    scn_show.set_defaults(fn=_cmd_scenarios_show)

    scn_sweep = scn_sub.add_parser(
        "sweep", help="scenario x LSQ-geometry stress matrix")
    scn_sweep.add_argument("scenario", nargs="*",
                           help="catalog names / scenario: specs "
                                "(default: the whole catalog)")
    add_artefact_flags(scn_sweep)
    scn_sweep.add_argument("--seed", type=int, default=1)
    scn_sweep.add_argument("--json", default=None, metavar="PATH",
                           help="write the matrix as a JSON artefact here")
    add_sweep_flags(scn_sweep)
    scn_sweep.set_defaults(fn=_cmd_scenarios_sweep)

    from repro.verify.diff import FAULTS
    from repro.verify.fuzz import PROFILE_NAMES

    ver_p = sub.add_parser(
        "verify",
        help="differential conformance campaign (fuzz vs golden oracle)",
    )
    ver_p.add_argument("--programs", type=int, default=100,
                       help="fuzzed programs to check (pre-merge gate: 500)")
    ver_p.add_argument("--seed", type=int, default=1, help="campaign base seed")
    ver_p.add_argument("--jobs", type=int, default=1,
                       help="parallel worker processes (1 = in-process)")
    ver_p.add_argument("--grid", default="default", choices=["default", "quick"],
                       help="geometry grid to sweep")
    ver_p.add_argument("--profile", default=None, metavar="NAME",
                       help="restrict fuzzing to one stress profile "
                            f"({', '.join(PROFILE_NAMES)}) or a scenario "
                            "catalog name / inline scenario:{json} spec")
    ver_p.add_argument("--inject-bug", default="none", choices=list(FAULTS),
                       help="self-test: break the models and require detection")
    ver_p.add_argument("--no-selftest", action="store_true",
                       help="with --inject-bug, keep the raw gate exit code "
                            "(non-zero on divergence) instead of self-test "
                            "semantics; CI uses this to assert the gate fails")
    ver_p.add_argument("--replay", type=int, default=None, metavar="SEED",
                       help="re-check one program by seed (with --profile)")
    ver_p.add_argument("--no-minimize", action="store_true",
                       help="skip delta-debugging of diverging programs")
    ver_p.add_argument("--json", default=None, metavar="PATH",
                       help="write the JSON campaign report here")
    ver_p.add_argument("--artifacts", default=None, metavar="DIR",
                       help="write each diverging program as a replayable "
                            ".uoptrace artifact in DIR (cross-session repro)")
    ver_p.set_defaults(fn=_cmd_verify)

    srv_p = sub.add_parser("serve", help="stand up the simulation service (HTTP/JSON)")
    srv_p.add_argument("--host", default="127.0.0.1")
    srv_p.add_argument("--port", type=int, default=8421,
                       help="listen port (0 = ephemeral; see --port-file)")
    srv_p.add_argument("--port-file", default=None, metavar="PATH",
                       help="write the bound port here once listening "
                            "(scripts wait on this file)")
    srv_p.add_argument("--jobs", type=int, default=0,
                       help="standing simulation workers (0 = one per core)")
    srv_p.add_argument("--backend", default="process",
                       choices=["process", "thread", "inline"],
                       help="worker backend (process is the default; thread "
                            "and inline exist for tests/debugging)")
    srv_p.add_argument("--max-pending", type=int, default=None, metavar="N",
                       help="admission control: refuse batches that would "
                            "push queued+running past N (default: unbounded)")
    srv_p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result-store directory (default "
                            "~/.cache/samie-repro)")
    srv_p.add_argument("--memory-store", action="store_true",
                       help="keep results in memory only (no disk cache)")
    srv_p.add_argument("--verbose", action="store_true",
                       help="log each HTTP request to stderr")
    srv_p.add_argument("--obs", action="store_true",
                       help="enable the observability plane (spans + "
                            "worker telemetry); REPRO_OBS=1 equivalent")
    srv_p.add_argument("--log-json", action="store_true",
                       help="emit log records as JSON lines (joinable "
                            "with spans/metrics by run ID)")
    srv_p.add_argument("-v", dest="log_v", action="count", default=0,
                       help="more log detail (DEBUG)")
    srv_p.add_argument("-q", dest="log_q", action="count", default=0,
                       help="less log detail (WARNING)")
    srv_p.set_defaults(fn=_cmd_serve)

    sub_p = sub.add_parser("submit", help="submit a workload batch to a running service")
    add_spec_flags(sub_p)
    sub_p.add_argument("--server", default="http://127.0.0.1:8421",
                       help="service base URL")
    sub_p.add_argument("--stream", action="store_true",
                       help="follow per-job progress events while waiting")
    sub_p.add_argument("--timeout", type=float, default=300.0,
                       help="seconds to wait for the batch (default 300)")
    sub_p.set_defaults(fn=_cmd_submit)

    top_p = sub.add_parser("top", help="live terminal view of a running service")
    top_p.add_argument("server", nargs="?", default="http://127.0.0.1:8421",
                       help="service base URL (default: %(default)s)")
    top_p.add_argument("--interval", type=float, default=1.0,
                       help="seconds between refreshes (default: %(default)s)")
    top_p.add_argument("--once", action="store_true",
                       help="render one frame and exit (scripts, CI smoke)")
    top_p.set_defaults(fn=_cmd_top)

    cache_p = sub.add_parser("cache", help="inspect or clear the result store")
    cache_sub = cache_p.add_subparsers(dest="cache_cmd", required=True)
    for name, blurb in [("info", "describe the store and entry counts"),
                        ("clear", "remove every entry (reports stale/corrupt)")]:
        cp = cache_sub.add_parser(name, help=blurb)
        cp.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result-store directory (default "
                             "~/.cache/samie-repro)")
        cp.set_defaults(fn=_cmd_cache)

    args = parser.parse_args(argv)
    retired = [name for name in RETIRED_ENV if name in os.environ]
    for name in retired:
        print(f"{name} is no longer read; pass {RETIRED_ENV[name]}", file=sys.stderr)
    if retired:
        return 2
    try:
        return args.fn(args)
    except BrokenPipeError:
        # output piped into a pager/head that exited; not an error --
        # repoint stdout at devnull so interpreter shutdown stays quiet
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
