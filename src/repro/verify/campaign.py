"""Parallel conformance campaign runner.

Fans a stream of fuzzed programs out over a ``concurrent.futures``
process pool; every worker independently generates its programs from a
per-program derived seed (no shared state, no pickled UOps) and runs the
full differential check.  The result is a JSON-serialisable
:class:`CampaignReport`, and the whole thing is wired to the command line
as ``repro verify``.

With ``artifact_dir`` set (CLI: ``repro verify --artifacts DIR``), every
diverging program is additionally written as a replayable ``.uoptrace``
file whose meta header carries the full reproduction context (seed,
profile, grid, fault, diverging point and reason), so a divergence found
in CI can be replayed in any later session -- even one whose fuzz
generator has since changed -- with ``repro run trace:<file> --warmup 0``
or by feeding the trace back through
:func:`repro.verify.diff.check_program`.

This runner is also the template for parallelizing
``repro.experiments.runner`` later: simulation work items here are pure
functions of small picklable specs, which is exactly the shape a
process-pool experiment sweep needs.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.verify.diff import Divergence, default_grid, diff_program, quick_grid
from repro.verify.fuzz import PROFILE_NAMES, ProgramSpec, program_stream

#: named grids selectable from the CLI and picklable by name
GRIDS = {"default": default_grid, "quick": quick_grid}


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign: how many programs, how wide, against which grid."""

    programs: int = 100
    seed: int = 1
    jobs: int = 1
    grid: str = "default"
    profiles: tuple[str, ...] = PROFILE_NAMES
    fault: str = "none"
    minimize: bool = True
    #: cap on divergences carried in the report (the first ones matter)
    max_report: int = 20
    #: when set, each diverging program is written here as a replayable
    #: ``.uoptrace`` artifact (cross-session repro; see module docstring)
    artifact_dir: str | None = None


@dataclass
class CampaignReport:
    """Outcome of one campaign (``to_dict`` is the JSON artefact)."""

    programs: int
    seed: int
    jobs: int
    grid: str
    grid_points: list[str]
    profiles: list[str]
    fault: str
    elapsed_s: float
    divergences: list[dict] = field(default_factory=list)
    divergences_total: int = 0

    @property
    def ok(self) -> bool:
        """True when every program conformed on every grid point."""
        return self.divergences_total == 0

    def to_dict(self) -> dict:
        from dataclasses import asdict

        d = asdict(self)
        d["ok"] = self.ok
        return d

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary_text(self) -> str:
        lines = [
            f"verify: {self.programs} programs x {len(self.grid_points)} geometry "
            f"points ({self.grid} grid), seed={self.seed}, jobs={self.jobs}, "
            f"fault={self.fault}: "
            + ("OK" if self.ok else f"{self.divergences_total} DIVERGENCES")
            + f" in {self.elapsed_s:.1f}s"
        ]
        for d in self.divergences:
            lines.append(
                f"  divergence: point={d['point']} reason={d['reason']} "
                f"seed={d['seed']} profile={d['profile']} "
                f"(program {d['program_len']} ops, minimized {d['minimized_len']})"
            )
            lines.append(f"    {d['detail']}")
            lines.append(f"    replay: {d['replay_hint']}")
            if d.get("artifact"):
                lines.append(f"    artifact: {d['artifact']}")
        return "\n".join(lines)


def emit_divergence_trace(spec: ProgramSpec, div: Divergence, artifact_dir: str) -> str:
    """Write ``spec``'s full program as a replayable ``.uoptrace`` artifact.

    The meta header records everything needed to reproduce the divergence
    without the fuzz generator: the ``(seed, profile)`` pair, the grid and
    injected fault, and the observed point/reason.  Returns the absolute
    artifact path (also stored on ``div.artifact``).
    """
    from repro.trace.format import write_trace

    os.makedirs(artifact_dir, exist_ok=True)
    path = os.path.abspath(os.path.join(
        artifact_dir, f"div-{spec.profile}-s{spec.seed}.uoptrace"
    ))
    meta = {
        "source": "verify-divergence",
        "seed": spec.seed,
        "profile": spec.profile,
        "index": spec.index,
        "grid": div.grid,
        "fault": div.fault,
        "point": div.point,
        "reason": div.reason,
        "detail": div.detail,
        "replay_hint": div.replay_hint,
    }
    write_trace(path, spec.build(), meta=meta)
    div.artifact = path
    return path


def _check_one(payload: tuple) -> dict | None:
    """Worker body: fuzz + differential-check one program spec.

    Takes a primitive tuple so the pool only ever pickles small immutable
    data; the program itself is regenerated inside the worker from its
    seed.
    """
    index, seed, profile, grid_name, fault, minimize, artifact_dir = payload
    spec = ProgramSpec(index=index, seed=seed, profile=profile)
    grid = GRIDS[grid_name]()
    div = diff_program(spec, grid, fault=fault if fault != "none" else None,
                       minimize=minimize)
    if div is None:
        return None
    div.grid, div.fault = grid_name, fault
    if artifact_dir:
        emit_divergence_trace(spec, div, artifact_dir)
    return div.to_dict()


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    """Run one conformance campaign, parallel when ``cfg.jobs > 1``."""
    if cfg.grid not in GRIDS:
        raise ValueError(f"unknown grid {cfg.grid!r}; choose from {sorted(GRIDS)}")
    specs = list(program_stream(cfg.seed, cfg.programs, cfg.profiles))
    payloads = [
        (s.index, s.seed, s.profile, cfg.grid, cfg.fault, cfg.minimize,
         cfg.artifact_dir)
        for s in specs
    ]
    t0 = time.perf_counter()
    if cfg.jobs <= 1:
        results = [_check_one(p) for p in payloads]
    else:
        chunk = max(1, len(payloads) // (cfg.jobs * 4))
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_check_one, payloads, chunksize=chunk))
    elapsed = time.perf_counter() - t0
    divergences = [r for r in results if r is not None]
    grid_points = [p.name for p in GRIDS[cfg.grid]()]
    return CampaignReport(
        programs=cfg.programs,
        seed=cfg.seed,
        jobs=cfg.jobs,
        grid=cfg.grid,
        grid_points=grid_points,
        profiles=list(cfg.profiles),
        fault=cfg.fault,
        elapsed_s=elapsed,
        divergences=divergences[: cfg.max_report],
        divergences_total=len(divergences),
    )
