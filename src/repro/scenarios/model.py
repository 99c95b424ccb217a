"""Declarative scenario model and its deterministic stream compiler.

A :class:`Scenario` composes the atomic stressors of
:mod:`repro.scenarios.stressors` along three axes:

* **intensity** -- every phase names a stressor at ``low|mid|high``
  (plus optional numeric ``params`` overriding profile scalars);
* **phase schedule** -- each program is a sequence of phases with exact,
  deterministic switch points (``length`` = uops contributed per visit;
  ``schedule="loop"`` cycles back to phase 0, ``"hold"`` stays in the
  final phase; ``length=0`` marks a terminal endless phase);
* **interleaving** -- multiple programs share the stream SMT-style,
  round-robin in chunks of ``interleave`` uops, each in a private data
  region and PC range, with producer distances remapped into the merged
  stream.

Identity is structural: :func:`canonical_json` renders a scenario as
sorted-key compact JSON of its *structure only* (no display name, no
note), so a catalog name and an equivalent inline ``scenario:{json}``
spec share one cache key.  The ``scenario:`` spec scheme mirrors
``trace:``: ``scenario:<catalog-name>`` or ``scenario:{inline json}``.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from repro.common.rng import derive_seed
from repro.isa.uop import UOp
from repro.scenarios import stressors as _stressors
from repro.workloads.base import TraceBuilder

#: spec-name prefix (mirrors registry.TRACE_SCHEME)
SCENARIO_SCHEME = "scenario:"

#: doc format version (bumping it would change every scenario cache key,
#: so it only moves for semantic changes to the compiled streams)
DOC_VERSION = 1

MAX_PROGRAMS = 8
MAX_PHASES = 8

#: PC layout: program i, phase j emits at CODE_BASE + i*PC + j*PHASE.
#: Slot caps in stressors.PARAM_FIELDS keep any phase under 32 KiB of
#: static code, so ranges never collide and stay below the SPEC region.
PC_PROGRAM_SPACING = 0x0004_0000
PC_PHASE_SPACING = 0x0000_8000

SCHEDULES = ("loop", "hold")


class UnknownScenarioError(ValueError):
    """Raised for spec names that do not resolve to a catalog scenario."""


def _freeze_params(params) -> tuple:
    if not params:
        return ()
    if isinstance(params, tuple):
        params = dict(params)
    _stressors.check_params(params)
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class PhaseSpec:
    """One phase: a stressor at an intensity, for ``length`` uops.

    ``length=0`` means endless (legal only for a program's final phase).
    ``params`` holds numeric :class:`~repro.workloads.base.WorkloadProfile`
    overrides (stored as a sorted item tuple so specs stay hashable).
    """

    stressor: str
    intensity: str = "mid"
    length: int = 0
    params: tuple = ()

    def __post_init__(self):
        if self.stressor not in _stressors.STRESSORS:
            raise UnknownScenarioError(
                f"unknown stressor {self.stressor!r}; available: "
                f"{', '.join(_stressors.STRESSOR_NAMES)}"
            )
        if self.intensity not in _stressors.INTENSITIES:
            raise ValueError(
                f"unknown intensity {self.intensity!r}; "
                f"use one of {_stressors.INTENSITIES}"
            )
        if not isinstance(self.length, int) or self.length < 0:
            raise ValueError("phase length must be a non-negative integer")
        object.__setattr__(self, "params", _freeze_params(self.params))

    @property
    def params_dict(self) -> dict:
        return dict(self.params)

    def doc(self) -> dict:
        return {
            "stressor": self.stressor,
            "intensity": self.intensity,
            "length": self.length,
            "params": self.params_dict,
        }


@dataclass(frozen=True)
class ScenarioProgram:
    """One interleaved program: a phase sequence plus its schedule.

    ``region`` pins the program's data-region slot (defaults to its index
    in the scenario, giving each program a private 64 MiB segment).
    """

    phases: tuple[PhaseSpec, ...]
    schedule: str = "loop"
    region: int | None = None

    def __post_init__(self):
        phases = tuple(self.phases)
        object.__setattr__(self, "phases", phases)
        if not 1 <= len(phases) <= MAX_PHASES:
            raise ValueError(f"a program needs 1..{MAX_PHASES} phases")
        if self.schedule not in SCHEDULES:
            raise ValueError(
                f"unknown schedule {self.schedule!r}; use one of {SCHEDULES}"
            )
        for ph in phases[:-1]:
            if ph.length == 0:
                raise ValueError(
                    "length=0 (endless) is only legal for the final phase"
                )
        if self.region is not None and not (
            isinstance(self.region, int) and 0 <= self.region < 64
        ):
            raise ValueError("region must be None or an integer in [0, 64)")

    def doc(self) -> dict:
        return {
            "schedule": self.schedule,
            "region": self.region,
            "phases": [ph.doc() for ph in self.phases],
        }


@dataclass(frozen=True)
class Scenario:
    """A named composition of stressor phases across interleaved programs."""

    name: str
    programs: tuple[ScenarioProgram, ...]
    interleave: int = 64
    note: str = field(default="", compare=False)

    def __post_init__(self):
        programs = tuple(self.programs)
        object.__setattr__(self, "programs", programs)
        if not 1 <= len(programs) <= MAX_PROGRAMS:
            raise ValueError(f"a scenario needs 1..{MAX_PROGRAMS} programs")
        if not isinstance(self.interleave, int) or self.interleave < 1:
            raise ValueError("interleave must be a positive integer")

    def doc(self) -> dict:
        """Structural document -- deliberately excludes name and note, so
        identity (and thus the cache key) is purely compositional."""
        return {
            "v": DOC_VERSION,
            "interleave": self.interleave,
            "programs": [prog.doc() for prog in self.programs],
        }


def canonical_json(scenario: Scenario) -> str:
    """Canonical structural identity: sorted keys, compact separators."""
    return json.dumps(scenario.doc(), sort_keys=True, separators=(",", ":"))


def scenario_from_doc(doc: dict, name: str = "inline") -> Scenario:
    """Parse a scenario document (inline JSON or a round-tripped doc()).

    Unknown keys are rejected so typos fail loudly instead of silently
    compiling a different scenario; ``name``/``note`` keys are accepted
    (display only -- they never enter the canonical identity).
    """
    if not isinstance(doc, dict):
        raise ValueError("scenario spec must be a JSON object")
    allowed = {"v", "interleave", "programs", "name", "note"}
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(
            f"unknown scenario keys: {', '.join(sorted(unknown))}"
        )
    version = doc.get("v", DOC_VERSION)
    if version != DOC_VERSION:
        raise ValueError(f"unsupported scenario doc version {version!r}")
    progs_doc = doc.get("programs")
    if not isinstance(progs_doc, list) or not progs_doc:
        raise ValueError("scenario spec needs a non-empty 'programs' list")
    programs = []
    for pd in progs_doc:
        if not isinstance(pd, dict):
            raise ValueError("each program must be a JSON object")
        p_unknown = set(pd) - {"schedule", "region", "phases"}
        if p_unknown:
            raise ValueError(
                f"unknown program keys: {', '.join(sorted(p_unknown))}"
            )
        phases_doc = pd.get("phases")
        if not isinstance(phases_doc, list) or not phases_doc:
            raise ValueError("each program needs a non-empty 'phases' list")
        phases = []
        for fd in phases_doc:
            if not isinstance(fd, dict):
                raise ValueError("each phase must be a JSON object")
            f_unknown = set(fd) - {"stressor", "intensity", "length", "params"}
            if f_unknown:
                raise ValueError(
                    f"unknown phase keys: {', '.join(sorted(f_unknown))}"
                )
            if "stressor" not in fd:
                raise ValueError("each phase needs a 'stressor'")
            phases.append(PhaseSpec(
                stressor=fd["stressor"],
                intensity=fd.get("intensity", "mid"),
                length=fd.get("length", 0),
                params=tuple(sorted((fd.get("params") or {}).items())),
            ))
        programs.append(ScenarioProgram(
            phases=tuple(phases),
            schedule=pd.get("schedule", "loop"),
            region=pd.get("region"),
        ))
    return Scenario(
        name=str(doc.get("name", name)),
        programs=tuple(programs),
        interleave=doc.get("interleave", 64),
        note=str(doc.get("note", "")),
    )


# -- the stream compiler -----------------------------------------------------


class _ProgramState:
    """Per-program compile state: phase builders, schedule, positions."""

    def __init__(self, scenario: Scenario, idx: int, seed: int):
        program = scenario.programs[idx]
        self.program = program
        self.idx = idx
        slot = program.region if program.region is not None else idx
        self.data_base = _stressors.REGION_BASE + slot * _stressors.REGION_SPACING
        self._pc_base = idx * PC_PROGRAM_SPACING
        self._seed = seed
        self._gens: list[Iterator[UOp] | None] = [None] * len(program.phases)
        self.phase = 0
        self.prev_phase = 0
        self._in_phase = 0
        self.consumed = [0] * len(program.phases)
        dep_cap = 8
        for ph in program.phases:
            dep_cap = max(dep_cap, dict(ph.params).get("dep_max", 48))
        # merged-stream positions of this program's recent uops, newest
        # last; bounded by the largest producer distance any phase emits
        self.positions: deque[int] = deque(maxlen=int(dep_cap) + 2)

    def _gen(self, j: int) -> Iterator[UOp]:
        gen = self._gens[j]
        if gen is None:
            ph = self.program.phases[j]
            profile = _stressors.make_profile(
                ph.stressor, ph.intensity, self.data_base,
                name=f"scn/p{self.idx}/ph{j}/{ph.stressor}:{ph.intensity}",
                params=ph.params_dict,
            )
            builder = TraceBuilder(
                profile, seed=derive_seed(self._seed, "scenario", self.idx, j)
            )
            gen = builder.generate()
            self._gens[j] = gen
        return gen

    def pull(self) -> tuple[UOp, int, int]:
        """Next (uop, phase_index, pc_offset); advances the schedule."""
        j = self.phase
        uop = next(self._gen(j))
        self.consumed[j] += 1
        self._in_phase += 1
        phases = self.program.phases
        if phases[j].length and self._in_phase == phases[j].length:
            self._in_phase = 0
            if j + 1 < len(phases):
                self.phase = j + 1
            elif self.program.schedule == "loop":
                self.phase = 0
            # "hold": stay in the final phase (its generator persists)
        return uop, j, self._pc_base + j * PC_PHASE_SPACING


class ScenarioStream:
    """Endless deterministic uop stream compiled from a Scenario.

    Iterating yields dense-``seq`` uops.  Phase switching is driven by
    *consumed* uop counts, so any consumer -- full pipeline, sampler skip
    gaps, warm-up engines -- observes identical switch points.  The
    stream records its phase history for the sampling report and tests:
    :meth:`phase_counts` and :meth:`switch_points`.
    """

    def __init__(self, scenario: Scenario, seed: int = 1):
        self.scenario = scenario
        self.seed = seed
        self._states = [
            _ProgramState(scenario, i, seed)
            for i in range(len(scenario.programs))
        ]
        self._multi = len(self._states) > 1
        self._rr = 0
        self._chunk_left = scenario.interleave
        self._seq = 0
        self._switches: list[tuple[int, int, int]] = []

    def __iter__(self) -> "ScenarioStream":
        return self

    def __next__(self) -> UOp:
        st = self._states[self._rr]
        if self._multi:
            self._chunk_left -= 1
            if self._chunk_left == 0:
                self._chunk_left = self.scenario.interleave
                self._rr = (self._rr + 1) % len(self._states)
        uop, phase, pc_off = st.pull()
        seq = self._seq
        self._seq = seq + 1
        if phase != st.prev_phase:
            self._switches.append((seq, st.idx, phase))
            st.prev_phase = phase
        if self._multi:
            src1 = self._remap(st, uop.src1, seq)
            src2 = self._remap(st, uop.src2, seq)
            st.positions.append(seq)
        else:
            src1, src2 = uop.src1, uop.src2
        return UOp(
            seq, uop.pc + pc_off, uop.op, src1=src1, src2=src2,
            addr=uop.addr, size=uop.size, taken=uop.taken,
            target=uop.target + pc_off if uop.target else 0,
        )

    @staticmethod
    def _remap(st: _ProgramState, dist: int, seq: int) -> int:
        """Program-local producer distance -> merged-stream distance."""
        if dist <= 0:
            return 0
        if dist > len(st.positions):
            return 0  # producer predates the stream: value is architected
        return seq - st.positions[-dist]

    # -- phase telemetry ------------------------------------------------------

    def phase_counts(self) -> list[list[int]]:
        """Uops consumed per [program][phase] so far."""
        return [list(st.consumed) for st in self._states]

    def switch_points(self) -> list[tuple[int, int, int]]:
        """(merged seq, program index, new phase index) switch events."""
        return list(self._switches)

    def take(self, n: int) -> list[UOp]:
        """First ``n`` uops as a list (testing/verify aid)."""
        return [next(self) for _ in range(n)]
