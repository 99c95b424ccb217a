"""Static-program guard: ``TraceBuilder._build_program`` vs ``Generator.choice``.

``reference_program`` below is the static-program loop that drew each
memory slot's address pattern and each compute slot's op class with
``rng.choice(k, p=w)``, copied verbatim.  The builder now draws one
``random()`` per choice and locates it in the normalized cdf itself
(DESIGN.md §4.2); every slot of every profile must come out the same,
and the build rng must end in the same state.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.common.rng import make_rng
from repro.isa.opclasses import OpClass
from repro.scenarios.stressors import (
    INTENSITIES,
    REGION_BASE,
    STRESSOR_NAMES,
    make_profile,
)
from repro.workloads.base import CODE_BASE, TraceBuilder, WorkloadProfile
from repro.workloads.registry import get_workload, list_workloads


def reference_program(builder: TraceBuilder, seed: int):
    """The ``rng.choice`` loop, over the builder's own pattern objects.

    Returns the slots as ``(kind, op, pattern, bias, target, pc)`` tuples
    and the build rng it drew from.
    """
    p = builder.profile
    rng = make_rng(seed, p.name, "build")
    patterns = builder._patterns
    pattern_probs = builder._pattern_probs
    slots = []
    total = p.n_blocks * p.block_len
    compute_ops = list(p.compute_mix)
    compute_w = np.array([p.compute_mix[o] for o in compute_ops], dtype=float)
    compute_w /= compute_w.sum()
    for i in range(total):
        pc = CODE_BASE + 4 * i
        last_in_block = (i + 1) % p.block_len == 0
        if last_in_block:
            slots.append(("branch", None, None, p.loop_bias,
                          (i + 1 - p.block_len) % total, pc))
            continue
        op = pattern = None
        bias = 0.0
        target = 0
        r = rng.random()
        if r < p.branch_frac:
            kind = "branch"
            if rng.random() < p.hard_site_frac:
                bias = p.hard_bias
            else:
                bias = float(rng.uniform(0.02, 0.08))
            skip = int(rng.integers(2, 6))
            target = min(i + skip, (i // p.block_len + 1) * p.block_len - 1)
        elif r < p.branch_frac + p.mem_frac:
            kind = "mem"
            op = OpClass.STORE if rng.random() < p.store_frac else OpClass.LOAD
            pat_idx = int(rng.choice(len(patterns), p=pattern_probs))
            pattern = patterns[pat_idx][1]
        else:
            kind = "compute"
            op = compute_ops[int(rng.choice(len(compute_ops), p=compute_w))]
        slots.append((kind, op, pattern, bias, target, pc))
    return slots, rng


def _load_example(name: str):
    path = Path(__file__).resolve().parents[1] / "examples" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _profiles() -> dict[str, WorkloadProfile]:
    out = {name: get_workload(name) for name in list_workloads()}
    for s in STRESSOR_NAMES:
        for i in INTENSITIES:
            out[f"{s}:{i}"] = make_profile(s, i, REGION_BASE, name=f"eq/{s}:{i}")
    out["spmv"] = _load_example("custom_workload").make_profile()
    return out


PROFILES = _profiles()


def test_profile_set():
    # the 26 SPEC analogues, 21 stressor intensities and spmv
    assert len(PROFILES) == 26 + len(STRESSOR_NAMES) * len(INTENSITIES) + 1


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", list(PROFILES))
def test_static_program_matches_choice_loop(name, seed):
    builder = TraceBuilder(PROFILES[name], seed)
    want, rng = reference_program(builder, seed)
    got = [(s.kind, s.op, s.pattern, s.bias, s.target, s.pc) for s in builder._slots]
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g[0] == w[0] and g[1] is w[1] and g[2] is w[2], (name, seed, i)
        assert g[3:] == w[3:], (name, seed, i)
    # both loops made the same draws: the build streams end in one state
    assert builder._build_rng.bit_generator.state == rng.bit_generator.state
