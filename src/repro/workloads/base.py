"""Workload profiles and the synthetic trace builder.

A :class:`WorkloadProfile` describes a benchmark as a tiny static program:
``n_blocks`` basic blocks of ``block_len`` instruction slots.  Each slot is
statically a load, store, compute op or branch (as in real code); memory
slots are bound to an address pattern, branch slots to a takenness bias.
:class:`TraceBuilder` then "executes" this program, producing the dynamic
stream the pipeline consumes: a :class:`SyntheticStream` that yields
:class:`~repro.isa.uop.UOp`\\ s and also drains columnar record batches.

This static-program structure matters: branch predictors and the
SAMIE-LSQ both exploit *per-site* regularity, which purely random streams
would destroy.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.common.rng import make_rng
from repro.isa.opclasses import OpClass
from repro.isa.uop import UOp
from repro.workloads.patterns import AddressPattern

CODE_BASE = 0x0040_0000

#: draws per refill of the uniform (branch) and dependence buffers
_REFILL = 8192
#: uops executed per chunk when ``next()`` runs dry, and the most one
#: chunk holds when ``take_batch`` asks for more
_CHUNK = 2048
_BATCH_CHUNK = 32768
#: UOp objects ``next()`` builds at a time from the current chunk
_UOPS = 256

#: op-class members indexed by their record code
_OPS = np.array([OpClass(i) for i in range(len(OpClass))], dtype=object)


@dataclass
class WorkloadProfile:
    """Static description of one synthetic benchmark."""

    name: str
    suite: str  # "int" | "fp"
    #: fraction of instruction slots that are memory operations
    mem_frac: float = 0.35
    #: fraction of memory slots that are stores
    store_frac: float = 0.33
    #: fraction of slots that are (extra, data-dependent) branches;
    #: loop-closing branches are added automatically at block ends
    branch_frac: float = 0.04
    #: fraction of data-dependent branch *sites* that are hard to predict
    hard_site_frac: float = 0.25
    #: takenness bias of hard branch sites (0.5 = unpredictable)
    hard_bias: float = 0.35
    #: loop-closing branch takenness (iterations ~ 1/(1-bias))
    loop_bias: float = 0.92
    #: weights over compute classes for non-mem non-branch slots
    compute_mix: dict[OpClass, float] = field(
        default_factory=lambda: {OpClass.INT_ALU: 1.0}
    )
    #: mean register-dependence distance (higher = more ILP); distances
    #: are capped at ``dep_max``, which must fit the 16-bit record field
    dep_mean: float = 10.0
    dep_max: int = 48
    #: static program shape
    n_blocks: int = 8
    block_len: int = 24
    #: factory creating fresh (weight, pattern) mixtures for a trace
    make_patterns: Callable[[], list[tuple[float, AddressPattern]]] = field(
        default_factory=lambda: (lambda: [])
    )
    #: free-text note on what this profile models
    note: str = ""


def _choice_cdf(probs: np.ndarray) -> list[float]:
    """The normalized cdf ``Generator.choice(k, p=probs)`` searches: a
    draw ``u = rng.random()`` picks ``bisect_right(cdf, u)``."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


class _Slot:
    __slots__ = ("kind", "op", "pattern", "bias", "target", "pc")

    def __init__(self, kind: str, pc: int):
        self.kind = kind  # "mem" | "compute" | "branch"
        self.op: OpClass | None = None
        self.pattern: AddressPattern | None = None
        self.bias = 0.0
        self.target = 0  # slot index for taken branches
        self.pc = pc


class TraceBuilder:
    """Builds the static program of a profile and executes it in columns.

    :meth:`generate` returns the endless dynamic stream as a
    :class:`SyntheticStream`.  Execution works a chunk at a time: control
    flow is walked once per executed branch, the straight-line run up to
    each branch is filled from per-slot tables (pc, op, dependence count,
    pattern), and the builder's rng is replayed in the order of the
    per-uop definition of the stream, so the stream depends on
    ``(profile, seed)`` only, never on how it is consumed:

    1. each branch takes one uniform from a buffer; the branch that finds
       it empty refills it with ``rng.random(8192)``;
    2. a memory op draws from its address pattern (if that access draws)
       before its dependence draws;
    3. each uop then takes its producer distances (one for branches and
       loads, two for stores and compute ops) from a buffer refilled with
       ``rng.geometric(p, 8192)`` at every 8192nd draw.

    DESIGN.md §4.2 states this contract.
    """

    def __init__(self, profile: WorkloadProfile, seed: int = 1):
        # not at module load: repro.trace imports the workload registry
        from repro.trace.format import MAX_SRC_DISTANCE, record_dtype

        if not 0 <= profile.dep_max <= MAX_SRC_DISTANCE:
            raise ValueError(
                f"profile {profile.name}: dep_max {profile.dep_max} outside "
                f"[0, {MAX_SRC_DISTANCE}]"
            )
        self.profile = profile
        self.seed = seed
        self._rng = make_rng(seed, profile.name, "exec")
        self._build_rng = make_rng(seed, profile.name, "build")
        self._patterns = profile.make_patterns()
        if not self._patterns:
            raise ValueError(f"profile {profile.name} has no address patterns")
        weights = np.array([w for w, _ in self._patterns], dtype=float)
        self._pattern_probs = weights / weights.sum()
        self._slots = self._build_program()
        self._dtype = record_dtype()
        self._tables()
        # rng buffers (one numpy call per 8192 draws)
        self._uniform_buf = np.empty(0)
        self._uniform_pos = 0
        self._dep_buf = np.empty(0, dtype=np.int64)
        self._dep_pos = 0
        self._dep_p = min(1.0, 1.0 / max(profile.dep_mean, 1.0))

    # -- static program ------------------------------------------------------
    def _build_program(self) -> list[_Slot]:
        p = self.profile
        rng = self._build_rng
        slots: list[_Slot] = []
        total = p.n_blocks * p.block_len
        compute_ops = list(p.compute_mix)
        compute_w = np.array([p.compute_mix[o] for o in compute_ops], dtype=float)
        compute_w /= compute_w.sum()
        # weighted choices draw exactly as ``rng.choice(k, p=w)`` does
        # (one random(), located in the normalized cdf) without
        # re-validating ``w`` on every call
        pattern_cdf = _choice_cdf(self._pattern_probs)
        compute_cdf = _choice_cdf(compute_w)
        for i in range(total):
            pc = CODE_BASE + 4 * i
            last_in_block = (i + 1) % p.block_len == 0
            if last_in_block:
                s = _Slot("branch", pc)
                s.bias = p.loop_bias
                s.target = (i + 1 - p.block_len) % total  # back to block start
                slots.append(s)
                continue
            r = rng.random()
            if r < p.branch_frac:
                s = _Slot("branch", pc)
                if rng.random() < p.hard_site_frac:
                    s.bias = p.hard_bias  # data-dependent, poorly predicted
                else:
                    s.bias = float(rng.uniform(0.02, 0.08))  # strongly biased site
                # short forward skip within the block
                skip = int(rng.integers(2, 6))
                s.target = min(i + skip, (i // p.block_len + 1) * p.block_len - 1)
            elif r < p.branch_frac + p.mem_frac:
                s = _Slot("mem", pc)
                s.op = (
                    OpClass.STORE
                    if rng.random() < p.store_frac
                    else OpClass.LOAD
                )
                pat_idx = bisect_right(pattern_cdf, rng.random())
                s.pattern = self._patterns[pat_idx][1]
            else:
                s = _Slot("compute", pc)
                s.op = compute_ops[bisect_right(compute_cdf, rng.random())]
            slots.append(s)
        return slots

    def _tables(self) -> None:
        """Per-slot tables for the fill and lists for the branch walk."""
        slots = self._slots
        total = len(slots)
        # one stream state per pattern object, however many entries share it
        objs = list({id(p): p for _, p in self._patterns}.values())
        index = {id(p): k for k, p in enumerate(objs)}
        self._pattern_objs = objs
        bounds = [p.draw_bounds or (0, 1) for p in objs]
        self._draw_lo = np.array([lo for lo, _ in bounds], dtype=np.int64)
        self._draw_hi = np.array([hi for _, hi in bounds], dtype=np.int64)
        ops = [OpClass.BRANCH if s.kind == "branch" else s.op for s in slots]
        self._pc = np.array([s.pc for s in slots], dtype=np.uint64)
        self._op = np.array([int(op) for op in ops], dtype=np.uint8)
        self._ndep = np.array(
            [1 if op in (OpClass.BRANCH, OpClass.LOAD) else 2 for op in ops],
            dtype=np.int64,
        )
        self._pat = np.array(
            [-1 if s.pattern is None else index[id(s.pattern)] for s in slots],
            dtype=np.int64,
        )
        self._target_pc = np.array(
            [slots[s.target].pc if s.kind == "branch" else 0 for s in slots],
            dtype=np.uint64,
        )
        self._bias = [s.bias for s in slots]
        self._target = [s.target for s in slots]
        # every block ends in a branch, so each slot has one at or after it
        self._next_branch = [0] * total
        nxt = total - 1
        for i in range(total - 1, -1, -1):
            if slots[i].kind == "branch":
                nxt = i
            self._next_branch[i] = nxt

    # -- dynamic execution -------------------------------------------------------
    def generate(self) -> "SyntheticStream":
        """Endless dynamic uop stream (the pipeline bounds the run)."""
        return SyntheticStream(self)

    def generate_n(self, n: int) -> list[UOp]:
        """First ``n`` uops as a list (testing aid)."""
        stream = self.generate()
        return [next(stream) for _ in range(n)]

    def _execute(self, slot: int, want: int) -> tuple[np.ndarray, int]:
        """Run the program from ``slot`` for about ``want`` uops.

        Returns ``(records, slot)``: the uops as a read-only
        ``record_dtype()`` array (at least one) and the slot to resume
        at.  The chunk ends at the first branch after ``want`` uops, or
        just before a branch that needs a uniform refill, so that refill
        follows every earlier draw.
        """
        next_branch, bias, target = self._next_branch, self._bias, self._target
        total = len(next_branch)
        # a chunk takes at most `want` uniforms: one per branch
        upos = self._uniform_pos
        u = self._uniform_buf[upos:upos + want].tolist()
        k = 0
        starts: list[int] = []
        ends: list[int] = []
        taken: list[bool] = []
        n = 0
        c = slot
        while n < want:
            b = next_branch[c]
            if k == len(u):  # the uniform buffer is empty
                if n or b > c:
                    if b > c:  # the straight run up to the refill branch
                        starts.append(c)
                        ends.append(b - 1)
                    c = b
                    break
                self._uniform_buf = self._rng.random(_REFILL)
                upos = 0
                u = self._uniform_buf[:want].tolist()
            t = u[k] < bias[b]
            k += 1
            starts.append(c)
            ends.append(b)
            taken.append(t)
            n += b - c + 1
            c = target[b] if t else (b + 1) % total
        self._uniform_pos = upos + k
        return self._fill(starts, ends, taken), c

    def _fill(self, starts: list[int], ends: list[int], taken: list[bool]) -> np.ndarray:
        """Records of the slot runs ``starts[i]..ends[i]``.

        Run ``i`` ends in a branch with outcome ``taken[i]``; a last run
        beyond ``len(taken)`` stops short of its branch.
        """
        first = np.array(starts, dtype=np.int64)
        length = np.array(ends, dtype=np.int64) - first + 1
        end = np.cumsum(length)
        n = int(end[-1])
        slot = np.arange(n) + np.repeat(first - (end - length), length)

        rec = np.zeros(n, dtype=self._dtype)
        rec["pc"] = self._pc[slot]
        rec["op"] = self._op[slot]
        hit = (end[: len(taken)] - 1)[np.array(taken, dtype=bool)]
        rec["flags"][hit] = 1
        rec["target"][hit] = self._target_pc[slot[hit]]

        # which memory ops draw from their pattern, in uop order
        pat = self._pat[slot]
        where = [np.flatnonzero(pat == k) for k in range(len(self._pattern_objs))]
        drawing = np.zeros(n, dtype=bool)
        for pattern, pos in zip(self._pattern_objs, where):
            if pattern.draw_bounds is not None:
                drawing[pos] = pattern.draw_mask(len(pos))
        at = np.flatnonzero(drawing)
        pat_at = pat[at]

        # replay the rng: the pattern draws in uop order, and each
        # dependence refill right after the pattern draw of its uop
        ndep = self._ndep[slot]
        dend = np.cumsum(ndep)
        need = int(dend[-1])
        rng = self._rng
        lo, hi = self._draw_lo[pat_at], self._draw_hi[pat_at]
        draws = np.empty(len(at), dtype=np.int64)
        bufs = [self._dep_buf[self._dep_pos:]]
        done = 0
        for d in range(len(bufs[0]), need, _REFILL):
            # the uop taking dependence draw d finds the buffer empty
            refiller = np.searchsorted(dend, d, side="right")
            cut = int(np.searchsorted(at, refiller, side="right"))
            if cut > done:
                draws[done:cut] = rng.integers(lo[done:cut], hi[done:cut])
                done = cut
            bufs.append(np.minimum(rng.geometric(self._dep_p, _REFILL),
                                   self.profile.dep_max))
        if done < len(at):
            draws[done:] = rng.integers(lo[done:], hi[done:])
        deps = np.concatenate(bufs) if len(bufs) > 1 else bufs[0]
        self._dep_buf = bufs[-1]
        self._dep_pos = len(bufs[-1]) - (len(deps) - need)

        src = dend - ndep
        rec["src1"] = deps[src]
        two = ndep == 2
        rec["src2"][two] = deps[src[two] + 1]
        for k, (pattern, pos) in enumerate(zip(self._pattern_objs, where)):
            if len(pos):
                addr, size = pattern.next_accesses(len(pos), draws[pat_at == k])
                rec["addr"][pos] = addr
                rec["size"][pos] = size
        rec.flags.writeable = False
        return rec


class SyntheticStream:
    """The dynamic stream of a :class:`TraceBuilder`: one cursor, two views.

    ``next()`` yields :class:`~repro.isa.uop.UOp`\\ s.  :meth:`take_batch`
    drains the next ``n`` uops as one ``record_dtype()`` array without
    building any, like :meth:`repro.trace.format.TraceStream.take_batch`;
    the pipeline's fetch stage and the sampled-replay skip path use it,
    and ``next()`` serves every other consumer.  Both read the same
    chunk of executed records, so they may be freely interleaved, and
    every consumption order sees the same stream.
    """

    def __init__(self, builder: TraceBuilder):
        self._builder = builder
        self._slot = 0   # next static slot to execute
        self._rec = np.empty(0, dtype=builder._dtype)  # the current chunk
        self._i = 0      # chunk position of _uops[0]
        self._seq = 0    # seq of _uops[0]
        self._uops: list[UOp] = []  # built from the chunk at _i
        self._r = 0      # of _uops, those already yielded

    def __iter__(self) -> "SyntheticStream":
        return self

    def __next__(self) -> UOp:
        r = self._r
        uops = self._uops
        if r == len(uops):
            uops = self._build_uops()
            r = 0
        self._r = r + 1
        return uops[r]

    def _sync(self) -> None:
        """Drop the unread built uops; the cursor stays where it is."""
        self._i += self._r
        self._seq += self._r
        self._uops = []
        self._r = 0

    def _load(self, want: int) -> None:
        self._rec, self._slot = self._builder._execute(self._slot, want)
        self._i = 0

    def _build_uops(self) -> list[UOp]:
        self._sync()
        if self._i == len(self._rec):
            self._load(_CHUNK)
        rec = self._rec[self._i:self._i + _UOPS]
        self._uops = list(map(
            UOp, range(self._seq, self._seq + len(rec)), rec["pc"].tolist(),
            _OPS[rec["op"]].tolist(), rec["src1"].tolist(), rec["src2"].tolist(),
            rec["addr"].tolist(), rec["size"].tolist(),
            (rec["flags"] == 1).tolist(), rec["target"].tolist(),
        ))
        return self._uops

    def take_batch(self, max_records: int):
        """The next ``max_records`` uops as one record array.

        The stream is endless, so the batch is always full.  The sequence
        cursor advances as if the uops had been iterated.
        """
        self._sync()
        parts = []
        want = max_records
        while want > 0:
            if self._i == len(self._rec):
                self._load(min(max(want, _CHUNK), _BATCH_CHUNK))
            take = min(want, len(self._rec) - self._i)
            parts.append(self._rec[self._i:self._i + take])
            self._i += take
            want -= take
        self._seq += max_records
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else self._rec[:0]
