"""Vectorized functional fast-forward warming (the sampling skip path).

:class:`VectorWarmEngine` replays a whole skip gap at once from columnar
arrays (one numpy record batch per gap, see
:meth:`repro.trace.format.TraceStream.take_batch`) instead of pushing
every skipped uop through a Python closure.  It is **bit-identical** to
the scalar reference engine
(:class:`repro.trace.sampling.ScalarWarmEngine`): after any batch
sequence, every warmed structure -- L1 caches, TLBs, hybrid predictor,
BTB -- holds exactly the state the per-uop replay would have left, LRU
clocks and all.  The equivalence tier
(``tests/test_fastwarm_equivalence.py``) enforces this over the verify
fuzzer's profiles plus the Spike fixture by comparing
:func:`warm_state_dump` snapshots and merged ``SimResult``\\ s.

How exact vectorization is possible
-----------------------------------

* **Per-structure decomposition.**  Warming touches structures that
  never read each other: the I-side (ITLB + L1I) sees only the
  line-change-filtered pc stream, the D-side (DTLB + L1D) only memory
  ops, the predictor/BTB only branches.  Bit-identity therefore reduces
  to sequential equivalence per structure over its own subsequence.
* **Run collapsing.**  Within one cache set (or one TLB), consecutive
  accesses to the same tag (page) are guaranteed hits -- nothing else
  touched the set in between -- and collapse to ``dirty |= any-write,
  lru = last clock``.  Only tag *transitions* need the exact LRU walk,
  done in a small Python loop whose trip count tracks locality misses,
  not accesses.
* **Closed-form saturating counters.**  A 2-bit counter hit by a
  sequence of +-1 steps ``d_j`` evolves as ``x_j = min(3 + S_j - M_j,
  max(S_j - m_j, x0 + S_j))`` with ``S`` the prefix sum and ``M``/``m``
  its running max/min -- segmented scans give every intermediate value
  (needed because the tournament selector trains on the components'
  *pre-update* predictions) in a handful of array ops.
* **Deferred eviction callbacks.**  L1D evictions must fire the LSQ's
  presentBit-invalidation hook in access order; the kernel collects
  ``(global position, set, line)`` events and fires them sorted after
  the batch.  The hook only clears LSQ-side cached locations -- it
  cannot feed back into cache state, and no pipeline activity
  interleaves within a skip gap, so deferral is exact.  A hook that
  declares itself idempotent per set and blind to the line address
  (``LSQBase.evict_hook_set_idempotent``, true for every shipped LSQ)
  further collapses to one call per touched set: repeated clears of the
  same set are a fixed point, and nothing observes the intermediate
  states inside a gap.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.common.bitutils import ilog2
from repro.isa.opclasses import OpClass
from repro.trace.format import record_dtype

RECORD_DTYPE = record_dtype()

_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_BRANCH = int(OpClass.BRANCH)


def uops_to_batch(uops):
    """Columnar record batch from a list of UOps (generic-source path).

    Only the fields the warm engines read (pc/addr/target/op/flags) are
    populated; producer distances play no part in functional warming.
    """
    rec = np.zeros(len(uops), dtype=RECORD_DTYPE)
    rec["pc"] = [u.pc for u in uops]
    rec["addr"] = [u.addr for u in uops]
    rec["target"] = [u.target for u in uops]
    rec["op"] = [int(u.op) for u in uops]
    rec["flags"] = [1 if u.taken else 0 for u in uops]
    return rec


class VectorWarmEngine:
    """Batched functional warmer, bit-identical to the scalar reference."""

    name = "vector"

    def __init__(self, pipe):
        self._mem = pipe.mem
        self._predictor = pipe.predictor
        self._btb = pipe.btb
        self._iline_shift = np.uint64(pipe.mem.l1i.line_shift)
        self._last_iline = -1  # -1 forces the next uop's I-side access
        self.warmed = {"uops": 0, "iside": 0, "dside": 0, "branches": 0}

    def totals(self) -> dict:
        """Warm-traffic totals (``extra["sampling"]["warm"]``)."""
        return dict(self.warmed)

    def warm_batch(self, rec) -> None:
        """Warm every structure with one columnar gap batch (in order)."""
        n = len(rec)
        if n == 0:
            return
        pc = rec["pc"]
        op = rec["op"]
        is_branch = op == _BRANCH
        taken = is_branch & ((rec["flags"] & 1) != 0)

        # I-side: one access per line change, like the fetch stage; a
        # taken branch forces the next uop to re-access its line.
        iline = pc >> self._iline_shift
        acc = np.empty(n, dtype=bool)
        acc[0] = self._last_iline < 0 or bool(
            np.uint64(self._last_iline) != iline[0]
        )
        acc[1:] = (iline[1:] != iline[:-1]) | taken[:-1]
        self._last_iline = -1 if taken[-1] else int(iline[-1])
        ipc = pc[acc]

        is_mem = (op == _LOAD) | (op == _STORE)
        daddr = rec["addr"][is_mem]
        dwrite = op[is_mem] == _STORE

        mem = self._mem
        _warm_tlb(mem.itlb, ipc)
        _warm_cache(mem.l1i, ipc >> np.uint64(mem.l1i.line_shift), None)
        _warm_tlb(mem.dtlb, daddr)
        _warm_cache(mem.l1d, daddr >> np.uint64(mem.l1d.line_shift), dwrite)

        nbr = int(is_branch.sum())
        if nbr:
            bpc = pc[is_branch]
            btaken = taken[is_branch]
            _warm_predictor(self._predictor, bpc, btaken)
            if btaken.any():
                _warm_btb(self._btb, bpc[btaken], rec["target"][is_branch][btaken])

        w = self.warmed
        w["uops"] += n
        w["iside"] += int(acc.sum())
        w["dside"] += len(daddr)
        w["branches"] += nbr


# ---------------------------------------------------------------------------
# structure kernels
# ---------------------------------------------------------------------------

def _warm_tlb(tlb, addrs) -> None:
    """Replay translations through ``tlb`` with scalar-identical state.

    Clock values are positional (``clk0 + i + 1`` whatever the outcome),
    so a page's final map value is just the clock of its last use.  The
    whole batch then collapses to one closed form: a fully-associative
    LRU's content is always the ``entries`` most-recently-used pages
    (induction: a hit reorders within the set, a miss inserts the new
    maximum and evicts the minimum; a page outside the TLB can only
    re-enter by being accessed, which re-clocks it), so the final state
    is the last-occurrence scatter of the batch merged over the existing
    map, truncated to the ``entries`` newest clocks.  Clocks are unique
    (one per access, and a page keeps only its last), so the truncation
    is tie-free and matches the sequential evictions exactly.
    """
    n = len(addrs)
    if n == 0:
        return
    vpn = addrs >> np.uint64(tlb.page_shift)
    clk0 = tlb._clock
    tmap = tlb._map
    uniq, ridx = np.unique(vpn[::-1], return_index=True)
    tmap.update(zip(uniq.tolist(), (clk0 + n - ridx).tolist()))
    excess = len(tmap) - tlb.entries
    if excess > 0:
        for p in heapq.nsmallest(excess, tmap, key=tmap.__getitem__):
            del tmap[p]
    tlb._clock = clk0 + n


def _warm_cache(cache, lines, writes) -> None:
    """Replay line accesses through ``cache`` with scalar-identical state.

    LRU comparisons only happen within a set and the clock value of
    access ``i`` is ``clk0 + i + 1`` regardless of outcome, so each
    set's subsequence replays independently with precomputed clocks.
    Within a set, consecutive same-tag accesses collapse to their run's
    last clock / OR of writes; only tag transitions replay, against the
    set's state loaded once into parallel scalar lists (list.index and
    min run at C speed, and line objects are written back once per set
    instead of once per run).
    """
    n = len(lines)
    if n == 0:
        return
    clk0 = cache._clock
    set_bits = cache.set_bits
    set_idx = (lines & np.uint64(cache.set_mask)).astype(np.int64)
    tags = lines >> np.uint64(set_bits)
    order = np.argsort(set_idx, kind="stable")
    s_sets = set_idx[order]
    s_tags = tags[order]
    s_clk = clk0 + 1 + order  # global access clock, grouped by set
    bnd = np.empty(n, dtype=bool)
    bnd[0] = True
    bnd[1:] = (s_sets[1:] != s_sets[:-1]) | (s_tags[1:] != s_tags[:-1])
    starts = np.flatnonzero(bnd)
    ends = np.append(starts[1:], n)
    run_set = s_sets[starts].tolist()
    run_tag = s_tags[starts].tolist()
    run_lru = s_clk[ends - 1].tolist()
    if writes is None:
        run_wr = [False] * len(starts)
    else:
        run_wr = np.logical_or.reduceat(writes[order], starts).tolist()
    run_pos = s_clk[starts].tolist()  # global-order key for evictions
    sets = cache._sets
    cb = cache.on_evict
    # an LSQ hook that is idempotent per set and blind to the line
    # address (see ``LSQBase.evict_hook_set_idempotent``) collapses a
    # gap's eviction burst to one call per touched set -- exact, because
    # nothing reads the cleared state within a skip gap
    dedup = cb is not None and getattr(
        getattr(cb, "__self__", None), "evict_hook_set_idempotent", False
    )
    evicts = []  # (global pos, set, line) -- exact-order fallback mode
    set_first = {}  # set -> first evicted line -- deduplicated mode
    nruns = len(starts)
    k = 0
    while k < nruns:
        si = run_set[k]
        end = k
        while end < nruns and run_set[end] == si:
            end += 1
        # replay the set's whole run subsequence on parallel scalar
        # lists (C-speed .index()/min()) and write the lines back once;
        # invalid ways carry tag None so an integer tag can never match
        ways = sets[si]
        if ways is None:
            ways = cache._build_set(si)
        vtag = [ln.tag if ln.valid else None for ln in ways]
        vlru = [ln.lru for ln in ways]
        vdirty = [ln.dirty for ln in ways]
        vpres = [ln.present_bit for ln in ways]
        free = [w for w, t in enumerate(vtag) if t is None]
        first_evict = None
        for r in range(k, end):
            tag = run_tag[r]
            wr = run_wr[r]
            if tag in vtag:
                w = vtag.index(tag)
                vlru[w] = run_lru[r]
                if wr:
                    vdirty[w] = True
            else:
                if free:
                    w = free.pop(0)  # first invalid way, like the scalar walk
                else:
                    # clocks are unique, so min() is tie-free; .index()
                    # matches the scalar walk's first-lowest preference
                    w = vlru.index(min(vlru))
                    if cb is not None:
                        line_addr = (vtag[w] << set_bits) | si
                        if dedup:
                            if first_evict is None:
                                first_evict = line_addr
                        else:
                            evicts.append((run_pos[r], si, line_addr))
                vtag[w] = tag
                vdirty[w] = wr
                vpres[w] = False
                vlru[w] = run_lru[r]
        for w, ln in enumerate(ways):
            if vtag[w] is not None:
                ln.tag = vtag[w]
                ln.valid = True
                ln.lru = vlru[w]
                ln.dirty = vdirty[w]
                ln.present_bit = vpres[w]
        if first_evict is not None:
            set_first[si] = first_evict
        k = end
    cache._clock = clk0 + n
    if set_first:
        for si in sorted(set_first):
            cb(si, set_first[si])
    elif evicts:
        evicts.sort()
        for _, si, line_addr in evicts:
            cb(si, line_addr)


def _sat_walk(table, idx, d):
    """Evolve 2-bit saturating counters at ``idx`` by +-1 steps ``d``.

    Steps are applied in sequence order; returns the counter value seen
    *before* each step (what ``predict`` would have returned) and writes
    the final values back into ``table`` (a bytearray, mutated through a
    writable numpy view).

    A clamped walk has no closed form in prefix extremes alone (running
    max/min forget barrier bounces), but each step *is* the monotone map
    ``x -> min(3, max(0, x + d))``, and shift-and-clamp maps compose
    into shift-and-clamp maps:

        (G o F)(x) = min(B'', max(A'', x + S''))  where
        S'' = S_F + S_G
        B'' = min(B_G, max(A_G, B_F + S_G))
        A'' = min(B'', max(A_G, A_F + S_G))

    so a segmented Hillis-Steele scan over that composition yields, for
    every position, the exact head-to-here map in O(log segment) vector
    passes; applying it to the table's entry value gives the exact
    post-step state.
    """
    m = len(idx)
    if m == 0:
        return np.empty(0, dtype=np.int64)
    tbl = np.frombuffer(table, dtype=np.uint8)
    order = np.argsort(idx, kind="stable")
    gi = idx[order]
    head = np.empty(m, dtype=bool)
    head[0] = True
    head[1:] = gi[1:] != gi[:-1]
    S = d[order].astype(np.int64)
    A = np.zeros(m, dtype=np.int64)
    B = np.full(m, 3, dtype=np.int64)
    f = head.copy()
    k = 1
    while k < m:
        can = np.flatnonzero(~f[k:])
        if len(can):
            i = can + k
            j = i - k
            s2, a2, b2 = S[i], A[i], B[i]
            b_new = np.minimum(b2, np.maximum(a2, B[j] + s2))
            S[i] = S[j] + s2
            A[i] = np.minimum(b_new, np.maximum(a2, A[j] + s2))
            B[i] = b_new
        f[k:] |= f[:-k].copy()
        if f.all():
            break
        k <<= 1
    x0 = tbl[gi].astype(np.int64)
    after = np.minimum(B, np.maximum(A, x0 + S))
    before = np.empty(m, dtype=np.int64)
    before[1:] = after[:-1]
    starts = np.flatnonzero(head)
    before[starts] = x0[starts]
    ends = np.append(starts[1:], m) - 1
    tbl[gi[ends]] = after[ends].astype(np.uint8)
    out = np.empty(m, dtype=np.int64)
    out[order] = before
    return out


def _warm_predictor(pred, pcs, takens) -> None:
    """Vectorized ``HybridPredictor.update(pc, taken, predicted=None)``.

    Falls back to the scalar loop for non-hybrid predictors (none are
    configured today, but the engine must not silently corrupt one).
    """
    gsh = getattr(pred, "gshare", None)
    bim = getattr(pred, "bimodal", None)
    if gsh is None or bim is None:  # pragma: no cover - defensive
        for pc, taken in zip(pcs.tolist(), takens.tolist()):
            pred.update(pc, bool(taken), predicted=None)
        return
    n = len(pcs)
    d = np.where(takens, 1, -1).astype(np.int64)
    # global-history value before each branch, via bit-window packing:
    # the history register is a sliding window over (h0's bits oldest
    # -first, then the batch outcomes), MSB = oldest
    hist_bits = gsh._hist_mask.bit_length()
    h0 = gsh._history
    bits = np.empty(hist_bits + n, dtype=np.int64)
    for j in range(hist_bits):
        bits[j] = (h0 >> (hist_bits - 1 - j)) & 1
    bits[hist_bits:] = takens
    win = np.lib.stride_tricks.sliding_window_view(bits, hist_bits)
    weights = (np.int64(1) << np.arange(hist_bits - 1, -1, -1, dtype=np.int64))
    hist = win @ weights  # hist[i] = history before branch i; hist[n] = final
    gsh._history = int(hist[n])
    gidx = (
        ((pcs >> np.uint64(gsh._shift)) ^ hist[:n].astype(np.uint64))
        & np.uint64(gsh._index_mask)
    ).astype(np.int64)
    g_before = _sat_walk(gsh._table, gidx, d)
    bidx = (
        (pcs >> np.uint64(bim._shift)) & np.uint64(bim._index_mask)
    ).astype(np.int64)
    b_before = _sat_walk(bim._table, bidx, d)
    # tournament selector: train only on component disagreement, toward
    # the component that was right, using *pre-update* predictions
    dis = (g_before >= 2) != (b_before >= 2)
    if dis.any():
        sidx = (
            (pcs[dis] >> np.uint64(pred._shift)) & np.uint64(pred._sel_mask)
        ).astype(np.int64)
        sd = np.where((g_before[dis] >= 2) == takens[dis], 1, -1).astype(np.int64)
        _sat_walk(pred._selector, sidx, sd)


def _warm_btb(btb, pcs, targets) -> None:
    """Vectorized BTB update stream for taken branches.

    Per set, a burst of updates leaves: the updated tags ordered by
    *last* update (most recent first, each with its latest target),
    then the surviving old entries in their old order, truncated to the
    associativity -- assembled directly from a keep-last dedupe.
    """
    key = pcs >> np.uint64(btb._shift)
    sidx = (key & np.uint64(btb._set_mask)).astype(np.int64)
    if btb._num_sets > 1:
        tag = key >> np.uint64(ilog2(btb._num_sets))
    else:
        tag = key
    order = np.argsort(sidx, kind="stable")
    s_s = sidx[order].tolist()
    s_t = tag[order].tolist()
    s_g = targets[order].tolist()
    sets = btb._sets
    assoc = btb._assoc
    m = len(s_s)
    i = 0
    while i < m:
        si = s_s[i]
        j = i
        while j < m and s_s[j] == si:
            j += 1
        seen = set()
        fresh = []
        for p in range(j - 1, i - 1, -1):
            t = s_t[p]
            if t not in seen:
                seen.add(t)
                fresh.append((t, s_g[p]))
        fresh.extend(e for e in sets[si] if e[0] not in seen)
        del fresh[assoc:]
        sets[si] = fresh
        i = j


def warm_state_dump(pipe) -> dict:
    """Snapshot every structure functional warming can touch (plus the
    L2, which detailed windows touch) -- the equivalence tier's and CI
    trace-smoke's divergence oracle: two sampled runs behaved
    bit-identically iff their dumps and merged results are equal."""
    mem = pipe.mem
    return {
        "l1i": mem.l1i.state_dump(),
        "l1d": mem.l1d.state_dump(),
        "l2": mem.l2.state_dump(),
        "itlb": mem.itlb.state_dump(),
        "dtlb": mem.dtlb.state_dump(),
        "predictor": pipe.predictor.state_dump(),
        "btb": pipe.btb.state_dump(),
    }
