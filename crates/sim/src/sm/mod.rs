//! The streaming multiprocessor: warp scheduler, scoreboard, LD/ST unit,
//! L1 data cache with MSHRs, barrier handling and CTA pause/unpause.
//!
//! Each SM cycle the scheduler walks resident warps oldest-block-first,
//! classifies every unpaused warp into the paper's warp states
//! ([`crate::counters::WarpState`]) and issues up to `issue_width`
//! instructions. The LD/ST unit drains one cache-line access per cycle;
//! a full LSU queue or a back-pressured interconnect leaves memory-ready
//! warps in the `ExcessMem` state — the signal Equalizer keys on.
//!
//! The implementation is organised by pipeline stage:
//!
//! - [`mod@self`] — the [`Sm`] state, per-cycle orchestration and
//!   epoch/statistics plumbing;
//! - `issue` — the scheduler walk and warp-state classification;
//! - `exec` — response delivery and the ALU/LSU execution pipelines;
//! - `blocks` — thread-block residency: launch, pause/unpause, fill and
//!   retirement.

mod blocks;
mod exec;
mod issue;

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::Arc;

use crate::cache::Cache;
use crate::ccws::CcwsState;
use crate::config::{Femtos, GpuConfig, VfLevel};
use crate::counters::{CycleSnapshot, WarpStateCounters};
use crate::gwde::Gwde;
use crate::kernel::KernelSpec;
use crate::memsys::MemSystem;
use crate::program::{AddressGen, MemInstr, Program};
use crate::warp::Warp;
use issue::ReadySet;

/// SM-side event counts, indexed by the SM-domain VF level at event time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmLevelEvents {
    /// Instructions issued.
    pub issued: u64,
    /// Arithmetic instructions issued.
    pub alu_ops: u64,
    /// Memory instructions issued to the LSU.
    pub mem_instrs: u64,
    /// L1 data cache probes.
    pub l1_accesses: u64,
    /// L1 data cache hits.
    pub l1_hits: u64,
    /// Active SM cycles (at least one resident unfinished warp).
    pub busy_cycles: u64,
}

#[derive(Debug, Clone)]
struct BlockState {
    block_index: u64,
    warp_slots: Vec<usize>,
    paused: bool,
    launch_seq: u64,
}

#[derive(Debug, Clone, Copy)]
struct LsuEntry {
    warp_slot: usize,
    /// Captured at issue so address generation stays correct even if the
    /// issuing block retires before a trailing store drains.
    warp_uid: u64,
    instr: MemInstr,
    mem_counter: u64,
    next_access: u32,
}

/// A classified LSU head access that needs the shared memory system:
/// staged by [`Sm::cycle_local`] and resolved by [`Sm::commit`], where
/// `MemSystem::can_accept` arbitration happens in the engine's rotated
/// service order regardless of how the local phase was scheduled.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingAccess {
    line: u64,
    addr: u64,
    is_load: bool,
    texture: bool,
    warp_slot: usize,
}

/// One streaming multiprocessor.
#[derive(Debug)]
pub struct Sm {
    id: usize,
    // Configuration copies (hot path).
    issue_width: usize,
    max_alu_issue: usize,
    max_mem_issue: usize,
    alu_latency: u32,
    l1_hit_latency: u32,
    lsu_cap: usize,
    mshr_cap: usize,
    sample_interval: u64,
    warp_launch_stagger: u32,
    max_block_slots_hw: usize,
    max_warps: usize,

    // Per-invocation kernel shape.
    w_cta: usize,
    resident_limit: usize,
    program: Option<Arc<Program>>,

    warps: Vec<Option<Warp>>,
    blocks: Vec<Option<BlockState>>,
    launch_seq: u64,
    sched_order: Vec<usize>,
    order_dirty: bool,

    lsu: VecDeque<LsuEntry>,
    l1: Cache,
    // Address-ordered on purpose: a hash map's iteration order is seeded
    // per-process, which would make merge/replay order — and therefore
    // cycle counts — vary run to run.
    mshr: BTreeMap<u64, Vec<usize>>,
    local_ready: BinaryHeap<Reverse<(Femtos, usize)>>,
    addr_gen: AddressGen,

    target_blocks: usize,
    cycles: u64,
    snapshot: CycleSnapshot,
    epoch: WarpStateCounters,
    run_total: WarpStateCounters,
    events: [SmLevelEvents; 3],
    /// Response tokens pre-drained from the memory system for this cycle
    /// (the SM's inbox; filled serially by the engine, consumed by the
    /// local phase).
    inbox: Vec<u64>,
    /// The LSU head access awaiting shared-queue arbitration in `commit`.
    pending: Option<PendingAccess>,
    /// Block slots completed during the local phase, retired in `commit`.
    completed_scratch: Vec<usize>,
    ccws: Option<CcwsState>,
    blocks_completed: u64,
    /// Ready-set issue walk armed (the engine sets this when
    /// [`crate::gpu::SimOptions::fast_forward`] is on); off, every cycle
    /// takes the full walk. Not serialized: restore rebuilds the engine
    /// from its own options.
    fast_issue: bool,
    /// The ready-set walk's mirror of the scheduled warps. Derived state,
    /// like `sched_order`: not serialized, rebuilt after decode.
    ready_set: ReadySet,
    /// Resident warps whose launch stagger is still counting down.
    /// Maintained incrementally at launch and on every decrement; not
    /// serialized (recomputed from the warps on decode, like
    /// `sched_order`).
    staggered: usize,
}

impl Sm {
    /// Builds an SM from the GPU configuration.
    pub fn new(id: usize, config: &GpuConfig) -> Self {
        Self {
            id,
            issue_width: config.issue_width,
            max_alu_issue: config.max_alu_issue,
            max_mem_issue: config.max_mem_issue,
            alu_latency: config.alu_latency,
            l1_hit_latency: config.l1_hit_latency,
            lsu_cap: config.lsu_queue_cap,
            mshr_cap: config.l1_mshr,
            sample_interval: config.sample_interval,
            warp_launch_stagger: config.warp_launch_stagger,
            max_block_slots_hw: config.max_blocks_per_sm,
            max_warps: config.max_warps_per_sm,
            w_cta: 1,
            resident_limit: 1,
            program: None,
            warps: vec![None; config.max_warps_per_sm],
            blocks: vec![None; config.max_blocks_per_sm],
            launch_seq: 0,
            sched_order: Vec::with_capacity(config.max_warps_per_sm),
            order_dirty: true,
            lsu: VecDeque::with_capacity(config.lsu_queue_cap),
            l1: Cache::new(config.l1),
            mshr: BTreeMap::new(),
            local_ready: BinaryHeap::new(),
            addr_gen: AddressGen::new(config.l1.line_bytes, id as u64),
            target_blocks: 1,
            cycles: 0,
            snapshot: CycleSnapshot::default(),
            epoch: WarpStateCounters::default(),
            run_total: WarpStateCounters::default(),
            events: [SmLevelEvents::default(); 3],
            inbox: Vec::new(),
            pending: None,
            completed_scratch: Vec::new(),
            ccws: config
                .ccws
                .map(|c| CcwsState::new(c, config.max_warps_per_sm)),
            blocks_completed: 0,
            fast_issue: false,
            ready_set: ReadySet::new(),
            staggered: 0,
        }
    }

    /// Arms the ready-set issue walk (engine-level `fast_forward` knob).
    /// Observationally neutral: it issues the same warps as the full walk
    /// and produces the same snapshot on every cycle; it only skips the
    /// visits to warps that cannot issue.
    pub(crate) fn set_fast_issue(&mut self, on: bool) {
        self.fast_issue = on;
    }

    /// The SM's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Prepares the SM for a new kernel invocation.
    pub fn begin_invocation(
        &mut self,
        kernel: &KernelSpec,
        invocation: usize,
        program: Arc<Program>,
    ) {
        self.w_cta = kernel.warps_per_block();
        self.resident_limit = kernel.resident_block_limit(self.max_block_slots_hw, self.max_warps);
        self.program = Some(program);
        self.warps.iter_mut().for_each(|w| *w = None);
        self.blocks.iter_mut().for_each(|b| *b = None);
        self.launch_seq = 0;
        self.order_dirty = true;
        self.ready_set.stale = true;
        self.lsu.clear();
        self.mshr.clear();
        self.local_ready.clear();
        self.inbox.clear();
        self.pending = None;
        self.completed_scratch.clear();
        self.staggered = 0;
        self.l1.flush();
        self.target_blocks = self.resident_limit;
        if let Some(ccws) = &mut self.ccws {
            ccws.reset();
        }
        self.addr_gen = AddressGen::new(
            self.l1.config().line_bytes,
            kernel
                .seed()
                .wrapping_add((self.id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add((invocation as u64) << 32),
        );
    }

    /// The effective resident-block limit for the current kernel.
    pub fn resident_limit(&self) -> usize {
        self.resident_limit
    }

    /// Warps per block of the current kernel.
    pub fn w_cta(&self) -> usize {
        self.w_cta
    }

    /// Per-level issue/cache event counts.
    pub fn events(&self) -> &[SmLevelEvents; 3] {
        &self.events
    }

    /// The L1 data cache (for hit-rate reporting).
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// The CCWS state, if cache-conscious scheduling is enabled.
    pub fn ccws(&self) -> Option<&CcwsState> {
        self.ccws.as_ref()
    }

    /// Whole-run accumulated warp-state counters (Figure 4 data).
    pub fn run_counters(&self) -> &WarpStateCounters {
        &self.run_total
    }

    /// Whether any block (active or paused) is still resident.
    pub fn busy(&self) -> bool {
        self.blocks.iter().any(Option::is_some)
    }

    /// Whether the SM has any in-flight memory state.
    pub fn quiescent(&self) -> bool {
        self.lsu.is_empty()
            && self.mshr.is_empty()
            && self.local_ready.is_empty()
            && self.inbox.is_empty()
            && self.pending.is_none()
    }

    /// Current LD/ST-unit queue occupancy (pending line accesses).
    pub fn lsu_occupancy(&self) -> usize {
        self.lsu.len()
    }

    /// Current number of allocated L1 MSHR entries (outstanding misses).
    pub fn mshr_occupancy(&self) -> usize {
        self.mshr.len()
    }

    /// Takes and resets the epoch counters.
    pub fn take_epoch(&mut self) -> WarpStateCounters {
        std::mem::take(&mut self.epoch)
    }

    /// Advances the SM by one cycle ending at `now` against the shared
    /// memory system and dispatcher.
    ///
    /// Convenience wrapper over the two-phase pair: it pre-drains the
    /// response inbox, runs [`Sm::cycle_local`] and immediately
    /// [`Sm::commit`]s. The engine runs this for every due SM on each
    /// per-tick step.
    pub fn cycle(
        &mut self,
        now: Femtos,
        level: VfLevel,
        period_fs: Femtos,
        mem: &mut MemSystem,
        gwde: &mut Gwde,
    ) {
        mem.drain_ready(self.id, now, &mut self.inbox);
        self.cycle_local(now, level, period_fs);
        self.commit(level, mem, gwde);
    }

    /// Phase 1 of a cycle: everything that only touches this SM's own
    /// state — response delivery from the pre-drained inbox, LSU head
    /// classification (fully resolving L1 hits and MSHR merges), the
    /// CCWS mask refresh and the issue stage. Accesses that need the
    /// shared interconnect/texture queues are staged in
    /// [`PendingAccess`]; completed blocks are parked for the retire
    /// stage. Touches no state outside this SM.
    pub fn cycle_local(&mut self, now: Femtos, level: VfLevel, period_fs: Femtos) {
        self.cycles += 1;
        let li = level.index();
        let mut completed_blocks = std::mem::take(&mut self.completed_scratch);
        completed_blocks.clear();

        // 1. Deliver memory responses (global/texture) and local L1 hits.
        self.respond_local(now, &mut completed_blocks);

        // 2. LD/ST unit: resolve the head access locally or classify it
        //    for the commit phase.
        self.lsu_local(now, li, period_fs);

        // 3. Refresh the CCWS issue mask periodically.
        if let Some(ccws) = &mut self.ccws {
            if self.cycles.is_multiple_of(32) {
                ccws.refresh(32);
            }
        }

        // 4. Issue stage: classify and issue warps oldest-block-first.
        self.snapshot = self.issue_stage(now, li, period_fs, &mut completed_blocks);
        self.completed_scratch = completed_blocks;
    }

    /// Phase 2 of a cycle: the serial commit against shared state. The
    /// engine calls this in the `mix64`-rotated service order, which
    /// decides interconnect arbitration, back-pressure and GWDE block
    /// dispatch.
    pub fn commit(&mut self, level: VfLevel, mem: &mut MemSystem, gwde: &mut Gwde) {
        let li = level.index();

        // 5a. Resolve the staged LSU head access against the shared
        //     queues (the only per-cycle arbitration point).
        self.commit_pending(li, mem);

        // 5b. Retire completed blocks and backfill from the dispatcher.
        if !self.completed_scratch.is_empty() {
            let mut completed = std::mem::take(&mut self.completed_scratch);
            for slot in completed.drain(..) {
                self.retire_block(slot);
            }
            self.completed_scratch = completed;
            self.fill(gwde);
        }

        // 6. Statistics (busy_cycles needs post-retire residency).
        self.account_cycle(level);
    }

    /// The per-cycle statistics half of [`Sm::commit`] (step 6): busy /
    /// idle cycle accounting and the periodic warp-state sample.
    ///
    /// Split out so batched windows can run it inside the local phase:
    /// when the engine has proven a window contains no staged access, no
    /// completed block and no VF transition, steps 5a/5b of the commit
    /// are no-ops and this is the *entire* observable effect of the
    /// commit — it touches only this SM's own counters.
    pub(crate) fn account_cycle(&mut self, level: VfLevel) {
        let snap = self.snapshot;
        if snap.active > 0 || self.busy() {
            self.events[level.index()].busy_cycles += 1;
        }
        self.epoch.cycles += 1;
        self.run_total.cycles += 1;
        if snap.issued == 0 {
            self.epoch.idle_cycles += 1;
            self.run_total.idle_cycles += 1;
        }
        if self.cycles.is_multiple_of(self.sample_interval) {
            self.epoch.sample(&snap);
            self.run_total.sample(&snap);
        }
    }

    /// How many back-to-back cycles this SM can provably run without any
    /// cross-SM interaction, assuming it is currently [`Sm::quiescent`]:
    /// the minimum, over schedulable warps, of the distance to the next
    /// memory instruction or to program completion (both *events* that
    /// need the shared commit phase — a staged [`PendingAccess`] or a
    /// block retirement/GWDE refill). Warps advance at most one
    /// instruction per cycle, so an event `d` instructions away cannot
    /// occur within `d` cycles.
    ///
    /// Paused blocks are excluded: pause state only changes at epoch
    /// boundaries (`set_target_blocks`) or in the commit phase (`fill`),
    /// neither of which can happen inside a window. Barrier-waiting
    /// warps are included at their already-advanced pc — barrier release
    /// is purely SM-local.
    ///
    /// `min` is the shortest window the engine would open: the scan
    /// stops as soon as the horizon falls below it, since the exact
    /// value of a refused horizon is never used.
    pub(crate) fn batch_horizon(&self, min: u64) -> u64 {
        // Belt and braces: a window must never start with unretired
        // blocks (commit always drains them, so this cannot fire after a
        // completed tick).
        if !self.completed_scratch.is_empty() {
            return 0;
        }
        let Some(program) = self.program.as_deref() else {
            return u64::MAX;
        };
        let mut horizon = u64::MAX;
        for warp in self.warps.iter().flatten() {
            if warp.finished {
                // Inert: an unfinished sibling keeps the block resident
                // (a fully finished block would already have retired),
                // and with no pending loads — the SM is quiescent —
                // nothing about this warp can change in-window.
                continue;
            }
            if self.blocks[warp.block_slot]
                .as_ref()
                .is_some_and(|b| b.paused)
            {
                continue;
            }
            horizon = horizon.min(program.issue_runway(warp.pc, warp.block_index));
            if horizon < min {
                break;
            }
        }
        horizon
    }

    /// Serializes the SM's dynamic state (warps, blocks, LD/ST queue,
    /// MSHRs, L1, CCWS, counters). Configuration copies are not written —
    /// decode runs on an SM freshly built from the same `GpuConfig`.
    ///
    /// Canonical forms: the MSHR `BTreeMap` iterates in key order and the
    /// local-hit heap is written as a sorted list, so two bit-identical
    /// machines encode to bit-identical bytes. The scheduler order cache
    /// (`sched_order`) is skipped entirely — it is a pure function of the
    /// resident blocks and is rebuilt on first use after decode.
    pub(crate) fn encode_state(&self, w: &mut crate::snapshot::Writer) {
        w.usize(self.w_cta);
        w.usize(self.resident_limit);
        w.bool(self.program.is_some());
        w.usize(self.warps.len());
        for slot in &self.warps {
            match slot {
                None => w.bool(false),
                Some(warp) => {
                    w.bool(true);
                    crate::warp::put_warp(w, warp);
                }
            }
        }
        w.usize(self.blocks.len());
        for slot in &self.blocks {
            match slot {
                None => w.bool(false),
                Some(b) => {
                    let BlockState {
                        block_index,
                        warp_slots,
                        paused,
                        launch_seq,
                    } = b;
                    w.bool(true);
                    w.u64(*block_index);
                    w.usize(warp_slots.len());
                    for &s in warp_slots {
                        w.usize(s);
                    }
                    w.bool(*paused);
                    w.u64(*launch_seq);
                }
            }
        }
        w.u64(self.launch_seq);
        w.usize(self.lsu.len());
        for e in &self.lsu {
            let LsuEntry {
                warp_slot,
                warp_uid,
                instr,
                mem_counter,
                next_access,
            } = e;
            w.usize(*warp_slot);
            w.u64(*warp_uid);
            crate::program::put_mem_instr(w, instr);
            w.u64(*mem_counter);
            w.u32(*next_access);
        }
        self.l1.encode(w);
        w.usize(self.mshr.len());
        for (line, waiters) in &self.mshr {
            w.u64(*line);
            w.usize(waiters.len());
            for &s in waiters {
                w.usize(s);
            }
        }
        let mut local: Vec<(Femtos, usize)> =
            self.local_ready.iter().map(|Reverse(pair)| *pair).collect();
        local.sort_unstable();
        w.usize(local.len());
        for (ready, slot) in local {
            w.u64(ready);
            w.usize(slot);
        }
        w.u64(self.addr_gen.rng_state());
        w.usize(self.target_blocks);
        w.u64(self.cycles);
        crate::counters::put_cycle_snapshot(w, &self.snapshot);
        crate::counters::put_warp_state_counters(w, &self.epoch);
        crate::counters::put_warp_state_counters(w, &self.run_total);
        for e in &self.events {
            put_sm_events(w, e);
        }
        w.usize(self.inbox.len());
        for &t in &self.inbox {
            w.u64(t);
        }
        match &self.pending {
            None => w.bool(false),
            Some(PendingAccess {
                line,
                addr,
                is_load,
                texture,
                warp_slot,
            }) => {
                w.bool(true);
                w.u64(*line);
                w.u64(*addr);
                w.bool(*is_load);
                w.bool(*texture);
                w.usize(*warp_slot);
            }
        }
        w.usize(self.completed_scratch.len());
        for &s in &self.completed_scratch {
            w.usize(s);
        }
        match &self.ccws {
            None => w.bool(false),
            Some(c) => {
                w.bool(true);
                c.encode(w);
            }
        }
        w.u64(self.blocks_completed);
    }

    /// Restores the dynamic state written by [`Sm::encode_state`] into
    /// this freshly constructed SM. `program` is the invocation program
    /// resolved by the engine (the snapshot records only its presence).
    pub(crate) fn decode_state(
        &mut self,
        r: &mut crate::snapshot::Reader<'_>,
        program: Option<Arc<Program>>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let corrupt = |offset: usize, what: &'static str| SnapshotError::Corrupt { offset, what };
        self.w_cta = r.usize()?;
        self.resident_limit = r.usize()?;
        let at = r.offset();
        let has_program = r.bool()?;
        if has_program != program.is_some() {
            return Err(corrupt(at, "program presence disagrees with engine phase"));
        }
        self.program = program;
        let at = r.offset();
        if r.seq_len(1)? != self.warps.len() {
            return Err(corrupt(at, "warp slot count differs from machine"));
        }
        let (num_warps, num_blocks) = (self.warps.len(), self.blocks.len());
        for slot in &mut self.warps {
            *slot = if r.bool()? {
                let at = r.offset();
                let warp = crate::warp::get_warp(r)?;
                if warp.slot >= num_warps || warp.block_slot >= num_blocks {
                    return Err(corrupt(at, "warp references out-of-range slot"));
                }
                Some(warp)
            } else {
                None
            };
        }
        let at = r.offset();
        if r.seq_len(1)? != self.blocks.len() {
            return Err(corrupt(at, "block slot count differs from machine"));
        }
        let max_warps = self.warps.len();
        for slot in &mut self.blocks {
            *slot = if r.bool()? {
                let block_index = r.u64()?;
                let at = r.offset();
                let n = r.seq_len(8)?;
                if n > max_warps {
                    return Err(corrupt(at, "block claims more warp slots than exist"));
                }
                let mut warp_slots = Vec::with_capacity(n);
                for _ in 0..n {
                    let at = r.offset();
                    let s = r.usize()?;
                    if s >= max_warps {
                        return Err(corrupt(at, "block references out-of-range warp slot"));
                    }
                    warp_slots.push(s);
                }
                Some(BlockState {
                    block_index,
                    warp_slots,
                    paused: r.bool()?,
                    launch_seq: r.u64()?,
                })
            } else {
                None
            };
        }
        self.launch_seq = r.u64()?;
        // The cached scheduler order and its ready-set mirror are not
        // serialized; rebuild lazily.
        self.order_dirty = true;
        self.ready_set.stale = true;
        // Like sched_order, the stagger census is derived state.
        self.staggered = self
            .warps
            .iter()
            .flatten()
            .filter(|warp| warp.stagger > 0)
            .count();
        let at = r.offset();
        let n = r.seq_len(30)?;
        if n > self.lsu_cap {
            return Err(corrupt(at, "LD/ST queue overflows its capacity"));
        }
        self.lsu.clear();
        for _ in 0..n {
            let at = r.offset();
            let warp_slot = r.usize()?;
            if warp_slot >= max_warps {
                return Err(corrupt(at, "LD/ST entry references out-of-range warp slot"));
            }
            self.lsu.push_back(LsuEntry {
                warp_slot,
                warp_uid: r.u64()?,
                instr: crate::program::get_mem_instr(r)?,
                mem_counter: r.u64()?,
                next_access: r.u32()?,
            });
        }
        self.l1 = Cache::decode(*self.l1.config(), r)?;
        let at = r.offset();
        let n = r.seq_len(16)?;
        if n > self.mshr_cap {
            return Err(corrupt(at, "MSHR count overflows its capacity"));
        }
        self.mshr.clear();
        for _ in 0..n {
            let line = r.u64()?;
            let m = r.seq_len(8)?;
            let mut waiters = Vec::with_capacity(m);
            for _ in 0..m {
                let at = r.offset();
                let s = r.usize()?;
                if s >= max_warps {
                    return Err(corrupt(at, "MSHR waiter references out-of-range warp slot"));
                }
                waiters.push(s);
            }
            self.mshr.insert(line, waiters);
        }
        self.local_ready.clear();
        let n = r.seq_len(16)?;
        for _ in 0..n {
            let ready = r.u64()?;
            let at = r.offset();
            let slot = r.usize()?;
            if slot >= max_warps {
                return Err(corrupt(
                    at,
                    "local-hit entry references out-of-range warp slot",
                ));
            }
            self.local_ready.push(Reverse((ready, slot)));
        }
        self.addr_gen = AddressGen::new(self.l1.config().line_bytes, r.u64()?);
        self.target_blocks = r.usize()?;
        self.cycles = r.u64()?;
        self.snapshot = crate::counters::get_cycle_snapshot(r)?;
        self.epoch = crate::counters::get_warp_state_counters(r)?;
        self.run_total = crate::counters::get_warp_state_counters(r)?;
        for e in &mut self.events {
            *e = get_sm_events(r)?;
        }
        let n = r.seq_len(8)?;
        self.inbox.clear();
        for _ in 0..n {
            self.inbox.push(r.u64()?);
        }
        self.pending = if r.bool()? {
            let line = r.u64()?;
            let addr = r.u64()?;
            let is_load = r.bool()?;
            let texture = r.bool()?;
            let at = r.offset();
            let warp_slot = r.usize()?;
            if warp_slot >= max_warps {
                return Err(corrupt(
                    at,
                    "pending access references out-of-range warp slot",
                ));
            }
            Some(PendingAccess {
                line,
                addr,
                is_load,
                texture,
                warp_slot,
            })
        } else {
            None
        };
        let n = r.seq_len(8)?;
        self.completed_scratch.clear();
        for _ in 0..n {
            self.completed_scratch.push(r.usize()?);
        }
        let at = r.offset();
        let has_ccws = r.bool()?;
        match (&mut self.ccws, has_ccws) {
            (Some(state), true) => {
                let config = *state.config();
                *state = CcwsState::decode(config, max_warps, r)?;
            }
            (None, false) => {}
            _ => return Err(corrupt(at, "CCWS presence disagrees with configuration")),
        }
        self.blocks_completed = r.u64()?;
        Ok(())
    }

    /// Sanitizer hook (`validate` feature): asserts that the SM holds no
    /// in-flight memory state. Called at kernel-invocation completion —
    /// an MSHR entry, queued LSU access or pending local hit surviving
    /// the drain would alias a reused warp slot in the next invocation.
    #[cfg(feature = "validate")]
    pub fn validate_drained(&self) {
        assert!(
            self.mshr.is_empty(),
            "SM {}: {} MSHR entries survived kernel completion",
            self.id,
            self.mshr.len()
        );
        assert!(
            self.lsu.is_empty(),
            "SM {}: LSU queue not drained at kernel completion",
            self.id
        );
        assert!(
            self.local_ready.is_empty(),
            "SM {}: local-hit queue not drained at kernel completion",
            self.id
        );
        assert!(
            self.warps.iter().all(Option::is_none),
            "SM {}: resident warps survived kernel completion",
            self.id
        );
        assert!(
            self.inbox.is_empty(),
            "SM {}: undelivered response tokens at kernel completion",
            self.id
        );
        assert!(
            self.pending.is_none(),
            "SM {}: uncommitted LSU access at kernel completion",
            self.id
        );
        assert!(
            self.completed_scratch.is_empty(),
            "SM {}: unretired completed blocks at kernel completion",
            self.id
        );
    }
}

pub(crate) fn put_sm_events(w: &mut crate::snapshot::Writer, e: &SmLevelEvents) {
    let SmLevelEvents {
        issued,
        alu_ops,
        mem_instrs,
        l1_accesses,
        l1_hits,
        busy_cycles,
    } = e;
    w.u64(*issued);
    w.u64(*alu_ops);
    w.u64(*mem_instrs);
    w.u64(*l1_accesses);
    w.u64(*l1_hits);
    w.u64(*busy_cycles);
}

pub(crate) fn get_sm_events(
    r: &mut crate::snapshot::Reader<'_>,
) -> Result<SmLevelEvents, crate::snapshot::SnapshotError> {
    Ok(SmLevelEvents {
        issued: r.u64()?,
        alu_ops: r.u64()?,
        mem_instrs: r.u64()?,
        l1_accesses: r.u64()?,
        l1_hits: r.u64()?,
        busy_cycles: r.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelCategory;
    use crate::program::{AddressPattern, Instr, MemSpace, Segment};
    use crate::util::SplitMix64;

    fn cfg() -> GpuConfig {
        let mut c = GpuConfig::gtx480();
        c.num_sms = 1;
        c
    }

    fn run_to_completion(sm: &mut Sm, mem: &mut MemSystem, gwde: &mut Gwde, period: Femtos) -> u64 {
        let mut now = 0;
        let mut cycles = 0u64;
        sm.fill(gwde);
        // Memory runs at the same period for simplicity in unit tests.
        while sm.busy() || !sm.quiescent() || !gwde.drained() {
            now += period;
            mem.step(now, VfLevel::Nominal, period);
            sm.cycle(now, VfLevel::Nominal, period, mem, gwde);
            sm.fill(gwde);
            cycles += 1;
            assert!(cycles < 2_000_000, "SM wedged");
        }
        cycles
    }

    fn alu_kernel(warps_per_block: usize, blocks: u64, iters: u32) -> KernelSpec {
        KernelSpec::new(
            "test-alu",
            KernelCategory::Compute,
            warps_per_block,
            8,
            vec![crate::kernel::Invocation {
                grid_blocks: blocks,
                program: Arc::new(Program::new(vec![Segment::new(
                    vec![Instr::alu(), Instr::alu(), Instr::alu_dep()],
                    iters,
                )])),
            }],
        )
    }

    #[test]
    fn completes_pure_alu_kernel() {
        let c = cfg();
        let mut sm = Sm::new(0, &c);
        let mut mem = MemSystem::new(&c);
        let k = alu_kernel(4, 6, 10);
        sm.begin_invocation(&k, 0, k.invocations()[0].program.clone());
        let mut gwde = Gwde::new(6);
        run_to_completion(&mut sm, &mut mem, &mut gwde, 1_000_000);
        assert_eq!(sm.blocks_completed(), 6);
        let issued: u64 = sm.events().iter().map(|e| e.issued).sum();
        assert_eq!(
            issued,
            6 * 4 * 3 * 10,
            "every instruction issued exactly once"
        );
    }

    #[test]
    fn completes_memory_kernel_with_loads() {
        let c = cfg();
        let mut sm = Sm::new(0, &c);
        let mut mem = MemSystem::new(&c);
        let k = KernelSpec::new(
            "test-mem",
            KernelCategory::Memory,
            2,
            8,
            vec![crate::kernel::Invocation {
                grid_blocks: 4,
                program: Arc::new(Program::new(vec![Segment::new(
                    vec![Instr::load_streaming(), Instr::alu_dep()],
                    20,
                )])),
            }],
        );
        sm.begin_invocation(&k, 0, k.invocations()[0].program.clone());
        let mut gwde = Gwde::new(4);
        run_to_completion(&mut sm, &mut mem, &mut gwde, 1_000_000);
        assert_eq!(sm.blocks_completed(), 4);
        let mem_instrs: u64 = sm.events().iter().map(|e| e.mem_instrs).sum();
        assert_eq!(mem_instrs, 4 * 2 * 20);
    }

    #[test]
    fn barrier_synchronises_block() {
        let c = cfg();
        let mut sm = Sm::new(0, &c);
        let mut mem = MemSystem::new(&c);
        let k = KernelSpec::new(
            "test-sync",
            KernelCategory::Compute,
            4,
            8,
            vec![crate::kernel::Invocation {
                grid_blocks: 2,
                program: Arc::new(Program::new(vec![Segment::new(
                    vec![Instr::alu_dep(), Instr::Sync, Instr::alu()],
                    5,
                )])),
            }],
        );
        sm.begin_invocation(&k, 0, k.invocations()[0].program.clone());
        let mut gwde = Gwde::new(2);
        run_to_completion(&mut sm, &mut mem, &mut gwde, 1_000_000);
        assert_eq!(sm.blocks_completed(), 2);
    }

    #[test]
    fn pause_reduces_active_blocks_and_unpause_restores() {
        let c = cfg();
        let mut sm = Sm::new(0, &c);
        let k = alu_kernel(4, 100, 1000);
        sm.begin_invocation(&k, 0, k.invocations()[0].program.clone());
        let mut gwde = Gwde::new(100);
        sm.fill(&mut gwde);
        assert_eq!(sm.active_blocks(), 8);
        sm.set_target_blocks(3);
        assert_eq!(sm.active_blocks(), 3);
        assert_eq!(sm.paused_blocks(), 5);
        sm.set_target_blocks(6);
        sm.fill(&mut gwde);
        assert_eq!(sm.active_blocks(), 6);
        assert_eq!(sm.paused_blocks(), 2);
    }

    #[test]
    fn target_is_clamped() {
        let c = cfg();
        let mut sm = Sm::new(0, &c);
        let k = alu_kernel(6, 10, 10); // resident limit = 8
        sm.begin_invocation(&k, 0, k.invocations()[0].program.clone());
        sm.set_target_blocks(0);
        assert_eq!(sm.target_blocks(), 1);
        sm.set_target_blocks(100);
        assert_eq!(sm.target_blocks(), 8);
    }

    #[test]
    fn paused_blocks_finish_eventually() {
        let c = cfg();
        let mut sm = Sm::new(0, &c);
        let mut mem = MemSystem::new(&c);
        let k = alu_kernel(4, 8, 50);
        sm.begin_invocation(&k, 0, k.invocations()[0].program.clone());
        let mut gwde = Gwde::new(8);
        sm.fill(&mut gwde);
        sm.set_target_blocks(2);
        run_to_completion(&mut sm, &mut mem, &mut gwde, 1_000_000);
        assert_eq!(
            sm.blocks_completed(),
            8,
            "paused blocks must still complete"
        );
    }

    #[test]
    fn resident_warps_tracks_residency() {
        let c = cfg();
        let mut sm = Sm::new(0, &c);
        assert_eq!(sm.resident_warps(), 0);
        let k = alu_kernel(4, 100, 1000);
        sm.begin_invocation(&k, 0, k.invocations()[0].program.clone());
        let mut gwde = Gwde::new(100);
        sm.fill(&mut gwde);
        assert_eq!(sm.resident_warps(), 8 * 4, "8 blocks of 4 warps resident");
        // Pausing keeps blocks (and their warps) resident.
        sm.set_target_blocks(3);
        assert_eq!(sm.resident_warps(), 8 * 4);
    }

    #[test]
    fn compute_kernel_shows_excess_alu() {
        let c = cfg();
        let mut sm = Sm::new(0, &c);
        let mut mem = MemSystem::new(&c);
        // 8 blocks x 6 warps of independent ALU: far more ready warps than
        // the 2 issue slots.
        let k = KernelSpec::new(
            "xalu",
            KernelCategory::Compute,
            6,
            8,
            vec![crate::kernel::Invocation {
                grid_blocks: 8,
                program: Arc::new(Program::new(vec![Segment::new(vec![Instr::alu(); 8], 200)])),
            }],
        );
        sm.begin_invocation(&k, 0, k.invocations()[0].program.clone());
        let mut gwde = Gwde::new(8);
        run_to_completion(&mut sm, &mut mem, &mut gwde, 1_000_000);
        let rc = sm.run_counters();
        assert!(
            rc.avg_excess_alu() > rc.avg_excess_mem(),
            "ALU-bound kernel must accumulate X_alu ({} vs {})",
            rc.avg_excess_alu(),
            rc.avg_excess_mem()
        );
        assert!(rc.avg_excess_alu() > 6.0, "X_alu should exceed W_cta");
    }

    #[test]
    fn lsu_backpressure_shows_excess_mem() {
        let mut c = cfg();
        c.dram_bytes_per_cycle = 16; // starve bandwidth: 1 line per 8 cycles
        let mut sm = Sm::new(0, &c);
        let mut mem = MemSystem::new(&c);
        let k = KernelSpec::new(
            "xmem",
            KernelCategory::Memory,
            6,
            8,
            vec![crate::kernel::Invocation {
                grid_blocks: 8,
                program: Arc::new(Program::new(vec![Segment::new(
                    vec![Instr::load_streaming()],
                    60,
                )])),
            }],
        );
        sm.begin_invocation(&k, 0, k.invocations()[0].program.clone());
        let mut gwde = Gwde::new(8);
        run_to_completion(&mut sm, &mut mem, &mut gwde, 1_000_000);
        let rc = sm.run_counters();
        assert!(
            rc.avg_excess_mem() > 2.0,
            "bandwidth-saturated kernel must accumulate X_mem (got {})",
            rc.avg_excess_mem()
        );
    }

    #[test]
    fn working_set_hits_l1_at_low_concurrency() {
        let c = cfg();
        let mut sm = Sm::new(0, &c);
        let mut mem = MemSystem::new(&c);
        // One block of 4 warps, each with a 16-line working set: 64 lines
        // fit easily in the 256-line L1.
        let k = KernelSpec::new(
            "ws-small",
            KernelCategory::Cache,
            4,
            1,
            vec![crate::kernel::Invocation {
                grid_blocks: 1,
                program: Arc::new(Program::new(vec![Segment::new(
                    vec![
                        Instr::Mem(MemInstr {
                            is_load: true,
                            pattern: crate::program::AddressPattern::WorkingSet { lines: 16 },
                            accesses: 1,
                            space: MemSpace::Global,
                        }),
                        Instr::alu_dep(),
                    ],
                    300,
                )])),
            }],
        );
        sm.begin_invocation(&k, 0, k.invocations()[0].program.clone());
        let mut gwde = Gwde::new(1);
        run_to_completion(&mut sm, &mut mem, &mut gwde, 1_000_000);
        assert!(
            sm.l1().hit_rate() > 0.7,
            "small working set should mostly hit (rate {})",
            sm.l1().hit_rate()
        );
    }

    #[test]
    fn working_set_thrashes_l1_at_high_concurrency() {
        let c = cfg();
        let mut sm = Sm::new(0, &c);
        let mut mem = MemSystem::new(&c);
        // 8 blocks x 6 warps x 3000-line working sets: hopeless for a
        // 256-line L1.
        let k = KernelSpec::new(
            "ws-big",
            KernelCategory::Cache,
            6,
            8,
            vec![crate::kernel::Invocation {
                grid_blocks: 8,
                program: Arc::new(Program::new(vec![Segment::new(
                    vec![
                        Instr::Mem(MemInstr {
                            is_load: true,
                            pattern: crate::program::AddressPattern::WorkingSet { lines: 3000 },
                            accesses: 1,
                            space: MemSpace::Global,
                        }),
                        Instr::alu_dep(),
                    ],
                    60,
                )])),
            }],
        );
        sm.begin_invocation(&k, 0, k.invocations()[0].program.clone());
        let mut gwde = Gwde::new(8);
        run_to_completion(&mut sm, &mut mem, &mut gwde, 1_000_000);
        assert!(
            sm.l1().hit_rate() < 0.3,
            "oversized working sets must thrash (rate {})",
            sm.l1().hit_rate()
        );
    }

    /// Draws one instruction: dependent and independent ALU ops,
    /// divergent streaming / working-set / texture loads, stores and
    /// (when `sync`) barriers.
    fn draw_instr(rng: &mut SplitMix64, sync: bool) -> Instr {
        let accesses = 1 + rng.next_below(4) as u8;
        let load = |pattern, space| {
            Instr::Mem(MemInstr {
                is_load: true,
                pattern,
                accesses,
                space,
            })
        };
        match rng.next_below(if sync { 10 } else { 9 }) {
            0..=1 | 8 => Instr::alu(),
            2..=3 => Instr::alu_dep(),
            4 => load(AddressPattern::Streaming, MemSpace::Global),
            5 => load(
                AddressPattern::WorkingSet {
                    lines: 1 + rng.next_below(40) as u32,
                },
                MemSpace::Global,
            ),
            6 => load(AddressPattern::Streaming, MemSpace::Texture),
            7 => Instr::Mem(MemInstr {
                is_load: false,
                pattern: AddressPattern::Streaming,
                accesses,
                space: MemSpace::Global,
            }),
            _ => Instr::Sync,
        }
    }

    /// The per-cycle lockstep check behind the ready-set walk: two SMs,
    /// fast issue on and off, each with its own memory system and
    /// dispatcher, must agree on the snapshot, the event counts and the
    /// LD/ST queue after *every* cycle — not only on the sampled cycles
    /// `RunStats` can see. Mid-run concurrency targets pause and unpause
    /// blocks (order rebuilds). Returns the cycles on which the fast SM
    /// took the ready-set walk, and those on which its scheduler order
    /// was too long for it.
    fn lockstep(
        case: usize,
        c: &GpuConfig,
        kernel: &KernelSpec,
        rng: &mut SplitMix64,
    ) -> (u64, u64) {
        const PERIOD: Femtos = 1_000_000;
        let program = kernel.invocations()[0].program.clone();
        let grid = kernel.invocations()[0].grid_blocks;
        let mut sms = [Sm::new(0, c), Sm::new(0, c)];
        sms[0].set_fast_issue(true);
        let mut mems = [MemSystem::new(c), MemSystem::new(c)];
        let mut gwdes = [Gwde::new(grid), Gwde::new(grid)];
        for (sm, gwde) in sms.iter_mut().zip(&mut gwdes) {
            sm.begin_invocation(kernel, 0, program.clone());
            sm.fill(gwde);
        }
        let lsu = |sm: &Sm| -> Vec<(usize, u64, MemInstr, u64, u32)> {
            sm.lsu
                .iter()
                .map(|e| {
                    (
                        e.warp_slot,
                        e.warp_uid,
                        e.instr,
                        e.mem_counter,
                        e.next_access,
                    )
                })
                .collect()
        };
        let (mut now, mut cycle) = (0, 0u64);
        let (mut ready_set_cycles, mut wide_cycles) = (0u64, 0u64);
        while sms[1].busy() || !sms[1].quiescent() || !gwdes[1].drained() {
            now += PERIOD;
            cycle += 1;
            let retarget = (cycle % 150 == 0).then(|| 1 + rng.next_below(8) as usize);
            for ((sm, mem), gwde) in sms.iter_mut().zip(&mut mems).zip(&mut gwdes) {
                if let Some(target) = retarget {
                    sm.set_target_blocks(target);
                    sm.fill(gwde);
                }
                mem.step(now, VfLevel::Nominal, PERIOD);
                sm.cycle(now, VfLevel::Nominal, PERIOD, mem, gwde);
                sm.fill(gwde);
            }
            let at = format!("case {case}, cycle {cycle}");
            assert_eq!(sms[0].snapshot, sms[1].snapshot, "{at}: snapshot");
            assert_eq!(sms[0].events, sms[1].events, "{at}: events");
            assert_eq!(lsu(&sms[0]), lsu(&sms[1]), "{at}: LD/ST queue");
            assert!(
                sms[1].ready_set.stale,
                "{at}: the full walk used the ready set"
            );
            ready_set_cycles += u64::from(!sms[0].ready_set.stale);
            if sms[0].sched_order.len() > issue::READY_SET_WARPS {
                assert!(
                    sms[0].ready_set.stale,
                    "{at}: wide order took the ready set"
                );
                wide_cycles += 1;
            }
            assert!(cycle < 2_000_000, "{at}: SM wedged");
        }
        assert!(
            gwdes[0].drained() && !sms[0].busy(),
            "case {case}: fast SM lagged"
        );
        assert_eq!(
            sms[0].blocks_completed(),
            grid,
            "case {case}: grid incomplete"
        );
        (ready_set_cycles, wide_cycles)
    }

    #[test]
    fn ready_set_walk_matches_the_full_walk_on_every_cycle() {
        let mut rng = SplitMix64::new(0x5EED_0014_AB1E);
        let mut ready_set_cycles = 0;
        for case in 0..40 {
            let mut c = cfg();
            // Every fourth program has barriers (always the full walk),
            // every fifth case runs CCWS, and every eighth case can hold
            // more scheduler positions than the ready set has bits (the
            // full walk while it does).
            let sync = case % 4 == 1;
            let wide = case % 8 == 6;
            if case % 5 == 2 {
                c.ccws = Some(crate::ccws::CcwsConfig::default());
            }
            if wide {
                c.max_warps_per_sm = 96;
            }
            c.warp_launch_stagger = [0, 2, 8][rng.next_below(3) as usize];
            c.issue_width = 1 + rng.next_below(4) as usize;
            c.max_alu_issue = 1 + rng.next_below(c.issue_width as u64) as usize;
            c.max_mem_issue = 1 + rng.next_below(c.issue_width as u64) as usize;
            c.lsu_queue_cap = [2, 8][rng.next_below(2) as usize];
            let mut segments: Vec<Segment> = (0..1 + rng.next_below(2))
                .map(|_| {
                    let len = 1 + rng.next_below(6) as usize;
                    let body = (0..len).map(|_| draw_instr(&mut rng, sync)).collect();
                    Segment::new(body, 1 + rng.next_below(24) as u32)
                })
                .collect();
            if sync {
                segments[0].body.push(Instr::Sync);
            }
            let w_cta = if wide {
                12
            } else {
                1 + rng.next_below(8) as usize
            };
            let kernel = KernelSpec::new(
                "lockstep",
                KernelCategory::Unsaturated,
                w_cta,
                8,
                vec![crate::kernel::Invocation {
                    grid_blocks: if wide { 16 } else { 4 } + rng.next_below(20),
                    program: Arc::new(Program::new(segments)),
                }],
            );
            let (n, wide_cycles) = lockstep(case, &c, &kernel, &mut rng);
            if sync {
                assert_eq!(n, 0, "case {case}: a barrier program took the ready set");
            }
            if wide {
                assert!(wide_cycles > 0, "case {case}: never exceeded the ready set");
            }
            ready_set_cycles += n;
        }
        assert!(ready_set_cycles > 0, "no case took the ready-set walk");
    }

    #[test]
    fn epoch_counters_reset_on_take() {
        let c = cfg();
        let mut sm = Sm::new(0, &c);
        let mut mem = MemSystem::new(&c);
        let k = alu_kernel(4, 2, 50);
        sm.begin_invocation(&k, 0, k.invocations()[0].program.clone());
        let mut gwde = Gwde::new(2);
        sm.fill(&mut gwde);
        for i in 1..=256u64 {
            mem.step(i * 1_000_000, VfLevel::Nominal, 1_000_000);
            sm.cycle(
                i * 1_000_000,
                VfLevel::Nominal,
                1_000_000,
                &mut mem,
                &mut gwde,
            );
        }
        let e = sm.take_epoch();
        assert_eq!(e.cycles, 256);
        assert_eq!(e.samples, 2);
        let e2 = sm.take_epoch();
        assert_eq!(e2.cycles, 0);
    }
}
