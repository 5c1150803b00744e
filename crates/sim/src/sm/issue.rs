//! Issue stage: the scheduler walk and warp-state classification.
//!
//! Once per cycle the SM walks resident warps oldest-block-first and
//! classifies each unpaused warp into the paper's states — `Issued`,
//! `Waiting`, `ExcessAlu`, `ExcessMem` or `Others` — issuing up to
//! `issue_width` instructions split across the ALU and memory ports.
//!
//! Two walks produce the same issues and the same snapshot:
//!
//! - the *full walk* visits every warp in `sched_order` and records each
//!   one's state — the reference, and the only walk that can decrement
//!   launch stagger or execute `Sync`;
//! - the *ready-set walk* (armed by [`Sm::set_fast_issue`]) keeps a
//!   [`ReadySet`] mirror of each position's wake time, next-instruction
//!   kind and finished/barrier state, visits only the warps whose wake
//!   time has passed, and derives the snapshot from bitmask popcounts.
//!
//! The whole stage is part of the *local* phase of the two-phase cycle:
//! it reads and writes only this SM's warps, scoreboard and LSU queue.

use crate::config::Femtos;
use crate::counters::{CycleSnapshot, WarpState};
use crate::program::{Instr, MemInstr, Program};
use crate::warp::Warp;

use super::{BlockState, LsuEntry, Sm};

/// Scheduler positions the ready set can track: one bit per
/// `sched_order` slot. Longer orders take the full walk.
pub(super) const READY_SET_WARPS: usize = 64;

/// Position-map entry of a warp slot outside `sched_order`.
const NO_POS: u8 = u8::MAX;

/// The ready-set mirror of the scheduler's warp state, indexed by
/// `sched_order` position. Derived state: rebuilt from the warps before
/// the first ready-set cycle after anything marks it stale, and kept
/// current in between by [`Sm::issue_stage`] and `deliver_load`.
///
/// Positions with a finite wake time are split between `ready` (wake
/// time already reached) and `timed` (not yet checked against the
/// clock). Time only moves forward and a warp's wake time only changes
/// through [`ReadySet::note`] or [`ReadySet::loads_drained`], so a ready
/// position stays ready until it issues, and each cycle only has to
/// compare the `timed` positions against `now`.
#[derive(Debug)]
pub(super) struct ReadySet {
    /// Must be rebuilt before the next ready-set cycle.
    pub(super) stale: bool,
    /// Earliest time each position's scoreboard allows issue;
    /// `Femtos::MAX` while asleep on loads, finished or at a barrier.
    wake: [Femtos; READY_SET_WARPS],
    /// Positions whose wake time has been reached.
    ready: u64,
    /// Positions with a finite wake time not yet compared with the clock.
    timed: u64,
    /// Positions whose next instruction is a `Mem`.
    mem_next: u64,
    /// Positions that are finished or at a barrier.
    others: u64,
    /// Warp slot → `sched_order` position, `NO_POS` when unscheduled.
    pos: Vec<u8>,
}

impl ReadySet {
    /// An empty, stale mirror (the position map is sized on the first
    /// rebuild).
    pub(super) fn new() -> Self {
        Self {
            stale: true,
            wake: [Femtos::MAX; READY_SET_WARPS],
            ready: 0,
            timed: 0,
            mem_next: 0,
            others: 0,
            pos: Vec::new(),
        }
    }

    /// Rebuilds the mirror from the warps; `order` must fit in
    /// [`READY_SET_WARPS`] positions.
    fn rebuild(&mut self, order: &[usize], warps: &[Option<Warp>], program: &Program) {
        self.wake = [Femtos::MAX; READY_SET_WARPS];
        self.ready = 0;
        self.timed = 0;
        self.mem_next = 0;
        self.others = 0;
        self.pos.clear();
        self.pos.resize(warps.len(), NO_POS);
        for (p, &ws) in order.iter().enumerate() {
            self.pos[ws] = p as u8;
            if let Some(warp) = warps[ws].as_ref() {
                self.note(p, warp, program);
            }
        }
        self.stale = false;
    }

    /// Re-derives position `p`'s entry from its warp.
    fn note(&mut self, p: usize, warp: &Warp, program: &Program) {
        let bit = 1u64 << p;
        let idle = warp.finished || warp.at_barrier;
        let asleep = idle || warp.pending_loads > 0 || warp.stagger > 0;
        self.wake[p] = if asleep { Femtos::MAX } else { warp.ready_at };
        self.ready &= !bit;
        self.timed = (self.timed & !bit) | (u64::from(!asleep) << p);
        let mem = matches!(
            warp.pc.fetch(program, warp.block_index),
            Some(Instr::Mem(_))
        );
        self.mem_next = (self.mem_next & !bit) | (u64::from(mem) << p);
        self.others = (self.others & !bit) | (u64::from(idle) << p);
    }

    /// Wakes warp slot `ws` at `ready_at` once its last outstanding
    /// load returns (a no-op for slots outside the order, and before the
    /// first rebuild). Safe on a stale mirror: the write is discarded by
    /// the next rebuild.
    pub(super) fn loads_drained(&mut self, ws: usize, warp: &Warp) {
        let p = self.pos.get(ws).copied().unwrap_or(NO_POS);
        if p != NO_POS && !warp.finished && !warp.at_barrier {
            self.wake[usize::from(p)] = warp.ready_at;
            self.timed |= 1 << p;
        }
    }

    /// Moves the `timed` positions whose wake time has passed into
    /// `ready`, and returns the ready set.
    fn ready_by(&mut self, now: Femtos) -> u64 {
        let mut timed = self.timed;
        while timed != 0 {
            let p = timed.trailing_zeros() as usize;
            timed &= timed - 1;
            self.ready |= u64::from(self.wake[p] <= now) << p;
        }
        self.timed &= !self.ready;
        self.ready
    }

    /// Whether this incrementally maintained mirror agrees with `fresh`,
    /// one just rebuilt from the warps, at time `now`.
    #[cfg(feature = "validate")]
    fn agrees_with(&self, fresh: &ReadySet, now: Femtos) -> bool {
        let mut ready = self.ready;
        let mut ready_reached = true;
        while ready != 0 {
            let p = ready.trailing_zeros() as usize;
            ready &= ready - 1;
            ready_reached &= self.wake[p] <= now;
        }
        ready_reached
            && self.ready & self.timed == 0
            && self.ready | self.timed == fresh.timed
            && self.wake == fresh.wake
            && self.mem_next == fresh.mem_next
            && self.others == fresh.others
            && self.pos == fresh.pos
    }
}

impl Sm {
    /// Rebuilds the oldest-block-first scheduler walk order over the
    /// unpaused resident blocks.
    fn rebuild_order(&mut self) {
        self.sched_order.clear();
        let mut blocks: Vec<&BlockState> =
            self.blocks.iter().flatten().filter(|b| !b.paused).collect();
        blocks.sort_by_key(|b| b.launch_seq);
        for b in blocks {
            self.sched_order.extend_from_slice(&b.warp_slots);
        }
        self.order_dirty = false;
        self.ready_set.stale = true;
    }

    /// The per-cycle issue stage: classifies every schedulable warp and
    /// issues up to the port limits, returning the cycle's warp-state
    /// snapshot. Blocks whose last warp finishes are appended to
    /// `completed_blocks` for the retire stage.
    pub(super) fn issue_stage(
        &mut self,
        now: Femtos,
        li: usize,
        period_fs: Femtos,
        completed_blocks: &mut Vec<usize>,
    ) -> CycleSnapshot {
        if self.order_dirty {
            self.rebuild_order();
        }
        // Moved out rather than cloned: this runs every SM cycle, and a
        // take/put-back is two pointer copies where an `Arc` clone is two
        // atomic refcount operations. Nothing in the walks reads
        // `self.program` (restored before anything else can).
        let program = self.program.take();
        // No program means no resident warps: an empty snapshot.
        let snap = match program.as_deref() {
            None => CycleSnapshot::default(),
            // The ready set cannot count down launch stagger (the full
            // walk decrements it on every visit), execute `Sync` (which
            // issues without a port and may release siblings), or track
            // more positions than it has bits.
            Some(p)
                if self.fast_issue
                    && self.staggered == 0
                    && !p.has_sync()
                    && self.sched_order.len() <= READY_SET_WARPS =>
            {
                self.ready_set_walk(now, li, period_fs, p, completed_blocks)
            }
            Some(p) => {
                self.ready_set.stale = true;
                self.full_walk(now, li, period_fs, p, completed_blocks)
            }
        };
        self.program = program;
        snap
    }

    /// The reference walk: visits every scheduled warp and records its
    /// state.
    fn full_walk(
        &mut self,
        now: Femtos,
        li: usize,
        period_fs: Femtos,
        program: &Program,
        completed_blocks: &mut Vec<usize>,
    ) -> CycleSnapshot {
        let mut snap = CycleSnapshot::default();
        let (mut issued_alu, mut issued_mem) = (0usize, 0usize);
        for oi in 0..self.sched_order.len() {
            let ws = self.sched_order[oi];
            let Some(warp) = self.warps[ws].as_mut() else {
                continue;
            };
            if warp.finished || warp.at_barrier {
                snap.record(WarpState::Others);
                continue;
            }
            if warp.stagger > 0 {
                warp.stagger -= 1;
                if warp.stagger == 0 {
                    self.staggered -= 1;
                }
                snap.record(WarpState::Waiting);
                continue;
            }
            if !warp.scoreboard_ready(now) {
                snap.record(WarpState::Waiting);
                continue;
            }
            let block_index = warp.block_index;
            let Some(&instr) = warp.pc.fetch(program, block_index) else {
                crate::validate_assert!(false, "unfinished warp has no instruction");
                snap.record(WarpState::Others);
                continue;
            };
            let ports_free = issued_alu + issued_mem < self.issue_width;
            match instr {
                Instr::Alu { dep } => {
                    if ports_free && issued_alu < self.max_alu_issue {
                        issued_alu += 1;
                        let ready_at = now + Femtos::from(self.alu_latency) * period_fs;
                        self.issue_alu(ws, dep.then_some(ready_at), li, program, completed_blocks);
                        snap.record(WarpState::Issued);
                    } else {
                        snap.record(WarpState::ExcessAlu);
                    }
                }
                Instr::Mem(mi) => {
                    if ports_free && self.mem_port_open(issued_mem) && self.ccws_allows(ws) {
                        issued_mem += 1;
                        self.issue_mem(ws, mi, li, program, completed_blocks);
                        snap.record(WarpState::Issued);
                    } else {
                        snap.record(WarpState::ExcessMem);
                    }
                }
                Instr::Sync => {
                    let finished = !warp.pc.advance(program, block_index);
                    if finished {
                        warp.finished = true;
                    } else {
                        warp.at_barrier = true;
                    }
                    let block_slot = warp.block_slot;
                    if finished {
                        self.check_block_done(block_slot, completed_blocks);
                    } else {
                        self.maybe_release_barrier(block_slot);
                    }
                    snap.record(WarpState::Others);
                }
            }
        }
        snap
    }

    /// The ready-set walk: the positions whose wake time has passed are
    /// visited in order until the issue ports are full. A warp that is
    /// not visited would have been classified from its start-of-cycle
    /// mirror entry alone (`Waiting`, `Others`, or `ExcessAlu` /
    /// `ExcessMem` behind a closed port), and no issue changes another
    /// warp's entry (no `Sync`), so the snapshot is exact on every cycle.
    fn ready_set_walk(
        &mut self,
        now: Femtos,
        li: usize,
        period_fs: Femtos,
        program: &Program,
        completed_blocks: &mut Vec<usize>,
    ) -> CycleSnapshot {
        if self.ready_set.stale {
            self.ready_set
                .rebuild(&self.sched_order, &self.warps, program);
        }
        let ready = self.ready_set.ready_by(now);
        let mem_next = self.ready_set.mem_next;
        let n_ready = ready.count_ones();
        let n_mem = (ready & mem_next).count_ones();
        let n_others = self.ready_set.others.count_ones();

        let (mut issued_alu, mut issued_mem) = (0usize, 0usize);
        let mut candidates = ready;
        while candidates != 0 && issued_alu + issued_mem < self.issue_width {
            let p = candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            let ws = self.sched_order[p];
            let Some(warp) = self.warps[ws].as_ref() else {
                continue;
            };
            let Some(&instr) = warp.pc.fetch(program, warp.block_index) else {
                crate::validate_assert!(false, "ready warp has no instruction");
                continue;
            };
            match instr {
                Instr::Alu { dep } => {
                    if issued_alu >= self.max_alu_issue {
                        // ALU port closed: only memory candidates remain.
                        candidates &= mem_next;
                        continue;
                    }
                    issued_alu += 1;
                    let ready_at = now + Femtos::from(self.alu_latency) * period_fs;
                    self.issue_alu(ws, dep.then_some(ready_at), li, program, completed_blocks);
                }
                Instr::Mem(mi) => {
                    if !self.mem_port_open(issued_mem) {
                        // Memory port or LSU closed: only ALU candidates
                        // remain.
                        candidates &= !mem_next;
                        continue;
                    }
                    if !self.ccws_allows(ws) {
                        continue;
                    }
                    issued_mem += 1;
                    self.issue_mem(ws, mi, li, program, completed_blocks);
                }
                Instr::Sync => {
                    crate::validate_assert!(false, "ready-set walk reached a barrier");
                    continue;
                }
            }
            if let Some(warp) = self.warps[ws].as_ref() {
                self.ready_set.note(p, warp, program);
            }
        }

        #[cfg(feature = "validate")]
        {
            let mut fresh = ReadySet::new();
            fresh.rebuild(&self.sched_order, &self.warps, program);
            crate::validate_assert!(
                self.ready_set.agrees_with(&fresh, now),
                "SM {}: incremental ready set diverged from the warps",
                self.id
            );
        }

        // Every scheduled position holds a warp: the order is rebuilt
        // whenever a block retires.
        let schedulable = self.sched_order.len() as u32 - n_others;
        let issued = (issued_alu + issued_mem) as u32;
        CycleSnapshot {
            active: schedulable,
            waiting: schedulable - n_ready,
            issued,
            excess_alu: n_ready - n_mem - issued_alu as u32,
            excess_mem: n_mem - issued_mem as u32,
            others: n_others,
        }
    }

    /// Whether the memory port and the LSU queue can take another
    /// memory instruction this cycle.
    fn mem_port_open(&self, issued_mem: usize) -> bool {
        issued_mem < self.max_mem_issue && self.lsu.len() < self.lsu_cap
    }

    /// Whether CCWS lets warp slot `ws` issue memory instructions.
    fn ccws_allows(&self, ws: usize) -> bool {
        self.ccws.as_ref().is_none_or(|c| c.may_issue_mem(ws))
    }

    /// Issues warp `ws`'s ALU instruction; a dependent one holds the
    /// warp until `ready_at`.
    fn issue_alu(
        &mut self,
        ws: usize,
        ready_at: Option<Femtos>,
        li: usize,
        program: &Program,
        completed_blocks: &mut Vec<usize>,
    ) {
        let Some(warp) = self.warps[ws].as_mut() else {
            return;
        };
        if let Some(t) = ready_at {
            warp.ready_at = t;
        }
        let finished = !warp.pc.advance(program, warp.block_index);
        warp.finished |= finished;
        let block_slot = warp.block_slot;
        self.events[li].issued += 1;
        self.events[li].alu_ops += 1;
        if finished {
            self.check_block_done(block_slot, completed_blocks);
        }
    }

    /// Issues warp `ws`'s memory instruction into the LSU queue.
    fn issue_mem(
        &mut self,
        ws: usize,
        mi: MemInstr,
        li: usize,
        program: &Program,
        completed_blocks: &mut Vec<usize>,
    ) {
        let Some(warp) = self.warps[ws].as_mut() else {
            return;
        };
        let counter = warp.mem_counter;
        warp.mem_counter += 1;
        if mi.is_load {
            warp.pending_loads += u32::from(mi.accesses);
        }
        let finished = !warp.pc.advance(program, warp.block_index);
        warp.finished |= finished;
        let (block_slot, uid) = (warp.block_slot, warp.uid);
        self.events[li].issued += 1;
        self.events[li].mem_instrs += 1;
        self.lsu.push_back(LsuEntry {
            warp_slot: ws,
            warp_uid: uid,
            instr: mi,
            mem_counter: counter,
            next_access: 0,
        });
        if finished {
            self.check_block_done(block_slot, completed_blocks);
        }
    }
}
