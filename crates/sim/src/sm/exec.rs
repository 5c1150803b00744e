//! Execution pipelines: memory-response delivery and the LD/ST unit,
//! split along the two-phase cycle boundary.
//!
//! The respond stage delivers pre-drained interconnect responses (the
//! engine fills the SM's inbox serially) and matured local L1 hits back
//! into waiting warps. The LSU handles one cache-line access per cycle,
//! head-of-line: accesses that resolve against SM-private state (MSHR
//! merges, L1 hits) complete in the local phase, while accesses that
//! need the shared interconnect/texture queues are classified into a
//! [`super::PendingAccess`] and resolved in the serial commit phase,
//! where `can_accept` back-pressure is arbitrated in service order.

use std::cmp::Reverse;

use crate::cache::Lookup;
use crate::config::Femtos;
use crate::memsys::{MemReq, MemSystem};
use crate::program::MemSpace;

use super::{PendingAccess, Sm};

impl Sm {
    /// Delivers memory responses (global/texture) from the pre-drained
    /// inbox and matured local L1 hits. A load completion can be the
    /// last outstanding work of an already-finished warp, so block
    /// completion is re-checked. Local phase: touches no shared state.
    pub(super) fn respond_local(&mut self, now: Femtos, completed_blocks: &mut Vec<usize>) {
        let mut buf = std::mem::take(&mut self.inbox);
        for token in buf.drain(..) {
            if let Some(waiters) = self.mshr.remove(&token) {
                for ws in waiters {
                    self.deliver_load(ws, completed_blocks);
                }
            }
        }
        self.inbox = buf;
        while let Some(&Reverse((t, ws))) = self.local_ready.peek() {
            if t > now {
                break;
            }
            self.local_ready.pop();
            self.deliver_load(ws, completed_blocks);
        }
    }

    /// Decrements a warp's outstanding-load count and re-checks block
    /// completion when the load was the warp's last outstanding work.
    fn deliver_load(&mut self, ws: usize, completed: &mut Vec<usize>) {
        let (drained, slot) = {
            let Some(w) = self.warps[ws].as_mut() else {
                // Blocks only retire once every warp's loads have drained,
                // so a response must never land on a vacated slot.
                crate::validate_assert!(
                    false,
                    "load response for vacated warp slot {ws} on SM {}",
                    self.id
                );
                return;
            };
            w.complete_load();
            if w.pending_loads == 0 {
                self.ready_set.loads_drained(ws, w);
            }
            (w.finished && w.pending_loads == 0, w.block_slot)
        };
        if drained {
            self.check_block_done(slot, completed);
        }
    }

    /// The LD/ST unit's local half: resolves the head-of-line access
    /// when only SM-private state is involved (MSHR merge, L1 hit), or
    /// stages it as a [`PendingAccess`] for the commit phase when it
    /// must be injected into the shared queues. A full MSHR file stalls
    /// the head of line right here.
    pub(super) fn lsu_local(&mut self, now: Femtos, li: usize, period_fs: Femtos) {
        debug_assert!(self.pending.is_none(), "pending access not committed");
        let Some(head) = self.lsu.front().copied() else {
            return;
        };
        let addr = self.addr_gen.line_addr(
            head.instr.pattern,
            self.id,
            head.warp_uid,
            head.mem_counter,
            head.next_access,
        );
        let line = addr / self.l1.config().line_bytes;

        if head.instr.space == MemSpace::Texture {
            // Texture path: bypass L1; deep queue hides back-pressure.
            if let Some(waiters) = self.mshr.get_mut(&line) {
                if head.instr.is_load {
                    waiters.push(head.warp_slot);
                }
                self.advance_lsu_head();
            } else if self.mshr.len() < self.mshr_cap {
                self.pending = Some(PendingAccess {
                    line,
                    addr,
                    is_load: head.instr.is_load,
                    texture: true,
                    warp_slot: head.warp_slot,
                });
            }
            return;
        }

        if let Some(waiters) = self.mshr.get_mut(&line) {
            // Secondary miss: merge into the outstanding MSHR.
            self.events[li].l1_accesses += 1;
            if head.instr.is_load {
                waiters.push(head.warp_slot);
            }
            self.advance_lsu_head();
        } else if self.l1.contains(addr) {
            self.events[li].l1_accesses += 1;
            self.events[li].l1_hits += 1;
            let hit = self.l1.access(addr);
            debug_assert_eq!(hit, Lookup::Hit);
            if head.instr.is_load {
                let ready = now + Femtos::from(self.l1_hit_latency) * period_fs;
                self.local_ready.push(Reverse((ready, head.warp_slot)));
            }
            self.advance_lsu_head();
        } else if self.mshr.len() < self.mshr_cap {
            // Primary miss: needs an interconnect slot, decided at commit.
            self.pending = Some(PendingAccess {
                line,
                addr,
                is_load: head.instr.is_load,
                texture: false,
                warp_slot: head.warp_slot,
            });
        }
        // MSHRs exhausted: head-of-line stall, retry next cycle.
    }

    /// The LD/ST unit's commit half: injects the staged access if the
    /// target shared queue has room; a back-pressured interconnect
    /// leaves the head of line in place for the next cycle. Runs in the
    /// engine's rotated service order.
    pub(super) fn commit_pending(&mut self, li: usize, mem: &mut MemSystem) {
        let Some(p) = self.pending.take() else {
            return;
        };
        if !mem.can_accept(p.texture) {
            return; // Head-of-line stall; reclassified next cycle.
        }
        if !p.texture {
            self.events[li].l1_accesses += 1;
            let miss = self.l1.access(p.addr);
            debug_assert_eq!(miss, Lookup::Miss);
            if let Some(ccws) = &mut self.ccws {
                ccws.on_l1_miss(p.warp_slot, p.line);
            }
        }
        mem.inject(MemReq {
            sm: self.id,
            token: p.line,
            addr: p.addr,
            is_load: p.is_load,
            texture: p.texture,
        });
        if p.is_load {
            self.mshr.insert(p.line, vec![p.warp_slot]);
        }
        self.advance_lsu_head();
    }

    /// Advances the LSU head one line access, popping the entry once all
    /// of its accesses have been serviced.
    fn advance_lsu_head(&mut self) {
        if let Some(head) = self.lsu.front_mut() {
            head.next_access += 1;
            if head.next_access >= u32::from(head.instr.accesses) {
                self.lsu.pop_front();
            }
        }
    }
}
