//! The shared memory system: interconnect queue, L2, memory controller and
//! DRAM bandwidth model.
//!
//! Everything here runs in the *memory* clock domain (the paper changes
//! the NoC, L2, MC and DRAM operating point together). Bandwidth is
//! modelled with byte credits per memory cycle, so raising the memory
//! frequency raises absolute bandwidth proportionally. A full interconnect
//! queue back-pressures every SM's LD/ST unit — that is the signal the
//! paper's `X_mem` counter ultimately observes.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::cache::{Cache, Lookup};
use crate::config::{Femtos, GpuConfig, VfLevel};

/// A line-granularity memory request from an SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemReq {
    /// Issuing SM.
    pub sm: usize,
    /// Opaque token returned with the response (the L1 uses the missing
    /// line address so it can wake all MSHR waiters).
    pub token: u64,
    /// Byte address of the access.
    pub addr: u64,
    /// Loads get a response; stores only consume bandwidth.
    pub is_load: bool,
    /// Texture-path requests use the deep texture queue.
    pub texture: bool,
}

/// Memory-side event statistics, broken down by memory-domain VF level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemLevelStats {
    /// L2 probes.
    pub l2_accesses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// Lines serviced by DRAM.
    pub dram_accesses: u64,
    /// Memory cycles in which DRAM transferred at least one line.
    pub dram_busy_cycles: u64,
    /// Idle memory cycles with requests still queued upstream (in the
    /// interconnect but not yet at the DRAM controller).
    pub dram_idle_upstream_cycles: u64,
    /// Sum of interconnect-queue occupancy (per cycle; divide by cycles
    /// for the mean depth).
    pub icnt_occupancy_sum: u64,
}

impl MemLevelStats {
    /// Accounts `cycles` identical cycles of controller activity in one
    /// shot: interconnect occupancy `icnt_occupancy` per cycle, DRAM
    /// `serviced` (busy) or starved with `upstream_pending` traffic.
    ///
    /// Saturating, so a pathologically long run degrades a diagnostic
    /// counter instead of wrapping (or aborting a debug build). One
    /// bulk call is exactly `cycles` repeated single-cycle calls: each
    /// per-cycle add is monotone, so the only difference a fold could
    /// make is *where* saturation lands, and `min(MAX, a + b*k)` is the
    /// same point.
    pub(crate) fn bulk_account(
        &mut self,
        cycles: u64,
        icnt_occupancy: u64,
        serviced: bool,
        upstream_pending: bool,
    ) {
        self.icnt_occupancy_sum = self
            .icnt_occupancy_sum
            .saturating_add(icnt_occupancy.saturating_mul(cycles));
        if serviced {
            self.dram_busy_cycles = self.dram_busy_cycles.saturating_add(cycles);
        } else if upstream_pending {
            self.dram_idle_upstream_cycles = self.dram_idle_upstream_cycles.saturating_add(cycles);
        }
    }
}

/// The shared memory subsystem.
#[derive(Debug)]
pub struct MemSystem {
    icnt: VecDeque<MemReq>,
    tex: VecDeque<MemReq>,
    dram: VecDeque<MemReq>,
    l2: Cache,
    icnt_cap: usize,
    tex_cap: usize,
    dram_cap: usize,
    l2_banks: usize,
    bytes_per_cycle: u64,
    line_bytes: u64,
    l2_latency: u32,
    dram_latency: u32,
    credit: u64,
    /// Pending responses per SM, ordered by ready time.
    responses: Vec<BinaryHeap<Reverse<(Femtos, u64)>>>,
    /// Per-VF-level statistics.
    stats: [MemLevelStats; 3],
    /// Alternator for icnt/texture arbitration fairness.
    prefer_tex: bool,
}

impl MemSystem {
    /// Builds the memory system for a GPU configuration.
    pub fn new(config: &GpuConfig) -> Self {
        Self {
            icnt: VecDeque::with_capacity(config.icnt_cap),
            tex: VecDeque::with_capacity(config.tex_queue_cap.min(1024)),
            dram: VecDeque::with_capacity(config.dram_queue_cap),
            l2: Cache::new(config.l2),
            icnt_cap: config.icnt_cap,
            tex_cap: config.tex_queue_cap,
            dram_cap: config.dram_queue_cap,
            l2_banks: config.l2_banks,
            bytes_per_cycle: config.dram_bytes_per_cycle,
            line_bytes: config.l2.line_bytes,
            l2_latency: config.l2_latency,
            dram_latency: config.dram_latency,
            credit: 0,
            responses: (0..config.num_sms).map(|_| BinaryHeap::new()).collect(),
            stats: [MemLevelStats::default(); 3],
            prefer_tex: false,
        }
    }

    /// Whether the relevant injection queue can accept one more request.
    pub fn can_accept(&self, texture: bool) -> bool {
        if texture {
            self.tex.len() < self.tex_cap
        } else {
            self.icnt.len() < self.icnt_cap
        }
    }

    /// Injects a request from an SM (call [`Self::can_accept`] first).
    ///
    /// # Panics
    ///
    /// Panics if the target queue is full.
    pub fn inject(&mut self, req: MemReq) {
        if req.texture {
            assert!(self.tex.len() < self.tex_cap, "texture queue overflow");
            self.tex.push_back(req);
        } else {
            assert!(
                self.icnt.len() < self.icnt_cap,
                "interconnect queue overflow"
            );
            self.icnt.push_back(req);
        }
    }

    /// Advances the memory system by one memory-domain cycle ending at
    /// absolute time `now`, with the domain at `level` and period
    /// `period_fs`.
    pub fn step(&mut self, now: Femtos, level: VfLevel, period_fs: Femtos) {
        let stats = &mut self.stats[level.index()];

        // L2 service: up to `l2_banks` requests per cycle, arbitrating
        // between the global and texture queues.
        for _ in 0..self.l2_banks {
            if self.dram.len() >= self.dram_cap {
                break; // MC queue full: stall L2-side processing.
            }
            let req = {
                let (first, second): (&mut VecDeque<MemReq>, &mut VecDeque<MemReq>) =
                    if self.prefer_tex {
                        (&mut self.tex, &mut self.icnt)
                    } else {
                        (&mut self.icnt, &mut self.tex)
                    };
                first.pop_front().or_else(|| second.pop_front())
            };
            self.prefer_tex = !self.prefer_tex;
            let Some(req) = req else { break };

            stats.l2_accesses += 1;
            match self.l2.access(req.addr) {
                Lookup::Hit => {
                    stats.l2_hits += 1;
                    if req.is_load {
                        let ready = now + Femtos::from(self.l2_latency) * period_fs;
                        self.responses[req.sm].push(Reverse((ready, req.token)));
                    }
                }
                Lookup::Miss => self.dram.push_back(req),
            }
        }

        // DRAM service: byte-credit bandwidth model plus fixed latency.
        self.credit = (self.credit + self.bytes_per_cycle).min(self.line_bytes * 4);
        let mut serviced = false;
        while self.credit >= self.line_bytes {
            let Some(req) = self.dram.pop_front() else {
                break;
            };
            self.credit -= self.line_bytes;
            serviced = true;
            stats.dram_accesses += 1;
            if req.is_load {
                let lat = Femtos::from(self.l2_latency + self.dram_latency) * period_fs;
                self.responses[req.sm].push(Reverse((now + lat, req.token)));
            }
        }
        stats.bulk_account(
            1,
            self.icnt.len() as u64,
            serviced,
            !self.icnt.is_empty() || !self.tex.is_empty(),
        );
        if !serviced && self.dram.is_empty() {
            // Idle credit does not accumulate beyond the burst cap; drain it
            // so a long-idle DRAM cannot answer a burst instantaneously.
            self.credit = self.credit.min(self.line_bytes);
        }
    }

    /// Moves every response for `sm` that is ready at `now` into `out`
    /// (tokens only).
    pub fn drain_ready(&mut self, sm: usize, now: Femtos, out: &mut Vec<u64>) {
        let heap = &mut self.responses[sm];
        while let Some(&Reverse((ready, token))) = heap.peek() {
            if ready > now {
                break;
            }
            heap.pop();
            out.push(token);
        }
    }

    /// Whether all three request queues are empty (responses may still
    /// be pending). In this state [`MemSystem::step`] touches nothing
    /// but the arbitration flip and the credit clamp, which is what
    /// makes [`MemSystem::fast_forward`] exact.
    pub fn queues_empty(&self) -> bool {
        self.icnt.is_empty() && self.tex.is_empty() && self.dram.is_empty()
    }

    /// Advances the memory system by `cycles` steps in O(1). Valid only
    /// while [`MemSystem::queues_empty`] holds: each skipped step would
    /// pop nothing, flip the arbitration bit once, and clamp the idle
    /// credit to one line — so the fold below reproduces `cycles` calls
    /// to [`MemSystem::step`] bit-exactly (pending responses are
    /// untouched by stepping; they mature by time alone).
    pub fn fast_forward(&mut self, cycles: u64, level: VfLevel) {
        debug_assert!(self.queues_empty(), "fast_forward with queued requests");
        if cycles == 0 {
            return;
        }
        if cycles % 2 == 1 {
            self.prefer_tex = !self.prefer_tex;
        }
        // Per step: credit = min(credit + bpc, 4 lines) then, unserviced
        // with DRAM empty, clamped to one line; the composition over any
        // number of steps telescopes to a single saturating clamp.
        self.credit = self
            .credit
            .saturating_add(self.bytes_per_cycle.saturating_mul(cycles))
            .min(self.line_bytes);
        // Idle cycles accrue no occupancy and no busy/starved tallies;
        // route through the shared bulk path anyway so the accounting
        // stays in one place.
        self.stats[level.index()].bulk_account(cycles, 0, false, false);
    }

    /// Whether any request or response is still in flight anywhere.
    pub fn quiescent(&self) -> bool {
        self.icnt.is_empty()
            && self.tex.is_empty()
            && self.dram.is_empty()
            && self.responses.iter().all(BinaryHeap::is_empty)
    }

    /// Occupancy of the global interconnect queue.
    pub fn icnt_occupancy(&self) -> usize {
        self.icnt.len()
    }

    /// Per-level statistics.
    pub fn stats(&self) -> &[MemLevelStats; 3] {
        &self.stats
    }

    /// The shared L2 cache (for hit-rate reporting).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Flushes the L2 between invocations.
    pub fn flush_l2(&mut self) {
        self.l2.flush();
    }

    /// Serializes the dynamic state. Queues keep their order; response
    /// heaps are written as sorted element lists (pop order depends only
    /// on the multiset, so the canonical form is deterministic even
    /// though the internal heap layout is not).
    pub(crate) fn encode(&self, w: &mut crate::snapshot::Writer) {
        for queue in [&self.icnt, &self.tex, &self.dram] {
            w.usize(queue.len());
            for req in queue {
                put_mem_req(w, req);
            }
        }
        self.l2.encode(w);
        w.u64(self.credit);
        w.usize(self.responses.len());
        for heap in &self.responses {
            let mut entries: Vec<(Femtos, u64)> = heap.iter().map(|Reverse(pair)| *pair).collect();
            entries.sort_unstable();
            w.usize(entries.len());
            for (ready, token) in entries {
                w.u64(ready);
                w.u64(token);
            }
        }
        for s in &self.stats {
            put_mem_level_stats(w, s);
        }
        w.bool(self.prefer_tex);
    }

    /// Rebuilds the memory system for `config` from [`MemSystem::encode`]
    /// bytes.
    pub(crate) fn decode(
        config: &GpuConfig,
        r: &mut crate::snapshot::Reader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        let mut mem = Self::new(config);
        for (queue, cap) in [
            (&mut mem.icnt, config.icnt_cap),
            (&mut mem.tex, config.tex_queue_cap),
            (&mut mem.dram, config.dram_queue_cap),
        ] {
            let at = r.offset();
            let n = r.seq_len(26)?;
            if n > cap {
                return Err(crate::snapshot::SnapshotError::Corrupt {
                    offset: at,
                    what: "memory queue overflows its capacity",
                });
            }
            for _ in 0..n {
                queue.push_back(get_mem_req(r, config.num_sms)?);
            }
        }
        mem.l2 = Cache::decode(config.l2, r)?;
        mem.credit = r.u64()?;
        let at = r.offset();
        if r.seq_len(8)? != config.num_sms {
            return Err(crate::snapshot::SnapshotError::Corrupt {
                offset: at,
                what: "response heap count differs from SM count",
            });
        }
        for heap in &mut mem.responses {
            let n = r.seq_len(16)?;
            for _ in 0..n {
                let ready = r.u64()?;
                let token = r.u64()?;
                heap.push(Reverse((ready, token)));
            }
        }
        for s in &mut mem.stats {
            *s = get_mem_level_stats(r)?;
        }
        mem.prefer_tex = r.bool()?;
        Ok(mem)
    }
}

fn put_mem_req(w: &mut crate::snapshot::Writer, req: &MemReq) {
    let MemReq {
        sm,
        token,
        addr,
        is_load,
        texture,
    } = req;
    w.usize(*sm);
    w.u64(*token);
    w.u64(*addr);
    w.bool(*is_load);
    w.bool(*texture);
}

fn get_mem_req(
    r: &mut crate::snapshot::Reader<'_>,
    num_sms: usize,
) -> Result<MemReq, crate::snapshot::SnapshotError> {
    let at = r.offset();
    let sm = r.usize()?;
    if sm >= num_sms {
        return Err(crate::snapshot::SnapshotError::Corrupt {
            offset: at,
            what: "memory request from an SM beyond the machine",
        });
    }
    Ok(MemReq {
        sm,
        token: r.u64()?,
        addr: r.u64()?,
        is_load: r.bool()?,
        texture: r.bool()?,
    })
}

pub(crate) fn put_mem_level_stats(w: &mut crate::snapshot::Writer, s: &MemLevelStats) {
    let MemLevelStats {
        l2_accesses,
        l2_hits,
        dram_accesses,
        dram_busy_cycles,
        dram_idle_upstream_cycles,
        icnt_occupancy_sum,
    } = s;
    w.u64(*l2_accesses);
    w.u64(*l2_hits);
    w.u64(*dram_accesses);
    w.u64(*dram_busy_cycles);
    w.u64(*dram_idle_upstream_cycles);
    w.u64(*icnt_occupancy_sum);
}

pub(crate) fn get_mem_level_stats(
    r: &mut crate::snapshot::Reader<'_>,
) -> Result<MemLevelStats, crate::snapshot::SnapshotError> {
    Ok(MemLevelStats {
        l2_accesses: r.u64()?,
        l2_hits: r.u64()?,
        dram_accesses: r.u64()?,
        dram_busy_cycles: r.u64()?,
        dram_idle_upstream_cycles: r.u64()?,
        icnt_occupancy_sum: r.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GpuConfig {
        let mut c = GpuConfig::gtx480();
        c.num_sms = 2;
        c
    }

    fn load(sm: usize, addr: u64) -> MemReq {
        MemReq {
            sm,
            token: addr,
            addr,
            is_load: true,
            texture: false,
        }
    }

    #[test]
    fn l2_hit_responds_quickly() {
        let c = cfg();
        let mut m = MemSystem::new(&c);
        let period = 1_000_000;
        // Warm the line via DRAM.
        m.inject(load(0, 0x1000));
        let mut t = 0;
        let mut out = Vec::new();
        for _ in 0..200 {
            t += period;
            m.step(t, VfLevel::Nominal, period);
            m.drain_ready(0, t, &mut out);
            if !out.is_empty() {
                break;
            }
        }
        assert_eq!(out, vec![0x1000]);
        let dram_first = m.stats()[1].dram_accesses;
        assert_eq!(dram_first, 1);

        // Second access to the same line: L2 hit, no extra DRAM access.
        out.clear();
        m.inject(load(0, 0x1000));
        for _ in 0..40 {
            t += period;
            m.step(t, VfLevel::Nominal, period);
            m.drain_ready(0, t, &mut out);
            if !out.is_empty() {
                break;
            }
        }
        assert_eq!(out, vec![0x1000]);
        assert_eq!(m.stats()[1].dram_accesses, dram_first);
        assert_eq!(m.stats()[1].l2_hits, 1);
    }

    #[test]
    fn bandwidth_limits_line_throughput() {
        let mut c = cfg();
        c.dram_bytes_per_cycle = 64; // half a line per cycle
        c.icnt_cap = 1000;
        c.dram_queue_cap = 1000;
        c.l2_banks = 16;
        let mut m = MemSystem::new(&c);
        // 100 distinct lines.
        for i in 0..100u64 {
            m.inject(load(0, i * 128 * 1021)); // avoid L2 set reuse patterns
        }
        let period = 1_000_000;
        let mut t = 0;
        let mut cycles = 0;
        while !m.quiescent() {
            t += period;
            m.step(t, VfLevel::Nominal, period);
            let mut out = Vec::new();
            m.drain_ready(0, u64::MAX, &mut out);
            cycles += 1;
            assert!(cycles < 10_000, "memory system wedged");
        }
        // 100 lines at 0.5 lines/cycle -> at least ~200 cycles.
        assert!(cycles >= 200, "served too fast: {cycles} cycles");
    }

    #[test]
    fn back_pressure_when_icnt_full() {
        let mut c = cfg();
        c.icnt_cap = 4;
        let mut m = MemSystem::new(&c);
        for i in 0..4u64 {
            assert!(m.can_accept(false));
            m.inject(load(0, i * 128));
        }
        assert!(!m.can_accept(false), "queue should be full");
        assert!(m.can_accept(true), "texture path independent of icnt");
    }

    #[test]
    fn stores_consume_bandwidth_but_no_response() {
        let c = cfg();
        let mut m = MemSystem::new(&c);
        m.inject(MemReq {
            sm: 0,
            token: 7,
            addr: 0x40_0000,
            is_load: false,
            texture: false,
        });
        let period = 1_000_000;
        let mut t = 0;
        while !m.quiescent() {
            t += period;
            m.step(t, VfLevel::Nominal, period);
        }
        let mut out = Vec::new();
        m.drain_ready(0, u64::MAX, &mut out);
        assert!(out.is_empty());
        assert_eq!(m.stats()[1].dram_accesses, 1);
    }

    #[test]
    fn fast_forward_matches_stepping_on_empty_queues() {
        let c = cfg();
        let mut stepped = MemSystem::new(&c);
        let mut forwarded = MemSystem::new(&c);
        let period = 1_000_000u64;
        // Put both systems in the same non-trivial state: some traffic
        // serviced, responses still pending, queues drained.
        for m in [&mut stepped, &mut forwarded] {
            m.inject(load(0, 0x100));
            m.inject(load(1, 0x2000));
            let mut t = 0;
            while !m.queues_empty() {
                t += period;
                m.step(t, VfLevel::Nominal, period);
            }
        }
        let t0 = 300 * period;
        let cycles = 37u64;
        for j in 1..=cycles {
            stepped.step(t0 + j * period, VfLevel::Nominal, period);
        }
        forwarded.fast_forward(cycles, VfLevel::Nominal);
        let (mut a, mut b) = (
            crate::snapshot::Writer::new(),
            crate::snapshot::Writer::new(),
        );
        stepped.encode(&mut a);
        forwarded.encode(&mut b);
        assert_eq!(
            a.into_bytes(),
            b.into_bytes(),
            "fast_forward diverged from per-cycle stepping"
        );
    }

    #[test]
    fn bulk_account_saturates_instead_of_wrapping() {
        // Regression alongside the WarpStateCounters overflow test: a
        // diagnostic tally near the u64 horizon must clamp, not wrap.
        let mut s = MemLevelStats {
            icnt_occupancy_sum: u64::MAX - 5,
            dram_busy_cycles: u64::MAX - 2,
            dram_idle_upstream_cycles: u64::MAX - 1,
            ..MemLevelStats::default()
        };
        s.bulk_account(4, 3, true, false);
        assert_eq!(s.icnt_occupancy_sum, u64::MAX);
        assert_eq!(s.dram_busy_cycles, u64::MAX);
        s.bulk_account(7, 0, false, true);
        assert_eq!(s.dram_idle_upstream_cycles, u64::MAX);
    }

    #[test]
    fn responses_are_time_ordered() {
        let c = cfg();
        let mut m = MemSystem::new(&c);
        m.inject(load(1, 0));
        m.inject(load(1, 128 * 3));
        let period = 1_000_000;
        let mut t = 0;
        for _ in 0..300 {
            t += period;
            m.step(t, VfLevel::Nominal, period);
        }
        let mut early = Vec::new();
        m.drain_ready(1, 0, &mut early);
        assert!(early.is_empty(), "nothing ready at t=0");
        let mut all = Vec::new();
        m.drain_ready(1, u64::MAX, &mut all);
        assert_eq!(all.len(), 2);
    }
}
