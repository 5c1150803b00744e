//! Analyze fixture: `lock-order`. The engine owns and steps its SMs
//! serially, so everything reachable from a stepping hot-path root
//! (`commit`, `step_running`, ...) must be lock-free: any
//! `Mutex`/`RwLock` type or `.lock()`
//! acquisition is flagged at the offending line. Helpers that no root
//! reaches — exporters, test scaffolding — may lock freely.

struct Shard {
    score: u64,
}

fn step_running(shards: &[Shard]) {
    for s in shards {
        service(s);
    }
}

fn service(s: &Shard) {
    let _g = s.cell.lock(); //~ lock-order
}

fn commit(s: &mut Shard) -> u64 {
    let stats = Mutex::new(s.score); //~ lock-order
    stats.into_inner()
}

fn exporter_ok(registry: &Registry) -> u64 {
    let snapshot = registry.inner.lock();
    snapshot.score
}
