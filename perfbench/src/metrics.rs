//! Metric names, units and the per-layer derivations.
//!
//! Every name here must match `BENCHMARK.json`; a test checks that.

use std::collections::BTreeMap;

use atmo_kernel::SyscallArgs;
use atmo_trace::Snapshot;

use crate::spans::{SpanStats, LAYERS};
use crate::stats::percentile;

/// Counter values by name. Deltas of these across the measured window
/// feed every per-layer count and ratio.
pub type Counters = BTreeMap<String, u64>;

/// Syscall kinds reported per layer (`kernel.syscall.<kind>.*`).
pub const KINDS: [&str; 18] = [
    "call",
    "reply_recv",
    "take_msg",
    "getpid",
    "yield",
    "trace_snapshot",
    "mmap",
    "munmap",
    "iommu_create",
    "iommu_map",
    "iommu_unmap",
    "new_container",
    "new_process",
    "new_thread",
    "terminate_container",
    "nr_read",
    "blk_submit",
    "blk_reap",
];

/// The reported kind index of `args`. `replicated`: the kernel serves
/// `Getpid` from its node replicas (then it is an `nr_read`).
pub fn kind_of(args: &SyscallArgs, replicated: bool) -> u8 {
    let name = match args {
        SyscallArgs::Call { .. } => "call",
        SyscallArgs::ReplyRecv { .. } => "reply_recv",
        SyscallArgs::TakeMsg => "take_msg",
        SyscallArgs::Getpid if !replicated => "getpid",
        SyscallArgs::Getpid | SyscallArgs::VmResolve { .. } | SyscallArgs::ThreadLookup { .. } => {
            "nr_read"
        }
        SyscallArgs::Yield => "yield",
        SyscallArgs::TraceSnapshot => "trace_snapshot",
        SyscallArgs::Mmap { .. } => "mmap",
        SyscallArgs::Munmap { .. } => "munmap",
        SyscallArgs::IommuCreateDomain => "iommu_create",
        SyscallArgs::IommuMap { .. } => "iommu_map",
        SyscallArgs::IommuUnmap { .. } => "iommu_unmap",
        SyscallArgs::NewContainer { .. } => "new_container",
        SyscallArgs::NewProcess { .. } => "new_process",
        SyscallArgs::NewThread { .. } => "new_thread",
        SyscallArgs::TerminateContainer { .. } => "terminate_container",
        SyscallArgs::BlkSubmitBatch { .. } => "blk_submit",
        SyscallArgs::BlkReapBatch { .. } => "blk_reap",
        _ => return u8::MAX,
    };
    KINDS.iter().position(|k| *k == name).expect("listed kind") as u8
}

/// Per-kind syscall counts and modeled cycles (meter delta across the
/// call, lock waits included).
#[derive(Clone, Debug, Default)]
pub struct SysStats {
    count: [u64; KINDS.len()],
    cycles: [u64; KINDS.len()],
}

impl SysStats {
    /// Records one call of `kind` that advanced its CPU's meter by `cycles`.
    pub fn record(&mut self, kind: u8, cycles: u64) {
        if let Some(c) = self.count.get_mut(kind as usize) {
            *c += 1;
            self.cycles[kind as usize] += cycles;
        }
    }

    /// Adds `sys.<kind>.count` / `sys.<kind>.cycles` to `out`.
    pub fn export(&self, out: &mut Counters) {
        for (i, k) in KINDS.iter().enumerate() {
            out.insert(format!("sys.{k}.count"), self.count[i]);
            out.insert(format!("sys.{k}.cycles"), self.cycles[i]);
        }
    }
}

/// The trace-snapshot counters the per-layer metrics use. Only counts
/// that are a function of the op stream go in (no wall-clock fields),
/// so deltas repeat exactly for a seed.
pub fn export_snapshot(s: &Snapshot, out: &mut Counters) {
    let c = &s.counters;
    let fp = &c.pm.fastpath;
    let fallbacks = fp.fallback_wrong_side
        + fp.fallback_queue_full
        + fp.fallback_cross_cpu
        + fp.fallback_cap_transfer
        + fp.fallback_budget;
    for (k, v) in [
        ("pm.fastpath.hits", fp.hits),
        ("pm.fastpath.fallbacks", fallbacks),
        ("pm.context_switches", c.pm.context_switches),
        ("sched.picks", c.sched.picks),
        ("lock.pm.wait_cycles", s.lock_wait_pm_hist.total_cycles()),
        ("lock.mem.wait_cycles", s.lock_wait_mem_hist.total_cycles()),
        ("vm.superpage_promotions", c.vm.superpage_promotions),
        ("vm.tlb_shootdowns_deferred", c.vm.tlb_shootdowns_deferred),
        ("nr.appended", c.nr.appended),
        ("nr.replayed", c.nr.replayed),
        ("nr.read_local", c.nr.read_local),
        ("nr.fallback_locked", c.nr.fallback_locked),
        ("audit.incremental", c.audit.incremental),
        ("audit.touched", c.audit.touched_entries),
        ("audit.full", c.audit.full),
        ("httpd.parked", c.httpd.parked),
        ("httpd.served", c.httpd.served),
        ("net.pool_acquired", c.net.pool_acquired),
        ("net.pool_exhausted", c.net.pool_exhausted),
        ("net.fallback_copies", c.net.fallback_copies),
        ("blk.pool_acquired", c.blk.pool_acquired),
        ("blk.pool_exhausted", c.blk.pool_exhausted),
        ("blk.fallback_copies", c.blk.fallback_copies),
        ("blk.submit_batches", c.blk.submit_batches),
        ("blk.submit_ios", c.blk.submit_ios),
    ] {
        out.insert(k.to_string(), v);
    }
}

/// `after - before` for every counter in `after`.
pub fn delta(before: &Counters, after: &Counters) -> Counters {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .collect()
}

/// The end-to-end metrics (name, unit), in report order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("host_ops_per_s", "1/s"),
    ("host_op_p50_us", "us"),
    ("host_op_p99_us", "us"),
    ("modeled_ops_per_s", "1/s"),
    ("modeled_cycles_per_op", "cycles"),
    ("modeled_op_p99_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics that are not per syscall kind or per span layer
/// (name, unit), in report order.
const LAYER_METRICS: [(&str, &str); 36] = [
    ("pm.ipc.fastpath_hit_ratio", "1"),
    ("pm.ipc.fastpath_attempts", "count"),
    ("pm.sched.picks_per_op", "1"),
    ("pm.context_switches_per_op", "1"),
    ("trace.snapshot.host_us", "us"),
    ("kernel.smp.lock_wait_cycles_per_op.pm", "cycles"),
    ("kernel.smp.lock_wait_cycles_per_op.mem", "cycles"),
    ("mem.cache.hit_ratio", "1"),
    ("mem.cache.ops", "count"),
    ("kernel.vm.superpage_promotions", "count"),
    ("kernel.vm.tlb_shootdowns_deferred", "count"),
    ("kernel.vm.resolve_mismatches_in_huge_runs", "count"),
    ("nr.appended_per_write", "1"),
    ("nr.writes", "count"),
    ("nr.replayed_per_read", "1"),
    ("nr.read_local_ratio", "1"),
    ("nr.reads", "count"),
    ("kernel.audit.incremental.host_us", "us"),
    ("kernel.audit.incremental.touched_per_call", "1"),
    ("kernel.audit.incremental.calls", "count"),
    ("kernel.audit.full.host_ms", "ms"),
    ("apps.event.tick.host_us", "us"),
    ("apps.event.ingest.host_ns_per_frame", "ns"),
    ("apps.event.parked_per_req", "1"),
    ("apps.event.requests", "count"),
    ("apps.kvstore.set.host_ns", "ns"),
    ("apps.kvstore.get.host_ns", "ns"),
    ("apps.kvstore.compactions", "count"),
    ("drivers.pkt_pool.exhausted_ratio", "1"),
    ("drivers.pkt_pool.acquire_attempts", "count"),
    ("drivers.blk_pool.exhausted_ratio", "1"),
    ("drivers.blk_pool.acquire_attempts", "count"),
    ("drivers.fallback_copies", "count"),
    ("kernel.blk.ios_per_batch", "1"),
    ("kernel.blk.submit_batches", "count"),
    ("bench.tracing_overhead", "1"),
];

/// Run-level per-layer metrics (name, unit).
const RUN_METRICS: [(&str, &str); 4] = [
    ("failed_op_ratio", "1"),
    ("bench.host_op_samples", "count"),
    ("bench.modeled_op_samples", "count"),
    ("bench.generator_lag_us", "us"),
];

/// Every per-layer metric (name, unit), in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for k in KINDS {
        out.push((format!("kernel.syscall.{k}.host_ns"), "ns"));
        out.push((format!("kernel.syscall.{k}.modeled_cycles"), "cycles"));
    }
    for (n, u) in LAYER_METRICS.iter().chain(RUN_METRICS.iter()) {
        out.push((n.to_string(), u));
    }
    for (_, layer) in LAYERS {
        out.push((format!("span.{layer}.self_ns_per_op"), "ns"));
    }
    out
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn p50(v: &[u64]) -> f64 {
    percentile(&mut v.to_vec(), 0.5)
}

/// Inputs of the per-layer derivation for one traced window.
pub struct LayerInputs<'a> {
    /// Counter deltas over the window.
    pub d: &'a Counters,
    /// Ops in the window.
    pub ops: u64,
    /// Span statistics of the traced window.
    pub spans: &'a SpanStats,
    /// Traced / untraced window host time, minus one.
    pub tracing_overhead: f64,
    /// Failed or never-completed ops over the untraced run, and attempts.
    pub failed: u64,
    /// Ops attempted over the untraced run.
    pub attempted: u64,
    /// Host latency samples of the untraced run.
    pub host_samples: u64,
    /// Modeled latency samples of the window.
    pub modeled_samples: u64,
    /// 99th-percentile modeled lateness of an open-loop generator (µs).
    pub generator_lag_us: f64,
}

/// Computes every per-layer metric value, keyed by name.
pub fn per_layer(x: &LayerInputs<'_>) -> BTreeMap<String, f64> {
    let d = |k: &str| x.d.get(k).copied().unwrap_or(0);
    let dur = |l: crate::spans::Layer| &x.spans.durations[l as usize];
    use crate::spans::Layer;
    let mut m = BTreeMap::new();
    for (i, k) in KINDS.iter().enumerate() {
        m.insert(
            format!("kernel.syscall.{k}.host_ns"),
            p50(&x.spans.kind_durations[i]),
        );
        m.insert(
            format!("kernel.syscall.{k}.modeled_cycles"),
            ratio(d(&format!("sys.{k}.cycles")), d(&format!("sys.{k}.count"))),
        );
    }
    let attempts = d("sys.call.count") + d("sys.reply_recv.count");
    let cache_fast = d("cache.fast_allocs") + d("cache.fast_frees");
    let cache_ops = cache_fast + d("cache.refills") + d("cache.drains");
    let ingest_ns: u64 = dur(Layer::EventIngest).iter().sum();
    let pkt_attempts = d("net.pool_acquired") + d("net.pool_exhausted");
    let blk_attempts = d("blk.pool_acquired") + d("blk.pool_exhausted");
    let values: [(&str, f64); 36] = [
        (
            "pm.ipc.fastpath_hit_ratio",
            ratio(d("pm.fastpath.hits"), attempts),
        ),
        ("pm.ipc.fastpath_attempts", attempts as f64),
        ("pm.sched.picks_per_op", ratio(d("sched.picks"), x.ops)),
        (
            "pm.context_switches_per_op",
            ratio(d("pm.context_switches"), x.ops),
        ),
        (
            "trace.snapshot.host_us",
            p50(dur(Layer::TraceSnapshot)) / 1e3,
        ),
        (
            "kernel.smp.lock_wait_cycles_per_op.pm",
            ratio(d("lock.pm.wait_cycles"), x.ops),
        ),
        (
            "kernel.smp.lock_wait_cycles_per_op.mem",
            ratio(d("lock.mem.wait_cycles"), x.ops),
        ),
        ("mem.cache.hit_ratio", ratio(cache_fast, cache_ops)),
        ("mem.cache.ops", cache_ops as f64),
        (
            "kernel.vm.superpage_promotions",
            d("vm.superpage_promotions") as f64,
        ),
        (
            "kernel.vm.tlb_shootdowns_deferred",
            d("vm.tlb_shootdowns_deferred") as f64,
        ),
        (
            "kernel.vm.resolve_mismatches_in_huge_runs",
            d("vm.huge_resolve_mismatches") as f64,
        ),
        (
            "nr.appended_per_write",
            ratio(d("nr.appended"), d("ops.writes")),
        ),
        ("nr.writes", d("ops.writes") as f64),
        (
            "nr.replayed_per_read",
            ratio(d("nr.replayed"), d("ops.reads")),
        ),
        (
            "nr.read_local_ratio",
            ratio(
                d("nr.read_local"),
                d("nr.read_local") + d("nr.fallback_locked"),
            ),
        ),
        ("nr.reads", d("ops.reads") as f64),
        (
            "kernel.audit.incremental.host_us",
            p50(dur(Layer::AuditIncremental)) / 1e3,
        ),
        (
            "kernel.audit.incremental.touched_per_call",
            ratio(d("audit.touched"), d("audit.incremental")),
        ),
        (
            "kernel.audit.incremental.calls",
            d("audit.incremental") as f64,
        ),
        (
            "kernel.audit.full.host_ms",
            p50(dur(Layer::AuditFull)) / 1e6,
        ),
        ("apps.event.tick.host_us", p50(dur(Layer::EventTick)) / 1e3),
        (
            "apps.event.ingest.host_ns_per_frame",
            ratio(ingest_ns, d("event.frames")),
        ),
        (
            "apps.event.parked_per_req",
            ratio(d("httpd.parked"), d("event.requests")),
        ),
        ("apps.event.requests", d("event.requests") as f64),
        ("apps.kvstore.set.host_ns", p50(dur(Layer::KvSet))),
        ("apps.kvstore.get.host_ns", p50(dur(Layer::KvGet))),
        ("apps.kvstore.compactions", d("kv.compactions") as f64),
        (
            "drivers.pkt_pool.exhausted_ratio",
            ratio(d("net.pool_exhausted"), pkt_attempts),
        ),
        ("drivers.pkt_pool.acquire_attempts", pkt_attempts as f64),
        (
            "drivers.blk_pool.exhausted_ratio",
            ratio(d("blk.pool_exhausted"), blk_attempts),
        ),
        ("drivers.blk_pool.acquire_attempts", blk_attempts as f64),
        (
            "drivers.fallback_copies",
            (d("net.fallback_copies") + d("blk.fallback_copies")) as f64,
        ),
        (
            "kernel.blk.ios_per_batch",
            ratio(d("blk.submit_ios"), d("blk.submit_batches")),
        ),
        ("kernel.blk.submit_batches", d("blk.submit_batches") as f64),
        ("bench.tracing_overhead", x.tracing_overhead),
    ];
    for (k, v) in values {
        m.insert(k.to_string(), v);
    }
    m.insert(
        "failed_op_ratio".to_string(),
        ratio(x.failed, x.attempted.max(1)),
    );
    m.insert("bench.host_op_samples".to_string(), x.host_samples as f64);
    m.insert(
        "bench.modeled_op_samples".to_string(),
        x.modeled_samples as f64,
    );
    m.insert("bench.generator_lag_us".to_string(), x.generator_lag_us);
    for (layer, name) in LAYERS {
        m.insert(
            format!("span.{name}.self_ns_per_op"),
            x.spans.self_ns[layer as usize] as f64 / x.ops.max(1) as f64,
        );
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_bounded() {
        let layer = per_layer_names();
        assert!(END_TO_END.len() <= 16, "at most 16 end-to-end metrics");
        assert!(layer.len() <= 128, "at most 128 per-layer metrics");
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .chain(layer)
        {
            assert!(valid_name(&n), "bad metric name {n}");
            assert!(valid_unit(u), "bad unit {u} of {n}");
            assert!(seen.insert(n.clone()), "duplicate metric {n}");
        }
    }

    #[test]
    fn derivation_emits_exactly_the_declared_per_layer_metrics() {
        let spans = crate::spans::Spans::off().stats(KINDS.len());
        let d = Counters::new();
        let got = per_layer(&LayerInputs {
            d: &d,
            ops: 1,
            spans: &spans,
            tracing_overhead: 0.0,
            failed: 0,
            attempted: 1,
            host_samples: 1,
            modeled_samples: 1,
            generator_lag_us: 0.0,
        });
        let want: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
        let mut have: Vec<String> = got.keys().cloned().collect();
        let mut want_sorted = want.clone();
        want_sorted.sort();
        have.sort();
        assert_eq!(have, want_sorted);
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (n, u) in END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .chain(per_layer_names())
        {
            let entry = format!("\"name\": \"{n}\", \"unit\": \"{u}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + per_layer_names().len(),
            "BENCHMARK.json declares no extra metrics"
        );
    }
}
