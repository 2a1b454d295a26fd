//! The trace schema: every counter, gauge and histogram a trace shard
//! keeps, declared once with its doc comment and merge rule.
//!
//! [`trace_schema!`] turns each declaration into a plain struct plus its
//! [`Schema`] impl, so merging shards, listing counters by name and the
//! monotonicity audit all follow from the one declaration. A field's
//! rule is one of:
//!
//! * `sum` — a monotone event count; shards add;
//! * `max` — a monotone high-water mark; shards take the max;
//! * `gauge` — a signed level that moves both ways (acquired −
//!   released); shards add, and it stays out of the monotonicity audit;
//! * `hist` — a [`LatencyHist`]; shards merge bucket by bucket;
//! * `block` — a nested schema struct.
//!
//! Subsystems emit by updating their own fields inside
//! [`TraceSink::record`](crate::TraceSink::record); `trace_wf` states its
//! equations over the merged view.

use atmo_spec::harness::{check, VerifResult};

use crate::hist::LatencyHist;

/// One schema leaf, as [`Schema::visit`] presents it.
#[derive(Clone, Copy, Debug)]
pub enum Field<'a> {
    /// A `sum` or `max` counter: never decreases.
    Counter(u64),
    /// A `gauge`.
    Gauge(i64),
    /// A `hist`.
    Hist(&'a LatencyHist),
}

/// A struct declared through [`trace_schema!`].
pub trait Schema {
    /// Folds another shard's value in, each field by its declared rule.
    fn merge(&mut self, other: &Self);

    /// Calls `f` on every leaf in declaration order, with the field path
    /// from `self` (pushed onto `path`).
    fn visit<'a>(
        &'a self,
        path: &mut Vec<&'static str>,
        f: &mut impl FnMut(&[&'static str], Field<'a>),
    );
}

/// Declares schema structs: each field carries its doc comment, type and
/// merge rule (see the module docs).
macro_rules! trace_schema {
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* $field:ident: $ty:ty = $rule:ident, )*
        }
    )*) => {$(
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl Schema for $name {
            fn merge(&mut self, other: &Self) {
                $( trace_schema!(@merge $rule, self.$field, other.$field); )*
            }

            fn visit<'a>(
                &'a self,
                path: &mut Vec<&'static str>,
                f: &mut impl FnMut(&[&'static str], Field<'a>),
            ) {
                $(
                    path.push(stringify!($field));
                    trace_schema!(@visit $rule, self.$field, path, f);
                    path.pop();
                )*
            }
        }
    )*};
    (@merge sum, $a:expr, $b:expr) => { $a += $b };
    (@merge max, $a:expr, $b:expr) => { $a = $a.max($b) };
    (@merge gauge, $a:expr, $b:expr) => { $a += $b };
    (@merge hist, $a:expr, $b:expr) => { $a.merge(&$b) };
    (@merge block, $a:expr, $b:expr) => { $a.merge(&$b) };
    (@visit sum, $v:expr, $path:ident, $f:ident) => { $f($path, Field::Counter($v)) };
    (@visit max, $v:expr, $path:ident, $f:ident) => { $f($path, Field::Counter($v)) };
    (@visit gauge, $v:expr, $path:ident, $f:ident) => { $f($path, Field::Gauge($v)) };
    (@visit hist, $v:expr, $path:ident, $f:ident) => { $f($path, Field::Hist(&$v)) };
    (@visit block, $v:expr, $path:ident, $f:ident) => { $v.visit($path, $f) };
}

trace_schema! {
    /// Everything one CPU's trace shard accumulates besides its ring and
    /// per-kind syscall statistics; the snapshot merges all shards'.
    pub struct TraceState {
        /// Subsystem counters.
        counters: Counters = block,
        /// Packet-pool slots in flight (acquired − released). A `PktBuf`
        /// may be released on another CPU than it was acquired on, so a
        /// shard's value can be negative; `trace_wf` balances the merged
        /// gauge against the merged pool counters.
        net_in_flight: i64 = gauge,
        /// Block-pool slots in flight (acquired − released), same
        /// discipline as `net_in_flight`, for `BlkBuf` handles.
        blk_in_flight: i64 = gauge,
        /// Latency of incremental (ledger-fold) audits, in modeled cycles.
        audit_incremental_hist: LatencyHist = hist,
        /// Latency of full stop-the-world audits, in modeled cycles.
        audit_full_hist: LatencyHist = hist,
        /// Ledger entries folded per incremental audit (the touched-set
        /// size each O(touched) audit paid for).
        audit_touched_hist: LatencyHist = hist,
        /// Modeled cycles syscalls waited to acquire the pm domain lock
        /// (meter catch-up to the lock's model time — the DES analogue
        /// of spinning on a contended lock).
        lock_wait_pm_hist: LatencyHist = hist,
        /// Modeled cycles syscalls waited to acquire the mem domain lock.
        lock_wait_mem_hist: LatencyHist = hist,
        /// Ready-set size per httpd event-loop iteration (one sample per
        /// poll, empty iterations included — the measured form of the
        /// O(ready) event-loop claim).
        httpd_ready_hist: LatencyHist = hist,
        /// Run-queue pick cost, wall-clock nanoseconds converted to
        /// modeled cycles (one sample per pick — the measured form of the
        /// O(1)-in-tenants scheduler claim).
        sched_pick_hist: LatencyHist = hist,
    }

    /// All subsystem counter blocks. Counters only ever increase (the
    /// `trace_wf` audit enforces this between checks via a low-water
    /// mark); a decreasing counter would mean lost events.
    pub struct Counters {
        /// Process manager.
        pm: PmCounters = block,
        /// Page allocator.
        mem: MemCounters = block,
        /// Page tables.
        ptable: PtableCounters = block,
        /// Batched VM datapath.
        vm: VmCounters = block,
        /// Drivers.
        drivers: DriverCounters = block,
        /// Zero-copy network datapath.
        net: NetCounters = block,
        /// Zero-copy block datapath.
        blk: BlkCounters = block,
        /// Node-replicated read paths.
        nr: NrCounters = block,
        /// Event-driven httpd (connection shards, wheels, readiness).
        httpd: HttpdCounters = block,
        /// Multi-tenant scheduler (MLFQ picks, budgets, inheritance).
        sched: SchedCounters = block,
        /// Well-formedness audits.
        audit: AuditCounters = block,
        /// Domain locks.
        locks: LocksCounters = block,
    }

    /// Process-manager counters (scheduling and IPC).
    pub struct PmCounters {
        /// Times a CPU's running thread changed.
        context_switches: u64 = sum,
        /// Messages sent over endpoints (send/call/reply deliveries).
        ipc_sends: u64 = sum,
        /// Messages received from endpoints (recv/poll completions).
        ipc_recvs: u64 = sum,
        /// Send/recv operations completed by direct rendezvous with an
        /// already-waiting partner (the paper's IPC fast path).
        rendezvous: u64 = sum,
        /// Direct-handoff fastpath statistics (Call/ReplyRecv).
        fastpath: FastpathCounters = block,
    }

    /// IPC fastpath hit/miss statistics. Hits are direct handoffs that
    /// switched `current` straight to the partner; each `fallback_*`
    /// field counts one reason the fastpath bailed to the slow
    /// rendezvous. Counter-only: these annotate operations that already
    /// emit their own ring events, so they never enter the per-kind
    /// event reconciliation (nor do the vm, net, blk, nr, httpd, sched
    /// and audit blocks).
    pub struct FastpathCounters {
        /// Direct handoffs performed.
        hits: u64 = sum,
        /// Partner queue was absent or on the sending side.
        fallback_wrong_side: u64 = sum,
        /// Endpoint queue full — the slow path's capacity check fired.
        fallback_queue_full: u64 = sum,
        /// Partner's home CPU differs from the caller's.
        fallback_cross_cpu: u64 = sum,
        /// Payload carries a capability grant that needs the mem domain.
        fallback_cap_transfer: u64 = sum,
        /// Handoff budget exhausted — yielded to the run queue instead.
        fallback_budget: u64 = sum,
        /// Descriptor-slot cache lookups that skipped validation.
        slot_cache_hits: u64 = sum,
        /// Descriptor-slot cache lookups that fell through to the table.
        slot_cache_misses: u64 = sum,
    }

    /// Page-allocator counters.
    pub struct MemCounters {
        /// Allocation operations.
        allocs: u64 = sum,
        /// 4 KiB frames handed out.
        frames_allocated: u64 = sum,
        /// Free operations.
        frees: u64 = sum,
        /// 4 KiB frames returned.
        frames_freed: u64 = sum,
    }

    /// Page-table counters.
    pub struct PtableCounters {
        /// Leaf entries written.
        maps: u64 = sum,
        /// Leaf entries cleared.
        unmaps: u64 = sum,
        /// 4 KiB frames covered by written leaves.
        frames_mapped: u64 = sum,
        /// 4 KiB frames uncovered by cleared leaves.
        frames_unmapped: u64 = sum,
    }

    /// Batched-VM-datapath counters (walk cache, superpage promotion, and
    /// deferred TLB shootdowns).
    pub struct VmCounters {
        /// Batched leaf fills that reused the cached L1 walk instead of
        /// resolving the L3→L2→L1 chain again.
        map_batch_hits: u64 = sum,
        /// 512-page runs promoted to a single 2 MiB entry.
        superpage_promotions: u64 = sum,
        /// Promoted entries split back into 512 4 KiB entries (partial
        /// unmap or DMA pinning inside the region).
        superpage_demotions: u64 = sum,
        /// Pages whose TLB invalidation was queued for a batched shootdown.
        tlb_shootdowns_deferred: u64 = sum,
        /// Pages invalidated by batched shootdown flushes. Never exceeds
        /// the deferred count on a shard: a flush only drains what the
        /// same syscall queued (`trace_wf` checks this).
        tlb_shootdowns_flushed: u64 = sum,
    }

    /// Driver counters (ixgbe + NVMe).
    pub struct DriverCounters {
        /// Receive/completion batches.
        rx_batches: u64 = sum,
        /// Items across all receive batches.
        rx_items: u64 = sum,
        /// Transmit/submission batches.
        tx_batches: u64 = sum,
        /// Items across all transmit batches.
        tx_items: u64 = sum,
    }

    /// Zero-copy network datapath counters (packet-buffer pool, batched
    /// zero-copy RX/TX, and RSS flow steering). `trace_wf` checks
    /// `pool_acquired == pool_released + net_in_flight` on the merged
    /// view.
    pub struct NetCounters {
        /// Pool slots handed out (`PktBuf` handles created).
        pool_acquired: u64 = sum,
        /// Pool slots returned.
        pool_released: u64 = sum,
        /// Acquire attempts that found the pool empty (backpressure
        /// events, not failures — the datapath retries after draining TX).
        pool_exhausted: u64 = sum,
        /// Zero-copy receive batches.
        rx_zc_batches: u64 = sum,
        /// Frames across all zero-copy receive batches.
        rx_zc_frames: u64 = sum,
        /// Zero-copy transmit batches.
        tx_zc_batches: u64 = sum,
        /// Frames across all zero-copy transmit batches.
        tx_zc_frames: u64 = sum,
        /// Frames whose flow key steered to the local queue's CPU.
        steer_hits: u64 = sum,
        /// Frames that arrived on the wrong queue for their flow.
        steer_misses: u64 = sum,
        /// Frames copied out of the pool into an owned buffer (the
        /// non-zero-copy fallback, e.g. for consumers still wanting a
        /// `Packet`).
        fallback_copies: u64 = sum,
    }

    /// Zero-copy block datapath counters (block-buffer pool, batched SQ
    /// submission and CQ reaping, and completion wakeups). `trace_wf`
    /// checks `pool_acquired == pool_released + blk_in_flight` and
    /// `reap_ios <= submit_ios` on the merged view.
    pub struct BlkCounters {
        /// Pool slots handed out (`BlkBuf` handles created).
        pool_acquired: u64 = sum,
        /// Pool slots returned.
        pool_released: u64 = sum,
        /// Acquire attempts that found the pool empty (backpressure
        /// events, not failures — the datapath reaps completions and
        /// retries).
        pool_exhausted: u64 = sum,
        /// Batched SQ doorbell rings.
        submit_batches: u64 = sum,
        /// I/O commands across all submission batches.
        submit_ios: u64 = sum,
        /// Batched CQ reap passes that returned at least one completion.
        reap_batches: u64 = sum,
        /// Completions across all reap batches.
        reap_ios: u64 = sum,
        /// Parked reapers woken by a completion (modeled on the Call/
        /// ReplyRecv direct-handoff fast path).
        wakeups: u64 = sum,
        /// Blocks copied out of the pool into an owned buffer (the non-
        /// zero-copy fallback).
        fallback_copies: u64 = sum,
    }

    /// Node-replication counters (per-CPU replicas over the shared op
    /// log). `trace_wf` checks `combine_batches <= appended` (every
    /// flat-combining flush carries at least one op) and
    /// `replayed <= appended * (replicas + 1)` (each appended op is
    /// replayed at most once per replica plus the auditor's shadow
    /// replica) on the merged view.
    pub struct NrCounters {
        /// Ops appended to the shared operation log.
        appended: u64 = sum,
        /// Flat-combining flushes performed (each drains every CPU's
        /// pending slot into the log; only non-empty drains count).
        combine_batches: u64 = sum,
        /// Ops replayed onto replicas (local post-update replay,
        /// read-path catch-up, and epoch synchronization).
        replayed: u64 = sum,
        /// Read syscalls answered from the local replica, lock-free.
        read_local: u64 = sum,
        /// Read syscalls served by the locked domain path instead (node
        /// replication disabled, or a unified/big-lock dispatch).
        fallback_locked: u64 = sum,
    }

    /// Event-driven httpd counters (per-CPU connection shards, timer
    /// wheels, readiness rings). `trace_wf` checks `closes <= accepts`,
    /// that timeout-driven closes never exceed total closes, that
    /// `unparked <= parked`, and that `httpd_ready_hist` holds exactly
    /// `polls` samples.
    pub struct HttpdCounters {
        /// Connections opened (table slots handed out).
        accepts: u64 = sum,
        /// Connections closed (slot recycled under a new generation).
        closes: u64 = sum,
        /// Requests fully served (response streamed to TX).
        served: u64 = sum,
        /// Closes forced by the keepalive timer (idle connections).
        timeouts_keepalive: u64 = sum,
        /// Closes forced by the read-header timer (slowloris).
        timeouts_header: u64 = sum,
        /// Closes forced by the write-drain timer (stuck TX).
        timeouts_drain: u64 = sum,
        /// Timer-wheel nodes moved (or fired) by level-boundary cascades.
        wheel_cascades: u64 = sum,
        /// Connections parked on packet-pool exhaustion (backpressure).
        parked: u64 = sum,
        /// Parked connections resumed after TX freed pool slots.
        unparked: u64 = sum,
        /// Requests rejected as malformed by the incremental parser.
        malformed: u64 = sum,
        /// Event-loop iterations (ready-ring drains, including empty ones).
        polls: u64 = sum,
    }

    /// Multi-tenant scheduler counters (bitmap-indexed MLFQ,
    /// per-container budget accounts, IPC budget inheritance).
    /// `trace_wf` checks that `sched_pick_hist` holds exactly `picks`
    /// samples, `unparked <= parked` and `unthrottles <= throttles` on
    /// the merged view.
    pub struct SchedCounters {
        /// Run-queue picks (dispatch/rotate decisions that scanned the
        /// priority bitmap). Each records one pick-latency sample.
        picks: u64 = sum,
        /// Threads enqueued onto a run-queue level.
        enqueues: u64 = sum,
        /// Threads removed from the run queues (dequeue or teardown).
        removes: u64 = sum,
        /// Threads parked off the run queues (container throttled).
        parked: u64 = sum,
        /// Parked threads re-enqueued after a budget refill.
        unparked: u64 = sum,
        /// Container accounts throttled on budget exhaustion.
        throttles: u64 = sum,
        /// Container accounts unthrottled by the refill wheel.
        unthrottles: u64 = sum,
        /// Budget refills performed by the hierarchical timer wheel.
        refills: u64 = sum,
        /// IPC direct handoffs that inherited the client's budget account.
        inherited_handoffs: u64 = sum,
        /// MLFQ level demotions (a thread exhausted its slice).
        demotions: u64 = sum,
    }

    /// Well-formedness audit counters. Every full audit folds the
    /// pending ledger first (that fold *is* an incremental audit), so
    /// `incremental >= full` always — `trace_wf` checks this on the
    /// merged view.
    pub struct AuditCounters {
        /// Incremental (ledger-fold) audits performed.
        incremental: u64 = sum,
        /// Full stop-the-world audits performed.
        full: u64 = sum,
        /// Ledger entries folded across all incremental audits.
        touched_entries: u64 = sum,
    }

    /// Per-domain lock statistics.
    pub struct LocksCounters {
        /// Process-manager domain lock.
        pm: LockCounters = block,
        /// Memory domain lock.
        mem: LockCounters = block,
        /// Trace-shard locks.
        trace: LockCounters = block,
    }

    /// One lock domain's acquisition statistics.
    pub struct LockCounters {
        /// Successful acquisitions.
        acquisitions: u64 = sum,
        /// Acquisitions that found the lock held (slow path).
        contended: u64 = sum,
        /// Longest single hold, in modeled cycles.
        hold_max_cycles: u64 = max,
    }
}

impl FastpathCounters {
    /// Total fastpath attempts that missed, across all reasons.
    pub fn fallbacks(&self) -> u64 {
        self.fallback_wrong_side
            + self.fallback_queue_full
            + self.fallback_cross_cpu
            + self.fallback_cap_transfer
            + self.fallback_budget
    }
}

impl Counters {
    /// Every counter as a `(dotted field path, value)` pair, in
    /// declaration order (for reports).
    pub fn flat(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        self.visit(&mut Vec::new(), &mut |path, field| {
            if let Field::Counter(v) = field {
                out.push((path.join("."), v));
            }
        });
        out
    }

    fn values(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.visit(&mut Vec::new(), &mut |_, field| {
            if let Field::Counter(v) = field {
                out.push(v);
            }
        });
        out
    }

    /// Checks that no counter has decreased relative to `older`.
    pub fn monotone_since(&self, older: &Counters) -> VerifResult {
        let (now, before) = (self.values(), older.values());
        for (i, (now, before)) in now.iter().zip(&before).enumerate() {
            // Counter names are built only for a failing diagnostic.
            let detail = if now < before {
                format!("counter {} decreased: {before} -> {now}", self.flat()[i].0)
            } else {
                String::new()
            };
            check(now >= before, "trace_counters", detail)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_since_accepts_growth_and_rejects_shrink() {
        let mut old = Counters::default();
        old.pm.ipc_sends = 5;
        let mut new = old;
        new.pm.ipc_sends = 9;
        assert!(new.monotone_since(&old).is_ok());
        let err = old.monotone_since(&new).unwrap_err().to_string();
        assert!(
            err.contains("counter pm.ipc_sends decreased: 9 -> 5"),
            "{err}"
        );
    }

    #[test]
    fn flat_names_are_field_paths() {
        let names: Vec<String> = Counters::default()
            .flat()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        for n in [
            "pm.fastpath.slot_cache_misses",
            "nr.combine_batches",
            "nr.replayed",
            "locks.trace.hold_max_cycles",
        ] {
            assert!(names.iter().any(|m| m == n), "{n} missing");
        }
        assert_eq!(names.len(), 86, "one entry per declared counter");
    }

    #[test]
    fn merge_follows_each_fields_rule() {
        let mut a = TraceState::default();
        a.counters.pm.ipc_sends = 3;
        a.counters.locks.pm.hold_max_cycles = 500;
        a.net_in_flight = 4;
        a.sched_pick_hist.record(10);
        let mut b = TraceState::default();
        b.counters.pm.ipc_sends = 4;
        b.counters.locks.pm.hold_max_cycles = 900;
        b.net_in_flight = -6;
        b.sched_pick_hist.record(30);
        a.merge(&b);
        assert_eq!(a.counters.pm.ipc_sends, 7);
        assert_eq!(a.counters.locks.pm.hold_max_cycles, 900, "max, not sum");
        assert_eq!(a.net_in_flight, -2, "signed sum");
        assert_eq!(a.sched_pick_hist.count(), 2);
        assert_eq!(a.sched_pick_hist.max(), 30);
    }
}
