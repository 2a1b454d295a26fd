//! The shared trace sink: per-CPU shards behind one handle, with the
//! `trace_wf` well-formedness audit.
//!
//! Each simulated CPU owns a [`PerCpuTrace`] shard — its ring, per-kind
//! syscall statistics, its [`TraceState`] (every schema counter, gauge
//! and histogram) and its audit ledger — behind its own mutex, so
//! concurrent syscalls on distinct CPUs never contend on trace emission,
//! and an emission takes no other lock. Gauges and histograms merge at
//! snapshot and audit time like the counters do. CPU attribution for
//! deep-call-graph emissions uses a thread-local set at syscall entry,
//! which is correct even without the big lock: each OS thread drives
//! exactly one simulated CPU at a time. Trace-shard locks are the *last*
//! locks in the kernel's total lock order and never acquire anything
//! else, so they cannot participate in a deadlock cycle.

use std::cell::Cell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::time::Instant;

use atmo_spec::harness::{check, Invariant, VerifResult};
use atmo_spec::lock_recovering;

use crate::audit::AuditDelta;
use crate::event::{
    EventKind, KernelEvent, ReturnClass, SyscallKind, NUM_EVENT_KINDS, NUM_SYSCALL_KINDS,
};
use crate::hist::LatencyHist;
use crate::ring::EventRing;
use crate::schema::{Counters, Field, Schema, TraceState};
use crate::snapshot::{CpuSummary, Snapshot, SyscallSummary};

/// Which kernel lock domain an acquisition belongs to, for the
/// per-domain lock counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockDomain {
    /// Process-manager domain (scheduler, endpoints, containers).
    Pm,
    /// Memory domain (allocator, page tables, grants, IOMMU).
    Mem,
    /// Trace shards themselves.
    Trace,
}

impl LockDomain {
    /// Stable lower-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            LockDomain::Pm => "pm",
            LockDomain::Mem => "mem",
            LockDomain::Trace => "trace",
        }
    }
}

/// Converts wall-clock nanoseconds into modeled cycles at the c220g5
/// profile's 2.2 GHz, for lock hold times (the only place real time
/// leaks into the modeled-cycle world).
pub fn ns_to_cycles(ns: u64) -> u64 {
    ns * 11 / 5
}

/// Per-kind syscall statistics on one CPU.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SyscallStats {
    /// Dispatcher entries.
    pub enters: u64,
    /// Dispatcher returns.
    pub exits: u64,
    /// Returns in the success class.
    pub ok: u64,
    /// Returns in an error class.
    pub errs: u64,
    /// Latency distribution of completed calls (modeled cycles).
    pub hist: LatencyHist,
}

/// One CPU's trace shard.
#[derive(Clone, Debug)]
struct PerCpuTrace {
    ring: EventRing,
    /// Events pushed, by [`EventKind`] (monotone; unlike the ring, never
    /// loses history to overwrite).
    kinds: [u64; NUM_EVENT_KINDS],
    /// Per-syscall-kind statistics.
    syscalls: Vec<SyscallStats>,
    /// This shard's counters, gauges and histograms.
    state: TraceState,
    /// This shard's pending audit-ledger entries (drained by the
    /// incremental auditor; empty whenever recording is off). Lives
    /// outside the event ring: ledger entries must never be dropped to
    /// overwrite or double-counted by the per-kind reconciliation.
    ledger: Vec<AuditDelta>,
}

impl PerCpuTrace {
    fn new(ring_capacity: usize) -> Self {
        PerCpuTrace {
            ring: EventRing::new(ring_capacity),
            kinds: [0; NUM_EVENT_KINDS],
            syscalls: vec![SyscallStats::default(); NUM_SYSCALL_KINDS],
            state: TraceState::default(),
            ledger: Vec::new(),
        }
    }
}

/// The calling CPU's shard as a [`TraceSink::record`] closure sees it:
/// the shard's [`TraceState`] (through `Deref`) and its audit ledger.
pub struct Shard<'a> {
    state: &'a mut TraceState,
    ledger: &'a mut Vec<AuditDelta>,
    recording: &'a AtomicBool,
}

impl Shard<'_> {
    /// Appends `d` to the shard's audit ledger when recording is on, so a
    /// counter update and its ledger delta share one acquisition.
    pub fn audit(&mut self, d: AuditDelta) {
        if self.recording.load(Ordering::Relaxed) {
            self.ledger.push(d);
        }
    }
}

impl Deref for Shard<'_> {
    type Target = TraceState;
    fn deref(&self) -> &TraceState {
        self.state
    }
}

impl DerefMut for Shard<'_> {
    fn deref_mut(&mut self) -> &mut TraceState {
        self.state
    }
}

thread_local! {
    /// CPU attributed to subsystem emissions on this OS thread: set at
    /// syscall entry. Thread-local (not sink-global) so concurrent
    /// syscalls on different CPUs attribute correctly without a lock.
    static CURRENT_CPU: Cell<usize> = const { Cell::new(0) };
}

/// The trace sink for one kernel instance, sharded per CPU.
///
/// Cheap to share ([`TraceHandle`] = `Arc<TraceSink>`); interior
/// mutability keeps subsystem signatures unchanged.
pub struct TraceSink {
    shards: Vec<Mutex<PerCpuTrace>>,
    /// Merged counter values at the previous `trace_wf` audit
    /// (monotonicity low-water mark).
    low_water: Mutex<Counters>,
    /// Whether mutations should emit [`AuditDelta`]s into the per-CPU
    /// ledgers. Off by default so kernels that never audit incrementally
    /// pay one relaxed atomic load per choke point and store nothing.
    audit_recording: AtomicBool,
}

/// A shared reference to a kernel's trace sink.
pub type TraceHandle = Arc<TraceSink>;

impl TraceSink {
    /// A sink with one ring per CPU, each retaining `ring_capacity`
    /// events. All storage is allocated here, never afterwards.
    pub fn new(ncpus: usize, ring_capacity: usize) -> TraceHandle {
        Arc::new(TraceSink {
            shards: (0..ncpus.max(1))
                .map(|_| Mutex::new(PerCpuTrace::new(ring_capacity)))
                .collect(),
            low_water: Mutex::new(Counters::default()),
            audit_recording: AtomicBool::new(false),
        })
    }

    /// Runs `f` under `cpu`'s shard lock, self-instrumenting the
    /// acquisition into that shard's `locks.trace` counters.
    fn with_shard<R>(&self, cpu: usize, f: impl FnOnce(&mut PerCpuTrace) -> R) -> R {
        let (mut shard, contended) = self.lock_shard(cpu);
        let start = Instant::now();
        let r = f(&mut shard);
        let held = ns_to_cycles(start.elapsed().as_nanos() as u64);
        let lc = &mut shard.state.counters.locks.trace;
        lc.acquisitions += 1;
        if contended {
            lc.contended += 1;
        }
        lc.hold_max_cycles = lc.hold_max_cycles.max(held);
        r
    }

    /// Acquires `cpu`'s shard (clamped), reporting whether the fast
    /// try-lock path lost to another holder.
    fn lock_shard(&self, cpu: usize) -> (MutexGuard<'_, PerCpuTrace>, bool) {
        let mutex = &self.shards[cpu.min(self.shards.len() - 1)];
        match mutex.try_lock() {
            Ok(g) => (g, false),
            Err(TryLockError::Poisoned(e)) => (e.into_inner(), false),
            Err(TryLockError::WouldBlock) => (lock_recovering(mutex), true),
        }
    }

    /// Number of per-CPU rings.
    pub fn ncpus(&self) -> usize {
        self.shards.len()
    }

    /// Attributes subsequent [`emit`](Self::emit) calls from this OS
    /// thread to `cpu` (called at syscall entry).
    pub fn set_cpu(&self, cpu: usize) {
        CURRENT_CPU.set(cpu);
    }

    /// Emits `ev` on the CPU attributed to this OS thread.
    pub fn emit(&self, ev: KernelEvent) {
        self.with_shard(CURRENT_CPU.get(), |shard| apply(shard, ev));
    }

    /// Emits `ev` on an explicit CPU.
    pub fn emit_on(&self, cpu: usize, ev: KernelEvent) {
        self.with_shard(cpu, |shard| apply(shard, ev));
    }

    /// Records a dispatcher entry for `kind` on `cpu` (also attributes
    /// subsequent emissions from this OS thread to `cpu`).
    pub fn syscall_enter(&self, cpu: usize, kind: SyscallKind) {
        CURRENT_CPU.set(cpu);
        self.with_shard(cpu, |shard| {
            apply(shard, KernelEvent::SyscallEnter { kind })
        });
    }

    /// Records a dispatcher return: the exit event plus the latency
    /// histogram update.
    pub fn syscall_exit(&self, cpu: usize, kind: SyscallKind, class: ReturnClass, cycles: u64) {
        self.with_shard(cpu, |shard| {
            apply(
                shard,
                KernelEvent::SyscallExit {
                    kind,
                    class,
                    cycles,
                },
            )
        });
    }

    /// Records one released acquisition of a domain lock, attributed to
    /// `cpu`'s shard: the hold, and the modeled cycles the acquirer
    /// waited to observe the domain (`wait`, when it synced its meter;
    /// the trace domain has no modeled serialization, so its waits are
    /// ignored).
    pub fn lock_event(
        &self,
        cpu: usize,
        domain: LockDomain,
        contended: bool,
        hold_cycles: u64,
        wait: Option<u64>,
    ) {
        self.with_shard(cpu, |shard| {
            let st = &mut shard.state;
            let (lc, waits) = match domain {
                LockDomain::Pm => (&mut st.counters.locks.pm, Some(&mut st.lock_wait_pm_hist)),
                LockDomain::Mem => (&mut st.counters.locks.mem, Some(&mut st.lock_wait_mem_hist)),
                LockDomain::Trace => (&mut st.counters.locks.trace, None),
            };
            lc.acquisitions += 1;
            if contended {
                lc.contended += 1;
            }
            lc.hold_max_cycles = lc.hold_max_cycles.max(hold_cycles);
            if let (Some(h), Some(w)) = (waits, wait) {
                h.record(w);
            }
        });
    }

    /// Records `n` observations on the CPU attributed to this OS thread:
    /// `f` updates the shard's counters, gauges, histograms and audit
    /// ledger under one acquisition. These are counter-only annotations
    /// of work whose ring events (if any) are emitted separately, so
    /// nothing enters the ring. A zero `n` records nothing, so sites can
    /// pass batch sizes unfiltered; a sample that means something at
    /// zero (an empty event-loop poll) passes `n = 1` and captures its
    /// value.
    pub fn record(&self, n: u64, f: impl FnOnce(&mut Shard<'_>, u64)) {
        if n == 0 {
            return;
        }
        self.with_shard(CURRENT_CPU.get(), |shard| {
            let mut view = Shard {
                state: &mut shard.state,
                ledger: &mut shard.ledger,
                recording: &self.audit_recording,
            };
            f(&mut view, n)
        });
    }

    fn merged_gauge(&self, gauge: impl Fn(&TraceState) -> i64) -> i64 {
        self.shards
            .iter()
            .map(|m| gauge(&lock_recovering(m).state))
            .sum()
    }

    /// Packet-pool slots currently in flight (acquired − released across
    /// all CPUs).
    pub fn net_in_flight(&self) -> i64 {
        self.merged_gauge(|s| s.net_in_flight)
    }

    /// Block-pool slots currently in flight (acquired − released across
    /// all CPUs).
    pub fn blk_in_flight(&self) -> i64 {
        self.merged_gauge(|s| s.blk_in_flight)
    }

    /// Turns audit-delta recording on or off. Turning it off leaves any
    /// pending ledger entries in place; the auditor discards them before
    /// rebaselining.
    pub fn set_audit_recording(&self, on: bool) {
        self.audit_recording.store(on, Ordering::Relaxed);
    }

    /// `true` when mutations are recording audit deltas.
    pub fn audit_recording(&self) -> bool {
        self.audit_recording.load(Ordering::Relaxed)
    }

    /// Appends one audit delta to the ledger of the CPU attributed to
    /// this OS thread. No-op unless recording is enabled.
    pub fn audit_delta(&self, d: AuditDelta) {
        if !self.audit_recording() {
            return;
        }
        self.with_shard(CURRENT_CPU.get(), |shard| shard.ledger.push(d));
    }

    /// Moves every pending ledger entry (all CPUs) into `into`,
    /// preserving per-shard order. The caller's buffer keeps its
    /// capacity across audits, so steady-state folding allocates
    /// nothing.
    pub fn drain_audit_ledgers(&self, into: &mut Vec<AuditDelta>) {
        for mutex in self.shards.iter() {
            let mut shard = lock_recovering(mutex);
            into.append(&mut shard.ledger);
        }
    }

    /// Pending ledger entries across all CPUs (diagnostic).
    pub fn audit_ledger_len(&self) -> usize {
        self.shards
            .iter()
            .map(|m| lock_recovering(m).ledger.len())
            .sum()
    }

    /// Builds the merged snapshot: per-CPU ring summaries, merged
    /// per-kind syscall statistics and the merged [`TraceState`].
    ///
    /// Shards are read one at a time, so each per-CPU summary is
    /// internally coherent; the cross-CPU merge is exact whenever the
    /// sink is quiescent (all snapshot call sites — audits, reports,
    /// `TraceSnapshot` syscalls under the pm lock — satisfy this for
    /// the counters they assert on).
    pub fn snapshot(&self) -> Snapshot {
        let mut per_cpu = Vec::with_capacity(self.shards.len());
        let mut merged_kinds = [0u64; NUM_EVENT_KINDS];
        let mut merged: Vec<SyscallStats> = vec![SyscallStats::default(); NUM_SYSCALL_KINDS];
        let mut state = TraceState::default();
        let mut total_events = 0u64;
        let mut total_dropped = 0u64;
        for (cpu, mutex) in self.shards.iter().enumerate() {
            let c = lock_recovering(mutex);
            for (m, k) in merged_kinds.iter_mut().zip(c.kinds.iter()) {
                *m += k;
            }
            for (m, s) in merged.iter_mut().zip(c.syscalls.iter()) {
                m.enters += s.enters;
                m.exits += s.exits;
                m.ok += s.ok;
                m.errs += s.errs;
                m.hist.merge(&s.hist);
            }
            state.merge(&c.state);
            total_events += c.ring.head();
            total_dropped += c.ring.dropped();
            per_cpu.push(CpuSummary {
                cpu,
                head: c.ring.head(),
                tail: c.ring.tail(),
                dropped: c.ring.dropped(),
                kinds: c.kinds,
                per_kind_enters: c.syscalls.iter().map(|s| s.enters).collect(),
                per_kind_exits: c.syscalls.iter().map(|s| s.exits).collect(),
            });
        }
        let syscalls = SyscallKind::ALL
            .iter()
            .map(|&kind| {
                let s = &merged[kind.index()];
                SyscallSummary {
                    kind,
                    enters: s.enters,
                    exits: s.exits,
                    ok: s.ok,
                    errs: s.errs,
                    mean_cycles: s.hist.mean(),
                    p50_cycles: s.hist.p50(),
                    p90_cycles: s.hist.p90(),
                    p99_cycles: s.hist.p99(),
                    max_cycles: s.hist.max(),
                }
            })
            .collect();
        let httpd = &state.counters.httpd;
        let httpd_conns_live = httpd.accepts as i64 - httpd.closes as i64;
        Snapshot {
            per_cpu,
            syscalls,
            kinds: merged_kinds,
            state,
            httpd_conns_live,
            total_events,
            total_dropped,
        }
    }
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSink")
            .field("ncpus", &self.shards.len())
            .finish()
    }
}

fn apply(shard: &mut PerCpuTrace, ev: KernelEvent) {
    let counters = &mut shard.state.counters;
    match ev {
        KernelEvent::ContextSwitch { .. } => counters.pm.context_switches += 1,
        KernelEvent::EndpointSend { rendezvous, .. } => {
            counters.pm.ipc_sends += 1;
            if rendezvous {
                counters.pm.rendezvous += 1;
            }
        }
        KernelEvent::EndpointRecv { rendezvous, .. } => {
            counters.pm.ipc_recvs += 1;
            if rendezvous {
                counters.pm.rendezvous += 1;
            }
        }
        KernelEvent::PageAlloc { frames, .. } => {
            counters.mem.allocs += 1;
            counters.mem.frames_allocated += frames;
        }
        KernelEvent::PageFree { frames, .. } => {
            counters.mem.frees += 1;
            counters.mem.frames_freed += frames;
        }
        KernelEvent::PtMap { frames, .. } => {
            counters.ptable.maps += 1;
            counters.ptable.frames_mapped += frames;
        }
        KernelEvent::PtUnmap { frames, .. } => {
            counters.ptable.unmaps += 1;
            counters.ptable.frames_unmapped += frames;
        }
        KernelEvent::DriverRx { batch, .. } => {
            counters.drivers.rx_batches += 1;
            counters.drivers.rx_items += batch;
        }
        KernelEvent::DriverTx { batch, .. } => {
            counters.drivers.tx_batches += 1;
            counters.drivers.tx_items += batch;
        }
        KernelEvent::SyscallEnter { .. } | KernelEvent::SyscallExit { .. } => {}
    }
    shard.ring.push(ev);
    shard.kinds[ev.kind().index()] += 1;
    match ev {
        KernelEvent::SyscallEnter { kind } => shard.syscalls[kind.index()].enters += 1,
        KernelEvent::SyscallExit {
            kind,
            class,
            cycles,
        } => {
            let s = &mut shard.syscalls[kind.index()];
            s.exits += 1;
            if class.is_ok() {
                s.ok += 1;
            } else {
                s.errs += 1;
            }
            s.hist.record(cycles);
        }
        _ => {}
    }
}

/// The trace subsystem's well-formedness invariant (conjoined into the
/// kernel's `total_wf`):
///
/// * every per-CPU ring is coherent (`tail ≤ head`,
///   `head − tail ≤ capacity`, retained slots carry their sequence
///   numbers, `dropped` accounts for the advanced tail);
/// * per shard, the per-kind event counts sum to the ring's `head` (no
///   event pushed without being counted, none counted without a push);
/// * per shard and syscall kind, the latency histogram total equals the
///   exit count, `ok + errs = exits`, and at most one call is in flight
///   (`exits ≤ enters ≤ exits + 1`);
/// * per shard, the subsystem counters reconcile with that shard's
///   per-kind event counts (e.g. `pm.context_switches` = `ContextSwitch`
///   events), because counters and events are updated under the same
///   shard lock;
/// * on the merged [`TraceState`], every histogram is coherent, the pool
///   gauges balance their ledgers, the nr/httpd/sched/audit bounds hold
///   and each sampled histogram holds exactly its counter's samples;
/// * no merged counter has decreased since the previous audit
///   (low-water mark, raised on every check).
pub fn trace_wf(sink: &TraceSink) -> VerifResult {
    let mut kind_totals = [0u64; NUM_EVENT_KINDS];
    let mut enter_total = 0u64;
    let mut exit_total = 0u64;
    let mut st = TraceState::default();
    for (cpu, mutex) in sink.shards.iter().enumerate() {
        let c = lock_recovering(mutex);
        c.ring.wf()?;
        let pushed: u64 = c.kinds.iter().sum();
        check(
            pushed == c.ring.head(),
            "trace",
            format!(
                "cpu {cpu}: {pushed} counted events but ring head {}",
                c.ring.head()
            ),
        )?;
        for (m, k) in kind_totals.iter_mut().zip(c.kinds.iter()) {
            *m += k;
        }
        for (kind, s) in SyscallKind::ALL.iter().zip(c.syscalls.iter()) {
            s.hist.wf()?;
            check(
                s.hist.count() == s.exits,
                "trace",
                format!(
                    "cpu {cpu} {}: histogram holds {} samples for {} exits",
                    kind.name(),
                    s.hist.count(),
                    s.exits
                ),
            )?;
            check(
                s.ok + s.errs == s.exits,
                "trace",
                format!("cpu {cpu} {}: ok+errs != exits", kind.name()),
            )?;
            check(
                s.exits <= s.enters && s.enters <= s.exits + 1,
                "trace",
                format!(
                    "cpu {cpu} {}: {} enters vs {} exits",
                    kind.name(),
                    s.enters,
                    s.exits
                ),
            )?;
            enter_total += s.enters;
            exit_total += s.exits;
        }
        let ctrs = &c.state.counters;
        let pairs = [
            (
                "pm.context_switches",
                ctrs.pm.context_switches,
                EventKind::ContextSwitch,
            ),
            ("pm.ipc_sends", ctrs.pm.ipc_sends, EventKind::EndpointSend),
            ("pm.ipc_recvs", ctrs.pm.ipc_recvs, EventKind::EndpointRecv),
            ("mem.allocs", ctrs.mem.allocs, EventKind::PageAlloc),
            ("mem.frees", ctrs.mem.frees, EventKind::PageFree),
            ("ptable.maps", ctrs.ptable.maps, EventKind::PtMap),
            ("ptable.unmaps", ctrs.ptable.unmaps, EventKind::PtUnmap),
            (
                "drivers.rx_batches",
                ctrs.drivers.rx_batches,
                EventKind::DriverRx,
            ),
            (
                "drivers.tx_batches",
                ctrs.drivers.tx_batches,
                EventKind::DriverTx,
            ),
        ];
        for (name, counter, kind) in pairs {
            check(
                counter == c.kinds[kind.index()],
                "trace",
                format!(
                    "cpu {cpu}: counter {name} = {counter} but {} {} events",
                    c.kinds[kind.index()],
                    kind.name()
                ),
            )?;
        }
        check(
            ctrs.pm.rendezvous <= ctrs.pm.ipc_sends + ctrs.pm.ipc_recvs,
            "trace",
            format!("cpu {cpu}: more rendezvous than IPC operations"),
        )?;
        // Every fastpath hit performs a rendezvous delivery (and emits
        // the same EndpointSend/EndpointRecv pair as the slow path), so
        // hits can never outnumber rendezvous completions on a shard.
        check(
            ctrs.pm.fastpath.hits <= ctrs.pm.rendezvous,
            "trace",
            format!("cpu {cpu}: more fastpath hits than rendezvous deliveries"),
        )?;
        // A batched shootdown flush only drains invalidations the same
        // mem critical section queued, so on any shard the flushed pages
        // can never outnumber the deferred ones.
        check(
            ctrs.vm.tlb_shootdowns_flushed <= ctrs.vm.tlb_shootdowns_deferred,
            "trace",
            format!("cpu {cpu}: more shootdown pages flushed than deferred"),
        )?;
        st.merge(&c.state);
    }
    let mut hists_wf = Ok(());
    st.visit(&mut Vec::new(), &mut |_, field| {
        if let (Field::Hist(h), Ok(())) = (field, &hists_wf) {
            hists_wf = h.wf();
        }
    });
    hists_wf?;
    let m = &st.counters;
    // Pool ledgers: slots in flight are exactly the acquired-but-not-yet-
    // released ones. Checked on the merged view only — a handle may be
    // released on a different CPU than it was acquired on, so per-shard
    // gauges can legitimately go negative.
    for (pool, acquired, released, in_flight) in [
        (
            "net",
            m.net.pool_acquired,
            m.net.pool_released,
            st.net_in_flight,
        ),
        (
            "blk",
            m.blk.pool_acquired,
            m.blk.pool_released,
            st.blk_in_flight,
        ),
    ] {
        check(
            in_flight >= 0,
            "trace",
            format!("{pool} pool gauge negative: {in_flight} slots in flight"),
        )?;
        check(
            acquired == released + in_flight as u64,
            "trace",
            format!(
                "{pool} pool ledger: {acquired} acquired != {released} released + \
                 {in_flight} in flight"
            ),
        )?;
    }
    // Completions are reaped from prior submissions; globally the CQ can
    // never return more I/Os than the SQ accepted.
    check(
        m.blk.reap_ios <= m.blk.submit_ios,
        "trace",
        format!(
            "blk queues reaped {} I/Os but only {} were submitted",
            m.blk.reap_ios, m.blk.submit_ios
        ),
    )?;
    // Node-replication accounting: every flat-combining flush drains at
    // least one op (empty drains are not counted), so flushes can never
    // outnumber appended ops; and each appended op is replayed at most
    // once per replica plus once by the auditor's shadow fold. The
    // replica count is bounded by the shard count, since replicas are
    // per-CPU.
    check(
        m.nr.combine_batches <= m.nr.appended,
        "trace",
        format!(
            "nr log: {} combine batches but only {} appended ops",
            m.nr.combine_batches, m.nr.appended
        ),
    )?;
    check(
        m.nr.replayed <= m.nr.appended * (sink.shards.len() as u64 + 1),
        "trace",
        format!(
            "nr log: {} replayed ops exceeds {} appended × ({} replicas + 1)",
            m.nr.replayed,
            m.nr.appended,
            sink.shards.len()
        ),
    )?;
    // Each recorded wait annotates one domain-lock acquisition, so
    // samples can never outnumber acquisitions.
    check(
        st.lock_wait_pm_hist.count() <= m.locks.pm.acquisitions
            && st.lock_wait_mem_hist.count() <= m.locks.mem.acquisitions,
        "trace",
        format!(
            "lock-wait histograms hold {}/{} samples for {}/{} pm/mem acquisitions",
            st.lock_wait_pm_hist.count(),
            st.lock_wait_mem_hist.count(),
            m.locks.pm.acquisitions,
            m.locks.mem.acquisitions
        ),
    )?;
    // Event-driven httpd accounting: the live gauge (accepts − closes)
    // never goes negative, timeout-driven closes are a subset of all
    // closes, parked connections resume at most once, and the ready-
    // batch histogram holds exactly one sample per event-loop poll —
    // every iteration records its ready-set size, empty ones included.
    check(
        m.httpd.closes <= m.httpd.accepts,
        "trace",
        format!(
            "httpd ledger: {} closes exceed {} accepts",
            m.httpd.closes, m.httpd.accepts
        ),
    )?;
    check(
        m.httpd.timeouts_keepalive + m.httpd.timeouts_header + m.httpd.timeouts_drain
            <= m.httpd.closes,
        "trace",
        format!(
            "httpd timeouts {}+{}+{} exceed {} closes",
            m.httpd.timeouts_keepalive,
            m.httpd.timeouts_header,
            m.httpd.timeouts_drain,
            m.httpd.closes
        ),
    )?;
    check(
        m.httpd.unparked <= m.httpd.parked,
        "trace",
        format!(
            "httpd backpressure: {} unparked but only {} parked",
            m.httpd.unparked, m.httpd.parked
        ),
    )?;
    check(
        st.httpd_ready_hist.count() == m.httpd.polls,
        "trace",
        format!(
            "ready-batch histogram holds {} samples for {} polls",
            st.httpd_ready_hist.count(),
            m.httpd.polls
        ),
    )?;
    // Multi-tenant-scheduler accounting: a parked thread resumes at
    // most once per park, an account unthrottles at most once per
    // throttle, and the pick-latency histogram holds exactly one
    // sample per run-queue pick — one `record` moves both, so a
    // drifted pair means a lost or forged sample.
    check(
        m.sched.unparked <= m.sched.parked,
        "trace",
        format!(
            "sched parking: {} unparked but only {} parked",
            m.sched.unparked, m.sched.parked
        ),
    )?;
    check(
        m.sched.unthrottles <= m.sched.throttles,
        "trace",
        format!(
            "sched budgets: {} unthrottles but only {} throttles",
            m.sched.unthrottles, m.sched.throttles
        ),
    )?;
    check(
        st.sched_pick_hist.count() == m.sched.picks,
        "trace",
        format!(
            "pick-latency histogram holds {} samples for {} picks",
            st.sched_pick_hist.count(),
            m.sched.picks
        ),
    )?;
    // Every full audit folds the pending ledger first (that fold is
    // counted as an incremental audit), so incremental audits can never
    // trail full ones.
    check(
        m.audit.incremental >= m.audit.full,
        "trace",
        format!(
            "audit ledger: {} incremental audits but {} full audits",
            m.audit.incremental, m.audit.full
        ),
    )?;
    check(
        st.audit_incremental_hist.count() == m.audit.incremental
            && st.audit_full_hist.count() == m.audit.full,
        "trace",
        format!(
            "audit histograms hold {}/{} samples for {}/{} audits",
            st.audit_incremental_hist.count(),
            st.audit_full_hist.count(),
            m.audit.incremental,
            m.audit.full
        ),
    )?;
    check(
        st.audit_touched_hist.total_cycles() == m.audit.touched_entries,
        "trace",
        format!(
            "touched-entry histogram sums {} entries but counters saw {}",
            st.audit_touched_hist.total_cycles(),
            m.audit.touched_entries
        ),
    )?;
    check(
        kind_totals[EventKind::SyscallEnter.index()] == enter_total
            && kind_totals[EventKind::SyscallExit.index()] == exit_total,
        "trace",
        "per-kind syscall stats disagree with event counts",
    )?;
    let mut low = lock_recovering(&sink.low_water);
    st.counters.monotone_since(&low)?;
    *low = st.counters;
    Ok(())
}

impl Invariant for TraceSink {
    fn wf(&self) -> VerifResult {
        trace_wf(self)
    }
}

/// An optional trace handle a subsystem can hold without disturbing its
/// derived `Clone`/`PartialEq`/`Eq`: two shares always compare equal, so
/// attaching a tracer never changes a subsystem's abstract state.
#[derive(Clone, Default)]
pub struct TraceShare(Option<TraceHandle>);

impl TraceShare {
    /// A share of `sink`.
    pub fn new(sink: TraceHandle) -> Self {
        TraceShare(Some(sink))
    }

    /// A share with no sink attached (emissions are dropped).
    pub fn detached() -> Self {
        TraceShare(None)
    }

    /// Attaches `sink`; subsequent emissions land in it.
    pub fn attach(&mut self, sink: TraceHandle) {
        self.0 = Some(sink);
    }

    /// `true` when a sink is attached.
    pub fn is_attached(&self) -> bool {
        self.0.is_some()
    }

    /// Emits on the attributed CPU (no-op when detached).
    pub fn emit(&self, ev: KernelEvent) {
        if let Some(sink) = &self.0 {
            sink.emit(ev);
        }
    }

    /// [`TraceSink::record`] on the attached sink (no-op when detached).
    pub fn record(&self, n: u64, f: impl FnOnce(&mut Shard<'_>, u64)) {
        if let Some(sink) = &self.0 {
            sink.record(n, f);
        }
    }

    /// Appends one audit-ledger delta (no-op when detached or when
    /// recording is off).
    pub fn audit(&self, d: AuditDelta) {
        if let Some(sink) = &self.0 {
            sink.audit_delta(d);
        }
    }

    /// The underlying handle, when attached.
    pub fn handle(&self) -> Option<&TraceHandle> {
        self.0.as_ref()
    }
}

impl fmt::Debug for TraceShare {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "TraceShare(attached)"
        } else {
            "TraceShare(detached)"
        })
    }
}

impl PartialEq for TraceShare {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for TraceShare {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DeviceKind;

    #[test]
    fn emissions_are_counted_and_wf_holds() {
        let sink = TraceSink::new(2, 8);
        sink.syscall_enter(1, SyscallKind::Mmap);
        sink.emit(KernelEvent::PageAlloc {
            frames: 1,
            closure_delta: 1,
        });
        sink.emit(KernelEvent::PtMap {
            va: 0x1000,
            frames: 1,
        });
        sink.syscall_exit(1, SyscallKind::Mmap, ReturnClass::Ok, 1234);
        assert!(trace_wf(&sink).is_ok(), "{:?}", trace_wf(&sink));
        let snap = sink.snapshot();
        assert_eq!(snap.exits(SyscallKind::Mmap), 1);
        assert_eq!(snap.counters.mem.allocs, 1);
        assert_eq!(snap.counters.ptable.maps, 1);
        assert_eq!(snap.per_cpu[1].head, 4, "all events on the set CPU");
        assert_eq!(snap.per_cpu[0].head, 0);
    }

    #[test]
    fn shares_compare_equal_regardless_of_attachment() {
        let a = TraceShare::detached();
        let b = TraceShare::new(TraceSink::new(1, 4));
        assert_eq!(a, b);
        b.emit(KernelEvent::DriverRx {
            device: DeviceKind::Ixgbe,
            batch: 32,
        });
        assert_eq!(b.handle().unwrap().snapshot().counters.drivers.rx_items, 32);
        a.record(1, |t, n| t.counters.vm.map_batch_hits += n);
    }

    #[test]
    fn ring_overflow_keeps_wf() {
        let sink = TraceSink::new(1, 4);
        sink.set_cpu(0);
        for i in 0..64 {
            sink.emit(KernelEvent::PtMap { va: i, frames: 1 });
        }
        assert!(trace_wf(&sink).is_ok());
        let snap = sink.snapshot();
        assert_eq!(snap.total_events, 64);
        assert_eq!(snap.total_dropped, 60);
        assert_eq!(snap.counters.ptable.maps, 64, "counters survive overwrite");
    }

    #[test]
    fn lock_events_accumulate_per_domain_with_their_waits() {
        let sink = TraceSink::new(2, 8);
        sink.lock_event(0, LockDomain::Pm, false, 100, Some(0));
        sink.lock_event(0, LockDomain::Pm, true, 700, None);
        sink.lock_event(1, LockDomain::Mem, false, 40, Some(4200));
        sink.lock_event(1, LockDomain::Trace, false, 40, Some(9));
        let snap = sink.snapshot();
        assert_eq!(snap.counters.locks.pm.acquisitions, 2);
        assert_eq!(snap.counters.locks.pm.contended, 1);
        assert_eq!(snap.counters.locks.pm.hold_max_cycles, 700);
        assert_eq!(snap.counters.locks.mem.acquisitions, 1);
        assert!(
            snap.counters.locks.trace.acquisitions >= 4,
            "shard locks self-instrument"
        );
        assert_eq!(snap.lock_wait_pm_hist.count(), 1);
        assert_eq!(snap.lock_wait_pm_hist.max(), 0, "zero waits are recorded");
        assert_eq!(snap.lock_wait_mem_hist.count(), 1);
        assert_eq!(snap.lock_wait_mem_hist.max(), 4200);
        assert!(snap.render().contains("lock_wait_mem_hist"));
        assert!(trace_wf(&sink).is_ok(), "{:?}", trace_wf(&sink));
    }

    #[test]
    fn records_skip_zero_counts_and_never_enter_the_ring() {
        let sink = TraceSink::new(1, 8);
        sink.set_cpu(0);
        sink.record(0, |t, n| t.counters.vm.map_batch_hits += n);
        assert_eq!(
            sink.snapshot().counters.locks.trace.acquisitions,
            0,
            "a zero count takes no shard acquisition"
        );
        sink.record(3, |t, n| t.counters.vm.map_batch_hits += n);
        let snap = sink.snapshot();
        assert_eq!(snap.counters.vm.map_batch_hits, 3);
        assert_eq!(snap.counters.locks.trace.acquisitions, 1);
        assert_eq!(snap.total_events, 0, "records never enter the ring");
    }

    #[test]
    fn pool_gauges_balance_across_cpus() {
        let sink = TraceSink::new(2, 16);
        sink.set_cpu(0);
        sink.record(32, |t, n| {
            t.counters.net.pool_acquired += n;
            t.net_in_flight += n as i64;
        });
        // Released on the other CPU: that shard's gauge goes negative,
        // the merged one balances.
        sink.set_cpu(1);
        sink.record(24, |t, n| {
            t.counters.net.pool_released += n;
            t.net_in_flight -= n as i64;
        });
        assert_eq!(sink.net_in_flight(), 8);
        assert_eq!(sink.snapshot().net_in_flight, 8);
        assert!(trace_wf(&sink).is_ok(), "{:?}", trace_wf(&sink));
    }

    #[test]
    fn ledger_deltas_share_the_record_and_need_recording() {
        let sink = TraceSink::new(2, 8);
        sink.set_cpu(0);
        let append = |n| {
            sink.record(n, |t, n| {
                t.counters.nr.appended += n;
                t.audit(AuditDelta::NrAppended(n));
            })
        };
        append(3);
        assert_eq!(sink.audit_ledger_len(), 0, "no ledger while recording off");
        sink.set_audit_recording(true);
        append(2);
        sink.record(1, |t, n| t.counters.nr.read_local += n);
        assert_eq!(sink.audit_ledger_len(), 1, "only appends enter the ledger");
        let mut drained = Vec::new();
        sink.drain_audit_ledgers(&mut drained);
        assert_eq!(drained, vec![AuditDelta::NrAppended(2)]);
        assert_eq!(sink.snapshot().counters.nr.appended, 5);
    }

    #[test]
    fn attribution_is_per_os_thread() {
        // Two OS threads attribute to different CPUs concurrently; with
        // a thread-local current CPU neither steals the other's events.
        let sink = TraceSink::new(2, 64);
        let s0 = Arc::clone(&sink);
        let s1 = Arc::clone(&sink);
        let t0 = std::thread::spawn(move || {
            s0.set_cpu(0);
            for i in 0..100 {
                s0.emit(KernelEvent::PtMap { va: i, frames: 1 });
            }
        });
        let t1 = std::thread::spawn(move || {
            s1.set_cpu(1);
            for i in 0..100 {
                s1.emit(KernelEvent::PtUnmap { va: i, frames: 1 });
            }
        });
        t0.join().unwrap();
        t1.join().unwrap();
        let snap = sink.snapshot();
        assert_eq!(snap.per_cpu[0].kinds[EventKind::PtMap.index()], 100);
        assert_eq!(snap.per_cpu[0].kinds[EventKind::PtUnmap.index()], 0);
        assert_eq!(snap.per_cpu[1].kinds[EventKind::PtUnmap.index()], 100);
        assert!(trace_wf(&sink).is_ok());
    }

    /// A sink whose shard 0 has seen one event of every kind, one
    /// completed `call` and one pm acquisition with its wait, and which
    /// passes `trace_wf` (so every corruption starts from a well-formed
    /// state).
    fn populated() -> TraceHandle {
        let sink = TraceSink::new(2, 64);
        sink.syscall_enter(0, SyscallKind::Call);
        let nic = DeviceKind::Ixgbe;
        for ev in [
            KernelEvent::ContextSwitch {
                cpu: 0,
                from: None,
                to: Some(1),
            },
            KernelEvent::EndpointSend {
                endpoint: 1,
                rendezvous: false,
            },
            KernelEvent::EndpointRecv {
                endpoint: 1,
                rendezvous: false,
            },
            KernelEvent::PageAlloc {
                frames: 1,
                closure_delta: 1,
            },
            KernelEvent::PageFree {
                frames: 1,
                closure_delta: -1,
            },
            KernelEvent::PtMap { va: 0, frames: 1 },
            KernelEvent::PtUnmap { va: 0, frames: 1 },
            KernelEvent::DriverRx {
                device: nic,
                batch: 1,
            },
            KernelEvent::DriverTx {
                device: nic,
                batch: 1,
            },
        ] {
            sink.emit(ev);
        }
        sink.syscall_exit(0, SyscallKind::Call, ReturnClass::Ok, 100);
        sink.lock_event(0, LockDomain::Pm, false, 1, Some(0));
        trace_wf(&sink).expect("populated sink is well formed");
        sink
    }

    /// One corruption per `trace_wf` check, each refuted with the
    /// diagnostic that names its check. Per-shard checks are corrupted
    /// on shard 0; merged-view checks on the idle shard 1, so a merge
    /// that dropped the field would let the corruption through.
    #[test]
    fn every_trace_wf_check_refutes_its_corruption() {
        type Corrupt = fn(&mut PerCpuTrace);
        const CALL: usize = SyscallKind::Call as usize;
        const YIELD: usize = SyscallKind::Yield as usize;
        let cases: [(usize, &str, Corrupt); 36] = [
            (0, "counted events but ring head", |s| s.kinds[0] += 1),
            (0, "histogram holds 1 samples for 2 exits", |s| {
                s.syscalls[CALL].exits += 1
            }),
            (0, "ok+errs != exits", |s| s.syscalls[CALL].ok += 1),
            (0, "2 enters vs 0 exits", |s| s.syscalls[YIELD].enters += 2),
            (0, "counter pm.context_switches =", |s| {
                s.state.counters.pm.context_switches += 1
            }),
            (0, "counter pm.ipc_sends =", |s| {
                s.state.counters.pm.ipc_sends += 1
            }),
            (0, "counter pm.ipc_recvs =", |s| {
                s.state.counters.pm.ipc_recvs += 1
            }),
            (0, "counter mem.allocs =", |s| {
                s.state.counters.mem.allocs += 1
            }),
            (0, "counter mem.frees =", |s| {
                s.state.counters.mem.frees += 1
            }),
            (0, "counter ptable.maps =", |s| {
                s.state.counters.ptable.maps += 1
            }),
            (0, "counter ptable.unmaps =", |s| {
                s.state.counters.ptable.unmaps += 1
            }),
            (0, "counter drivers.rx_batches =", |s| {
                s.state.counters.drivers.rx_batches += 1
            }),
            (0, "counter drivers.tx_batches =", |s| {
                s.state.counters.drivers.tx_batches += 1
            }),
            (0, "more rendezvous than IPC operations", |s| {
                s.state.counters.pm.rendezvous += 3
            }),
            (0, "more fastpath hits than rendezvous", |s| {
                s.state.counters.pm.fastpath.hits += 1
            }),
            (0, "more shootdown pages flushed than deferred", |s| {
                s.state.counters.vm.tlb_shootdowns_flushed += 1
            }),
            (0, "per-kind syscall stats disagree", |s| {
                s.syscalls[YIELD].enters += 1
            }),
            (1, "net pool gauge negative", |s| s.state.net_in_flight -= 1),
            (1, "net pool ledger", |s| {
                s.state.counters.net.pool_acquired += 1
            }),
            (1, "blk pool gauge negative", |s| s.state.blk_in_flight -= 1),
            (1, "blk pool ledger", |s| {
                s.state.counters.blk.pool_released += 1
            }),
            (1, "blk queues reaped", |s| {
                s.state.counters.blk.reap_ios += 1
            }),
            (1, "combine batches but only", |s| {
                s.state.counters.nr.combine_batches += 1
            }),
            (1, "replayed ops exceeds", |s| {
                s.state.counters.nr.replayed += 1
            }),
            (1, "lock-wait histograms hold", |s| {
                s.state.lock_wait_mem_hist.record(5)
            }),
            (1, "httpd ledger", |s| s.state.counters.httpd.closes += 1),
            (1, "httpd timeouts", |s| {
                s.state.counters.httpd.timeouts_drain += 1
            }),
            (1, "httpd backpressure", |s| {
                s.state.counters.httpd.unparked += 1
            }),
            (1, "ready-batch histogram holds", |s| {
                s.state.counters.httpd.polls += 1
            }),
            (1, "sched parking", |s| s.state.counters.sched.unparked += 1),
            (1, "sched budgets", |s| {
                s.state.counters.sched.unthrottles += 1
            }),
            (1, "pick-latency histogram holds", |s| {
                s.state.sched_pick_hist.record(9)
            }),
            (1, "audit ledger", |s| s.state.counters.audit.full += 1),
            (1, "audit histograms hold", |s| {
                s.state.audit_incremental_hist.record(9)
            }),
            (1, "touched-entry histogram sums", |s| {
                s.state.counters.audit.touched_entries += 1
            }),
            (0, "counter locks.pm.acquisitions decreased: 1 -> 0", |s| {
                s.state.counters.locks.pm.acquisitions = 0;
                s.state.lock_wait_pm_hist = LatencyHist::default();
            }),
        ];
        for (shard, diagnostic, corrupt) in cases {
            let sink = populated();
            corrupt(&mut lock_recovering(&sink.shards[shard]));
            let err = trace_wf(&sink).expect_err(diagnostic).to_string();
            assert!(
                err.contains(diagnostic),
                "corruption for {diagnostic:?} failed with {err:?}"
            );
        }
    }
}
