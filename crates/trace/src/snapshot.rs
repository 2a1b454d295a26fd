//! The merged trace snapshot and its plain-text report rendering.

use std::ops::Deref;

use crate::event::{EventKind, SyscallKind, NUM_EVENT_KINDS};
use crate::schema::{Field, Schema, TraceState};

/// One CPU's ring summary at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CpuSummary {
    /// CPU index.
    pub cpu: usize,
    /// Ring head sequence number (= events ever pushed on this CPU).
    pub head: u64,
    /// Ring tail sequence number.
    pub tail: u64,
    /// Events overwritten before being read.
    pub dropped: u64,
    /// Events pushed, by [`EventKind`].
    pub kinds: [u64; NUM_EVENT_KINDS],
    /// Dispatcher entries by syscall kind (indexed by
    /// [`SyscallKind::index`]).
    pub per_kind_enters: Vec<u64>,
    /// Dispatcher returns by syscall kind.
    pub per_kind_exits: Vec<u64>,
}

impl CpuSummary {
    /// Total dispatcher returns on this CPU.
    pub fn syscall_exits(&self) -> u64 {
        self.per_kind_exits.iter().sum()
    }
}

/// Merged per-kind syscall statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyscallSummary {
    /// Which syscall.
    pub kind: SyscallKind,
    /// Dispatcher entries.
    pub enters: u64,
    /// Dispatcher returns.
    pub exits: u64,
    /// Success-class returns.
    pub ok: u64,
    /// Error-class returns.
    pub errs: u64,
    /// Mean latency in modeled cycles.
    pub mean_cycles: u64,
    /// Median latency (log2-bucket resolution).
    pub p50_cycles: u64,
    /// 90th-percentile latency.
    pub p90_cycles: u64,
    /// 99th-percentile latency.
    pub p99_cycles: u64,
    /// Largest observed latency.
    pub max_cycles: u64,
}

/// A coherent point-in-time view of the whole trace subsystem, taken
/// under one lock acquisition (for `SmpKernel`, under the big lock).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Per-CPU ring summaries.
    pub per_cpu: Vec<CpuSummary>,
    /// Merged syscall statistics, one entry per [`SyscallKind`].
    pub syscalls: Vec<SyscallSummary>,
    /// Merged event counts by [`EventKind`].
    pub kinds: [u64; NUM_EVENT_KINDS],
    /// The merged counters, gauges and histograms (field access goes
    /// through `Deref`, e.g. `snap.counters.pm.ipc_sends`).
    pub state: TraceState,
    /// Live httpd connections (accepts − closes) at snapshot time — a
    /// gauge derived from the merged counters.
    pub httpd_conns_live: i64,
    /// Events ever pushed across all CPUs.
    pub total_events: u64,
    /// Events overwritten across all CPUs.
    pub total_dropped: u64,
}

impl Deref for Snapshot {
    type Target = TraceState;
    fn deref(&self) -> &TraceState {
        &self.state
    }
}

impl Snapshot {
    /// The merged statistics for `kind`.
    pub fn syscall(&self, kind: SyscallKind) -> &SyscallSummary {
        &self.syscalls[kind.index()]
    }

    /// Completed calls of `kind` across all CPUs.
    pub fn exits(&self, kind: SyscallKind) -> u64 {
        self.syscall(kind).exits
    }

    /// Total completed syscalls across all CPUs and kinds.
    pub fn total_syscall_exits(&self) -> u64 {
        self.syscalls.iter().map(|s| s.exits).sum()
    }

    /// Renders the snapshot in the `results/repro-*.txt` report style.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== Trace snapshot: per-CPU event rings ==\n");
        out.push_str(&table(
            &["CPU", "Events", "Retained", "Dropped", "Syscalls"],
            self.per_cpu
                .iter()
                .map(|c| {
                    vec![
                        format!("{}", c.cpu),
                        format!("{}", c.head),
                        format!("{}", c.head - c.tail),
                        format!("{}", c.dropped),
                        format!("{}", c.syscall_exits()),
                    ]
                })
                .collect(),
        ));
        out.push_str("\n== Trace snapshot: syscall latency (modeled cycles) ==\n");
        out.push_str(&table(
            &[
                "Syscall", "Calls", "Ok", "Err", "Mean", "p50", "p90", "p99", "Max",
            ],
            self.syscalls
                .iter()
                .filter(|s| s.enters > 0)
                .map(|s| {
                    vec![
                        s.kind.name().to_string(),
                        format!("{}", s.exits),
                        format!("{}", s.ok),
                        format!("{}", s.errs),
                        format!("{}", s.mean_cycles),
                        format!("{}", s.p50_cycles),
                        format!("{}", s.p90_cycles),
                        format!("{}", s.p99_cycles),
                        format!("{}", s.max_cycles),
                    ]
                })
                .collect(),
        ));
        out.push_str("\n== Trace snapshot: lock domains ==\n");
        let locks = [
            ("pm", &self.counters.locks.pm),
            ("mem", &self.counters.locks.mem),
            ("trace", &self.counters.locks.trace),
        ];
        out.push_str(&table(
            &["Domain", "Acquisitions", "Contended", "MaxHoldCycles"],
            locks
                .iter()
                .map(|(name, l)| {
                    vec![
                        name.to_string(),
                        format!("{}", l.acquisitions),
                        format!("{}", l.contended),
                        format!("{}", l.hold_max_cycles),
                    ]
                })
                .collect(),
        ));
        out.push_str("\n== Trace snapshot: histograms ==\n");
        let mut hists = Vec::new();
        let mut gauges = Vec::new();
        self.state
            .visit(&mut Vec::new(), &mut |path, field| match field {
                Field::Hist(h) => hists.push(vec![
                    path.join("."),
                    format!("{}", h.count()),
                    format!("{}", h.mean()),
                    format!("{}", h.p50()),
                    format!("{}", h.p90()),
                    format!("{}", h.p99()),
                    format!("{}", h.max()),
                ]),
                Field::Gauge(v) => {
                    gauges.push(vec![format!("{} (gauge)", path.join(".")), format!("{v}")])
                }
                Field::Counter(_) => {}
            });
        out.push_str(&table(
            &["Histogram", "Samples", "Mean", "p50", "p90", "p99", "Max"],
            hists,
        ));
        out.push_str("\n== Trace snapshot: events and subsystem counters ==\n");
        let mut rows: Vec<Vec<String>> = EventKind::ALL
            .iter()
            .map(|k| {
                vec![
                    format!("events.{}", k.name()),
                    format!("{}", self.kinds[k.index()]),
                ]
            })
            .collect();
        for (name, v) in self.counters.flat() {
            rows.push(vec![name, format!("{v}")]);
        }
        rows.extend(gauges);
        rows.push(vec![
            "httpd.conns_live (gauge)".to_string(),
            format!("{}", self.httpd_conns_live),
        ]);
        out.push_str(&table(&["Counter", "Value"], rows));
        out.push_str(&format!(
            "\n{} events on {} CPUs, {} dropped, {} syscalls completed.\n",
            self.total_events,
            self.per_cpu.len(),
            self.total_dropped,
            self.total_syscall_exits()
        ));
        out
    }
}

/// Renders a left-aligned column table in the house report style
/// (header row, dashed rule, padded cells).
fn table(headers: &[&str], rows: Vec<Vec<String>>) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (i, h) in headers.iter().enumerate() {
        out.push_str(&format!("{:<w$}  ", h, w = widths[i]));
    }
    out.push('\n');
    let rule_len = widths.iter().map(|w| w + 2).sum::<usize>();
    out.push_str(&"-".repeat(rule_len));
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ReturnClass;
    use crate::sink::TraceSink;

    #[test]
    fn render_mentions_active_syscalls_only() {
        let sink = TraceSink::new(2, 16);
        sink.syscall_enter(0, SyscallKind::Yield);
        sink.syscall_exit(0, SyscallKind::Yield, ReturnClass::Ok, 500);
        let text = sink.snapshot().render();
        assert!(text.contains("== Trace snapshot: per-CPU event rings =="));
        assert!(text.contains("yield"));
        assert!(!text.contains("iommu_map"), "inactive kinds are omitted");
        assert!(text.contains("events.syscall_exit"));
    }

    #[test]
    fn totals_reconcile() {
        let sink = TraceSink::new(4, 16);
        for cpu in 0..4 {
            sink.syscall_enter(cpu, SyscallKind::Mmap);
            sink.syscall_exit(cpu, SyscallKind::Mmap, ReturnClass::Ok, 1000 + cpu as u64);
        }
        let snap = sink.snapshot();
        assert_eq!(snap.total_syscall_exits(), 4);
        assert_eq!(snap.exits(SyscallKind::Mmap), 4);
        let per_cpu: u64 = snap.per_cpu.iter().map(|c| c.syscall_exits()).sum();
        assert_eq!(per_cpu, snap.total_syscall_exits());
    }
}
