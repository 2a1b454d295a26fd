//! In-memory span tracer for the traced run.
//!
//! Spans are recorded only by the benchmark's own code, around each call
//! it makes into the system (a syscall, an audit, an event-loop tick, a
//! kv-store call, a pool call), under one root span per workload op.
//! Nothing is traced inside the program. Spans stay in memory and are
//! written out once, after the run; a layer's self time is its span's
//! duration minus the time its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// The layer a span times, named after the crate/module it calls into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// One workload op: the benchmark's own generator code plus its calls.
    Op,
    /// `Kernel::syscall` / `SmpKernel::syscall`.
    Syscall,
    /// `SmpKernel::audit_incremental`.
    AuditIncremental,
    /// `SmpKernel::audit_total_wf`.
    AuditFull,
    /// The `TraceSnapshot` syscall.
    TraceSnapshot,
    /// `EventHttpd::ingest`.
    EventIngest,
    /// `EventHttpd::tick`.
    EventTick,
    /// `LogKv::set`.
    KvSet,
    /// `LogKv::get`.
    KvGet,
    /// `PktPool` acquire/fill.
    PktPool,
    /// `BlkPool` acquire/fill/release.
    BlkPool,
}

/// Every layer with its reported name, in discriminant order.
pub const LAYERS: [(Layer, &str); 11] = [
    (Layer::Op, "bench.op"),
    (Layer::Syscall, "kernel.syscall"),
    (Layer::AuditIncremental, "kernel.audit.incremental"),
    (Layer::AuditFull, "kernel.audit.full"),
    (Layer::TraceSnapshot, "trace.snapshot"),
    (Layer::EventIngest, "apps.event.ingest"),
    (Layer::EventTick, "apps.event.tick"),
    (Layer::KvSet, "apps.kvstore.set"),
    (Layer::KvGet, "apps.kvstore.get"),
    (Layer::PktPool, "drivers.pkt_pool"),
    (Layer::BlkPool, "drivers.blk_pool"),
];

/// No parent / no syscall kind.
const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Span {
    start: u64,
    end: u64,
    op: u32,
    parent: u32,
    layer: Layer,
    /// Syscall kind index of a span around a syscall, `u8::MAX` otherwise.
    kind: u8,
}

/// The tracer. When off, [`Spans::time`] is a plain call.
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

/// What the traced run derives from its spans.
pub struct SpanStats {
    /// Summed self time per layer (ns), indexed by `Layer as usize`.
    pub self_ns: [u64; LAYERS.len()],
    /// Span durations per layer (ns).
    pub durations: Vec<Vec<u64>>,
    /// Durations of spans around a syscall, per syscall kind (ns).
    pub kind_durations: Vec<Vec<u64>>,
}

impl Spans {
    /// A disabled tracer (the untraced run).
    pub fn off() -> Self {
        Spans {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// An enabled tracer with room for `capacity` spans up front.
    pub fn on(capacity: usize) -> Self {
        Spans {
            on: true,
            spans: Vec::with_capacity(capacity),
            ..Spans::off()
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open_span(&mut self, layer: Layer, kind: u8) -> u32 {
        let idx = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            start,
            end: start,
            op: self.op,
            parent: self.open.last().copied().unwrap_or(NONE),
            layer,
            kind,
        });
        self.open.push(idx);
        idx
    }

    fn close_span(&mut self, idx: u32) {
        let end = self.now();
        self.spans[idx as usize].end = end;
        self.open.pop();
    }

    /// Opens the root span of the next op.
    pub fn begin_op(&mut self) {
        if self.on {
            self.op += 1;
            self.open_span(Layer::Op, u8::MAX);
        }
    }

    /// Closes the root span opened by [`Spans::begin_op`].
    pub fn end_op(&mut self) {
        if self.on {
            let idx = *self.open.last().expect("an op span is open");
            self.close_span(idx);
        }
    }

    /// Runs `f` inside a span of `layer` (`kind`: syscall kind index, or
    /// `u8::MAX`).
    #[inline]
    pub fn time<R>(&mut self, layer: Layer, kind: u8, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = self.open_span(layer, kind);
        let r = f();
        self.close_span(idx);
        r
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn child_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child[s.parent as usize] += s.end - s.start;
            }
        }
        child
    }

    /// Self times and per-layer / per-kind durations.
    pub fn stats(&self, nkinds: usize) -> SpanStats {
        let child = self.child_ns();
        let mut out = SpanStats {
            self_ns: [0; LAYERS.len()],
            durations: vec![Vec::new(); LAYERS.len()],
            kind_durations: vec![Vec::new(); nkinds],
        };
        for (s, c) in self.spans.iter().zip(&child) {
            let dur = s.end - s.start;
            out.self_ns[s.layer as usize] += dur.saturating_sub(*c);
            out.durations[s.layer as usize].push(dur);
            if (s.kind as usize) < nkinds {
                out.kind_durations[s.kind as usize].push(dur);
            }
        }
        out
    }

    /// Renders every span as CSV (`id,parent,op,layer,kind,start_ns,end_ns,self_ns`).
    pub fn to_csv(&self, kind_names: &[&str]) -> String {
        let child = self.child_ns();
        let mut out = String::with_capacity(self.spans.len() * 48);
        out.push_str("id,parent,op,layer,kind,start_ns,end_ns,self_ns\n");
        for (i, (s, c)) in self.spans.iter().zip(&child).enumerate() {
            let parent = if s.parent == NONE {
                String::new()
            } else {
                s.parent.to_string()
            };
            let kind = kind_names.get(s.kind as usize).copied().unwrap_or("");
            let _ = writeln!(
                out,
                "{i},{parent},{},{},{kind},{},{},{}",
                s.op,
                LAYERS[s.layer as usize].1,
                s.start,
                s.end,
                (s.end - s.start).saturating_sub(*c)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_table_matches_discriminants() {
        for (i, (layer, _)) in LAYERS.iter().enumerate() {
            assert_eq!(*layer as usize, i);
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut sp = Spans::on(8);
        sp.begin_op();
        sp.time(Layer::Syscall, 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        sp.end_op();
        let st = sp.stats(1);
        let op_total = st.durations[Layer::Op as usize][0];
        let sys = st.durations[Layer::Syscall as usize][0];
        assert!(sys >= 2_000_000);
        assert_eq!(st.self_ns[Layer::Op as usize], op_total - sys);
        assert_eq!(st.kind_durations[0], vec![sys]);
        assert!(sp.to_csv(&["getpid"]).contains(",kernel.syscall,getpid,"));
    }
}
