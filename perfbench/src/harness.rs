//! The run protocol shared by every workload: repeated set-up, an
//! untraced timed phase, correctness checks, and (traced runs) a second,
//! traced pass over the same deterministic window.
//!
//! Host metrics come from the timed phase, which lasts at least
//! `--seconds`, split into blocks of `BLOCK_OPS` ops. Each block holds a
//! whole number of the workload's periodic background tasks, so every
//! block does the same kind of work. On a shared host, other tenants slow
//! this process down by up to half, for seconds at a time, and that
//! swamps any code change worth gating on. So each block also times
//! `REF_CHUNKS` chunks of fixed reference work spread through it — work
//! that shares no code with the system under test — and a block whose
//! reference ran slower than `REF_NOMINAL_NS` has its host figures scaled
//! by that slowdown. Each host metric is the median of its scaled block
//! values. A change to the system moves the block times but not the
//! reference, so it shows; a contended moment moves both, so it cancels.
//!
//! Modeled metrics and counter deltas come from a fixed window — the
//! first `WINDOW_OPS` ops after set-up — so they are a function of the
//! seed alone and repeat bit for bit.

use std::time::Instant;

use crate::metrics::{delta, Counters};
use crate::spans::Spans;
use crate::stats::{median_f64, percentile, HostHist};

/// Modeled clock frequency: the paper's c220g5 (2.2 GHz).
pub const FREQ_HZ: f64 = 2.2e9;

/// A run sets up at least `MIN_SETUPS` times and keeps setting up until
/// `SETUP_SECONDS` have passed (at most `MAX_SETUPS` times); `setup_s`
/// is the median. A quick set-up is noisy, so it is repeated more.
pub const MIN_SETUPS: usize = 5;
pub const MAX_SETUPS: usize = 50;
pub const SETUP_SECONDS: f64 = 1.0;

/// The modeled clock of a workload's simulated CPUs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Clock {
    /// Busy cycles summed over every simulated CPU.
    pub busy: u64,
    /// The furthest simulated CPU's clock, idle time included.
    pub span: u64,
}

/// One benchmark workload: a seeded op stream driven through the
/// system's public API.
pub trait Workload: Sized {
    /// Ops run during set-up, before anything is timed: a multiple of
    /// `REF_CHUNKS`.
    const WARMUP_OPS: u64;
    /// Ops in the deterministic window (modeled metrics, counters,
    /// spans): a whole number of blocks, so a traced pass ends with it.
    const WINDOW_OPS: u64;
    /// Ops per host-timing block: a multiple of every background cadence.
    const BLOCK_OPS: u64;

    /// Boots the system and builds the population for `seed`.
    fn boot(seed: u64) -> Self;

    /// Runs one workload op. Pushes onto `done` the modeled latency (in
    /// cycles) of every op that completed during this call. `Err` marks
    /// the op failed (an unexpected syscall error or a wrong answer).
    fn op(&mut self, sp: &mut Spans, done: &mut Vec<u64>) -> Result<(), String>;

    /// Periodic work between ops that is not itself an op (audits). Its
    /// host time counts against throughput but not against any op's
    /// latency. `Err` is a failed correctness check.
    fn background(&mut self, _sp: &mut Spans) -> Result<(), String> {
        Ok(())
    }

    /// The modeled clock now.
    fn clock(&self) -> Clock;

    /// Counter values now (trace snapshot, app and benchmark counts).
    fn counters(&self) -> Counters;

    /// Correctness checks after the timed phase. Returns the number of
    /// ops that never completed.
    fn verify(&mut self) -> Result<u64, String>;

    /// Open-loop lateness samples (modeled cycles), if the workload has a
    /// schedule.
    fn lateness(&self) -> Vec<u64> {
        Vec::new()
    }
}

/// Boot plus warm-up: the part of a run `setup_s` measures. Returns the
/// system and the set-up's host seconds, scaled like a block of the
/// timed phase by reference chunks spread through the warm-up.
pub fn setup<W: Workload>(seed: u64) -> Result<(W, f64), String> {
    let start = Instant::now();
    let mut w = W::boot(seed);
    let mut sp = Spans::off();
    let mut done = Vec::new();
    let (mut ref_ns, mut paused) = (0.0f64, 0.0f64);
    for i in 1..=W::WARMUP_OPS {
        w.op(&mut sp, &mut done)
            .map_err(|e| format!("warm-up op failed: {e}"))?;
        w.background(&mut sp)?;
        done.clear();
        if i.is_multiple_of(W::WARMUP_OPS / REF_CHUNKS) {
            let p = Instant::now();
            ref_ns += reference_chunk_ns();
            paused += p.elapsed().as_secs_f64();
        }
    }
    let speed = (REF_NOMINAL_NS / ref_ns).min(1.0);
    Ok((w, (start.elapsed().as_secs_f64() - paused) * speed))
}

/// What the deterministic window measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Window {
    /// Modeled latencies of the ops completed in the window (cycles).
    pub latencies: Vec<u64>,
    /// Modeled clock advance.
    pub busy: u64,
    /// Modeled makespan advance.
    pub span: u64,
    /// Counter deltas.
    pub counters: Counters,
    /// Host seconds the window took.
    pub host_s: f64,
    /// Peak resident set (MiB) from process start to the window's end:
    /// set-up plus a fixed op count, so it does not grow with the number
    /// of ops a fast or slow host fits into the rest of the phase.
    pub peak_rss_mib: f64,
}

impl Window {
    /// Everything but the host time: must repeat bit for bit for a seed.
    pub fn same_model(&self, other: &Window) -> bool {
        self.latencies == other.latencies
            && self.busy == other.busy
            && self.span == other.span
            && self.counters == other.counters
    }
}

/// Reference-work chunks per block, spread evenly through it.
const REF_CHUNKS: u64 = 8;

/// Host ns of `REF_CHUNKS` reference chunks on the nominal machine: the
/// speed every host figure is scaled to. It belongs to one host, a shared
/// 2-vCPU Xeon (2.1 GHz), where it is the `ipc_rpc` blocks' median at the
/// edge of contention: faster readings come from quiet moments that speed
/// the reference up more than the workloads, so speeds above nominal
/// count as nominal. On a faster host every block reads as nominal and
/// nothing is scaled; recalibrate it there.
const REF_NOMINAL_NS: f64 = 200_000.0;

/// Keys of the reference work's ordered map.
const REF_KEYS: usize = 512;

/// Host measurements of one block of the timed phase, scaled to nominal
/// speed.
#[derive(Clone, Copy, Debug)]
pub struct Block {
    /// Ops per host second (background work included).
    pub ops_per_s: f64,
    /// Median and 99th-percentile op latency (ns).
    pub p50_ns: f64,
    pub p99_ns: f64,
    /// Measured speed relative to nominal, at most 1.
    pub speed: f64,
}

/// One chunk of reference work: a fixed mix of inserts and lookups in a
/// sorted-array ordered map on the stack. It uses nothing of the system
/// under test and allocates nothing, so its host time says how fast the
/// machine runs at the moment, not what state the workload left the heap
/// in. Returns its host ns.
fn reference_chunk_ns() -> f64 {
    let t = Instant::now();
    let mut keys = [0u64; REF_KEYS];
    let mut vals = [0u64; REF_KEYS];
    let mut len = 0usize;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..1024u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x % REF_KEYS as u64;
        let at = keys[..len].binary_search(&k);
        if i % 4 == 0 {
            match at {
                Ok(j) => vals[j] = i,
                Err(j) => {
                    keys.copy_within(j..len, j + 1);
                    vals.copy_within(j..len, j + 1);
                    (keys[j], vals[j]) = (k, i);
                    len += 1;
                }
            }
        } else if let Ok(j) = at {
            acc = acc.wrapping_add(vals[j]);
        }
    }
    std::hint::black_box((acc, &keys, &vals));
    t.elapsed().as_nanos() as f64
}

/// What one timed phase measured.
pub struct Phase {
    /// Ops attempted.
    pub ops: u64,
    /// Ops that failed.
    pub failed: u64,
    /// First failure, for the report.
    pub first_error: Option<String>,
    /// Failed background correctness checks.
    pub check_error: Option<String>,
    /// Host latency samples recorded.
    pub samples: u64,
    /// Host seconds of the phase (background work included).
    pub host_s: f64,
    /// Complete blocks of the phase.
    pub blocks: Vec<Block>,
    /// The deterministic window.
    pub window: Window,
}

impl Phase {
    /// `(ops per second, p50 µs, p99 µs)`: medians of the scaled blocks.
    pub fn host_metrics(&self) -> (f64, f64, f64) {
        let med = |f: fn(&Block) -> f64| median_f64(&self.blocks.iter().map(f).collect::<Vec<_>>());
        (
            med(|b| b.ops_per_s),
            med(|b| b.p50_ns) / 1e3,
            med(|b| b.p99_ns) / 1e3,
        )
    }
}

/// Runs whole blocks of ops until the window is complete and at least
/// `min_seconds` host seconds have passed.
pub fn phase<W: Workload>(w: &mut W, sp: &mut Spans, min_seconds: f64) -> Phase {
    debug_assert!(W::WINDOW_OPS.is_multiple_of(W::BLOCK_OPS));
    let c0 = w.counters();
    let k0 = w.clock();
    let mut host = HostHist::default();
    let mut blocks = Vec::new();
    let mut block_start = 0.0f64;
    let mut ref_ns = 0.0f64;
    let mut samples = 0u64;
    let mut done = Vec::new();
    // Room for completions of ops that arrived before the window (open
    // loop, group commit) too, so the buffer never regrows mid-window.
    let mut latencies = Vec::with_capacity(W::WINDOW_OPS as usize + 4096);
    let (mut ops, mut failed) = (0u64, 0u64);
    let mut first_error = None;
    let mut check_error = None;
    let mut window = None;
    let start = Instant::now();
    // Counter reads and reference work are not workload time.
    let mut paused = 0.0f64;
    loop {
        sp.begin_op();
        let t = Instant::now();
        let r = w.op(sp, &mut done);
        let end = Instant::now();
        sp.end_op();
        host.record((end - t).as_nanos() as u64);
        samples += 1;
        ops += 1;
        if let Err(e) = r {
            failed += 1;
            first_error.get_or_insert(e);
        }
        if ops <= W::WINDOW_OPS {
            latencies.append(&mut done);
        } else {
            done.clear();
        }
        if let Err(e) = w.background(sp) {
            check_error.get_or_insert(e);
        }
        if ops == W::WINDOW_OPS {
            let host_s = start.elapsed().as_secs_f64() - paused;
            let p = Instant::now();
            let k1 = w.clock();
            window = Some(Window {
                latencies: std::mem::take(&mut latencies),
                busy: k1.busy - k0.busy,
                span: k1.span - k0.span,
                counters: delta(&c0, &w.counters()),
                host_s,
                peak_rss_mib: peak_rss_mib(),
            });
            paused += p.elapsed().as_secs_f64();
        }
        if ops.is_multiple_of(W::BLOCK_OPS / REF_CHUNKS) {
            let p = Instant::now();
            ref_ns += reference_chunk_ns();
            paused += p.elapsed().as_secs_f64();
        }
        if ops.is_multiple_of(W::BLOCK_OPS) {
            let now = start.elapsed().as_secs_f64() - paused;
            let speed = (REF_NOMINAL_NS / ref_ns).min(1.0);
            blocks.push(Block {
                ops_per_s: W::BLOCK_OPS as f64 / (now - block_start) / speed,
                p50_ns: host.quantile(0.5) * speed,
                p99_ns: host.quantile(0.99) * speed,
                speed,
            });
            host = HostHist::default();
            (block_start, ref_ns) = (now, 0.0);
            if ops >= W::WINDOW_OPS && now >= min_seconds {
                break;
            }
        }
    }
    Phase {
        ops,
        failed,
        first_error,
        check_error,
        samples,
        host_s: start.elapsed().as_secs_f64() - paused,
        blocks,
        window: window.expect("the phase runs the whole window"),
    }
}

/// Modeled end-to-end metrics of a window:
/// `(ops per modeled second, cycles per op, p99 latency in µs)`.
pub fn modeled(w: &Window, ops: u64) -> (f64, f64, f64) {
    let per_s = ops as f64 / (w.span as f64 / FREQ_HZ);
    let cyc = w.busy as f64 / ops as f64;
    let p99 = percentile(&mut w.latencies.clone(), 0.99) / FREQ_HZ * 1e6;
    (per_s, cyc, p99)
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io_serve::IoServe;
    use crate::ipc_rpc::IpcRpc;
    use crate::vm_churn::VmChurn;

    /// Modeled latencies, clock and counters after `n` ops from boot.
    fn fingerprint<W: Workload>(seed: u64, n: u64, sp: &mut Spans) -> (Vec<u64>, Clock, Counters) {
        let mut w = W::boot(seed);
        let mut lat = Vec::new();
        for _ in 0..n {
            w.op(sp, &mut lat).expect("op succeeds");
            w.background(sp).expect("checks pass");
        }
        (lat, w.clock(), w.counters())
    }

    /// Same seed, same model (traced or not); another seed, another stream.
    fn deterministic<W: Workload>(n: u64) {
        let a = fingerprint::<W>(7, n, &mut Spans::off());
        let b = fingerprint::<W>(7, n, &mut Spans::on(1024));
        assert!(a == b, "two runs of one seed differ");
        let c = fingerprint::<W>(8, n, &mut Spans::off());
        assert!(
            a.0 != c.0 || a.2 != c.2,
            "another seed gave the same op stream"
        );
    }

    #[test]
    fn ipc_rpc_is_deterministic_per_seed() {
        deterministic::<IpcRpc>(2_000);
    }

    #[test]
    fn vm_churn_is_deterministic_per_seed() {
        deterministic::<VmChurn>(VM_CHURN_TEST_OPS);
    }

    #[test]
    fn io_serve_is_deterministic_per_seed() {
        deterministic::<IoServe>(3_000);
    }

    /// Enough vm_churn ops for spawns, maps, pins and terminations.
    const VM_CHURN_TEST_OPS: u64 = 3_000;

    #[test]
    fn every_workload_passes_its_checks() {
        fn run<W: Workload>(n: u64) {
            let mut w = W::boot(3);
            let mut sp = Spans::off();
            let mut lat = Vec::new();
            for _ in 0..n {
                w.op(&mut sp, &mut lat).expect("op succeeds");
                w.background(&mut sp).expect("checks pass");
            }
            assert_eq!(w.verify(), Ok(0), "checks pass, nothing unserved");
        }
        run::<IpcRpc>(1_000);
        run::<VmChurn>(1_000);
        run::<IoServe>(1_000);
    }
}
