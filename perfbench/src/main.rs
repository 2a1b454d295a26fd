//! The repository benchmark: three seeded, single-host-thread workloads
//! driven through the system's public API, measured on two clocks —
//! modeled cycles from the calibrated cost model and host wall-clock.
//!
//! ```text
//! perfbench --workload <ipc_rpc|vm_churn|io_serve> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --steadiness <runs> [--seed <first>] [--seconds <s>] [--workload <name>]...
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs a second,
//! traced pass and prints the per-layer metrics, writing its spans to
//! `.bench_out/spans-<workload>.csv` (replacing the previous run's). The last line of standard output is one JSON object.
//! Any failed correctness check exits non-zero. `--steadiness` repeats
//! each workload in fresh processes, on seeds `--seed` (default 1)
//! onwards, and prints the median and quartiles of every end-to-end
//! metric.

mod harness;
mod io_serve;
mod ipc_rpc;
mod metrics;
mod spans;
mod stats;
mod vm_churn;

use std::process::ExitCode;
use std::time::Instant;

use harness::{modeled, phase, setup, Workload, FREQ_HZ, MAX_SETUPS, MIN_SETUPS, SETUP_SECONDS};
use metrics::{per_layer, per_layer_names, LayerInputs, END_TO_END, KINDS};
use spans::Spans;
use stats::{median_f64, percentile, quartiles};

/// Workload names, in report order.
const WORKLOADS: [&str; 3] = ["ipc_rpc", "vm_churn", "io_serve"];

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    steadiness: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        steadiness: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workloads.push(value()?),
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v.parse().map_err(|_| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--steadiness" => {
                let v = value()?;
                a.steadiness = Some(v.parse().map_err(|_| bad(&v))?);
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if let Some(w) = a
        .workloads
        .iter()
        .find(|w| !WORKLOADS.contains(&w.as_str()))
    {
        return Err(format!("unknown workload {w}"));
    }
    if a.steadiness.is_none() && a.workloads.len() != 1 {
        return Err("give exactly one --workload".to_string());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steadiness {
        return steadiness(&args, runs);
    }
    let ok = match args.workloads[0].as_str() {
        "ipc_rpc" => run::<ipc_rpc::IpcRpc>(&args),
        "vm_churn" => run::<vm_churn::VmChurn>(&args),
        _ => run::<io_serve::IoServe>(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One metric line of the result.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn emit(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    for m in metrics {
        println!("{:<48} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// One run of workload `W`. Returns whether every check passed.
fn run<W: Workload>(a: &Args) -> bool {
    let mut errors: Vec<String> = Vec::new();
    let mut setup_s = Vec::new();
    let mut built = None;
    let start = Instant::now();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && start.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        // Drop the previous set-up first: one system in memory at a time.
        drop(built.take());
        match setup::<W>(a.seed) {
            Ok((w, seconds)) => {
                built = Some(w);
                setup_s.push(seconds);
            }
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                emit(false, 1, 1, &[]);
                return false;
            }
        }
    }
    let mut w = built.expect("at least one set-up");
    let seconds = if a.trace { a.seconds / 2.0 } else { a.seconds };
    let ph = phase(&mut w, &mut Spans::off(), seconds);
    errors.extend(ph.check_error.clone());
    let unserved = w.verify().unwrap_or_else(|e| {
        errors.push(e);
        0
    });
    drop(w);
    let failed = ph.failed + unserved;
    if let Some(e) = &ph.first_error {
        eprintln!(
            "perfbench: {} of {} ops failed; first: {e}",
            ph.failed, ph.ops
        );
    }
    let metrics: Vec<Metric> = if !a.trace {
        let (m_per_s, m_cyc, m_p99) = modeled(&ph.window, W::WINDOW_OPS);
        let (h_per_s, h_p50, h_p99) = ph.host_metrics();
        let values = [
            median_f64(&setup_s),
            h_per_s,
            h_p50,
            h_p99,
            m_per_s,
            m_cyc,
            m_p99,
            ph.window.peak_rss_mib,
        ];
        println!(
            "# {}: seed {}, {} host samples over {:.2} s in {} blocks, {} modeled \
             samples in a {}-op window",
            a.workloads[0],
            a.seed,
            ph.samples,
            ph.host_s,
            ph.blocks.len(),
            ph.window.latencies.len(),
            W::WINDOW_OPS
        );
        println!(
            "{:<48} {:>16.4} 1   ({failed} of {} ops)",
            "failed_op_ratio",
            failed as f64 / ph.ops as f64,
            ph.ops
        );
        let speeds: Vec<f64> = ph.blocks.iter().map(|b| b.speed).collect();
        let (q1, q3) = quartiles(&speeds);
        println!(
            "# machine speed vs nominal over {} blocks: q1 {q1:.3}, median {:.3}, q3 {q3:.3}",
            speeds.len(),
            median_f64(&speeds)
        );
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), value)| Metric {
                name: name.to_string(),
                value,
                unit,
            })
            .collect()
    } else {
        traced::<W>(a, &ph, failed, &mut errors)
    };
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = errors.is_empty() && failed == 0;
    emit(correct, ph.ops, failed, &metrics);
    correct
}

/// The traced pass: a fresh set-up, the same deterministic window with
/// spans on, the determinism self-check against the untraced window, and
/// the per-layer metrics.
fn traced<W: Workload>(
    a: &Args,
    untraced: &harness::Phase,
    failed: u64,
    errors: &mut Vec<String>,
) -> Vec<Metric> {
    let mut w = match setup::<W>(a.seed) {
        Ok((w, _)) => w,
        Err(e) => {
            errors.push(e);
            return Vec::new();
        }
    };
    let mut sp = Spans::on(W::WINDOW_OPS as usize * 8);
    let tr = phase(&mut w, &mut sp, 0.0);
    errors.extend(tr.check_error.clone());
    if let Some(e) = tr.first_error {
        errors.push(format!("traced pass: {e}"));
    }
    if let Err(e) = w.verify() {
        errors.push(format!("traced pass: {e}"));
    }
    if !tr.window.same_model(&untraced.window) {
        errors.push(
            "two runs of the same seed gave different modeled metrics or counter deltas"
                .to_string(),
        );
    }
    let mut lateness = w.lateness();
    let generator_lag_us = percentile(&mut lateness, 0.99) / FREQ_HZ * 1e6;
    let stats = sp.stats(KINDS.len());
    let values = per_layer(&LayerInputs {
        d: &tr.window.counters,
        ops: W::WINDOW_OPS,
        spans: &stats,
        tracing_overhead: tr.window.host_s / untraced.window.host_s - 1.0,
        failed,
        attempted: untraced.ops,
        host_samples: untraced.samples,
        modeled_samples: tr.window.latencies.len() as u64,
        generator_lag_us,
    });
    let dir = std::path::Path::new(".bench_out");
    let file = dir.join(format!("spans-{}.csv", a.workloads[0]));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&file, sp.to_csv(&KINDS))) {
        Ok(()) => println!("# {} spans written to {}", sp.len(), file.display()),
        Err(e) => errors.push(format!("writing {}: {e}", file.display())),
    }
    per_layer_names()
        .into_iter()
        .map(|(name, unit)| Metric {
            value: values[&name],
            name,
            unit,
        })
        .collect()
}

/// Pulls `"<name>": {"value": <v>` out of a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// Repeats each workload `runs` times in fresh processes (seeds `a.seed`
/// onwards) and prints the median and quartile spread of every end-to-end metric.
fn steadiness(a: &Args, runs: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: Vec<&str> = if a.workloads.is_empty() {
        WORKLOADS.to_vec()
    } else {
        a.workloads.iter().map(String::as_str).collect()
    };
    let mut all_ok = true;
    for wl in names {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for seed in (a.seed..).take(runs) {
            let out = std::process::Command::new(&exe)
                .args(["--workload", wl, "--seed", &seed.to_string()])
                .args(["--seconds", &a.seconds.to_string(), "--trace", "0"])
                .output();
            let out = match out {
                Ok(o) if o.status.success() => o,
                Ok(o) => {
                    eprintln!("perfbench: {wl} seed {seed} failed: {}", o.status);
                    all_ok = false;
                    continue;
                }
                Err(e) => {
                    eprintln!("perfbench: {wl} seed {seed}: {e}");
                    all_ok = false;
                    continue;
                }
            };
            let text = String::from_utf8_lossy(&out.stdout);
            let last = text.lines().last().unwrap_or_default();
            for (i, (name, _)) in END_TO_END.iter().enumerate() {
                if let Some(v) = metric_value(last, name) {
                    values[i].push(v);
                }
            }
        }
        println!(
            "{wl} ({runs} processes, seeds {}..={}, {} s each)",
            a.seed,
            a.seed + runs as u64 - 1,
            a.seconds
        );
        println!(
            "  {:<24} {:>14} {:>14} {:>14} {:>9}",
            "metric", "q1", "median", "q3", "iqr/med"
        );
        for (i, (name, unit)) in END_TO_END.iter().enumerate() {
            let (q1, q3) = quartiles(&values[i]);
            let med = median_f64(&values[i]);
            let spread = if med != 0.0 { (q3 - q1) / med } else { 0.0 };
            println!("  {name:<24} {q1:>14.4} {med:>14.4} {q3:>14.4} {spread:>9.4} {unit}");
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_steadiness_parser() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
                    \"peak_rss_mib\": {\"value\": 12.5, \"unit\": \"MiB\"}}}";
        assert_eq!(metric_value(line, "setup_s"), Some(0.25));
        assert_eq!(metric_value(line, "peak_rss_mib"), Some(12.5));
        assert_eq!(metric_value(line, "host_ops_per_s"), None);
    }
}
