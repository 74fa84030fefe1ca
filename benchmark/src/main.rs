//! The hpcgrid benchmark: five workloads, from the paper's site pipeline to
//! a live meter fleet, each timed from outside the library layers it
//! drives.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! A run builds its inputs from `--seed`, sets up three times (reporting
//! the median), then issues requests one at a time for `--seconds`, checks
//! its results, prints a readable table, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs report
//! the end-to-end metrics ([`END_TO_END`]). `--trace 1` records spans
//! around every layer call, in set-up and in about half of the requests; it
//! reports the per-layer metrics ([`PER_LAYER`]), including the tracing
//! overhead from the traced and untraced requests' rates, and writes the
//! spans as JSON lines to `benchmark/.run/spans-<workload>.jsonl`. The
//! process exits nonzero when a correctness gate fails. See README.md for
//! what each metric means on each workload.

mod fleet;
mod harness;
mod pipeline;
mod renegotiate;
mod stats;
mod sweep_rerun;
mod trace;

use harness::{peak_rss_mb, run_dir, Measured, Params};
use stats::Latency;
use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

const USAGE: &str = "usage: hpcgrid-benchmark --workload <pipeline|sweep_rerun|fleet_live|\
fleet_replay|renegotiate> --seed <n> [--seconds <s>] [--trace <0|1>]";

/// The workloads, by name.
pub const WORKLOADS: [&str; 5] = [
    "pipeline",
    "sweep_rerun",
    "fleet_live",
    "fleet_replay",
    "renegotiate",
];

/// End-to-end metrics, `(name, unit)`. Every workload reports each one;
/// what a unit of work and a request are depends on the workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("work_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_p95_ms", "ms"),
];

/// Per-layer metrics of a traced run, `(name, unit)`. A `<span>_s` metric
/// is the summed self time of the spans of that name; the rest come from
/// the libraries' report structs or are derived below. Layers a workload
/// bypasses report 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("request.samples", "count"),
    ("request.p99_ms", "ms"),
    ("request.max_ms", "ms"),
    ("workload.build_s", "s"),
    ("workload.jobs", "count"),
    ("scheduler.run_s", "s"),
    ("scheduler.jobs_per_s", "1/s"),
    ("scheduler.slowest_site_s", "s"),
    ("facility.load_series_s", "s"),
    ("grid.market_s", "s"),
    ("compiled.compile_s", "s"),
    ("compiled.compiles", "count"),
    ("compiled.bill_s", "s"),
    ("compiled.bill_ns_per_sample", "ns"),
    ("compiled.segment_map_hit_rate", "ratio"),
    ("engine.fold_s", "s"),
    ("engine.compute_s", "s"),
    ("engine.executed", "count"),
    ("engine.memory_hits", "count"),
    ("engine.failed", "count"),
    ("engine.retries", "count"),
    ("engine.worker_busy_share", "ratio"),
    ("engine.artifact_bytes", "B"),
    ("engine.journal_bytes", "B"),
    ("fleet.register_s", "s"),
    ("fleet.advance_s", "s"),
    ("fleet.generator_s", "s"),
    ("fleet.finalize_s", "s"),
    ("fleet.shards", "count"),
    ("fleet.bytes_per_meter", "B"),
    ("fleet.kernel_reuse_rate", "ratio"),
    ("fleet.plan_builds", "count"),
    ("fleet.plan_hits", "count"),
    ("fleet.dropped", "count"),
    ("fleet.quarantined", "count"),
    ("ledger.create_s", "s"),
    ("ledger.append_s", "s"),
    ("ledger.kernel_at_s", "s"),
    ("ledger.bill_as_of_s", "s"),
    ("ledger.kernel_cache_len", "count"),
    ("ledger.kernel_cache_hit_rate", "ratio"),
    ("ledger.noop_retries", "count"),
    ("ledger.rejected_backdated", "count"),
    ("bench.self_s", "s"),
    ("bench.span_count", "count"),
    ("trace.spanned_s", "s"),
    ("trace.unspanned_s", "s"),
    ("trace.overhead_pct", "%"),
];

#[derive(Debug, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3_600.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn run_workload(name: &str, p: &Params) -> Measured {
    match name {
        "pipeline" => pipeline::run(p, &pipeline::Size::FULL),
        "sweep_rerun" => sweep_rerun::run(p, &sweep_rerun::Size::FULL),
        "fleet_live" => fleet::run(p, &fleet::Size::LIVE),
        "fleet_replay" => fleet::run(p, &fleet::Size::REPLAY),
        "renegotiate" => renegotiate::run(p, &renegotiate::Size::FULL),
        other => unreachable!("workload `{other}` was validated by the parser"),
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(m: &Measured) -> HashMap<&'static str, f64> {
    let lat = Latency::of(&m.requests_ms);
    HashMap::from([
        ("setup_s", stats::median(&m.setup_s)),
        ("peak_rss_mb", peak_rss_mb()),
        ("work_per_s", m.work_per_s()),
        ("request_p50_ms", lat.p50),
        ("request_p95_ms", lat.p95),
    ])
}

/// The per-layer metrics of a traced run `m`, from its spans and its report
/// counters. `wall_s` is how long the run took.
fn per_layer(spans: &[trace::Span], m: &Measured, wall_s: f64) -> HashMap<&'static str, f64> {
    let self_s = trace::self_times(spans);
    let mut by_name: HashMap<&str, f64> = HashMap::new();
    for (s, own) in spans.iter().zip(&self_s) {
        *by_name.entry(s.name).or_default() += own;
    }
    let mut v: HashMap<&'static str, f64> = HashMap::new();
    for (name, _) in PER_LAYER {
        if let Some(t) = name.strip_suffix("_s").and_then(|stem| by_name.get(stem)) {
            v.insert(name, *t);
        }
    }
    for (name, value) in &m.counters {
        v.insert(name, *value);
    }
    let get = |v: &HashMap<&str, f64>, k: &str| v.get(k).copied().unwrap_or(0.0);

    let lat = Latency::of(&m.requests_ms);
    v.insert("request.samples", lat.samples as f64);
    v.insert("request.p99_ms", lat.p99);
    v.insert("request.max_ms", lat.max);

    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    v.insert(
        "scheduler.jobs_per_s",
        ratio(get(&v, "workload.jobs"), get(&v, "scheduler.run_s")),
    );
    v.insert(
        "compiled.bill_ns_per_sample",
        ratio(
            get(&v, "compiled.bill_s") * 1e9,
            get(&v, "compiled.samples"),
        ),
    );
    let longest = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(trace::Span::secs)
            .fold(0.0, f64::max)
    };
    v.insert("scheduler.slowest_site_s", longest("scheduler.run"));
    // Scenario closures are the children of the engine's fold spans.
    let folds: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == "engine.fold")
        .map(|s| s.id)
        .collect();
    v.insert(
        "engine.compute_s",
        spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| folds.contains(&p)))
            .map(trace::Span::secs)
            .fold(0.0, |a, b| a + b),
    );
    v.insert(
        "bench.self_s",
        spans
            .iter()
            .zip(&self_s)
            .filter(|(s, _)| s.name.starts_with("bench."))
            .fold(0.0, |a, (_, t)| a + t),
    );
    v.insert("bench.span_count", spans.len() as f64);
    // Roots are spans without a parent; on the driving thread they never
    // overlap, so their lengths add up to the spanned part of the wall.
    let spanned = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(trace::Span::secs)
        .fold(0.0, |a, b| a + b);
    v.insert("trace.spanned_s", spanned);
    v.insert("trace.unspanned_s", (wall_s - spanned).max(0.0));
    v.insert(
        "trace.overhead_pct",
        (ratio(m.work_per_s_traced(false), m.work_per_s_traced(true)) - 1.0) * 100.0,
    );
    v
}

/// Print the run as a readable table.
fn print_table(args: &Args, m: &Measured, metrics: &[(&str, &str)], values: &HashMap<&str, f64>) {
    let lat = Latency::of(&m.requests_ms);
    println!(
        "\n== hpcgrid benchmark: {} (seed {}, {} s, {}) ==",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    println!(
        "threads: {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "set-up: {} runs, {}",
        m.setup_s.len(),
        m.setup_s
            .iter()
            .map(|s| format!("{s:.3} s"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "timed: {} {} requests, {:.0} {} in {:.2} s busy = {:.1} {}/s",
        lat.samples,
        m.request_unit,
        m.work(),
        m.work_unit,
        m.busy_s(),
        m.work_per_s(),
        m.work_unit
    );
    let mark = |q: f64| {
        if lat.supported(q) {
            ""
        } else {
            " (<10 beyond)"
        }
    };
    println!(
        "{} latency over {} samples: p50 {:.3} ms, p95 {:.3} ms{}, p99 {:.3} ms{}, max {:.3} ms",
        m.request_unit,
        lat.samples,
        lat.p50,
        lat.p95,
        mark(0.95),
        lat.p99,
        mark(0.99),
        lat.max
    );
    println!("ops: {} attempted, {} failed", m.attempted, m.failed);
    for (name, ok) in &m.checks {
        println!("  [{}] {name}", if *ok { "ok" } else { "FAIL" });
    }
    let width = metrics.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    for (name, unit) in metrics {
        let value = values.get(name).copied().unwrap_or(0.0);
        println!("  {name:<width$}  {value:>16.6}  {unit}");
    }
}

/// Write `spans` to `path` as JSON lines.
fn write_spans(path: &std::path::Path, spans: &[trace::Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(out, "{}", s.json_line())?;
    }
    out.flush()
}

/// The run's last line: one JSON object holding the verdict, the operation
/// counts and every metric of `metrics` with its unit. Numbers keep all
/// their digits (Rust prints the shortest exact decimal); non-finite
/// values, which JSON cannot hold, become 0.
fn result_line(
    correct: bool,
    m: &Measured,
    metrics: &[(&str, &str)],
    values: &HashMap<&str, f64>,
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit)| {
            let value = values.get(name).copied().filter(|v| v.is_finite());
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                value.unwrap_or(0.0)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted.max(1),
        m.failed,
        body.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The libraries read these deep inside (precision, shard count,
    // artifact format, fault injection); any of them would silently change
    // what is measured.
    if let Some(var) = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .find(|k| k.starts_with("HPCGRID_"))
    {
        eprintln!("refusing to run: {var} is set; unset every HPCGRID_* variable");
        std::process::exit(2);
    }

    let (m, metrics, values, correct) = if args.trace {
        let p = Params {
            seed: args.seed,
            seconds: args.seconds,
            setups: 1,
        };
        trace::enable();
        let t = Instant::now();
        let m = run_workload(args.workload, &p);
        let wall = t.elapsed().as_secs_f64();
        let spans = trace::drain();
        let values = per_layer(&spans, &m, wall);
        // One log per workload, replaced by its next traced run, so repeated
        // runs do not pile up span logs.
        let path = run_dir().join(format!("spans-{}.jsonl", args.workload));
        let written = write_spans(&path, &spans);
        match &written {
            Ok(()) => println!("wrote {} spans to {}", spans.len(), path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
        let correct = m.correct() && written.is_ok();
        (m, &PER_LAYER[..], values, correct)
    } else {
        let p = Params {
            seed: args.seed,
            seconds: args.seconds,
            setups: 3,
        };
        let m = run_workload(args.workload, &p);
        let values = end_to_end(&m);
        let correct = m.correct();
        (m, &END_TO_END[..], values, correct)
    };

    print_table(&args, &m, metrics, &values);
    let lat = Latency::of(&m.requests_ms);
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"samples\": {{\"requests\": {}, \"setups\": {}}}, \
         \"ops\": {{\"attempted\": {}, \"failed\": {}}}, \"digest\": \"{:016x}\", \"correct\": {}}}",
        args.workload,
        args.seed,
        lat.samples,
        m.setup_s.len(),
        m.attempted,
        m.failed,
        m.digest,
        correct
    );
    println!("{}", result_line(correct, &m, metrics, &values));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse(&argv(
            "--workload fleet_live --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "fleet_live",
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse(&argv("--workload nope --seed 1")).is_err());
        assert!(parse(&argv("--workload pipeline")).is_err());
        assert!(parse(&argv("--workload pipeline --seed 1 --trace yes")).is_err());
        assert!(parse(&argv("--workload pipeline --seed 1 --seconds -3")).is_err());
    }

    /// The metric tables are the benchmark's contract with BENCHMARK.json:
    /// same names, same units, same order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
        let listed = |key: &str| -> Vec<(String, String)> {
            let section = text
                .split(&format!("\"{key}\""))
                .nth(1)
                .and_then(|s| s.split(']').next())
                .unwrap_or_else(|| panic!("{key} section"));
            section
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        entry
                            .split(&format!("\"{f}\": \""))
                            .nth(1)
                            .and_then(|s| s.split('"').next())
                            .unwrap_or_else(|| panic!("{f} in {entry}"))
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = text
            .split("\"workloads\"")
            .nth(1)
            .and_then(|s| s.split(']').next())
            .expect("workloads section")
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap_or_default().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_carries_every_metric_and_nothing_else() {
        let mut m = Measured::new("units", "request");
        m.attempted = 3;
        let values = HashMap::from([("setup_s", 0.25), ("work_per_s", f64::NAN)]);
        let line = result_line(true, &m, &END_TO_END, &values);
        assert!(line.starts_with(r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"#));
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!(r#""{name}": {{"value": "#)),
                "{name}"
            );
            assert!(line.contains(&format!(r#""unit": "{unit}""#)), "{unit}");
        }
        assert!(line.contains(r#""setup_s": {"value": 0.25, "unit": "s"}"#));
        assert!(line.contains(r#""work_per_s": {"value": 0, "unit": "1/s"}"#));
        assert!(line.ends_with("}}"));
    }

    /// A `--trace 1` run end to end on a tiny fleet: spans around every
    /// layer call, a span log, and every per-layer metric reported.
    #[test]
    fn traced_smoke_run_reports_per_layer_metrics() {
        let _serial = trace::serial();
        let p = Params {
            seed: 2,
            seconds: 0.1,
            setups: 1,
        };
        let size = fleet::Size {
            meters: 500,
            contracts: 4,
            window: 16,
            horizon_days: 2,
        };
        trace::enable();
        let t = Instant::now();
        let m = fleet::run(&p, &size);
        let wall = t.elapsed().as_secs_f64();
        let spans = trace::drain();
        assert!(m.batches.iter().any(|b| b.traced) && m.batches.iter().any(|b| !b.traced));
        assert!(m.correct(), "{:?}", m.checks);
        for name in [
            "compiled.compile",
            "fleet.register",
            "fleet.generator",
            "fleet.advance",
            "fleet.finalize",
        ] {
            assert!(spans.iter().any(|s| s.name == name), "{name} recorded");
        }
        let values = per_layer(&spans, &m, wall);
        assert!(values["fleet.advance_s"] > 0.0);
        assert!(values["fleet.shards"] > 0.0);
        assert!(values["trace.spanned_s"] <= wall);
        let line = result_line(true, &m, &PER_LAYER, &values);
        for (name, _) in PER_LAYER {
            assert!(line.contains(&format!("\"{name}\": ")), "{name} reported");
        }
        let dir = harness::ScratchDir::new("spans").expect("scratch dir");
        let path = dir.path().join("spans.jsonl");
        write_spans(&path, &spans).expect("span log written");
        let log = std::fs::read_to_string(&path).expect("span log read");
        assert_eq!(log.lines().count(), spans.len());
        assert!(log
            .lines()
            .all(|l| l.starts_with("{\"id\":") && l.ends_with('}')));
    }

    #[test]
    fn per_layer_reports_every_metric_from_spans_and_counters() {
        let span = |id, parent, name, start_ns, end_ns| trace::Span {
            id,
            parent,
            name,
            thread: 0,
            start_ns,
            end_ns,
        };
        let spans = [
            span(1, None, "engine.fold", 0, 1_000_000_000),
            span(2, Some(1), "bench.site_month", 100_000_000, 900_000_000),
            span(3, Some(2), "scheduler.run", 200_000_000, 700_000_000),
        ];
        let mut m = Measured::new("site-months", "site-month");
        m.requests_ms = vec![800.0];
        m.batches = vec![
            harness::Batch {
                work: 1.0,
                secs: 1.0,
                traced: true,
            },
            harness::Batch {
                work: 1.1,
                secs: 1.0,
                traced: false,
            },
        ];
        m.counter("workload.jobs", 1_000.0);
        let v = per_layer(&spans, &m, 1.5);
        let close = |k: &str, want: f64| {
            let got = v[k];
            assert!((got - want).abs() < 1e-9, "{k}: {got} != {want}");
        };
        close("engine.fold_s", 0.2);
        close("engine.compute_s", 0.8);
        close("bench.self_s", 0.3);
        close("scheduler.run_s", 0.5);
        close("scheduler.jobs_per_s", 2_000.0);
        close("scheduler.slowest_site_s", 0.5);
        close("trace.spanned_s", 1.0);
        close("trace.unspanned_s", 0.5);
        close("trace.overhead_pct", 10.0);
        // Self times plus the unspanned remainder account for the wall.
        let accounted: f64 = ["engine.fold_s", "bench.self_s", "scheduler.run_s"]
            .iter()
            .map(|k| v[k])
            .sum::<f64>()
            + v["trace.unspanned_s"];
        assert!((accounted - 1.5).abs() < 1e-9);
    }
}
