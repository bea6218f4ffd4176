//! Child process of the benchmark entry point, `perfbench/run.py`.
//!
//! Each subcommand does one job and prints one JSON line on stdout;
//! result rows go to files named on the command line so `run.py` can
//! check them outside every timed region:
//!
//! ```text
//! tlc-perfbench pass      <workload> <seed> <threads> <trace> <rows>
//! tlc-perfbench traced    <workload> <seed> <trace> <rows>
//! tlc-perfbench reference <workload> <seed> <threads> <trace> <rows>
//! tlc-perfbench accuracy  <workload> <threads> <scratch-trace> <approx-rows> <exact-rows>
//! tlc-perfbench trace     <seed> <path>
//! tlc-perfbench host      <seed>
//! ```
//!
//! One untraced pass per process: peak RSS (`VmHWM`) then belongs to
//! that pass alone.

mod inputs;
mod pipeline;
mod rows;

use inputs::Bench;
use pipeline::Output;
use std::path::Path;
use std::time::Instant;

fn usage() -> ! {
    eprintln!("usage: see the module documentation of perfbench/src/main.rs");
    std::process::exit(2);
}

fn arg<T: std::str::FromStr>(args: &[String], i: usize) -> T {
    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
}

fn path(args: &[String], i: usize) -> &str {
    args.get(i).map(String::as_str).unwrap_or_else(|| usage())
}

fn bench(args: &[String], i: usize) -> Bench {
    args.get(i).and_then(|s| Bench::parse(s)).unwrap_or_else(|| usage())
}

/// Writes `out` as a row file: exhibit texts when it holds any, design
/// points otherwise.
fn write_rows(path: &str, out: &Output) {
    let text = if out.exhibits.is_empty() {
        rows::points_file(&out.points)
    } else {
        rows::exhibits_file(&out.exhibits)
    };
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("perfbench: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sequential-read bandwidth of an arena-sized buffer (one standard
/// 2M-instruction capture at 17 B/record), median of seven reads: the
/// ceiling the `*.ceiling_frac` layer metrics divide by.
fn seq_read_gb_per_s() -> f64 {
    let words = 34_000_000 / 8;
    let buf: Vec<u64> = (0..words as u64).collect();
    let mut rates: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            let sum = std::hint::black_box(&buf).iter().fold(0u64, |a, &x| a.wrapping_add(x));
            std::hint::black_box(sum);
            (words * 8) as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
}

fn json_object(fields: &[(String, f64)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v:e}")).collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("pass") => {
            let (b, seed, threads): (Bench, u64, usize) =
                (bench(&args, 1), arg(&args, 2), arg(&args, 3));
            if threads == 0 {
                usage();
            }
            let (times, out) = pipeline::untraced(b, seed, threads, Path::new(path(&args, 4)));
            let rss = peak_rss_mb();
            write_rows(path(&args, 5), &out);
            println!(
                "{}",
                json_object(&[
                    ("wall_s".into(), times.wall_s),
                    ("setup_s".into(), times.setup_s),
                    ("sim_work".into(), times.sim_work),
                    ("peak_rss_mb".into(), rss),
                ])
            );
        }
        Some("traced") => {
            let (b, seed): (Bench, u64) = (bench(&args, 1), arg(&args, 2));
            let seq = seq_read_gb_per_s();
            let (layers, out, wall) = pipeline::traced(b, seed, Path::new(path(&args, 3)));
            write_rows(path(&args, 4), &out);
            let mut fields: Vec<(String, f64)> = layers.0.into_iter().collect();
            fields.push(("trace.wall_s".into(), wall));
            fields.push(("host.seq_read_gb_per_s".into(), seq));
            println!("{}", json_object(&fields));
        }
        Some("reference") => {
            let (b, seed, threads): (Bench, u64, usize) =
                (bench(&args, 1), arg(&args, 2), arg(&args, 3));
            let out = pipeline::reference(b, seed, threads.max(1), Path::new(path(&args, 4)));
            write_rows(path(&args, 5), &out);
            println!("{{}}");
        }
        Some("accuracy") => {
            let (b, threads): (Bench, usize) = (bench(&args, 1), arg(&args, 2));
            let trace = path(&args, 3);
            if b == Bench::TraceSampled {
                if let Err(e) = inputs::write_trace(Path::new(trace), 0) {
                    eprintln!("perfbench: cannot write trace {trace}: {e}");
                    std::process::exit(1);
                }
            }
            let (approx, exact) = pipeline::accuracy(b, threads.max(1), Path::new(trace));
            let _ = std::fs::remove_file(trace);
            write_rows(path(&args, 4), &approx);
            write_rows(path(&args, 5), &exact);
            println!("{{}}");
        }
        Some("trace") => {
            let seed: u64 = arg(&args, 1);
            let trace = path(&args, 2);
            match inputs::write_trace(Path::new(trace), seed) {
                Ok(bytes) => println!(
                    "{}",
                    json_object(&[
                        ("trace_bytes".into(), bytes as f64),
                        ("instructions".into(), inputs::TRACE_INSTRUCTIONS as f64),
                    ])
                ),
                Err(e) => {
                    eprintln!("perfbench: cannot write trace {trace}: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some("host") => println!(
            "{}",
            json_object(&[
                ("window".into(), inputs::window_for(arg(&args, 1)) as f64),
                ("seq_read_gb_per_s".into(), seq_read_gb_per_s()),
                ("obs".into(), if tlc_obs::ENABLED { 1.0 } else { 0.0 }),
            ])
        ),
        _ => usage(),
    }
}
