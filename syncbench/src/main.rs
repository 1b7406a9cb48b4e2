//! Command line of the benchmark.
//!
//! ```text
//! syncbench --workload NAME --seed N --seconds S --trace 0|1
//! syncbench --workload NAME --reference SHOTS
//! ```
//!
//! A run prints a human summary on stderr and, as the last line of
//! stdout, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics untraced, per-layer metrics traced).
//! `--reference` measures a workload's output-check band with the
//! reserved reference seed and prints it.

use std::process::ExitCode;

use syncbench::{measure_check, run, Options, Workload, REFERENCE_SEED};

const USAGE: &str = "usage: syncbench --workload NAME --seed N --seconds S --trace 0|1\n       \
                     syncbench --workload NAME --reference SHOTS\n\
                     workloads: surgery-mwpm-d5 stream-uf-d11";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: Option<u64>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut reference) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::named(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("want an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("want a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("want 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                })
            }
            "--reference" => {
                reference = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| bad("want a positive shot count"))?,
                )
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if reference.is_some() {
        return Ok(Args {
            workload,
            seed: REFERENCE_SEED,
            seconds: 0.0,
            trace: false,
            reference,
        });
    }
    let seed = seed.ok_or("missing --seed")?;
    if seed == REFERENCE_SEED {
        return Err(format!(
            "--seed {REFERENCE_SEED} is reserved for the reference bands"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        reference,
    })
}

/// Pins the C allocator to one arena. `parallel_batches_with` runs each
/// batch on a fresh worker thread, and whether that thread reuses the
/// previous worker's arena or opens one of its own depends on when the
/// previous thread finished exiting; with a single arena the run's peak
/// resident set no longer depends on that race.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn one_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only sets a glibc allocator parameter; it is
    // called once, before the process starts any thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn one_malloc_arena() {}

fn main() -> ExitCode {
    one_malloc_arena();
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(shots) = args.reference {
        let check = measure_check(&args.workload, shots);
        println!("{}: {check:?}", args.workload.name);
        return ExitCode::SUCCESS;
    }
    let report = run(
        &args.workload,
        &Options {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            substitute: None,
        },
    );
    for note in &report.notes {
        eprintln!("{note}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
