//! `perfbench` — the LightRidge-RS benchmark, end to end and layer by
//! layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|emulate|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed` and runs one untimed
//! warm-up operation, then measures for `--seconds` in five windows. Each
//! window opens with five set-ups from cold caches (`setup_s` is the
//! mean of the per-window medians). Every operation's output is
//! checked; failures count into the result's `failed`. The last line of
//! standard output is the result; the line before it records the run
//! conditions (thread count, SIMD level, `nproc`, seed, build profile)
//! and the sample count behind every metric.
//!
//! * `train` — repeated one-epoch `train()` calls (see [`train`]).
//! * `emulate` — repeated `evaluate()` calls (see [`emulate`]).
//! * `serve` — a 2-client closed loop over loopback TCP (see [`serve`]).
//!
//! Untraced runs (`--trace 0`) call only what a user calls and print the
//! end-to-end metrics of `BENCHMARK.json`: throughput and the p50 latency
//! (per `train()` epoch, per `evaluate()` call, or per request as the
//! client sees it) are means over the windows (for `serve`, over its
//! 2-second segments) of each window's figures; [`report::WINDOWS`] says
//! why means. The p99 latency, taken the same way, is printed by traced
//! runs only ([`report::Report::end_to_end`] says why).
//!
//! Traced runs (`--trace 1`) spend half of `--seconds` untraced and half
//! on a traced copy of the same work, then print the per-layer metrics of
//! `BENCHMARK.json`. The traced `train` and `emulate` runs rebuild
//! `train()` and `evaluate()` from their public parts with the
//! benchmark's own spans; if the rebuilt epoch is not bitwise equal to
//! `train()`'s, or the sweep's accuracy differs from `evaluate()`'s, the
//! run reports the failure and no numbers. The program itself is not
//! instrumented: the serve stage numbers come from the server's always-on
//! histograms. A per-layer metric of a layer the workload does not run
//! reads 0 from 0 samples.

mod emulate;
mod probes;
mod report;
mod serve;
mod setup;
mod train;

use report::Report;
use std::time::Duration;

const USAGE: &str =
    "usage: perfbench --workload <train|emulate|serve> --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        ["train", "emulate", "serve"]
                            .into_iter()
                            .find(|w| *w == value)
                            .ok_or(format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => trace = Some(number()? != 0),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        })
    }

    /// Measuring time of the untraced phase.
    pub fn untraced_budget(&self) -> Duration {
        if self.trace {
            Duration::from_secs(self.seconds) / 2
        } else {
            Duration::from_secs(self.seconds)
        }
    }

    /// Measuring time of the traced phase.
    pub fn traced_budget(&self) -> Duration {
        Duration::from_secs(self.seconds) / 2
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    match args.workload {
        "train" => train::run(&args, &mut report),
        "emulate" => emulate::run(&args, &mut report),
        _ => serve::run(&args, &mut report),
    }
    report.print(&args);
}
