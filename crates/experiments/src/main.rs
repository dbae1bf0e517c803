//! Command-line driver for the per-figure experiment regenerators.
//!
//! Usage:
//!
//! ```text
//! lr-experiments <id|all> [--full] [--out DIR]
//! ```
//!
//! `id` is one of `fig1 tab1 fig5 tab3 fig6 fig7 fig8 fig9 fig10 tab4
//! fig11 tab5 fig13 fdtd dse-transfer ext`; `all` runs every one. Quick
//! scale is the default, `--full` runs closer to paper scale. Reports are
//! printed and, with `--out`, archived as `DIR/<id>.txt`; those files are
//! created before any experiment runs, so an unwritable `DIR` exits with
//! code 2 at once.

use lr_bench::create_output;
use lr_experiments::common::Mode;
use lr_experiments::{run_experiment, EXPERIMENTS};
use std::io::Write as _;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        eprintln!("usage: lr-experiments <id|all> [--full] [--out DIR]");
        eprintln!("ids: {}", EXPERIMENTS.join(" "));
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    let id = args[0].clone();
    let mode = if args.iter().any(|a| a == "--full") {
        Mode::Full
    } else {
        Mode::Quick
    };
    let out_dir: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);

    let ids: Vec<&str> = if id == "all" {
        EXPERIMENTS.to_vec()
    } else if EXPERIMENTS.contains(&id.as_str()) {
        vec![id.as_str()]
    } else {
        eprintln!(
            "unknown experiment '{id}'; known: {}",
            EXPERIMENTS.join(" ")
        );
        std::process::exit(2);
    };

    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create output directory {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    let outputs: Vec<_> = ids
        .iter()
        .map(|id| {
            out_dir.as_ref().map(|dir| {
                let path = dir.join(format!("{id}.txt"));
                (create_output(&path), path)
            })
        })
        .collect();

    for (id, out) in ids.into_iter().zip(outputs) {
        let started = std::time::Instant::now();
        let report = run_experiment(id, mode);
        println!(
            "[{id} completed in {:.1}s]\n",
            started.elapsed().as_secs_f64()
        );
        if let Some((mut file, path)) = out {
            file.write_all(report.text().as_bytes())
                .expect("write report");
            println!("[saved {}]", path.display());
        }
    }
}
