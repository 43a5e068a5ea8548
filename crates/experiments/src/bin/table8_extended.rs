//! Extended Table VIII: every Table III algorithm, executable.
//!
//! With `--journal PATH` (or `CQ_SWEEP_JOURNAL=base` in the environment)
//! each (task, algorithm) training run is journaled as it finishes and a
//! rerun resumes instead of retraining.
use cq_experiments::chaos::{journal_path_from_env, sweep_policy};
use cq_faults::ChaosPlan;
use cq_resil::SweepJournal;

/// Extracts `--journal <path>` / `--journal=<path>` from raw arguments.
fn journal_flag<I: IntoIterator<Item = String>>(args: I) -> Option<String> {
    let mut args = args.into_iter();
    let mut path = None;
    while let Some(a) = args.next() {
        if a == "--journal" {
            path = args.next();
        } else if let Some(p) = a.strip_prefix("--journal=") {
            path = Some(p.to_string());
        }
    }
    path
}

fn main() {
    let _profile = cq_experiments::profiling::init_for_bin();
    println!("Table VIII (extended) — all five Table III algorithms (accuracy %)\n");
    let journal_path =
        journal_flag(std::env::args().skip(1)).or_else(|| journal_path_from_env("table8ext"));
    match journal_path {
        None => print!("{}", cq_experiments::accuracy::table8_extended(42)),
        Some(path) => {
            let journal = SweepJournal::open(&path).unwrap_or_else(|e| {
                eprintln!("table8_extended: cannot open journal {path:?}: {e}");
                std::process::exit(2);
            });
            let (table, outcome) = cq_experiments::accuracy::table8_extended_journaled(
                42,
                &journal,
                &sweep_policy(),
                &ChaosPlan::off(),
            )
            .unwrap_or_else(|e| {
                eprintln!("table8_extended: journal write failed: {e}");
                std::process::exit(1);
            });
            eprintln!(
                "[journal] {path}: {} resumed, {} computed, {} recorded",
                outcome.resumed, outcome.computed, outcome.recorded
            );
            print!("{table}");
            if !outcome.failures().is_empty() {
                std::process::exit(1);
            }
        }
    }
}
