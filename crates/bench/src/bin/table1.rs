//! Regenerate Table I: exact bespoke baseline evaluation.
//!
//! Usage: `cargo run -p pe-bench --release --bin table1` (set
//! `PE_BUDGET=quick` for a fast pass). Studies run in parallel through
//! `Pipeline::run_many`; the JSON artifact is byte-identical to a
//! single-threaded run.

use pe_bench::format::write_json;
use pe_bench::study::run_studies;
use pe_bench::{budget_or_exit, table1, BudgetPreset};

fn main() {
    let budget = budget_or_exit(BudgetPreset::Full);
    let studies = run_studies(budget, 0);
    let rows = table1::rows(&studies);
    println!("{}", table1::render(&rows));
    write_json("table1", &rows);
}
