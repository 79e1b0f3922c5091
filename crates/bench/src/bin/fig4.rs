//! Regenerate Fig. 4: normalized area/power vs the state of the art.
//!
//! Usage: `cargo run -p pe-bench --release --bin fig4` (set
//! `PE_BUDGET=quick` for a fast pass). Ours runs through the staged
//! pipeline; the prior-work methods run as `SearchEngine`s against the
//! same baseline-costed stage.

use pe_bench::format::write_json;
use pe_bench::study::run_selected;
use pe_bench::{budget_or_exit, fig4, BudgetPreset};

fn main() {
    let budget = budget_or_exit(BudgetPreset::Full);
    let selected = run_selected(budget, 0);
    let engines = fig4::paper_engines();
    let tech = pe_hw::TechLibrary::egfet();
    let rows: Vec<_> = selected
        .iter()
        .map(|s| fig4::row(s, &engines, &tech))
        .collect();
    println!("{}", fig4::render(&rows));
    write_json("fig4", &rows);
}
