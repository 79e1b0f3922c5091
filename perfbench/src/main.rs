//! Study-level benchmark of the printed-MLP pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <quick-all|full-pendigits|full-small|durable-quick> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run drives whole studies
//! (`prepare → float-train → baseline-cost → search → select`) through
//! `Pipeline::run_many_selected` at one thread. The studies run at a
//! fixed master seed (see `workload::STUDY_SEED`); the run's seed picks
//! the order the workload's datasets run in.
//!
//! * `--trace 0` repeats the workload until `--seconds` have passed (at
//!   least once) with no observer attached, and reports the end-to-end
//!   metrics: median wall clock, set-up time, peak memory, and the
//!   design quality the studies reached.
//! * `--trace 1` runs the workload once untraced and once with a
//!   timestamping observer, replays the post-GA tail, and reports the
//!   per-layer metrics. Its spans go to
//!   `.perfbench/spans-<workload>-<seed>.json`.
//!
//! A study fails when it errors, breaks its loss budget, does not
//! re-cost to its reported area and power, runs on other inputs than
//! the set-up made, or yields a `Selected` digest that differs between
//! repeats; on a traced run, also when the tail replay does not
//! reproduce its artifact, and for `durable-quick` when the warm reload
//! computes a stage or is not byte-identical to the cold run. The first
//! stdout line holds the settings and the host fingerprint; the last is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod host;
mod quality;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pe_datasets::Dataset;
use printed_axc::Selected;

use crate::host::json_str;
use crate::quality::{digest, geomean, mean, study_quality};
use crate::trace::{attribute, Ledger, Recorder, Span};
use crate::workload::{
    replay_tail, run_repeat, set_up, Repeat, TailReplay, TempDir, Workload, THREADS,
};

/// Where runs keep span files and temporary directories, relative to
/// the repository root they run from.
const OUT_DIR: &str = ".perfbench";

/// Set-ups timed before each repeat; the median over the run is
/// reported.
const SETUPS_PER_REPEAT: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metrics of one run, in report order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Outcome counts over every study a run attempted.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Count one repeat's studies. A study fails on its own checks or
    /// when its digest differs from the reference repeat's.
    fn count(&mut self, workload: Workload, repeat: &Repeat, reference: &[u64]) {
        let digests = digests(&repeat.selected);
        for (i, &dataset) in workload.datasets().iter().enumerate() {
            self.attempted += 1;
            let mut failed = false;
            for (_, why) in repeat.failures.iter().filter(|(d, _)| *d == dataset) {
                eprintln!("FAILED {dataset:?}: {why}");
                failed = true;
            }
            match (digests.get(i), reference.get(i)) {
                (Some(d), Some(r)) if d == r => {}
                (d, r) => {
                    eprintln!("FAILED {dataset:?}: Selected digest {d:x?}, reference {r:x?}");
                    failed = true;
                }
            }
            self.failed += u64::from(failed);
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `ns` values, in milliseconds.
fn percentile_ms(ns: &[u64], p: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    let mut v = ns.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank - 1] as f64 / 1e6
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let stray = host::stray_knobs();
    if !stray.is_empty() {
        eprintln!(
            "error: refusing to run with {} set: the library crates read these knobs, so they would change what is measured",
            stray.join(", ")
        );
        return ExitCode::from(2);
    }
    let scratch = Path::new(OUT_DIR).join(format!(
        "tmp-{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let result = match TempDir::fresh(scratch) {
        Ok(scratch) => run(&args, scratch.path()),
        Err(e) => Err(format!("cannot create the scratch directory: {e}")),
    };
    match result {
        Ok((tally, metrics)) => {
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                tally.failed == 0,
                tally.attempted,
                tally.failed,
                metrics.to_json()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn settings_json(args: &Args) -> String {
    let checkpoint = if args.workload.durable() {
        printed_axc::checkpoint_every().to_string()
    } else {
        "\"off: no cache dir\"".into()
    };
    format!(
        "{{\"workload\": {}, \"budget\": {}, \"datasets\": {}, \"threads\": {THREADS}, \"seed\": {}, \"kernel\": {}, \"checkpoint_every\": {checkpoint}, \"seconds\": {}, \"trace\": {}}}",
        json_str(args.workload.name()),
        json_str(&format!("{:?}", args.workload.budget()).to_lowercase()),
        args.workload.datasets().len(),
        args.seed,
        json_str(pe_mlp::columnar::kernel_mode().name()),
        args.seconds,
        args.trace
    )
}

fn run(args: &Args, scratch: &Path) -> Result<(Tally, Metrics), String> {
    // The settings and the host identify every result. Taken before any
    // timing: the fingerprint spawns rustc and git.
    let header = format!(
        "\"settings\": {}, \"host\": {}",
        settings_json(args),
        host::fingerprint_json()
    );
    println!("{{{header}}}");
    if args.trace {
        run_traced(args, scratch, &header)
    } else {
        run_untraced(args, scratch)
    }
}

fn digests(selected: &[Selected]) -> Vec<u64> {
    selected.iter().map(digest).collect()
}

/// End-to-end metrics: repeat the untraced workload for `--seconds`.
fn run_untraced(args: &Args, scratch: &Path) -> Result<(Tally, Metrics), String> {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut reference: Option<Vec<u64>> = None;
    let mut qualities = Vec::new();
    while walls.is_empty() || start.elapsed() < budget {
        // Set-ups are sampled before every repeat, so their median spans
        // the same stretch of the run as the wall clock's.
        let mut inputs = Vec::new();
        for _ in 0..SETUPS_PER_REPEAT {
            let (elapsed, prepared) = set_up(w, args.seed, scratch)?;
            setups.push(elapsed.as_secs_f64());
            inputs = prepared;
        }
        let mut repeat = run_repeat(w, args.seed, None, scratch)?;
        for (selected, input) in repeat.selected.iter().zip(&inputs) {
            if selected.searched.costed.float.prepared != *input {
                repeat
                    .failures
                    .push((input.dataset, "study ran on other inputs".into()));
            }
        }
        let reference = reference.get_or_insert_with(|| digests(&repeat.selected));
        tally.count(w, &repeat, reference);
        if walls.is_empty() {
            qualities = repeat.selected.iter().filter_map(study_quality).collect();
            let none: Vec<String> = repeat
                .selected
                .iter()
                .filter(|s| s.selected.is_none())
                .map(|s| format!("{:?}", s.searched.costed.float.prepared.dataset))
                .collect();
            if !none.is_empty() {
                println!("no design within the loss budget: {}", none.join(", "));
            }
        }
        walls.push(repeat.wall_s);
    }
    println!(
        "repeats: {} wall_s {:?}",
        walls.len(),
        walls
            .iter()
            .map(|w| (w * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );

    let mut m = Metrics::default();
    m.put("wall_s", median(&walls), "s");
    m.put("setup_s", median(&setups), "s");
    m.put("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0), "MB");
    if qualities.is_empty() {
        return Err("no study produced a design".into());
    }
    let pick = |f: fn(&quality::StudyQuality) -> f64| qualities.iter().map(f).collect::<Vec<_>>();
    m.put("area_reduction_x", geomean(&pick(|q| q.area_x)), "x");
    m.put("power_reduction_x", geomean(&pick(|q| q.power_x)), "x");
    m.put("acc_loss_pp", mean(&pick(|q| q.acc_loss_pp)), "pp");
    m.put("front_hv", mean(&pick(|q| q.front_hv)), "1");
    Ok((tally, m))
}

/// Per-layer metrics: one untraced and one traced repeat, then the
/// tail replays on the traced repeat's artifacts.
fn run_traced(args: &Args, scratch: &Path, header: &str) -> Result<(Tally, Metrics), String> {
    let w = args.workload;
    let mut tally = Tally::default();
    let untraced = run_repeat(w, args.seed, None, scratch)?;
    let reference = digests(&untraced.selected);
    tally.count(w, &untraced, &reference);

    let recorder = Arc::new(Recorder::new());
    let mut traced = run_repeat(w, args.seed, Some(&recorder), scratch)?;
    let mut ledger = attribute(&recorder.take());
    let cold_wall_s = traced.wall_s - traced.durable.map_or(0.0, |d| d.reload_s);
    // The study spans' children: stage spans and the stage-cache gaps.
    let staged_s = secs(
        ledger
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| ledger.spans[p].name == "study"))
            .map(Span::ns)
            .sum(),
    );

    let config = w.config();
    let mut replays = Vec::new();
    for (selected, &dataset) in traced.selected.iter().zip(w.datasets()) {
        let mut at = recorder.now_ns();
        match replay_tail(selected, &config) {
            Ok(r) => {
                // The three phases ran back to back on the recorder's clock.
                for (name, s) in [
                    ("replay.polish", r.polish_s),
                    ("replay.front_test_acc", r.test_acc_s),
                    ("replay.front_recost", r.recost_s),
                ] {
                    let end = at + (s * 1e9) as u64;
                    ledger.spans.push(Span {
                        name,
                        start_ns: at,
                        end_ns: end,
                        parent: None,
                        dataset,
                    });
                    at = end;
                }
                replays.push(r);
            }
            Err(e) => traced.failures.push((dataset, e)),
        }
    }
    tally.count(w, &traced, &reference);

    println!(
        "trace: stage and stage-cache spans cover {staged_s:.3} s of {cold_wall_s:.3} s traced wall clock"
    );
    let m = layer_metrics(&ledger, &traced, &untraced, &replays);
    write_spans(args, header, &ledger, cold_wall_s - staged_s)?;
    Ok((tally, m))
}

fn layer_metrics(
    ledger: &Ledger,
    traced: &Repeat,
    untraced: &Repeat,
    replays: &[TailReplay],
) -> Metrics {
    let mut m = Metrics::default();
    for (metric, span) in [
        ("pipeline.prepare_s", "pipeline.prepare"),
        ("pipeline.float_train_s", "pipeline.float_train"),
        ("pipeline.baseline_cost_s", "pipeline.baseline_cost"),
        ("pipeline.search_s", "pipeline.search"),
        ("pipeline.select_s", "pipeline.select"),
    ] {
        m.put(metric, secs(ledger.total_ns(span)), "s");
    }
    for dataset in Dataset::ALL {
        let ns = ledger.study_ns(dataset).unwrap_or(0);
        m.put(format!("pipeline.study_s.{dataset:?}"), secs(ns), "s");
    }

    let epochs = ledger.sgd_epoch_ns.len() as u64;
    let rows: u64 = traced
        .selected
        .iter()
        .map(|s| {
            let prepared = &s.searched.costed.float.prepared;
            let epochs = ledger
                .sgd_epochs
                .get(&prepared.dataset)
                .copied()
                .unwrap_or(0);
            epochs * prepared.float_train.len() as u64
        })
        .sum();
    let sgd_ns: u64 = ledger.sgd_epoch_ns.iter().sum();
    m.put("sgd.epochs", epochs as f64, "count");
    m.put(
        "sgd.epoch_ms_p50",
        percentile_ms(&ledger.sgd_epoch_ns, 50.0),
        "ms",
    );
    m.put(
        "sgd.epoch_ms_p99",
        percentile_ms(&ledger.sgd_epoch_ns, 99.0),
        "ms",
    );
    m.put("sgd.rows_per_s", ratio(rows, sgd_ns) * 1e9, "1/s");

    m.put("search.seed_s", secs(ledger.total_ns("search.seed")), "s");
    let ga_ns = ledger.total_ns("ga");
    let c = &ledger.cache;
    m.put("ga.s", secs(ga_ns), "s");
    m.put("ga.evals", ledger.ga_evals as f64, "count");
    m.put("ga.evals_per_s", ratio(ledger.ga_evals, ga_ns) * 1e9, "1/s");
    m.put("ga.gen_ms_p50", percentile_ms(&ledger.gen_ns, 50.0), "ms");
    m.put("ga.gen_ms_p99", percentile_ms(&ledger.gen_ns, 99.0), "ms");
    m.put(
        "ga.memo_hit_ratio",
        ratio(c.hits, c.hits + c.misses),
        "ratio",
    );
    m.put(
        "ga.column_hit_ratio",
        ratio(c.column_hits, c.column_hits + c.column_misses),
        "ratio",
    );
    m.put(
        "ga.cost_memo_hit_ratio",
        ratio(c.cost_hits, c.cost_hits + c.cost_misses),
        "ratio",
    );

    m.put("search.tail_s", secs(ledger.total_ns("search.tail")), "s");
    m.put("polish.s", replays.iter().map(|r| r.polish_s).sum(), "s");
    m.put(
        "front.test_acc_s",
        replays.iter().map(|r| r.test_acc_s).sum(),
        "s",
    );
    m.put(
        "front.recost_s",
        replays.iter().map(|r| r.recost_s).sum(),
        "s",
    );

    let durable = traced.durable;
    m.put("store.ingested", c.store_ingested as f64, "count");
    m.put(
        "store.dedup_ratio",
        ratio(
            c.store_deduplicated,
            c.store_ingested + c.store_deduplicated,
        ),
        "ratio",
    );
    m.put(
        "store.mb",
        durable.map_or(0.0, |d| d.store_bytes as f64 / 1e6),
        "MB",
    );
    m.put("cache.load_s", durable.map_or(0.0, |d| d.reload_s), "s");
    m.put(
        "cache.mb",
        durable.map_or(0.0, |d| d.cache_bytes as f64 / 1e6),
        "MB",
    );

    m.put("trace.overhead_s", traced.wall_s - untraced.wall_s, "s");
    m
}

/// Write the traced run's spans (name, start, end, parent, dataset),
/// each span name's self time, and the traced wall clock no stage or
/// stage-cache span covers.
fn write_spans(args: &Args, header: &str, ledger: &Ledger, uncovered_s: f64) -> Result<(), String> {
    let spans: Vec<String> = ledger
        .spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"dataset\": {}}}",
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".into(), |p| p.to_string()),
                json_str(&format!("{:?}", s.dataset))
            )
        })
        .collect();
    let self_s: Vec<String> = ledger
        .self_ns()
        .iter()
        .map(|(name, ns)| format!("{}: {}", json_str(name), secs(*ns)))
        .collect();
    let json = format!(
        "{{{header}, \"uncovered_s\": {uncovered_s}, \"self_s\": {{{}}}, \"spans\": [\n{}\n]}}\n",
        self_s.join(", "),
        spans.join(",\n")
    );
    let path: PathBuf =
        Path::new(OUT_DIR).join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("spans: {}", path.display());
    Ok(())
}
