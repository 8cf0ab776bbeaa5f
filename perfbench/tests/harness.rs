//! The benchmark's own tests: seeded op sequences, the statistics
//! helpers, `BENCHMARK.json` against the harness, and every workload
//! through the full harness at a tiny size.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use majic_perfbench::stats::{geomean, percentile};
use majic_perfbench::{run, Config, Kind, OpStream, Report, Workload, END_TO_END, PER_LAYER};
use majic_testkit::json::Json;

fn ops(workload: Workload, seed: u64, lane: usize) -> Vec<majic_perfbench::Op> {
    let mut s = OpStream::new(workload, 16, seed, lane);
    (0..4).flat_map(|_| s.round()).collect()
}

#[test]
fn one_seed_yields_one_op_sequence() {
    for w in Workload::ALL {
        assert_eq!(ops(w, 42, 0), ops(w, 42, 0), "{}", w.name());
        assert_ne!(ops(w, 42, 0), ops(w, 43, 0), "{}", w.name());
    }
    assert_ne!(
        ops(Workload::SharedSessions, 42, 0),
        ops(Workload::SharedSessions, 42, 1),
        "the two shared lanes interleave differently"
    );
}

#[test]
fn every_round_gives_every_program_the_same_share() {
    let mut s = OpStream::new(Workload::SharedSessions, 16, 9, 0);
    let round = s.round();
    for p in 0..16 {
        let opens = round
            .iter()
            .filter(|o| o.program == p && o.kind == Kind::Open)
            .count();
        let edits = round
            .iter()
            .filter(|o| o.program == p && o.kind == Kind::Edit)
            .count();
        assert_eq!((opens, edits), (3, 1), "program {p}");
    }
    let mut s = OpStream::new(Workload::ColdStart, 16, 9, 0);
    let mut programs: Vec<usize> = s.round().iter().map(|o| o.program).collect();
    programs.sort_unstable();
    assert_eq!(programs, (0..16).collect::<Vec<_>>());
}

#[test]
fn percentile_matches_hand_worked_values() {
    let v = [15.0, 20.0, 35.0, 40.0, 50.0];
    assert_eq!(percentile(&v, 0.0), Some(15.0));
    assert_eq!(percentile(&v, 50.0), Some(35.0));
    assert_eq!(percentile(&v, 100.0), Some(50.0));
    // p90: rank 0.9 × 4 = 3.6, so 40 + 0.6 × (50 − 40) = 46.
    assert!((percentile(&v, 90.0).unwrap() - 46.0).abs() < 1e-12);
    // Order of the input does not matter; p25 is rank 1 exactly.
    assert_eq!(
        percentile(&[50.0, 15.0, 40.0, 20.0, 35.0], 25.0),
        Some(20.0)
    );
    // p50 of an even count interpolates the middle pair.
    assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), Some(2.5));
    assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn geomean_matches_hand_worked_values() {
    assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
    assert!((geomean(&[1.0, 10.0, 100.0]).unwrap() - 10.0).abs() < 1e-9);
    assert!((geomean(&[5.0]).unwrap() - 5.0).abs() < 1e-12);
    assert_eq!(geomean(&[]), None);
    assert_eq!(geomean(&[1.0, 0.0]), None);
}

/// `BENCHMARK.json` names exactly what the harness reports.
#[test]
fn benchmark_json_matches_the_harness() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_owned()
                };
                (
                    field("name"),
                    field(if key == "workloads" { "name" } else { "unit" }),
                )
            })
            .collect()
    };
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(
        workloads,
        Workload::ALL.map(|w| w.name().to_owned()).to_vec()
    );
    let expect = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    };
    assert_eq!(names("end_to_end"), expect(&END_TO_END));
    assert_eq!(names("per_layer"), expect(&PER_LAYER));
}

fn tiny(workload: Workload, trace: bool) -> Config {
    let mut cfg = Config::new(workload, 7, 0.05, trace);
    cfg.scale = Some(0.02);
    cfg
}

fn runnable(w: Workload) -> bool {
    w.threads() <= std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn clean(w: Workload, trace: bool) -> Report {
    let report = run(&tiny(w, trace)).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name()));
    assert!(report.tally.attempted > 0, "{}", w.name());
    assert_eq!(
        report.tally.failed,
        0,
        "{}: {:?}",
        w.name(),
        report.tally.failures
    );
    let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let got: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(got, expected.to_vec(), "{}", w.name());
    assert!(
        report.metrics.iter().all(|m| m.value.is_finite()),
        "{}",
        w.name()
    );
    report
}

#[test]
fn every_workload_runs_clean_at_tiny_size() {
    for w in Workload::ALL.into_iter().filter(|&w| runnable(w)) {
        let report = clean(w, false);
        assert!(
            report.metrics.iter().all(|m| m.value > 0.0),
            "{}: an end-to-end metric read 0: {:?}",
            w.name(),
            report.metrics
        );
        clean(w, true);
    }
}

/// The count metrics of the traced replay repeat exactly across two
/// traced runs of one seed (each run also checks this internally across
/// its own two passes).
#[test]
fn traced_counts_repeat_across_runs() {
    const COUNTS: [&str; 9] = [
        "ast.nodes",
        "codegen.insts",
        "ir.insts_removed",
        "vm.spills",
        "vm.steps",
        "vm.user_calls",
        "vm.backedges",
        "repo.versions_compiled",
        "repo.lookups",
    ];
    for w in Workload::ALL.into_iter().filter(|&w| runnable(w)) {
        let counts = |r: Report| -> Vec<(&str, f64)> {
            r.metrics
                .into_iter()
                .filter(|m| COUNTS.contains(&m.name))
                .map(|m| (m.name, m.value))
                .collect()
        };
        let a = counts(clean(w, true));
        let b = counts(clean(w, true));
        assert_eq!(a.len(), COUNTS.len());
        assert_eq!(a, b, "{}", w.name());
    }
}
