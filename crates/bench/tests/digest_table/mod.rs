//! The mismatch report shared by the pinned digest tables
//! (`compile_determinism` and `symbol_table_golden`).

use std::collections::HashMap;
use std::fmt::Write as _;

/// Panic with `what` (say, "symbol tables differ") unless `got` equals
/// `expected`, row for row. The message first lists the rows that
/// moved, `label: expected → computed` (`none` for a row that one side
/// lacks), then the whole computed table in the format of the recorded
/// one, ready to paste.
pub fn assert_matches(what: &str, got: &[(String, u64)], expected: &[(&str, u64)]) {
    let got: Vec<(&str, u64)> = got.iter().map(|(l, d)| (l.as_str(), *d)).collect();
    if got == expected {
        return;
    }
    let computed: HashMap<&str, u64> = got.iter().copied().collect();
    let recorded: HashMap<&str, u64> = expected.iter().copied().collect();
    let hex = |d: Option<&u64>| d.map_or("none".to_owned(), |d| format!("0x{d:016x}"));
    let changed = expected
        .iter()
        .filter(|(label, digest)| computed.get(label) != Some(digest))
        .map(|(label, digest)| {
            format!(
                "    {label}: {} → {}",
                hex(Some(digest)),
                hex(computed.get(label))
            )
        });
    let added = got
        .iter()
        .filter(|(label, _)| !recorded.contains_key(label))
        .map(|(label, digest)| format!("    {label}: none → {}", hex(Some(digest))));
    let moved: Vec<String> = changed.chain(added).collect();
    let mut table = String::new();
    for (label, digest) in &got {
        writeln!(table, "    (\"{label}\", 0x{digest:016x}),").unwrap();
    }
    panic!(
        "{what} from the baseline; {} rows moved:\n{}\ncomputed table:\n{table}",
        moved.len(),
        moved.join("\n")
    );
}
