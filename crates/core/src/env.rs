//! The `MAJIC_*` environment variables and where each is parsed.
//!
//! Each variable has one parser with one grammar, owned by the
//! subsystem that acts on it. The kernel pool and the allocation guard
//! read theirs lazily, once per process; tracing and auditing read
//! theirs in [`majic_trace::init_from_env`]; `MAJIC_TIER` is read each
//! time [`crate::CompilerService::new`] builds a service.
//!
//! | Variable         | Meaning                                   | Parser                                  |
//! |------------------|-------------------------------------------|-----------------------------------------|
//! | `MAJIC_THREADS`  | data-parallel kernel threads              | [`majic_runtime::par::parse_threads`]   |
//! | `MAJIC_MAX_NUMEL`| allocation guard (elements per matrix)    | [`majic_runtime::parse_numel_limit`]    |
//! | `MAJIC_TRACE`    | tracing mode (`report`/`chrome:…`/…)      | [`majic_trace::TraceMode::parse`]       |
//! | `MAJIC_EXPLAIN`  | audit/explain mode (`report`/`json:…`)    | [`majic_trace::ExplainMode::parse`]     |
//! | `MAJIC_TIER`     | tier promotion (`off`/`on`/threshold)     | [`tier_options_from_env`]               |
//!
//! Misconfiguration never breaks a session: every parser falls back to
//! its default on garbage, and each unrecognized value is warned about
//! at most once per process.

use crate::engine::TierOptions;
use std::sync::atomic::{AtomicBool, Ordering};

/// Apply a `MAJIC_TIER` environment value on top of `base`:
/// `off`/`0`/`false`/`no` disables promotion, `on`/`true`/`yes`
/// enables it, and a positive integer enables it with that hotness
/// threshold. Unparseable values warn once per process and leave
/// `base` unchanged (misconfiguration must never break a session).
pub fn tier_options_from_env(value: Option<&str>, base: TierOptions) -> TierOptions {
    let Some(v) = value else { return base };
    match v.trim().to_ascii_lowercase().as_str() {
        "" => base,
        "off" | "0" | "false" | "no" => TierOptions {
            enabled: false,
            ..base
        },
        "on" | "true" | "yes" => TierOptions {
            enabled: true,
            ..base
        },
        s => match s.parse::<u64>() {
            Ok(n) => TierOptions {
                enabled: true,
                threshold: n,
                ..base
            },
            Err(_) => {
                static WARNED: AtomicBool = AtomicBool::new(false);
                if !WARNED.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "majic: unrecognized MAJIC_TIER value {v:?} \
                         (want off/on or a threshold integer); ignoring"
                    );
                }
                base
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `MAJIC_TIER` parse matrix. Pure parser tests — no
    /// environment mutation, so they are safe under the parallel test
    /// runner.
    #[test]
    fn majic_env_parse_matrix() {
        let base = TierOptions::default();
        assert_eq!(tier_options_from_env(None, base), base);
        assert_eq!(tier_options_from_env(Some(""), base), base);
        assert_eq!(tier_options_from_env(Some("  "), base), base);
        assert!(!tier_options_from_env(Some("off"), base).enabled);
        assert!(!tier_options_from_env(Some("0"), base).enabled);
        assert!(!tier_options_from_env(Some("FALSE"), base).enabled);
        let off = TierOptions {
            enabled: false,
            ..base
        };
        assert!(tier_options_from_env(Some("on"), off).enabled);
        let tuned = tier_options_from_env(Some("500"), base);
        assert!(tuned.enabled);
        assert_eq!(tuned.threshold, 500);
        assert_eq!(tuned.workers, base.workers);
        // Misconfiguration must never break a session.
        assert_eq!(tier_options_from_env(Some("garbage"), base), base);
        assert_eq!(tier_options_from_env(Some("-3"), base), base);
    }
}
