//! Property tests for the copy-on-write value representation.
//!
//! The runtime's matrices share their buffers (`x = y` is O(1)) and
//! every mutation site is uniqueness-aware: a uniquely-owned buffer is
//! written in place, a shared one is snapshotted first. These tests pin
//! the three invariants that make that safe and fast:
//!
//! 1. **Snapshot isolation** — after `x = y; y(i) = c`, `x` is
//!    bitwise-unchanged, in every execution mode.
//! 2. **Copy elision** — a uniquely-owned buffer is never copied on a
//!    store (asserted through the `runtime.matrix.deep_copy` counter).
//! 3. **Shared growth safety** — growing a shared, oversized buffer
//!    within its allocation neither re-layouts nor copies; the alias
//!    keeps observing its original extent and contents.
//!
//! The deep-copy counter is process-global, so every test here takes
//! one lock: a concurrently-running test mutating a shared matrix would
//! otherwise bleed into a delta measurement.

use majic::diff::{run_case, value_bits_eq, DiffCase};
use majic::{ExecMode, Session};
use majic_runtime::ops::{self, Subscript};
use majic_runtime::{Matrix, Value};
use std::sync::{Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn deep_copies() -> u64 {
    majic_trace::counter("runtime.matrix.deep_copy").get()
}

#[test]
fn alias_snapshot_isolation_in_every_mode() {
    let _g = serial();
    // NaN and -0.0 in the argument make "bitwise-unchanged" a real
    // claim, not just value equality.
    let arg = Value::Real(Matrix::from_vec(1, 3, vec![1.5, f64::NAN, -0.0]));
    let case = DiffCase {
        source: "function r = f(a)\nx = a;\ny = x;\ny(2) = 99;\nr = x;\n".to_owned(),
        entry: "f".to_owned(),
        args: vec![arg.clone()],
        nargout: 1,
    };
    let report = run_case(&case);
    assert!(report.is_clean(), "{:?}", report.divergences);
    for outcome in &report.outcomes {
        let out = &outcome.result.as_ref().expect("runs cleanly")[0];
        assert!(
            value_bits_eq(out, &arg),
            "{}: mutating the alias leaked into x: {out:?}",
            outcome.label
        );
    }
}

#[test]
fn unique_buffer_is_never_copied_on_store() {
    let _g = serial();
    let before = deep_copies();
    let mut m: Matrix<f64> = Matrix::zeros(32, 32);
    let p = m.data_ptr();
    for k in 0..m.numel() {
        m.set_linear(k, k as f64);
    }
    // The same holds one level up, through the Value store entry point
    // the interpreter and VM use.
    let mut v = Value::Real(m);
    ops::index_set(
        &mut v,
        &[Subscript::Index(Value::scalar(7.0))],
        &Value::scalar(-1.0),
        false,
    )
    .expect("in-bounds store");
    assert_eq!(
        deep_copies() - before,
        0,
        "a uniquely-owned buffer must never be copied on store"
    );
    let Value::Real(m) = v else { unreachable!() };
    assert_eq!(m.data_ptr(), p, "the allocation never moved");
}

#[test]
fn shared_buffer_store_takes_exactly_one_snapshot() {
    let _g = serial();
    let x = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
    let mut y = x.clone();
    let before = deep_copies();
    y.set_linear(1, 99.0);
    assert_eq!(deep_copies() - before, 1, "first store snapshots once");
    assert_eq!(x.to_contiguous(), vec![1.0, 2.0, 3.0, 4.0]);
    // y is uniquely owned now: further stores are free.
    y.set_linear(2, 98.0);
    y.set_linear(3, 97.0);
    assert_eq!(deep_copies() - before, 1, "later stores write in place");
}

#[test]
fn shared_oversized_growth_never_reallocates_in_place() {
    let _g = serial();
    // Oversize a vector so the allocation has slack, then alias it.
    let mut x: Matrix<f64> = Matrix::zeros(10, 1);
    x.grow(11, 1, true);
    assert!(x.has_slack());
    let y = x.clone();
    let p = x.data_ptr();
    let before = deep_copies();
    // Growth within the allocation only bumps x's logical extent: no
    // re-layout, no copy, and the shared buffer is never written.
    x.grow(12, 1, true);
    assert_eq!(deep_copies() - before, 0);
    assert_eq!(x.data_ptr(), p);
    assert!(x.shares_buffer_with(&y));
    assert_eq!((y.rows(), y.cols()), (11, 1));
    // The first store into the grown region snapshots x; y keeps the
    // original allocation and its all-zero contents.
    x.set(11, 0, 5.0);
    assert_eq!(deep_copies() - before, 1);
    assert!(!x.shares_buffer_with(&y));
    assert_eq!(y.data_ptr(), p);
    assert!(y.iter().all(|&v| v == 0.0));
}

/// The acceptance claim behind `figure_copyelision`: a compiled (and an
/// interpreted) element-update loop over a uniquely-owned array records
/// zero deep copies end to end.
#[test]
fn engine_update_loop_records_zero_deep_copies() {
    let _g = serial();
    let source = "function r = f(n)\na = zeros(1, n);\nfor k = 1:n\na(k) = k;\nend\nr = sum(a);\n";
    for mode in [ExecMode::Interpret, ExecMode::Jit] {
        let mut session = Session::with_mode(mode);
        session.load_source(source).expect("parses");
        // Warm up first: compilation itself is not under test.
        session
            .call("f", &[Value::scalar(8.0)], 1)
            .expect("warm-up call");
        let before = deep_copies();
        let out = session
            .call("f", &[Value::scalar(512.0)], 1)
            .expect("update loop runs");
        assert_eq!(out[0], Value::scalar(512.0 * 513.0 / 2.0));
        assert_eq!(
            deep_copies() - before,
            0,
            "{mode:?}: the uniquely-owned update loop must not deep-copy"
        );
    }
}
