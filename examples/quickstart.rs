//! Quick start: load a MATLAB function, call it in every execution mode,
//! and look at the compiled-code repository.
//!
//! Run with `cargo run --release --example quickstart`.

use majic::{ExecMode, Session, Value};
use std::time::Instant;

const POLY: &str = "function p = poly(x)\np = x.^5 + 3*x + 2;\n";

const SUMSQ: &str = "function s = sumsq(n)\ns = 0;\nfor k = 1:n\n s = s + k * k;\nend\n";

fn main() {
    // A JIT session: functions compile on first call, specialized to the
    // invocation's exact type signature.
    let mut session = Session::with_mode(ExecMode::Jit);
    session.load_source(POLY).expect("valid source");
    session.load_source(SUMSQ).expect("valid source");

    let out = session
        .call("poly", &[Value::scalar(3.0)], 1)
        .expect("poly(3)");
    println!("poly(3) = {}", out[0]);

    // Call again with a different intrinsic type: the repository
    // compiles a second version rather than reusing the integer one.
    let out = session
        .call("poly", &[Value::scalar(2.5)], 1)
        .expect("poly(2.5)");
    println!("poly(2.5) = {}", out[0]);
    println!(
        "repository now holds {} versions of poly",
        session
            .repository()
            .version_count_ns("poly", session.namespace("poly"))
    );

    // Compare the interpreter against the JIT on a scalar loop.
    let n = Value::scalar(300_000.0);
    let mut interp = Session::with_mode(ExecMode::Interpret);
    interp.load_source(SUMSQ).expect("valid source");
    let t = Instant::now();
    let a = interp
        .call("sumsq", std::slice::from_ref(&n), 1)
        .expect("interpreted");
    let t_interp = t.elapsed();

    let t = Instant::now();
    let b = session.call("sumsq", &[n], 1).expect("compiled");
    let t_jit = t.elapsed();
    assert_eq!(a[0], b[0]);

    println!(
        "sumsq(300000): interpreter {:?}, JIT {:?} (compile time included) — speedup {:.1}x",
        t_interp,
        t_jit,
        t_interp.as_secs_f64() / t_jit.as_secs_f64()
    );

    // The REPL face of the same engine.
    session.eval("y = poly(4);").expect("eval");
    println!("eval: y = {}", session.var("y").expect("bound"));
}
