//! The paper's `orbec` workload as an API example: Euler–Cromer
//! integration of a one-body orbit, comparing interpreted and
//! speculatively compiled execution of the same MATLAB source.
//!
//! Run with `cargo run --release --example orbit`.

use majic::{ExecMode, Session, Value};
use std::time::Instant;

/// Small-fixed-vector style (the paper's "array benchmarks" category).
/// The `dt <= 0` guard is natural defensive MATLAB — and it is also what
/// lets the speculator guess `dt` is a real scalar (relational-operand
/// hint, §2.5). Without it, `dt` would be guessed complex and the
/// speculative code would be safe but slow: the paper's "more insidious
/// failure … perfectly safe to execute, but suboptimal".
const ORBIT: &str = "\
function e = orbit(nstep, dt)
if dt <= 0
  error('dt must be positive');
end
r = [1 0];
v = [0 2*pi];
gm = 4*pi*pi;
e = 0;
for k = 1:nstep
  d = sqrt(r(1)*r(1) + r(2)*r(2));
  a = -gm / (d*d*d);
  v(1) = v(1) + dt * a * r(1);
  v(2) = v(2) + dt * a * r(2);
  r(1) = r(1) + dt * v(1);
  r(2) = r(2) + dt * v(2);
end
e = 0.5*(v(1)*v(1) + v(2)*v(2)) - gm / sqrt(r(1)*r(1) + r(2)*r(2));
";

fn main() {
    let steps = Value::scalar(60_000.0);
    let dt = Value::scalar(0.0001);

    let mut interp = Session::with_mode(ExecMode::Interpret);
    interp.load_source(ORBIT).expect("valid source");
    let t = Instant::now();
    let e_i = interp
        .call("orbit", &[steps.clone(), dt.clone()], 1)
        .expect("interpreted");
    let t_interp = t.elapsed();

    // Speculative mode: the repository compiles ahead of time from type
    // hints (subscripts ⇒ real arrays, colon bounds ⇒ integer scalars);
    // by the time we call, optimized code is already waiting.
    let mut spec = Session::with_mode(ExecMode::Spec);
    spec.load_source(ORBIT).expect("valid source");
    let hidden = spec.speculate_all();
    let t = Instant::now();
    let e_s = spec.call("orbit", &[steps, dt], 1).expect("speculative");
    let t_spec = t.elapsed();

    println!("orbit energy (interpreted):  {}", e_i[0]);
    println!("orbit energy (speculative):  {}", e_s[0]);
    println!(
        "interpreter {t_interp:?}  vs  speculative {t_spec:?}  (plus {hidden:?} hidden ahead-of-time compile)"
    );
    println!(
        "speedup: {:.1}x",
        t_interp.as_secs_f64() / t_spec.as_secs_f64()
    );
}
