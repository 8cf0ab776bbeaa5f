//! The paper's `mandel` workload as an API example: a Mandelbrot set
//! rendered by MATLAB code running on the MaJIC JIT, printed as ASCII.
//!
//! Run with `cargo run --release --example mandelbrot`.

use majic::{ExecMode, Session, Value};

/// Complex-arithmetic Mandelbrot iteration in MATLAB (the `i` builtin is
/// exactly the speculation hazard §3.6 describes).
const MANDEL: &str = "\
function M = mandel(n, maxit)
M = zeros(n, n);
for r = 1:n
  for c = 1:n
    x0 = -2.1 + 2.6 * (c - 1) / (n - 1);
    y0 = -1.2 + 2.4 * (r - 1) / (n - 1);
    z = 0 + 0*i;
    z0 = x0 + y0*i;
    k = 0;
    while k < maxit & abs(z) < 2
      z = z*z + z0;
      k = k + 1;
    end
    M(r, c) = k;
  end
end
";

fn main() {
    let mut session = Session::with_mode(ExecMode::Jit);
    session.load_source(MANDEL).expect("valid source");

    let n = 36;
    let maxit = 40.0;
    let out = session
        .call(
            "mandel",
            &[Value::scalar(f64::from(n)), Value::scalar(maxit)],
            1,
        )
        .expect("mandel");
    let m = out[0].to_real_matrix().expect("real counts");

    let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    for r in 0..m.rows() {
        let mut line = String::with_capacity(2 * m.cols());
        for c in 0..m.cols() {
            let k = m.get(r, c);
            let shade = if k >= maxit {
                '@'
            } else {
                shades[(k as usize * (shades.len() - 1)) / maxit as usize]
            };
            line.push(shade);
            line.push(shade);
        }
        println!("{line}");
    }
    println!(
        "\ncompiled with JIT: inference {:?}, codegen {:?}, execution {:?}",
        session.times.inference, session.times.codegen, session.times.execution
    );
}
