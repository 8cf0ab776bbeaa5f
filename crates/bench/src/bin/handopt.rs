//! The paper's §5 hand-optimization experiment: `finedif` with its
//! innermost loop hand-unrolled and common subexpressions eliminated ran
//! "almost 100% faster than the normal JIT-compiled finedif". We compare
//! the stock source under the JIT against (a) a hand-optimized MATLAB
//! source and (b) the optimizing backend (`falcon` mode), whose tier-1
//! passes are LICM then DCE; on the default SPARC platform that is DCE
//! alone, so pass `--platform mips` to let it hoist the invariants.

use majic::ExecMode;
use majic_bench::{by_name, harness, Benchmark, Category};

/// finedif with the inner loop unrolled ×2 and `2*(1-r2)` hoisted by
/// hand — the transformation the paper applied manually.
const FINEDIF_HAND: &str = "\
function U = finedif(n, m)
U = zeros(n, m);
h = 1 / (m - 1);
k = 1 / (n - 1);
r = 2 * k / h;
r2 = r * r / 4;
c0 = 2 * (1 - r2);
for j = 2:m-1
  x = (j - 1) * h;
  U(1, j) = sin(pi * x);
  U(2, j) = (1 - r2) * sin(pi * x);
end
for t = 2:n-1
  tm = t - 1;
  tp = t + 1;
  um = U(t, 1);
  uc = U(t, 2);
  j = 2;
  while j + 1 <= m - 1
    up = U(t, j+1);
    upp = U(t, j+2);
    U(tp, j) = c0 * uc + r2 * um + r2 * up - U(tm, j);
    U(tp, j+1) = c0 * up + r2 * uc + r2 * upp - U(tm, j+1);
    um = up;
    uc = upp;
    j = j + 2;
  end
  while j <= m - 1
    up = U(t, j+1);
    U(tp, j) = c0 * uc + r2 * um + r2 * up - U(tm, j);
    um = uc;
    uc = up;
    j = j + 1;
  end
end
";

fn main() {
    let _trace = harness::trace_from_env();
    let cfg = harness::config_from_args();
    let stock = by_name("finedif").expect("known benchmark");
    let hand = Benchmark {
        source: FINEDIF_HAND,
        ..stock.clone()
    };
    let t_stock = harness::measure(&stock, ExecMode::Jit, &cfg).runtime;
    let t_hand = harness::measure(&hand, ExecMode::Jit, &cfg).runtime;
    let t_opt = harness::measure(&stock, ExecMode::Falcon, &cfg).runtime;
    let _ = Category::Scalar;
    println!(
        "hand-optimization experiment (paper §5), scale {:.2}",
        cfg.scale
    );
    println!(
        "finedif JIT (stock source):        {:>10.2} ms",
        t_stock.as_secs_f64() * 1e3
    );
    println!(
        "finedif JIT (hand-unrolled + CSE): {:>10.2} ms  ({:.0}% faster)",
        t_hand.as_secs_f64() * 1e3,
        100.0 * (t_stock.as_secs_f64() / t_hand.as_secs_f64() - 1.0)
    );
    println!(
        "finedif optimizing backend:        {:>10.2} ms",
        t_opt.as_secs_f64() * 1e3
    );
}
