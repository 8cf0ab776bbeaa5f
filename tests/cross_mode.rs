//! Differential testing: the compiled modes must agree with the
//! interpreter on randomly generated straight-line scalar programs and on
//! a set of adversarial snippets. This is the repository's safety claim
//! exercised in bulk — "a wrong guess … never affects program
//! correctness".

use majic::{ExecMode, Session, Value};
use majic_testkit::{forall, Rng};

fn run(mode: ExecMode, src: &str, func: &str, args: &[f64]) -> Result<f64, String> {
    let mut m = Session::with_mode(mode);
    m.load_source(src).map_err(|e| e.to_string())?;
    if mode == ExecMode::Spec {
        m.speculate_all();
    }
    let argv: Vec<Value> = args.iter().map(|&v| Value::scalar(v)).collect();
    let out = m.call(func, &argv, 1).map_err(|e| e.to_string())?;
    out[0].to_scalar().map_err(|e| e.to_string())
}

fn agree(src: &str, func: &str, args: &[f64]) {
    let reference = run(ExecMode::Interpret, src, func, args);
    for mode in [
        ExecMode::Mcc,
        ExecMode::Jit,
        ExecMode::Spec,
        ExecMode::Falcon,
    ] {
        let got = run(mode, src, func, args);
        match (&reference, &got) {
            (Ok(a), Ok(b)) => {
                let close = a == b
                    || (a - b).abs() <= 1e-9 * a.abs().max(1.0)
                    || (a.is_nan() && b.is_nan());
                assert!(close, "{mode:?}: {b} vs interpreter {a}\n{src}");
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!("{mode:?} disagreement: interp {a:?}, compiled {b:?}\n{src}"),
        }
    }
}

/// A tiny expression generator over two scalar parameters.
fn arb_expr(rng: &mut Rng, depth: u32) -> String {
    if depth == 0 {
        match rng.below(4) {
            0 => "x".to_owned(),
            1 => "y".to_owned(),
            2 => format!("{}", rng.range_i64(-5, 20)),
            _ => format!("{}.5", rng.range_u64(1, 5)),
        }
    } else {
        match rng.weighted(&[4, 1, 1, 1, 1, 1]) {
            0 => {
                let a = arb_expr(rng, depth - 1);
                let b = arb_expr(rng, depth - 1);
                let op = rng.choose(&["+", "-", "*", "/"]);
                format!("({a} {op} {b})")
            }
            1 => format!("(-{})", arb_expr(rng, depth - 1)),
            2 => format!("abs({})", arb_expr(rng, depth - 1)),
            3 => format!("floor({})", arb_expr(rng, depth - 1)),
            4 => format!("({})^2", arb_expr(rng, depth - 1)),
            _ => {
                let a = arb_expr(rng, depth - 1);
                let b = arb_expr(rng, depth - 1);
                format!("max({a}, {b})")
            }
        }
    }
}

#[test]
fn random_scalar_expressions_agree() {
    forall("cross_mode/random_scalar_expressions", 48, |rng| {
        let e = arb_expr(rng, 3);
        let x = rng.range_f64(-10.0, 10.0);
        let y = rng.range_f64(-10.0, 10.0);
        let src = format!("function r = probe(x, y)\nr = {e};\n");
        agree(&src, "probe", &[x, y]);
    });
}

#[test]
fn random_loops_agree() {
    forall("cross_mode/random_loops", 48, |rng| {
        let n = rng.range_u64(1, 20);
        let add = rng.range_i64(-3, 4);
        let thresh = rng.range_i64(0, 15);
        let src = format!(
            "function s = lp(n)\ns = 0;\nfor k = 1:n\n if k > {thresh}\n  s = s + k * {add};\n else\n  s = s - 1;\n end\nend\n"
        );
        agree(&src, "lp", &[n as f64]);
    });
}

#[test]
fn random_array_programs_agree() {
    forall("cross_mode/random_array_programs", 48, |rng| {
        let n = rng.range_u64(1, 15);
        let stride = rng.range_u64(1, 4);
        let src = format!(
            "function s = ap(n)\nv = zeros(1, n);\nfor k = 1:n\n v(k) = k * {stride};\nend\ns = sum(v) + v(1) + v(n);\n"
        );
        agree(&src, "ap", &[n as f64]);
    });
}

#[test]
fn division_by_zero_agrees() {
    agree("function r = dz(x, y)\nr = x / y;\n", "dz", &[1.0, 0.0]);
    agree("function r = dz(x, y)\nr = x / y;\n", "dz", &[0.0, 0.0]);
}

#[test]
fn negative_sqrt_agrees() {
    // Result is complex; compare |.| via abs.
    agree(
        "function r = ns(x, y)\nr = abs(sqrt(x) + y);\n",
        "ns",
        &[-4.0, 1.0],
    );
}

#[test]
fn empty_range_loops_agree() {
    agree(
        "function s = er(n)\ns = 0;\nfor k = 1:n\n s = s + 1;\nend\n",
        "er",
        &[0.0],
    );
    agree(
        "function s = er2(n)\ns = 5;\nfor k = 3:n\n s = s + k;\nend\n",
        "er2",
        &[2.0],
    );
}

#[test]
fn fractional_steps_agree() {
    agree(
        "function s = fs(n)\ns = 0;\nfor t = 0:0.1:n\n s = s + t;\nend\n",
        "fs",
        &[1.0],
    );
}

#[test]
fn descending_ranges_agree() {
    agree(
        "function s = dr(n)\ns = 0;\nfor k = n:-1:1\n s = s + k * k;\nend\n",
        "dr",
        &[7.0],
    );
}

#[test]
fn nested_breaks_agree() {
    agree(
        "function s = nb(n)\ns = 0;\nfor i = 1:n\n for j = 1:n\n  if j > i\n   break\n  end\n  s = s + 1;\n end\n if s > 40\n  break\n end\nend\n",
        "nb",
        &[10.0],
    );
}

#[test]
fn continue_agrees() {
    agree(
        "function s = ct(n)\ns = 0;\nfor k = 1:n\n if mod(k, 3) == 0\n  continue\n end\n s = s + k;\nend\n",
        "ct",
        &[20.0],
    );
}

#[test]
fn shadowed_builtin_agrees() {
    agree("function r = sh(x)\npi = x;\nr = pi * 2;\n", "sh", &[5.0]);
}

#[test]
fn ambiguous_symbol_agrees() {
    // Paper Figure 2 (left): `i` ambiguous between √−1 and a variable.
    agree(
        "function r = amb(n)\nk = 0;\nwhile k < n\n z = i;\n i = z + 1;\n k = k + 1;\nend\nr = abs(i) + abs(z);\n",
        "amb",
        &[3.0],
    );
}

#[test]
fn vector_growth_orientation_agrees() {
    agree(
        "function r = vg(n)\nv = [1 2];\nv(n) = 9;\n[rr, cc] = size(v);\nr = rr * 1000 + cc;\n",
        "vg",
        &[6.0],
    );
    agree(
        "function r = cg(n)\nv = [1; 2];\nv(n) = 9;\n[rr, cc] = size(v);\nr = rr * 1000 + cc;\n",
        "cg",
        &[6.0],
    );
}

#[test]
fn matrix_linear_growth_errors_agree() {
    agree(
        "function r = mg(n)\nA = [1 2; 3 4];\nA(n) = 7;\nr = A(n);\n",
        "mg",
        &[9.0], // error in both worlds
    );
    agree(
        "function r = mg2(n)\nA = [1 2; 3 4];\nA(n) = 7;\nr = A(n);\n",
        "mg2",
        &[3.0], // in-bounds linear write works in both worlds
    );
}

#[test]
fn two_d_growth_agrees() {
    agree(
        "function r = g2(n)\nB(2, n) = 5;\n[rr, cc] = size(B);\nr = rr * 100 + cc + B(2, n);\n",
        "g2",
        &[4.0],
    );
}

#[test]
fn logical_operators_agree() {
    for (x, y) in [(0.0, 0.0), (1.0, 0.0), (0.0, 2.0), (3.0, 4.0)] {
        agree(
            "function r = lg(x, y)\nr = (x & y) * 100 + (x | y) * 10 + (~x);\n",
            "lg",
            &[x, y],
        );
        agree(
            "function r = sc(x, y)\nif x > 0 && y > 0\n r = 1;\nelseif x > 0 || y > 0\n r = 2;\nelse\n r = 3;\nend\n",
            "sc",
            &[x, y],
        );
    }
}

#[test]
fn integer_overflowing_powers_agree() {
    agree("function r = pw(x, y)\nr = x ^ y;\n", "pw", &[2.0, 40.0]);
    agree("function r = pw2(x, y)\nr = x ^ y;\n", "pw2", &[-2.0, 3.0]);
}

#[test]
fn complex_prod_agrees_and_is_the_true_product() {
    // Regression: the runtime's complex reduction once hardcoded the
    // `sum` accumulator, so `prod` of a complex vector returned 1 + Σz
    // instead of Πz — in every execution mode, since they all share the
    // builtin library. (1 + 2i)·3i = -6 + 3i.
    let src = "function r = p()\nz = [1 + 2i, 3i];\nr = prod(z);\n";
    for mode in [
        ExecMode::Interpret,
        ExecMode::Mcc,
        ExecMode::Jit,
        ExecMode::Spec,
        ExecMode::Falcon,
    ] {
        let mut m = Session::with_mode(mode);
        m.load_source(src).unwrap();
        if mode == ExecMode::Spec {
            m.speculate_all();
        }
        let out = m.call("p", &[], 1).unwrap();
        match &out[0] {
            Value::Complex(z) => {
                assert!(z.is_scalar(), "{mode:?}: expected scalar, got {z:?}");
                let z = z.first();
                assert_eq!((z.re, z.im), (-6.0, 3.0), "{mode:?}");
            }
            other => panic!("{mode:?}: expected complex scalar, got {other:?}"),
        }
    }
}

#[test]
fn complex_sum_agrees_across_modes() {
    // The sibling of the prod regression: sum must keep its meaning
    // through the shared reduction helper. (1 + 2i) + 3i = 1 + 5i.
    let src = "function r = s()\nz = [1 + 2i, 3i];\nr = sum(z);\n";
    for mode in [
        ExecMode::Interpret,
        ExecMode::Mcc,
        ExecMode::Jit,
        ExecMode::Spec,
        ExecMode::Falcon,
    ] {
        let mut m = Session::with_mode(mode);
        m.load_source(src).unwrap();
        if mode == ExecMode::Spec {
            m.speculate_all();
        }
        let out = m.call("s", &[], 1).unwrap();
        match &out[0] {
            Value::Complex(z) => {
                let z = z.first();
                assert_eq!((z.re, z.im), (1.0, 5.0), "{mode:?}");
            }
            other => panic!("{mode:?}: expected complex scalar, got {other:?}"),
        }
    }
}
