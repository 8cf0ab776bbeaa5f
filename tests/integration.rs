//! End-to-end integration tests: MATLAB source through parsing,
//! disambiguation, inference, code generation, and VM execution, in
//! every engine mode.

use majic::{ExecMode, Session, Value};

const MODES: [ExecMode; 5] = [
    ExecMode::Interpret,
    ExecMode::Mcc,
    ExecMode::Jit,
    ExecMode::Spec,
    ExecMode::Falcon,
];

fn scalar(v: &Value) -> f64 {
    v.to_scalar().unwrap()
}

fn run_all_modes(src: &str, func: &str, args: &[f64], expect: f64) {
    for mode in MODES {
        let mut m = Session::with_mode(mode);
        m.load_source(src).unwrap();
        if mode == ExecMode::Spec {
            m.speculate_all();
        }
        let argv: Vec<Value> = args.iter().map(|&v| Value::scalar(v)).collect();
        let out = m
            .call(func, &argv, 1)
            .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        let got = scalar(&out[0]);
        assert!(
            (got - expect).abs() <= 1e-9 * expect.abs().max(1.0),
            "{mode:?}: {func}{args:?} = {got}, expected {expect}"
        );
    }
}

#[test]
fn poly_from_the_paper() {
    // Figure 3's running example.
    let src = "function p = poly(x)\np = x.^5 + 3*x + 2;\n";
    run_all_modes(src, "poly", &[3.0], 254.0);
    run_all_modes(src, "poly", &[2.5], 2.5f64.powi(5) + 3.0 * 2.5 + 2.0);
}

#[test]
fn scalar_loops() {
    let src = "function s = sumsq(n)\ns = 0;\nfor k = 1:n\n s = s + k*k;\nend\n";
    run_all_modes(src, "sumsq", &[100.0], 338350.0);
}

#[test]
fn while_loops_and_conditionals() {
    let src = "function c = collatz(n)\nc = 0;\nwhile n > 1\n if mod(n, 2) == 0\n  n = n / 2;\n else\n  n = 3*n + 1;\n end\n c = c + 1;\nend\n";
    run_all_modes(src, "collatz", &[27.0], 111.0);
}

#[test]
fn array_fill_and_sum() {
    let src = "function s = fillsum(n)\nA = zeros(1, n);\nfor k = 1:n\n A(k) = k * 2;\nend\ns = 0;\nfor k = 1:n\n s = s + A(k);\nend\n";
    run_all_modes(src, "fillsum", &[50.0], 2550.0);
}

#[test]
fn two_dimensional_arrays() {
    let src = "function s = grid2(n)\nA = zeros(n, n);\nfor i = 1:n\n for j = 1:n\n  A(i, j) = i * 10 + j;\n end\nend\ns = A(1, 1) + A(n, n) + A(2, 3);\n";
    run_all_modes(src, "grid2", &[5.0], 11.0 + 55.0 + 23.0);
}

#[test]
fn growing_arrays() {
    let src = "function n = grow(k)\nv(1) = 1;\nfor i = 2:k\n v(i) = v(i-1) + 1;\nend\nn = length(v) + v(k);\n";
    run_all_modes(src, "grow", &[30.0], 60.0);
}

#[test]
fn recursion() {
    let src = "function f = fib(n)\nif n < 2\n f = n;\n return\nend\nf = fib(n-1) + fib(n-2);\n";
    run_all_modes(src, "fib", &[15.0], 610.0);
}

#[test]
fn mutual_calls_and_inlining() {
    let src = "function y = outer(x)\ny = helper(x) + helper(x + 1);\nfunction z = helper(a)\nz = a * a;\n";
    run_all_modes(src, "outer", &[3.0], 9.0 + 16.0);
}

#[test]
fn multiple_outputs() {
    let src = "function [s, p] = sumprod(a, b)\ns = a + b;\np = a * b;\n";
    for mode in MODES {
        let mut m = Session::with_mode(mode);
        m.load_source(src).unwrap();
        let out = m
            .call("sumprod", &[Value::scalar(3.0), Value::scalar(4.0)], 2)
            .unwrap();
        assert_eq!(scalar(&out[0]), 7.0, "{mode:?}");
        assert_eq!(scalar(&out[1]), 12.0, "{mode:?}");
    }
}

#[test]
fn complex_arithmetic() {
    // |(1+2i)^2| = |(-3+4i)| = 5
    let src = "function m = cmag(a, b)\nz = a + b*i;\nw = z * z;\nm = abs(w);\n";
    run_all_modes(src, "cmag", &[1.0, 2.0], 5.0);
}

#[test]
fn builtin_vectors() {
    let src = "function s = vsum(n)\nv = 1:n;\ns = sum(v) + max(v) - min(v);\n";
    run_all_modes(src, "vsum", &[10.0], 55.0 + 10.0 - 1.0);
}

#[test]
fn matrix_algebra() {
    // Solve a small linear system: x = A\b with A = [4 3; 6 3].
    let src = "function y = solve2()\nA = [4 3; 6 3];\nb = [10; 12];\nx = A \\ b;\ny = x(1) * 100 + x(2);\n";
    run_all_modes(src, "solve2", &[], 102.0);
}

#[test]
fn matrix_vector_products() {
    let src = "function r = mv(n)\nA = eye(n) * 2;\nx = ones(n, 1);\ny = A * x;\nr = sum(y);\n";
    run_all_modes(src, "mv", &[6.0], 12.0);
}

#[test]
fn gemv_shaped_expression() {
    // a*x + b*(C*y): the dgemv fusion path.
    let src = "function r = axpy(n)\nC = eye(n);\ny = ones(n, 1);\nx = ones(n, 1);\nz = 2*x + 3*(C*y);\nr = sum(z);\n";
    run_all_modes(src, "axpy", &[4.0], 20.0);
}

#[test]
fn small_vector_unrolling_semantics() {
    let src = "function s = smallvec(k)\na = [1 2 3];\nb = [10 20 30];\nc = a + b * k;\ns = c(1) + c(2) + c(3);\n";
    run_all_modes(src, "smallvec", &[2.0], 21.0 + 42.0 + 63.0);
}

#[test]
fn transpose_and_slices() {
    let src = "function s = tsl(n)\nA = zeros(n, n);\nfor i = 1:n\n for j = 1:n\n  A(i, j) = i + j;\n end\nend\nB = A';\nrow = B(1, :);\ns = sum(row);\n";
    // B(1,:) = A(:,1)' = (1+1, 2+1, ..., n+1)
    run_all_modes(src, "tsl", &[5.0], (2..=6).sum::<i32>() as f64);
}

#[test]
fn end_subscripts() {
    let src = "function y = lastelem(n)\nv = 1:n;\ny = v(end) + v(end - 1);\n";
    run_all_modes(src, "lastelem", &[10.0], 19.0);
}

#[test]
fn strings_and_output() {
    for mode in MODES {
        let mut m = Session::with_mode(mode);
        m.load_source("function greet()\ndisp('hello world');\n")
            .unwrap();
        m.call("greet", &[], 0).unwrap();
        assert_eq!(m.take_printed(), "hello world\n", "{mode:?}");
    }
}

#[test]
fn runtime_errors_are_equivalent() {
    let src = "function y = oob(n)\nv = 1:5;\ny = v(n);\n";
    for mode in MODES {
        let mut m = Session::with_mode(mode);
        m.load_source(src).unwrap();
        // In-range works.
        let ok = m.call("oob", &[Value::scalar(3.0)], 1).unwrap();
        assert_eq!(scalar(&ok[0]), 3.0);
        // Out of range errors in every mode (the subscript check must
        // never be *incorrectly* removed).
        assert!(m.call("oob", &[Value::scalar(9.0)], 1).is_err(), "{mode:?}");
        assert!(m.call("oob", &[Value::scalar(0.0)], 1).is_err(), "{mode:?}");
    }
}

#[test]
fn globals_fall_back_to_interpreter() {
    let src = "function bump()\nglobal counter\ncounter = counter + 1;\n";
    let mut m = Session::with_mode(ExecMode::Jit);
    m.load_source(src).unwrap();
    m.eval("global counter\ncounter = 0;").unwrap();
    m.eval("bump();\nbump();").unwrap();
    assert_eq!(scalar(m.var("counter").unwrap()), 2.0);
}

#[test]
fn interpreter_fallback_follows_redefinitions() {
    // Whether a call interprets is decided per load: once `inner` reads
    // a global, `outer`'s closure cannot compile; once it is pure again,
    // `outer` compiles again.
    let outer = "function y = outer(x)\ny = inner(x) * 2;\n";
    let mut m = Session::with_mode(ExecMode::Jit);
    m.load_source(&format!("{outer}function y = inner(x)\ny = x + 1;\n"))
        .unwrap();
    let versions = |m: &Session| {
        m.repository()
            .version_count_ns("outer", m.namespace("outer"))
    };
    let call = |m: &mut Session| scalar(&m.call("outer", &[Value::scalar(3.0)], 1).unwrap()[0]);
    assert_eq!(call(&mut m), 8.0);
    assert_eq!(versions(&m), 1);

    m.load_source("function y = inner(x)\nglobal offset\ny = x + offset;\n")
        .unwrap();
    m.eval("global offset\noffset = 10;").unwrap();
    assert_eq!(call(&mut m), 26.0);
    assert_eq!(versions(&m), 0, "outer must run in the interpreter");

    m.load_source("function y = inner(x)\ny = x + 2;\n")
        .unwrap();
    assert_eq!(call(&mut m), 10.0);
    assert_eq!(versions(&m), 1, "outer must compile again");
}

#[test]
fn repository_reuses_compiled_code() {
    let mut m = Session::with_mode(ExecMode::Jit);
    m.load_source("function y = f(x)\ny = x + 1;\n").unwrap();
    m.call("f", &[Value::scalar(1.0)], 1).unwrap();
    let after_first = m.repository().version_count_ns("f", m.namespace("f"));
    // Same signature: the locator must hit.
    m.call("f", &[Value::scalar(1.0)], 1).unwrap();
    assert_eq!(
        m.repository().version_count_ns("f", m.namespace("f")),
        after_first
    );
    assert!(m.repository().stats().hits >= 1);
}

#[test]
fn repository_specializes_per_signature() {
    let mut m = Session::with_mode(ExecMode::Jit);
    m.load_source("function y = g(x)\ny = x * 2;\n").unwrap();
    m.call("g", &[Value::scalar(1.0)], 1).unwrap();
    // Different intrinsic: a complex argument needs new code.
    let z = Value::complex_scalar(majic_runtime::Complex::new(1.0, 1.0));
    let out = m.call("g", &[z], 1).unwrap();
    match &out[0] {
        Value::Complex(c) => {
            assert_eq!(c.first().re, 2.0);
            assert_eq!(c.first().im, 2.0);
        }
        other => panic!("expected complex, got {other:?}"),
    }
    assert!(m.repository().version_count_ns("g", m.namespace("g")) >= 2);
}

#[test]
fn signature_widening_caps_recursive_explosion() {
    let src = "function f = fib(n)\nif n < 2\n f = n;\n return\nend\nf = fib(n-1) + fib(n-2);\n";
    let mut m = Session::with_mode(ExecMode::Jit);
    m.options.inline = false; // force one call per recursion level
    m.load_source(src).unwrap();
    m.call("fib", &[Value::scalar(18.0)], 1).unwrap();
    assert!(
        m.repository().version_count_ns("fib", m.namespace("fib")) <= 4,
        "widening must cap versions, got {}",
        m.repository().version_count_ns("fib", m.namespace("fib"))
    );
}

#[test]
fn spec_mode_falls_back_to_jit_on_bad_guess() {
    // The speculator guesses `n` integer scalar (colon hint). Calling
    // with a *matrix* defeats the guess; the JIT must kick in and the
    // result must still be right (guess failures cost time, never
    // correctness).
    let src = "function s = total(n)\ns = 0;\nfor k = 1:n\n s = s + k;\nend\n";
    let mut m = Session::with_mode(ExecMode::Spec);
    m.load_source(src).unwrap();
    m.speculate_all();
    assert_eq!(
        m.repository()
            .version_count_ns("total", m.namespace("total")),
        1
    );
    let out = m.call("total", &[Value::scalar(10.0)], 1).unwrap();
    assert_eq!(scalar(&out[0]), 55.0);
    // 1:n with a matrix n uses only the first element — exercised via
    // the interpreter for reference.
    let mat = Value::Real(majic_runtime::Matrix::from_rows(vec![vec![4.0, 9.0]]));
    let out = m.call("total", &[mat], 1).unwrap();
    assert_eq!(scalar(&out[0]), 10.0);
    // The miss must have JIT-compiled an extra version.
    assert!(
        m.repository()
            .version_count_ns("total", m.namespace("total"))
            >= 2
    );
}

#[test]
fn eval_defers_calls_to_the_repository() {
    let mut m = Session::with_mode(ExecMode::Jit);
    m.load_source("function y = sq(x)\ny = x * x;\n").unwrap();
    m.eval("a = sq(7);").unwrap();
    assert_eq!(scalar(m.var("a").unwrap()), 49.0);
    assert!(m.repository().version_count_ns("sq", m.namespace("sq")) >= 1);
}

#[test]
fn phase_times_accumulate() {
    let mut m = Session::with_mode(ExecMode::Jit);
    m.load_source("function s = work(n)\ns = 0;\nfor k = 1:n\n s = s + sqrt(k);\nend\n")
        .unwrap();
    m.call("work", &[Value::scalar(1000.0)], 1).unwrap();
    assert!(m.times.execution.as_nanos() > 0);
    assert!(m.times.inference.as_nanos() > 0);
    assert!(m.times.codegen.as_nanos() > 0);
    m.reset_times();
    assert_eq!(m.times.total().as_nanos(), 0);
}

#[test]
fn rand_streams_match_across_modes() {
    // Identical LCG streams: interpreted and compiled runs of `rand`
    // must agree bit-for-bit.
    let src = "function s = randsum(n)\ns = 0;\nfor k = 1:n\n s = s + rand;\nend\n";
    let mut reference = None;
    for mode in MODES {
        let mut m = Session::with_mode(mode);
        m.load_source(src).unwrap();
        let out = m.call("randsum", &[Value::scalar(10.0)], 1).unwrap();
        let v = scalar(&out[0]);
        match reference {
            None => reference = Some(v),
            Some(r) => assert_eq!(r, v, "{mode:?} diverged"),
        }
    }
}
