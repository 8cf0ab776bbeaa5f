//! The type calculator's scalar-builtin rules checked against the
//! runtime on a grid of operands: signed zeros, NaN, fractions and a
//! large magnitude. For every case, the type inferred from the operands'
//! exact runtime types must admit the type of the value the builtin
//! returns.

use majic_infer::calculator;
use majic_infer::InferOptions;
use majic_runtime::builtins::{Builtin, CallCtx};
use majic_runtime::Value;

const GRID: [f64; 9] = [-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, 1e6, f64::NAN];

/// `None` when the rule admits the runtime result, a description when not.
fn unsound(b: Builtin, args: &[f64]) -> Option<String> {
    let vals: Vec<Value> = args.iter().map(|&x| Value::scalar(x)).collect();
    let types: Vec<_> = vals.iter().map(Value::type_of).collect();
    let got = b
        .call(&mut CallCtx::new(), &vals, 1)
        .unwrap_or_else(|e| panic!("{b}{args:?}: {e}"))
        .remove(0);
    let inferred = calculator::builtin(b, &types, 1, &InferOptions::default()).remove(0);
    let actual = got.type_of();
    (!actual.is_subtype_of(&inferred))
        .then(|| format!("{b}{args:?} = {got}: runtime {actual} not within inferred {inferred}"))
}

fn assert_sound(cases: impl Iterator<Item = (Builtin, Vec<f64>)>) {
    let bad: Vec<String> = cases.filter_map(|(b, args)| unsound(b, &args)).collect();
    assert!(
        bad.is_empty(),
        "{} unsound case(s):\n{}",
        bad.len(),
        bad.join("\n")
    );
}

#[test]
fn binary_rules_admit_every_runtime_result() {
    use Builtin::*;
    assert_sound([Min, Max, Mod, Rem, Atan2].into_iter().flat_map(|b| {
        GRID.iter()
            .flat_map(move |&x| GRID.iter().map(move |&y| (b, vec![x, y])))
    }));
}

#[test]
fn unary_rules_admit_every_runtime_result() {
    use Builtin::*;
    assert_sound(
        [Abs, Sign, Floor, Ceil, Round, Fix]
            .into_iter()
            .flat_map(|b| GRID.iter().map(move |&x| (b, vec![x]))),
    );
}
