//! Binary serialization of the IR pieces a flattened executable holds
//! (instructions and variable bindings) for the persistent repository
//! cache; `majic-vm`'s `Executable::encode` frames them.
//!
//! Built on the primitive wire layer in [`majic_types::wire`]; the
//! byte-level layout is specified in `docs/CACHE_FORMAT.md`. Every enum
//! is encoded as a one-byte tag in declaration order followed by its
//! fields; renumbering a variant is therefore a format change and must
//! bump [`IR_FORMAT_VERSION`].
//!
//! Decoding is *total and closed*: unknown tags, unknown builtin names,
//! and unknown operator spellings are [`WireError`]s (the cache treats
//! them as corruption and falls back to a cold start), never panics.
//! Generic operators are interned back to the `'static` spellings the
//! executor dispatches on, so a decoded instruction is indistinguishable
//! from a freshly selected one.

use crate::{CBinOp, CUnOp, CmpOp, FBinOp, FUnOp, GenOp, Inst, Operand, Reg, Slot, VarBinding};
use majic_runtime::builtins::Builtin;
use majic_types::wire::{Reader, WireError, WireResult, Writer};

/// Version of the IR encoding (instruction set + layout). Bump on any
/// change to the tags or field layouts below; the compiler build
/// fingerprint embeds it, invalidating existing cache files.
pub const IR_FORMAT_VERSION: u32 = 3;

/// The complete set of generic binary-operator spellings the executor
/// understands (see `majic_vm`'s `exec_gen`). Decoding any other string
/// is a wire error.
const BINARY_OPS: &[&str] = &[
    "+", "-", "*", "/", "\\", "^", ".*", "./", ".\\", ".^", "<", "<=", ">", ">=", "==", "~=", "&",
    "|",
];

/// The generic unary-operator spellings.
const UNARY_OPS: &[&str] = &["-", "~", "+"];

fn intern(table: &'static [&'static str], s: &str, what: &'static str) -> WireResult<&'static str> {
    table
        .iter()
        .find(|&&op| op == s)
        .copied()
        .ok_or(WireError { context: what })
}

fn reg(w: &mut Writer, r: Reg) {
    w.u32(r.0);
}

fn rd_reg(r: &mut Reader<'_>) -> WireResult<Reg> {
    Ok(Reg(r.u32()?))
}

fn slot(w: &mut Writer, s: Slot) {
    w.u32(s.0);
}

fn rd_slot(r: &mut Reader<'_>) -> WireResult<Slot> {
    Ok(Slot(r.u32()?))
}

fn opt_reg(w: &mut Writer, r: Option<Reg>) {
    match r {
        None => w.u8(0),
        Some(r) => {
            w.u8(1);
            reg(w, r);
        }
    }
}

fn rd_opt_reg(r: &mut Reader<'_>) -> WireResult<Option<Reg>> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(rd_reg(r)?),
        _ => return Err(WireError::new("option tag")),
    })
}

macro_rules! op_codec {
    ($enc:ident, $dec:ident, $ty:ident, $ctx:literal, [$($variant:ident),+ $(,)?]) => {
        /// Encode the operator as a one-byte tag (declaration order).
        pub fn $enc(w: &mut Writer, v: $ty) {
            let mut tag = 0u8;
            $(
                if matches!(v, $ty::$variant) {
                    w.u8(tag);
                    return;
                }
                #[allow(unused_assignments)]
                { tag += 1; }
            )+
            unreachable!("exhaustive match above");
        }

        /// Decode the operator; out-of-range tags are wire errors.
        pub fn $dec(r: &mut Reader<'_>) -> WireResult<$ty> {
            let got = r.u8()?;
            let mut tag = 0u8;
            $(
                if got == tag {
                    return Ok($ty::$variant);
                }
                #[allow(unused_assignments)]
                { tag += 1; }
            )+
            Err(WireError::new($ctx))
        }
    };
}

op_codec!(
    encode_fbin,
    decode_fbin,
    FBinOp,
    "fbin op tag",
    [Add, Sub, Mul, Div, Pow, Atan2, Min, Max, Mod, Rem]
);
op_codec!(
    encode_fun,
    decode_fun,
    FUnOp,
    "fun op tag",
    [
        Neg, Abs, Sqrt, Sin, Cos, Tan, Asin, Acos, Atan, Exp, Log, Log10, Floor, Ceil, Round, Fix,
        Sign, Not
    ]
);
op_codec!(
    encode_cmp,
    decode_cmp,
    CmpOp,
    "cmp op tag",
    [Lt, Le, Gt, Ge, Eq, Ne]
);
op_codec!(
    encode_cbin,
    decode_cbin,
    CBinOp,
    "cbin op tag",
    [Add, Sub, Mul, Div, Pow]
);
op_codec!(
    encode_cun,
    decode_cun,
    CUnOp,
    "cun op tag",
    [Neg, Conj, Sqrt, Exp, Log, Sin, Cos]
);

/// Encode an [`Operand`].
pub fn encode_operand(w: &mut Writer, v: &Operand) {
    match v {
        Operand::Slot(s) => {
            w.u8(0);
            slot(w, *s);
        }
        Operand::F(r) => {
            w.u8(1);
            reg(w, *r);
        }
        Operand::C(r) => {
            w.u8(2);
            reg(w, *r);
        }
        Operand::FSpill(s) => {
            w.u8(3);
            w.u32(*s);
        }
        Operand::CSpill(s) => {
            w.u8(4);
            w.u32(*s);
        }
        Operand::Str(s) => {
            w.u8(5);
            w.str(s);
        }
        Operand::Colon => w.u8(6),
    }
}

/// Decode an [`Operand`].
pub fn decode_operand(r: &mut Reader<'_>) -> WireResult<Operand> {
    Ok(match r.u8()? {
        0 => Operand::Slot(rd_slot(r)?),
        1 => Operand::F(rd_reg(r)?),
        2 => Operand::C(rd_reg(r)?),
        3 => Operand::FSpill(r.u32()?),
        4 => Operand::CSpill(r.u32()?),
        5 => Operand::Str(r.str()?),
        6 => Operand::Colon,
        _ => return Err(WireError::new("operand tag")),
    })
}

/// Encode a [`GenOp`]. Builtins are written by their MATLAB name (stable
/// across builds even if the `Builtin` enum is reordered).
pub fn encode_genop(w: &mut Writer, v: &GenOp) {
    match v {
        GenOp::Binary(name) => {
            w.u8(0);
            w.str(name);
        }
        GenOp::Unary(name) => {
            w.u8(1);
            w.str(name);
        }
        GenOp::Transpose(conj) => {
            w.u8(2);
            w.bool(*conj);
        }
        GenOp::Range => w.u8(3),
        GenOp::BuildMatrix { rows } => {
            w.u8(4);
            w.u32(rows.len() as u32);
            for &n in rows {
                w.u32(n);
            }
        }
        GenOp::IndexGet => w.u8(5),
        GenOp::IndexSet { oversize } => {
            w.u8(6);
            w.bool(*oversize);
        }
        GenOp::CallBuiltin(b) => {
            w.u8(7);
            w.str(b.name());
        }
        GenOp::CallUser(name) => {
            w.u8(8);
            w.str(name);
        }
        GenOp::ResolveAmbiguous(name) => {
            w.u8(9);
            w.str(name);
        }
        GenOp::Gemv => w.u8(10),
        GenOp::AllocReal { rows, cols } => {
            w.u8(11);
            w.u32(*rows);
            w.u32(*cols);
        }
        GenOp::EnsureReal { rows, cols } => {
            w.u8(12);
            w.u32(*rows);
            w.u32(*cols);
        }
        GenOp::Display(name) => {
            w.u8(13);
            w.str(name);
        }
    }
}

/// Decode a [`GenOp`]; unknown builtin names and operator spellings are
/// wire errors.
pub fn decode_genop(r: &mut Reader<'_>) -> WireResult<GenOp> {
    Ok(match r.u8()? {
        0 => GenOp::Binary(intern(BINARY_OPS, &r.str()?, "binary operator name")?),
        1 => GenOp::Unary(intern(UNARY_OPS, &r.str()?, "unary operator name")?),
        2 => GenOp::Transpose(r.bool()?),
        3 => GenOp::Range,
        4 => {
            let n = r.seq_len(4)?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push(r.u32()?);
            }
            GenOp::BuildMatrix { rows }
        }
        5 => GenOp::IndexGet,
        6 => GenOp::IndexSet {
            oversize: r.bool()?,
        },
        7 => GenOp::CallBuiltin(
            Builtin::lookup(&r.str()?).ok_or(WireError::new("unknown builtin name"))?,
        ),
        8 => GenOp::CallUser(r.str()?),
        9 => GenOp::ResolveAmbiguous(r.str()?),
        10 => GenOp::Gemv,
        11 => GenOp::AllocReal {
            rows: r.u32()?,
            cols: r.u32()?,
        },
        12 => GenOp::EnsureReal {
            rows: r.u32()?,
            cols: r.u32()?,
        },
        13 => GenOp::Display(r.str()?),
        _ => return Err(WireError::new("genop tag")),
    })
}

/// Encode one [`Inst`] (tag in declaration order + fields).
pub fn encode_inst(w: &mut Writer, v: &Inst) {
    match v {
        Inst::FConst { d, v } => {
            w.u8(0);
            reg(w, *d);
            w.f64(*v);
        }
        Inst::FMov { d, s } => {
            w.u8(1);
            reg(w, *d);
            reg(w, *s);
        }
        Inst::FBin { op, d, a, b } => {
            w.u8(2);
            encode_fbin(w, *op);
            reg(w, *d);
            reg(w, *a);
            reg(w, *b);
        }
        Inst::FUn { op, d, s } => {
            w.u8(3);
            encode_fun(w, *op);
            reg(w, *d);
            reg(w, *s);
        }
        Inst::FCmp { op, d, a, b } => {
            w.u8(4);
            encode_cmp(w, *op);
            reg(w, *d);
            reg(w, *a);
            reg(w, *b);
        }
        Inst::FSpillLoad { d, slot } => {
            w.u8(5);
            reg(w, *d);
            w.u32(*slot);
        }
        Inst::FSpillStore { slot, s } => {
            w.u8(6);
            w.u32(*slot);
            reg(w, *s);
        }
        Inst::CConst { d, re, im } => {
            w.u8(7);
            reg(w, *d);
            w.f64(*re);
            w.f64(*im);
        }
        Inst::CMov { d, s } => {
            w.u8(8);
            reg(w, *d);
            reg(w, *s);
        }
        Inst::CBin { op, d, a, b } => {
            w.u8(9);
            encode_cbin(w, *op);
            reg(w, *d);
            reg(w, *a);
            reg(w, *b);
        }
        Inst::CUn { op, d, s } => {
            w.u8(10);
            encode_cun(w, *op);
            reg(w, *d);
            reg(w, *s);
        }
        Inst::CAbs { d, s } => {
            w.u8(11);
            reg(w, *d);
            reg(w, *s);
        }
        Inst::CPart { d, s, imag } => {
            w.u8(12);
            reg(w, *d);
            reg(w, *s);
            w.bool(*imag);
        }
        Inst::CMake { d, re, im } => {
            w.u8(13);
            reg(w, *d);
            reg(w, *re);
            reg(w, *im);
        }
        Inst::CSpillLoad { d, slot } => {
            w.u8(14);
            reg(w, *d);
            w.u32(*slot);
        }
        Inst::CSpillStore { slot, s } => {
            w.u8(15);
            w.u32(*slot);
            reg(w, *s);
        }
        Inst::ALoadF {
            d,
            arr,
            i,
            j,
            checked,
        } => {
            w.u8(16);
            reg(w, *d);
            slot(w, *arr);
            reg(w, *i);
            opt_reg(w, *j);
            w.bool(*checked);
        }
        Inst::AStoreF {
            arr,
            i,
            j,
            v,
            checked,
            oversize,
        } => {
            w.u8(17);
            slot(w, *arr);
            reg(w, *i);
            opt_reg(w, *j);
            reg(w, *v);
            w.bool(*checked);
            w.bool(*oversize);
        }
        Inst::ALoadC {
            d,
            arr,
            i,
            j,
            checked,
        } => {
            w.u8(18);
            reg(w, *d);
            slot(w, *arr);
            reg(w, *i);
            opt_reg(w, *j);
            w.bool(*checked);
        }
        Inst::AStoreC {
            arr,
            i,
            j,
            v,
            checked,
            oversize,
        } => {
            w.u8(19);
            slot(w, *arr);
            reg(w, *i);
            opt_reg(w, *j);
            reg(w, *v);
            w.bool(*checked);
            w.bool(*oversize);
        }
        Inst::ALoadConstF { d, arr, lin } => {
            w.u8(20);
            reg(w, *d);
            slot(w, *arr);
            w.u32(*lin);
        }
        Inst::AStoreConstF { arr, lin, v } => {
            w.u8(21);
            slot(w, *arr);
            w.u32(*lin);
            reg(w, *v);
        }
        Inst::FToSlot { slot: s, s: src } => {
            w.u8(22);
            slot(w, *s);
            reg(w, *src);
        }
        Inst::SlotToF { d, slot: s } => {
            w.u8(23);
            reg(w, *d);
            slot(w, *s);
        }
        Inst::CToSlot { slot: s, s: src } => {
            w.u8(24);
            slot(w, *s);
            reg(w, *src);
        }
        Inst::SlotToC { d, slot: s } => {
            w.u8(25);
            reg(w, *d);
            slot(w, *s);
        }
        Inst::SlotMov { d, s } => {
            w.u8(26);
            slot(w, *d);
            slot(w, *s);
        }
        Inst::TruthF { d, slot: s } => {
            w.u8(27);
            reg(w, *d);
            slot(w, *s);
        }
        Inst::ExtentF { d, arr, dim } => {
            w.u8(28);
            reg(w, *d);
            slot(w, *arr);
            w.u8(*dim);
        }
        Inst::Gen { op, dsts, args } => {
            w.u8(29);
            encode_genop(w, op);
            w.u32(dsts.len() as u32);
            for d in dsts {
                slot(w, *d);
            }
            w.u32(args.len() as u32);
            for a in args {
                encode_operand(w, a);
            }
        }
        Inst::ErrUndefined(name) => {
            w.u8(30);
            w.str(name);
        }
        Inst::FToSlotBool { slot: s, s: src } => {
            w.u8(31);
            slot(w, *s);
            reg(w, *src);
        }
        Inst::SlotTake { d, s } => {
            w.u8(32);
            slot(w, *d);
            slot(w, *s);
        }
    }
}

/// Decode one [`Inst`].
pub fn decode_inst(r: &mut Reader<'_>) -> WireResult<Inst> {
    Ok(match r.u8()? {
        0 => Inst::FConst {
            d: rd_reg(r)?,
            v: r.f64()?,
        },
        1 => Inst::FMov {
            d: rd_reg(r)?,
            s: rd_reg(r)?,
        },
        2 => Inst::FBin {
            op: decode_fbin(r)?,
            d: rd_reg(r)?,
            a: rd_reg(r)?,
            b: rd_reg(r)?,
        },
        3 => Inst::FUn {
            op: decode_fun(r)?,
            d: rd_reg(r)?,
            s: rd_reg(r)?,
        },
        4 => Inst::FCmp {
            op: decode_cmp(r)?,
            d: rd_reg(r)?,
            a: rd_reg(r)?,
            b: rd_reg(r)?,
        },
        5 => Inst::FSpillLoad {
            d: rd_reg(r)?,
            slot: r.u32()?,
        },
        6 => Inst::FSpillStore {
            slot: r.u32()?,
            s: rd_reg(r)?,
        },
        7 => Inst::CConst {
            d: rd_reg(r)?,
            re: r.f64()?,
            im: r.f64()?,
        },
        8 => Inst::CMov {
            d: rd_reg(r)?,
            s: rd_reg(r)?,
        },
        9 => Inst::CBin {
            op: decode_cbin(r)?,
            d: rd_reg(r)?,
            a: rd_reg(r)?,
            b: rd_reg(r)?,
        },
        10 => Inst::CUn {
            op: decode_cun(r)?,
            d: rd_reg(r)?,
            s: rd_reg(r)?,
        },
        11 => Inst::CAbs {
            d: rd_reg(r)?,
            s: rd_reg(r)?,
        },
        12 => Inst::CPart {
            d: rd_reg(r)?,
            s: rd_reg(r)?,
            imag: r.bool()?,
        },
        13 => Inst::CMake {
            d: rd_reg(r)?,
            re: rd_reg(r)?,
            im: rd_reg(r)?,
        },
        14 => Inst::CSpillLoad {
            d: rd_reg(r)?,
            slot: r.u32()?,
        },
        15 => Inst::CSpillStore {
            slot: r.u32()?,
            s: rd_reg(r)?,
        },
        16 => Inst::ALoadF {
            d: rd_reg(r)?,
            arr: rd_slot(r)?,
            i: rd_reg(r)?,
            j: rd_opt_reg(r)?,
            checked: r.bool()?,
        },
        17 => Inst::AStoreF {
            arr: rd_slot(r)?,
            i: rd_reg(r)?,
            j: rd_opt_reg(r)?,
            v: rd_reg(r)?,
            checked: r.bool()?,
            oversize: r.bool()?,
        },
        18 => Inst::ALoadC {
            d: rd_reg(r)?,
            arr: rd_slot(r)?,
            i: rd_reg(r)?,
            j: rd_opt_reg(r)?,
            checked: r.bool()?,
        },
        19 => Inst::AStoreC {
            arr: rd_slot(r)?,
            i: rd_reg(r)?,
            j: rd_opt_reg(r)?,
            v: rd_reg(r)?,
            checked: r.bool()?,
            oversize: r.bool()?,
        },
        20 => Inst::ALoadConstF {
            d: rd_reg(r)?,
            arr: rd_slot(r)?,
            lin: r.u32()?,
        },
        21 => Inst::AStoreConstF {
            arr: rd_slot(r)?,
            lin: r.u32()?,
            v: rd_reg(r)?,
        },
        22 => Inst::FToSlot {
            slot: rd_slot(r)?,
            s: rd_reg(r)?,
        },
        23 => Inst::SlotToF {
            d: rd_reg(r)?,
            slot: rd_slot(r)?,
        },
        24 => Inst::CToSlot {
            slot: rd_slot(r)?,
            s: rd_reg(r)?,
        },
        25 => Inst::SlotToC {
            d: rd_reg(r)?,
            slot: rd_slot(r)?,
        },
        26 => Inst::SlotMov {
            d: rd_slot(r)?,
            s: rd_slot(r)?,
        },
        27 => Inst::TruthF {
            d: rd_reg(r)?,
            slot: rd_slot(r)?,
        },
        28 => Inst::ExtentF {
            d: rd_reg(r)?,
            arr: rd_slot(r)?,
            dim: r.u8()?,
        },
        29 => {
            let op = decode_genop(r)?;
            let nd = r.seq_len(4)?;
            let mut dsts = Vec::with_capacity(nd);
            for _ in 0..nd {
                dsts.push(rd_slot(r)?);
            }
            let na = r.seq_len(1)?;
            let mut args = Vec::with_capacity(na);
            for _ in 0..na {
                args.push(decode_operand(r)?);
            }
            Inst::Gen { op, dsts, args }
        }
        30 => Inst::ErrUndefined(r.str()?),
        31 => Inst::FToSlotBool {
            slot: rd_slot(r)?,
            s: rd_reg(r)?,
        },
        32 => Inst::SlotTake {
            d: rd_slot(r)?,
            s: rd_slot(r)?,
        },
        _ => return Err(WireError::new("inst tag")),
    })
}

/// Encode a [`VarBinding`].
pub fn encode_binding(w: &mut Writer, v: VarBinding) {
    match v {
        VarBinding::F(r) => {
            w.u8(0);
            reg(w, r);
        }
        VarBinding::C(r) => {
            w.u8(1);
            reg(w, r);
        }
        VarBinding::Slot(s) => {
            w.u8(2);
            slot(w, s);
        }
        VarBinding::FSpill(s) => {
            w.u8(3);
            w.u32(s);
        }
        VarBinding::CSpill(s) => {
            w.u8(4);
            w.u32(s);
        }
    }
}

/// Decode a [`VarBinding`].
pub fn decode_binding(r: &mut Reader<'_>) -> WireResult<VarBinding> {
    Ok(match r.u8()? {
        0 => VarBinding::F(rd_reg(r)?),
        1 => VarBinding::C(rd_reg(r)?),
        2 => VarBinding::Slot(rd_slot(r)?),
        3 => VarBinding::FSpill(r.u32()?),
        4 => VarBinding::CSpill(r.u32()?),
        _ => return Err(WireError::new("binding tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_inst(i: &Inst) {
        let mut w = Writer::new();
        encode_inst(&mut w, i);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = decode_inst(&mut r).unwrap();
        assert!(r.is_empty(), "trailing bytes after {i:?}");
        assert_eq!(&back, i);
        // Canonical: re-encoding reproduces the same bytes.
        let mut w2 = Writer::new();
        encode_inst(&mut w2, &back);
        assert_eq!(bytes, w2.into_bytes());
    }

    #[test]
    fn every_inst_shape_round_trips() {
        let samples = vec![
            Inst::FConst {
                d: Reg(1),
                v: f64::NEG_INFINITY,
            },
            Inst::FMov {
                d: Reg(0),
                s: Reg(3),
            },
            Inst::FBin {
                op: FBinOp::Atan2,
                d: Reg(1),
                a: Reg(2),
                b: Reg(3),
            },
            Inst::FUn {
                op: FUnOp::Log10,
                d: Reg(0),
                s: Reg(1),
            },
            Inst::FCmp {
                op: CmpOp::Ne,
                d: Reg(0),
                a: Reg(1),
                b: Reg(2),
            },
            Inst::FSpillLoad { d: Reg(0), slot: 9 },
            Inst::FSpillStore { slot: 4, s: Reg(2) },
            Inst::CConst {
                d: Reg(0),
                re: 1.5,
                im: -2.5,
            },
            Inst::CMov {
                d: Reg(0),
                s: Reg(1),
            },
            Inst::CBin {
                op: CBinOp::Pow,
                d: Reg(0),
                a: Reg(1),
                b: Reg(2),
            },
            Inst::CUn {
                op: CUnOp::Conj,
                d: Reg(0),
                s: Reg(1),
            },
            Inst::CAbs {
                d: Reg(0),
                s: Reg(1),
            },
            Inst::CPart {
                d: Reg(0),
                s: Reg(1),
                imag: true,
            },
            Inst::CMake {
                d: Reg(0),
                re: Reg(1),
                im: Reg(2),
            },
            Inst::CSpillLoad { d: Reg(0), slot: 1 },
            Inst::CSpillStore { slot: 0, s: Reg(1) },
            Inst::ALoadF {
                d: Reg(0),
                arr: Slot(1),
                i: Reg(2),
                j: Some(Reg(3)),
                checked: false,
            },
            Inst::AStoreF {
                arr: Slot(0),
                i: Reg(1),
                j: None,
                v: Reg(2),
                checked: true,
                oversize: true,
            },
            Inst::ALoadC {
                d: Reg(0),
                arr: Slot(0),
                i: Reg(1),
                j: None,
                checked: true,
            },
            Inst::AStoreC {
                arr: Slot(0),
                i: Reg(1),
                j: Some(Reg(2)),
                v: Reg(3),
                checked: false,
                oversize: false,
            },
            Inst::ALoadConstF {
                d: Reg(0),
                arr: Slot(1),
                lin: 8,
            },
            Inst::AStoreConstF {
                arr: Slot(0),
                lin: 2,
                v: Reg(1),
            },
            Inst::FToSlot {
                slot: Slot(0),
                s: Reg(1),
            },
            Inst::FToSlotBool {
                slot: Slot(2),
                s: Reg(3),
            },
            Inst::SlotToF {
                d: Reg(0),
                slot: Slot(1),
            },
            Inst::CToSlot {
                slot: Slot(0),
                s: Reg(1),
            },
            Inst::SlotToC {
                d: Reg(0),
                slot: Slot(1),
            },
            Inst::SlotMov {
                d: Slot(0),
                s: Slot(1),
            },
            Inst::SlotTake {
                d: Slot(0),
                s: Slot(1),
            },
            Inst::TruthF {
                d: Reg(0),
                slot: Slot(1),
            },
            Inst::ExtentF {
                d: Reg(0),
                arr: Slot(1),
                dim: 2,
            },
            Inst::Gen {
                op: GenOp::Binary("+"),
                dsts: vec![Slot(0)],
                args: vec![Operand::Slot(Slot(1)), Operand::F(Reg(2))],
            },
            Inst::Gen {
                op: GenOp::CallBuiltin(Builtin::lookup("zeros").unwrap()),
                dsts: vec![Slot(0)],
                args: vec![Operand::F(Reg(0)), Operand::Str("x".into()), Operand::Colon],
            },
            Inst::Gen {
                op: GenOp::BuildMatrix { rows: vec![2, 2] },
                dsts: vec![Slot(0)],
                args: vec![
                    Operand::FSpill(1),
                    Operand::CSpill(2),
                    Operand::C(Reg(0)),
                    Operand::Slot(Slot(1)),
                ],
            },
            Inst::ErrUndefined("whom".into()),
        ];
        for i in &samples {
            round_trip_inst(i);
        }
    }

    #[test]
    fn interned_operators_round_trip() {
        for op in BINARY_OPS {
            let mut w = Writer::new();
            encode_genop(&mut w, &GenOp::Binary(op));
            let bytes = w.into_bytes();
            let back = decode_genop(&mut Reader::new(&bytes)).unwrap();
            assert_eq!(back, GenOp::Binary(op));
        }
        for op in UNARY_OPS {
            let mut w = Writer::new();
            encode_genop(&mut w, &GenOp::Unary(op));
            let bytes = w.into_bytes();
            let back = decode_genop(&mut Reader::new(&bytes)).unwrap();
            assert_eq!(back, GenOp::Unary(op));
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        let mut w = Writer::new();
        w.u8(0); // Binary
        w.str("<=>");
        assert!(decode_genop(&mut Reader::new(&w.into_bytes())).is_err());

        let mut w = Writer::new();
        w.u8(7); // CallBuiltin
        w.str("no_such_builtin");
        assert!(decode_genop(&mut Reader::new(&w.into_bytes())).is_err());
    }
}
