//! The `fn:` builtin library.
//!
//! Roughly the working-draft core the AWB document generator leaned on. The
//! two functions with a starring role in the paper live here:
//!
//! * `fn:error` — "prints $msg on the console and kills the program";
//!   strategically-placed `error` calls were the project's first debugger.
//! * `fn:trace` — added "after a certain amount of complaint"; prints its
//!   arguments and returns the value of the **last** one (the early-Galax
//!   behaviour the paper's `LET $x := trace("x=", something)` idiom relies
//!   on).
//!
//! Documented deviations: `tokenize` and `replace` take *literal* separators
//! and patterns, not regular expressions (the document generator only ever
//! used literal ones).

use crate::compare::{atomize, atomize_item, compare_atomics, deep_equal, effective_boolean_value};
use crate::context::DynamicContext;
use crate::error::{Error, ErrorCode, Result};
use crate::eval::{join_atomized, EvalEnv};
use crate::obs::{TraceEvent, TraceSink};
use crate::value::{Atomic, Item, Sequence};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::mem::take;
use std::sync::Arc;
use xmlstore::{NodeId, Store};

/// A builtin function, resolved once (at lowering time) so that every call
/// site dispatches on an enum instead of re-matching the function name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    String,
    Data,
    Name,
    LocalName,
    NodeName,
    Root,
    Doc,
    Count,
    Empty,
    Exists,
    DistinctValues,
    Reverse,
    InsertBefore,
    Remove,
    Subsequence,
    IndexOf,
    Last,
    Position,
    ZeroOrOne,
    OneOrMore,
    ExactlyOne,
    DeepEqual,
    Not,
    Boolean,
    True,
    False,
    Number,
    Abs,
    Floor,
    Ceiling,
    Round,
    Sum,
    Avg,
    Min,
    Max,
    Concat,
    StringJoin,
    Substring,
    StringLength,
    NormalizeSpace,
    UpperCase,
    LowerCase,
    Contains,
    StartsWith,
    EndsWith,
    SubstringBefore,
    SubstringAfter,
    Translate,
    Tokenize,
    Replace,
    ErrorFn,
    Trace,
}

use Builtin as B;

impl Builtin {
    /// The `fn:` name, for diagnostics.
    pub fn name(self) -> &'static str {
        BUILTINS
            .iter()
            .find(|(_, b, _, _)| *b == self)
            .map(|(n, _, _, _)| *n)
            .expect("every builtin is in the table")
    }
}

/// Resolves a builtin by name and arity.
pub fn lookup_builtin(name: &str, arity: usize) -> Option<Builtin> {
    BUILTINS
        .iter()
        .find(|(n, _, lo, hi)| *n == name && arity >= *lo && arity <= *hi)
        .map(|(_, b, _, _)| *b)
}

/// Does a builtin with this name accept this arity?
pub fn is_builtin(name: &str, arity: usize) -> bool {
    lookup_builtin(name, arity).is_some()
}

/// (name, builtin, min arity, max arity)
const BUILTINS: &[(&str, Builtin, usize, usize)] = &[
    ("string", B::String, 0, 1),
    ("data", B::Data, 1, 1),
    ("name", B::Name, 0, 1),
    ("local-name", B::LocalName, 0, 1),
    ("node-name", B::NodeName, 1, 1),
    ("root", B::Root, 0, 1),
    ("doc", B::Doc, 1, 1),
    ("count", B::Count, 1, 1),
    ("empty", B::Empty, 1, 1),
    ("exists", B::Exists, 1, 1),
    ("distinct-values", B::DistinctValues, 1, 1),
    ("reverse", B::Reverse, 1, 1),
    ("insert-before", B::InsertBefore, 3, 3),
    ("remove", B::Remove, 2, 2),
    ("subsequence", B::Subsequence, 2, 3),
    ("index-of", B::IndexOf, 2, 2),
    ("last", B::Last, 0, 0),
    ("position", B::Position, 0, 0),
    ("zero-or-one", B::ZeroOrOne, 1, 1),
    ("one-or-more", B::OneOrMore, 1, 1),
    ("exactly-one", B::ExactlyOne, 1, 1),
    ("deep-equal", B::DeepEqual, 2, 2),
    ("not", B::Not, 1, 1),
    ("boolean", B::Boolean, 1, 1),
    ("true", B::True, 0, 0),
    ("false", B::False, 0, 0),
    ("number", B::Number, 0, 1),
    ("abs", B::Abs, 1, 1),
    ("floor", B::Floor, 1, 1),
    ("ceiling", B::Ceiling, 1, 1),
    ("round", B::Round, 1, 1),
    ("sum", B::Sum, 1, 2),
    ("avg", B::Avg, 1, 1),
    ("min", B::Min, 1, 1),
    ("max", B::Max, 1, 1),
    ("concat", B::Concat, 2, 16),
    ("string-join", B::StringJoin, 2, 2),
    ("substring", B::Substring, 2, 3),
    ("string-length", B::StringLength, 0, 1),
    ("normalize-space", B::NormalizeSpace, 0, 1),
    ("upper-case", B::UpperCase, 1, 1),
    ("lower-case", B::LowerCase, 1, 1),
    ("contains", B::Contains, 2, 2),
    ("starts-with", B::StartsWith, 2, 2),
    ("ends-with", B::EndsWith, 2, 2),
    ("substring-before", B::SubstringBefore, 2, 2),
    ("substring-after", B::SubstringAfter, 2, 2),
    ("translate", B::Translate, 3, 3),
    ("tokenize", B::Tokenize, 2, 2),
    ("replace", B::Replace, 3, 3),
    ("error", B::ErrorFn, 0, 2),
    ("trace", B::Trace, 1, 8),
];

/// The engine state a builtin may touch, decoupled from any particular
/// evaluator (the tree-walking reference and the lowered runner both build
/// one of these from their own environments).
pub struct CallCtx<'a> {
    pub store: &'a Store,
    pub galax_quirks: bool,
    pub docs: &'a HashMap<String, NodeId>,
    /// Where `fn:trace` events go (see [`crate::obs::TraceSink`]): the
    /// engine's internal recorder plus any user-installed sink.
    pub trace: &'a mut dyn TraceSink,
}

/// Calls a builtin by name. `is_builtin` must have returned true for
/// (name, arity). Used by the tree-walking reference evaluator; the lowered
/// runner resolves the name once and calls [`dispatch_builtin`] directly.
pub fn call_builtin(
    name: &str,
    mut args: Vec<Sequence>,
    env: &mut EvalEnv,
    ctx: &DynamicContext,
    position: (u32, u32),
) -> Result<Sequence> {
    let Some(builtin) = lookup_builtin(name, args.len()) else {
        return Err(Error::new(
            ErrorCode::XPST0017,
            format!("unknown builtin {name}#{}", args.len()),
        )
        .at(position.0, position.1));
    };
    let mut cx = CallCtx {
        store: env.store,
        galax_quirks: env.options.galax_quirks,
        docs: env.docs,
        trace: &mut *env.trace,
    };
    dispatch_builtin(builtin, &mut args, &mut cx, ctx, position)
}

/// Calls a resolved builtin: direct enum dispatch, no string matching.
///
/// Any error the builtin itself raises is stamped with the call position
/// (unless a more precise one is already attached). Galax-quirk errors —
/// `ErrorCode::Internal` — are left untouched: the paper's complaint is
/// precisely that those came with no line number.
///
/// The builtin may take its argument values out of `args` (leaving empty
/// sequences behind): the caller owns the storage, so a call with few
/// arguments needs no heap.
pub fn dispatch_builtin(
    builtin: Builtin,
    args: &mut [Sequence],
    cx: &mut CallCtx,
    ctx: &DynamicContext,
    position: (u32, u32),
) -> Result<Sequence> {
    dispatch_builtin_inner(builtin, args, cx, ctx, position).map_err(|e| {
        if e.code == ErrorCode::Internal {
            e
        } else {
            e.at_if_unset(position.0, position.1)
        }
    })
}

fn dispatch_builtin_inner(
    builtin: Builtin,
    args: &mut [Sequence],
    cx: &mut CallCtx,
    ctx: &DynamicContext,
    position: (u32, u32),
) -> Result<Sequence> {
    let store: &Store = cx.store;
    match (builtin, args.len()) {
        // ---------------- accessors ----------------
        (B::String, 0) => {
            let item = ctx.context_item(cx.galax_quirks, position)?;
            Ok(Atomic::Str(item_string_value_arc(item, store)).into())
        }
        (B::String, 1) => Ok(match args[0].as_singleton() {
            Some(item) => Atomic::Str(item_string_value_arc(item, store)).into(),
            None if args[0].is_empty() => Atomic::Str(String::new().into()).into(),
            None => {
                return Err(Error::new(
                    ErrorCode::XPTY0004,
                    "fn:string requires at most one item",
                ))
            }
        }),
        (B::Data, 1) => Ok(atomize(&args[0], store)
            .into_iter()
            .map(Item::Atomic)
            .collect()),
        (B::Name, n) | (B::LocalName, n) => {
            let node = if n == 0 {
                match ctx.context_item(cx.galax_quirks, position)? {
                    Item::Node(id) => Some(*id),
                    Item::Atomic(_) => {
                        return Err(Error::new(
                            ErrorCode::XPTY0004,
                            "fn:name on an atomic value",
                        ))
                    }
                }
            } else {
                match args[0].as_singleton() {
                    Some(Item::Node(id)) => Some(*id),
                    Some(Item::Atomic(_)) => {
                        return Err(Error::new(
                            ErrorCode::XPTY0004,
                            "fn:name on an atomic value",
                        ))
                    }
                    None => None,
                }
            };
            let text: Arc<str> = match node.and_then(|id| store.name(id)) {
                Some(q) if builtin == B::LocalName || q.prefix_sym().is_none() => q.local().into(),
                Some(q) => q.to_string().into(),
                None => "".into(),
            };
            Ok(Atomic::Str(text).into())
        }
        (B::NodeName, 1) => match args[0].as_singleton() {
            Some(Item::Node(id)) => Ok(store
                .name(*id)
                .map(|q| Atomic::Str(q.to_string().into()).into())
                .unwrap_or_else(Sequence::empty)),
            Some(Item::Atomic(_)) => Err(Error::new(
                ErrorCode::XPTY0004,
                "fn:node-name on an atomic value",
            )),
            None => Ok(Sequence::empty()),
        },
        (B::Root, n) => {
            let node = if n == 0 {
                match ctx.context_item(cx.galax_quirks, position)? {
                    Item::Node(id) => *id,
                    Item::Atomic(_) => {
                        return Err(Error::new(
                            ErrorCode::XPTY0004,
                            "fn:root on an atomic value",
                        ))
                    }
                }
            } else {
                match args[0].as_singleton() {
                    Some(Item::Node(id)) => *id,
                    Some(Item::Atomic(_)) => {
                        return Err(Error::new(
                            ErrorCode::XPTY0004,
                            "fn:root on an atomic value",
                        ))
                    }
                    None => return Ok(Sequence::empty()),
                }
            };
            Ok(Sequence::singleton(Item::Node(store.root(node))))
        }
        (B::Doc, 1) => {
            let uri = string_arg(&args[0], store)?;
            match cx.docs.get(&uri) {
                Some(&id) => Ok(Sequence::singleton(Item::Node(id))),
                None => Err(Error::new(
                    ErrorCode::FORG0001,
                    format!("no document registered under {uri:?}"),
                )),
            }
        }

        // ---------------- sequences ----------------
        (B::Count, 1) => Ok(Item::integer(args[0].len() as i64).into()),
        (B::Empty, 1) => Ok(Item::boolean(args[0].is_empty()).into()),
        (B::Exists, 1) => Ok(Item::boolean(!args[0].is_empty()).into()),
        (B::DistinctValues, 1) => {
            let atoms = atomize(&args[0], store);
            let mut kept: Vec<Atomic> = Vec::with_capacity(atoms.len());
            for a in atoms {
                if !kept
                    .iter()
                    .any(|k| compare_atomics(k, &a) == Some(Ordering::Equal))
                {
                    kept.push(a);
                }
            }
            Ok(kept.into_iter().map(Item::Atomic).collect())
        }
        (B::Reverse, 1) => {
            let mut items = take(&mut args[0]).into_items();
            items.reverse();
            Ok(Sequence::from_items(items))
        }
        (B::InsertBefore, 3) => {
            let pos = integer_arg(&args[1], store)?.max(1) as usize;
            let inserts = take(&mut args[2]);
            let mut items = take(&mut args[0]).into_items();
            let at = (pos - 1).min(items.len());
            let tail = items.split_off(at);
            items.extend(inserts.into_items());
            items.extend(tail);
            Ok(Sequence::from_items(items))
        }
        (B::Remove, 2) => {
            let pos = integer_arg(&args[1], store)?;
            Ok(take(&mut args[0])
                .into_iter()
                .enumerate()
                .filter(|(i, _)| (i + 1) as i64 != pos)
                .map(|(_, item)| item)
                .collect())
        }
        (B::Subsequence, n) => {
            let start = xpath_round(double_arg(&args[1], store)?);
            let len = (n == 3)
                .then(|| double_arg(&args[2], store).map(xpath_round))
                .transpose()?;
            Ok(take(&mut args[0])
                .into_iter()
                .enumerate()
                .filter(|(i, _)| {
                    let p = (i + 1) as f64;
                    // Two-arg form: everything from round(start) on — the
                    // spec has no upper bound, so start = -INF keeps the
                    // whole sequence (`start + INF` would be NaN and drop
                    // everything). NaN start keeps nothing either way.
                    match len {
                        Some(len) => p >= start && p < start + len,
                        None => p >= start,
                    }
                })
                .map(|(_, item)| item)
                .collect())
        }
        (B::IndexOf, 2) => {
            let haystack = atomize(&args[0], store);
            let needles = atomize(&args[1], store);
            let Some(needle) = needles.first() else {
                return Ok(Sequence::empty());
            };
            Ok(haystack
                .iter()
                .enumerate()
                .filter(|(_, a)| compare_atomics(a, needle) == Some(Ordering::Equal))
                .map(|(i, _)| Item::integer(i as i64 + 1))
                .collect())
        }
        (B::Last, 0) => match &ctx.focus {
            Some(f) => Ok(Item::integer(f.size as i64).into()),
            None => Err(Error::new(ErrorCode::XPDY0002, "fn:last with no focus")),
        },
        (B::Position, 0) => match &ctx.focus {
            Some(f) => Ok(Item::integer(f.position as i64).into()),
            None => Err(Error::new(ErrorCode::XPDY0002, "fn:position with no focus")),
        },
        (B::ZeroOrOne, 1) => {
            if args[0].len() <= 1 {
                Ok(take(&mut args[0]))
            } else {
                Err(Error::new(
                    ErrorCode::FORG0004,
                    "fn:zero-or-one: more than one item",
                ))
            }
        }
        (B::OneOrMore, 1) => {
            if !args[0].is_empty() {
                Ok(take(&mut args[0]))
            } else {
                Err(Error::new(
                    ErrorCode::FORG0004,
                    "fn:one-or-more: empty sequence",
                ))
            }
        }
        (B::ExactlyOne, 1) => {
            if args[0].len() == 1 {
                Ok(take(&mut args[0]))
            } else {
                Err(Error::new(
                    ErrorCode::FORG0004,
                    format!("fn:exactly-one: got {} items", args[0].len()),
                ))
            }
        }
        (B::DeepEqual, 2) => Ok(Item::boolean(deep_equal(&args[0], &args[1], store)).into()),

        // ---------------- booleans ----------------
        (B::Not, 1) => Ok(Item::boolean(!effective_boolean_value(&args[0], store)?).into()),
        (B::Boolean, 1) => Ok(Item::boolean(effective_boolean_value(&args[0], store)?).into()),
        (B::True, 0) => Ok(Item::boolean(true).into()),
        (B::False, 0) => Ok(Item::boolean(false).into()),

        // ---------------- numerics ----------------
        (B::Number, n) => {
            let atoms = if n == 0 {
                let item = ctx.context_item(cx.galax_quirks, position)?;
                vec![atomize_item(item, store)]
            } else {
                atomize(&args[0], store)
            };
            let value = match atoms.as_slice() {
                [a] => a.as_number().or_else(|| match a {
                    Atomic::Str(s) => s.trim().parse::<f64>().ok(),
                    Atomic::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
                    _ => None,
                }),
                _ => None,
            };
            Ok(Atomic::Dbl(value.unwrap_or(f64::NAN)).into())
        }
        (B::Abs, 1) => numeric_unary(&args[0], store, i64::abs, f64::abs),
        (B::Floor, 1) => numeric_unary(&args[0], store, |i| i, f64::floor),
        (B::Ceiling, 1) => numeric_unary(&args[0], store, |i| i, f64::ceil),
        (B::Round, 1) => numeric_unary(&args[0], store, |i| i, |d| (d + 0.5).floor()),
        (B::Sum, n) => {
            let atoms = atomize(&args[0], store);
            if atoms.is_empty() {
                return if n == 2 {
                    Ok(take(&mut args[1]))
                } else {
                    Ok(Item::integer(0).into())
                };
            }
            fold_numeric(&atoms, "fn:sum").map(|total| total.into())
        }
        (B::Avg, 1) => {
            let atoms = atomize(&args[0], store);
            if atoms.is_empty() {
                return Ok(Sequence::empty());
            }
            let n = atoms.len() as f64;
            let total = fold_numeric(&atoms, "fn:avg")?;
            let total = match total {
                Atomic::Int(i) => i as f64,
                Atomic::Dbl(d) => d,
                _ => unreachable!(),
            };
            Ok(Atomic::Dbl(total / n).into())
        }
        (B::Min, 1) | (B::Max, 1) => {
            let atoms = atomize(&args[0], store);
            if atoms.is_empty() {
                return Ok(Sequence::empty());
            }
            let want = if builtin == B::Min {
                Ordering::Less
            } else {
                Ordering::Greater
            };
            let mut best = atoms[0].clone();
            for a in &atoms[1..] {
                match compare_atomics(a, &best) {
                    Some(ord) if ord == want => best = a.clone(),
                    Some(_) => {}
                    None => {
                        return Err(Error::new(
                            ErrorCode::FORG0006,
                            format!("fn:{}: incomparable values", builtin.name()),
                        ))
                    }
                }
            }
            Ok(Item::Atomic(best).into())
        }

        // ---------------- strings ----------------
        (B::Concat, _) => {
            let mut out = String::new();
            for a in args.iter() {
                if a.len() > 1 {
                    return Err(Error::new(
                        ErrorCode::XPTY0004,
                        "fn:concat arguments must be single items",
                    ));
                }
                if let Some(item) = a.as_singleton() {
                    out.push_str(&atomize_item(item, store).to_text());
                }
            }
            Ok(Atomic::Str(out.into()).into())
        }
        (B::StringJoin, 2) => {
            let sep = string_arg(&args[1], store)?;
            let parts: Vec<String> = atomize(&args[0], store)
                .iter()
                .map(|a| a.to_text())
                .collect();
            Ok(Atomic::Str(parts.join(&sep).into()).into())
        }
        (B::Substring, n) => {
            let s = string_arg(&args[0], store)?;
            let start = xpath_round(double_arg(&args[1], store)?);
            let len = (n == 3)
                .then(|| double_arg(&args[2], store).map(xpath_round))
                .transpose()?;
            let out: String = s
                .chars()
                .enumerate()
                .filter(|(i, _)| {
                    let p = (i + 1) as f64;
                    // Same bounds discipline as fn:subsequence above.
                    match len {
                        Some(len) => p >= start && p < start + len,
                        None => p >= start,
                    }
                })
                .map(|(_, c)| c)
                .collect();
            Ok(Atomic::Str(out.into()).into())
        }
        (B::StringLength, n) => {
            let s = if n == 0 {
                let item = ctx.context_item(cx.galax_quirks, position)?;
                item_string_value(item, store)
            } else {
                string_arg(&args[0], store)?
            };
            Ok(Item::integer(s.chars().count() as i64).into())
        }
        (B::NormalizeSpace, n) => {
            let s = if n == 0 {
                let item = ctx.context_item(cx.galax_quirks, position)?;
                item_string_value(item, store)
            } else {
                string_arg(&args[0], store)?
            };
            Ok(Atomic::Str(s.split_whitespace().collect::<Vec<_>>().join(" ").into()).into())
        }
        (B::UpperCase, 1) => {
            Ok(Atomic::Str(string_arg(&args[0], store)?.to_uppercase().into()).into())
        }
        (B::LowerCase, 1) => {
            Ok(Atomic::Str(string_arg(&args[0], store)?.to_lowercase().into()).into())
        }
        (B::Contains, 2) => {
            let (s, t) = (string_arg(&args[0], store)?, string_arg(&args[1], store)?);
            Ok(Item::boolean(s.contains(&t)).into())
        }
        (B::StartsWith, 2) => {
            let (s, t) = (string_arg(&args[0], store)?, string_arg(&args[1], store)?);
            Ok(Item::boolean(s.starts_with(&t)).into())
        }
        (B::EndsWith, 2) => {
            let (s, t) = (string_arg(&args[0], store)?, string_arg(&args[1], store)?);
            Ok(Item::boolean(s.ends_with(&t)).into())
        }
        (B::SubstringBefore, 2) => {
            let (s, t) = (string_arg(&args[0], store)?, string_arg(&args[1], store)?);
            let out = s.find(&t).map(|i| s[..i].to_string()).unwrap_or_default();
            Ok(Atomic::Str(out.into()).into())
        }
        (B::SubstringAfter, 2) => {
            let (s, t) = (string_arg(&args[0], store)?, string_arg(&args[1], store)?);
            let out = s
                .find(&t)
                .map(|i| s[i + t.len()..].to_string())
                .unwrap_or_default();
            Ok(Atomic::Str(out.into()).into())
        }
        (B::Translate, 3) => {
            let s = string_arg(&args[0], store)?;
            let from: Vec<char> = string_arg(&args[1], store)?.chars().collect();
            let to: Vec<char> = string_arg(&args[2], store)?.chars().collect();
            let out: String = s
                .chars()
                .filter_map(|c| match from.iter().position(|&f| f == c) {
                    Some(i) => to.get(i).copied(),
                    None => Some(c),
                })
                .collect();
            Ok(Atomic::Str(out.into()).into())
        }
        (B::Tokenize, 2) => {
            // Literal separator, not a regex (documented deviation).
            let s = string_arg(&args[0], store)?;
            let sep = string_arg(&args[1], store)?;
            if sep.is_empty() {
                return Err(Error::new(
                    ErrorCode::FORG0001,
                    "fn:tokenize: empty separator",
                ));
            }
            Ok(s.split(&sep as &str)
                .map(|part| Item::string(part.to_string()))
                .collect())
        }
        (B::Replace, 3) => {
            // Literal find/replace, not a regex (documented deviation).
            let s = string_arg(&args[0], store)?;
            let find = string_arg(&args[1], store)?;
            let with = string_arg(&args[2], store)?;
            if find.is_empty() {
                return Err(Error::new(ErrorCode::FORG0001, "fn:replace: empty pattern"));
            }
            Ok(Atomic::Str(s.replace(&find as &str, &with).into()).into())
        }

        // ---------------- error & trace ----------------
        (B::ErrorFn, n) => {
            let message = if n >= 1 {
                join_atomized(&args[0], store)
            } else {
                "fn:error".to_string()
            };
            let mut err = Error::new(ErrorCode::FOER0000, message).at(position.0, position.1);
            if n >= 1 {
                err = err.with_value(take(&mut args[0]));
            }
            Err(err)
        }
        (B::Trace, _) => {
            // Prints all arguments, returns the value of the LAST one — the
            // early-Galax contract the paper's tracing idiom depends on.
            // Routed as a structured event: label = everything but the last
            // argument, value = the last (the returned one).
            let mut rendered: Vec<String> =
                args.iter().map(|a| display_sequence(a, store)).collect();
            let value = rendered.pop().unwrap();
            cx.trace.event(TraceEvent {
                label: rendered.join(" "),
                value,
                position,
            });
            Ok(take(args.last_mut().expect("fn:trace has an argument")))
        }

        _ => Err(Error::new(
            ErrorCode::XPST0017,
            format!("unknown builtin {}#{}", builtin.name(), args.len()),
        )
        .at(position.0, position.1)),
    }
}

/// The string value of one item.
pub fn item_string_value(item: &Item, store: &Store) -> String {
    match item {
        Item::Atomic(a) => a.to_text(),
        Item::Node(n) => store.string_value(*n),
    }
}

/// [`item_string_value`] without the copy: string-ish atomics and leaf nodes
/// hand back their shared payload. `fn:string` — the paper code's favourite
/// accessor — rides this on every dedup/sort key.
pub fn item_string_value_arc(item: &Item, store: &Store) -> std::sync::Arc<str> {
    match item {
        Item::Atomic(Atomic::Str(s) | Atomic::Untyped(s)) => s.clone(),
        Item::Atomic(a) => a.to_text().into(),
        Item::Node(n) => store.string_value_arc(*n),
    }
}

/// Human-readable rendering of a sequence (used by `trace` and the engine's
/// display API): atomics as text, nodes serialized, space-separated.
pub fn display_sequence(seq: &Sequence, store: &Store) -> String {
    seq.iter()
        .map(|item| match item {
            Item::Atomic(a) => a.to_text(),
            Item::Node(n) => store.to_xml(*n),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn string_arg(seq: &Sequence, store: &Store) -> Result<String> {
    match seq.as_singleton() {
        Some(item) => Ok(item_string_value(item, store)),
        None if seq.is_empty() => Ok(String::new()),
        None => Err(Error::new(
            ErrorCode::XPTY0004,
            "expected a single string argument",
        )),
    }
}

fn double_arg(seq: &Sequence, store: &Store) -> Result<f64> {
    let atoms = atomize(seq, store);
    match atoms.as_slice() {
        [a] => a
            .as_number()
            .or_else(|| match a {
                Atomic::Str(s) => s.trim().parse().ok(),
                _ => None,
            })
            .ok_or_else(|| Error::new(ErrorCode::FORG0001, "expected a numeric argument")),
        _ => Err(Error::new(
            ErrorCode::XPTY0004,
            "expected a single numeric argument",
        )),
    }
}

fn integer_arg(seq: &Sequence, store: &Store) -> Result<i64> {
    Ok(double_arg(seq, store)? as i64)
}

/// `fn:round` semantics: half rounds toward positive infinity (−2.5 → −2),
/// unlike `f64::round`'s half-away-from-zero (−2.5 → −3). NaN and ±INF pass
/// through unchanged. `fn:substring`/`fn:subsequence` round their start and
/// length arguments with *this* rule.
fn xpath_round(d: f64) -> f64 {
    if d.is_finite() {
        (d + 0.5).floor()
    } else {
        d
    }
}

fn numeric_unary(
    seq: &Sequence,
    store: &Store,
    int_op: impl Fn(i64) -> i64,
    dbl_op: impl Fn(f64) -> f64,
) -> Result<Sequence> {
    let atoms = atomize(seq, store);
    match atoms.as_slice() {
        [] => Ok(Sequence::empty()),
        [Atomic::Int(i)] => Ok(Atomic::Int(int_op(*i)).into()),
        [a] => {
            let d = a.as_number().ok_or_else(|| {
                Error::new(
                    ErrorCode::XPTY0004,
                    format!("numeric function on {}", a.type_name()),
                )
            })?;
            Ok(Atomic::Dbl(dbl_op(d)).into())
        }
        _ => Err(Error::new(
            ErrorCode::XPTY0004,
            "numeric function on a sequence",
        )),
    }
}

fn fold_numeric(atoms: &[Atomic], what: &str) -> Result<Atomic> {
    let mut int_total: Option<i64> = Some(0);
    let mut dbl_total = 0.0;
    for a in atoms {
        match a {
            Atomic::Int(i) => {
                int_total = int_total.and_then(|t| t.checked_add(*i));
                dbl_total += *i as f64;
            }
            other => {
                let d = other.as_number().ok_or_else(|| {
                    Error::new(
                        ErrorCode::FORG0006,
                        format!("{what}: non-numeric value {:?}", other.to_text()),
                    )
                })?;
                int_total = None;
                dbl_total += d;
            }
        }
    }
    Ok(match int_total {
        Some(i) => Atomic::Int(i),
        None => Atomic::Dbl(dbl_total),
    })
}
