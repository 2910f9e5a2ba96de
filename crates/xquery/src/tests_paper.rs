//! Tests that reproduce, item by item, the behaviours the paper reports —
//! most importantly the T1 indexing table from §"Data Structures and
//! Abstractions" and the attribute-folding examples from §"Treatment of
//! Child Elements".

use crate::engine::{DupAttrPolicy, Engine, EngineOptions};
use crate::error::ErrorCode;
use crate::value::{Item, Sequence};

fn engine() -> Engine {
    Engine::new()
}

/// Evaluates with $X, $Y, $Z bound to the given XQuery fragments, returning
/// the display form of the result (or the error code's name).
fn t1_case(x: &str, y: &str, z: &str, body: &str) -> String {
    let mut e = engine();
    let src = format!("let $X := {x} let $Y := {y} let $Z := {z} return {body}");
    match e.evaluate_str(&src, None) {
        Ok(seq) if seq.is_empty() => "()".to_string(),
        Ok(seq) => e.display_sequence(&seq),
        Err(err) => format!("error:{}", err.code),
    }
}

/// The paper's table: `($X, $Y, $Z)` indexed with `[2]`.
/// | Result            | X            | Y                   | Z            | Gives |
#[test]
fn t1_sequence_indexing_table() {
    // Row 1: Y itself — 1, 2, 3 → 2
    assert_eq!(t1_case("1", "2", "3", "($X,$Y,$Z)[2]"), "2");
    // Row 2: Some part of Y — 1, (2,"2a"), 4 → 2
    assert_eq!(t1_case("1", "(2, \"2a\")", "4", "($X,$Y,$Z)[2]"), "2");
    // Row 3: Z — 1, (), 3 → 3
    assert_eq!(t1_case("1", "()", "3", "($X,$Y,$Z)[2]"), "3");
    // Row 4: A part of X — ("1a","1b"), 2, 3 → "1b"
    assert_eq!(t1_case("(\"1a\",\"1b\")", "2", "3", "($X,$Y,$Z)[2]"), "1b");
    // Row 5: A part of Z — 1, (), ("3a","3b"). The paper's table prints
    // "3b", but the flattened sequence is (1, "3a", "3b"), whose second item
    // is "3a" — a one-off erratum in the paper (the row label "a part of Z"
    // is right either way). We assert the actual XQuery semantics and record
    // the erratum in EXPERIMENTS.md.
    assert_eq!(t1_case("1", "()", "(\"3a\",\"3b\")", "($X,$Y,$Z)[2]"), "3a");
    // Row 6: Nothing — (), (2), () → ()
    assert_eq!(t1_case("()", "(2)", "()", "($X,$Y,$Z)[2]"), "()");
}

/// The element-representation column of the same table:
/// `<el>{$X}{$Y}{$Z}</el>/*[2]` — plus the error row, where Y is an
/// attribute node in content position after text-producing X.
#[test]
fn t1_element_children_variant() {
    // With single-item values the children are *text* (atomics become text),
    // so /*[2] (elements only) is empty — instead, element-valued items:
    assert_eq!(
        t1_case(
            "<a>1</a>",
            "<b>2</b>",
            "<c>3</c>",
            "<el>{$X}{$Y}{$Z}</el>/*[2]/string(.)"
        ),
        "2"
    );
    // Y empty: the second element child is Z's.
    assert_eq!(
        t1_case(
            "<a>1</a>",
            "()",
            "<c>3</c>",
            "<el>{$X}{$Y}{$Z}</el>/*[2]/string(.)"
        ),
        "3"
    );
    // Y a two-element sequence: part of Y.
    assert_eq!(
        t1_case(
            "<a>1</a>",
            "(<b1>2</b1>, <b2>2a</b2>)",
            "<c>4</c>",
            "<el>{$X}{$Y}{$Z}</el>/*[2]/string(.)"
        ),
        "2"
    );
    // The error row: Y an attribute node after non-attribute content.
    assert_eq!(
        t1_case(
            "1",
            "attribute y {\"why?\"}",
            "2",
            "<el>{$X}{$Y}{$Z}</el>/*[2]"
        ),
        "error:XQTY0024"
    );
}

/// §Treatment of Child Elements, example 1:
/// `let $x := attribute troubles {1} return <el> {$x} </el>`
/// returns `<el troubles="1"/>`.
#[test]
fn attribute_folds_into_parent() {
    let mut e = engine();
    let out = e
        .evaluate_str(
            "let $x := attribute troubles {1} return <el> {$x} </el>",
            None,
        )
        .unwrap();
    assert_eq!(e.serialize_sequence(&out), "<el troubles=\"1\"/>");
}

/// §Treatment of Child Elements, example 3: attribute in the wrong position
/// (after a non-attribute) causes an error.
#[test]
fn attribute_after_content_is_an_error() {
    let mut e = engine();
    let err = e
        .evaluate_str(
            "let $x := attribute troubles {1} return <el> \"doom\" {$x} </el>",
            None,
        )
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::XQTY0024);
}

/// §Treatment of Child Elements, example 2: duplicate attribute names —
/// "can produce one of two results", and Galax kept both.
#[test]
fn duplicate_attributes_three_ways() {
    let src = r#"
        let $a := attribute a {1}
        let $b := attribute a {2}
        let $c := attribute b {3}
        return <el> {$a}{$b}{$c} </el>
    "#;

    let mut keep_first = Engine::with_options(EngineOptions {
        dup_attr_policy: DupAttrPolicy::KeepFirst,
        ..Default::default()
    });
    let out = keep_first.evaluate_str(src, None).unwrap();
    assert_eq!(keep_first.serialize_sequence(&out), "<el a=\"1\" b=\"3\"/>");

    let mut keep_last = Engine::with_options(EngineOptions {
        dup_attr_policy: DupAttrPolicy::KeepLast,
        ..Default::default()
    });
    let out = keep_last.evaluate_str(src, None).unwrap();
    assert_eq!(keep_last.serialize_sequence(&out), "<el a=\"2\" b=\"3\"/>");

    let mut strict = Engine::with_options(EngineOptions {
        dup_attr_policy: DupAttrPolicy::Error,
        ..Default::default()
    });
    assert_eq!(
        strict.evaluate_str(src, None).unwrap_err().code,
        ErrorCode::XQDY0025
    );

    // Galax: both attributes survive.
    let mut galax = Engine::galax();
    let out = galax.evaluate_str(src, None).unwrap();
    assert_eq!(
        galax.serialize_sequence(&out),
        "<el a=\"1\" a=\"2\" b=\"3\"/>"
    );
}

/// Element content merges adjacent text into one text node and drops
/// zero-length text nodes (XQuery 1.0 §3.7.1.3), whether the text comes
/// from literal text, atomic values or text nodes — through the lowered
/// runner with its push mode on and off, and through the reference walker.
#[test]
fn content_merges_adjacent_text_and_drops_empty_text() {
    let cases = [
        ("count(<a>x{text{\"y\"}}</a>/node())", "1"),
        ("count(<a>{text{\"x\"}, text{\"y\"}}</a>/node())", "1"),
        ("count(<a>{\"p\", text{\"y\"}, \"q\"}</a>/node())", "1"),
        ("count(<a>{<b/>/text(), text{\"\"}}</a>/node())", "0"),
        ("string(<a>{\"p\", text{\"y\"}, \"q\"}</a>)", "pyq"),
        ("count(element a {text{\"x\"}, \"z\"}/node())", "1"),
    ];
    for runtime_opt in [true, false] {
        let mut e = Engine::with_options(EngineOptions {
            runtime_opt,
            ..Default::default()
        });
        for (src, expected) in cases {
            let q = e.compile(src).unwrap();
            let lowered = e.evaluate(&q, None).unwrap();
            assert_eq!(e.display_sequence(&lowered), expected, "{src}");
            let reference = e.evaluate_reference(&q, None).unwrap();
            assert_eq!(e.display_sequence(&reference), expected, "{src}");
        }
    }
}

/// XQuery 1.0 §3.7.1.3 deletes zero-length text nodes before it checks
/// for an attribute after other content, so empty text ahead of an
/// attribute does not make it an error; non-empty text still does.
#[test]
fn zero_length_text_before_an_attribute_is_not_content() {
    let cases = [
        (r#"<a>{"", attribute x {1}}</a>"#, Ok(r#"<a x="1"/>"#)),
        (
            r#"<a>{text {""}, attribute x {1}}</a>"#,
            Ok(r#"<a x="1"/>"#),
        ),
        (r#"<a>{""}{attribute x {1}}</a>"#, Ok(r#"<a x="1"/>"#)),
        (
            r#"element a {"", attribute x {1}, "b"}"#,
            Ok(r#"<a x="1">b</a>"#),
        ),
        (r#"<a>{" ", attribute x {1}}</a>"#, Err(ErrorCode::XQTY0024)),
        (
            r#"<a>{"", "", attribute x {1}}</a>"#,
            Err(ErrorCode::XQTY0024),
        ),
    ];
    for runtime_opt in [true, false] {
        let mut e = Engine::with_options(EngineOptions {
            runtime_opt,
            ..Default::default()
        });
        for (src, expected) in cases {
            let q = e.compile(src).unwrap();
            for lowered in [true, false] {
                let out = if lowered {
                    e.evaluate(&q, None)
                } else {
                    e.evaluate_reference(&q, None)
                };
                let got = out.map(|v| e.display_sequence(&v)).map_err(|err| err.code);
                assert_eq!(
                    got,
                    expected.map(str::to_string),
                    "{src} (runtime_opt {runtime_opt}, lowered {lowered})"
                );
            }
        }
    }
}

/// `document { … }` builds a document node: its content's documents splice
/// their children, adjacent text merges, and an attribute is an error.
/// The lowered runner (both `runtime_opt` values) and the reference walker
/// agree on each.
#[test]
fn computed_document_constructors_build_a_document_node() {
    let cases = [
        ("document {<d/>}", Ok("<d/>")),
        ("document {<d/>} instance of document-node()", Ok("true")),
        ("count(document {<a/>, <b/>}/*)", Ok("2")),
        (r#"document {"x", 1, text {"y"}}"#, Ok("x 1y")),
        ("document {document {<d/>}, <e/>}", Ok("<d/><e/>")),
        ("count(document {document {<d/>}}/node())", Ok("1")),
        ("<w>{document {<d/>, \"t\"}}</w>", Ok("<w><d/>t</w>")),
        (
            r#"let $d := document { <r><i k="a"/><i k="b"/><i k="a"/></r> } return count($d/r/i[@k = "a"])"#,
            Ok("2"),
        ),
        (r#"document {attribute x {1}}"#, Err(ErrorCode::XPTY0004)),
        (
            r#"document {<d/>, attribute x {1}}"#,
            Err(ErrorCode::XPTY0004),
        ),
    ];
    for runtime_opt in [true, false] {
        let mut e = Engine::with_options(EngineOptions {
            runtime_opt,
            ..Default::default()
        });
        for (src, expected) in cases {
            let q = e.compile(src).unwrap();
            for lowered in [true, false] {
                let out = if lowered {
                    e.evaluate(&q, None)
                } else {
                    e.evaluate_reference(&q, None)
                };
                let got = out.map(|v| e.display_sequence(&v)).map_err(|err| err.code);
                assert_eq!(
                    got,
                    expected.map(str::to_string),
                    "{src} (runtime_opt {runtime_opt}, lowered {lowered})"
                );
            }
        }
    }
}

/// `element {name($n)}` takes the node's name as it is, and any other
/// argument of `fn:name` gives the builtin's own result or error: the
/// lowered runner (both `runtime_opt` values) and the reference walker
/// agree on each.
#[test]
fn computed_names_from_fn_name_match_the_builtin() {
    let doc = r#"<r><p:x xmlns:p="u" p:k="1"/><y k="2"/>t</r>"#;
    let cases = [
        (
            "for $n in /r/* return element {name($n)} {}",
            Ok("<p:x/> <y/>"),
        ),
        (
            "for $a in /r/*/@* return element {name($a)} {}",
            Ok("<xmlns:p/> <p:k/> <k/>"),
        ),
        (
            "for $n in /r/* return attribute {name($n)} {1}",
            Ok(r#"p:x="1" y="1""#),
        ),
        (
            "element {name(/r/y)} {element {local-name(/r/*[1])} {}}",
            Ok("<y><x/></y>"),
        ),
        ("element {name(())} {}", Err(ErrorCode::FORG0001)),
        ("element {name(/r/text())} {}", Err(ErrorCode::FORG0001)),
        ("element {name(/r/*)} {}", Err(ErrorCode::FORG0001)),
        ("element {name(1)} {}", Err(ErrorCode::XPTY0004)),
        ("element {name(error())} {}", Err(ErrorCode::FOER0000)),
    ];
    for runtime_opt in [true, false] {
        let mut e = Engine::with_options(EngineOptions {
            runtime_opt,
            ..Default::default()
        });
        let root = e.load_document(doc).unwrap();
        for (src, expected) in cases {
            let q = e.compile(src).unwrap();
            for lowered in [true, false] {
                let out = if lowered {
                    e.evaluate(&q, Some(root))
                } else {
                    e.evaluate_reference(&q, Some(root))
                };
                let got = out.map(|v| e.display_sequence(&v)).map_err(|err| err.code);
                assert_eq!(
                    got,
                    expected.map(str::to_string),
                    "{src} (runtime_opt {runtime_opt}, lowered {lowered})"
                );
            }
        }
    }
}

/// §Syntactic Quirks item 4 — run through the engine end to end.
#[test]
fn existential_equals_end_to_end() {
    let mut e = engine();
    let check = |e: &mut Engine, src: &str, expect: &str| {
        let out = e.evaluate_str(src, None).unwrap();
        assert_eq!(e.display_sequence(&out), expect, "{src}");
    };
    check(&mut e, "1 = (1,2,3)", "true");
    check(&mut e, "(1,2,3) = 3", "true");
    check(&mut e, "1 = 3", "false");
    // the singleton operator rejects the sequence outright
    assert_eq!(
        e.evaluate_str("1 eq (1,2,3)", None).unwrap_err().code,
        ErrorCode::XPTY0004
    );
}

/// §Syntactic Quirks item 1 — forgetting the `$`: `x` is a child step, and
/// with no context item Galax says exactly what the paper quotes.
#[test]
fn forgotten_dollar_gives_glx_dot_error() {
    let mut galax = Engine::galax();
    let err = galax.evaluate_str("x", None).unwrap_err();
    assert_eq!(
        err.message,
        "Internal_Error: Variable '$glx:dot' not found."
    );
    assert!(err.position.is_none());

    // The fixed engine gives a position and a sensible message.
    let mut fixed = engine();
    let err = fixed.evaluate_str("x", None).unwrap_err();
    assert_eq!(err.code, ErrorCode::XPDY0002);
    assert!(err.position.is_some());
}

/// An unbound variable in quirks mode uses the same "Internal_Error" shape.
#[test]
fn unbound_variable_messages() {
    let mut galax = Engine::galax();
    let err = galax.evaluate_str("$nope", None).unwrap_err();
    assert_eq!(err.message, "Internal_Error: Variable '$nope' not found.");

    let mut fixed = engine();
    let err = fixed.evaluate_str("$nope", None).unwrap_err();
    assert_eq!(err.code, ErrorCode::XPST0008);
}

/// The paper's XPath tour: kids, grandkids, positional and attribute
/// predicates, `parent::`, and the quantifier example.
#[test]
fn xpath_tour() {
    let mut e = engine();
    let doc = e
        .load_document(
            r#"<family>
                <kid year="1983"><grandkid/><grandkid/></kid>
                <kid year="1990"><grandkid/></kid>
               </family>"#,
        )
        .unwrap();
    e.bind_node("x", e.store().document_element(doc).unwrap());

    let count = |e: &mut Engine, src: &str| {
        let out = e.evaluate_str(src, None).unwrap();
        e.display_sequence(&out)
    };
    assert_eq!(count(&mut e, "count($x/kid)"), "2");
    assert_eq!(count(&mut e, "count($x//grandkid)"), "3");
    assert_eq!(count(&mut e, "string($x/kid[1]/@year)"), "1983");
    assert_eq!(count(&mut e, "count($x/kid[@year=\"1983\"])"), "1");
    assert_eq!(
        count(&mut e, "count($x/kid[1]/grandkid[1]/parent::kid)"),
        "1"
    );
    assert_eq!(
        count(
            &mut e,
            "some $y in $x/kid satisfies count($y//grandkid) gt count($y//nothing)"
        ),
        "true"
    );
}

/// Sets of strings work as sequences; sets of sequences can't exist. This is
/// the "set of string" compromise the project settled on.
#[test]
fn set_of_strings_idiom() {
    let mut e = engine();
    // membership via `=`; insertion via concat; dedup via distinct-values
    let src = r#"
        let $set := ("a", "b")
        let $set2 := distinct-values(($set, "b", "c"))
        return (count($set2), $set2 = "c", $set2 = "z")
    "#;
    let out = e.evaluate_str(src, None).unwrap();
    assert_eq!(e.display_sequence(&out), "3 true false");
}

/// "making a list of the points (1,2) and (3,4) actually makes a list of
/// four numbers, not two two-element lists."
#[test]
fn points_as_lists_break() {
    let mut e = engine();
    let out = e
        .evaluate_str(
            "let $p1 := (1,2) let $p2 := (3,4) return count(($p1, $p2))",
            None,
        )
        .unwrap();
    assert_eq!(e.display_sequence(&out), "4");
}

/// Points as XML values survive: `<point x="1" y="2"/>`.
#[test]
fn points_as_xml_work() {
    let mut e = engine();
    let out = e
        .evaluate_str(
            r#"let $p1 := <point x="1" y="2"/>
               let $p2 := <point x="3" y="4"/>
               return (count(($p1, $p2)), string(($p1,$p2)[2]/@y))"#,
            None,
        )
        .unwrap();
    assert_eq!(e.display_sequence(&out), "2 4");
}

/// The FOR/RETURN flattening rationale examples from §XQuery's Rationale.
#[test]
fn flattening_rationale_examples() {
    let mut e = engine();
    let doc = e
        .load_document("<r><a><c>1</c><c>2</c></a><a><c>3</c></a></r>")
        .unwrap();
    e.bind_node("r", e.store().document_element(doc).unwrap());
    // One-dimensional result of nested FORs.
    let out = e
        .evaluate_str(
            "for $a in $r/a return for $c in $a/c return string($c)",
            None,
        )
        .unwrap();
    assert_eq!(e.display_sequence(&out), "1 2 3");
    // Searching unifies with accumulating: a singleton needs no unwrapping.
    let out = e
        .evaluate_str(
            "(for $c in $r//c where string($c) = \"2\" return $c)[1]/string(.)",
            None,
        )
        .unwrap();
    assert_eq!(e.display_sequence(&out), "2");
}

/// The error-value convention the document generator used: a function
/// returning `<error>` markup that callers must test for.
#[test]
fn error_value_convention_roundtrip() {
    let src = r#"
        declare function local:first($seq) {
            if (empty($seq))
            then <error><message>There should have been at least one item, but there were none.</message></error>
            else $seq[1]
        };
        declare function local:is-error($v) {
            some $i in $v satisfies $i instance of element(error)
        };
        (local:is-error(local:first(())), local:is-error(local:first((7,8))))
    "#;
    let mut e = engine();
    let out = e.evaluate_str(src, None).unwrap();
    assert_eq!(e.display_sequence(&out), "true false");
}

/// A function can legitimately return an <error> element as a *value* —
/// the convention's fatal ambiguity (footnote 1).
#[test]
fn error_value_convention_is_ambiguous() {
    let src = r#"
        declare function local:first($seq) {
            if (empty($seq))
            then <error><message>empty</message></error>
            else $seq[1]
        };
        declare function local:is-error($v) {
            some $i in $v satisfies $i instance of element(error)
        };
        (: the caller stored a real <error> element in the list… :)
        local:is-error(local:first((<error/>, <fine/>)))
    "#;
    let mut e = engine();
    let out = e.evaluate_str(src, None).unwrap();
    // False positive: a legitimate value is mistaken for a failure.
    assert_eq!(e.display_sequence(&out), "true");
}

/// Multiple return values via a sequence get blended — the reason the
/// project moved to XML-structured returns and then to phases.
#[test]
fn multiple_returns_blend() {
    let mut e = engine();
    let src = r#"
        declare function local:gen() {
            (: wants to return (doc-part, observed-ids, toc-entries) :)
            (("part"), ("n1", "n2"), ("toc1"))
        };
        count(local:gen())
    "#;
    let out = e.evaluate_str(src, None).unwrap();
    assert_eq!(
        e.display_sequence(&out),
        "4",
        "three 'values' became four items"
    );
}

/// The INTERNAL-DATA phase-communication pattern in miniature.
#[test]
fn internal_data_phases() {
    let mut e = engine();
    // Phase 1: generate with breadcrumbs.
    let phase1 = e
        .evaluate_str(
            r#"<doc><sec>one<INTERNAL-DATA><VISITED node-id="N1"/></INTERNAL-DATA></sec>
               <sec>two<INTERNAL-DATA><VISITED node-id="N2"/></INTERNAL-DATA></sec></doc>"#,
            None,
        )
        .unwrap();
    let doc_node = phase1.as_singleton().unwrap().as_node().unwrap();
    e.bind_node("doc", doc_node);
    // Phase 2: read the breadcrumbs.
    let out = e
        .evaluate_str("for $v in $doc//VISITED return string($v/@node-id)", None)
        .unwrap();
    assert_eq!(e.display_sequence(&out), "N1 N2");
    // Final phase: copy everything but INTERNAL-DATA.
    let out = e
        .evaluate_str(
            r#"<doc>{ for $s in $doc/sec return <sec>{ $s/text() }</sec> }</doc>"#,
            None,
        )
        .unwrap();
    assert_eq!(
        e.serialize_sequence(&out),
        "<doc><sec>one</sec><sec>two</sec></doc>"
    );
}

/// Binary search in XQuery — one of the 15 uses of division. Exercises
/// recursion, idiv, and subsequence.
#[test]
fn binary_search_in_xquery() {
    let src = r#"
        declare function local:bsearch($seq, $target, $lo as xs:integer, $hi as xs:integer) {
            if ($lo gt $hi) then ()
            else
                let $mid := ($lo + $hi) idiv 2
                let $v := $seq[$mid]
                return
                    if ($v eq $target) then $mid
                    else if ($v lt $target) then local:bsearch($seq, $target, $mid + 1, $hi)
                    else local:bsearch($seq, $target, $lo, $mid - 1)
        };
        let $data := (2, 3, 5, 7, 11, 13, 17, 19)
        return (local:bsearch($data, 11, 1, 8), count(local:bsearch($data, 4, 1, 8)))
    "#;
    let mut e = engine();
    let out = e.evaluate_str(src, None).unwrap();
    assert_eq!(e.display_sequence(&out), "5 0");
}

/// "a bit of trigonometry" — most of the project's 15 uses of division.
/// XQuery has no trig functions, so the team would have hand-rolled them;
/// here is sine by Taylor series, in pure XQuery, exercising `div`,
/// recursion, and doubles.
#[test]
fn trigonometry_in_xquery() {
    let src = r#"
        declare function local:sin-term($x, $term, $n, $limit) {
            if ($n ge $limit) then ()
            else
                let $next := $term * (-1) * $x * $x div ((2 * $n) * (2 * $n + 1))
                return ($term, local:sin-term($x, $next, $n + 1, $limit))
        };
        declare function local:sin($x) {
            sum(local:sin-term($x, $x, 1, 12))
        };
        (: sin(pi/6) = 0.5, sin(0) = 0 :)
        (local:sin(0.5235987755982988), local:sin(0))
    "#;
    let mut e = engine();
    let out = e.evaluate_str(src, None).unwrap();
    let shown = e.display_sequence(&out);
    let parts: Vec<&str> = shown.split(' ').collect();
    let sin_pi_6: f64 = parts[0].parse().unwrap();
    assert!((sin_pi_6 - 0.5).abs() < 1e-9, "{shown}");
    assert_eq!(parts[1], "0");
}

/// The "set of string" data structure the project settled on after generic
/// sets proved impossible — "for which sequences do work".
#[test]
fn set_of_strings_library() {
    let src = r#"
        declare function local:set-insert($set, $value as xs:string) {
            if ($set = $value) then $set else ($set, $value)
        };
        declare function local:set-member($set, $value as xs:string) {
            $set = $value
        };
        declare function local:set-union($a, $b) {
            distinct-values(($a, $b))
        };
        declare function local:set-without($set, $value as xs:string) {
            for $s in $set where not($s eq $value) return $s
        };
        let $s := local:set-insert(local:set-insert(local:set-insert((), "a"), "b"), "a")
        return (count($s),
                local:set-member($s, "b"),
                local:set-member($s, "z"),
                count(local:set-union($s, ("b", "c"))),
                count(local:set-without($s, "a")))
    "#;
    let mut e = engine();
    let out = e.evaluate_str(src, None).unwrap();
    assert_eq!(e.display_sequence(&out), "2 true false 3 1");
}

/// …and the reason it had to be strings: a "set" of sequences flattens, and
/// a set of attribute nodes can't even be serialized into an element safely.
#[test]
fn generic_sets_are_impossible() {
    let mut e = engine();
    // points-as-sequences blend:
    let out = e
        .evaluate_str(
            "let $set := ((1,2)) let $set2 := ($set, (3,4)) return count($set2)",
            None,
        )
        .unwrap();
    assert_eq!(
        e.display_sequence(&out),
        "4",
        "two points became four numbers"
    );
}

/// without-leading-or-trailing-spaces and child-element-named — the utility
/// functions the team wrote "that XQuery chose not to provide".
#[test]
fn diy_utility_functions() {
    let src = r#"
        declare function local:without-leading-or-trailing-spaces($s) {
            normalize-space(string($s))
        };
        declare function local:child-element-named($parent, $name) {
            $parent/*[name(.) = $name]
        };
        let $el := <p><a>1</a><b>2</b></p>
        return (local:without-leading-or-trailing-spaces("  x y  "),
                string(local:child-element-named($el, "b")))
    "#;
    let mut e = engine();
    let out = e.evaluate_str(src, None).unwrap();
    assert_eq!(e.display_sequence(&out), "x y 2");
}

/// Moral #4, implemented: "A little language should provide exception
/// handling. A very rudimentary form … will do." With try/catch, the
/// error-value convention's half-dozen lines per call collapse back to
/// straight-line code — exactly what the Java rewrite bought, without
/// leaving the little language. (XQuery 3.0 standardized this in 2014.)
#[test]
fn moral_4_try_catch() {
    let mut e = engine();
    // straight-line code; trouble caught once at the top
    let src = r#"
        declare function local:required-child($el, $name) {
            let $c := $el/*[name(.) = $name]
            return
                if (empty($c)) then error(concat("no <", $name, "> child"))
                else ($c)[1]
        };
        let $tpl := <if><test/><then/></if>
        return
            try {
                let $t := local:required-child($tpl, "test")
                let $th := local:required-child($tpl, "then")
                let $el := local:required-child($tpl, "else")
                return "complete"
            } catch ($err) {
                concat("trouble: ", $err)
            }
    "#;
    let out = e.evaluate_str(src, None).unwrap();
    assert_eq!(e.display_sequence(&out), "trouble: no <else> child");
}

#[test]
fn try_catch_details() {
    let mut e = engine();
    let show = |e: &mut Engine, q: &str| {
        let out = e.evaluate_str(q, None).unwrap();
        e.display_sequence(&out)
    };
    // no error → try value
    assert_eq!(show(&mut e, "try { 1 + 1 } catch { 0 }"), "2");
    // catch without a variable
    assert_eq!(
        show(&mut e, "try { error(\"x\") } catch { \"caught\" }"),
        "caught"
    );
    // dynamic type errors are catchable too
    assert_eq!(
        show(&mut e, "try { 1 eq (1,2) } catch { \"typed\" }"),
        "typed"
    );
    // nested: inner catch wins
    assert_eq!(
        show(
            &mut e,
            "try { try { error(\"inner\") } catch { \"i\" } } catch { \"o\" }"
        ),
        "i"
    );
    // errors raised in the catch clause propagate
    assert!(e
        .evaluate_str("try { error(\"a\") } catch { error(\"b\") }", None)
        .is_err());
    // `try` is still a valid element name in paths
    assert!(matches!(
        crate::parser::parse_expr("$x/try"),
        Ok(crate::ast::Expr::Path { .. })
    ));
}

/// Node-set operators and node comparisons.
#[test]
fn set_operators_and_node_comparisons() {
    let mut e = engine();
    let doc = e
        .load_document("<r><a k='1'/><b/><a k='2'/><c/></r>")
        .unwrap();
    e.bind_node("r", e.store().document_element(doc).unwrap());

    let show = |e: &mut Engine, q: &str| {
        let out = e.evaluate_str(q, None).unwrap();
        e.display_sequence(&out)
    };
    // union in document order with dedup
    assert_eq!(show(&mut e, "count($r/a union $r/b)"), "3");
    assert_eq!(show(&mut e, "count(($r/a | $r/b) | $r/a)"), "3");
    assert_eq!(
        show(&mut e, "for $n in ($r/c | $r/a) return name($n)"),
        "a a c",
        "document order restored"
    );
    assert_eq!(show(&mut e, "count($r/* except $r/a)"), "2");
    assert_eq!(show(&mut e, "count($r/* intersect $r/a)"), "2");
    // node identity and order
    assert_eq!(show(&mut e, "($r/a)[1] is ($r/a)[1]"), "true");
    assert_eq!(show(&mut e, "($r/a)[1] is ($r/a)[2]"), "false");
    assert_eq!(show(&mut e, "($r/a)[1] << ($r/a)[2]"), "true");
    assert_eq!(show(&mut e, "($r/c)[1] >> ($r/b)[1]"), "true");
    // empty operands propagate
    assert_eq!(show(&mut e, "count(($r/zz is $r/a))"), "0");
    // atomic operands are type errors
    assert!(e.evaluate_str("1 union 2", None).is_err());
    assert!(e.evaluate_str("1 is 2", None).is_err());
}

/// The type system's dispatch construct (2004 WD `typeswitch`).
#[test]
fn typeswitch_dispatch() {
    let mut e = engine();
    let src = r#"
        declare function local:describe($v) {
            typeswitch ($v)
                case $s as xs:string return concat("string:", $s)
                case xs:integer return "integer"
                case $el as element(point) return concat("point x=", string($el/@x))
                case element() return "element"
                case empty-sequence() return "nothing"
                default $d return concat("other:", string(count($d)))
        };
        (local:describe("hi"),
         local:describe(7),
         local:describe(<point x="3"/>),
         local:describe(<blob/>),
         local:describe(()),
         local:describe((1,2,3)))
    "#;
    let out = e.evaluate_str(src, None).unwrap();
    assert_eq!(
        e.display_sequence(&out),
        "string:hi integer point x=3 element nothing other:3"
    );
}

#[test]
fn typeswitch_requires_case_and_default() {
    let mut e = engine();
    assert!(e
        .evaluate_str("typeswitch (1) default return 2", None)
        .is_err());
    assert!(e
        .evaluate_str("typeswitch (1) case xs:integer return 2", None)
        .is_err());
}

/// Pathologically nested input must error, not blow the parser's stack.
#[test]
fn deep_nesting_is_rejected_not_fatal() {
    let mut e = engine();
    // Each shape builds one tree level per repeat: parentheses, a run of
    // unary minus, left-associative operator chains, nested constructors.
    // The last nests `k` parentheses, each closing into a chain of `k`
    // operators: at `k` = 90 neither count reaches the budget, but the
    // tree is 8,190 levels deep.
    let shapes = |n: usize| {
        let k = n.isqrt().min(90);
        [
            format!("{}1{}", "(".repeat(n), ")".repeat(n)),
            format!("{}1", "-".repeat(n)),
            format!("1{}", "+1".repeat(n)),
            format!("1{}", " and 1".repeat(n)),
            format!("count({}{})", "<a>".repeat(n), "</a>".repeat(n)),
            format!(
                "{}1{}",
                "(".repeat(k),
                format!("){}", "+1".repeat(k)).repeat(k)
            ),
        ]
    };
    for deep in shapes(1_000_000) {
        let err = e.evaluate_str(&deep, None).unwrap_err();
        assert_eq!(err.code, ErrorCode::XPST0003, "{err}");
        assert!(
            err.message.starts_with("expression nesting deeper than"),
            "{}",
            err.message
        );
    }
    // Within the limit still works.
    let within: Vec<String> = shapes(100)
        .iter()
        .map(|src| {
            let out = e.evaluate_str(src, None).unwrap();
            e.display_sequence(&out)
        })
        .collect();
    assert_eq!(within, ["1", "1", "101", "true", "1", "101"]);
    // A chain is charged the height of its tree, not the sum of its
    // operands' depths: 60 three-call-deep terms stay well within budget.
    let term = "abs(abs(abs(1)))";
    for (op, answer) in [(" + ", "60"), (" or ", "true")] {
        let out = e.evaluate_str(&vec![term; 60].join(op), None).unwrap();
        assert_eq!(e.display_sequence(&out), answer);
    }
}

/// Sequences passed in from Rust behave identically to constructed ones.
#[test]
fn external_sequences_flatten() {
    let mut e = engine();
    let mut s = Sequence::empty();
    s.push(Item::integer(1));
    s.push_seq(
        vec![Item::integer(2), Item::integer(3)]
            .into_iter()
            .collect(),
    );
    e.bind("xs", s);
    let out = e.evaluate_str("count($xs)", None).unwrap();
    assert_eq!(e.display_sequence(&out), "3");
}
