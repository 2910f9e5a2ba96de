//! Differential tests: the lowered runner against the tree-walking
//! reference evaluator.
//!
//! Every query here is compiled ONCE and executed through both paths
//! ([`Engine::evaluate`] → lowered program, [`Engine::evaluate_reference`] →
//! tree walker); the two must agree on success values (displayed form),
//! error code, error message, error position, and the collected `fn:trace`
//! output — under every configuration of [`engine_configs`]: standard and
//! Galax-quirks options, the AST optimizer on and off, and each of those
//! with the runtime optimiser on and off.

use crate::engine::{Engine, EngineOptions};
use crate::value::{Item, Sequence};
use proptest::prelude::*;
use xmlstore::NodeId;

/// Runs one source both ways and asserts observable equivalence. Returns a
/// short outcome description for debugging.
fn assert_equivalent(e: &mut Engine, src: &str, doc: Option<NodeId>) -> Result<String, String> {
    let q = match e.compile(src) {
        Ok(q) => q,
        // Compile failures never reach either evaluator; nothing to compare.
        Err(err) => return Ok(format!("compile error: {}", err.message)),
    };
    e.take_trace();
    let lowered = e.evaluate(&q, doc);
    let lowered_trace = e.take_trace();
    let reference = e.evaluate_reference(&q, doc);
    let reference_trace = e.take_trace();

    if lowered_trace != reference_trace {
        return Err(format!(
            "trace mismatch on {src:?}: lowered {lowered_trace:?} vs reference {reference_trace:?}"
        ));
    }
    match (lowered, reference) {
        (Ok(a), Ok(b)) => {
            let (da, db) = (e.display_sequence(&a), e.display_sequence(&b));
            if da != db {
                return Err(format!("value mismatch on {src:?}: {da:?} vs {db:?}"));
            }
            Ok(format!("ok: {da}"))
        }
        (Err(a), Err(b)) => {
            if (a.code, &a.message, a.position) != (b.code, &b.message, b.position) {
                return Err(format!(
                    "error mismatch on {src:?}: {:?} {:?} at {:?} vs {:?} {:?} at {:?}",
                    a.code, a.message, a.position, b.code, b.message, b.position
                ));
            }
            Ok(format!("err: {}", a.message))
        }
        (Ok(a), Err(b)) => Err(format!(
            "lowered succeeded ({}) where reference failed ({}) on {src:?}",
            e.display_sequence(&a),
            b.message
        )),
        (Err(a), Ok(b)) => Err(format!(
            "lowered failed ({}) where reference succeeded ({}) on {src:?}",
            a.message,
            e.display_sequence(&b)
        )),
    }
}

const DOC: &str = "<lib genre='all'>\
    <book year='1983'><title>A</title><author>X</author></book>\
    <book year='2005'><title>B</title><author>Y</author><author>Z</author></book>\
    <book year='1990'><title>C</title></book>\
    <note>loose text</note>\
</lib>";

/// Hand-picked corpus exercising every expression family, including the
/// error paths and the Galax-quirk messages.
const CORPUS: &[&str] = &[
    // Variables, shadowing, FLWOR.
    "let $x := 1 return let $x := 2 return $x + $x",
    "for $i in (3,1,2) let $d := $i * 10 where $d > 10 order by $i descending return $d",
    "for $b at $i in //book return ($i, $b/title/string(.))",
    "for $b in //book order by number($b/@year) return $b/title",
    "let $x as xs:integer := 5 return $x",
    "let $x as xs:string := 5 return $x",
    // Unbound variables: quirks vs standard error, position included or not.
    "$nowhere",
    "let $a := 1 return $a-1",
    // Context item.
    ".",
    "position()",
    "/",
    // Paths, axes, predicates.
    "//book[@year=\"2005\"]/author",
    "//book[2]/title",
    "//book[position() = last()]",
    "/lib/book/title/..",
    "//author/ancestor::lib/@genre",
    "//title/following-sibling::author",
    "//book[author]/title/text()",
    "count(//node())",
    "//book union //note",
    "(//book union //note) intersect //book",
    "//book except //book[1]",
    "//book[1] is //book[1]",
    "//book[1] << //book[2]",
    // Arithmetic and comparisons.
    "6 div 4",
    "1 div 0",
    "7 idiv 0",
    "5 mod 0",
    "-(1,2)",
    "() + 1",
    "1 = (1,2,3)",
    "\"b\" gt \"a\"",
    "(1,2) eq 1",
    "2 to 5",
    // Functions: builtin, user, unknown, recursion.
    "string-join((\"a\",\"b\"), \"-\")",
    "concat(\"a\", 1, true())",
    "substring(\"lopsided\", 2, 3)",
    "declare function local:f($n as xs:integer) as xs:integer { if ($n le 1) then 1 else $n * local:f($n - 1) }; local:f(5)",
    "declare function local:g($s) { $s }; local:g((1,2,3))",
    "declare function local:h($s as xs:string) { $s }; local:h(7)",
    "no-such-function(1, 2)",
    "fn:count((1,2))",
    "declare function local:loop($n) { local:loop($n + 1) }; local:loop(0)",
    // Function frames are closure-free: $hidden is not captured.
    "declare function local:leak($p) { $p + $hidden }; let $hidden := 10 return local:leak(1)",
    // Globals.
    "declare variable $a := 2; declare variable $b := $a * 3; $b",
    "declare variable $v as xs:string := 9; $v",
    // Constructors.
    "<el a=\"x{1+1}\">t{2+2}</el>",
    "<out>{//book[1]/title}</out>",
    "<e>{attribute n {\"v\"}, \"body\"}</e>",
    "<e>{\"body\", attribute n {\"v\"}}</e>",
    "<e a=\"1\">{attribute a {\"2\"}}</e>",
    "element {concat(\"t\", \"ag\")} {1 + 1}",
    "element {()} {1}",
    "attribute q {(1,2,3)}",
    "text {(\"a\", \"b\")}",
    "comment {\"c\"}",
    "document {<d/>}",
    // Control flow, quantifiers, typeswitch, try/catch, casts.
    "if (//note) then \"has\" else \"none\"",
    "some $x in (1,2,3) satisfies $x gt 2",
    "every $x in () satisfies false()",
    "typeswitch (1.5) case $i as xs:integer return \"int\" case $d as xs:double return concat(\"dbl:\", $d) default return \"other\"",
    "try { 1 div 0 } catch ($e) { $e }",
    "try { error(\"boom\") } catch ($e) { concat(\"caught: \", $e) }",
    "\"7\" cast as xs:integer",
    "\"x\" cast as xs:integer",
    "\"x\" castable as xs:integer",
    "(1,2) instance of xs:integer+",
    // Trace (runner must feed the shared sink identically).
    "let $x := trace(\"x=\", 5) return $x + 1",
    "trace(\"a\", trace(\"b\", 1) + 1)",
];

/// Element constructors whose content the runner evaluates in push mode,
/// run against [`DOC`]: a constructor in each position that passes push
/// mode down (sequence, `if` branch, FLWOR `return`, the body of an
/// untyped impure call), the positions that must still copy, and the
/// folding errors, which must fire as when the whole content is evaluated
/// first.
const CONSTRUCT_CORPUS: &[&str] = &[
    // Pass-through positions.
    "<a>{(<b/>, <c>t</c>, \"x\", 1, 2)}</a>",
    "<a>{if (//note) then <b/> else <c/>}</a>",
    "<a>{for $b in //book let $t := $b/title where $b/@year > 1985 return <t y=\"{$b/@year}\">{string($t)}</t>}</a>",
    "declare function local:w($x) { <w>{$x}</w> }; <a>{local:w(1), local:w(<i/>), local:w(())}</a>",
    "<a>{text {\"x\"}, \"y\", text {()}, <b/>, text {\"\"}, \"z\"}</a>",
    "count(<a>{\"p\", text {\"y\"}, <b/>, text {\"\"}, \"q\", 1}</a>/node())",
    "element a { element b { attribute k {1}, \"t\" }, element {concat(\"c\", \"d\")} {} }",
    "declare function local:copy($n) { if ($n instance of element()) then element {name($n)} { $n/@*, for $c in $n/node() return local:copy($c) } else $n }; local:copy(/lib)",
    "declare function local:copy($n) { if ($n instance of element()) then element {name($n)} { $n/@*, for $c in $n/node() return local:copy($c) } else $n }; count(local:copy(/lib)//node())",
    // Positions that copy.
    "let $b := <b><c/></b> return <a>{$b, $b}</a>",
    "let $b := <b/> return (count(<a>{$b, $b}</a>/b), <a>{$b}</a>/b is $b)",
    "<a>{//book[1]/@*, //book[1]/title}</a>",
    "declare function local:p($x) { $x/title }; <a>{local:p(//book[1]), local:p(//book[1])}</a>",
    "<a>{try { <b/> } catch ($e) { <c/> }}</a>",
    "<a>{try { (<b/>, error()) } catch ($e) { <c>{$e}</c> }}</a>",
    "<a>{for $b in //book order by number($b/@year) return <y>{string($b/@year)}</y>}</a>",
    "<a>{for $b in //book for $t in //title where $t = $b/title return <m>{string($t)}</m>}</a>",
    "declare function local:t($x) as element() { <t>{$x}</t> }; <a>{local:t(1)}</a>",
    "declare function local:t($x) as xs:integer { <t/> }; <a>{local:t(1)}</a>",
    "declare function local:t($x as xs:integer) { <t/> }; <a>{local:t(\"s\")}</a>",
    "typeswitch (1) case xs:integer return <a>{<b/>}</a> default return ()",
    // Folding errors are held until the enclosed expression ends.
    "<a>{(<b/>, attribute x {1}, error())}</a>",
    "<a>{(<b/>, attribute x {1}, trace(\"after\", 1))}</a>",
    "<a>{trace(\"t1\", <b/>), attribute x {1}, trace(\"t2\", 2)}</a>",
    "<a>{<b/>, attribute x {1}}</a>",
    "<a>{<b/>}{attribute x {1}}</a>",
    "<a>{for $i in 1 to 2 return (<b/>, attribute x {$i})}</a>",
    "declare function local:w() { <w/> }; <a>{local:w(), attribute x {1}}</a>",
    "<a>{(<x/>, attribute q {1}, <b>{attribute y {1}, \"t\", attribute z {2}}</b>)}</a>",
    "<a>{attribute x {1}, attribute x {2}, <c/>}</a>",
    "<a>{attribute x {1}, for $i in 1 to 2 return attribute y {$i}, <b/>}</a>",
    "<a>{attribute x {1}, attribute x {2}, error()}</a>",
    "<a x=\"0\">{attribute x {1}, <b/>}</a>",
    "declare function local:r($n) { <r>{local:r($n + 1)}</r> }; <a>{local:r(0)}</a>",
];

/// A deeper document for the axis-heavy corpus: nested `level` chains, an
/// element *named* `k` next to attributes named `k`, numeric-looking
/// attribute values, and a prefixed attribute sharing a local name.
const DEEP_DOC: &str = "<doc ver='1'>\
    <level a='1'><level a='2'><level a='3'><level a='4'>\
        <leaf k='a' n='7'/><leaf k='b' n='07'/>\
    </level></level></level></level>\
    <item k='a'/><item k='a'/><item k='b'/><item k='c' x:id='a'/>\
    <k k='inner'><leaf k='a'/></k>\
    <ref sel='b'/>\
</doc>";

/// Axis-heavy corpus: deep trees, `//x[...]` attribute predicates (both the
/// index-served shapes and the deliberate fall-back shapes), `ancestor::`,
/// mixed element/attribute names, and order-by over large sequences. The
/// indexed fast paths must be observably identical to a plain scan.
const AXIS_CORPUS: &[&str] = &[
    // Attribute-equality predicates the fused index path serves.
    "/doc/item[@k = \"a\"]",
    "/doc/item[@k = (\"a\", \"b\")]",
    "/doc/item[@k = (\"a\", \"a\")]",
    "/doc/item[@k = ()]",
    "/doc/item[@k = \"zzz\"]",
    "/doc/missing[@k = \"a\"]",
    "/doc/item[\"a\" = @k]",
    "let $k := \"b\" return /doc/item[@k = $k]",
    "let $r := /doc/ref return /doc/item[@k = $r/@sel]",
    "/doc/item[@k = /doc/ref/@sel]",
    // Positional predicates after (or before) the equality.
    "/doc/item[@k = \"a\"][2]",
    "/doc/item[@k = \"a\"][position() = last()]",
    "/doc/item[position() > 1][@k = \"a\"]",
    // Numeric comparisons must NOT be answered by the string-value index:
    // \"07\" equals 7 numerically but not textually.
    "//leaf[@n = 7]",
    "//leaf[@n = \"7\"]",
    "//leaf[@n = \"07\"]",
    "//leaf[@n = 7.0]",
    "/doc/item[@k = 0]",
    // Prefixed attribute: same local name, different QName.
    "/doc/item[@x:id = \"a\"]",
    // RHS errors: raised only when a name-matching candidate exists.
    "/doc/item[@k = $undefined]",
    "/doc/missing[@k = $undefined]",
    "/doc/item[@k = (1 div 0)]",
    // Deep descendant steps with predicates.
    "//leaf[@k = \"a\"]",
    "//level[@a = \"4\"]/leaf",
    "//k/leaf[@k = \"a\"]",
    "some $i in //item satisfies $i/@k = \"a\"",
    // Mixed element/attribute names: `k` is both.
    "//k",
    "//@k",
    "count(//level)",
    "count(//@k)",
    "count(/doc/item//leaf)",
    "let $s := \"x\" return count($s//item)",
    // Ancestor axis from deep nodes.
    "//leaf/ancestor::level/@a",
    "//leaf[@k = \"a\"]/ancestor::*[last()]",
    // Order-by over large sequences (dedup / doc-order-sort pressure).
    "for $i in 1 to 200 order by -$i return $i",
    "for $l in //leaf order by string($l/@k) descending return string($l/@k)",
    "for $a in //@a order by number($a) descending return number($a)",
    // Fused path over a freshly constructed document.
    "let $d := document { <r><i k=\"a\"/><i k=\"b\"/><i k=\"a\"/></r> } return count($d/r/i[@k = \"a\"])",
];

/// A model-graph document shaped like the paper's E1 translation: `node`s
/// with string ids joined against `rel`s by `@src`/`@dst`. It keeps the
/// awkward rows on purpose: duplicate keys, a `rel` with no `@src` at all,
/// an empty-string id, a numeric-looking id (`07`), and nodes with zero or
/// several `val` children.
const JOIN_DOC: &str = "<m>\
    <node id='n1' type='user'><val>a</val><val>b</val></node>\
    <node id='n2' type='user'/>\
    <node id='n3' type='prog'><val>b</val></node>\
    <node id='' type='user'/>\
    <node type='ghost'/>\
    <rel src='n1' dst='n3' type='likes'/>\
    <rel src='n2' dst='n1' type='likes'/>\
    <rel src='n1' dst='n2' type='uses'/>\
    <rel src='n3' dst='n3' type='likes'/>\
    <rel src='' dst='n2' type='likes'/>\
    <rel src='07' dst='n1' type='uses'/>\
    <rel dst='n1' type='uses'/>\
</m>";

/// Join- and hoist-heavy corpus: the FLWOR hash join (marked by `lopt` on
/// the last `for` clause) against its quadratic meaning, every fallback
/// shape (non-string keys, non-string probes, `at`-bindings, compound
/// `where`), the hashed general comparison, and loop-invariant hoists whose
/// subexpressions raise — which must raise exactly when the unhoisted
/// program would.
const JOIN_CORPUS: &[&str] = &[
    // The E1 shape: equality of string-valued attributes on the last `for`.
    "for $n in //node for $r in //rel where $r/@src = $n/@id return concat($n/@id, '->', $r/@dst)",
    // Key on the right of the `=` (JoinSide::Right).
    "for $n in //node for $r in //rel where $n/@id = $r/@src return string($r/@dst)",
    // Filtered inputs, a membership test, and order-by — still joinable.
    "for $n in //node[@type = 'user'] for $r in //rel[@type = ('likes', 'uses')] where $r/@src = $n/@id order by string($r/@dst) return string($r/@dst)",
    // Multi-atom keys and probes: nodes with several `val` children.
    "for $a in //node for $b in //node where $b/val = $a/val return concat($a/@id, '~', $b/@id)",
    // The inner sequence depends on the outer binding: rebuilt per tuple.
    "for $n in //node for $v in $n/val where $v = $n/val[1] return concat($n/@id, ':', $v)",
    // A join inside the return of an outer for: the inner FLWOR joins on
    // its own clause while the cached `//rel` keeps one table alive.
    "for $n in //node return for $r in //rel where $r/@src = $n/@id return string($r/@dst)",
    // Untyped attribute keys against numeric and string probes: 7 = '07'
    // holds numerically, '7' = '07' does not — the numeric probe must take
    // the general comparison, never the string table.
    "for $n in (7, '07', '7') for $r in //rel where $r/@src = $n return string($r/@dst)",
    // All-integer inputs: the table build aborts and every tuple scans.
    "for $n in (1, 2, 3) for $r in (2, 3, 4, 2) where $r = $n return $r * 10",
    // Mixed atoms in the key sequence abort the build midway through.
    "for $n in ('a', 2) for $r in ('a', 'b', 2, 'a') where $r = $n return $r",
    // String table, but some probes are numeric (per-tuple fallback).
    "for $n in ('a', 2, 'b') for $r in ('a', 'b', 'c') where $r = $n return $r",
    // A positional binding on the last `for` defeats the join.
    "for $n in //node for $r at $p in //rel where $r/@src = $n/@id return $p",
    // Compound `where`: not a bare equality, no join.
    "for $n in //node for $r in //rel where $r/@src = $n/@id and $r/@type = 'likes' return string($r/@dst)",
    // `!=` is existential too but never joined.
    "for $n in //node for $r in //rel where $r/@src != $n/@id return string($r/@dst)",
    // Key evaluation raises on the very first item — at the same position
    // where the scan's first tuple would raise.
    "for $n in (1, 2) for $r in ('x', 'y') where ($r + 0) = $n return $r",
    // Probe evaluation raises on the first tuple, after the build started.
    "for $n in (0, 1) for $r in ('x', 'y') where $r = (1 div $n) return $r",
    // An invariant probe that raises: unbound variable on the probe side.
    "for $n in //node for $r in //rel where $r/@src = $undefined return $r",
    // Large literal comparisons: the hashed general compare (>= 64 pairs).
    "('a','b','c','d','e','f','g','h') = ('h','x','y','z','q','r','s','t')",
    "('a','b','c','d','e','f','g','h') != ('a','a','a','a','a','a','a','a')",
    "count(//node[@id = ('n1', 'n2', 'zzz', '')])",
    // Loop-invariant hoists that raise — exactly when unhoisted would.
    "for $i in (1, 2, 3) return ($i, 7 idiv 0)",
    "for $i in (1, 2) where (5 mod 0) > $i return $i",
    "for $i in (1, 2) let $x := $i * (1 div 0) return $x",
    // A hoisted cell on a branch never taken is never evaluated: no error.
    "for $i in (1, 2) return (if ($i < 10) then $i else (1 div 0))",
    // Invariant paths hoisted out of loop bodies (variable-rooted — paths
    // from the context root are focus-dependent and stay put), plus
    // shadowing across nested loops.
    "let $d := /m return for $i in (1, 2, 3) return ($i, string($d/node[1]/@id))",
    "for $i in (1, 2, 3) return ($i, string(//node[1]/@id))",
    "for $i in 1 to 3 let $j := $i return for $i in //rel return concat($i/@dst, $j)",
];

/// A wide document for the streaming corpus: enough `item`s that positional
/// early-exits have a tail to skip, a nested `item` (so `//item` and
/// `/s/item` disagree), a non-matching sibling in the middle, and an
/// attribute on every item for attribute-final chains.
const STREAM_DOC: &str = "<s>\
    <item k='a'><item k='nested'/></item>\
    <item k='b'/><item k='c'/><item k='d'/><item k='e'/>\
    <item k='f'/><item k='g'/><item k='h'/><item k='i'/>\
    <gap/>\
    <item k='j'/><item k='k'/>\
</s>";

/// Streaming corpus: every consumer the cursor runtime serves — positional
/// predicates (all six operators plus bare integers, in-range and out),
/// `subsequence`/`remove`/`insert-before` prefix windows, streamed `count`,
/// `for`-bindings pulled tuple-at-a-time, quantifier early exits, and
/// general comparisons with one streamed side. The trace cases pin the
/// side-effect interleaving: a pull-driven loop must fire `fn:trace` in
/// exactly the order the materialised run would, and an error raised
/// mid-pull must surface at the same tuple with the same traces already
/// emitted.
const STREAM_CORPUS: &[&str] = &[
    // Positional early-exits (the ISSUE's headline shapes).
    "(//item)[3]",
    "//item[position() <= 5]",
    "subsequence(//item, 2, 3)",
    "//item[position() = 4]",
    "//item[position() < 3]",
    "//item[position() > 9]",
    "//item[position() >= 10]",
    "//item[position() != 2]",
    "//item[7]",
    "//item[0]",
    "//item[100]",
    "(/s/item)[2]",
    // Attribute-final chains, streamed and windowed.
    "//item/@k",
    "(//item/@k)[4]",
    "subsequence(//item/@k, 3, 2)",
    "subsequence(//item, 1, 0)",
    "subsequence(//item, 0, 2)",
    // Streamed count and the other prefix consumers.
    "count(//item)",
    "count(/s/item)",
    "count(//item[position() <= 5])",
    "remove(//item, 3)",
    "remove(//item, 1)",
    "remove(//item, 99)",
    "insert-before(//item, 2, <x/>)",
    "insert-before(//item, 99, <x/>)",
    // FLWOR bindings pulled from a cursor, with per-tuple traces pinning
    // the pull order against the materialised order.
    "for $i in //item return string($i/@k)",
    "for $i in //item where $i/@k = 'c' return $i",
    "for $i at $p in //item return concat($p, ':', $i/@k)",
    "for $i in //item return trace('pull=', string($i/@k))",
    "count(for $i in //item return $i/@k)",
    // Quantifiers: the streamed run stops pulling after the verdict, which
    // must be unobservable — satisfies-side traces fire identically.
    "some $i in //item satisfies $i/@k = 'c'",
    "every $i in //item satisfies string-length($i/@k) >= 1",
    "some $i in //item satisfies trace('q=', string($i/@k)) = 'c'",
    "every $i in //item satisfies trace('e=', string($i/@k)) != 'd'",
    "some $i in //item satisfies $i/@k = 'zzz'",
    // General comparisons with one streamed side, both operand orders.
    "//item/@k = 'd'",
    "'d' = //item/@k",
    "//item/@k = ('d', 'zzz')",
    "//item/@k != 'a'",
    "//item/@k = ()",
    "//item/@k = //s/missing",
    // Errors raised mid-pull surface at the same tuple, after the same
    // traces, through both evaluators.
    "for $i in //item return (trace('t=', string($i/@k)), $i/@k idiv 2)",
    "(for $i in //item return trace('w=', string($i/@k)))[2]",
    "some $i in //item satisfies ($i/@k idiv 2) = 0",
    // An `i64::MIN` position folds to one literal whose magnitude no i64
    // holds: every positional consumer must refuse it, not overflow.
    "(//item)[-9223372036854775807 - 1]",
    "//item[-9223372036854775807 - 1]",
    "subsequence(//item, -9223372036854775807 - 1, 3)",
];

/// A document for the shapes existence and name-index counts take on the
/// cursor: prefixed element and attribute names next to unprefixed ones
/// with the same local part (the thawed substrate's name index is keyed
/// by local name), and elements that carry their own `k` above
/// descendants that carry one too.
const CURSOR_DOC: &str = "<r k='root'>\
    <x:item k='p' x:k='q'><item k='in'/></x:item>\
    <item k='a'><item k='b'/><x:item x:k='r'/></item>\
    <gap/>\
</r>";

/// Existence over single-node, multi-node, atomic and empty starts;
/// `//@k` from an element with its own `k`; prefixed name tests; and every
/// existence consumer (`exists`, `empty`, `boolean`, `not`, EBV).
const CURSOR_CORPUS: &[&str] = &[
    // Single-node starts: one cursor pull.
    "exists(/r/item/item)",
    "empty(/r/item/@k)",
    "boolean(//item/@zz)",
    "not(/r/gap/item)",
    "if (//gap) then 'y' else 'n'",
    "for $i in //item where $i/item return string($i/@k)",
    // Multi-node starts finish on the materialised loop.
    "let $s := //item return exists($s/item)",
    "let $s := //item return (empty($s/@k), boolean($s/missing), not($s//@x:k))",
    "let $s := /r/* return if ($s/item) then count($s//item) else -1",
    "for $i in 1 to 2 let $s := //item where $s/@k return $i",
    // Atomic starts raise XPTY0019 with the step's position.
    "let $a := 'x' return exists($a/item)",
    "let $a := (1, 2) return empty($a/@k)",
    "let $a := (//item)[1] return boolean(($a, 1)/item)",
    "let $a := (1, 2) return exists($a//item)",
    "let $a := 3 return count($a//@k)",
    // Empty starts.
    "let $e := () return (exists($e/item), empty($e//@k), count($e//item))",
    "let $e := //missing return (boolean($e/item), not($e//item))",
    // `//@k` from elements carrying their own `k`.
    "count(/r//@k)",
    "exists(/r//@k)",
    "let $i := (//item)[2] return (count($i//@k), string-join(for $a in $i//@k return string($a), ','))",
    "for $i in //item return count($i//@k)",
    "(/r//@k)[1]",
    "count((//@k)[1]//@k)",
    // Prefixed name tests against the local-name index.
    "count(//x:item)",
    "count(//item)",
    "exists(//x:item)",
    "count(//@x:k)",
    "empty(//@y:k)",
    "count(//y:item)",
    "for $i in //x:item return string($i/@k)",
    "string-join(for $a in //@x:k return string($a), ',')",
    "subsequence(//x:item, 2, 1)",
    "(//@k)[3]",
];

#[test]
fn stream_corpus_streamed_and_materialised_traces_are_identical() {
    // Beyond walker equivalence: the streamed lowered run and the
    // `runtime_opt: false` lowered run must produce the same display output
    // AND the same `fn:trace` event order, with the streamed side never
    // allocating more than the materialised side.
    let mut on = Engine::with_options(EngineOptions {
        runtime_opt: true,
        ..Default::default()
    });
    let mut off = Engine::with_options(EngineOptions {
        runtime_opt: false,
        ..Default::default()
    });
    let doc_on = on.load_document(STREAM_DOC).unwrap();
    let doc_off = off.load_document(STREAM_DOC).unwrap();
    for src in STREAM_CORPUS {
        let q_on = on.compile(src).unwrap();
        let q_off = off.compile(src).unwrap();
        on.take_trace();
        off.take_trace();
        let a = on.evaluate(&q_on, Some(doc_on));
        let b = off.evaluate(&q_off, Some(doc_off));
        assert_eq!(
            on.take_trace(),
            off.take_trace(),
            "trace order diverged on {src:?}"
        );
        match (a, b) {
            (Ok(a), Ok(b)) => assert_eq!(
                on.display_sequence(&a),
                off.display_sequence(&b),
                "value diverged on {src:?}"
            ),
            (Err(a), Err(b)) => assert_eq!(
                (a.code, a.message, a.position),
                (b.code, b.message, b.position),
                "error diverged on {src:?}"
            ),
            (a, b) => panic!("outcome kind diverged on {src:?}: {a:?} vs {b:?}"),
        }
        assert!(
            on.last_stats().items_allocated <= off.last_stats().items_allocated,
            "streaming allocated more on {src:?}: {} vs {}",
            on.last_stats().items_allocated,
            off.last_stats().items_allocated
        );
        for (name, value) in off.last_stats().opt_counters() {
            assert_eq!(value, 0, "counter {name} must be zero with runtime_opt off");
        }
    }
}

/// Generator for the property-based differential run: well-formed-ish
/// sources mixing bindings (live, dead, shadowed), arithmetic, sequences,
/// traces, constructors, and deliberate failure paths.
fn diff_source() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        (0i64..50).prop_map(|i| i.to_string()),
        Just("\"s\"".to_string()),
        Just("()".to_string()),
        Just("(1,2,3)".to_string()),
        Just("$unbound".to_string()),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}) + ({b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("(({a}), ({b}))")),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| format!("let $v := ({a}) return (({b}), count($v))")),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| format!("let $v := ({a}) return let $v := ({b}) return $v")),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| format!("for $i in ({a}) return (($i), ({b}))")),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| format!("if (({a}) = ({b})) then ({a}) else ({b})")),
            inner
                .clone()
                .prop_map(|a| format!("some $q in ({a}) satisfies $q > 1")),
            inner.clone().prop_map(|a| format!("trace(\"t=\", ({a}))")),
            inner
                .clone()
                .prop_map(|a| format!("try {{ ({a}) eq (1,2) }} catch ($e) {{ $e }}")),
            inner
                .clone()
                .prop_map(|a| format!("<el a=\"{{({a})}}\">{{({a})}}</el>")),
            inner.clone().prop_map(|a| format!("count(({a}))")),
            inner.clone().prop_map(|a| format!("no-such(({a}))")),
            inner.clone().prop_map(|a| format!(
                "typeswitch (({a})) case $n as xs:integer return $n default $d return count($d)"
            )),
        ]
    })
}

/// A Galax-preset or default engine with the runtime passes on or off.
fn quirks_engine(quirks: bool, runtime_opt: bool) -> Engine {
    let options = if quirks {
        EngineOptions::galax()
    } else {
        EngineOptions::default()
    };
    Engine::with_options(EngineOptions {
        runtime_opt,
        ..options
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The lowered runner is observably equivalent to the tree walker on
    /// generated programs, with quirks and the runtime passes each off and on.
    #[test]
    fn lowered_runner_matches_reference(
        src in diff_source(),
        quirks in any::<bool>(),
    ) {
        for runtime_opt in [true, false] {
            let mut e = quirks_engine(quirks, runtime_opt);
            if let Err(msg) = assert_equivalent(&mut e, &src, None) {
                return Err(TestCaseError::fail(format!("runtime_opt {runtime_opt}: {msg}")));
            }
        }
    }

    /// The index-served attribute-equality predicate agrees with its generic
    /// twin: routing the RHS through a `for`/`concat` identity defeats the
    /// fused-step detection, so the twin always takes the scan path. Both
    /// shapes run under both evaluators and all four values must match.
    #[test]
    fn fused_attr_eq_matches_generic_twin(
        vals in prop::collection::vec("[abc]", 1..4),
        step in prop_oneof![Just("/doc/item"), Just("//leaf"), Just("//item")],
        quirks in any::<bool>(),
    ) {
        let list = vals
            .iter()
            .map(|v| format!("\"{v}\""))
            .collect::<Vec<_>>()
            .join(", ");
        let fused = format!("{step}[@k = ({list})]");
        let generic =
            format!("{step}[@k = (for $v in ({list}) return concat($v, \"\"))]");
        for runtime_opt in [true, false] {
            let mut e = quirks_engine(quirks, runtime_opt);
            let doc = e.load_document(DEEP_DOC).unwrap();
            for src in [&fused, &generic] {
                if let Err(msg) = assert_equivalent(&mut e, src, Some(doc)) {
                    return Err(TestCaseError::fail(format!("runtime_opt {runtime_opt}: {msg}")));
                }
            }
            let qf = e.compile(&fused).unwrap();
            let qg = e.compile(&generic).unwrap();
            let a = e.evaluate(&qf, Some(doc)).unwrap();
            let b = e.evaluate(&qg, Some(doc)).unwrap();
            prop_assert_eq!(
                e.display_sequence(&a),
                e.display_sequence(&b),
                "runtime_opt {}",
                runtime_opt
            );
        }
    }
}

/// One random atom literal: a short string or a small integer, so generated
/// sequences mix table-served keys with fallback-forcing numerics.
fn atom() -> impl Strategy<Value = String> {
    prop_oneof![
        "[abc]".prop_map(|s| format!("'{s}'")),
        (0i64..4).prop_map(|i| i.to_string()),
    ]
}

/// Renders a list of atom literals as an XQuery sequence expression.
fn atom_list(atoms: &[String]) -> String {
    if atoms.is_empty() {
        "()".to_string()
    } else {
        format!("({})", atoms.join(", "))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The FLWOR hash join is observably identical to the quadratic scan:
    /// the same program runs with the runtime optimiser on (join marked,
    /// table probed) and off (plain nested loop), plus the tree walker for
    /// each. Mixed string/integer atoms exercise the build abort and the
    /// per-tuple probe fallback; `dup` probes exercise the bucket merge.
    #[test]
    fn flwor_hash_join_matches_quadratic_scan(
        outer in prop::collection::vec(atom(), 0..8),
        inner in prop::collection::vec(atom(), 0..10),
        dup in any::<bool>(),
    ) {
        let probe = if dup { "($n, $n)" } else { "$n" };
        let src = format!(
            "for $n in {} for $r in {} where $r = {probe} return ($r, '|')",
            atom_list(&outer),
            atom_list(&inner),
        );
        let mut on = Engine::with_options(EngineOptions {
            runtime_opt: true,
            ..Default::default()
        });
        let mut off = Engine::with_options(EngineOptions {
            runtime_opt: false,
            ..Default::default()
        });
        // Each engine agrees with its own tree walker…
        if let Err(msg) = assert_equivalent(&mut on, &src, None) {
            return Err(TestCaseError::fail(msg));
        }
        if let Err(msg) = assert_equivalent(&mut off, &src, None) {
            return Err(TestCaseError::fail(msg));
        }
        // …the optimised compile really did mark the join, the plain one
        // didn't…
        let qo = on.compile(&src).unwrap();
        let qu = off.compile(&src).unwrap();
        prop_assert_eq!(qo.plan_stats.hash_joins, 1);
        prop_assert_eq!(qu.plan_stats.hash_joins, 0);
        // …and the two engines agree with each other.
        let a = on.evaluate(&qo, None).unwrap();
        let b = off.evaluate(&qu, None).unwrap();
        prop_assert_eq!(on.display_sequence(&a), off.display_sequence(&b));
    }

    /// The hashed general comparison agrees with the pairwise scan on
    /// random atom sequences, for `=` and `!=` alike — the optimised and
    /// unoptimised engines and both tree walkers see one truth value.
    #[test]
    fn hashed_general_compare_matches_scan(
        a in prop::collection::vec(atom(), 0..12),
        b in prop::collection::vec(atom(), 0..12),
        ne in any::<bool>(),
    ) {
        let op = if ne { "!=" } else { "=" };
        let src = format!("{} {op} {}", atom_list(&a), atom_list(&b));
        let mut on = Engine::with_options(EngineOptions {
            runtime_opt: true,
            ..Default::default()
        });
        let mut off = Engine::with_options(EngineOptions {
            runtime_opt: false,
            ..Default::default()
        });
        for e in [&mut on, &mut off] {
            if let Err(msg) = assert_equivalent(e, &src, None) {
                return Err(TestCaseError::fail(msg));
            }
        }
        let x = on.evaluate_str(&src, None).unwrap();
        let y = off.evaluate_str(&src, None).unwrap();
        prop_assert_eq!(on.display_sequence(&x), off.display_sequence(&y));
    }
}

/// Galax-quirk regression: with the lowered-plan passes ON, the AST
/// optimizer still deletes `fn:trace` in dead position — and nothing else.
/// The live bindings survive (the value matches standard mode), the
/// invariant hoist still runs on the pruned program, and a standard engine
/// keeps the trace firing once per tuple through both evaluators.
#[test]
fn quirks_trace_deletion_survives_the_runtime_passes() {
    let src = "let $m := /m return \
               for $i in (1, 2) \
               let $dead := trace('dead=', $i) \
               let $live := concat('n', $i) \
               return ($live, string($m/node[1]/@id))";

    let mut galax = Engine::galax();
    let doc = galax.load_document(JOIN_DOC).unwrap();
    let q = galax.compile(src).unwrap();
    assert_eq!(q.stats.traces_removed, 1, "the dead trace is deleted");
    assert!(
        q.plan_stats.hoisted_invariant > 0,
        "the invariant path is still hoisted after the quirks DCE, got {:?}",
        q.plan_stats
    );
    let out = galax.evaluate(&q, Some(doc)).unwrap();
    assert_eq!(galax.display_sequence(&out), "n1 n1 n2 n1");
    assert!(
        galax.take_trace().is_empty(),
        "no trace escapes quirks mode"
    );
    let out = galax.evaluate_reference(&q, Some(doc)).unwrap();
    assert_eq!(galax.display_sequence(&out), "n1 n1 n2 n1");
    assert!(galax.take_trace().is_empty());

    // Standard mode: the same value, but the trace fires per tuple.
    let mut fixed = Engine::new();
    let doc = fixed.load_document(JOIN_DOC).unwrap();
    let q = fixed.compile(src).unwrap();
    assert_eq!(q.stats.traces_removed, 0, "standard mode deletes nothing");
    let out = fixed.evaluate(&q, Some(doc)).unwrap();
    assert_eq!(fixed.display_sequence(&out), "n1 n1 n2 n1");
    assert_eq!(fixed.take_trace(), vec!["dead= 1", "dead= 2"]);
}

// ---------------------------------------------------------------------
// Builtin edge-case pins
//
// Spec-conformance corners that differential fuzzing flagged: NaN and
// ±INF positions in `substring`/`subsequence` (where fn:round's
// half-toward-+INF rounding applies, not f64's half-away-from-zero),
// out-of-range positions in `insert-before`/`remove`, `fn:round` on
// exact halves, and empty-sequence arithmetic. Every pair pins the
// spec value AND runs through the full differential harness, so the
// walker, the lowered runner, and the optimised runner must all agree
// on it under every engine configuration.
// ---------------------------------------------------------------------

const BUILTIN_EDGE_PINS: &[(&str, &str)] = &[
    // substring: fractional, zero, negative, and non-finite positions.
    ("substring(\"motor car\", 6)", " car"),
    ("substring(\"metadata\", 4, 3)", "ada"),
    ("substring(\"12345\", 1.5, 2.6)", "234"),
    ("substring(\"12345\", 0, 3)", "12"),
    ("substring(\"12345\", 5, -3)", ""),
    ("substring(\"12345\", -3, 5)", "1"),
    ("substring(\"12345\", 0e0 div 0e0, 3)", ""),
    ("substring(\"12345\", 1, 0e0 div 0e0)", ""),
    ("substring(\"12345\", -42, 1 div 0e0)", "12345"),
    ("substring(\"12345\", -1 div 0e0, 1 div 0e0)", ""),
    // 2-arg forms with non-finite starts: no upper bound to cancel INF.
    ("substring(\"12345\", -1 div 0e0)", "12345"),
    ("substring(\"12345\", 1 div 0e0)", ""),
    ("substring(\"12345\", 0e0 div 0e0)", ""),
    // subsequence mirrors substring's position arithmetic over items.
    ("subsequence((1,2,3,4,5), -2, 5)", "1 2"),
    ("subsequence((1,2,3,4,5), 2.5)", "3 4 5"),
    ("subsequence((1,2,3,4,5), -1 div 0e0)", "1 2 3 4 5"),
    ("subsequence((1,2,3,4,5), 1 div 0e0)", ""),
    ("subsequence((1,2,3,4,5), 0e0 div 0e0)", ""),
    ("subsequence((1,2,3,4,5), 2, 0e0 div 0e0)", ""),
    ("subsequence((1,2,3,4,5), -1 div 0e0, 1 div 0e0)", ""),
    // fn:round is round-half-toward-+INF: 2.5 → 3 but -2.5 → -2 (not -3
    // as half-away-from-zero would give, not 2 as half-to-even would).
    ("round(2.5)", "3"),
    ("round(-2.5)", "-2"),
    ("round(2.4999)", "2"),
    ("round(-7.5)", "-7"),
    // insert-before / remove clamp out-of-range positions instead of
    // raising: before-the-start inserts first, past-the-end appends,
    // and remove of a position that names nothing removes nothing.
    ("insert-before((1,2,3), 0, \"x\")", "x 1 2 3"),
    ("insert-before((1,2,3), 1, \"x\")", "x 1 2 3"),
    ("insert-before((1,2,3), 3, \"x\")", "1 2 x 3"),
    ("insert-before((1,2,3), 99, \"x\")", "1 2 3 x"),
    ("remove((1,2,3), 0)", "1 2 3"),
    ("remove((1,2,3), 2)", "1 3"),
    ("remove((1,2,3), 99)", "1 2 3"),
    // Empty-sequence arithmetic: () is absorbing for every operator.
    ("() + 1", ""),
    ("1 - ()", ""),
    ("() * ()", ""),
    ("-()", ""),
    ("() idiv 1", ""),
    ("() mod ()", ""),
    ("() div 1", ""),
];

#[test]
fn builtin_edges_match_spec_pins_under_every_config() {
    for (name, options) in engine_configs() {
        let mut e = Engine::with_options(options);
        for (src, expected) in BUILTIN_EDGE_PINS {
            let got = assert_equivalent(&mut e, src, None).unwrap();
            assert_eq!(
                got,
                format!("ok: {expected}"),
                "pin {src:?} under config {name}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Observability: the trace sink, the counter block, and explain()
// ---------------------------------------------------------------------

/// A `TraceSink` that can be inspected after the engine is done with it.
#[derive(Clone, Default)]
struct SharedSink(Arc<std::sync::Mutex<Vec<crate::obs::TraceEvent>>>);

impl crate::obs::TraceSink for SharedSink {
    fn event(&mut self, event: crate::obs::TraceEvent) {
        self.0.lock().unwrap().push(event);
    }
}

/// The mirror image of `quirks_trace_deletion_survives_the_runtime_passes`:
/// in STANDARD mode, with the AST optimizer and every lowered-plan pass ON,
/// a dead-position `fn:trace` is a routed side effect that no pass may
/// delete — its events reach an installed sink, carrying the query position
/// and the traced value.
#[test]
fn trace_reaches_the_sink_under_full_optimisation() {
    let src = "let $m := /m return \
               for $i in (1, 2) \
               let $dead := trace('dead=', $i) \
               let $live := concat('n', $i) \
               return ($live, string($m/node[1]/@id))";
    let sink = SharedSink::default();
    let mut e = Engine::new();
    e.set_trace_sink(Box::new(sink.clone()));
    let doc = e.load_document(JOIN_DOC).unwrap();
    let q = e.compile(src).unwrap();
    assert_eq!(q.stats.traces_removed, 0, "standard mode deletes no trace");
    assert!(
        q.plan_stats.hoisted_invariant > 0,
        "the runtime passes genuinely ran, got {:?}",
        q.plan_stats
    );
    let out = e.evaluate(&q, Some(doc)).unwrap();
    assert_eq!(e.display_sequence(&out), "n1 n1 n2 n1");

    let events = sink.0.lock().unwrap().clone();
    assert_eq!(events.len(), 2, "one event per tuple: {events:?}");
    assert_eq!(
        (events[0].label.as_str(), events[0].value.as_str()),
        ("dead=", "1")
    );
    assert_eq!(
        (events[1].label.as_str(), events[1].value.as_str()),
        ("dead=", "2")
    );
    assert_ne!(events[0].position, (0, 0), "events carry the call position");
    assert_eq!(events[0].position, events[1].position);
    // The engine's own buffer saw the same events, in the legacy format.
    assert_eq!(e.take_trace(), vec!["dead= 1", "dead= 2"]);
}

/// The acceptance path for the E1 join query: `explain()` names the
/// hash-join rewrite, `last_stats()` proves it executed (a build and some
/// probes), and the same query with the runtime passes off admits to doing
/// none of it — while producing the identical answer.
#[test]
fn e1_join_is_observable_end_to_end() {
    let src = JOIN_CORPUS[0];

    let mut on = Engine::with_options(EngineOptions {
        runtime_opt: true,
        ..Default::default()
    });
    let doc = on.load_document(JOIN_DOC).unwrap();
    let q = on.compile(src).unwrap();
    let plan = on.explain(&q);
    assert!(
        plan.contains("hash join: build side"),
        "explain must mark the join:\n{plan}"
    );
    assert!(
        plan.contains("equality subsumed by the hash join"),
        "explain must mark the subsumed where:\n{plan}"
    );
    let out = on.evaluate(&q, Some(doc)).unwrap();
    let stats = *on.last_stats();
    assert!(stats.join_builds >= 1, "stats: {stats:?}");
    assert!(stats.join_probes > 0, "stats: {stats:?}");

    let mut off = Engine::with_options(EngineOptions {
        runtime_opt: false,
        ..Default::default()
    });
    let doc_off = off.load_document(JOIN_DOC).unwrap();
    let q_off = off.compile(src).unwrap();
    let plan_off = off.explain(&q_off);
    assert!(
        plan_off.contains("0 hash join(s)"),
        "unoptimised plan claims no joins:\n{plan_off}"
    );
    assert!(!plan_off.contains("hash join: build side"));
    let out_off = off.evaluate(&q_off, Some(doc_off)).unwrap();
    for (name, value) in off.last_stats().opt_counters() {
        assert_eq!(value, 0, "counter {name} must be zero with runtime_opt off");
    }
    assert_eq!(
        on.display_sequence(&out),
        off.display_sequence(&out_off),
        "observability must not change the answer"
    );
}

/// A random streamable path for the cursor proptest: `/`- or `//`-rooted
/// child steps over the `STREAM_DOC` name pool, an optional
/// attribute-final step, and an optional positional predicate.
fn stream_path() -> impl Strategy<Value = String> {
    let name = prop::sample::select(vec!["s", "item", "gap", "missing"]);
    let step =
        (any::<bool>(), name).prop_map(|(ds, n)| format!("{}{}", if ds { "//" } else { "/" }, n));
    let pred = prop::option::of(
        (
            prop::sample::select(vec!["=", "!=", "<", "<=", ">", ">="]),
            0i64..8,
        )
            .prop_map(|(op, n)| format!("[position() {op} {n}]")),
    );
    (prop::collection::vec(step, 1..4), any::<bool>(), pred).prop_map(|(steps, attr, pred)| {
        let mut s: String = steps.concat();
        if attr {
            s.push_str("/@k");
        }
        if let Some(p) = pred {
            s.push_str(&p);
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random streamable paths, wrapped in every cursor-served consumer,
    /// against a force-materialised twin (`runtime_opt: false`): the displayed
    /// value must be identical and the streamed run must never allocate
    /// more items than the materialised one — the cursor is a pure
    /// evaluation-order change, visible only in the counters.
    #[test]
    fn streamed_paths_match_materialised_twin_and_never_allocate_more(
        path in stream_path(),
        consumer in 0usize..6,
        s in 0i64..6,
        l in 0i64..6,
    ) {
        let src = match consumer {
            0 => path.clone(),
            1 => format!("count({path})"),
            2 => format!("subsequence({path}, {s}, {l})"),
            3 => format!("({path})[{s}]"),
            4 => format!("for $i in {path} return string($i)"),
            _ => format!("some $i in {path} satisfies string-length(string($i)) > {l}"),
        };
        let mut on = Engine::with_options(EngineOptions {
            runtime_opt: true,
            ..Default::default()
        });
        let mut off = Engine::with_options(EngineOptions {
            runtime_opt: false,
            ..Default::default()
        });
        let doc_on = on.load_document(STREAM_DOC).unwrap();
        let doc_off = off.load_document(STREAM_DOC).unwrap();
        let a = on.evaluate_str(&src, Some(doc_on)).unwrap();
        let b = off.evaluate_str(&src, Some(doc_off)).unwrap();
        prop_assert_eq!(
            on.display_sequence(&a),
            off.display_sequence(&b),
            "value diverged on {}",
            src
        );
        prop_assert!(
            on.last_stats().items_allocated <= off.last_stats().items_allocated,
            "streaming allocated more on {}: {} vs {}",
            src,
            on.last_stats().items_allocated,
            off.last_stats().items_allocated
        );
        for (name, value) in off.last_stats().opt_counters() {
            prop_assert_eq!(value, 0, "counter {} must be zero with runtime_opt off", name);
        }
    }

    /// The counter block is a property of the query, not of the pool: the
    /// same evaluation on 1-, 2-, and 4-worker engines reports identical
    /// counters (timing excluded via `counters()`) and identical values,
    /// with the runtime passes on and off, run inline and, behind a
    /// recursive identity function, on the pool.
    #[test]
    fn eval_stats_counters_invariant_across_worker_counts(
        outer in prop::collection::vec(atom(), 0..6),
        inner in prop::collection::vec(atom(), 0..8),
    ) {
        let join = format!(
            "for $n in {} for $r in {} where $r = $n return ($r, '|')",
            atom_list(&outer),
            atom_list(&inner),
        );
        let pooled = format!(
            "declare function local:id($k, $x) {{ if ($k = 0) then $x else local:id($k - 1, $x) }};
             local:id(1, {join})"
        );
        for (src, runtime_opt) in [(&join, true), (&join, false), (&pooled, true), (&pooled, false)] {
            let mut baseline: Option<(String, crate::obs::EvalStats)> = None;
            for workers in [1usize, 2, 4] {
                let mut e = Engine::with_pool(
                    EngineOptions {
                        runtime_opt,
                        ..Default::default()
                    },
                    Arc::new(StackPool::new(workers)),
                );
                let out = e.evaluate_str(src, None).unwrap();
                let display = e.display_sequence(&out);
                let counters = e.last_stats().counters();
                match &baseline {
                    None => baseline = Some((display, counters)),
                    Some((d, c)) => {
                        prop_assert_eq!(
                            d, &display,
                            "values diverged at {} workers, runtime_opt {}: {}", workers, runtime_opt, src
                        );
                        prop_assert_eq!(
                            *c, counters,
                            "counters diverged at {} workers, runtime_opt {}: {}", workers, runtime_opt, src
                        );
                    }
                }
            }
        }
    }

    /// With the runtime passes off the engine must not only produce
    /// byte-identical results — it must also ADMIT to doing no optimised
    /// work: every join/cache/streaming counter reads zero.
    #[test]
    fn runtime_opt_off_is_identical_and_reports_zero_opt_counters(
        outer in prop::collection::vec(atom(), 1..6),
        inner in prop::collection::vec(atom(), 1..8),
    ) {
        let src = format!(
            "for $n in {} for $r in {} where $r = $n return ($r, '|')",
            atom_list(&outer),
            atom_list(&inner),
        );
        let mut on = Engine::with_options(EngineOptions {
            runtime_opt: true,
            ..Default::default()
        });
        let mut off = Engine::with_options(EngineOptions {
            runtime_opt: false,
            ..Default::default()
        });
        let a = on.evaluate_str(&src, None).unwrap();
        let b = off.evaluate_str(&src, None).unwrap();
        prop_assert_eq!(on.display_sequence(&a), off.display_sequence(&b));
        // The join is marked on this shape, so every tuple either probed
        // the table or fell back (the build aborts on non-string keys) —
        // with non-empty inputs the optimised engine must have counted
        // one or the other.
        let on_stats = *on.last_stats();
        prop_assert!(
            on_stats.join_probes + on_stats.join_fallbacks >= 1,
            "the optimised engine must count its join activity, got {:?}",
            on_stats
        );
        for (name, value) in off.last_stats().opt_counters() {
            prop_assert_eq!(value, 0, "counter {} must be zero with runtime_opt off", name);
        }
    }
}

// ---------------------------------------------------------------------
// Pooled-path and concurrency stress tests
//
// The worker pool must not change what any query observes: the whole
// corpus, fanned over a shared pool under every engine configuration,
// has to produce byte-identical outcome strings to the serial run. The
// shared `Store` index must behave as a proper concurrent lazy cache:
// many racing readers, one build.
// ---------------------------------------------------------------------

use crate::engine::{CompiledQuery, DupAttrPolicy, StackPool};
use std::sync::Arc;

/// The engine configurations every sweep runs under: four option sets,
/// each with the runtime optimiser (hoisting, hash join, cursor runtime)
/// on and off. "standard" makes duplicate attributes an error,
/// "galax-quirks" is the Galax preset, and "unoptimized" switches the AST
/// optimizer off, so both evaluators see the raw parse tree (dead lets and
/// traces intact) — a different program shape than the default runs.
pub(crate) fn engine_configs() -> Vec<(String, EngineOptions)> {
    let bases = [
        (
            "standard",
            EngineOptions {
                dup_attr_policy: DupAttrPolicy::Error,
                ..Default::default()
            },
        ),
        ("galax-quirks", EngineOptions::galax()),
        ("default", EngineOptions::default()),
        (
            "unoptimized",
            EngineOptions {
                optimize: false,
                ..Default::default()
            },
        ),
    ];
    bases
        .into_iter()
        .flat_map(|(name, options)| {
            [true, false].map(|runtime_opt| {
                (
                    format!("{name}, runtime_opt {runtime_opt}"),
                    EngineOptions {
                        runtime_opt,
                        ..options.clone()
                    },
                )
            })
        })
        .collect()
}

/// Every (document, query) case the corpus sweeps cover: each corpus
/// against its document, plus the context-free runs of the first two.
fn corpus_cases() -> Vec<(Option<&'static str>, String)> {
    let mut cases = Vec::new();
    // The first two corpora also run with no context item, where
    // `.`-dependent queries must fail identically — including the Galax
    // "$glx:dot" message without a position.
    for (doc, corpus) in [(DOC, CORPUS), (DEEP_DOC, AXIS_CORPUS)] {
        for src in corpus {
            cases.push((Some(doc), src.to_string()));
            cases.push((None, src.to_string()));
        }
    }
    for (doc, corpus) in [
        (JOIN_DOC, JOIN_CORPUS),
        (STREAM_DOC, STREAM_CORPUS),
        (CURSOR_DOC, CURSOR_CORPUS),
        (xmark_mini_doc(), XMARK_CORPUS),
        (deep_chain_doc(), DEEP_CHAIN_CORPUS),
        (DOC, CONSTRUCT_CORPUS),
    ] {
        for src in corpus {
            cases.push((Some(doc), src.to_string()));
        }
    }
    for (body, ..) in PURE_CORPUS {
        cases.push((Some(PURE_DOC), pure_source(body)));
    }
    cases
}

/// One corpus case on a fresh engine — on the shared pool when given one,
/// on a private single worker otherwise. The returned outcome string is
/// what the byte-identical assertions compare.
fn case_outcome(
    options: EngineOptions,
    pool: Option<Arc<StackPool>>,
    doc_xml: Option<&str>,
    src: &str,
) -> String {
    let mut e = match pool {
        Some(pool) => Engine::with_pool(options, pool),
        None => Engine::with_options(options),
    };
    let doc = doc_xml.map(|xml| e.load_document(xml).unwrap());
    assert_equivalent(&mut e, src, doc).unwrap()
}

#[test]
fn pooled_corpus_is_byte_identical_to_serial_under_all_configs() {
    let pool = Arc::new(StackPool::new(4));
    let cases = corpus_cases();
    for (name, options) in engine_configs() {
        let serial: Vec<String> = cases
            .iter()
            .map(|(doc, src)| case_outcome(options.clone(), None, *doc, src))
            .collect();
        let jobs: Vec<_> = cases
            .iter()
            .map(|(doc, src)| {
                let (options, doc, src) = (options.clone(), *doc, src.clone());
                let pool = Arc::clone(&pool);
                move || case_outcome(options, Some(pool), doc, &src)
            })
            .collect();
        let pooled = pool.run_batch(jobs);
        assert_eq!(serial, pooled, "pooled corpus diverged under {name}");
    }
}

#[test]
fn substrate_sweep_frozen_matches_thawed_under_all_configs() {
    // The frozen arena substrate and the thawed legacy overlay must be
    // observably identical: every corpus case produces byte-identical
    // outcomes under all eight configs whether the document stays frozen
    // (the post-parse default) or is force-thawed first — including with
    // every optimisation switched off.
    let cases = corpus_cases();
    for (name, options) in engine_configs() {
        for (doc_xml, src) in &cases {
            let frozen = {
                let mut e = Engine::with_options(options.clone());
                let doc = doc_xml.map(|xml| e.load_document(xml).unwrap());
                if let Some(d) = doc {
                    assert!(e.store().is_frozen(d), "parse should land frozen");
                }
                assert_equivalent(&mut e, src, doc).unwrap()
            };
            let thawed = {
                let mut e = Engine::with_options(options.clone());
                let doc = doc_xml.map(|xml| e.load_document(xml).unwrap());
                if let Some(d) = doc {
                    e.store_mut().thaw(d);
                    assert!(!e.store().is_frozen(d));
                }
                assert_equivalent(&mut e, src, doc).unwrap()
            };
            assert_eq!(
                frozen, thawed,
                "substrate divergence under {name} for {src}"
            );
        }
    }
}

/// Queries whose answers move with the edit script in
/// [`edited_outcomes`] — deliberately quirks-insensitive (no unbound
/// variables, no duplicate attributes) so the outcomes must be
/// byte-identical across every engine config, not merely within one.
const EDIT_CORPUS: &[&str] = &[
    "count(//book)",
    "count(//node())",
    "string(/lib/@genre)",
    "//book[@year=\"2010\"]/title/string(.)",
    "for $b in //book order by number($b/@year) return $b/title/string(.)",
    "string-join(//author, \",\")",
    "//book[position() = last()]/title/string(.)",
    "if (//note) then \"has\" else \"none\"",
    "exists(//note)",
    "empty(/lib/note)",
    "count(//author)",
    "count(//@year)",
    "exists(//book/@year)",
    "for $b in //book where $b/author return count($b//@year)",
    "for $v in //volume return concat(name($v), \":\", string-join($v/author, \",\"))",
];

/// Runs the scripted edit/query interleaving: each step mutates the live
/// document through the store, puts it back on the requested substrate, and
/// reruns [`EDIT_CORPUS`] through both the lowered runner and the
/// tree-walking reference. Structural steps thaw a frozen document; the
/// shape-preserving ones (attribute overwrite, text overwrite, rename) must
/// write its records in place, which each such step checks. Returns the
/// per-step outcome lines the cross-config assertions compare.
fn edited_outcomes(options: EngineOptions, thaw_between: bool) -> Vec<String> {
    use xmlstore::intern;
    let mut e = Engine::with_options(options);
    let doc = e.load_document(DOC).unwrap();
    let mut out = Vec::new();
    for step in 0..7 {
        {
            let s = e.store_mut();
            let lib = s.document_element(doc).unwrap();
            let books = s.descendant_elements_by_local(doc, intern("book"));
            let was_frozen = s.is_frozen(doc);
            let before = s.stats();
            match step {
                // Attribute overwrite on an existing element.
                0 => {
                    s.set_attribute(books[0], "year", "2010").unwrap();
                }
                // Grow: a whole new book subtree at the end of the shelf.
                1 => {
                    let b = s.create_element("book").unwrap();
                    s.set_attribute(b, "year", "2024").unwrap();
                    let t = s.create_element("title").unwrap();
                    let txt = s.create_text("D").unwrap();
                    s.append_child(t, txt).unwrap();
                    s.append_child(b, t).unwrap();
                    s.append_child(lib, b).unwrap();
                }
                // Attribute overwrite on the root element.
                2 => {
                    s.set_attribute(lib, "genre", "new").unwrap();
                }
                // Shrink: the loose note leaves the tree.
                3 => {
                    let note = s.descendant_elements_by_local(doc, intern("note"))[0];
                    s.detach(note);
                }
                // Grow inside an existing subtree.
                4 => {
                    let a = s.create_element("author").unwrap();
                    let txt = s.create_text("W").unwrap();
                    s.append_child(a, txt).unwrap();
                    s.append_child(books[2], a).unwrap();
                }
                // Text overwrite: the 2010 book gets a new title.
                5 => {
                    let title = s.child_element_named(books[0], "title").unwrap();
                    s.set_text(s.children(title)[0], "A2").unwrap();
                }
                // Rename: the book that gained an author becomes a volume.
                _ => {
                    s.set_name(books[2], "volume").unwrap();
                }
            }
            if was_frozen && matches!(step, 0 | 2 | 5 | 6) {
                let after = s.stats();
                assert!(s.is_frozen(doc), "step {step} must not thaw");
                assert_eq!(after.trees_thawed, before.trees_thawed, "step {step}");
                assert_eq!(
                    after.frozen_value_edits,
                    before.frozen_value_edits + 1,
                    "step {step} must write the frozen record in place"
                );
            }
            if thaw_between {
                s.thaw(doc);
            } else {
                s.freeze(doc).unwrap();
            }
        }
        for src in EDIT_CORPUS {
            let outcome = assert_equivalent(&mut e, src, Some(doc)).unwrap();
            out.push(format!("step {step} {src}: {outcome}"));
        }
    }
    out
}

#[test]
fn edit_interleaved_differential_under_all_configs() {
    // The same edit script must read back byte-identically under every
    // engine config, on both substrates: refrozen after each edit (value
    // edits write frozen records in place, structural ones take the
    // incremental splice path) and left thawed (the live-index patch path).
    let reference = edited_outcomes(EngineOptions::default(), false);
    for edited in ["2010", "A2", "volume:W"] {
        assert!(
            reference.iter().any(|o| o.contains(edited)),
            "the edit script must be visible in the outcomes ({edited}): {reference:?}"
        );
    }
    for (name, options) in engine_configs() {
        assert_eq!(
            edited_outcomes(options.clone(), false),
            reference,
            "refrozen edit script diverged under {name}"
        );
        assert_eq!(
            edited_outcomes(options, true),
            reference,
            "thawed edit script diverged under {name}"
        );
    }
}

/// Display-or-error outcome of one precompiled query.
fn eval_outcome(e: &mut Engine, q: &CompiledQuery, doc: Option<NodeId>) -> String {
    match e.evaluate(q, doc) {
        Ok(v) => format!("ok: {}", e.display_sequence(&v)),
        Err(err) => format!("err: {:?} {} at {:?}", err.code, err.message, err.position),
    }
}

/// Runs `f` on a thread spawned with std's default 2 MiB stack, the least
/// an inline plan's caller is promised (see [`crate::lower::INLINE_DEPTH`]).
fn on_small_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(2 * 1024 * 1024)
            .spawn_scoped(scope, f)
            .unwrap()
            .join()
            .unwrap()
    })
}

/// `levels` nested FLWORs walking down [`DEEP_DOC`], alternating `for`
/// and `let`, one nesting level each.
fn nested_flwor(levels: usize) -> String {
    let mut src = String::from("count(");
    for i in 0..levels {
        let seq = match i {
            0 => "//level".to_string(),
            _ => format!("($v{p}/*, $v{p})[1]", p = i - 1),
        };
        let binder = if i % 2 == 0 { "for" } else { "let" };
        let op = if i % 2 == 0 { "in" } else { ":=" };
        src.push_str(&format!("{binder} $v{i} {op} {seq} return "));
    }
    src.push_str(&format!("string($v{}/@a))", levels - 1));
    src
}

/// A plan at the nesting bound runs inline and, from a 2 MiB thread in a
/// debug build, gives the reference walker's result under every config.
#[test]
fn small_stack_runs_a_plan_at_the_inline_bound() {
    use crate::lower::{Route, INLINE_DEPTH};
    for (name, options) in engine_configs() {
        let compiler = Engine::with_options(options.clone());
        let depth = |levels| {
            compiler
                .compile(&nested_flwor(levels))
                .unwrap()
                .program
                .route
        };
        let levels = (1..)
            .take_while(|&n| matches!(depth(n), Route::Inline { .. }))
            .last()
            .unwrap();
        assert_eq!(
            depth(levels),
            Route::Inline {
                depth: INLINE_DEPTH
            },
            "{name}"
        );
        assert!(matches!(depth(levels + 1), Route::Deep(_)), "{name}");
        let outcome = on_small_stack(|| {
            let mut e = Engine::with_options(options.clone());
            let doc = e.load_document(DEEP_DOC).unwrap();
            assert_equivalent(&mut e, &nested_flwor(levels), Some(doc))
        });
        assert_eq!(outcome, Ok("ok: 4".to_string()), "{name}");
    }
}

/// `deep-equal` walks a 9,000-level document with its own work stack, so
/// the plan runs inline, from a 2 MiB thread.
#[test]
fn small_stack_runs_deep_equal_over_a_deep_document() {
    let deep = |leaf: &str| format!("{}{leaf}{}", "<d>".repeat(9_000), "</d>".repeat(9_000));
    let outcome = on_small_stack(|| {
        let mut e = Engine::new();
        for (uri, leaf) in [("a", "x"), ("b", "x"), ("c", "y")] {
            let doc = e.load_document(&deep(leaf)).unwrap();
            e.register_document(uri, doc);
        }
        let q = e
            .compile("(deep-equal(doc('a'), doc('b')), deep-equal(doc('a'), doc('c')))")
            .unwrap();
        assert!(matches!(
            q.program.route,
            crate::lower::Route::Inline { .. }
        ));
        let out = e.evaluate(&q, None).unwrap();
        e.display_sequence(&out)
    });
    assert_eq!(outcome, "true false");
}

#[test]
fn deep_corpus_from_threads_matches_serial() {
    // Compile the axis corpus ONCE per runtime_opt value; every thread
    // evaluates the same `Arc`-shared programs on its own engine and store.
    for runtime_opt in [true, false] {
        let options = EngineOptions {
            runtime_opt,
            ..Default::default()
        };
        let compiler = Engine::with_options(options.clone());
        let queries: Vec<(&str, std::result::Result<CompiledQuery, String>)> = AXIS_CORPUS
            .iter()
            .map(|src| (*src, compiler.compile(src).map_err(|e| e.message)))
            .collect();

        let run_all = || -> Vec<String> {
            let mut e = Engine::with_options(options.clone());
            let doc = e.load_document(DEEP_DOC).unwrap();
            queries
                .iter()
                .map(|(_, q)| match q {
                    Ok(q) => eval_outcome(&mut e, q, Some(doc)),
                    Err(msg) => format!("compile err: {msg}"),
                })
                .collect()
        };

        let serial = run_all();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4).map(|_| scope.spawn(run_all)).collect();
            for handle in handles {
                assert_eq!(handle.join().unwrap(), serial, "runtime_opt {runtime_opt}");
            }
        });
    }
}

#[test]
fn shared_store_index_builds_once_under_contention() {
    use std::cmp::Ordering;
    use xmlstore::parser::ParseOptions;
    use xmlstore::{intern, Store};

    let mut store = Store::new();
    let doc = store
        .parse_str(DEEP_DOC, &ParseOptions::data_oriented())
        .unwrap();
    // Parsed documents land in the frozen arena, which never touches the
    // stamp index; thaw the tree to exercise the legacy indexed path this
    // test is about.
    store.thaw(doc);
    let store = store; // concurrent readers only from here on

    // Index-free expected answers, computed before any index exists.
    let leaf = intern("leaf");
    let k = intern("k");
    let nodes: Vec<NodeId> = std::iter::once(doc)
        .chain(store.descendants_iter(doc))
        .collect();
    let expected_orders: Vec<Option<Ordering>> = nodes
        .iter()
        .flat_map(|&a| nodes.iter().map(move |&b| (a, b)))
        .map(|(a, b)| store.doc_order_by_walk(a, b))
        .collect();
    let expected_leaves: Vec<NodeId> = store
        .descendants_iter(doc)
        .filter(|&n| store.is_element(n) && store.name(n).is_some_and(|q| q.local_sym() == leaf))
        .collect();
    let expected_owners: Vec<NodeId> = store
        .descendants_iter(doc)
        .filter(|&n| store.is_element(n) && store.attribute_value(n, "k") == Some("a"))
        .collect();
    assert!(!expected_leaves.is_empty() && !expected_owners.is_empty());
    assert_eq!(store.index_passes(), 0, "baseline must not touch the index");

    // N racing readers, each probing the lazy index several times over.
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for _ in 0..3 {
                    let orders: Vec<Option<Ordering>> = nodes
                        .iter()
                        .flat_map(|&a| nodes.iter().map(move |&b| (a, b)))
                        .map(|(a, b)| store.doc_order(a, b))
                        .collect();
                    assert_eq!(format!("{orders:?}"), format!("{expected_orders:?}"));
                    assert_eq!(
                        format!("{:?}", store.descendant_elements_by_local(doc, leaf)),
                        format!("{expected_leaves:?}")
                    );
                    assert_eq!(
                        format!("{:?}", store.elements_with_attr_value(doc, k, "a")),
                        format!("{expected_owners:?}")
                    );
                }
            });
        }
    });

    // One tree, no mutations: the numbering ran exactly once — no torn or
    // repeated rebuilds under contention.
    assert_eq!(store.index_passes(), 1);
}

#[test]
fn frozen_tree_needs_no_index_under_contention() {
    use std::cmp::Ordering;
    use xmlstore::parser::ParseOptions;
    use xmlstore::{intern, Store};

    let mut store = Store::new();
    let doc = store
        .parse_str(DEEP_DOC, &ParseOptions::data_oriented())
        .unwrap();
    let store = store; // parsed documents land frozen

    let leaf = intern("leaf");
    let nodes: Vec<NodeId> = std::iter::once(doc)
        .chain(store.descendants_iter(doc))
        .collect();
    let expected_orders: Vec<Option<Ordering>> = nodes
        .iter()
        .flat_map(|&a| nodes.iter().map(move |&b| (a, b)))
        .map(|(a, b)| store.doc_order_by_walk(a, b))
        .collect();
    let expected_leaves: Vec<NodeId> = store
        .descendants_iter(doc)
        .filter(|&n| store.is_element(n) && store.name(n).is_some_and(|q| q.local_sym() == leaf))
        .collect();

    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                for _ in 0..3 {
                    let orders: Vec<Option<Ordering>> = nodes
                        .iter()
                        .flat_map(|&a| nodes.iter().map(move |&b| (a, b)))
                        .map(|(a, b)| store.doc_order(a, b))
                        .collect();
                    assert_eq!(format!("{orders:?}"), format!("{expected_orders:?}"));
                    assert_eq!(
                        format!("{:?}", store.descendant_elements_by_local(doc, leaf)),
                        format!("{expected_leaves:?}")
                    );
                }
            });
        }
    });

    // The frozen layout answered everything: the stamp index never built,
    // and the name lookups went through arena slice scans.
    assert_eq!(store.index_passes(), 0);
    assert!(store.stats().arena_slice_scans > 0);
}

#[test]
fn timing_axis_micro() {
    use std::time::Instant;
    let mut s = String::from("<root>");
    for i in 0..2000 {
        s.push_str(&format!(
            "<item k='k{}' g='g{}'><sub/></item>",
            i % 50,
            i % 7
        ));
    }
    for _ in 0..200 {
        s.push_str("<d>");
    }
    s.push_str("<leaf mark='x'/>");
    for _ in 0..200 {
        s.push_str("</d>");
    }
    s.push_str("</root>");
    for runtime_opt in [true, false] {
        let mut e = Engine::with_options(EngineOptions {
            runtime_opt,
            ..Default::default()
        });
        let doc = e.load_document(&s).unwrap();
        for src in [
            "count(//item)",
            "count(/root/item[@k = \"k7\"])",
            "count(//leaf/ancestor::d)",
        ] {
            let q = e.compile(src).unwrap();
            for _ in 0..50 {
                e.evaluate(&q, Some(doc)).unwrap();
            }
            let t = Instant::now();
            for _ in 0..500 {
                e.evaluate(&q, Some(doc)).unwrap();
            }
            println!(
                "runtime_opt {runtime_opt}, {src}: {:?}/call",
                t.elapsed() / 500
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Downsized XMark corpus and a hostile-deep chain
// ---------------------------------------------------------------------------

/// A downsized, fully deterministic XMark-style auction document mirroring
/// the shape of `awb::workload::xmark_auction` (which cannot be imported
/// here without a dependency cycle): site → regions/categories/people/
/// open_auctions/closed_auctions, with mixed-content descriptions, entity
/// references, and the buyer/@person ↔ person/@id join edges the scenario
/// driver exercises. Values are arithmetic functions of the index, so the
/// document is byte-identical on every run.
fn xmark_mini_doc() -> &'static str {
    static DOC: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    DOC.get_or_init(|| {
        const REGIONS: [&str; 6] = [
            "africa",
            "asia",
            "australia",
            "europe",
            "namerica",
            "samerica",
        ];
        const ITEMS: usize = 18;
        const PEOPLE: usize = 12;
        const OPEN: usize = 6;
        const CLOSED: usize = 8;
        const CATEGORIES: usize = 4;
        let mut s = String::new();
        s.push_str("<site><regions>");
        for (r, region) in REGIONS.iter().enumerate() {
            s.push_str(&format!("<{region}>"));
            for i in (r..ITEMS).step_by(REGIONS.len()) {
                s.push_str(&format!(
                    "<item id=\"item{i}\"><location>loc{}</location>\
                     <quantity>{}</quantity><name>gadget {i}</name>\
                     <description><text>alpha <bold>beta{}</bold> &amp; \
                     <keyword>gamma</keyword> &#65;&lt;tail&gt;</text></description>\
                     <incategory category=\"category{}\"/>\
                     <mailbox><mail><from>person{}</from><to>person{}</to>\
                     <date>0{}/1{}/200{}</date></mail></mailbox></item>",
                    i % 4,
                    1 + i % 3,
                    i % 5,
                    i % CATEGORIES,
                    i % PEOPLE,
                    (i + 1) % PEOPLE,
                    1 + i % 9,
                    i % 3,
                    i % 4,
                ));
            }
            s.push_str(&format!("</{region}>"));
        }
        s.push_str("</regions><categories>");
        for c in 0..CATEGORIES {
            s.push_str(&format!(
                "<category id=\"category{c}\"><name>cat {c}</name></category>"
            ));
        }
        s.push_str("</categories><people>");
        for p in 0..PEOPLE {
            s.push_str(&format!(
                "<person id=\"person{p}\"><name>name {p}</name>\
                 <emailaddress>mailto:p{p}@site.example</emailaddress>"
            ));
            if p % 4 != 0 {
                s.push_str(&format!(
                    "<address><street>{p} main</street><city>city{}</city>\
                     <country>country{}</country></address>",
                    p % 5,
                    p % 3
                ));
            }
            if p % 3 > 0 {
                s.push_str("<watches>");
                for w in 0..p % 3 {
                    s.push_str(&format!(
                        "<watch open_auction=\"open_auction{}\"/>",
                        (p + w) % OPEN
                    ));
                }
                s.push_str("</watches>");
            }
            s.push_str("</person>");
        }
        s.push_str("</people><open_auctions>");
        for a in 0..OPEN {
            s.push_str(&format!(
                "<open_auction id=\"open_auction{a}\"><initial>{}.50</initial>",
                5 + a
            ));
            for b in 0..1 + a % 4 {
                s.push_str(&format!(
                    "<bidder><date>0{}/10/2001</date>\
                     <personref person=\"person{}\"/>\
                     <increase>{}.00</increase></bidder>",
                    1 + b % 9,
                    (a * 3 + b) % PEOPLE,
                    1 + b
                ));
            }
            s.push_str(&format!(
                "<current>{}.50</current><itemref item=\"item{}\"/>\
                 <seller person=\"person{}\"/><quantity>1</quantity></open_auction>",
                6 + 2 * a,
                a % ITEMS,
                (a + 5) % PEOPLE
            ));
        }
        s.push_str("</open_auctions><closed_auctions>");
        for c in 0..CLOSED {
            s.push_str(&format!(
                "<closed_auction><seller person=\"person{}\"/>\
                 <buyer person=\"person{}\"/><itemref item=\"item{}\"/>\
                 <price>{}.00</price><date>1{}/02/2002</date>\
                 <quantity>{}</quantity></closed_auction>",
                c % PEOPLE,
                (c * 5 + 1) % PEOPLE,
                (c * 2) % ITEMS,
                10 + 3 * c,
                c % 3,
                1 + c % 2
            ));
        }
        s.push_str("</closed_auctions></site>");
        s
    })
}

/// A hostile-deep chain: 500 nested `<d n="i">` elements around one text
/// leaf — deep enough that per-level recursion shows, well under the
/// parser's `max_depth`, with an attribute on every level so reverse-axis
/// and positional queries have something to select.
fn deep_chain_doc() -> &'static str {
    static DOC: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    DOC.get_or_init(|| {
        const DEPTH: usize = 500;
        let mut s = String::with_capacity(DEPTH * 16);
        for i in 0..DEPTH {
            s.push_str(&format!("<d n=\"{i}\">"));
        }
        s.push('x');
        for _ in 0..DEPTH {
            s.push_str("</d>");
        }
        s
    })
}

/// Downsized-XMark corpus: the scenario driver's point, join, and
/// stream-prefix query shapes plus aggregation, mixed-content, and
/// reverse-join probes over the auction document.
const XMARK_CORPUS: &[&str] = &[
    // The scenario driver's three op-class query shapes, verbatim.
    "string(/site/people/person[@id = \"person3\"]/name)",
    "count(for $p in subsequence(/site/people/person, 1, 10) for $a in /site/closed_auctions/closed_auction where $a/buyer/@person = $p/@id return $a)",
    "count(subsequence(/site/regions/africa/item, 1, 16))",
    // Aggregation over auction values.
    "sum(for $c in /site/closed_auctions/closed_auction return number($c/price))",
    "count(//item)",
    "count(//person[address])",
    "count(//person[not(address)])",
    "for $a in /site/open_auctions/open_auction where count($a/bidder) > 2 order by string($a/@id) return string($a/@id)",
    "for $p in /site/people/person[watches] return string($p/@id)",
    "distinct-values(//incategory/@category)",
    "string-join(for $i in subsequence(//item, 1, 3) return string($i/name), \"|\")",
    // Mixed content and entity references survive both evaluators.
    "string((//item)[1]/description/text)",
    "string((//item)[2]/description/text/bold)",
    "count(//mail[from = \"person3\"])",
    "string(/site/regions/asia/item[1]/@id)",
    "count(//watch[@open_auction = \"open_auction2\"])",
    "for $b in //bidder order by number($b/increase) descending return string($b/personref/@person)",
];

/// Hostile-deep corpus: descendant sweeps, reverse axes, deep positional
/// indexing, and the string value of the whole chain.
const DEEP_CHAIN_CORPUS: &[&str] = &[
    "count(//d)",
    "string((//d)[last()])",
    "count(//d[@n = \"499\"])",
    "string((//d)[250]/@n)",
    "count((//d)[last()]/ancestor::d)",
    "string(/d/@n)",
    "count(//d[not(d)])",
];

#[test]
fn xmark_mini_corpus_matches_reference_under_all_configs() {
    for (name, options) in engine_configs() {
        let mut e = Engine::with_options(options);
        let doc = e.load_document(xmark_mini_doc()).unwrap();
        for src in XMARK_CORPUS {
            assert_equivalent(&mut e, src, Some(doc))
                .unwrap_or_else(|d| panic!("{name}: {src}: {d}"));
        }
    }
}

#[test]
fn deep_chain_corpus_matches_reference_under_all_configs() {
    for (name, options) in engine_configs() {
        let mut e = Engine::with_options(options);
        let doc = e.load_document(deep_chain_doc()).unwrap();
        for src in DEEP_CHAIN_CORPUS {
            assert_equivalent(&mut e, src, Some(doc))
                .unwrap_or_else(|d| panic!("{name}: {src}: {d}"));
        }
    }
}

// ---------------------------------------------------------------------
// Pure calls: hoisting through them, and splitting a step at its
// invariant predicate prefix
// ---------------------------------------------------------------------

/// A model with a relation-type hierarchy (`reads` < `calls` < `uses`), its
/// relations spread over two groups so a path has two context nodes, two
/// deliberately bad attributes (`w='x'` in the second group, `v='bad'` in
/// the first) for the error-order cases, and nodes with zero, one and two
/// `val` children for the join fallback.
const PURE_DOC: &str = "<m>\
    <types><t name='uses'/><t name='calls' parent='uses'/><t name='reads' parent='calls'/><t name='likes'/></types>\
    <g id='g1'>\
      <rel type='calls' src='a' dst='b' w='1' v='5'/>\
      <rel type='likes' src='a' dst='c' w='2' v='bad'/>\
      <rel type='reads' src='c' dst='b' w='3' v='7'/>\
    </g>\
    <g id='g2'>\
      <rel type='uses' src='b' dst='a' w='4' v='1'/>\
      <rel type='reads' src='a' dst='a' w='x' v='2'/>\
      <rel type='bogus' src='c' dst='c' w='5' v='3'/>\
      <rel type='calls' src='b' dst='c' w='6' v='9'/>\
    </g>\
    <node id='a' kind='app'><val>p</val><val>q</val></node>\
    <node id='b' kind='db'><val>q</val></node>\
    <node id='c' kind='app'/>\
</m>";

/// The recursive subtype test every hoisting case below calls.
const PURE_PROLOG: &str = "declare variable $m := /m; \
    declare function local:sub($s, $sup) { \
      if ($s = $sup) then true() \
      else let $p := string(($m/types/t[@name = $s])[1]/@parent) \
           return if ($p = '') then false() else local:sub($p, $sup) }; \
    declare function local:w($s) { $s cast as xs:integer }; \
    declare function local:mk($s) { <w k='{$s}'><x/><y/></w> }; \
    declare function local:seen($s) { trace('seen', $s) }; \
    declare function local:kids($e) { count($e/*) }; \
    declare function local:self($e) { $e }; ";

/// Each case with the plan the runtime passes must make of it: how many
/// steps are split at an invariant prefix.
const PURE_CORPUS: &[(&str, usize, usize)] = &[
    // A recursive pure function as the first predicate inside nested
    // `for`s: the prefix hoists out of both loops.
    (
        "for $a in $m/node for $b in $m/node \
         return count($m/g/rel[local:sub(string(@type), 'uses')][@src = $a/@id][@dst = $b/@id])",
        1,
        1,
    ),
    // Nested `for`s: the outer loop's variable in the middle predicate
    // stays out of the prefix hoisted above that loop.
    (
        "for $a in $m/node return for $b in $m/node \
         return count($m/g/rel[local:sub(string(@type), 'uses')][@src = $a/@id][@dst = $b/@id])",
        1,
        1,
    ),
    // The same prefix whole, as a `for` binding, beside its split twin.
    (
        "for $a in $m/node return ($a/@id/string(), \
           for $r in $m/g/rel[local:sub(string(@type), 'calls')][@src = $a/@id] return string($r/@dst))",
        1,
        1,
    ),
    // A constructing function is impure: each call makes a fresh node, so
    // hoisting it would make `is` and `<<` lie.
    (
        "for $i in (1, 2) for $j in (1, 2) \
         return (local:mk('a') is local:mk('a'), count(local:mk('a') | local:mk('a')), \
                 try { local:mk($i)/x << local:mk($i)/y } catch { 'two trees' })",
        0,
        0,
    ),
    (
        "for $a in $m/node return count($m/g/rel[local:mk(@type) instance of element(w)][@src = $a/@id])",
        0,
        0,
    ),
    // A function that calls trace is impure: the events fire per call, in
    // order, with their positions.
    (
        "for $i in (1, 2) return count($m/node[local:seen(string(@id)) != ''][$i = 1])",
        0,
        0,
    ),
    (
        "for $a in $m/node return count($m/g/rel[local:sub(string(@type), 'uses')][local:seen(@src) = $a/@id])",
        0,
        0,
    ),
    // Positional suffixes are per context node: never split.
    (
        "for $i in (1, 2) for $r in $m/g/rel[local:sub(string(@type), 'uses')][@v != $i][2] \
         return string($r/@dst)",
        0,
        0,
    ),
    (
        "for $i in (1, 2) for $r in $m/g/rel[local:sub(string(@type), 'uses')][@v != $i][last()] \
         return string($r/@dst)",
        0,
        0,
    ),
    (
        "for $i in (1, 2) for $r in $m/g/rel[local:sub(string(@type), 'uses')][$i] \
         return string($r/@dst)",
        0,
        0,
    ),
    (
        "for $i in (1, 2) for $r in $m/g/rel[local:sub(string(@type), 'uses')][position() = $i] \
         return string($r/@dst)",
        0,
        0,
    ),
    (
        "for $i in (1, 2) for $r in $m/g/rel[local:sub(string(@type), 'uses')][@v > $i][position() < 2] \
         return string($r/@dst)",
        0,
        0,
    ),
    // The same shape with a boolean suffix splits.
    (
        "for $i in (1, 2) for $r in $m/g/rel[local:sub(string(@type), 'uses')][@v > $i] \
         return string($r/@dst)",
        1,
        0,
    ),
    // The prefix raises on a node of the second group while the suffix
    // raises on a node of the first: the unsplit program reports the
    // suffix's error (first group first), and so must the split one.
    (
        "for $i in (1, 2) return count($m/g/rel[local:w(string(@w)) > 0][(string(@v) cast as xs:integer) > $i])",
        1,
        0,
    ),
    // Only the prefix raises: its own error, every time.
    (
        "for $i in (1, 2) return count($m/g/rel[local:w(string(@w)) > 0][@src = $i])",
        1,
        1,
    ),
    // A hoisted cell whose first read raises inside try/catch: never
    // filled, so every read raises again and is caught again.
    (
        "for $i in (1, 2, 3) return try { count($m/g/rel[local:w(string(@w)) > 0][@src != $i]) } catch { 'caught' }",
        1,
        0,
    ),
    // The hash join now admits pure calls; a key that raises on a later
    // item must not pre-empt the trace the scan's earlier match fires.
    (
        "for $n in ('q') for $r in reverse($m/node) where string($r/val) = $n \
         return trace('hit', string($r/@id))",
        0,
        0,
    ),
    // Keyed splits: the key attribute is missing on every node, so
    // `string(@nope)` is "" for each while `@nope` has no atom at all.
    (
        "for $s in ('', 'a') return (count($m/g/rel[local:sub(string(@type), 'uses')][string(@nope) = $s]), \
           count($m/g/rel[local:sub(string(@type), 'uses')][@nope = $s]))",
        2,
        2,
    ),
    // Numeric and boolean comparands: a probe or key atom outside the
    // string family, so every read filters generically.
    (
        "for $i in (1, 4) return (count($m/g/rel[local:sub(string(@type), 'uses')][@w = $i]), \
           count($m/g/rel[local:sub(string(@type), 'uses')][number(@v) = $i]), \
           count($m/g/rel[local:sub(string(@type), 'uses')][boolean(@v = '5') = ($i = 1)]))",
        3,
        3,
    ),
    // Untyped against string, both ways round: both in the string family.
    (
        "for $a in $m/node return (count($m/g/rel[local:sub(string(@type), 'uses')][@src = string($a/@id)]), \
           count($m/g/rel[local:sub(string(@type), 'uses')][string(@dst) = $a/@id]))",
        2,
        2,
    ),
    // An empty prefix never evaluates the comparand, which would raise;
    // a non-empty one raises it, and the unsplit path reports it.
    (
        "for $s in ('x', 'y') return count($m/g/rel[local:sub(string(@type), 'none')][string(@src) = local:w($s)])",
        1,
        1,
    ),
    (
        "for $s in ('x', 'y') return count($m/g/rel[local:sub(string(@type), 'uses')][string(@src) = local:w($s)])",
        1,
        1,
    ),
    // Duplicate key attributes (kept by the Galax quirks, an error
    // elsewhere): `@k` has two atoms, and `string(@k)` raises while the
    // table is built, so the reads filter generically and raise in order.
    (
        "let $d := <r><a k='x'>{attribute k {'y'}}</a><a k='y'/></r> \
         return for $s in ('x', 'y') return count($d/a[exists(@k)][@k = $s])",
        1,
        1,
    ),
    (
        "let $d := <r><a k='x'>{attribute k {'y'}}</a><a k='y'/></r> \
         return for $s in ('x', 'y') return count($d/a[exists(@k)][string(@k) = $s])",
        1,
        1,
    ),
    // The fused attribute probe with a `string(X)` comparand: answered
    // from the index, or raising `XPTY0004` on several items just as the
    // first candidate's predicate would.
    (
        "for $r in $m/g/rel return string($m/node[@id = string($r/@dst)]/@kind)",
        0,
        0,
    ),
    (
        "for $g in $m/g return count($m/node[@id = string($g/rel/@src)])",
        0,
        0,
    ),
    // Pure functions over constructed nodes: each construction is a new
    // node, so a memoized call keyed on the first never answers another.
    (
        "for $i in (1, 2) let $x := <a><b/>{ for $j in 1 to $i return <b/> }</a> \
         return (local:kids($x), local:kids(<a><b/></a>), local:self($x) is $x, \
                 local:self(<a/>) is local:self(<a/>), local:kids(local:mk($i)), local:kids($x))",
        0,
        0,
    ),
];
fn pure_source(body: &str) -> String {
    format!("{PURE_PROLOG}{body}")
}

#[test]
fn pure_corpus_splits_only_where_safe() {
    let e = Engine::new();
    for (body, splits, keyed) in PURE_CORPUS {
        let q = e.compile(&pure_source(body)).unwrap();
        assert_eq!(
            q.plan_stats.split_prefixes, *splits,
            "{body}: {:?}",
            q.plan_stats
        );
        assert_eq!(
            q.plan_stats.keyed_splits, *keyed,
            "{body}: {:?}",
            q.plan_stats
        );
        if *splits > 0 {
            assert!(q.plan_stats.hoisted_invariant >= *splits, "{body}");
        }
    }
    // The constructing call is never cached, anywhere in its query.
    let (mk, ..) = PURE_CORPUS
        .iter()
        .find(|(body, ..)| body.contains("local:mk('a') is"))
        .unwrap();
    let q = e.compile(&pure_source(mk)).unwrap();
    let plan = e.explain(&q);
    assert!(!plan.contains("cache-once"), "{plan}");
    assert!(
        plan.contains("local:mk  [impure: constructs nodes]"),
        "{plan}"
    );
    assert!(
        plan.contains("local:seen  [impure: calls fn:trace]"),
        "{plan}"
    );
    assert!(plan.contains("local:sub  [pure]"), "{plan}");
}

#[test]
fn pure_corpus_trace_events_keep_their_positions() {
    // Trace events — labels, values and call positions — are identical
    // with the runtime passes on, with them off, and on the walker.
    let mut runs = Vec::new();
    for runtime_opt in [true, false] {
        let mut e = Engine::with_options(EngineOptions {
            runtime_opt,
            ..Default::default()
        });
        let doc = e.load_document(PURE_DOC).unwrap();
        for (body, ..) in PURE_CORPUS {
            let q = e.compile(&pure_source(body)).unwrap();
            let _ = e.evaluate(&q, Some(doc));
            let lowered = e.take_trace_events();
            let _ = e.evaluate_reference(&q, Some(doc));
            assert_eq!(lowered, e.take_trace_events(), "{body}");
            runs.push(lowered);
        }
    }
    let (on, off) = runs.split_at(PURE_CORPUS.len());
    assert_eq!(on, off);
    assert!(on.iter().any(|events| !events.is_empty()));
}

// ---------------------------------------------------------------------
// The per-evaluation memo of pure calls
// ---------------------------------------------------------------------

/// A counting recursion and a wrapper that makes the same call `k` levels
/// deeper. With `recursion_limit` 40, `local:d(30)` nests 30 levels below
/// its caller, so it succeeds from depth 9 and fails from depth 10.
const DEPTH_PROLOG: &str = "declare function local:d($n) { if ($n = 0) then 0 else 1 + local:d($n - 1) }; \
    declare function local:wrap($k, $n) { if ($k = 0) then local:d($n) else local:wrap($k - 1, $n) }; ";

#[test]
fn memo_never_answers_a_call_that_would_reach_the_recursion_limit() {
    // Each case calls `local:d(30)` shallow first, so the memo holds it,
    // then again from deeper: one level short of the limit (a hit), at
    // the limit, and far past it (each must fail exactly as unmemoized).
    let cases = [
        ("(local:d(30), local:wrap(8, 30))", true),
        ("(local:d(30), local:wrap(9, 30))", false),
        ("(local:d(30), local:wrap(15, 30))", false),
        ("(local:wrap(15, 30), local:d(30))", false),
    ];
    for (name, options) in engine_configs() {
        let options = EngineOptions {
            recursion_limit: 40,
            ..options
        };
        let mut e = Engine::with_options(options.clone());
        for (body, succeeds) in cases {
            let src = format!("{DEPTH_PROLOG}{body}");
            let outcome =
                assert_equivalent(&mut e, &src, None).unwrap_or_else(|m| panic!("{name}: {m}"));
            assert_eq!(
                outcome.starts_with("ok"),
                succeeds,
                "{name}: {body}: {outcome}"
            );
            let q = e.compile(&src).unwrap();
            let _ = e.evaluate(&q, None);
            let hits = e.last_reuse_stats().memo_hits;
            if options.runtime_opt && succeeds {
                assert!(hits > 0, "{name}: {body}: the shallow call was not reused");
            }
            if !options.runtime_opt {
                assert_eq!(hits, 0, "{name}: {body}");
            }
        }
    }
}

#[test]
fn memo_starts_afresh_for_each_global_initializer_and_the_body() {
    // `$early` calls `local:g()` while `$g` is still the external binding;
    // the body calls it after the declaration overrode it.
    let src = "declare variable $early := local:g(); \
        declare variable $g := 5; \
        declare function local:g() { $g }; \
        ($early, local:g(), local:g())";
    for (name, options) in engine_configs() {
        let mut e = Engine::with_options(options.clone());
        e.bind("g", Sequence::singleton(Item::integer(1)));
        let outcome =
            assert_equivalent(&mut e, src, None).unwrap_or_else(|m| panic!("{name}: {m}"));
        assert_eq!(outcome, "ok: 1 5 5", "{name}");
        let q = e.compile(src).unwrap();
        e.evaluate(&q, None).unwrap();
        assert_eq!(
            e.last_reuse_stats().memo_hits,
            u64::from(options.runtime_opt),
            "{name}: only the body's second call is a hit"
        );
    }
}
