//! Pins the README's observability example verbatim — if this breaks, the
//! README is lying.

use xquery::Engine;

#[test]
fn readme_observability_example() {
    let mut e = Engine::new();
    let doc = e
        .load_document("<m><n k='a'/><n k='b'/><r k='a'/></m>")
        .unwrap();
    let q = e
        .compile("for $n in /m/n for $r in /m/r where $r/@k = $n/@k return $r")
        .unwrap();
    let plan = e.explain(&q);
    assert!(plan.contains("hash join: build side"), "{plan}");
    e.evaluate(&q, Some(doc)).unwrap();
    assert!(e.last_stats().join_probes > 0); // the join really ran
}
