//! Hostile-payload tests for the service edge: oversized documents against
//! the doc-cache budget, too-deep and too-wide documents against the LOAD
//! parse caps, and escape-heavy content through the serializer — every one
//! must come back as a structured `ERR` frame on a connection that stays up.

use qsvc::{Client, Service, ServiceConfig};

const SMALL: &str = r#"<doc><item n="1"/><item n="2"/></doc>"#;

fn hostile_config() -> ServiceConfig {
    ServiceConfig {
        eval_workers: 2,
        doc_cache_bytes: 64 * 1024,
        load_max_depth: Some(1_000),
        load_max_nodes: Some(10_000),
        ..Default::default()
    }
}

/// A document whose snapshot is bigger than `bytes` of cache budget: wide
/// items with fat attribute payloads.
fn oversized_doc() -> String {
    let mut s = String::from("<doc>");
    for i in 0..2_000 {
        s.push_str(&format!(r#"<item n="{i}" pad="{:0>24}"/>"#, i));
    }
    s.push_str("</doc>");
    s
}

/// Satellite pin: a single document bigger than the whole byte budget is
/// rejected with a structured `ERR ADMIT` and the cache is left exactly as
/// it was — resident entries stay resident, accounted bytes do not move,
/// and the connection keeps serving.
#[test]
fn oversized_load_rejects_structurally_and_leaves_cache_intact() {
    let service = Service::spawn(hostile_config()).unwrap();
    let mut client = Client::connect(service.addr(), Some("big")).unwrap();

    let kept = client.load("keep", SMALL).unwrap();
    let (_, _, _, rejections_before, used_before, entries_before) = service.doc_cache_counters();
    assert_eq!(used_before, kept);
    assert_eq!(entries_before, 1);

    let err = client.load("huge", &oversized_doc()).unwrap_err();
    let err = err.service().expect("structured error, not a dead socket");
    assert_eq!(err.code, "ADMIT");
    assert!(
        err.message.contains("bytes exceeds") && err.message.contains("budget"),
        "admission error must name the sizes: {:?}",
        err.message
    );

    // The cache was not churned to make room: same entry, same bytes, one
    // more rejection, zero evictions.
    let (_, _, evictions, rejections, used, entries) = service.doc_cache_counters();
    assert_eq!(entries, 1, "the resident document must survive");
    assert_eq!(used, used_before, "accounted bytes must not move");
    assert_eq!(evictions, 0, "rejection must not evict anything");
    assert_eq!(rejections, rejections_before + 1);

    // The resident document still answers, and the rejected uri is a miss.
    assert_eq!(client.query("keep", "count(//item)").unwrap(), "2");
    let miss = client.query("huge", "count(//item)").unwrap_err();
    assert_eq!(miss.service().unwrap().code, "NODOC");
}

/// Satellite pin: a LOAD past the depth cap comes back as `ERR XMLPARSE`
/// with the parse position of the tag that broke the limit, and the
/// connection (and pool) keep serving afterwards.
#[test]
fn too_deep_load_returns_parse_error_with_position() {
    let service = Service::spawn(hostile_config()).unwrap();
    let mut client = Client::connect(service.addr(), Some("deep")).unwrap();

    let depth = 5_000; // past load_max_depth, far under the default 10k
    let mut xml = String::with_capacity(depth * 7);
    for _ in 0..depth {
        xml.push_str("<a>");
    }
    xml.push('x');
    for _ in 0..depth {
        xml.push_str("</a>");
    }
    let err = client.load("deep", &xml).unwrap_err();
    let err = err.service().expect("structured error, not a dead socket");
    assert_eq!(err.code, "XMLPARSE");
    assert!(
        err.message.contains("nesting") || err.message.contains("deep"),
        "message should say what was wrong: {:?}",
        err.message
    );
    let (line, column) = err.position.expect("depth rejection carries a position");
    assert_eq!(line, 1);
    // 1000 accepted `<a>` tags = 3000 chars, then `<a` of the rejected tag.
    assert_eq!(
        column as usize,
        1_000 * 3 + 3,
        "position is the tag that broke the limit"
    );

    // Same connection, next request: everything still works.
    client.load("ok", SMALL).unwrap();
    assert_eq!(client.query("ok", "count(//item)").unwrap(), "2");
}

/// Satellite pin: a LOAD past the record cap (the service's arena-exhaustion
/// guard) fails with `ERR XMLPARSE` carrying the parse position — never a
/// pool panic or a dropped connection.
#[test]
fn too_wide_load_returns_arena_full_with_position() {
    let service = Service::spawn(hostile_config()).unwrap();
    let mut client = Client::connect(service.addr(), Some("wide")).unwrap();

    let mut xml = String::from("<r>");
    for _ in 0..100_000 {
        xml.push_str("<c/>");
    }
    xml.push_str("</r>");
    let err = client.load("wide", &xml).unwrap_err();
    let err = err.service().expect("structured error, not a dead socket");
    assert_eq!(err.code, "XMLPARSE");
    assert!(
        err.message.contains("full") || err.message.contains("arena"),
        "message should name the exhausted resource: {:?}",
        err.message
    );
    let (line, column) = err.position.expect("arena rejection carries a position");
    assert_eq!(line, 1);
    assert!(
        column > 3,
        "the rejection happened mid-document, not at (0,0)"
    );

    // The connection survives and serves the next request.
    client.load("ok", SMALL).unwrap();
    assert_eq!(client.query("ok", "count(//item)").unwrap(), "2");
}

/// Entity- and escape-heavy content round-trips: references decode on the
/// way in, the serializer re-escapes on the way out, and string values
/// cross the wire unmangled.
#[test]
fn entity_heavy_document_round_trips_with_escaping() {
    let service = Service::spawn(hostile_config()).unwrap();
    let mut client = Client::connect(service.addr(), Some("ent")).unwrap();

    let mut xml = String::from("<doc>");
    for i in 0..50 {
        xml.push_str(&format!(
            r#"<item k="a&lt;b&amp;c&quot;d{i}">&lt;tag&gt; &amp; &#65;&#x42;</item>"#
        ));
    }
    xml.push_str("</doc>");
    client.load("ent", &xml).unwrap();

    // String value: references decoded exactly once.
    assert_eq!(
        client.query("ent", "string((//item)[1])").unwrap(),
        "<tag> & AB"
    );
    assert_eq!(
        client.query("ent", "string((//item)[1]/@k)").unwrap(),
        "a<b&c\"d0"
    );
    // Serialized node: the markup-significant characters are re-escaped.
    let serialized = client.query("ent", "(//item)[1]").unwrap();
    assert!(
        serialized.contains("&lt;tag&gt; &amp; AB"),
        "text content must re-escape: {serialized}"
    );
    assert!(
        !serialized.contains("<tag>"),
        "decoded text must not leak as markup: {serialized}"
    );
    assert_eq!(client.query("ent", "count(//item)").unwrap(), "50");
}

/// The default configuration accepts what the parser's own defaults accept:
/// no service-level cap means the 10k depth default still applies and a
/// document at it loads fine. `LOAD` parses on the connection thread, whose
/// stack is 2 MiB: the parser and the snapshot walk keep their own work
/// stacks.
#[test]
fn default_config_defers_to_parser_defaults() {
    let service = Service::spawn(ServiceConfig::default()).unwrap();
    let mut client = Client::connect(service.addr(), Some("def")).unwrap();
    let depth = xmlstore::parser::DEFAULT_MAX_DEPTH;
    let xml = format!("{}x{}", "<a>".repeat(depth), "</a>".repeat(depth));
    client.load("deep-ok", &xml).unwrap();
    assert_eq!(client.query("deep-ok", "string(/a/a/a)").unwrap(), "x");
    assert_eq!(
        client.query("deep-ok", "count(//a)").unwrap(),
        depth.to_string()
    );
}

/// Queries that nest deeper than the parser's budget, each a different way
/// of building one tree level per repeat, come back as `XPST0003` on a
/// connection that keeps serving.
#[test]
fn deeply_nested_queries_are_rejected_and_the_connection_survives() {
    let service = Service::spawn(ServiceConfig::default()).unwrap();
    let mut client = Client::connect(service.addr(), Some("nest")).unwrap();
    let n = 200_000;
    for query in [
        format!("{}1", "-".repeat(n)),
        format!("1{}", "+1".repeat(n)),
        format!("1{}", " and 1".repeat(n)),
        format!("{}{}", "<a>".repeat(n), "</a>".repeat(n)),
    ] {
        let err = client.query("-", &query).unwrap_err();
        let err = err.service().expect("structured error, not a dead socket");
        assert_eq!(err.code, "XPST0003");
        assert!(err.message.contains("nesting deeper than"), "{err:?}");
    }
    assert_eq!(client.query("-", "1+1").unwrap(), "2");
}
