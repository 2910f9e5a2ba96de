//! XML serialization: compact (exact) and pretty (indented) forms.

use crate::qname::QName;
use crate::store::{NodeId, NodeKind, Store};
use std::ops::Range;

/// Serializer configuration.
#[derive(Debug, Clone)]
pub struct SerializeOptions {
    /// Indent elements onto their own lines. Text-bearing ("mixed") content
    /// is left inline so that pretty-printing never changes string values of
    /// mixed-content elements.
    pub pretty: bool,
    /// Indent step used when `pretty` is set.
    pub indent: &'static str,
}

impl Default for SerializeOptions {
    fn default() -> Self {
        SerializeOptions {
            pretty: false,
            indent: "  ",
        }
    }
}

impl SerializeOptions {
    /// Two-space indented output.
    pub fn pretty() -> Self {
        SerializeOptions {
            pretty: true,
            ..Default::default()
        }
    }
}

/// Runs of sibling nodes whose place in compact output a caller wants to
/// know (see [`Store::write_xml_runs`]). By default there are none.
pub trait Runs {
    /// How many siblings, starting at `node`, form a run: 0 when none
    /// starts there. Runs do not nest.
    fn starts(&mut self, _node: NodeId) -> usize {
        0
    }
    /// The run that started last was written to these bytes of the output.
    fn ended(&mut self, _bytes: Range<usize>) {}
    /// Writes the content of a text node: escaped character data, unless
    /// the caller writes something else in its place.
    fn text(&mut self, text: &str, out: &mut String) {
        push_text(out, text);
    }
}

/// No runs: plain serialization.
impl Runs for () {}

/// Escapes character data (`&`, `<`, `>`, and a bare CR, which XML
/// line-end normalization would otherwise turn into LF on re-parse).
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_text(&mut out, s);
    out
}

/// Appends `s` to `out`, escaped as character data: [`escape_text`] into a
/// buffer the caller already holds.
pub fn push_text(out: &mut String, s: &str) {
    push_escaped(out, s, false);
}

/// Appends `s` to `out`, escaped as character data or (`attr`) as an
/// attribute value: there also `"`, `\n` and `\t`, which XML
/// attribute-value normalization folds to spaces on re-parse — as
/// character references they round-trip exactly. Every escaped character
/// is ASCII, so the unescaped runs between them are copied whole, on
/// `char` boundaries.
fn push_escaped(out: &mut String, s: &str, attr: bool) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let reference = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'\r' => "&#13;",
            b'"' if attr => "&quot;",
            b'\n' if attr => "&#10;",
            b'\t' if attr => "&#9;",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(reference);
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Appends a name as written: `prefix:local` or `local`.
fn push_name(out: &mut String, name: QName) {
    if let Some(prefix) = name.prefix() {
        out.push_str(prefix);
        out.push(':');
    }
    out.push_str(name.local());
}

/// Appends `name="value"`, the value escaped.
fn push_attribute(out: &mut String, name: QName, value: &str) {
    push_name(out, name);
    out.push_str("=\"");
    push_escaped(out, value, true);
    out.push('"');
}

impl Store {
    /// Serializes the subtree at `id`.
    pub fn serialize(&self, id: NodeId, options: &SerializeOptions) -> String {
        let mut out = String::new();
        self.write_node(id, options, 0, &mut out, &mut ());
        out
    }

    /// Compact serialization of `id` — the default exchange form.
    pub fn to_xml(&self, id: NodeId) -> String {
        self.serialize(id, &SerializeOptions::default())
    }

    /// Appends the compact serialization of `id` to `out`: [`Store::to_xml`]
    /// into a buffer the caller already holds.
    pub fn write_xml(&self, id: NodeId, out: &mut String) {
        self.write_node(id, &SerializeOptions::default(), 0, out, &mut ());
    }

    /// [`Store::write_xml`] that also reports where each run of siblings
    /// below `id` that `runs` names went in `out`. A caller that caches the
    /// bytes of a subtree uses it to replace a run's bytes later, when only
    /// that run changed.
    pub fn write_xml_runs(&self, id: NodeId, out: &mut String, runs: &mut impl Runs) {
        self.write_node(id, &SerializeOptions::default(), 0, out, runs);
    }

    /// Pretty serialization of `id`.
    pub fn to_pretty_xml(&self, id: NodeId) -> String {
        self.serialize(id, &SerializeOptions::pretty())
    }

    /// Iterative serialization with an explicit work stack — document depth
    /// can never overflow the call stack (the parser accepts 100k-deep
    /// trees; the serializer must print them back).
    fn write_node(
        &self,
        id: NodeId,
        options: &SerializeOptions,
        depth: usize,
        out: &mut String,
        runs: &mut impl Runs,
    ) {
        enum Task {
            Node(NodeId, usize),
            /// The end of a run of siblings that started at this byte.
            RunEnd(usize),
            /// Close tag of an element: id, depth, close tag on its own
            /// indented line (pretty non-mixed content).
            Close(NodeId, usize, bool),
            Literal(&'static str),
            Indent(usize),
        }
        let mut stack = vec![Task::Node(id, depth)];
        while let Some(task) = stack.pop() {
            if let Task::Node(n, _) = task {
                let k = if n == id { 0 } else { runs.starts(n) };
                if k > 0 {
                    // In compact output the run's other siblings are the
                    // next k-1 tasks: its end goes beneath them.
                    let at = stack.len() + 1 - k;
                    stack.insert(at, Task::RunEnd(out.len()));
                }
            }
            match task {
                Task::RunEnd(start) => runs.ended(start..out.len()),
                Task::Literal(s) => out.push_str(s),
                Task::Indent(d) => {
                    for _ in 0..d {
                        out.push_str(options.indent);
                    }
                }
                Task::Close(el, d, own_line) => {
                    if own_line {
                        out.push('\n');
                        for _ in 0..d {
                            out.push_str(options.indent);
                        }
                    }
                    if let NodeKind::Element(name) = self.kind(el) {
                        out.push_str("</");
                        push_name(out, *name);
                        out.push('>');
                    }
                }
                Task::Node(n, depth) => match self.kind(n) {
                    NodeKind::Document => {
                        for (i, &c) in self.children(n).iter().enumerate().rev() {
                            stack.push(Task::Node(c, depth));
                            if options.pretty && i > 0 {
                                stack.push(Task::Literal("\n"));
                            }
                        }
                    }
                    NodeKind::Element(name) => {
                        out.push('<');
                        push_name(out, *name);
                        for &a in self.attributes(n) {
                            if let NodeKind::Attribute(an, av) = self.kind(a) {
                                out.push(' ');
                                push_attribute(out, *an, av);
                            }
                        }
                        let children = self.children(n);
                        if children.is_empty() {
                            out.push_str("/>");
                            continue;
                        }
                        out.push('>');
                        let mixed = children
                            .iter()
                            .any(|&c| matches!(self.kind(c), NodeKind::Text(_)));
                        if options.pretty && !mixed {
                            stack.push(Task::Close(n, depth, true));
                            for &c in children.iter().rev() {
                                stack.push(Task::Node(c, depth + 1));
                                stack.push(Task::Indent(depth + 1));
                                stack.push(Task::Literal("\n"));
                            }
                        } else {
                            stack.push(Task::Close(n, depth, false));
                            for &c in children.iter().rev() {
                                stack.push(Task::Node(c, depth + 1));
                            }
                        }
                    }
                    NodeKind::Attribute(name, value) => {
                        // A detached attribute serialized on its own —
                        // matches how XQuery implementations print
                        // attribute items.
                        push_attribute(out, *name, value);
                    }
                    NodeKind::Text(t) => runs.text(t, out),
                    NodeKind::Comment(t) => {
                        out.push_str("<!--");
                        out.push_str(t);
                        out.push_str("-->");
                    }
                    NodeKind::Pi(target, data) => {
                        out.push_str("<?");
                        out.push_str(target);
                        if !data.is_empty() {
                            out.push(' ');
                            out.push_str(data);
                        }
                        out.push_str("?>");
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::ParseOptions;

    fn roundtrip(input: &str) -> String {
        let mut s = Store::new();
        let doc = s.parse_str(input, &ParseOptions::default()).unwrap();
        s.to_xml(doc)
    }

    #[test]
    fn compact_roundtrip_identity_on_canonical_input() {
        let input = r#"<a x="1"><b/>text<c>more</c></a>"#;
        assert_eq!(roundtrip(input), input);
    }

    #[test]
    fn escaping_applied() {
        let mut s = Store::new();
        let el = s.create_element("e").unwrap();
        s.set_attribute(el, "a", "x\"<&").unwrap();
        let t = s.create_text("a<b>&c").unwrap();
        s.append_child(el, t).unwrap();
        assert_eq!(
            s.to_xml(el),
            r#"<e a="x&quot;&lt;&amp;">a&lt;b&gt;&amp;c</e>"#
        );
    }

    #[test]
    fn runs_report_where_their_siblings_went() {
        struct Firsts(Vec<(NodeId, usize)>, Vec<Range<usize>>);
        impl Runs for Firsts {
            fn starts(&mut self, node: NodeId) -> usize {
                self.0.iter().find(|(n, _)| *n == node).map_or(0, |r| r.1)
            }
            fn ended(&mut self, bytes: Range<usize>) {
                self.1.push(bytes);
            }
        }
        let mut s = Store::new();
        let doc = s
            .parse_str("<a><b/>x<c><d/></c><e/></a>", &ParseOptions::default())
            .unwrap();
        let a = s.children(doc)[0];
        let kids = s.children(a).to_vec();
        let mut runs = Firsts(vec![(kids[1], 2), (kids[3], 1)], vec![]);
        let mut out = String::new();
        s.write_xml_runs(a, &mut out, &mut runs);
        assert_eq!(out, s.to_xml(a));
        let spans: Vec<&str> = runs.1.iter().map(|r| &out[r.clone()]).collect();
        assert_eq!(spans, ["x<c><d/></c>", "<e/>"]);
    }

    #[test]
    fn text_hook_writes_each_text_node() {
        struct Upper;
        impl Runs for Upper {
            fn text(&mut self, text: &str, out: &mut String) {
                out.push_str(&text.to_uppercase());
            }
        }
        let mut s = Store::new();
        let doc = s
            .parse_str(r#"<a k="v">b<c>d&amp;e</c></a>"#, &ParseOptions::default())
            .unwrap();
        let mut out = String::new();
        s.write_xml_runs(doc, &mut out, &mut Upper);
        assert_eq!(out, r#"<a k="v">B<c>D&E</c></a>"#);
    }

    #[test]
    fn empty_element_self_closes() {
        let mut s = Store::new();
        let el = s.create_element("e").unwrap();
        assert_eq!(s.to_xml(el), "<e/>");
    }

    #[test]
    fn detached_attribute_prints_as_pair() {
        let mut s = Store::new();
        let a = s.create_attribute("troubles", "1").unwrap();
        assert_eq!(s.to_xml(a), "troubles=\"1\"");
    }

    #[test]
    fn pretty_indents_element_content() {
        let mut s = Store::new();
        let doc = s
            .parse_str("<a><b><c/></b></a>", &ParseOptions::default())
            .unwrap();
        let pretty = s.to_pretty_xml(doc);
        assert_eq!(pretty, "<a>\n  <b>\n    <c/>\n  </b>\n</a>");
    }

    #[test]
    fn pretty_leaves_mixed_content_inline() {
        let mut s = Store::new();
        let doc = s
            .parse_str("<p>one <b>two</b> three</p>", &ParseOptions::default())
            .unwrap();
        let el = s.document_element(doc).unwrap();
        assert_eq!(s.to_pretty_xml(el), "<p>one <b>two</b> three</p>");
    }

    #[test]
    fn comment_and_pi_serialization() {
        assert_eq!(
            roundtrip("<a><!--hi--><?t d?></a>"),
            "<a><!--hi--><?t d?></a>"
        );
    }

    #[test]
    fn parse_serialize_parse_is_stable() {
        let input = r#"<m><n k="v&amp;w">t1<o/>t2</n></m>"#;
        let once = roundtrip(input);
        let twice = roundtrip(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn attribute_whitespace_survives_as_char_refs() {
        let mut s = Store::new();
        let el = s.create_element("e").unwrap();
        s.set_attribute(el, "a", "line1\nline2\ttab\rcr").unwrap();
        let xml = s.to_xml(el);
        assert_eq!(xml, r#"<e a="line1&#10;line2&#9;tab&#13;cr"/>"#);

        let mut s2 = Store::new();
        let doc = s2.parse_str(&xml, &ParseOptions::default()).unwrap();
        let el2 = s2.document_element(doc).unwrap();
        assert_eq!(s2.attribute_value(el2, "a"), Some("line1\nline2\ttab\rcr"));
    }

    #[test]
    fn text_cr_and_cdata_end_survive() {
        let mut s = Store::new();
        let el = s.create_element("e").unwrap();
        let t = s.create_text("a\rb]]>c").unwrap();
        s.append_child(el, t).unwrap();
        let xml = s.to_xml(el);
        assert_eq!(xml, "<e>a&#13;b]]&gt;c</e>");

        let mut s2 = Store::new();
        let doc = s2.parse_str(&xml, &ParseOptions::default()).unwrap();
        let el2 = s2.document_element(doc).unwrap();
        assert_eq!(s2.string_value(el2), "a\rb]]>c");
    }
}
