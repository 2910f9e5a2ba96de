//! A hand-rolled XML 1.0 parser.
//!
//! Covers the subset the AWB exchange format and the document templates use:
//! elements, attributes (single- or double-quoted), character data, CDATA
//! sections, comments, processing instructions, the XML declaration, and a
//! skipped DOCTYPE. Predefined entities (`&lt; &gt; &amp; &quot; &apos;`) and
//! decimal/hex character references are resolved. Errors carry 1-based
//! line/column positions.

use crate::error::{XmlError, XmlErrorKind};
use crate::frozen::FrozenBuilder;
use crate::qname::{is_name_char, is_name_start, QName};
use crate::store::{NodeId, Store};
use std::sync::Arc;

/// Parser configuration.
#[derive(Debug, Clone)]
pub struct ParseOptions {
    /// Drop text nodes consisting entirely of whitespace. Document templates
    /// are authored indented; the generators don't want the indentation.
    pub strip_whitespace_text: bool,
    /// Keep comment nodes in the tree.
    pub keep_comments: bool,
    /// Maximum element nesting depth. The parser itself is iterative, so
    /// this bounds memory (one open-tag name per level), not the stack; raise
    /// it for trusted deep documents.
    pub max_depth: usize,
    /// Maximum number of records (elements, attributes, text, comments,
    /// PIs) one parse may create, `None` for the arena's own `u32` ceiling.
    /// A server parsing untrusted payloads sets this so a wide hostile
    /// document fails with [`XmlErrorKind::ArenaFull`] *at its parse
    /// position* instead of growing the arena unboundedly.
    pub max_nodes: Option<usize>,
}

/// Default for [`ParseOptions::max_depth`].
pub const DEFAULT_MAX_DEPTH: usize = 10_000;

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            strip_whitespace_text: false,
            keep_comments: true,
            max_depth: DEFAULT_MAX_DEPTH,
            max_nodes: None,
        }
    }
}

impl ParseOptions {
    /// Options suited to machine-consumed documents: whitespace-only text
    /// stripped, comments dropped.
    pub fn data_oriented() -> Self {
        ParseOptions {
            strip_whitespace_text: true,
            keep_comments: false,
            max_depth: DEFAULT_MAX_DEPTH,
            max_nodes: None,
        }
    }
}

impl Store {
    /// Parses `input` into a new document tree inside this store and returns
    /// the document node. The parser emits pre-order events straight into a
    /// frozen record table, so a parsed document lands frozen — contiguous,
    /// fixed-shape, snapshot-ready. A value edit later writes one record in
    /// place; a structural edit thaws it transparently.
    pub fn parse_str(&mut self, input: &str, options: &ParseOptions) -> Result<NodeId, XmlError> {
        let tree = Parser::new(input, options).parse()?;
        self.mount_tree(Arc::new(tree))
    }
}

struct Parser<'a> {
    input: &'a str,
    /// Byte offset into `input`.
    pos: usize,
    line: u32,
    column: u32,
    options: &'a ParseOptions,
    /// Records created so far, checked against [`ParseOptions::max_nodes`].
    nodes: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, options: &'a ParseOptions) -> Self {
        Parser {
            input,
            pos: 0,
            line: 1,
            column: 1,
            options,
            nodes: 0,
        }
    }

    fn err(&self, kind: XmlErrorKind) -> XmlError {
        XmlError::new(kind, self.line, self.column)
    }

    /// Accounts one more record against [`ParseOptions::max_nodes`]. Unlike
    /// the arena's own capacity check (which reports position 0,0 — it has
    /// no idea where the input is), this fails at the current parse
    /// position, so a hostile-document rejection is actionable.
    fn count_node(&mut self) -> Result<(), XmlError> {
        self.nodes += 1;
        match self.options.max_nodes {
            Some(cap) if self.nodes > cap => Err(self.err(XmlErrorKind::ArenaFull)),
            _ => Ok(()),
        }
    }

    fn peek(&self) -> Option<char> {
        self.input[self.pos..].chars().next()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(c)
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            for _ in s.chars() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), XmlError> {
        if self.eat(s) {
            Ok(())
        } else {
            match self.peek() {
                Some(c) => Err(self.err(XmlErrorKind::UnexpectedChar(c))),
                None => Err(self.err(XmlErrorKind::UnexpectedEof)),
            }
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    fn parse(&mut self) -> Result<crate::frozen::FrozenTree, XmlError> {
        let mut fb = FrozenBuilder::new();
        fb.open_document()?;
        self.skip_prolog(&mut fb)?;
        // Document element.
        if !self.starts_with("<") {
            return Err(self.err(XmlErrorKind::Malformed(
                "expected a document element".to_string(),
            )));
        }
        self.parse_tree(&mut fb)?;
        // Trailing misc: whitespace, comments, PIs.
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                let c = self.parse_comment()?;
                if self.options.keep_comments {
                    self.count_node()?;
                    fb.comment(c.into())?;
                }
            } else if self.starts_with("<?") {
                let (target, data) = self.parse_pi()?;
                self.count_node()?;
                fb.pi(target.into(), data.into())?;
            } else if self.peek().is_none() {
                break;
            } else {
                return Err(self.err(XmlErrorKind::Malformed(
                    "content after the document element".to_string(),
                )));
            }
        }
        fb.close();
        fb.finish()
    }

    fn skip_prolog(&mut self, fb: &mut FrozenBuilder) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?xml") {
                // XML declaration: skip to '?>'.
                self.skip_until("?>")?;
            } else if self.starts_with("<?") {
                let (target, data) = self.parse_pi()?;
                self.count_node()?;
                fb.pi(target.into(), data.into())?;
            } else if self.starts_with("<!--") {
                let c = self.parse_comment()?;
                if self.options.keep_comments {
                    self.count_node()?;
                    fb.comment(c.into())?;
                }
            } else if self.starts_with("<!DOCTYPE") {
                self.skip_doctype()?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_until(&mut self, end: &str) -> Result<(), XmlError> {
        while !self.starts_with(end) {
            if self.bump().is_none() {
                return Err(self.err(XmlErrorKind::UnexpectedEof));
            }
        }
        self.eat(end);
        Ok(())
    }

    fn skip_doctype(&mut self) -> Result<(), XmlError> {
        // Skip "<!DOCTYPE ... >", tolerating one level of [...] internal subset.
        self.eat("<!DOCTYPE");
        let mut depth = 0i32;
        loop {
            match self.bump() {
                Some('[') => depth += 1,
                Some(']') => depth -= 1,
                Some('>') if depth <= 0 => return Ok(()),
                Some(_) => {}
                None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
            }
        }
    }

    fn parse_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        match self.peek() {
            Some(c) if is_name_start(c) => {
                self.bump();
            }
            Some(c) => return Err(self.err(XmlErrorKind::UnexpectedChar(c))),
            None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
        }
        while matches!(self.peek(), Some(c) if is_name_char(c) || c == ':') {
            self.bump();
        }
        Ok(self.input[start..self.pos].to_string())
    }

    /// Parses the document element and its entire subtree with an explicit
    /// open-tag stack — no recursion, so input depth can never overflow the
    /// call stack; [`ParseOptions::max_depth`] bounds it explicitly instead.
    /// Text never spans markup, so one shared buffer (flushed before every
    /// markup event) serves all nesting levels.
    fn parse_tree(&mut self, fb: &mut FrozenBuilder) -> Result<(), XmlError> {
        let mut open: Vec<String> = Vec::new();
        let mut text = String::new();
        let mut text_has_nonspace = false;
        self.parse_open_tag(fb, &mut open)?;
        while !open.is_empty() {
            if self.starts_with("</") {
                self.flush_text(fb, &mut text, &mut text_has_nonspace)?;
                self.eat("</");
                let close = self.parse_name()?;
                let open_name = open.last().expect("loop invariant: open is non-empty");
                if close != *open_name {
                    return Err(self.err(XmlErrorKind::MismatchedClose {
                        expected: open_name.clone(),
                        found: close,
                    }));
                }
                self.skip_ws();
                self.expect(">")?;
                open.pop();
                fb.close();
            } else if self.starts_with("<!--") {
                self.flush_text(fb, &mut text, &mut text_has_nonspace)?;
                let c = self.parse_comment()?;
                if self.options.keep_comments {
                    self.count_node()?;
                    fb.comment(c.into())?;
                }
            } else if self.starts_with("<![CDATA[") {
                self.eat("<![CDATA[");
                let start = self.pos;
                while !self.starts_with("]]>") {
                    if self.bump().is_none() {
                        return Err(self.err(XmlErrorKind::UnexpectedEof));
                    }
                }
                text.push_str(&self.input[start..self.pos]);
                if !self.input[start..self.pos].chars().all(char::is_whitespace) {
                    text_has_nonspace = true;
                }
                self.eat("]]>");
            } else if self.starts_with("<?") {
                self.flush_text(fb, &mut text, &mut text_has_nonspace)?;
                let (target, data) = self.parse_pi()?;
                self.count_node()?;
                fb.pi(target.into(), data.into())?;
            } else if self.starts_with("<") {
                self.flush_text(fb, &mut text, &mut text_has_nonspace)?;
                self.parse_open_tag(fb, &mut open)?;
            } else {
                match self.peek() {
                    Some('&') => {
                        let c = self.parse_reference()?;
                        text.push_str(&c);
                        if !c.chars().all(char::is_whitespace) {
                            text_has_nonspace = true;
                        }
                    }
                    Some(c) => {
                        self.bump();
                        text.push(c);
                        if !c.is_whitespace() {
                            text_has_nonspace = true;
                        }
                    }
                    None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
                }
            }
        }
        Ok(())
    }

    /// Parses one `<name attr="v" ...>` or `<name .../>` tag, emitting the
    /// element (and closing it when self-closing). Pushes the raw tag name
    /// onto `open` when the element stays open.
    fn parse_open_tag(
        &mut self,
        fb: &mut FrozenBuilder,
        open: &mut Vec<String>,
    ) -> Result<(), XmlError> {
        self.expect("<")?;
        let name = self.parse_name()?;
        let qname = QName::parse(&name).ok_or_else(|| {
            self.err(XmlErrorKind::Malformed(format!(
                "bad element name {name:?}"
            )))
        })?;
        if open.len() >= self.options.max_depth {
            return Err(self.err(XmlErrorKind::TooDeep {
                limit: self.options.max_depth,
            }));
        }
        self.count_node()?;
        fb.open_element(qname)?;

        // Attributes. Duplicate detection compares the raw source names, the
        // same strings the legacy display-name probe compared.
        let mut seen: Vec<String> = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some('>') | Some('/') => break,
                Some(c) if is_name_start(c) => {
                    let (line, column) = (self.line, self.column);
                    let attr_name = self.parse_name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let value = self.parse_attribute_value()?;
                    if seen.iter().any(|n| n == &attr_name) {
                        return Err(XmlError::new(
                            XmlErrorKind::DuplicateAttribute(attr_name),
                            line,
                            column,
                        ));
                    }
                    let qn = QName::parse(&attr_name).ok_or_else(|| {
                        self.err(XmlErrorKind::Malformed(format!(
                            "bad attribute name {attr_name:?}"
                        )))
                    })?;
                    self.count_node()?;
                    fb.attribute(qn, value.into())?;
                    seen.push(attr_name);
                }
                Some(c) => return Err(self.err(XmlErrorKind::UnexpectedChar(c))),
                None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
            }
        }

        if self.eat("/>") {
            fb.close();
            return Ok(());
        }
        self.expect(">")?;
        open.push(name);
        Ok(())
    }

    fn flush_text(
        &mut self,
        fb: &mut FrozenBuilder,
        text: &mut String,
        has_nonspace: &mut bool,
    ) -> Result<(), XmlError> {
        if text.is_empty() {
            return Ok(());
        }
        let keep = *has_nonspace || !self.options.strip_whitespace_text;
        if keep {
            self.count_node()?;
            fb.text(std::mem::take(text).into())?;
        } else {
            text.clear();
        }
        *has_nonspace = false;
        Ok(())
    }

    fn parse_attribute_value(&mut self) -> Result<String, XmlError> {
        let quote = match self.peek() {
            Some(c @ ('"' | '\'')) => c,
            Some(c) => return Err(self.err(XmlErrorKind::UnexpectedChar(c))),
            None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
        };
        self.bump();
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(c) if c == quote => {
                    self.bump();
                    return Ok(out);
                }
                Some('&') => out.push_str(&self.parse_reference()?),
                Some('<') => return Err(self.err(XmlErrorKind::UnexpectedChar('<'))),
                Some(c) => {
                    self.bump();
                    out.push(c);
                }
                None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
            }
        }
    }

    fn parse_reference(&mut self) -> Result<String, XmlError> {
        self.expect("&")?;
        if self.eat("#") {
            let hex = self.eat("x");
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_hexdigit()) {
                self.bump();
            }
            let digits = &self.input[start..self.pos];
            self.expect(";")?;
            let code = u32::from_str_radix(digits, if hex { 16 } else { 10 })
                .map_err(|_| self.err(XmlErrorKind::BadCharRef(digits.to_string())))?;
            let c = char::from_u32(code)
                .ok_or_else(|| self.err(XmlErrorKind::BadCharRef(digits.to_string())))?;
            Ok(c.to_string())
        } else {
            let name = self.parse_name()?;
            self.expect(";")?;
            match name.as_str() {
                "lt" => Ok("<".to_string()),
                "gt" => Ok(">".to_string()),
                "amp" => Ok("&".to_string()),
                "quot" => Ok("\"".to_string()),
                "apos" => Ok("'".to_string()),
                _ => Err(self.err(XmlErrorKind::UnknownEntity(name))),
            }
        }
    }

    fn parse_comment(&mut self) -> Result<String, XmlError> {
        self.eat("<!--");
        let start = self.pos;
        while !self.starts_with("-->") {
            if self.bump().is_none() {
                return Err(self.err(XmlErrorKind::UnexpectedEof));
            }
        }
        let text = self.input[start..self.pos].to_string();
        self.eat("-->");
        Ok(text)
    }

    fn parse_pi(&mut self) -> Result<(String, String), XmlError> {
        self.eat("<?");
        let target = self.parse_name()?;
        self.skip_ws();
        let start = self.pos;
        while !self.starts_with("?>") {
            if self.bump().is_none() {
                return Err(self.err(XmlErrorKind::UnexpectedEof));
            }
        }
        let data = self.input[start..self.pos].to_string();
        self.eat("?>");
        Ok((target, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::NodeKind;

    fn parse(input: &str) -> (Store, NodeId) {
        let mut s = Store::new();
        let doc = s.parse_str(input, &ParseOptions::default()).unwrap();
        (s, doc)
    }

    #[test]
    fn simple_document() {
        let (s, doc) = parse("<a><b/><c>text</c></a>");
        let a = s.document_element(doc).unwrap();
        assert_eq!(s.name(a).unwrap().local(), "a");
        let kids = s.child_elements(a);
        assert_eq!(kids.len(), 2);
        assert_eq!(s.string_value(kids[1]), "text");
    }

    #[test]
    fn attributes_both_quote_styles() {
        let (s, doc) = parse(r#"<a x="1" y='two'/>"#);
        let a = s.document_element(doc).unwrap();
        assert_eq!(s.attribute_value(a, "x"), Some("1"));
        assert_eq!(s.attribute_value(a, "y"), Some("two"));
    }

    #[test]
    fn entities_resolved() {
        let (s, doc) = parse("<a b='&lt;&amp;&quot;'>&gt;&apos;&#65;&#x42;</a>");
        let a = s.document_element(doc).unwrap();
        assert_eq!(s.attribute_value(a, "b"), Some("<&\""));
        assert_eq!(s.string_value(a), ">'AB");
    }

    #[test]
    fn unknown_entity_is_error() {
        let mut s = Store::new();
        let err = s
            .parse_str("<a>&nope;</a>", &ParseOptions::default())
            .unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::UnknownEntity(n) if n == "nope"));
    }

    #[test]
    fn bad_char_ref_is_error() {
        let mut s = Store::new();
        let err = s
            .parse_str("<a>&#xD800;</a>", &ParseOptions::default())
            .unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::BadCharRef(_)));
    }

    #[test]
    fn cdata_kept_verbatim() {
        let (s, doc) = parse("<a><![CDATA[<not> &markup;]]></a>");
        let a = s.document_element(doc).unwrap();
        assert_eq!(s.string_value(a), "<not> &markup;");
    }

    #[test]
    fn comments_and_pis() {
        let (s, doc) = parse("<?xml version='1.0'?><!-- head --><a><!-- in --><?target data?></a>");
        let a = s.document_element(doc).unwrap();
        let kinds: Vec<_> = s.children(a).iter().map(|&c| s.kind(c).clone()).collect();
        assert_eq!(
            kinds,
            vec![
                NodeKind::Comment(" in ".into()),
                NodeKind::Pi("target".into(), "data".into())
            ]
        );
        assert!(matches!(s.kind(s.children(doc)[0]), NodeKind::Comment(_)));
    }

    #[test]
    fn comments_dropped_in_data_mode() {
        let mut s = Store::new();
        let doc = s
            .parse_str(
                "<a>  <!-- gone -->  <b/>  </a>",
                &ParseOptions::data_oriented(),
            )
            .unwrap();
        let a = s.document_element(doc).unwrap();
        assert_eq!(s.children(a).len(), 1);
        assert!(s.is_element(s.children(a)[0]));
    }

    #[test]
    fn doctype_skipped() {
        let (s, doc) = parse("<!DOCTYPE html [<!ENTITY x 'y'>]><a/>");
        assert!(s.document_element(doc).is_some());
    }

    #[test]
    fn mismatched_close_reports_names() {
        let mut s = Store::new();
        let err = s
            .parse_str("<a><b></a>", &ParseOptions::default())
            .unwrap_err();
        match err.kind {
            XmlErrorKind::MismatchedClose { expected, found } => {
                assert_eq!(expected, "b");
                assert_eq!(found, "a");
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let mut s = Store::new();
        let err = s
            .parse_str("<a x='1' x='2'/>", &ParseOptions::default())
            .unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::DuplicateAttribute(n) if n == "x"));
    }

    #[test]
    fn error_positions_are_tracked() {
        let mut s = Store::new();
        let err = s
            .parse_str("<a>\n  <b x=></b>\n</a>", &ParseOptions::default())
            .unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.column > 1);
    }

    #[test]
    fn content_after_root_rejected() {
        let mut s = Store::new();
        let err = s
            .parse_str("<a/><b/>", &ParseOptions::default())
            .unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::Malformed(_)));
    }

    #[test]
    fn nested_structure_and_mixed_content() {
        let (s, doc) = parse("<p>one <b>two</b> three</p>");
        let p = s.document_element(doc).unwrap();
        assert_eq!(s.children(p).len(), 3);
        assert_eq!(s.string_value(p), "one two three");
    }

    #[test]
    fn dashes_in_names() {
        let (s, doc) = parse("<focus-is-type type='superuser'/>");
        let el = s.document_element(doc).unwrap();
        assert_eq!(s.name(el).unwrap().local(), "focus-is-type");
    }

    #[test]
    fn prefixed_names() {
        let (s, doc) = parse("<ns:a ns:x='1'/>");
        let a = s.document_element(doc).unwrap();
        assert_eq!(s.name(a).unwrap().prefix(), Some("ns"));
        assert_eq!(s.attribute_value(a, "ns:x"), Some("1"));
    }

    #[test]
    fn parsed_document_lands_frozen() {
        let (s, doc) = parse("<a><b/></a>");
        assert!(s.is_frozen(doc));
    }

    #[test]
    fn hostile_100k_deep_document_parses_with_raised_limit() {
        let depth = 100_000;
        let mut input = String::with_capacity(depth * 7 + 1);
        for _ in 0..depth {
            input.push_str("<a>");
        }
        input.push('x');
        for _ in 0..depth {
            input.push_str("</a>");
        }
        let mut s = Store::new();
        let opts = ParseOptions {
            max_depth: depth,
            ..ParseOptions::default()
        };
        let doc = s.parse_str(&input, &opts).unwrap();
        let root = s.document_element(doc).unwrap();
        // depth-1 nested elements below the root, plus the text leaf.
        assert_eq!(s.descendants(root).len(), depth);
        assert_eq!(s.string_value(root), "x");
    }

    #[test]
    fn hostile_100k_wide_document_parses() {
        let width = 100_000;
        let mut input = String::with_capacity(width * 4 + 7);
        input.push_str("<r>");
        for _ in 0..width {
            input.push_str("<c/>");
        }
        input.push_str("</r>");
        let (s, doc) = parse(&input);
        let root = s.document_element(doc).unwrap();
        assert_eq!(s.children(root).len(), width);
    }

    #[test]
    fn max_nodes_rejects_a_wide_document_at_its_position() {
        let mut input = String::from("<r>");
        for _ in 0..1000 {
            input.push_str("<c/>");
        }
        input.push_str("</r>");
        let mut s = Store::new();
        let opts = ParseOptions {
            max_nodes: Some(100),
            ..ParseOptions::default()
        };
        let err = s.parse_str(&input, &opts).unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::ArenaFull), "{err:?}");
        // The rejection happens mid-input, not at the arena's (0,0).
        assert_eq!(err.line, 1);
        assert!(
            err.column > 3 && err.column < input.len() as u32,
            "position {:?} should be where the 101st record began",
            (err.line, err.column)
        );
    }

    #[test]
    fn max_nodes_counts_attributes_and_text_too() {
        let mut s = Store::new();
        let opts = ParseOptions {
            max_nodes: Some(3),
            ..ParseOptions::default()
        };
        // root element + attribute + text = 3 records: fits exactly.
        assert!(s.parse_str("<r a='1'>x</r>", &opts).is_ok());
        // One more attribute breaks the cap.
        let err = s.parse_str("<r a='1' b='2'>x</r>", &opts).unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::ArenaFull), "{err:?}");
    }

    #[test]
    fn default_depth_limit_rejects_hostile_nesting() {
        let mut input = String::new();
        for _ in 0..DEFAULT_MAX_DEPTH + 5 {
            input.push_str("<a>");
        }
        let mut s = Store::new();
        let err = s.parse_str(&input, &ParseOptions::default()).unwrap_err();
        assert!(
            matches!(err.kind, XmlErrorKind::TooDeep { limit } if limit == DEFAULT_MAX_DEPTH),
            "{err:?}"
        );
    }

    #[test]
    fn depth_limit_is_per_nesting_not_total_elements() {
        // A wide document far larger than max_depth must still parse.
        let mut input = String::from("<r>");
        for _ in 0..DEFAULT_MAX_DEPTH * 2 {
            input.push_str("<c/>");
        }
        input.push_str("</r>");
        let (s, doc) = parse(&input);
        let root = s.document_element(doc).unwrap();
        assert_eq!(s.children(root).len(), DEFAULT_MAX_DEPTH * 2);
    }
}
