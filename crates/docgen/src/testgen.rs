//! Random templates for the generator-agreement oracles. Each one mixes
//! the directives every route of incremental generation goes through:
//! loops over `all.T` and over queries (some filtering on a property), at
//! top level, in sections and lists, and nested inside an iteration;
//! sections and toc/omissions placeholders inside loop bodies; markers
//! defined inside an iteration and consumed by other iterations and by
//! top-level text; iterations whose output is empty (`<if>` with no
//! `<else>`) and iterations that fail into an error note (`<value-of>`
//! with no default).
//!
//! `MARK-B`'s content sometimes holds `MARK-A`'s text, so whether a copy
//! of it gets `MARK-A` replaced depends on which marker was defined first
//! (a full run applies markers in definition order). In about half the
//! templates it may also hold a table of contents, which is filled after
//! the definition is made, so the content its consumers write changes
//! with every refill; headings there carry only `MARK-A`'s text, and
//! elsewhere either marker's. `MARK-A`'s content never holds marker text,
//! and no content holds its own marker's, so no replacement feeds itself
//! and every template also runs to completion under a full generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The marker texts the templates define and consume.
pub const MARKERS: [&str; 2] = ["MARK-A", "MARK-B"];

/// A random template; the same seed always gives the same template.
pub fn random_template(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = TemplateGen {
        toc_in_b: rng.gen_bool(0.5),
        rng,
        out: String::from("<template>"),
        headings: 0,
    };
    if g.rng.gen_bool(0.6) {
        g.out.push_str("<table-of-contents/>");
    }
    for _ in 0..g.rng.gen_range(3..=7usize) {
        g.top_item(0);
    }
    g.out.push_str("</template>");
    g.out
}

struct TemplateGen {
    rng: StdRng,
    out: String,
    /// Headings so far, to keep them apart.
    headings: usize,
    /// Whether `MARK-B`'s content may hold a table of contents: then no
    /// heading carries `MARK-B`'s text, which the toc would copy into it.
    toc_in_b: bool,
}

const TYPES: [&str; 6] = [
    "user",
    "superuser",
    "Program",
    "Document",
    "Server",
    "Thing",
];
const PROPS: [&str; 3] = ["language", "version", "banner"];

impl TemplateGen {
    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.rng.gen_range(0..xs.len())]
    }

    fn heading(&mut self) -> String {
        self.headings += 1;
        // Now and then a heading carries marker text, which the toc shows.
        let n = self.headings;
        match self.rng.gen_range(0..6) {
            0 if self.toc_in_b => format!("Part {n} {}", MARKERS[0]),
            0 => format!("Part {n} {}", self.pick(&MARKERS)),
            _ => format!("Part {n}"),
        }
    }

    /// Text for the end of `marker`'s content: now and then `MARK-A`'s
    /// text or (if `toc_in_b`) a table of contents in `MARK-B`'s content,
    /// never marker text in `MARK-A`'s.
    fn inner_marker(&mut self, marker: &str) -> String {
        if marker != MARKERS[1] {
            return String::new();
        }
        match self.rng.gen_range(0..4) {
            0 | 1 => format!(" {}", MARKERS[0]),
            2 | 3 if self.toc_in_b => "<table-of-contents/>".to_string(),
            _ => String::new(),
        }
    }

    /// Something the walk reaches with no focus.
    fn top_item(&mut self, depth: usize) {
        match self.rng.gen_range(0..12) {
            0..=2 => self.for_loop(0),
            3 if depth < 2 => {
                let h = self.heading();
                self.out.push_str(&format!("<section heading=\"{h}\">"));
                for _ in 0..self.rng.gen_range(1..=3) {
                    self.top_item(depth + 1);
                }
                self.out.push_str("</section>");
            }
            4 => {
                self.out.push_str("<ol>");
                self.for_loop(0);
                if self.rng.gen_bool(0.5) {
                    self.for_loop(0);
                }
                self.out.push_str("</ol>");
            }
            5 => {
                let m = self.pick(&MARKERS);
                self.out.push_str(&format!("<p>Top text {m} ends.</p>"));
            }
            6 => {
                let m = self.pick(&MARKERS);
                self.out.push_str(&format!("{m} loose text "));
            }
            7 => self.out.push_str("<table-of-contents/>"),
            8 => self
                .out
                .push_str("<table-of-omissions types=\"Document,Program\"/>"),
            9 => {
                let q = self.query();
                self.out.push_str(&format!("<list>{q}</list>"));
            }
            10 => self.out.push_str(
                r#"<awb-table rows="all.user" cols="all.Program" relation="uses" corner="c"/>"#,
            ),
            _ => {
                // A top-level definition; its loop, if any, stays whole.
                let m = self.pick(&MARKERS);
                self.out
                    .push_str(&format!("<marker-content marker=\"{m}\">"));
                if self.rng.gen_bool(0.5) {
                    let inner = self.inner_marker(m);
                    self.out.push_str(&format!("<b>static{inner}</b>"));
                } else {
                    self.out.push_str(
                        r#"<i><for nodes="all.Program"><value-of property="language" default="?"/></for></i>"#,
                    );
                }
                self.out.push_str("</marker-content>");
            }
        }
    }

    /// A calculus query; some filter on a property.
    fn query(&mut self) -> String {
        let mut q = String::from("<query>");
        q.push_str(&match self.rng.gen_range(0..4) {
            0 => "<start/>".to_string(),
            1 => "<start label=\"user-001\"/>".to_string(),
            _ => format!(
                "<start type=\"{}\"/>",
                self.pick(&["user", "Program", "Server"])
            ),
        });
        if self.rng.gen_bool(0.5) {
            let rel = self.pick(&["uses", "likes", "runs"]);
            q.push_str(&format!("<follow relation=\"{rel}\"/>"));
        }
        if self.rng.gen_bool(0.4) {
            q.push_str(r#"<filter-property name="language" equals="xquery"/>"#);
        }
        q.push_str("<dedup/><sort-by-label/></query>");
        q
    }

    /// A `<for>`; `depth` 0 is one the walk reaches with no focus.
    fn for_loop(&mut self, depth: usize) {
        if self.rng.gen_bool(0.5) {
            let ty = self.pick(&TYPES);
            self.out.push_str(&format!("<for nodes=\"all.{ty}\">"));
        } else {
            let q = self.query();
            self.out.push_str(&format!("<for>{q}"));
        }
        for _ in 0..self.rng.gen_range(1..=3) {
            self.body_item(depth + 1);
        }
        self.out.push_str("</for>");
    }

    /// Something the walk reaches with a focus, `depth` levels into
    /// loops and conditionals.
    fn body_item(&mut self, depth: usize) {
        let deep = depth >= 3;
        match self.rng.gen_range(0..16) {
            0 => self.out.push_str("<p><label/></p>"),
            1 => {
                let p = self.pick(&PROPS);
                self.out.push_str(&format!(
                    "<p><value-of property=\"{p}\" default=\"-\"/></p>"
                ));
            }
            2 => {
                // Fails on a node without the property: an error note.
                let p = self.pick(&PROPS);
                self.out.push_str(&format!("<value-of property=\"{p}\"/>"));
            }
            3..=5 if !deep => {
                // Empty output unless the focus passes the test; edits
                // flip it either way.
                let test = self.pick(&[
                    r#"<has-property name="banner"/>"#,
                    r#"<has-property name="banner"/>"#,
                    r#"<has-property name="version"/>"#,
                    r#"<property-equals name="language" value="xquery"/>"#,
                ]);
                self.out.push_str(&format!("<if><test>{test}</test><then>"));
                if self.rng.gen_bool(0.4) {
                    // A toc entry that comes and goes.
                    let h = self.heading();
                    self.out
                        .push_str(&format!("<section heading=\"{h}\"><label/></section>"));
                } else {
                    self.body_item(depth + 1);
                }
                self.out.push_str("</then></if>");
            }
            6 if !deep => {
                self.out.push_str(
                    r#"<if><test><property-equals name="language" value="xquery"/></test><then>"#,
                );
                self.body_item(depth + 1);
                self.out
                    .push_str("</then><else><em><label/></em></else></if>");
            }
            7 | 8 if !deep => {
                let h = self.heading();
                self.out.push_str(&format!("<section heading=\"{h}\">"));
                self.body_item(depth + 1);
                self.out.push_str("</section>");
            }
            9 => {
                let placeholder = self.pick(&[
                    "<table-of-contents/>",
                    r#"<table-of-omissions types="Document,user"/>"#,
                ]);
                self.out.push_str(placeholder);
            }
            10 | 11 => {
                let m = self.pick(&MARKERS);
                let inner = self.inner_marker(m);
                self.out.push_str(&format!(
                    "<marker-content marker=\"{m}\"><b><label/>:<value-of property=\"language\" default=\"none\"/>{inner}</b></marker-content>"
                ));
            }
            12 | 13 => {
                let m = self.pick(&MARKERS);
                self.out.push_str(&format!("<span>uses {m}</span> {m} "));
            }
            14 if depth < 2 => self.for_loop(depth),
            _ => self.out.push_str("<label/>; "),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::Template;
    use std::collections::HashSet;
    use xmlstore::NodeKind;

    /// Which of the routes the oracles need a template reaches.
    fn routes(source: &str) -> HashSet<&'static str> {
        let t = Template::parse(source).unwrap_or_else(|e| panic!("{e:?}: {source}"));
        let store = t.store();
        let mut found = HashSet::new();
        for n in store.descendants(t.root()) {
            let names: Vec<String> = store
                .ancestors(n)
                .iter()
                .filter_map(|&a| store.name(a).map(|q| q.local().to_string()))
                .collect();
            let under = |tag: &str| names.iter().any(|a| a == tag);
            let in_loop = under("for");
            let name = store.name(n).map(|q| q.local().to_string());
            match (name.as_deref(), store.kind(n)) {
                (Some("for"), _) if in_loop => found.insert("loop in an iteration"),
                (Some("for"), _) if names[0] == "section" || names[0] == "ol" => {
                    found.insert("loop in a section or list")
                }
                (Some("for"), _) if names[0] == "template" => found.insert("top-level loop"),
                (Some("filter-property"), _) if in_loop => found.insert("filtered loop query"),
                (Some("section"), _) if in_loop => found.insert("section in a loop"),
                (Some("table-of-contents"), _) if under("marker-content") => {
                    found.insert("toc in marker content")
                }
                (Some("table-of-contents"), _) if in_loop => found.insert("toc in a loop"),
                (Some("table-of-omissions"), _) if in_loop => found.insert("omissions in a loop"),
                (Some("marker-content"), _) if in_loop => found.insert("marker in a loop"),
                (Some("if"), _) if in_loop && store.child_element_named(n, "else").is_none() => {
                    found.insert("empty iterations")
                }
                (Some("value-of"), _)
                    if in_loop && store.attribute_value(n, "default").is_none() =>
                {
                    found.insert("failing iterations")
                }
                (None, NodeKind::Text(text)) if MARKERS.iter().any(|m| text.contains(m)) => {
                    if under("marker-content") {
                        found.insert("marker text in marker content")
                    } else if in_loop {
                        found.insert("marker consumed in a loop")
                    } else {
                        found.insert("marker consumed at top level")
                    }
                }
                _ => false,
            };
        }
        found
    }

    /// The seeds the oracles draw from reach every route they must.
    #[test]
    fn templates_cover_every_route() {
        let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
        for seed in 0..128 {
            for route in routes(&random_template(seed)) {
                *counts.entry(route).or_default() += 1;
            }
        }
        assert_eq!(counts.len(), 14, "{counts:?}");
        for (route, n) in counts {
            assert!(n >= 8, "{route} in only {n} of 128 templates");
        }
    }
}
