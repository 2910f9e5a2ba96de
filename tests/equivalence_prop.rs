//! Property test for E7: the native and XQuery generators agree on
//! *randomly generated* templates, not just the canned ones: loops with
//! sections, failing items and marker definitions in their bodies, and
//! marker text wherever text goes.

use lopsided::awb::workload::{it_architecture, it_metamodel, ItScale};
use lopsided::docgen::batch::CompiledPipeline;
use lopsided::docgen::xq::{Phase, XqGenerator, GEN_XQ};
use lopsided::docgen::{self, normalized_equal, GenInputs, Template};
use lopsided::xquery::EngineOptions;
use proptest::prelude::*;

/// A random template AST we can render to XML.
#[derive(Debug, Clone)]
enum Tpl {
    Text(String),
    Passthrough(Vec<Tpl>),
    Label,
    ValueOf {
        prop: String,
        default: Option<String>,
    },
    If {
        cond: Cond,
        then: Vec<Tpl>,
        els: Option<Vec<Tpl>>,
    },
    For {
        ty: String,
        body: Vec<Tpl>,
    },
    Section {
        heading: String,
        body: Vec<Tpl>,
    },
    Toc,
    Omissions(String),
    List(String),
    /// `<marker-content>`: its content, then `MA`'s text when `MB` holds it.
    Marker {
        marker: &'static str,
        body: Vec<Tpl>,
        holds_ma: bool,
    },
}

#[derive(Debug, Clone)]
enum Cond {
    FocusIsType(String),
    HasProperty(String),
    PropertyEquals(String, String),
    Not(Box<Cond>),
}

const TYPES: &[&str] = &[
    "user",
    "superuser",
    "Program",
    "Document",
    "Server",
    "Thing",
];
const PROPS: &[&str] = &["language", "version", "firstName", "cores", "nonexistent"];
/// The markers the templates define and hold. Only `MB`'s content holds
/// marker text, `MA`'s, so no content holds its own marker, and which of
/// the two is defined first decides whether a copy of `MB`'s content gets
/// `MA` replaced in it.
const MARKERS: &[&str] = &["MA", "MB"];

fn type_name() -> impl Strategy<Value = String> {
    prop::sample::select(TYPES).prop_map(str::to_string)
}

fn prop_name() -> impl Strategy<Value = String> {
    prop::sample::select(PROPS).prop_map(str::to_string)
}

/// Text holding a marker.
fn marker_text() -> impl Strategy<Value = Tpl> {
    prop::sample::select(MARKERS).prop_map(|m| Tpl::Text(format!("see {m} here")))
}

/// A marker definition whose content is `content`.
fn marker_def(content: impl Strategy<Value = Tpl>) -> impl Strategy<Value = Tpl> {
    (prop::sample::select(MARKERS), content, any::<bool>()).prop_map(|(marker, c, inner)| {
        Tpl::Marker {
            marker,
            body: vec![Tpl::Passthrough(vec![c])],
            holds_ma: marker == "MB" && inner,
        }
    })
}

fn cond_strategy() -> impl Strategy<Value = Cond> {
    let leaf = prop_oneof![
        type_name().prop_map(Cond::FocusIsType),
        prop_name().prop_map(Cond::HasProperty),
        (prop_name(), "[a-z]{0,4}").prop_map(|(p, v)| Cond::PropertyEquals(p, v)),
    ];
    leaf.prop_recursive(2, 4, 1, |inner| inner.prop_map(|c| Cond::Not(Box::new(c))))
}

/// `in_focus` controls whether focus-dependent directives are allowed.
fn tpl_strategy(in_focus: bool) -> impl Strategy<Value = Tpl> {
    let text = "[ a-zA-Z0-9,.]{1,12}".prop_map(Tpl::Text);
    let leaf = if in_focus {
        prop_oneof![
            text,
            Just(Tpl::Label),
            (
                prop_name(),
                prop::option::of("[a-z]{0,4}".prop_map(String::from))
            )
                .prop_map(|(prop, default)| Tpl::ValueOf { prop, default }),
        ]
        .boxed()
    } else {
        prop_oneof![
            text,
            Just(Tpl::Toc),
            type_name().prop_map(Tpl::Omissions),
            type_name().prop_map(Tpl::List),
            marker_text(),
            marker_def("[ a-z]{1,8}".prop_map(Tpl::Text)),
        ]
        .boxed()
    };
    leaf.prop_recursive(3, 16, 3, move |inner| {
        let body = prop::collection::vec(inner.clone(), 0..3);
        let mut choices = vec![
            body.clone().prop_map(Tpl::Passthrough).boxed(),
            ("[A-Z][a-z]{0,8}", body.clone())
                .prop_map(|(heading, body)| Tpl::Section { heading, body })
                .boxed(),
        ];
        if in_focus {
            choices.push(
                (
                    cond_strategy(),
                    body.clone(),
                    prop::option::of(body.clone()),
                )
                    .prop_map(|(cond, then, els)| Tpl::If { cond, then, els })
                    .boxed(),
            );
        } else {
            // Entering a <for> switches the body strategy to focus-allowed.
            choices.push(
                (
                    type_name(),
                    prop::collection::vec(tpl_strategy_focused(), 0..3),
                )
                    .prop_map(|(ty, body)| Tpl::For { ty, body })
                    .boxed(),
            );
        }
        prop::strategy::Union::new(choices)
    })
}

/// A small focused strategy for `for` bodies (bounded depth): leaves,
/// failing `<value-of>`s, marker text and definitions, and conditionals
/// and sections around leaves.
fn tpl_strategy_focused() -> impl Strategy<Value = Tpl> {
    let leaf = prop_oneof![
        "[ a-z]{1,8}".prop_map(Tpl::Text),
        Just(Tpl::Label),
        (
            prop_name(),
            prop::option::of("[a-z]{0,4}".prop_map(String::from))
        )
            .prop_map(|(prop, default)| Tpl::ValueOf { prop, default }),
        Just(Tpl::ValueOf {
            prop: "nonexistent".into(),
            default: None,
        }),
        marker_text(),
        marker_def(Just(Tpl::Label)),
    ]
    .boxed();
    prop_oneof![
        leaf.clone(),
        (cond_strategy(), prop::collection::vec(leaf.clone(), 0..2)).prop_map(|(cond, then)| {
            Tpl::If {
                cond,
                then,
                els: None,
            }
        }),
        ("[A-Z][a-z]{0,8}", prop::collection::vec(leaf, 0..2))
            .prop_map(|(heading, body)| Tpl::Section { heading, body }),
    ]
}

fn render(tpl: &Tpl, out: &mut String) {
    match tpl {
        Tpl::Text(t) => out.push_str(t),
        Tpl::Passthrough(body) => {
            out.push_str("<div>");
            body.iter().for_each(|t| render(t, out));
            out.push_str("</div>");
        }
        Tpl::Label => out.push_str("<label/>"),
        Tpl::ValueOf { prop, default } => {
            out.push_str(&format!("<value-of property=\"{prop}\""));
            if let Some(d) = default {
                out.push_str(&format!(" default=\"{d}\""));
            }
            out.push_str("/>");
        }
        Tpl::If { cond, then, els } => {
            out.push_str("<if><test>");
            render_cond(cond, out);
            out.push_str("</test><then>");
            then.iter().for_each(|t| render(t, out));
            out.push_str("</then>");
            if let Some(els) = els {
                out.push_str("<else>");
                els.iter().for_each(|t| render(t, out));
                out.push_str("</else>");
            }
            out.push_str("</if>");
        }
        Tpl::For { ty, body } => {
            out.push_str(&format!("<for nodes=\"all.{ty}\">"));
            body.iter().for_each(|t| render(t, out));
            out.push_str("</for>");
        }
        Tpl::Section { heading, body } => {
            out.push_str(&format!("<section heading=\"{heading}\">"));
            body.iter().for_each(|t| render(t, out));
            out.push_str("</section>");
        }
        Tpl::Toc => out.push_str("<table-of-contents/>"),
        Tpl::Omissions(ty) => out.push_str(&format!("<table-of-omissions types=\"{ty}\"/>")),
        Tpl::List(ty) => out.push_str(&format!(
            "<list><query><start type=\"{ty}\"/><sort-by-label/></query></list>"
        )),
        Tpl::Marker {
            marker,
            body,
            holds_ma,
        } => {
            out.push_str(&format!("<marker-content marker=\"{marker}\">"));
            body.iter().for_each(|t| render(t, out));
            if *holds_ma {
                out.push_str(" MA");
            }
            out.push_str("</marker-content>");
        }
    }
}

fn render_cond(cond: &Cond, out: &mut String) {
    match cond {
        Cond::FocusIsType(ty) => out.push_str(&format!("<focus-is-type type=\"{ty}\"/>")),
        Cond::HasProperty(p) => out.push_str(&format!("<has-property name=\"{p}\"/>")),
        Cond::PropertyEquals(p, v) => {
            out.push_str(&format!("<property-equals name=\"{p}\" value=\"{v}\"/>"))
        }
        Cond::Not(inner) => {
            out.push_str("<not>");
            render_cond(inner, out);
            out.push_str("</not>");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn engines_agree_on_random_templates(
        parts in prop::collection::vec(tpl_strategy(false), 1..5),
        seed in 0u64..100,
    ) {
        let mut xml = String::from("<template>");
        parts.iter().for_each(|t| render(t, &mut xml));
        xml.push_str("</template>");

        let meta = it_metamodel();
        let model = it_architecture(ItScale::about(30), seed);
        let template = Template::parse(&xml).expect("rendered template parses");
        let inputs = GenInputs { model: &model, meta: &meta, template: &template };

        let native = docgen::native::generate(&inputs).expect("native generation");
        for runtime_opt in [true, false] {
            let options = EngineOptions { runtime_opt, ..Default::default() };
            let xq = CompiledPipeline::new(GEN_XQ, &Phase::ALL, options)
                .and_then(|pipeline| XqGenerator::with_compiled(&inputs, &pipeline)?.run())
                .expect("XQuery generation");
            prop_assert!(
                normalized_equal(&native.to_xml(), &xq.xml),
                "runtime_opt {}, template: {}\n--- native ---\n{}\n--- xquery ---\n{}",
                runtime_opt, xml, native.to_xml(), xq.xml
            );
            prop_assert_eq!(native.trouble_count, xq.trouble_count);
        }
    }
}
