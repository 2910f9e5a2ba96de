//! Shared plumbing for the benchmark harness: workload construction, fault
//! injection, line counting (E6), and the type-metastasis analysis (E8).

pub mod corpus;
pub mod rows;
pub mod scenario;

use awb::workload::{it_architecture, it_metamodel, ItScale};
use awb::{Metamodel, Model, PropValue};

/// Nearest-rank percentile (`p` in 0–100) over an ascending-sorted sample
/// set: the smallest sample with at least `p`% of the set at or below it.
/// `None` unless the set holds at least `100 / (100 − p)` samples (p95
/// needs 20, p99 needs 100): below that the nearest rank is the maximum,
/// and printing it as a tail percentile would be a claim the data cannot
/// back.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if (sorted.len() as f64) * (100.0 - p) < 100.0 {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
}

/// A model+metamodel pair sized for an experiment.
pub struct Workload {
    pub meta: Metamodel,
    pub model: Model,
}

/// IT-architecture workload of roughly `n` nodes.
pub fn it_workload(n: usize, seed: u64) -> Workload {
    Workload {
        meta: it_metamodel(),
        model: it_architecture(ItScale::about(n), seed),
    }
}

/// E5's model: `servers` servers, `programs` programs, and a sparse `runs`
/// relation between them (server `i` runs program `j` when `i + j` is a
/// multiple of 3).
pub fn table_model(servers: usize, programs: usize) -> Workload {
    let mut model = Model::new();
    let server_nodes: Vec<_> = (0..servers)
        .map(|i| model.add_node("Server", format!("server-{i:03}")))
        .collect();
    let program_nodes: Vec<_> = (0..programs)
        .map(|j| model.add_node("Program", format!("program-{j:03}")))
        .collect();
    for (i, &s) in server_nodes.iter().enumerate() {
        for (j, &p) in program_nodes.iter().enumerate() {
            if (i + j) % 3 == 0 {
                model.add_relation("runs", s, p);
            }
        }
    }
    Workload {
        meta: it_metamodel(),
        model,
    }
}

/// Rewrites the documents of `model` so that exactly `rate` (0.0–1.0) of
/// them are missing their version property — the fault-injection knob of
/// experiment E3.
pub fn set_fault_rate(model: &mut Model, meta: &Metamodel, rate: f64) {
    let docs = model.nodes_of_type("Document", meta);
    let n_faulty = ((docs.len() as f64) * rate).round() as usize;
    for (i, d) in docs.into_iter().enumerate() {
        if i < n_faulty {
            model.remove_prop(d, "version");
        } else {
            model.set_prop(d, "version", PropValue::Str("1.0".into()));
        }
    }
}

// ----------------------------------------------------------------------
// E6: implementation sizes
// ----------------------------------------------------------------------

/// Non-blank, non-comment line count of one source text. Handles `//`
/// full-line comments (Rust) and `(: … :)` block comments (XQuery),
/// including multi-line blocks.
pub fn loc(text: &str) -> usize {
    let mut comment_depth = 0i32;
    let mut count = 0usize;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with("//") {
            continue;
        }
        let mut code_on_line = false;
        let mut rest = trimmed;
        while !rest.is_empty() {
            if comment_depth > 0 {
                match rest.find(":)") {
                    Some(i) => {
                        // account for nested opens before this close
                        let opens = rest[..i].matches("(:").count() as i32;
                        comment_depth += opens - 1;
                        rest = &rest[i + 2..];
                    }
                    None => {
                        comment_depth += rest.matches("(:").count() as i32;
                        rest = "";
                    }
                }
            } else {
                match rest.find("(:") {
                    Some(i) => {
                        if !rest[..i].trim().is_empty() {
                            code_on_line = true;
                        }
                        comment_depth = 1;
                        rest = &rest[i + 2..];
                    }
                    None => {
                        if !rest.trim().is_empty() {
                            code_on_line = true;
                        }
                        rest = "";
                    }
                }
            }
        }
        if code_on_line {
            count += 1;
        }
    }
    count
}

/// How many lines mention any of the given markers? Used to estimate the
/// share of error-handling ceremony in each implementation.
pub fn marker_loc(text: &str, markers: &[&str]) -> usize {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .filter(|l| markers.iter().any(|m| l.contains(m)))
        .count()
}

// ----------------------------------------------------------------------
// E8: type metastasis over the shipped XQuery sources
// ----------------------------------------------------------------------

/// The function-level call graph of an XQuery module.
pub struct CallGraph {
    pub functions: Vec<String>,
    /// `edges[i]` = indices of functions that function `i` calls.
    pub edges: Vec<Vec<usize>>,
}

/// Builds the call graph of `source` (user-declared functions only).
pub fn call_graph(source: &str) -> CallGraph {
    let module = xquery::parser::parse_module(source).expect("module parses");
    let names: Vec<String> = module.functions.iter().map(|f| f.name.clone()).collect();
    let index = |n: &str| names.iter().position(|x| x == n);
    let mut edges = vec![Vec::new(); names.len()];
    for (i, f) in module.functions.iter().enumerate() {
        let mut calls = Vec::new();
        collect_calls(&f.body, &mut calls);
        for callee in calls {
            if let Some(j) = index(&callee) {
                if !edges[i].contains(&j) {
                    edges[i].push(j);
                }
            }
        }
    }
    CallGraph {
        functions: names,
        edges,
    }
}

/// Every call site's function name inside `expr`.
fn collect_calls(expr: &xquery::ast::Expr, out: &mut Vec<String>) {
    if let xquery::ast::Expr::Call { name, .. } = expr {
        out.push(name.clone());
    }
    expr.for_each_child(&mut |e| collect_calls(e, out));
}

impl CallGraph {
    /// The annotation closure of a seed function: once its parameters are
    /// annotated, every function whose values flow into or out of it needs
    /// annotations too — callers and callees, transitively. "Once types are
    /// used somewhere, they rapidly metastatize and need to be used
    /// everywhere."
    pub fn annotation_closure(&self, seed: &str) -> Vec<&str> {
        let Some(start) = self.functions.iter().position(|f| f == seed) else {
            return Vec::new();
        };
        let n = self.functions.len();
        let mut adj = vec![Vec::new(); n];
        for (i, outs) in self.edges.iter().enumerate() {
            for &j in outs {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
        let mut seen = vec![false; n];
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(i) = stack.pop() {
            for &j in &adj[i] {
                if !seen[j] {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        (0..n)
            .filter(|&i| seen[i])
            .map(|i| self.functions[i].as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_the_samples_to_back_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(percentile(&ramp(1), 50.0), None);
        assert_eq!(percentile(&ramp(2), 50.0), Some(1.0));
        assert_eq!(percentile(&ramp(19), 95.0), None);
        assert_eq!(percentile(&ramp(20), 95.0), Some(19.0));
        assert_eq!(percentile(&ramp(99), 99.0), None);
        assert_eq!(percentile(&ramp(100), 99.0), Some(99.0));
    }

    #[test]
    fn loc_skips_blank_and_comment_lines() {
        let rust = "// comment\n\nfn f() {}\n    // indented comment\nlet x = 1;\n";
        assert_eq!(loc(rust), 2);
        let xq = "(: comment :)\n\nlet $x := 1\n(: multi\n   line\n:)\nreturn $x\n";
        assert_eq!(loc(xq), 2);
        let mixed = "let $x := 1 (: trailing :)\n";
        assert_eq!(loc(mixed), 1);
    }

    #[test]
    fn shipped_xq_sources_have_substance() {
        for (name, src) in docgen::xq::ALL_SOURCES {
            assert!(loc(src) >= 7, "{name} is too small: {}", loc(src));
        }
        assert!(
            loc(docgen::xq::GEN_XQ) > 200,
            "the generator is the big one"
        );
    }

    #[test]
    fn call_graph_of_a_tiny_module() {
        let src = r#"
            declare function local:a($x) { local:b($x) + local:c($x) };
            declare function local:b($x) { $x };
            declare function local:c($x) { local:b($x) };
            declare function local:lonely($x) { $x };
            local:a(1)
        "#;
        let g = call_graph(src);
        assert_eq!(g.functions.len(), 4);
        let closure = g.annotation_closure("local:b");
        assert_eq!(closure.len(), 3, "a, b, c — but not lonely: {closure:?}");
        assert!(!closure.contains(&"local:lonely"));
    }

    #[test]
    fn metastasis_on_the_real_generator_is_severe() {
        let g = call_graph(docgen::xq::GEN_XQ);
        // E8's figures, pinned: the graph is the AST's call sites.
        let edges: usize = g.edges.iter().map(Vec::len).sum();
        assert_eq!((g.functions.len(), edges), (26, 74));
        assert_eq!(g.annotation_closure("local:req-attr").len(), 26);
        // Annotating the humble attribute-fetcher drags in most of the
        // program.
        let closure = g.annotation_closure("local:req-attr");
        assert!(
            closure.len() * 2 > g.functions.len(),
            "{} of {} functions",
            closure.len(),
            g.functions.len()
        );
    }

    #[test]
    fn fault_rate_controls_missing_versions() {
        let Workload { meta, mut model } = it_workload(100, 1);
        set_fault_rate(&mut model, &meta, 0.0);
        let count_missing = |model: &Model, meta: &Metamodel| {
            model
                .nodes_of_type("Document", meta)
                .into_iter()
                .filter(|&d| model.prop(d, "version").is_none())
                .count()
        };
        assert_eq!(count_missing(&model, &meta), 0);
        set_fault_rate(&mut model, &meta, 0.5);
        let docs = model.nodes_of_type("Document", &meta).len();
        assert_eq!(count_missing(&model, &meta), docs / 2);
    }
}
