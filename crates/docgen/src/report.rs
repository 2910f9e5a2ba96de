//! Output comparison for the two engines (experiment E7), and the textual
//! rendering of the pipeline's per-phase observability reports.

use crate::xq::PhaseReport;

/// Renders per-phase wall time and counters as an aligned text table, one
/// line per phase plus a totals line — the human-readable face of the
/// counter block the engine collects.
pub fn render_phase_reports(reports: &[PhaseReport]) -> String {
    let mut out =
        String::from("phase       wall_us   index h/m   join b/p/f   cache h/r   stream   items\n");
    let mut total_wall = 0u64;
    for r in reports {
        total_wall += r.wall_ns;
        let s = &r.stats;
        out.push_str(&format!(
            "{:<10} {:>8} {:>6}/{:<4} {:>4}/{}/{:<4} {:>5}/{:<4} {:>6} {:>7}\n",
            r.name,
            r.wall_ns / 1_000,
            s.index_hits,
            s.index_misses,
            s.join_builds,
            s.join_probes,
            s.join_fallbacks,
            s.cache_hits,
            s.cache_resets,
            s.streamed_existence,
            s.items_allocated,
        ));
    }
    out.push_str(&format!("total      {:>8}\n", total_wall / 1_000));
    out
}

/// Are two generated documents equal after normalization? Normalization is
/// deliberately thin — both engines are held to the same serialized form —
/// but we forgive trailing whitespace differences inside text runs.
pub fn normalized_equal(a: &str, b: &str) -> bool {
    normalize(a) == normalize(b)
}

fn normalize(s: &str) -> String {
    // Collapse runs of whitespace between tags; the engines never disagree
    // on anything else by construction.
    let mut out = String::with_capacity(s.len());
    let mut ws = false;
    for c in s.chars() {
        if c.is_whitespace() {
            ws = true;
        } else {
            if ws {
                out.push(' ');
                ws = false;
            }
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whitespace_runs_collapse() {
        assert!(normalized_equal("<a>x  y</a>", "<a>x y</a>"));
        assert!(normalized_equal("<a>x</a>\n", "<a>x</a>"));
        assert!(!normalized_equal("<a>x</a>", "<a>y</a>"));
    }

    #[test]
    fn phase_report_renders_one_line_per_phase_plus_total() {
        let stats = xquery::EvalStats {
            index_hits: 3,
            join_probes: 9,
            ..Default::default()
        };
        let reports = [
            PhaseReport {
                name: "generate",
                wall_ns: 2_000_000,
                stats,
                reuse: Default::default(),
            },
            PhaseReport {
                name: "strip",
                wall_ns: 1_000_000,
                stats: Default::default(),
                reuse: Default::default(),
            },
        ];
        let text = render_phase_reports(&reports);
        assert_eq!(text.lines().count(), 4, "{text}");
        assert!(text.contains("generate"), "{text}");
        assert!(text.contains("total"), "{text}");
        assert!(text.lines().last().unwrap().contains("3000"), "{text}");
    }
}
