//! Property test: the native and compiled-to-XQuery evaluators of the query
//! calculus agree on randomly generated models and randomly built queries.

use lopsided::awb::workload::{random_metamodel, random_model};
use lopsided::awb::{Direction, Query, QueryStep, StartSet};
use lopsided::xquery::EngineOptions;
use proptest::prelude::*;

const N_TYPES: usize = 6;
const N_RELS: usize = 4;

fn start_strategy() -> impl Strategy<Value = StartSet> {
    prop_oneof![
        (0..N_TYPES).prop_map(|i| StartSet::AllOfType(format!("T{i}"))),
        (0..40usize).prop_map(|i| StartSet::NodeByLabel(format!("n{i:05}"))),
        Just(StartSet::All),
    ]
}

fn step_strategy() -> impl Strategy<Value = QueryStep> {
    prop_oneof![
        ((0..N_RELS), any::<bool>(), prop::option::of(0..N_TYPES)).prop_map(|(r, fwd, tt)| {
            QueryStep::Follow {
                relation: format!("R{r}"),
                direction: if fwd {
                    Direction::Forward
                } else {
                    Direction::Backward
                },
                target_type: tt.map(|t| format!("T{t}")),
            }
        }),
        (0..N_TYPES).prop_map(|t| QueryStep::FilterType(format!("T{t}"))),
        Just(QueryStep::Dedup),
        Just(QueryStep::SortByLabel),
    ]
}

fn query_strategy() -> impl Strategy<Value = Query> {
    (
        start_strategy(),
        prop::collection::vec(step_strategy(), 0..4),
    )
        .prop_map(|(start, steps)| Query { start, steps })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn native_and_xquery_agree(seed in 0u64..1000, query in query_strategy()) {
        let meta = random_metamodel(N_TYPES, N_RELS, seed);
        let model = random_model(25, 2, N_TYPES, N_RELS, seed);
        // Keep result sizes sane: a query with several unrestricted follows
        // over a dense graph explodes multiplicatively in both engines.
        let native = query.run_native(&model, &meta);
        prop_assume!(native.len() <= 2_000);
        for runtime_opt in [true, false] {
            let options = EngineOptions { runtime_opt, ..Default::default() };
            let via_xquery = query
                .run_xquery_with(options, &model, &meta)
                .expect("compiled query evaluates");
            prop_assert_eq!(&native, &via_xquery, "runtime_opt {}, query: {:?}", runtime_opt, query);
        }
    }
}
