//! String literals belong to the plan that holds them: compiling a query
//! never interns its literals, so a stream of distinct literals leaves the
//! process-global interner as it was. (Its own test binary: other tests
//! running in the same process would intern names of their own.)

use xmlstore::sym::interned_count;
use xquery::lower::lower_module;
use xquery::parser::parse_module;
use xquery::Engine;

#[test]
fn distinct_literals_leave_the_interner_unchanged() {
    let source = |i: usize| format!("concat('literal-{i}', \"-{i}\", 'x') = 'literal-{i}-{i}x'");
    let engine = Engine::new();
    let compile = |i: usize| {
        let module = parse_module(&source(i)).expect("parses");
        lower_module(&module).expect("lowers");
        engine.compile(&source(i)).expect("compiles");
    };
    // The first compile interns what every query of this shape names.
    compile(0);
    let before = interned_count();
    for i in 1..=10_000 {
        compile(i);
    }
    assert_eq!(interned_count(), before);
}
