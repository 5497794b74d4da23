//! Property-based tests over the profile-guided layout pipeline: a layout
//! is only ever a *permutation* of the program. Whatever profile the linker
//! is fed — accurate, stale, or pure garbage — the image must contain the
//! same functions, compute the same results, and spend the same non-stall
//! cycles; only instruction-fetch behaviour may change.

use proptest::prelude::*;

use knit_repro::cmini;
use knit_repro::cobj::{self, Layout, LayoutProfile};
use knit_repro::machine::{self, Machine};

/// Compile a call DAG: `f0` is a leaf; each `fi` combines its argument
/// with calls to some lower-numbered functions. One object per function,
/// like separately compiled translation units.
fn compile_dag(callees: &[Vec<usize>]) -> Vec<cobj::LinkInput> {
    let mut inputs = Vec::new();
    for (i, cs) in callees.iter().enumerate() {
        let mut decls = String::new();
        let mut body = format!("int f{i}(int x) {{ int acc = x * {} + {i}; ", i + 2);
        for &c in cs {
            decls.push_str(&format!("int f{c}(int x);\n"));
            body.push_str(&format!("acc = acc + f{c}(x - 1); "));
        }
        body.push_str("return acc; }\n");
        let src = format!("{decls}{body}");
        let obj = cmini::compile_simple(&format!("f{i}.c"), &src).expect("dag function compiles");
        inputs.push(cobj::LinkInput::Object(obj));
    }
    inputs
}

fn link_with(inputs: &[cobj::LinkInput], layout: Layout) -> cobj::Image {
    cobj::link(
        inputs,
        &cobj::LinkOptions {
            entry: None,
            runtime_symbols: machine::runtime_symbols().collect(),
            layout,
            ..Default::default()
        },
    )
    .expect("links")
}

/// `(name, size)` multiset of an image's functions, order-independent.
fn func_set(img: &cobj::Image) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = img.funcs.iter().map(|f| (f.name.clone(), f.size)).collect();
    v.sort();
    v
}

fn run(img: &cobj::Image, entry: &str, arg: i64) -> (i64, u64) {
    let mut m = Machine::new(img.clone()).expect("machine");
    let r = m.call(entry, &[arg]).expect("runs");
    let c = m.counters();
    (r, c.cycles - c.ifetch_stall_cycles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any profile — including edges naming functions that don't exist,
    /// weights over arbitrary subsets, or nothing at all — yields a
    /// permutation of the input-order image: same function set, same
    /// results, same non-stall cycles. And the profile-guided link is
    /// deterministic: linking twice gives byte-identical images.
    #[test]
    fn profile_guided_layout_is_a_semantic_permutation(
        // 2..7 functions; each calls a subset of the lower-numbered ones
        calls in prop::collection::vec(prop::collection::vec(any::<prop::sample::Index>(), 0..3), 1..6),
        edges in prop::collection::vec(
            ((0usize..8), (0usize..8), (0u64..10_000)),
            0..12
        ),
        hot in prop::collection::vec(((0usize..8), (1u64..1_000)), 0..6),
        garbage_edge in any::<bool>(),
        arg in 1i64..50,
    ) {
        // resolve the call DAG (f0 is the forced leaf)
        let mut callees: Vec<Vec<usize>> = vec![vec![]];
        for (i, picks) in calls.iter().enumerate() {
            let lower = i + 1; // callees must come from 0..lower
            let mut cs: Vec<usize> = picks.iter().map(|p| p.index(lower)).collect();
            cs.sort();
            cs.dedup();
            callees.push(cs);
        }
        let n = callees.len();
        let inputs = compile_dag(&callees);
        let entry = format!("f{}", n - 1);

        let mut profile = LayoutProfile::default();
        for (a, b, w) in &edges {
            profile.record_edge(format!("f{a}"), format!("f{b}"), *w);
        }
        for (f, c) in &hot {
            profile.record_func(format!("f{f}"), *c);
        }
        if garbage_edge {
            profile.record_edge("no_such_fn", "also_missing", 123_456);
        }

        let base = link_with(&inputs, Layout::InputOrder);
        let laid = link_with(&inputs, Layout::ProfileGuided(profile.clone()));
        let again = link_with(&inputs, Layout::ProfileGuided(profile.clone()));

        // determinism: same objects + same profile → byte-identical image
        prop_assert_eq!(&laid, &again);
        // an empty profile must not move anything at all
        if profile.is_empty() {
            prop_assert_eq!(&laid, &base);
        }

        // permutation: same functions, same sizes, same total text
        prop_assert_eq!(func_set(&laid), func_set(&base));
        prop_assert_eq!(laid.text_size, base.text_size);

        // semantics: same answer, same non-stall cycles
        let (r0, work0) = run(&base, &entry, arg);
        let (r1, work1) = run(&laid, &entry, arg);
        prop_assert_eq!(r0, r1);
        prop_assert_eq!(work0, work1, "layout must only change fetch stalls");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The profile JSON codec round-trips arbitrary symbol names and
    /// counts exactly, and hashing is insensitive to insertion order.
    #[test]
    fn profile_json_roundtrip_and_stable_hash(
        names in prop::collection::vec("[ -~]{1,12}", 1..6),
        counts in prop::collection::vec(0u64..u64::MAX / 2, 6..7),
        indirect in any::<bool>(),
    ) {
        let mut p = machine::Profile::default();
        for (i, w) in names.windows(2).enumerate() {
            p.edges.push(machine::CallEdge {
                caller: w[0].clone(),
                callee: w[1].clone(),
                indirect,
                count: counts[i % counts.len()],
            });
        }
        p.funcs.push(machine::FuncCount { name: names[0].clone(), instructions: counts[0] });
        p.edges.sort();
        p.edges.dedup();
        let rt = machine::Profile::from_json(&p.to_json()).expect("round-trips");
        prop_assert_eq!(&rt, &p);
        prop_assert_eq!(rt.stable_hash(), p.stable_hash());
    }
}
