//! # clack — the Click-subset modular router (§5.2, §6 of the Knit paper)
//!
//! "To demonstrate that Knit is general and more than just a tool for the
//! OSKit, we implemented a subset of Click version 1.0.1 with Knit
//! components instead of C++ classes. We dubbed our new component suite
//! Clack." This crate provides everything Table 1 and Table 2 measure:
//!
//! * fixed Clack element units in mini-C (`corpus/`: FromDevice,
//!   Classifier, Strip, CheckIPHeader, DecIPTTL, LookupIPRoute,
//!   EtherEncap, Queue, Counter, Discard, ToDevice) — see
//!   `corpus/elements.unit`;
//! * a configuration [`graph::Graph`] with the paper's canonical
//!   24-element IP router ([`graph::ip_router`]);
//! * a Click-config-language front end ([`config`]) so configurations can
//!   be written as `FromDevice(0) -> Counter -> Discard`;
//! * the Clack generator ([`clackgen`]): graph → Knit compound unit plus
//!   "trivial components that provide initialization data";
//! * the hand-optimized 2-component router (Table 1's second column) in
//!   `corpus/fast_path.c` / `corpus/fast_out.c`;
//! * the Click-style baseline ([`click`]): the same elements as
//!   vtable-dispatching objects, plus re-implementations of MIT's three
//!   optimizations (fast classifier, devirtualizing specializer, xform);
//! * a measurement harness ([`harness`]) that feeds packets through a
//!   built image and reads the machine's cycle counters, Table 1-style.

pub mod clackgen;
pub mod click;
pub mod config;
pub mod graph;
pub mod harness;
pub mod mc;
pub mod packets;

use knit::{build, BuildOptions, BuildReport, KnitError, Program, SourceTree};

pub use graph::{ip_router, ElemType, Graph};
pub use harness::{RouterHarness, RouterMeasurement};
pub use mc::{build_mc_router, mc_router_build_inputs, McMeasurement, MultiRouterHarness};

/// The Clack element sources as a source tree.
pub fn sources() -> SourceTree {
    let mut t = SourceTree::new();
    t.add("include/clack.h", include_str!("../corpus/include/clack.h"));
    t.add("from_device.c", include_str!("../corpus/from_device.c"));
    t.add("to_device.c", include_str!("../corpus/to_device.c"));
    t.add("counter.c", include_str!("../corpus/counter.c"));
    t.add("classifier.c", include_str!("../corpus/classifier.c"));
    t.add("strip.c", include_str!("../corpus/strip.c"));
    t.add("unstrip.c", include_str!("../corpus/unstrip.c"));
    t.add("check_ip.c", include_str!("../corpus/check_ip.c"));
    t.add("dec_ttl.c", include_str!("../corpus/dec_ttl.c"));
    t.add("lookup_route.c", include_str!("../corpus/lookup_route.c"));
    t.add("ether_encap.c", include_str!("../corpus/ether_encap.c"));
    t.add("queue.c", include_str!("../corpus/queue.c"));
    t.add("discard.c", include_str!("../corpus/discard.c"));
    t.add("tee.c", include_str!("../corpus/tee.c"));
    t.add("router_driver.c", include_str!("../corpus/router_driver.c"));
    t.add("shared_queue.c", include_str!("../corpus/shared_queue.c"));
    t.add("core_driver.c", include_str!("../corpus/core_driver.c"));
    t.add("fast_path.c", include_str!("../corpus/fast_path.c"));
    t.add("fast_out.c", include_str!("../corpus/fast_out.c"));
    t
}

/// A program with the element units (and hand-optimized router) loaded.
pub fn program() -> Program {
    let mut p = Program::new();
    p.load_str("elements.unit", include_str!("../corpus/elements.unit"))
        .expect("elements.unit parses");
    p.load_str("hand.unit", include_str!("../corpus/hand.unit")).expect("hand.unit parses");
    p
}

/// The full build inputs for the modular Clack router: program, source
/// tree, and default options. Callers that tune parallelism
/// (`BuildOptions::jobs`) or want warm rebuilds take these and feed them
/// into a `knit::SessionHandle` (or a composition-server session)
/// themselves.
pub fn router_build_inputs(
    graph: &Graph,
    flatten: bool,
) -> Result<(Program, SourceTree, BuildOptions), KnitError> {
    let kernel = if flatten { "GenRouterFlat" } else { "GenRouter" };
    let generated = clackgen::generate(graph, kernel, flatten)
        .map_err(|e| KnitError::BadDeclaration { unit: kernel.into(), what: e })?;
    let mut p = program();
    p.load_str("generated.unit", &generated.unit_text)?;
    let mut t = sources();
    clackgen::install(&generated, &mut t);
    Ok((p, t, options(kernel)))
}

/// Build the modular Clack router for `graph` (24 units for the canonical
/// config), optionally flattened.
pub fn build_clack_router(graph: &Graph, flatten: bool) -> Result<BuildReport, KnitError> {
    let (p, t, opts) = router_build_inputs(graph, flatten)?;
    build(&p, &t, &opts)
}

/// Build the hand-optimized 2-component router, optionally flattened.
pub fn build_hand_router(flatten: bool) -> Result<BuildReport, KnitError> {
    let kernel = if flatten { "HandRouterKernelFlat" } else { "HandRouterKernel" };
    build(&program(), &sources(), &options(kernel))
}

fn options(kernel: &str) -> BuildOptions {
    let mut o = BuildOptions::new(kernel, machine::runtime_symbols());
    // router kernels export no `main`; the harness drives router_step
    o.entry = None;
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::RouterHarness;
    use crate::packets::{self, WorkloadOptions};

    fn routed_output(h: &mut RouterHarness, work: &[packets::WorkItem]) -> (usize, usize) {
        for (dev, pkt) in work {
            h.inject(*dev, pkt.clone());
        }
        h.run_until_idle();
        (h.collect(0).len(), h.collect(1).len())
    }

    #[test]
    fn modular_router_routes_by_destination() {
        let report = build_clack_router(&ip_router(), false).unwrap();
        // 24 elements + driver + 13 param units
        assert_eq!(report.elaboration.instances.len(), 24 + 1 + 13);
        let mut h = RouterHarness::new(&report).unwrap();
        let work = packets::workload(&WorkloadOptions { count: 64, ..Default::default() });
        let (o0, o1) = routed_output(&mut h, &work);
        assert_eq!(o0 + o1, 64, "all good packets forwarded");
        assert!(o0 > 10 && o1 > 10, "both ports used: {o0}/{o1}");
    }

    #[test]
    fn router_decrements_ttl_and_fixes_checksum() {
        let report = build_clack_router(&ip_router(), false).unwrap();
        let mut h = RouterHarness::new(&report).unwrap();
        let pkt = packets::ip_packet(0x0A000301, packets::NET0 | 5, 17, &[9; 24]);
        h.inject(1, pkt);
        h.run_until_idle();
        let out = h.collect(0);
        assert_eq!(out.len(), 1);
        assert_eq!(packets::frame_ttl(&out[0]), Some(16));
        assert!(packets::frame_checksum_ok(&out[0]), "checksum incrementally fixed");
        assert_eq!(packets::frame_dst(&out[0]), Some(packets::NET0 | 5));
        // fresh ethernet header from EtherEncap port 0
        assert_eq!(out[0][0], 16);
        assert_eq!(out[0][6], 32);
    }

    #[test]
    fn router_drops_anomalies() {
        let report = build_clack_router(&ip_router(), false).unwrap();
        let mut h = RouterHarness::new(&report).unwrap();
        h.inject(0, packets::arp_packet()); // non-IP → classifier discard
        h.inject(0, packets::ip_packet(1, packets::NET0 | 2, 1, &[0; 8])); // ttl expired
        h.inject(0, packets::ip_packet(1, 0xC0A80101, 9, &[0; 8])); // no route
        let mut bad = packets::ip_packet(1, packets::NET1 | 2, 9, &[0; 8]);
        bad[packets::ETHER_HLEN + 10] ^= 0xff; // corrupt checksum
        h.inject(0, bad);
        h.run_until_idle();
        assert_eq!(h.collect(0).len() + h.collect(1).len(), 0, "all four dropped");
    }

    #[test]
    fn flattened_router_is_equivalent_and_faster() {
        let plain = build_clack_router(&ip_router(), false).unwrap();
        let flat = build_clack_router(&ip_router(), true).unwrap();
        assert!(flat.stats.flatten_groups >= 1);

        let work = packets::workload(&WorkloadOptions { count: 128, ..Default::default() });
        let mut hp = RouterHarness::new(&plain).unwrap();
        let mut hf = RouterHarness::new(&flat).unwrap();
        let rp = hp.measure(&work).unwrap();
        let rf = hf.measure(&work).unwrap();
        assert_eq!(hp.collect(0).len(), hf.collect(0).len());
        assert_eq!(hp.collect(1).len(), hf.collect(1).len());
        assert!(
            rf.cycles_per_packet < rp.cycles_per_packet,
            "flat {} vs plain {}",
            rf.cycles_per_packet,
            rp.cycles_per_packet
        );
    }

    #[test]
    fn hand_router_matches_modular_semantics() {
        let modular = build_clack_router(&ip_router(), false).unwrap();
        let hand = build_hand_router(false).unwrap();
        let work = packets::workload(&WorkloadOptions {
            count: 64,
            pct_non_ip: 10,
            pct_ttl_expired: 10,
            pct_no_route: 10,
            ..Default::default()
        });
        let mut hm = RouterHarness::new(&modular).unwrap();
        let mut hh = RouterHarness::new(&hand).unwrap();
        for (dev, pkt) in &work {
            hm.inject(*dev, pkt.clone());
            hh.inject(*dev, pkt.clone());
        }
        hm.run_until_idle();
        hh.run_until_idle();
        let m0 = hm.collect(0);
        let h0 = hh.collect(0);
        let m1 = hm.collect(1);
        let h1 = hh.collect(1);
        assert_eq!(m0, h0, "port 0 output identical");
        assert_eq!(m1, h1, "port 1 output identical");
    }

    #[test]
    fn strip_unstrip_bridge_is_identity() {
        // FromDevice -> Counter -> Strip(14) -> Unstrip(14) -> Queue -> ToDevice:
        // exercises Unstrip; the emitted frame equals the injected frame.
        let mut g = Graph::default();
        let from0 = g.add("from0", ElemType::FromDevice, vec![0]);
        let from1 = g.add("from1", ElemType::FromDevice, vec![1]);
        let cnt = g.add("cnt", ElemType::Counter, vec![]);
        let strip = g.add("strip", ElemType::Strip, vec![14]);
        let unstrip = g.add("unstrip", ElemType::Unstrip, vec![14]);
        let q = g.add("q", ElemType::Queue, vec![4]);
        let tx = g.add("tx", ElemType::ToDevice, vec![1]);
        let sink = g.add("sink", ElemType::Discard, vec![]);
        g.connect(from0, 0, cnt);
        g.connect(from1, 0, sink);
        g.connect(cnt, 0, strip);
        g.connect(strip, 0, unstrip);
        g.connect(unstrip, 0, q);
        g.connect(q, 0, tx);
        let report = build_clack_router(&g, false).expect("bridge builds");
        let mut h = RouterHarness::new(&report).unwrap();
        let frame = packets::ip_packet(7, packets::NET0 | 1, 9, &[1, 2, 3, 4, 5]);
        h.inject(0, frame.clone());
        h.run_until_idle();
        assert_eq!(h.collect(1), vec![frame], "bridge must be byte-identity");
    }

    #[test]
    fn tee_duplicates_to_a_monitor_port() {
        // main path: from0 -> tee -> [0] monitor counter -> discard
        //                          \ [1] queue -> tx(1)
        let mut g = Graph::default();
        let from0 = g.add("from0", ElemType::FromDevice, vec![0]);
        let from1 = g.add("from1", ElemType::FromDevice, vec![1]);
        let tee = g.add("tee", ElemType::Tee, vec![]);
        let mon = g.add("mon", ElemType::Counter, vec![]);
        let dmon = g.add("dmon", ElemType::Discard, vec![]);
        let q = g.add("q", ElemType::Queue, vec![4]);
        let tx = g.add("tx", ElemType::ToDevice, vec![1]);
        let sink = g.add("sink", ElemType::Discard, vec![]);
        g.connect(from0, 0, tee);
        g.connect(from1, 0, sink);
        g.connect(tee, 0, mon);
        g.connect(mon, 0, dmon);
        g.connect(tee, 1, q);
        g.connect(q, 0, tx);
        g.validate().unwrap();

        let report = build_clack_router(&g, false).expect("tee config builds");
        let mut h = RouterHarness::new(&report).unwrap();
        let frame = packets::ip_packet(7, packets::NET0 | 1, 9, &[1, 2, 3, 4]);
        h.inject(0, frame.clone());
        h.run_until_idle();
        // the main path still emits exactly one (unmodified) frame
        assert_eq!(h.collect(1), vec![frame]);

        // and the same config through the Click config language + both
        // Click backends agrees
        let g2 = crate::config::parse(
            "from0 :: FromDevice(0);\nfrom1 :: FromDevice(1);\nt :: Tee;\n\
             from0 -> t;\nfrom1 -> Discard;\nt[0] -> Counter -> Discard;\n\
             t[1] -> Queue(4) -> ToDevice(1);",
        )
        .expect("tee config parses");
        for opts in [None, Some(crate::click::ClickOpts::all())] {
            let img = crate::click::build_click_router(&g2, opts).expect("click tee builds");
            let mut hc = RouterHarness::from_image(img, Some("click_init"), "router_step").unwrap();
            let frame = packets::ip_packet(7, packets::NET0 | 1, 9, &[1, 2, 3, 4]);
            hc.inject(0, frame.clone());
            hc.run_until_idle();
            assert_eq!(hc.collect(1), vec![frame], "click backend {opts:?}");
        }
    }

    #[test]
    fn hand_router_is_faster_than_modular() {
        let modular = build_clack_router(&ip_router(), false).unwrap();
        let hand = build_hand_router(false).unwrap();
        let work = packets::workload(&WorkloadOptions { count: 128, ..Default::default() });
        let rm = RouterHarness::new(&modular).unwrap().measure(&work).unwrap();
        let rh = RouterHarness::new(&hand).unwrap().measure(&work).unwrap();
        assert!(
            rh.cycles_per_packet < rm.cycles_per_packet,
            "hand {} vs modular {}",
            rh.cycles_per_packet,
            rm.cycles_per_packet
        );
    }
}
