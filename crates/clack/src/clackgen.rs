//! Clack realization: a configuration [`Graph`] → Knit units.
//!
//! Element code is fixed (the units in `corpus/elements.unit`); per-element
//! parameters become generated "trivial components that provide
//! initialization data" (§5.2), and the graph's wiring becomes a generated
//! compound unit. "The rapid deployment of new configurations" is a
//! `Graph` → `generate` → `knit::build` round trip.

use knit::SourceTree;

use crate::graph::{ElemType, Graph};

/// What the generator produced: text to append to the Knit program and
/// files to add to the source tree.
pub struct Generated {
    /// `.unit` source declaring the param units and the router compound.
    pub unit_text: String,
    /// Generated parameter C sources.
    pub sources: Vec<(String, String)>,
    /// The compound unit's name.
    pub kernel: String,
}

/// Generate the Knit configuration for `graph` as compound unit `kernel`.
/// With `flatten`, the whole router becomes one flattening group (§6).
pub fn generate(graph: &Graph, kernel: &str, flatten: bool) -> Result<Generated, String> {
    graph.validate()?;
    let mut unit_text = String::new();
    let mut sources = Vec::new();

    // --- param units ---
    for e in &graph.elems {
        if !e.ty.takes_params() {
            continue;
        }
        let file = format!("p_{}.c", e.name);
        sources.push((file.clone(), param_source(&e.params)));
        unit_text.push_str(&format!(
            "unit P_{name} = {{\n    exports [ params : Params ];\n    files {{ \"{file}\" }} with flags ClackFlags;\n}}\n\n",
            name = e.name,
        ));
    }

    // --- the compound unit ---
    unit_text
        .push_str(&format!("unit {kernel} = {{\n    exports [ router : Router ];\n    link {{\n"));
    for e in &graph.elems {
        if e.ty.takes_params() {
            unit_text.push_str(&format!("        p_{0} : P_{0};\n", e.name));
        }
    }
    let mut from_devices = Vec::new();
    for (i, e) in graph.elems.iter().enumerate() {
        let mut binds: Vec<String> = Vec::new();
        for port in 0..e.ty.out_ports() {
            let to = graph.target(i, port).expect("validated");
            let binding = e.ty.out_port_binding(port);
            // Push consumers export their input port as `in`
            binds.push(format!("{binding} = {}.in", graph.elems[to].name));
        }
        if e.ty.takes_params() {
            binds.push(format!("params = p_{}.params", e.name));
        }
        if e.ty == ElemType::FromDevice {
            from_devices.push(e.name.clone());
        }
        if binds.is_empty() {
            unit_text.push_str(&format!("        {} : {};\n", e.name, e.ty.unit_name()));
        } else {
            unit_text.push_str(&format!(
                "        {} : {} [ {} ];\n",
                e.name,
                e.ty.unit_name(),
                binds.join(", ")
            ));
        }
    }
    if from_devices.len() != 2 {
        return Err(format!(
            "the RouterDriver expects exactly two FromDevice elements, found {}",
            from_devices.len()
        ));
    }
    unit_text.push_str(&format!(
        "        drv : RouterDriver [ in0 = {}.src, in1 = {}.src ];\n",
        from_devices[0], from_devices[1]
    ));
    unit_text.push_str("        router = drv.router;\n    };\n");
    if flatten {
        unit_text.push_str("    flatten;\n");
    }
    unit_text.push_str("}\n");

    Ok(Generated { unit_text, sources, kernel: kernel.to_string() })
}

/// Generate the sharded multi-core router as compound unit `kernel`
/// (DESIGN.md §8): one input pipeline per core (FromDevice(c) → Counter →
/// Classifier → Strip → CheckIPHeader → DecIPTTL → LookupIPRoute, fresh
/// instances via Knit multiple instantiation), converging on two
/// `SharedQueue` instances whose state lives in shared, bus-coherent
/// memory, then a single egress chain per output port (EtherEncap →
/// Counter → ToDevice). Exports `router0..router{ncores-1}`, one Router
/// bundle per core, so the harness can drive each core's shard
/// independently under the round-robin scheduler.
pub fn generate_mc(ncores: usize, kernel: &str, flatten: bool) -> Result<Generated, String> {
    use crate::graph::mac_params;
    use crate::packets::{MASK24, NET0, NET1};

    if ncores < 1 {
        return Err("a sharded router needs at least one core".to_string());
    }
    let mut unit_text = String::new();
    let mut sources = Vec::new();
    let mut param_unit = |name: &str, params: &[i64], unit_text: &mut String| {
        let file = format!("p_{name}.c");
        sources.push((file.clone(), param_source(params)));
        unit_text.push_str(&format!(
            "unit P_{name} = {{\n    exports [ params : Params ];\n    files {{ \"{file}\" }} with flags ClackFlags;\n}}\n\n",
        ));
    };

    // --- param units: per-core ingress, shared egress ---
    let route = [NET0 as i64, MASK24 as i64, 0, NET1 as i64, MASK24 as i64, 1];
    for c in 0..ncores {
        param_unit(&format!("from{c}"), &[c as i64], &mut unit_text);
        param_unit(&format!("cls{c}"), &[12, 0x0800], &mut unit_text);
        param_unit(&format!("strip{c}"), &[14], &mut unit_text);
        param_unit(&format!("rt{c}"), &route, &mut unit_text);
    }
    param_unit("enc0", &mac_params(0), &mut unit_text);
    param_unit("enc1", &mac_params(1), &mut unit_text);
    param_unit("to0", &[0], &mut unit_text);
    param_unit("to1", &[1], &mut unit_text);

    // --- the compound unit ---
    let exports: Vec<String> = (0..ncores).map(|c| format!("router{c} : Router")).collect();
    unit_text.push_str(&format!(
        "unit {kernel} = {{\n    exports [ {} ];\n    link {{\n",
        exports.join(", ")
    ));
    for c in 0..ncores {
        for p in ["from", "cls", "strip", "rt"] {
            unit_text.push_str(&format!("        p_{p}{c} : P_{p}{c};\n"));
        }
    }
    for p in ["enc0", "enc1", "to0", "to1"] {
        unit_text.push_str(&format!("        p_{p} : P_{p};\n"));
    }
    // shared egress: SharedQueue → EtherEncap → Counter → ToDevice per port
    for port in 0..2 {
        unit_text.push_str(&format!("        sq{port} : SharedQueue [ out = enc{port}.in ];\n"));
        unit_text.push_str(&format!(
            "        enc{port} : EtherEncap [ out = cout{port}.in, params = p_enc{port}.params ];\n"
        ));
        unit_text.push_str(&format!("        cout{port} : Counter [ out = to{port}.in ];\n"));
        unit_text
            .push_str(&format!("        to{port} : ToDevice [ params = p_to{port}.params ];\n"));
    }
    for d in ["d_cls", "d_chk", "d_ttl", "d_rt"] {
        unit_text.push_str(&format!("        {d} : Discard;\n"));
    }
    // per-core ingress pipelines and drivers
    for c in 0..ncores {
        unit_text.push_str(&format!(
            "        from{c} : FromDevice [ out = cin{c}.in, params = p_from{c}.params ];\n"
        ));
        unit_text.push_str(&format!("        cin{c} : Counter [ out = cls{c}.in ];\n"));
        unit_text.push_str(&format!(
            "        cls{c} : Classifier [ out0 = strip{c}.in, out1 = d_cls.in, params = p_cls{c}.params ];\n"
        ));
        unit_text.push_str(&format!(
            "        strip{c} : Strip [ out = chk{c}.in, params = p_strip{c}.params ];\n"
        ));
        unit_text.push_str(&format!(
            "        chk{c} : CheckIPHeader [ out = ttl{c}.in, bad = d_chk.in ];\n"
        ));
        unit_text.push_str(&format!(
            "        ttl{c} : DecIPTTL [ out = rt{c}.in, expired = d_ttl.in ];\n"
        ));
        unit_text.push_str(&format!(
            "        rt{c} : LookupIPRoute [ out0 = sq0.in, out1 = sq1.in, nomatch = d_rt.in, params = p_rt{c}.params ];\n"
        ));
        unit_text.push_str(&format!("        drv{c} : CoreDriver [ in = from{c}.src ];\n"));
    }
    for c in 0..ncores {
        unit_text.push_str(&format!("        router{c} = drv{c}.router;\n"));
    }
    unit_text.push_str("    };\n");
    if flatten {
        unit_text.push_str("    flatten;\n");
    }
    unit_text.push_str("}\n");

    Ok(Generated { unit_text, sources, kernel: kernel.to_string() })
}

/// C source of a parameter unit.
fn param_source(params: &[i64]) -> String {
    let n = params.len();
    if n == 0 {
        return "int param_count() { return 0; }\nint param_get(int i) { return 0; }\n".to_string();
    }
    let vals: Vec<String> = params.iter().map(|v| v.to_string()).collect();
    format!(
        "static int vals[{n}] = {{ {} }};\nint param_count() {{ return {n}; }}\nint param_get(int i) {{ return vals[i]; }}\n",
        vals.join(", ")
    )
}

/// Add the generated sources to a tree.
pub fn install(gen: &Generated, tree: &mut SourceTree) {
    for (path, text) in &gen.sources {
        tree.add(path, text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ip_router;

    #[test]
    fn generates_param_units_and_compound() {
        let g = ip_router();
        let gen = generate(&g, "IpRouter", false).unwrap();
        assert!(gen.unit_text.contains("unit P_from0"));
        assert!(gen.unit_text.contains("unit IpRouter"));
        assert!(gen.unit_text.contains("rt : LookupIPRoute [ out0 = enc0.in, out1 = enc1.in, nomatch = d_rt.in, params = p_rt.params ]"));
        assert!(gen.unit_text.contains("drv : RouterDriver [ in0 = from0.src, in1 = from1.src ]"));
        assert!(!gen.unit_text.contains("flatten;"));
        // counters take no params
        assert!(!gen.unit_text.contains("unit P_cin0"));
        let flat = generate(&g, "IpRouterFlat", true).unwrap();
        assert!(flat.unit_text.contains("flatten;"));
    }

    #[test]
    fn param_source_shapes() {
        assert!(param_source(&[]).contains("return 0"));
        let s = param_source(&[12, 2048]);
        assert!(s.contains("vals[2] = { 12, 2048 }"));
    }

    #[test]
    fn mc_generator_shapes() {
        let gen = generate_mc(4, "McRouter", false).unwrap();
        // one ingress pipeline + driver per core
        for c in 0..4 {
            assert!(gen.unit_text.contains(&format!("from{c} : FromDevice")));
            assert!(gen.unit_text.contains(&format!(
                "rt{c} : LookupIPRoute [ out0 = sq0.in, out1 = sq1.in, nomatch = d_rt.in, params = p_rt{c}.params ]"
            )));
            assert!(gen.unit_text.contains(&format!("router{c} = drv{c}.router;")));
        }
        // shared egress with exactly two SharedQueues
        assert_eq!(gen.unit_text.matches(": SharedQueue").count(), 2);
        assert!(gen.unit_text.contains(
            "exports [ router0 : Router, router1 : Router, router2 : Router, router3 : Router ]"
        ));
        assert!(!gen.unit_text.contains("flatten;"));
        assert!(generate_mc(2, "McFlat", true).unwrap().unit_text.contains("flatten;"));
        assert!(generate_mc(0, "Bad", false).is_err());
    }

    #[test]
    fn mc_generated_units_parse() {
        let gen = generate_mc(3, "McRouter", false).unwrap();
        let combined = format!("{}\n{}", include_str!("../corpus/elements.unit"), gen.unit_text);
        knit_lang::parse("mc_generated.unit", &combined).expect("mc unit text parses");
    }

    #[test]
    fn generated_units_parse() {
        let g = ip_router();
        let gen = generate(&g, "IpRouter", false).unwrap();
        // the generated text must parse as Knit (in context of the element
        // declarations, which define the bundletypes)
        let combined = format!("{}\n{}", include_str!("../corpus/elements.unit"), gen.unit_text);
        knit_lang::parse("generated.unit", &combined).expect("generated unit text parses");
    }
}
