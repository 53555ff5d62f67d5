//! Helpers shared by the integration tests that drive the fault
//! simulator on the paper's datapath kernels.

use bibs_bench::{apply_tdm, build_source, SourceSpec, Tdm};
use bibs_datapath::elab::elaborate_kernel;
use bibs_datapath::filters::scaled;
use bibs_faultsim::fault::{Fault, FaultUniverse};
use bibs_faultsim::source::PatternSource;
use bibs_netlist::{EvalProgram, Netlist};
use std::collections::HashSet;

/// A kernel's combinational equivalent, the faults Table 2 simulates on
/// it, and a factory for its pattern source.
pub type Kernel = (Netlist, Vec<Fault>, Box<dyn Fn() -> Box<dyn PatternSource>>);

/// Every BIBS kernel of `name` at `width`, with its `spec` source. Like
/// the Table 2 pipeline, the fault list leaves out the faults with no
/// path to an output, which PODEM could only prove redundant by
/// exhausting every assignment that activates them.
pub fn bibs_kernels(name: &str, width: u32, spec: &SourceSpec) -> Vec<Kernel> {
    let (circuit, design, ks) = apply_tdm(&scaled(name, width), Tdm::Bibs);
    let cut: HashSet<_> = design.bilbo.iter().chain(&design.cbilbo).copied().collect();
    ks.into_iter()
        .map(|kernel| {
            let set: HashSet<_> = kernel.vertices.iter().copied().collect();
            let comb = elaborate_kernel(&circuit, &set, &cut)
                .expect("kernel elaborates")
                .netlist
                .combinational_equivalent();
            let program = EvalProgram::compile(&comb).expect("kernel equivalents are acyclic");
            let (faults, _) = FaultUniverse::collapsed(&comb).split_by_observability(&program);
            let (circuit, design, spec) = (circuit.clone(), design.clone(), spec.clone());
            let input_width = comb.input_width();
            let make = move || {
                build_source(&spec, 0x51B5, input_width, &circuit, &design, &kernel)
                    .expect("source builds")
            };
            (
                comb,
                faults,
                Box::new(make) as Box<dyn Fn() -> Box<dyn PatternSource>>,
            )
        })
        .collect()
}
