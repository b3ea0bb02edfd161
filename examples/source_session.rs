//! Source-to-verdict incremental frontend: keep a [`SourceProgram`]
//! and an [`AnalysisSession`] in lockstep over a stream of *textual*
//! edits. Each edit is diffed at function granularity; only the
//! changed units are re-lowered and re-analyzed, and comment-only
//! edits re-analyze nothing — while every answer stays byte-identical
//! to recompiling and re-analyzing the whole text from scratch.
//!
//! ```text
//! cargo run --release --example source_session [insts] [edits]
//! ```

use sra::core::{AliasService, AnalysisConfig, AnalysisSession, BatchAnalysis};
use sra::lang::SourceProgram;
use sra::workloads::source_edits;

fn main() {
    let insts: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000);
    let num_edits: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);

    let mut workload = source_edits::generate_sized_workload(insts, 42);
    let text = workload.text();
    let mut program = SourceProgram::new(&text).expect("generated source compiles");
    println!(
        "source: {} bytes, {} functions, {} instructions",
        text.len(),
        program.num_units(),
        program.module().num_insts()
    );

    let config = AnalysisConfig::default();
    let mut session =
        AnalysisSession::with_config(program.module().clone(), config).expect("module verifies");

    let mut session_time = std::time::Duration::ZERO;
    let mut scratch_time = std::time::Duration::ZERO;
    for step in workload.edit_stream(num_edits) {
        // Incremental path: diff the text, re-lower only changed
        // functions, and let the session re-analyze only what the
        // diff can reach.
        let t = std::time::Instant::now();
        let diff = program
            .apply_edit(&step.text)
            .expect("stream edits compile");
        session
            .apply_source_edit(diff)
            .expect("session accepts registry diffs");
        session_time += t.elapsed();

        // What a batch system would do instead: recompile the whole
        // text and re-analyze from scratch.
        let t = std::time::Instant::now();
        let module = sra::lang::compile(&step.text).expect("stream text compiles");
        let scratch = BatchAnalysis::analyze_with(&module, config);
        scratch_time += t.elapsed();
        let scratch = scratch.rbaa();

        // The contract: byte-identical results after every edit.
        assert_eq!(session.module(), program.module());
        assert_eq!(
            session.analysis().gr().ascending_sweeps(),
            scratch.gr().ascending_sweeps()
        );
    }

    let stats = session.stats();
    println!(
        "applied {} textual edits ({} no-ops): {} parts re-analyzed, {} reused",
        stats.edits, stats.noop_edits, stats.parts_reanalyzed, stats.parts_reused
    );
    assert!(stats.parts_reused > 0, "incrementality must reuse parts");
    println!(
        "incremental source edits: {session_time:?} vs recompile+scratch: {scratch_time:?} ({:.1}x)",
        scratch_time.as_secs_f64() / session_time.as_secs_f64().max(1e-9)
    );

    // The same pipeline behind the multi-tenant service: tenants can
    // be registered from source text and edited by text, one
    // published epoch per edit.
    let service = AliasService::with_config(config);
    service
        .add_tenant_source("demo", &text)
        .expect("source tenant compiles");
    let epoch = service
        .edit_tenant_source("demo", &workload.text())
        .expect("text edit lands");
    println!("service tenant \"demo\" now at epoch {epoch}");
}
