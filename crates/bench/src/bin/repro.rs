//! `repro` — regenerate the paper's figures and tables, and drive the
//! studies built on them. `repro list` names every figure id and verb,
//! `repro --help` shows every flag; both are rendered from the one verb
//! table in `pscp_bench::verbs` (DESIGN.md §17).
//!
//! Any command also honors `PSCP_TRACE=1` to record the structured event
//! log and metrics while it runs (sim results are byte-identical either way).

/// With `--features count-allocs`, every bench row also reports heap
/// allocations per iteration (the zero-copy hot paths should show 0).
#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: pscp_obs::alloc_count::CountingAlloc = pscp_obs::alloc_count::CountingAlloc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(pscp_bench::cli::main(&argv));
}
