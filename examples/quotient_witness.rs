//! Quotient-first *generation* witness: a sequence-transmission
//! unrolling whose explicit run tree holds hundreds of millions of
//! worlds, solved while only bisimulation representatives are ever
//! resident.
//!
//! Sequence transmission has a tiny proposition vocabulary but a run
//! tree that fans out exponentially (loss × delivery × tag
//! interleavings), so each explicit layer multiplies — yet almost all of
//! those points are pairwise bisimilar histories over the same protocol
//! state. Its frontiers hold no perfect-recall twins, so by default the
//! builder unrolls on one representative per class with an exact
//! multiplicity (DESIGN.md §17): the
//! representative frontier *stops growing* where the explicit frontier
//! keeps multiplying, so a solve that would need tens of gigabytes
//! explicit completes in megabytes. A smaller instance of the same
//! family is then solved fused and fully explicit, and crosschecked
//! bit-for-bit — the evidence that the compressed answer is the
//! explicit answer.
//!
//! Run with: `cargo run --release --example quotient_witness -- [m] [horizon] [mode]`
//! (default m = 3, horizon = 13: ~110M explicit-equivalent worlds, under
//! 1 GiB peak). `mode` is `fused` (default) or `explicit`; the explicit
//! mode forces `SyncSolver::gen_quotient_min_worlds(usize::MAX)`,
//! generates every point and is the before-leg of the E18 benchmark —
//! expect it to need orders of magnitude more memory.

use knowledge_programs::prelude::*;

/// Peak resident set size of this process in bytes (`VmHWM`), if the
/// platform exposes it.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let m: u32 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(3);
    let horizon: usize = std::env::args()
        .nth(2)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(13);
    let fused = match std::env::args().nth(3).as_deref() {
        None | Some("fused") => true,
        Some("explicit") => false,
        Some(other) => return Err(format!("unknown mode {other:?} (fused|explicit)").into()),
    };

    let sc = SequenceTransmission::new(m, Tagging::Alternating, Channel::Lossy);
    let ctx = sc.context();
    let kbp = sc.kbp();

    println!("sequence transmission, m = {m}, horizon = {horizon}, lossy channel");
    if fused {
        println!("default generation: layers are generated on bisimulation");
        println!("representatives; the explicit frontier is never resident\n");
    } else {
        println!("explicit generation forced: every explicit point is materialized\n");
    }

    let started = std::time::Instant::now();
    let solution = SyncSolver::new(&ctx, &kbp)
        .horizon(horizon)
        .gen_quotient_min_worlds(if fused { 0 } else { usize::MAX })
        .node_limit(200_000_000)
        .solve()?;
    let elapsed = started.elapsed();

    println!("  layer   explicit-equivalent    resident   ratio");
    for l in solution.per_layer() {
        if l.gen_quotient_worlds > 0 {
            println!(
                "  {:>5}  {:>20}  {:>10}   {:>3}.{}%",
                l.layer,
                l.points,
                l.gen_quotient_worlds,
                l.gen_quotient_ratio / 10,
                l.gen_quotient_ratio % 10
            );
        } else {
            println!("  {:>5}  {:>20}           -       -", l.layer, l.points);
        }
    }
    let stats = solution.stats();
    println!(
        "\n  {} explicit-equivalent worlds across {} layers, {} generated quotient-first",
        stats.points, stats.layers, stats.layers_gen_quotiented
    );
    println!(
        "  solved in {:.2?} ({} protocol entries, {} guard evaluations)",
        elapsed, stats.protocol_entries, stats.guard_evaluations
    );
    match peak_rss_bytes() {
        Some(peak) => {
            println!(
                "  peak memory: {:.1} MiB ({} bytes VmHWM)",
                peak as f64 / (1024.0 * 1024.0),
                peak
            );
            if stats.points >= 100_000_000 && peak < 2 * 1024 * 1024 * 1024 {
                println!(
                    "  witness: >= 100,000,000 explicit-equivalent worlds solved in < 2 GiB peak"
                );
            }
        }
        None => println!("  peak memory: unavailable on this platform"),
    }

    // Crosscheck on a smaller instance of the same family: fused
    // generation and the fully explicit path must agree bit-for-bit.
    let small = SequenceTransmission::new(2, Tagging::Alternating, Channel::Lossy);
    let sctx = small.context();
    let skbp = small.kbp();
    let solve = |gen: usize| {
        SyncSolver::new(&sctx, &skbp)
            .horizon(7)
            .gen_quotient_min_worlds(gen)
            .solve()
    };
    let fused = solve(0)?;
    let explicit = solve(usize::MAX)?;
    assert_eq!(fused.protocol(), explicit.protocol());
    assert_eq!(fused.stabilized(), explicit.stabilized());
    assert_eq!(
        fused
            .per_layer()
            .iter()
            .map(|l| l.points)
            .collect::<Vec<_>>(),
        explicit
            .per_layer()
            .iter()
            .map(|l| l.points)
            .collect::<Vec<_>>(),
    );
    println!("\n  crosscheck (m = 2, horizon = 7): fused == explicit ✓");
    Ok(())
}
