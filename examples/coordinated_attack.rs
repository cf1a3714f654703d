//! The coordinated-attack problem: a knowledge-based program whose attack
//! guard is a *common knowledge* test — paralysed by a lossy channel,
//! decisive over a reliable one.
//!
//! Run with: `cargo run --example coordinated_attack`

use knowledge_programs::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for channel in [Channel::Lossy, Channel::Reliable] {
        let sc = CoordinatedAttack::new(channel);
        let ctx = sc.context();
        let kbp = sc.kbp();
        if channel == Channel::Lossy {
            println!("{}", kbp.to_pretty(&ctx));
        }

        let solution = SyncSolver::new(&ctx, &kbp).horizon(5).solve()?;
        let sys = solution.system();
        println!("--- {channel:?} channel ---");
        println!(
            "  coordination  G(att1 <-> att2) : {}",
            sys.holds_initially(&sc.coordination())?
        );
        println!(
            "  validity      G(att1 -> weak)  : {}",
            sys.holds_initially(&sc.validity())?
        );
        println!(
            "  paralysis     G(no attacks)    : {}",
            sys.holds_initially(&sc.nobody_attacks())?
        );

        // The knowledge ladder vs the common-knowledge ceiling.
        let weak = Formula::prop(sc.weak());
        let ck = Formula::common(sc.generals(), weak.clone());
        let k2 = Formula::knows(sc.general2(), weak.clone());
        let k1k2 = Formula::knows(sc.general1(), Formula::knows_whether(sc.general2(), weak));
        let evs = [
            ("K_2 weak", Evaluator::new(sys, &k2)?),
            ("K_1 K_2 ±weak", Evaluator::new(sys, &k1k2)?),
            ("C weak", Evaluator::new(sys, &ck)?),
        ];
        // Explicit points: a representative counts with its multiplicity.
        println!("  ladder (points satisfying / layer):");
        print!("    layer:");
        for t in 0..sys.layer_count() {
            print!(" {t:>5}");
        }
        println!();
        for (name, ev) in &evs {
            print!("    {name:<14}");
            for t in 0..sys.layer_count() {
                let layer = sys.layer(t);
                let count: u64 = ev.satisfying(t).iter().map(|n| layer.multiplicity(n)).sum();
                print!(" {count:>5}");
            }
            println!();
        }
        println!();
    }
    println!("Over the lossy channel each delivered message climbs one rung of");
    println!("the ladder, but C weak stays at 0 forever — so the generals, who");
    println!("attack exactly on common knowledge, provably never attack. Over");
    println!("the reliable channel delivery itself is common knowledge and the");
    println!("attack happens in lock-step.");
    Ok(())
}
