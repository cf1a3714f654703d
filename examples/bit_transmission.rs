//! Bit transmission in depth: the knowledge ladder, recall ablation, and
//! the stationary view through the model checker.
//!
//! Run with: `cargo run --example bit_transmission`

use knowledge_programs::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sc = BitTransmission::new(Channel::Lossy);
    let ctx = sc.context();
    let kbp = sc.kbp();
    let (s, r) = (sc.sender(), sc.receiver());

    println!("{}", kbp.to_pretty(&ctx));

    let solution = SyncSolver::new(&ctx, &kbp).horizon(6).solve()?;
    let sys = solution.system();

    // The knowledge ladder, rung by rung: at each layer, how many points
    // satisfy each rung? Counts are explicit points: a layer generated as
    // bisimulation representatives weights each by its multiplicity.
    let bit = Formula::prop(sc.bit());
    let rung1 = Formula::knows_whether(r, bit.clone()); // K_R bit
    let rung2 = Formula::knows(s, rung1.clone()); // K_S K_R bit
    let rung3 = Formula::knows(r, rung2.clone()); // K_R K_S K_R bit
    let group: AgentSet = [s, r].into_iter().collect();
    let ck = Formula::common(group, bit); // C bit — never

    println!("knowledge ladder over time (points satisfying / layer size):");
    println!("layer   size   K_R bit   K_S K_R   K_R K_S K_R   C bit");
    let evs = [
        Evaluator::new(sys, &rung1)?,
        Evaluator::new(sys, &rung2)?,
        Evaluator::new(sys, &rung3)?,
        Evaluator::new(sys, &ck)?,
    ];
    for t in 0..sys.layer_count() {
        let layer = sys.layer(t);
        let size = layer.explicit_len();
        let counts: Vec<u64> = evs
            .iter()
            .map(|e| e.satisfying(t).iter().map(|n| layer.multiplicity(n)).sum())
            .collect();
        println!(
            "{t:>5}   {size:>4}   {:>7}   {:>7}   {:>11}   {:>5}",
            counts[0], counts[1], counts[2], counts[3]
        );
    }
    println!("(each rung needs one more delivered message; C bit stays 0 forever)\n");

    // Recall ablation: perfect recall vs observational agents.
    let perfect = solution;
    let obs = SyncSolver::new(&ctx, &kbp)
        .horizon(6)
        .recall(Recall::Observational)
        .solve()?;
    println!("recall ablation (layer sizes):");
    println!("layer   perfect   observational");
    for t in 0..=6 {
        println!(
            "{t:>5}   {:>7}   {:>13}",
            perfect.system().layer(t).explicit_len(),
            obs.system().layer(t).explicit_len()
        );
    }
    println!(
        "observational stabilizes at layer {:?}; perfect recall keeps\nsplitting histories.\n",
        obs.stabilized()
    );

    // Stationary view: run the derived protocol through the state-graph
    // explorer and model-check the safety property with CTLK.
    let graph = StateGraph::explore(&ctx, obs.protocol(), 10_000)?;
    let mck = Mck::new(&graph);
    println!(
        "stationary graph: {} states, {} transitions",
        graph.state_count(),
        graph.transition_count()
    );
    let safety = Formula::always(Formula::implies(
        Formula::prop(sc.sender_has_ack()),
        Formula::prop(sc.receiver_has_bit()),
    ));
    println!(
        "CTLK check  G(sack -> rbit): {}",
        mck.check(&safety)?.holds_initially()
    );
    let delivery_possible = ctl::ef(Formula::prop(sc.receiver_has_bit()));
    println!(
        "CTLK check  EF rbit        : {}",
        mck.check(&delivery_possible)?.holds_initially()
    );
    Ok(())
}
