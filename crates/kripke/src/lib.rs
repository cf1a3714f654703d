//! Finite S5ₙ Kripke structures — the epistemic substrate of the
//! `knowledge-programs` workspace.
//!
//! An [`S5Model`] is a set of worlds, a propositional valuation and one
//! information [`Partition`] per agent. Evaluation of every epistemic
//! modality of [`kbp_logic::Formula`] is supported:
//!
//! * `K_i φ` — truth in the whole information cell,
//! * `E_G φ` — everyone in `G` knows,
//! * `C_G φ` — common knowledge (connected components of the joined
//!   partitions),
//! * `D_G φ` — distributed knowledge (common refinement of partitions).
//!
//! Also provided: [public announcements](S5Model::announce) (model
//! restriction) and [bisimulation quotients](S5Model::quotient).
//!
//! In the runs-and-systems picture of the PODC'95 knowledge-based-programs
//! paper, each *time slice* of a synchronous system is exactly such a
//! model: worlds are the points at time `t`, and each agent's partition
//! groups points with equal local state. The `kbp-systems` crate builds
//! those slices and delegates knowledge evaluation here.
//!
//! # Example
//!
//! ```
//! use kbp_kripke::S5Builder;
//! use kbp_logic::{Agent, AgentSet, Formula, PropId};
//!
//! let (alice, bob) = (Agent::new(0), Agent::new(1));
//! let p = PropId::new(0);
//!
//! let mut b = S5Builder::new(2, 1);
//! let w0 = b.add_world([p]);
//! let w1 = b.add_world([]);
//! b.link(bob, w0, w1); // Bob can't tell whether p
//!
//! let m = b.build();
//! assert!(m.check(w0, &Formula::knows(alice, Formula::prop(p)))?);
//! assert!(!m.check(w0, &Formula::knows(bob, Formula::prop(p)))?);
//! // Distributed knowledge pools Alice's information:
//! let g = AgentSet::all(2);
//! assert!(m.check(w0, &Formula::distributed(g, Formula::prop(p)))?);
//! # Ok::<(), kbp_kripke::EvalError>(())
//! ```

// Robustness gate: the library surface must stay panic-free so malformed
// inputs (e.g. from the fault-injection layer) surface as typed errors.
// Tests and benches are exempt.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod announce;
mod bisim;
mod bitset;
mod constructions;
mod engine;
mod eval;
mod events;
mod model;
mod partition;

pub use announce::{AnnounceError, Announcement};
pub use bisim::Quotient;
pub use bitset::BitSet;
pub use engine::{EvalEngine, TemporalOps};
pub use eval::{blocks_inside, EvalCache, EvalError};
pub use events::{Event, EventId, EventModel, EventModelBuilder, Product, UpdateError};
pub use model::{S5Builder, S5Model, WorldId};
pub use partition::{Partition, UnionFind};
