//! The [`engine`](crate::engine) types under the names the `perfbench`
//! workspace's event-chain probe imports; that workspace only changes
//! together with its benchmark definition, so the names stay until then.

pub use crate::engine::{
    Scheduler as FlatScheduler, Simulation as FlatSimulation, World as FlatWorld,
};
