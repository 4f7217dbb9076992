//! Replicated model serving over a simulated, fault-injectable network.
//!
//! The paper's tuning-model repository is a single shared store; this
//! module lifts it to a small replicated system while keeping the
//! runtime's core property — *everything is deterministic under a
//! seed*. The layers, bottom-up:
//!
//! * [`frame`] — the length-framed, versioned wire format and
//!   [`NetError`]. Every decode is a `Result`; malformed bytes are data,
//!   not panics. Every frame header carries [`PROTOCOL_VERSION`] and a
//!   decode rejects any other, so there is no version handshake.
//! * [`transport`] — [`SimTransport`], virtual-time message passing
//!   where delay, drop, duplication, reorder and partition are pure
//!   functions of `(fault plan, message id, tick)` via the
//!   [`FaultInjector`](crate::FaultInjector) network hooks.
//! * [`reconcile`] — [`Stamp`] ordering (version first, publisher id as
//!   the tie-break) and the replicated entry/digest types. The total
//!   order on stamps is what makes every replica pick the same winner.
//! * [`replica`] — [`Replica`] (a repository plus replication state)
//!   and [`ReplicaSet`], whose gossip rounds drive anti-entropy digest
//!   sync over the transport; [`ReplicaSet::converge`] repeats them
//!   until the set is quiet and every replica holds a bit-identical
//!   model map. There is no connection state: a link stays dirty, or
//!   its offer outstanding, until an empty reply confirms parity, and a
//!   timed-out offer is re-sent — so any lost digest-exchange message
//!   is recovered by a later offer over the same link.
//!
//! The scheduler consumes all of this through one seam:
//! [`RepositoryHandle`](crate::repository::RepositoryHandle), which
//! both the plain repository and a [`Replica`] implement, so
//! [`ClusterScheduler::run`](crate::ClusterScheduler::run) serves from
//! `set.replica_mut(id)` unchanged.

pub mod frame;
pub mod reconcile;
pub mod replica;
pub mod transport;

pub use frame::{decode, encode, ConvergeCulprit, Message, NetError, MAX_FRAME, PROTOCOL_VERSION};
pub use reconcile::{ModelDigest, ReplicatedModel, Stamp};
pub use replica::{ConvergeReport, Replica, ReplicaConfig, ReplicaSet, ReplicaStats};
pub use transport::{Delivery, SimTransport, TransportStats};
