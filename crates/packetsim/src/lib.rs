//! # horse-packetsim
//!
//! The **packet-plane mechanics** behind Horse's packet-fidelity tier,
//! sharing Horse's topology and OpenFlow pipeline. This crate has no
//! event loop of its own: `horse-core`'s `Simulation` drives
//! [`PacketPlane`] for packet-fidelity flows. A simulation whose flows are
//! all packet-fidelity is the controlled baseline for the paper's two
//! evaluation axes: *simulation time* (packet-level cost grows with every
//! packet × hop, flow-level with flow events only) and *accuracy* (how
//! close the fluid abstraction gets to per-packet ground truth). It stands
//! in for the Mininet/ns-3-class tools the poster compares against
//! (substitution documented in DESIGN.md §4).
//!
//! Modelled mechanics:
//!
//! * store-and-forward switching: per-port output queues with finite
//!   buffers and tail drop, serialization at link rate, propagation delay;
//! * the same [`horse_openflow::OpenFlowSwitch`] classification (tables,
//!   groups, meters as token buckets) as the fluid plane;
//! * paced CBR (UDP-like) sources and a window-based TCP source
//!   (slow start, congestion avoidance, triple-dup-ACK fast retransmit,
//!   RTO with exponential backoff, cumulative ACKs, 64-byte ACK packets);
//! * reactive controllers: a table miss raises `FlowIn` (the packet is
//!   dropped, as on a bufferless OpenFlow switch); the driver carries it
//!   to the controller and the FlowMods back over its control channel.
//!
//! Deliberately omitted (documented, smoltcp-style): SACK, delayed ACKs,
//! Nagle, window scaling beyond the configured cap, ECN, and RED queues —
//! none of which change the first-order utilization/FCT comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod source;

pub use engine::{
    DrainFn, PacketPlane, PacketSimConfig, Pkt, PktEvent, PktFlowRecord, PktFlowSpec, PktOut,
};
pub use source::{SourceKind, TcpState};
