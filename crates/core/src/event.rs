//! The unified simulation event type.
//!
//! "Events are a temporally ordered set of inputs for the topology (i.e.,
//! data traffic, link failure)" — plus the control-plane crossings the
//! decoupled architecture introduces.

use horse_dataplane::FlowSpec;
use horse_openflow::messages::{CtrlMsg, SwitchMsg};
use horse_packetsim::PktEvent;
use horse_types::{FlowId, LinkId, NodeId, Snap, SnapError, SnapReader, SnapWriter};

/// Everything that can happen in a Horse simulation.
#[derive(Clone, Debug)]
pub enum SimEvent {
    /// A data flow arrives (from the traffic matrix / generator / API).
    FlowArrival {
        /// What to admit.
        spec: FlowSpec,
        /// `true` when this arrival came from the workload generator and
        /// the next generator arrival must be scheduled after it.
        from_workload: bool,
    },
    /// Retry a flow admission after the controller acted.
    AdmitRetry {
        /// The reserved flow id.
        id: FlowId,
    },
    /// A sized flow finished transferring (validated by generation).
    Completion {
        /// The flow.
        id: FlowId,
        /// Rate-change generation this event belongs to.
        generation: u64,
    },
    /// A switch→controller message crosses the control channel.
    ToController {
        /// The message.
        msg: Box<SwitchMsg>,
        /// When this `FlowIn` blocks a pending admission, its flow id.
        retry: Option<FlowId>,
    },
    /// One controller reaction's messages cross the control channel
    /// together: every message of the reaction's outbox, applied in
    /// order (they share one send time and latency).
    ToSwitch {
        /// `(target switch, message)` in outbox order.
        msgs: Vec<(NodeId, CtrlMsg)>,
    },
    /// A controller timer fires.
    ControllerTimer {
        /// The token the controller registered.
        token: u64,
    },
    /// A cable fails (both directions).
    CableDown(LinkId),
    /// A cable recovers.
    CableUp(LinkId),
    /// A switch crashes: flow tables wiped, every port down, all
    /// incident cables cut (both directions).
    SwitchDown(NodeId),
    /// A crashed switch rejoins, empty, with its cables restored
    /// (except those whose peer is itself down).
    SwitchUp(NodeId),
    /// A gray failure starts or clears on a cable: the link stays *up*
    /// but runs at `capacity_factor` of nominal capacity and drops
    /// `loss_frac` of the traffic it does carry. `capacity_factor = 1`
    /// with `loss_frac = 0` clears the failure.
    GraySet {
        /// The affected cable (applied to both directions).
        link: LinkId,
        /// Fraction of nominal capacity retained, in `(0, 1]`.
        capacity_factor: f64,
        /// Fraction of carried traffic dropped, in `[0, 1)`.
        loss_frac: f64,
    },
    /// The controller goes dark: switch→controller messages buffer
    /// until the matching [`SimEvent::CtrlUp`].
    CtrlDown,
    /// The controller recovers and replays buffered messages in order.
    CtrlUp,
    /// The control channel's latency is multiplied by `factor`
    /// (`factor = 1` restores the configured latency).
    CtrlLatency {
        /// Multiplier applied to `SimConfig::ctrl_latency`.
        factor: f64,
    },
    /// Periodic statistics export.
    StatsEpoch,
    /// Periodic flow-entry timeout scan.
    ExpiryScan,
    /// A packet-plane event of the hybrid co-simulation (only scheduled
    /// when packet-fidelity flows are present).
    Pkt(PktEvent),
}

// Checkpointing: the entire future event list serializes, so every
// variant needs a stable binary form. Tags are frozen — append new
// variants at the end, never renumber.
impl Snap for SimEvent {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            SimEvent::FlowArrival {
                spec,
                from_workload,
            } => {
                w.u8(0);
                spec.snap(w);
                from_workload.snap(w);
            }
            SimEvent::AdmitRetry { id } => {
                w.u8(1);
                id.snap(w);
            }
            SimEvent::Completion { id, generation } => {
                w.u8(2);
                id.snap(w);
                generation.snap(w);
            }
            SimEvent::ToController { msg, retry } => {
                w.u8(3);
                msg.as_ref().snap(w);
                retry.snap(w);
            }
            SimEvent::ToSwitch { msgs } => {
                w.u8(4);
                msgs.snap(w);
            }
            SimEvent::ControllerTimer { token } => {
                w.u8(5);
                token.snap(w);
            }
            SimEvent::CableDown(l) => {
                w.u8(6);
                l.snap(w);
            }
            SimEvent::CableUp(l) => {
                w.u8(7);
                l.snap(w);
            }
            SimEvent::SwitchDown(n) => {
                w.u8(8);
                n.snap(w);
            }
            SimEvent::SwitchUp(n) => {
                w.u8(9);
                n.snap(w);
            }
            SimEvent::GraySet {
                link,
                capacity_factor,
                loss_frac,
            } => {
                w.u8(10);
                link.snap(w);
                capacity_factor.snap(w);
                loss_frac.snap(w);
            }
            SimEvent::CtrlDown => w.u8(11),
            SimEvent::CtrlUp => w.u8(12),
            SimEvent::CtrlLatency { factor } => {
                w.u8(13);
                factor.snap(w);
            }
            SimEvent::StatsEpoch => w.u8(14),
            SimEvent::ExpiryScan => w.u8(15),
            SimEvent::Pkt(ev) => {
                w.u8(16);
                ev.snap(w);
            }
        }
    }

    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => SimEvent::FlowArrival {
                spec: Snap::unsnap(r)?,
                from_workload: Snap::unsnap(r)?,
            },
            1 => SimEvent::AdmitRetry {
                id: Snap::unsnap(r)?,
            },
            2 => SimEvent::Completion {
                id: Snap::unsnap(r)?,
                generation: Snap::unsnap(r)?,
            },
            3 => SimEvent::ToController {
                msg: Box::new(Snap::unsnap(r)?),
                retry: Snap::unsnap(r)?,
            },
            4 => SimEvent::ToSwitch {
                msgs: Snap::unsnap(r)?,
            },
            5 => SimEvent::ControllerTimer {
                token: Snap::unsnap(r)?,
            },
            6 => SimEvent::CableDown(Snap::unsnap(r)?),
            7 => SimEvent::CableUp(Snap::unsnap(r)?),
            8 => SimEvent::SwitchDown(Snap::unsnap(r)?),
            9 => SimEvent::SwitchUp(Snap::unsnap(r)?),
            10 => SimEvent::GraySet {
                link: Snap::unsnap(r)?,
                capacity_factor: Snap::unsnap(r)?,
                loss_frac: Snap::unsnap(r)?,
            },
            11 => SimEvent::CtrlDown,
            12 => SimEvent::CtrlUp,
            13 => SimEvent::CtrlLatency {
                factor: Snap::unsnap(r)?,
            },
            14 => SimEvent::StatsEpoch,
            15 => SimEvent::ExpiryScan,
            16 => SimEvent::Pkt(Snap::unsnap(r)?),
            t => {
                return Err(SnapError::new(
                    format!("bad SimEvent tag {t}"),
                    r.position(),
                ))
            }
        })
    }
}
