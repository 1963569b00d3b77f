//! Typed serving errors.

use mixmatch_quant::error::QuantError;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Everything a serving call can fail with. Admission failures
/// ([`ServeError::Overloaded`], [`ServeError::UnknownModel`],
/// [`ServeError::ShuttingDown`]) surface synchronously from
/// [`ModelServer::infer`](crate::ModelServer::infer); inference failures
/// arrive through the [`Pending`](crate::Pending) handle.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The bounded admission queue is full — the server is shedding load.
    /// From a fleet: every replica that could take the request refused it
    /// for a full queue. Back off and retry; admitted requests are
    /// unaffected.
    Overloaded {
        /// The configured queue depth that was exhausted.
        queue_depth: usize,
    },
    /// No model is registered under the requested name.
    UnknownModel {
        /// The name looked up.
        model: String,
    },
    /// The server is draining and accepts no new requests.
    ShuttingDown,
    /// The engine rejected the request (shape mismatch, plan/model
    /// disagreement, …).
    Inference(QuantError),
    /// The server dropped the reply channel without answering — only
    /// possible when the server is torn down while the request is in
    /// flight.
    Dropped,
    /// [`Pending::wait_timeout`](crate::Pending::wait_timeout) gave up
    /// before a reply arrived — the replica may have died mid-batch. The
    /// request itself may still complete server-side; its reply is
    /// discarded.
    Timeout {
        /// How long the caller waited before giving up.
        waited: Duration,
    },
    /// The wire protocol failed: a malformed/truncated frame, an oversized
    /// length prefix, an unknown verb, or a transport I/O error. The
    /// connection is unusable afterwards.
    Wire {
        /// What the codec or transport rejected.
        reason: String,
    },
    /// A remote server answered with an inference error. The structured
    /// [`QuantError`] does not cross the wire; its rendering does.
    RemoteInference {
        /// The remote error's display form.
        detail: String,
    },
    /// Every fleet replica is evicted or refused the request for a fault
    /// (not for backpressure) — the router has no placement for this model
    /// right now.
    NoReplica {
        /// The model the fleet could not place.
        model: String,
    },
    /// The model's execution plan failed static verification at load time
    /// (see `mixmatch_quant::verify`): the artifact parsed, but its IR
    /// violates an invariant the engine depends on. The server refuses to
    /// register such a model.
    Verification {
        /// The verifier report's display form (one line per diagnostic).
        report: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { queue_depth } => {
                write!(f, "server overloaded (queue depth {queue_depth} exhausted)")
            }
            ServeError::UnknownModel { model } => {
                write!(f, "no model registered under {model:?}")
            }
            ServeError::ShuttingDown => f.write_str("server is shutting down"),
            ServeError::Inference(e) => write!(f, "inference failed: {e}"),
            ServeError::Dropped => f.write_str("request dropped during server teardown"),
            ServeError::Timeout { waited } => {
                write!(f, "no reply within {:.3} s", waited.as_secs_f64())
            }
            ServeError::Wire { reason } => write!(f, "wire protocol failed: {reason}"),
            ServeError::RemoteInference { detail } => {
                write!(f, "remote inference failed: {detail}")
            }
            ServeError::NoReplica { model } => {
                write!(f, "no healthy replica can place {model:?}")
            }
            ServeError::Verification { report } => {
                write!(f, "model refused at load: {report}")
            }
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Inference(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QuantError> for ServeError {
    fn from(e: QuantError) -> Self {
        match e {
            // A verifier rejection is a load-time refusal, not a request
            // failure — keep it distinguishable for wire clients and
            // deployment tooling.
            QuantError::Verify { report } => ServeError::Verification {
                report: report.to_string(),
            },
            other => ServeError::Inference(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_carry_context() {
        let e = ServeError::Overloaded { queue_depth: 64 };
        assert!(e.to_string().contains("64"));
        assert!(e.source().is_none());
        let e = ServeError::UnknownModel {
            model: "resnet".into(),
        };
        assert!(e.to_string().contains("resnet"));
        let e: ServeError = QuantError::NoLoweredGraph.into();
        assert!(matches!(e, ServeError::Inference(_)));
        assert!(e.source().is_some());
    }
}
