//! Workload generators.

pub mod decode;
pub mod maf;
pub mod poisson;

use simcore::time::SimTime;

/// One inference request in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Arrival time.
    pub at: SimTime,
    /// Target instance id.
    pub instance: usize,
    /// Scheduling priority for graceful degradation: higher survives
    /// longer when capacity drops. Generators emit 0 (best effort).
    pub priority: u8,
    /// Prompt length in tokens. 0 means "one-shot" (the model's default
    /// sequence length; no decode loop).
    pub prompt_tokens: u32,
    /// Output tokens to generate. 0 or 1 means one-shot: the prefill
    /// result *is* the response. Values above 1 stream tokens through
    /// the decode batch when the server's decode policy is enabled.
    pub output_tokens: u32,
}

impl Request {
    /// A best-effort (priority 0) one-shot request.
    pub fn new(at: SimTime, instance: usize) -> Self {
        Request {
            at,
            instance,
            priority: 0,
            prompt_tokens: 0,
            output_tokens: 0,
        }
    }
}
