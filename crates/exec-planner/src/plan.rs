//! Execution plan types.

use serde::{Deserialize, Serialize};

/// Placement/execution decision for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayerExec {
    /// Load the layer's weights to GPU memory, then execute there
    /// (the paper's "O" in Table 3).
    Load,
    /// Keep the weights in pinned host memory and execute via
    /// direct-host-access (the paper's "X"). Parameter-free layers are
    /// always `Dha` — there is nothing to load.
    Dha,
}

/// A complete inference execution plan for one model on one machine class.
///
/// Partition 0 is loaded directly to the primary GPU; partitions 1..k are
/// loaded to secondary GPUs and forwarded to the primary over NVLink
/// (paper Figure 9). Non-PT plans have exactly one partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionPlan {
    /// Model display name the plan was generated for.
    pub model: String,
    /// Batch size the profile was taken at.
    pub batch: u32,
    /// Whether execution may start before all layers are resident
    /// (`false` reproduces the non-pipelined Baseline).
    pub pipelined: bool,
    /// Per-layer decision, same order/length as the model's layers.
    pub decisions: Vec<LayerExec>,
    /// Layer indices to load, grouped by transmission slot
    /// (slot 0 = primary GPU), each in execution order.
    pub partitions: Vec<Vec<usize>>,
    /// Transmission block size: consecutive layers of a partition are
    /// coalesced into one transfer until the block reaches this many
    /// bytes (PipeSwitch groups layers this way to amortise per-transfer
    /// overhead, at the cost of coarser pipelining). `None` = one
    /// transfer per layer.
    #[serde(default)]
    pub block_bytes: Option<u64>,
}

impl ExecutionPlan {
    /// Number of GPUs the plan wants for transmission (≥ 1).
    pub fn gpu_slots(&self) -> usize {
        self.partitions.len().max(1)
    }

    /// GPU-resident bytes after a cold start under this plan.
    pub fn resident_bytes(&self, param_bytes: &[u64]) -> u64 {
        self.decisions
            .iter()
            .zip(param_bytes)
            .filter(|(d, _)| **d == LayerExec::Load)
            .map(|(_, b)| *b)
            .sum()
    }

    /// Bytes left pinned in host memory (DHA layers).
    pub fn host_bytes(&self, param_bytes: &[u64]) -> u64 {
        param_bytes.iter().sum::<u64>() - self.resident_bytes(param_bytes)
    }

    /// Serialises the plan to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("plan serialises")
    }

    /// Parses a plan from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_plan() -> ExecutionPlan {
        ExecutionPlan {
            model: "toy".into(),
            batch: 1,
            pipelined: true,
            decisions: vec![LayerExec::Dha, LayerExec::Load, LayerExec::Load],
            partitions: vec![vec![1], vec![2]],
            block_bytes: None,
        }
    }

    #[test]
    fn byte_accounting() {
        let p = toy_plan();
        let bytes = [100, 200, 300];
        assert_eq!(p.resident_bytes(&bytes), 500);
        assert_eq!(p.host_bytes(&bytes), 100);
        assert_eq!(p.gpu_slots(), 2);
    }

    #[test]
    fn json_roundtrip() {
        let p = toy_plan();
        let back = ExecutionPlan::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
    }
}
