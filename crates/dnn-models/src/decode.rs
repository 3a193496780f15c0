//! Autoregressive decode profile: KV-cache footprint and per-token step
//! cost for decoder models.
//!
//! One decode step processes a single new token per request: every
//! weight matrix is read once from device memory (batch-shared), the
//! request's accumulated KV is read for attention, and the new token's
//! KV is appended. At batch sizes serving cares about the step is
//! memory-bandwidth-bound, so the cost model is a roofline over bytes
//! moved — the same modelling style as the one-shot cost model, applied
//! per token instead of per sequence.

use crate::layer::LayerKind;
use crate::model::{Model, ModelFamily};

/// Decode-relevant shape of a decoder model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeProfile {
    /// Attention blocks (one KV pair each).
    pub blocks: u64,
    /// Model hidden dimension.
    pub hidden: u64,
    /// KV bytes appended per generated/prefilled token: `blocks × 2 ×
    /// hidden × 4` (FP32 key + value per block).
    pub kv_bytes_per_token: u64,
    /// Total parameter bytes a step reads from device memory.
    pub weight_bytes: u64,
}

/// Extracts the decode profile of a model, or `None` for non-decoder
/// families (encoders and CNNs do not generate autoregressively).
pub fn profile(model: &Model) -> Option<DecodeProfile> {
    if model.family != ModelFamily::Decoder {
        return None;
    }
    let mut blocks = 0u64;
    let mut hidden = 0u64;
    for l in &model.layers {
        if let LayerKind::Attention { dim, .. } = l.kind {
            blocks += 1;
            hidden = dim;
        }
    }
    if blocks == 0 || hidden == 0 {
        return None;
    }
    Some(DecodeProfile {
        blocks,
        hidden,
        kv_bytes_per_token: blocks * 2 * hidden * 4,
        weight_bytes: model.param_bytes(),
    })
}

impl DecodeProfile {
    /// KV bytes a request with `tokens` processed tokens occupies.
    pub fn kv_bytes(&self, tokens: u64) -> u64 {
        tokens * self.kv_bytes_per_token
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{build, ModelId};

    #[test]
    fn gpt2_kv_footprint_matches_architecture() {
        let p = profile(&build(ModelId::Gpt2)).unwrap();
        assert_eq!(p.blocks, 12);
        assert_eq!(p.hidden, 768);
        // 12 blocks × 2 tensors × 768 dims × 4 bytes = 72 KiB per token.
        assert_eq!(p.kv_bytes_per_token, 73_728);
        assert_eq!(p.kv_bytes(100), 7_372_800);
    }

    #[test]
    fn gpt2_medium_scales_up() {
        let s = profile(&build(ModelId::Gpt2)).unwrap();
        let m = profile(&build(ModelId::Gpt2Medium)).unwrap();
        assert_eq!(m.blocks, 24);
        assert_eq!(m.hidden, 1024);
        assert!(m.kv_bytes_per_token > 2 * s.kv_bytes_per_token);
        assert!(m.weight_bytes > 2 * s.weight_bytes);
    }

    #[test]
    fn encoders_and_cnns_have_no_decode_profile() {
        assert!(profile(&build(ModelId::BertBase)).is_none());
        assert!(profile(&build(ModelId::ResNet50)).is_none());
    }
}
