//! Numeric anchors from the paper's text, asserted against the calibrated
//! simulation. Tolerances are generous — this is a shape reproduction —
//! but each anchor pins a quantity the paper states explicitly.

use deepplan::{DeepPlan, ModelId, PlanMode};
use dnn_models::costmodel::CostModel;
use dnn_models::zoo::build;
use gpu_topology::device::v100;
use gpu_topology::presets::{p3_8xlarge, single_v100};
use layer_profiler::profiler::Profiler;

fn speedup(id: ModelId, over: PlanMode, of: PlanMode) -> f64 {
    let dp = DeepPlan::new(p3_8xlarge()).with_exact_profile();
    let a = dp.plan_mode(id, 1, over).simulate_cold(0).latency();
    let b = dp.plan_mode(id, 1, of).simulate_cold(0).latency();
    a.as_secs_f64() / b.as_secs_f64()
}

#[test]
fn intro_anchor_bert_base_load_and_warm_times() {
    // §1: "loading a BERT-Base model takes 40ms ... while a single
    // inference on the model cached in the GPU memory is complete within
    // 9.35ms for NVIDIA V100".
    let model = build(ModelId::BertBase);
    let (profile, _) = Profiler::exact(v100()).profile(&model, 1);
    let load_ms = profile.load_total().as_ms_f64();
    let warm_ms = profile.exec_inmem_total().as_ms_f64();
    assert!((32.0..46.0).contains(&load_ms), "load {load_ms:.1} ms");
    assert!((7.5..11.5).contains(&warm_ms), "warm {warm_ms:.1} ms");
}

#[test]
fn intro_anchor_bert_base_speedup_1_94x() {
    // §1/§5.2: "a 1.94x speedup compared with the state-of-the-art
    // pipelining approach for BERT-Base".
    let s = speedup(ModelId::BertBase, PlanMode::PipeSwitch, PlanMode::PtDha);
    assert!((1.75..2.15).contains(&s), "speedup {s:.2}");
}

#[test]
fn abstract_anchor_speedup_range_1_18_to_2_21() {
    // §1: "the other models ... show a speedup of around 1.18~2.21x".
    for id in dnn_models::zoo::catalog() {
        let s = speedup(id, PlanMode::PipeSwitch, PlanMode::PtDha);
        assert!((1.05..2.4).contains(&s), "{id}: speedup {s:.2}");
    }
}

#[test]
fn sec31_anchor_bert_word_embedding_89_42_mib() {
    // §3.1: the BERT-Base word embedding is 89.42 MB of 417 MB.
    let model = build(ModelId::BertBase);
    let emb = &model.layers[0];
    let emb_mib = emb.param_bytes() as f64 / (1 << 20) as f64;
    let total_mib = model.param_bytes() as f64 / (1 << 20) as f64;
    assert!((emb_mib - 89.42).abs() < 0.5, "embedding {emb_mib:.2} MiB");
    assert!((total_mib - 417.0).abs() < 10.0, "total {total_mib:.1} MiB");
}

#[test]
fn table1_anchor_fc_dha_reuse_12x() {
    // Table 1: FC small — 36,920 load vs 446,276 DHA transactions.
    let cm = CostModel::new(v100());
    let model = build(ModelId::BertBase);
    let fc = model
        .layers
        .iter()
        .find(|l| l.name == "h0.attn.q")
        .expect("q projection");
    let ratio = cm.pcie_txn_dha(fc, 1) as f64 / cm.pcie_txn_load(fc) as f64;
    assert!((11.5..12.5).contains(&ratio), "ratio {ratio:.2}");
}

#[test]
fn sec32_anchor_parallel_halves_transformer_load_time() {
    // §3.2: parallel-pipeline cuts transformer model loading "by almost
    // half"; ResNet by about 40 %.
    use bench::experiments::fig06::measure;
    let bert_serial = measure(ModelId::BertBase, 0).0;
    let bert_pipe = measure(ModelId::BertBase, 2).0;
    let r = bert_pipe / bert_serial;
    assert!((0.4..0.62).contains(&r), "BERT ratio {r:.2}");
    let rn_serial = measure(ModelId::ResNet50, 0).0;
    let rn_pipe = measure(ModelId::ResNet50, 2).0;
    let r = rn_pipe / rn_serial;
    assert!((0.45..0.75).contains(&r), "ResNet ratio {r:.2}");
}

#[test]
fn fig2_anchor_stall_fractions() {
    // Figure 2: BERT/RoBERTa stall 73–75 %, ResNet/GPT 27–37 % (we land
    // in wider bands but preserve the ordering).
    let dp = DeepPlan::new(single_v100()).with_exact_profile();
    let frac = |id: ModelId| {
        dp.plan_mode(id, 1, PlanMode::PipeSwitch)
            .simulate_cold(0)
            .stall_fraction()
    };
    assert!(frac(ModelId::BertBase) > 0.65);
    assert!(frac(ModelId::RobertaLarge) > 0.6);
    assert!(frac(ModelId::ResNet50) < 0.45);
    assert!(frac(ModelId::Gpt2) < 0.55);
}

#[test]
fn table4_anchor_interference_tolerable() {
    // Table 4: PT+DHA under mutual interference stays below PipeSwitch.
    use bench::experiments::table4::measure;
    for id in [ModelId::BertBase, ModelId::BertLarge] {
        let (ps, one, two) = measure(id);
        assert!(one < two || (two - one).abs() < 0.5, "{id}");
        assert!(two < ps, "{id}: interfered {two:.2} !< PipeSwitch {ps:.2}");
    }
}

#[test]
fn table2_anchor_same_switch_gpus_halve_host_bandwidth() {
    // Table 2 / §2.2: on a p3.8xlarge, two GPUs under the same PCIe
    // switch contend for the shared host uplink — each sees roughly
    // half its solo host-to-GPU bandwidth (the paper measures the
    // aggregate staying just above a single GPU's 12 GB/s), while GPUs
    // under different switches keep full bandwidth.
    use gpu_topology::netmap::NetMap;
    use gpu_topology::presets::p3_8xlarge;

    let machine = p3_8xlarge();
    let solo = {
        let (mut net, map) = NetMap::build(&machine).expect("valid topology");
        let f = net.add_flow(1e12, &map.host_path(&machine, 0));
        net.flow_rate(f).unwrap()
    };

    // GPUs 0 and 1 share a switch on this machine.
    assert_eq!(machine.switch_of(0), machine.switch_of(1));
    let (mut net, map) = NetMap::build(&machine).expect("valid topology");
    let a = net.add_flow(1e12, &map.host_path(&machine, 0));
    let b = net.add_flow(1e12, &map.host_path(&machine, 1));
    let (ra, rb) = (net.flow_rate(a).unwrap(), net.flow_rate(b).unwrap());
    assert!((ra - rb).abs() < 1e-3, "fair split expected: {ra} vs {rb}");
    let frac = ra / solo;
    assert!(
        (0.5..0.6).contains(&frac),
        "same-switch share {frac:.3} of solo ({ra:.3e} vs {solo:.3e}); Table 2 expects ~half"
    );

    // Different switches: no shared uplink, full solo bandwidth each.
    assert_ne!(machine.switch_of(0), machine.switch_of(2));
    let (mut net, map) = NetMap::build(&machine).expect("valid topology");
    let a = net.add_flow(1e12, &map.host_path(&machine, 0));
    let c = net.add_flow(1e12, &map.host_path(&machine, 2));
    for f in [a, c] {
        let r = net.flow_rate(f).unwrap();
        assert!(
            (r - solo).abs() / solo < 1e-6,
            "cross-switch flow throttled: {r:.3e} vs solo {solo:.3e}"
        );
    }
}
