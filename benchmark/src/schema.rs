//! The metric tables: every name the benchmark reports, with its unit, its
//! better direction and, for end-to-end metrics, the regression bound.
//! `BENCHMARK.json` at the repo root repeats these tables for the driver; a
//! unit test keeps the two equal.

use crate::stats::Metrics;

/// The six workloads and why each is there.
pub const WORKLOADS: [(&str, &str); 6] = [
    ("pay_hot", "live reactor runtime on one CPU, 2 nodes, one hot channel: submit handshake, scheduler wake-ups, framing and loopback TCP cost 2-4x the protocol's own CPU here, so transport and scheduler work shows"),
    ("pay_mesh", "same runtime, 200 nodes, 100 disjoint channels at depth about 1: many connections and run-queue entries, so batching that wins on pay_hot but costs here is caught"),
    ("sim_pay", "simulator, 2 nodes, free costs, ideal links: enclave, session AEAD, codec and engine with no transport, scheduler or WAL; the single-node-style baseline"),
    ("sim_repl", "simulator with committee-chain replication, 2 backups per node: the paper's headline mechanism; replication turns are about 4/5 of the work"),
    ("sim_wal", "simulator with the WAL and sealed-snapshot store, then crash and recover the payee: persist and sealing do the extra work here and nowhere else"),
    ("sim_multihop", "simulator, 4-node line, 3-hop payments in bursts of 8: about 8 Schnorr operations per payment dominate, and the bursts queue in core.admit"),
];

/// `(name, unit, better, bound)`: what a user of the system sees. The bound
/// is the share of the parent's median by which the metric may worsen.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("tx_s", "1/s", "higher", 0.25),
    ("cpu_us_per_tx", "us", "lower", 0.25),
    ("lat_p50_ms", "ms", "lower", 0.25),
    ("rss_peak_mb", "MiB", "lower", 0.2),
];

/// `(name, unit, better)`: single layers, probes and diagnostics.
pub const PER_LAYER: [(&str, &str, &str); 75] = [
    // Direct probes.
    ("crypto.sha256_256B_ns", "ns", "lower"),
    ("crypto.aead_seal_128B_ns", "ns", "lower"),
    ("crypto.aead_open_128B_ns", "ns", "lower"),
    ("crypto.schnorr_sign_ns", "ns", "lower"),
    ("crypto.schnorr_verify_ns", "ns", "lower"),
    ("core.session.seal_pay_ns", "ns", "lower"),
    ("core.session.open_pay_ns", "ns", "lower"),
    ("util.codec.encode_pay_ns", "ns", "lower"),
    ("util.codec.decode_pay_ns", "ns", "lower"),
    ("persist.wal_frame_256B_ns", "ns", "lower"),
    ("persist.append_commit_256B_ns", "ns", "lower"),
    ("persist.scan_ns_per_record", "ns", "lower"),
    ("persist.recover_ns_per_record", "ns", "lower"),
    ("net.live.thread_rtt_ns", "ns", "lower"),
    ("net.live.tcp_rtt_ns", "ns", "lower"),
    ("net.live.reactor_rtt_ns", "ns", "lower"),
    ("net.live.reactor_stream_msgs_s", "1/s", "higher"),
    ("blockchain.validate_p2pk_ns", "ns", "lower"),
    ("net.engine.ns_per_event", "ns", "lower"),
    // Hand-cranked node turns.
    ("core.node.pay_submit_turn_ns", "ns", "lower"),
    ("core.node.pay_deliver_turn_ns", "ns", "lower"),
    ("core.node.pay_ack_turn_ns", "ns", "lower"),
    ("core.node.pay.turn_ns_per_tx", "ns", "lower"),
    ("core.node.pay.turns_per_tx", "count", "lower"),
    ("core.node.repl.turn_ns_per_tx", "ns", "lower"),
    ("core.node.repl.turns_per_tx", "count", "lower"),
    ("core.node.wal.turn_ns_per_tx", "ns", "lower"),
    ("core.node.wal.turns_per_tx", "count", "lower"),
    ("core.node.multihop.turn_ns_per_tx", "ns", "lower"),
    ("core.node.multihop.turns_per_tx", "count", "lower"),
    // Exact counts per successful operation (simulator workloads).
    ("net.engine.events_per_tx", "count", "lower"),
    ("net.engine.msgs_per_tx", "count", "lower"),
    ("net.engine.bytes_per_tx", "B", "lower"),
    ("persist.commits_per_tx", "count", "lower"),
    ("persist.wal_bytes_per_tx", "B", "lower"),
    ("persist.snapshot_bytes_per_tx", "B", "lower"),
    ("persist.recover_ms", "ms", "lower"),
    ("core.admit.enqueued_per_tx", "count", "lower"),
    ("core.admit.batches", "count", "lower"),
    ("core.admit.max_batch", "count", "higher"),
    ("core.admit.queue_depth_hwm", "count", "lower"),
    // The live runtime, from its counters and from spans around calls into it.
    ("core.live.msgs_per_tx", "count", "lower"),
    ("core.live.bytes_per_tx", "B", "lower"),
    ("core.live.runtime_threads", "count", "lower"),
    ("core.live.submit_ns_p50", "ns", "lower"),
    ("core.live.take_completions_ns_p50", "ns", "lower"),
    // The generator and its diagnostics (live workloads).
    ("gen.late_p50_ms", "ms", "lower"),
    ("gen.late_p99_ms", "ms", "lower"),
    ("gen.lat_p99_ms", "ms", "lower"),
    ("gen.lat_p999_ms", "ms", "lower"),
    ("gen.lat_samples", "count", "higher"),
    ("gen.runs", "count", "higher"),
    ("gen.runs_valid", "count", "higher"),
    ("gen.rate_low.lat_p50_ms", "ms", "lower"),
    ("gen.rate_ref.lat_p50_ms", "ms", "lower"),
    ("gen.rate_high.lat_p50_ms", "ms", "lower"),
    ("gen.rate_ok_tx_s", "1/s", "higher"),
    ("gen.tx_s_upper_quartile", "1/s", "higher"),
    ("gen.tx_s_median", "1/s", "higher"),
    ("gen.tx_s_min", "1/s", "higher"),
    ("gen.tx_s_max", "1/s", "higher"),
    // The traced pass.
    ("seg.due_to_submit_ns", "ns", "lower"),
    ("seg.submit_to_send_ns", "ns", "lower"),
    ("seg.wire_out_ns", "ns", "lower"),
    ("seg.payee_turn_ns", "ns", "lower"),
    ("seg.wire_back_ns", "ns", "lower"),
    ("seg.ack_to_complete_ns", "ns", "lower"),
    ("trace.lat_p50_ms", "ms", "lower"),
    ("trace.paths_per_tx", "count", "higher"),
    ("trace.events_per_tx", "count", "lower"),
    ("trace.dropped", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    // The host.
    ("host.calib_ns", "ns", "lower"),
    ("host.calib_drift_pct", "%", "lower"),
    ("host.nproc", "count", "higher"),
];

/// The unit of a reported metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|m| m.0 == name)
        .map(|m| m.1)
}

/// A per-layer metric whose layer is not on the workload's path reads 0:
/// the simulator workloads have no live runtime or generator, the live ones
/// no engine or store. The driver wants every name from every workload.
pub fn fill_not_applicable(m: &mut Metrics) {
    for (name, _, _) in PER_LAYER {
        if m.get(name).is_none() {
            m.put(name, 0.0);
        }
    }
}

/// The untraced pass reports exactly the end-to-end metrics, the traced pass
/// exactly the per-layer ones, all finite.
pub fn check_reported(m: &Metrics, traced: bool) -> Result<(), String> {
    let want: Vec<&str> = if traced {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    for name in &want {
        match m.get(name) {
            None => return Err(format!("metric {name} was not reported")),
            Some(v) if !v.is_finite() => return Err(format!("metric {name} is {v}")),
            Some(_) => {}
        }
    }
    match m.0.keys().find(|k| !want.contains(&k.as_str())) {
        Some(extra) => Err(format!("metric {extra} is not in the schema")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::stats::valid_metric_name;

    #[test]
    fn names_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        for n in &names {
            assert!(valid_metric_name(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
    }

    /// `BENCHMARK.json` is what the driver reads; it must say what this file
    /// says.
    #[test]
    fn benchmark_json_matches() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();
        let list = |k: &str| doc.get(k).and_then(Json::as_arr).unwrap().to_vec();
        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.0.to_string(), w.1.to_string()))
            .collect();
        assert_eq!(workloads, want);
        let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let want: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), m.2.to_string(), m.3))
            .collect();
        assert_eq!(e2e, want);
        let layers: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let want: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), m.2.to_string()))
            .collect();
        assert_eq!(layers, want);
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|m| m.0.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
