//! The metric catalogue: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` at the repository root lists the same names; the
//! smoke test keeps the two in step.

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("pass_ms_p50", "ms"),
    ("jobs_per_s", "1/s"),
    ("peak_live_mb", "MB"),
];

/// Per-layer metrics besides the per-harness ones. Every traced run
/// prints all of them; a workload that makes no call into a layer
/// reports 0 for it. A `<span>.ms` metric is the per-pass self time of
/// the spans named `<span>`.
const LAYERS: [(&str, &str); 38] = [
    ("manifest.diff.ms", "ms/pass"),
    ("transfer.sync_initial.ms", "ms/pass"),
    ("transfer.sync_resync.ms", "ms/pass"),
    ("transfer.file_list.ms", "ms/pass"),
    ("transfer.plan_sync.ms", "ms/pass"),
    ("transfer.signatures.ms", "ms/pass"),
    ("transfer.delta_scan.ms", "ms/pass"),
    ("transfer.apply_delta.ms", "ms/pass"),
    ("crypto.blowfish_ctr.ms", "ms/pass"),
    ("crypto.tdes_ctr.ms", "ms/pass"),
    ("net.engine_run.ms", "ms/pass"),
    ("transfer.replay_cover", "ratio"),
    ("transfer.wire_bytes", "B"),
    ("transfer.literal_bytes", "B"),
    ("crypto.bytes", "B"),
    ("tukey.billing.intern.ms", "ms/pass"),
    ("tukey.billing.record.ms", "ms/pass"),
    ("tukey.billing.close.ms", "ms/pass"),
    ("monitor.setup.ms", "ms/pass"),
    ("monitor.tick.ms", "ms/pass"),
    ("tenant.bytes_per_tenant", "B"),
    ("billing.deltas", "count"),
    ("billing.invoices", "count"),
    ("monitor.notifications", "count"),
    ("chaos.campaign.ms", "ms/pass"),
    ("sharing.cell.ms", "ms/pass"),
    ("sharing.run_for.ms", "ms/pass"),
    ("sharing.churn.ms", "ms/pass"),
    ("sharing.safety.ms", "ms/pass"),
    ("sharing.quiesce.ms", "ms/pass"),
    ("sharing.report.ms", "ms/pass"),
    ("chaos.faults_injected", "count"),
    ("chaos.data_loss_incidents", "count"),
    ("sharing.messages_delivered", "count"),
    ("runner.speedup_j2", "ratio"),
    ("runner.idle_share", "ratio"),
    ("unattributed_share", "ratio"),
    ("telemetry.trace_overhead", "ratio"),
];

/// Every per-layer metric name with its unit, in output order: one
/// `harness.<name>.ms` per registered harness, then the layer table.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let harnesses = osdc_bench::harness::REGISTRY
        .iter()
        .map(|spec| (format!("harness.{}.ms", spec.name), "ms/pass"));
    let layers = LAYERS.iter().map(|&(name, unit)| (name.to_string(), unit));
    harnesses.chain(layers).collect()
}
