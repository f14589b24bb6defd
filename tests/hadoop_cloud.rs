//! The OCC-Y story (§4.5) end to end: stage a big-data corpus on the
//! Hadoop cloud, schedule with locality, run real jobs for several
//! departments under fair share, and survive a rack loss mid-workload.

use osdc_mapreduce::{
    run_fair_share, run_job, DataNodeId, Hdfs, JobSpec, TaskScheduler, BLOCK_SIZE, M45_DEPARTMENTS,
};
use osdc_sim::{SimDuration, SimTime};

/// Build the OCC-Y-shaped cluster: 4 racks × 29 nodes = 116 nodes.
fn occ_y() -> Hdfs {
    Hdfs::new(4, 29, 45)
}

#[test]
fn stage_schedule_execute() {
    let mut fs = occ_y();
    // A Common-Crawl-like corpus: 12 files × 20 blocks.
    for i in 0..12 {
        fs.create(
            &format!("/commoncrawl/segment{i}.warc"),
            20 * BLOCK_SIZE,
            DataNodeId(i * 9 % 116),
        )
        .expect("staged");
    }
    // Locality scheduling across the whole corpus.
    let sched = TaskScheduler::new(4);
    let mut total = 0usize;
    let mut local = 0usize;
    for i in 0..12 {
        let (placements, hist) = sched
            .schedule(&fs, &format!("/commoncrawl/segment{i}.warc"))
            .expect("schedules");
        total += placements.len();
        local += hist
            .get(&osdc_mapreduce::Locality::DataLocal)
            .copied()
            .unwrap_or(0);
    }
    assert_eq!(total, 240);
    assert!(
        local as f64 / total as f64 > 0.9,
        "a quiet cluster schedules ~all tasks data-local: {local}/{total}"
    );

    // The job itself (a department's crawl analytics), run for real:
    // count URL-ish tokens per domain across synthetic records.
    let records: Vec<String> = (0..2000)
        .map(|i| format!("http://site{}.edu/page{} status=200", i % 25, i))
        .collect();
    let result = run_job(
        records,
        |rec, emit| {
            if let Some(domain) = rec.split('/').nth(2) {
                emit(domain.to_string(), 1u64);
            }
        },
        |_k, vs| vs.iter().sum::<u64>(),
    );
    assert_eq!(result.output.len(), 25);
    assert_eq!(result.output.iter().map(|(_, c)| c).sum::<u64>(), 2000);
}

#[test]
fn rack_loss_mid_workload_is_survivable() {
    let mut fs = occ_y();
    fs.create("/corpus/big.warc", 100 * BLOCK_SIZE, DataNodeId(0))
        .expect("staged");
    // Rack 0 (nodes 0..29) dies.
    for n in 0..29 {
        fs.fail_node(DataNodeId(n));
    }
    assert!(
        fs.missing_blocks().is_empty(),
        "rack-aware placement keeps every block readable through a rack loss"
    );
    // Scheduling still succeeds — tasks shift to surviving replicas.
    let sched = TaskScheduler::new(4);
    let (placements, _) = sched.schedule(&fs, "/corpus/big.warc").expect("schedules");
    assert_eq!(placements.len(), 100);
    for p in &placements {
        assert!(p.node.0 >= 29, "no task lands on a dead node");
    }
}

#[test]
fn eight_departments_share_the_cluster_for_a_night() {
    // Every department submits a nightly batch at staggered times; all
    // finish, shares are recorded, and nobody waits absurdly long
    // relative to their own work size.
    let jobs: Vec<JobSpec> = M45_DEPARTMENTS
        .iter()
        .enumerate()
        .flat_map(|(i, dept)| {
            (0..2).map(move |j| JobSpec {
                tenant: dept.to_string(),
                name: format!("{dept}-night{j}"),
                tasks: 80 + 40 * (i as u32 % 3),
                task_duration: SimDuration::from_mins(6),
                submitted_at: SimTime::ZERO + SimDuration::from_mins(i as u64 * 7),
            })
        })
        .collect();
    let (outcomes, shares) = run_fair_share(116, jobs);
    assert_eq!(outcomes.len(), 16);
    assert_eq!(shares.len(), 8);
    // The night ends for everyone within the shift.
    for o in &outcomes {
        assert!(
            o.finished_at < SimTime::ZERO + SimDuration::from_hours(10),
            "{} ran past the night: {}",
            o.name,
            o.finished_at
        );
    }
}
