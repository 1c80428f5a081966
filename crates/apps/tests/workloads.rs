//! End-to-end workload runs — the §6.2 methodology at test scale: golden
//! results, image sizes, clock virtualization, and what a cut must get
//! right beyond the result (the send-queue merge's byte accounting, UDP,
//! snapshots racing POV-Ray's endgame). That a cut at a random point leaves
//! each workload's result unchanged is the transparency oracle's check
//! (`tests/oracle.rs` at the repository root).

use std::time::Duration;
use zapc::manager::CheckpointTarget;
use zapc::{checkpoint, migrate, migrate_live_with, Cluster, MigrateOptions};
use zapc_apps::launch::{full_registry, launch_app, AppKind, AppParams};
use zapc_apps::udpapps;
use zapc_obs::Observer;

const TIMEOUT: Duration = Duration::from_secs(120);

fn cluster(nodes: usize) -> Cluster {
    Cluster::builder().nodes(nodes).registry(full_registry()).build()
}

fn small_params(kind: AppKind, ranks: usize) -> AppParams {
    AppParams { kind, ranks, scale: 0.02, work: 0.25 }
}

// Golden results: the result text and exit codes of `small_params` runs,
// recomputed (and identical over two runs) on the code before the
// middleware and the CPI/BT/Bratu rank phases were folded into `comm::Link`
// and `comm::Rank`. Any change to the traffic or the arithmetic moves them.

/// Runs `kind` on `ranks` ranks over `nodes` nodes; returns rank 0's result
/// file and every rank's exit code.
fn golden_run(kind: AppKind, ranks: usize, nodes: usize, file: &str) -> (String, Vec<i32>) {
    let c = cluster(nodes);
    let app = launch_app(&c, "g", &small_params(kind, ranks));
    let codes = app.wait(&c, TIMEOUT).unwrap();
    let text = String::from_utf8(c.fs.read(&format!("/pods/g-0/{file}")).unwrap()).unwrap();
    app.destroy(&c);
    (text, codes)
}

#[test]
fn cpi_runs_and_converges() {
    let (pi_txt, codes) = golden_run(AppKind::Cpi, 4, 2, "pi.txt");
    // Every rank derives its code from the same all-reduced π.
    assert_eq!(codes, [98; 4]);
    assert_eq!(pi_txt, "3.141592653598");
    // And the recorded π is correct.
    let pi: f64 = pi_txt.parse().unwrap();
    assert!((pi - std::f64::consts::PI).abs() < 1e-6, "π = {pi}");
}

#[test]
fn bt_runs_with_heavy_halo_exchange() {
    let (residual, codes) = golden_run(AppKind::Bt, 4, 2, "bt-residual.txt");
    assert_eq!(codes, [132; 4], "ranks agree");
    assert_eq!(residual, "0.976773865");
}

#[test]
fn bratu_result_is_partition_independent() {
    // Jacobi iteration: the same answer for any rank count.
    let solo = golden_run(AppKind::Bratu, 1, 1, "bratu-norm.txt");
    let quad = golden_run(AppKind::Bratu, 4, 2, "bratu-norm.txt");
    assert_eq!(solo, ("0.137002043".to_string(), vec![62]));
    assert_eq!(quad, ("0.137002043".to_string(), vec![62; 4]), "Bratu is partition-independent");
}

#[test]
fn povray_hash_matches_serial_render() {
    let c = cluster(2);
    let p = small_params(AppKind::Povray, 3);
    let app = launch_app(&c, "pov", &p);
    let codes = app.wait(&c, TIMEOUT).unwrap();
    let cfg = zapc_apps::launch::pov_config(&p);
    let expected = zapc_apps::povray::exit_code_for(zapc_apps::povray::expected_hash(&cfg));
    assert_eq!(codes[0], expected, "farmed render equals serial render");
    app.destroy(&c);
}

#[test]
fn bt_survives_migration_with_sendq_merge() {
    // The §5 send-queue merge optimization must be invisible to the
    // application: identical results. Whether an established connection
    // holds unacked bytes at the cut is host timing, so attempts repeat
    // until one catches queued data and the merge moves it; the result is
    // asserted on every attempt. On that attempt no byte travels twice:
    // what the restore re-sends plus what rode in the peers' images is at
    // most the send queues saved at the cut (a merge that appended to the
    // peer but left the sender's queue would count those bytes twice).
    // The counters are final once the migration returns, so the byte
    // count is checked before the run ends: a double transfer then fails
    // as one, not as the corrupted result or hung rank it goes on to cause.
    let params = AppParams { work: 8.0, ..small_params(AppKind::Bt, 4) };
    let expected = {
        let c = cluster(4);
        let app = launch_app(&c, "app", &params);
        let codes = app.wait(&c, TIMEOUT).unwrap();
        app.destroy(&c);
        codes
    };
    let opts = MigrateOptions { max_rounds: 0, sendq_merge: true, ..Default::default() };
    let mut moved = 0;
    for _ in 0..10 {
        let (obs, ring) = Observer::ring(1 << 16);
        let c = Cluster::builder().nodes(4).registry(full_registry()).observer(obs).build();
        let app = launch_app(&c, "app", &params);
        std::thread::sleep(Duration::from_millis(5));
        let moves: Vec<(String, usize)> =
            app.pods.iter().enumerate().map(|(i, p)| (p.clone(), (i + 1) % 4)).collect();
        migrate_live_with(&c, &moves, &opts).unwrap();
        moved = ring.counter_sum("mig.merged_bytes");
        if moved > 0 {
            let (resent, saved) =
                (ring.counter_sum("netckpt.resend_bytes"), ring.counter_sum("netckpt.send_bytes"));
            assert!(
                resent + moved <= saved,
                "{resent} B re-sent + {moved} B merged > {saved} B saved in send queues"
            );
        }
        let got = app.wait(&c, TIMEOUT).unwrap();
        app.destroy(&c);
        assert_eq!(got, expected);
        if moved > 0 {
            break;
        }
    }
    assert!(moved > 0, "no attempt caught a send queue to merge");
}

#[test]
fn image_sizes_follow_the_paper_shape() {
    // Figure 6c at miniature scale: CPI/Bratu shrink with more ranks;
    // network state is tiny compared to the application data.
    let sizes: Vec<usize> = [1usize, 4]
        .iter()
        .map(|&ranks| {
            let c = cluster(2);
            let p = AppParams { kind: AppKind::Cpi, ranks, scale: 0.5, work: 4.0 };
            let app = launch_app(&c, "cpi", &p);
            std::thread::sleep(Duration::from_millis(40));
            let targets: Vec<CheckpointTarget> =
                app.pods.iter().map(|q| CheckpointTarget::snapshot(q)).collect();
            let report = checkpoint(&c, &targets).unwrap();
            let max_img = report.pods.iter().map(|q| q.image_bytes).max().unwrap();
            for q in &report.pods {
                assert!(
                    q.network_bytes * 10 < q.image_bytes,
                    "application data dominates: {} net vs {} total",
                    q.network_bytes,
                    q.image_bytes
                );
            }
            app.destroy(&c);
            max_img
        })
        .collect();
    assert!(
        sizes[1] < sizes[0],
        "largest-pod image shrinks with more ranks: {} -> {}",
        sizes[0],
        sizes[1]
    );
}

#[test]
fn heartbeat_timeout_virtualization() {
    // §5: with time virtualization the downtime is invisible; the monitor
    // sees no false alarms even though the pods were frozen ~200 ms.
    let c = cluster(2);
    let sender_pod = c.create_pod("hb-send", 0);
    let monitor_pod = c.create_pod("hb-mon", 1);
    sender_pod.spawn(
        "sender",
        Box::new(udpapps::HeartbeatSender::new(monitor_pod.vip(), 5, 40)),
    );
    monitor_pod.spawn("monitor", Box::new(udpapps::HeartbeatMonitor::new(100, 40)));

    std::thread::sleep(Duration::from_millis(40));
    // Freeze both pods (checkpoint-like) for well over the threshold.
    sender_pod.suspend().unwrap();
    monitor_pod.suspend().unwrap();
    let bias_start = c.clock.now_ms();
    std::thread::sleep(Duration::from_millis(250));
    // Apply the §5 delta to both virtual clocks, as a restart would.
    let now = c.clock.now_ms();
    sender_pod.env.vclock.apply_restart_delta(sender_pod.env.vclock.bias_ms(), bias_start, now);
    monitor_pod.env.vclock.apply_restart_delta(monitor_pod.env.vclock.bias_ms(), bias_start, now);
    sender_pod.resume().unwrap();
    monitor_pod.resume().unwrap();

    let false_alarms = monitor_pod.wait_all(TIMEOUT).unwrap()[0];
    assert_eq!(false_alarms, 0, "virtualized clock hides the freeze");
    sender_pod.destroy();
    monitor_pod.destroy();
}

#[test]
fn rudp_transfer_survives_migration() {
    let c = cluster(3);
    let tx_pod = c.create_pod("rudp-tx", 0);
    let rx_pod = c.create_pod("rudp-rx", 1);
    let chunks = 60u64;
    let chunk_len = 400usize;
    tx_pod.spawn("tx", Box::new(udpapps::RudpSender::new(rx_pod.vip(), chunks, chunk_len)));
    rx_pod.spawn("rx", Box::new(udpapps::RudpReceiver::new(chunks)));

    std::thread::sleep(Duration::from_millis(50));
    migrate(&c, &[("rudp-tx".into(), 2), ("rudp-rx".into(), 0)]).unwrap();

    let rx = c.pod("rudp-rx").unwrap();
    let code = rx.wait_all(TIMEOUT).unwrap()[0];
    let expected = udpapps::RudpReceiver::exit_code_for(
        udpapps::RudpReceiver::expected_checksum(chunks, chunk_len),
    );
    assert_eq!(code, expected, "byte-exact transfer across migration");
    c.destroy_pod("rudp-tx");
    c.destroy_pod("rudp-rx");
}

#[test]
fn povray_snapshot_stress() {
    // Mirrors the fig6a harness at quick scale: many back-to-back
    // snapshots racing the farm's endgame.
    for round in 0..15 {
        let c = cluster(4);
        let p = AppParams { kind: AppKind::Povray, ranks: 4, scale: 0.05, work: 0.5 };
        let app = launch_app(&c, "povx", &p);
        let targets: Vec<CheckpointTarget> =
            app.pods.iter().map(|q| CheckpointTarget::snapshot(q)).collect();
        for i in 0..10 {
            if i > 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
            if i > 0 && app.all_exited(&c) {
                break;
            }
            checkpoint(&c, &targets).unwrap();
        }
        app.wait(&c, Duration::from_secs(20))
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        app.destroy(&c);
    }
}
