//! The wire edge blocks on readiness: an idle edge thread sleeps in
//! `epoll_wait` without a timeout, and shutdown wakes it through its
//! eventfd. Kept in its own test binary so that no other test's
//! `cfm-edge` thread shares the process while the thread is sampled.
#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use conflict_free_memory::core::config::CfmConfig;
use conflict_free_memory::serve::{EdgeConfig, Service, ServiceConfig, TenantSpec};

fn service() -> Arc<Service> {
    let machine = CfmConfig::new(4, 1, 16).unwrap();
    Arc::new(
        Service::start(ServiceConfig::new(machine, 32).with_tenant(TenantSpec::new("idle")))
            .unwrap(),
    )
}

/// `/proc/self/task/<tid>` of the one thread named `cfm-edge`.
fn edge_task() -> std::path::PathBuf {
    let tasks: Vec<_> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            std::fs::read_to_string(p.join("comm")).is_ok_and(|c| c.trim_end() == "cfm-edge")
        })
        .collect();
    assert_eq!(tasks.len(), 1, "exactly one edge thread: {tasks:?}");
    tasks.into_iter().next().unwrap()
}

fn voluntary_switches(task: &std::path::Path) -> u64 {
    let status = std::fs::read_to_string(task.join("status")).unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .expect("status lists voluntary_ctxt_switches")
        .trim()
        .parse()
        .unwrap()
}

/// Over 200 ms of idleness the edge thread wakes a handful of times at
/// most — a 100 µs sleep-and-poll loop would wake about two thousand
/// times — and both shutdown paths wake the blocked thread promptly.
#[test]
fn idle_edge_costs_nothing_and_stops_promptly() {
    let service = service();
    let edge = service.serve_edge(EdgeConfig::default()).unwrap();
    // Let the thread reach its first epoll_wait.
    thread::sleep(Duration::from_millis(20));
    let task = edge_task();
    let before = voluntary_switches(&task);
    thread::sleep(Duration::from_millis(200));
    let woke = voluntary_switches(&task) - before;
    assert!(woke <= 5, "idle edge woke {woke} times in 200 ms");

    let start = Instant::now();
    edge.shutdown();
    let took = start.elapsed();
    assert!(took < Duration::from_millis(250), "shutdown took {took:?}");

    let edge = service.serve_edge(EdgeConfig::default()).unwrap();
    thread::sleep(Duration::from_millis(20));
    let start = Instant::now();
    drop(edge);
    let took = start.elapsed();
    assert!(took < Duration::from_millis(250), "drop took {took:?}");
}
