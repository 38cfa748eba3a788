//! The wire edge has no thread of its own: the service's event loop
//! serves it, and an idle loop with an edge attached blocks in
//! `epoll_wait` without a timeout once its short idle spin is over.
//! In-process submits, drain, and both edge shutdown paths wake it
//! there through its eventfd. Kept in its own test binary, with its
//! tests run one at a time, so that no other service's `cfm-serve-loop`
//! thread runs while the thread is sampled. A joined loop thread's
//! `/proc/self/task` entry can outlive the join, so each test lists the
//! loop threads before it starts its service and samples only the new
//! one.
#![cfg(target_os = "linux")]

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use conflict_free_memory::core::config::CfmConfig;
use conflict_free_memory::core::op::Operation;
use conflict_free_memory::serve::{EdgeConfig, EdgeHandle, Service, ServiceConfig, TenantSpec};

/// One test at a time: each counts the process's threads.
static SERIAL: Mutex<()> = Mutex::new(());

/// A started service and its event-loop thread's task.
fn service() -> (Service, PathBuf) {
    let before = tasks_named("cfm-serve-loop");
    let machine = CfmConfig::new(4, 1, 16).unwrap();
    let service =
        Service::start(ServiceConfig::new(machine, 32).with_tenant(TenantSpec::new("idle")))
            .unwrap();
    (service, loop_task(&before))
}

/// `/proc/self/task/<tid>` of every thread named `name`.
fn tasks_named(name: &str) -> Vec<PathBuf> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| std::fs::read_to_string(p.join("comm")).is_ok_and(|c| c.trim_end() == name))
        .collect()
}

/// The one event-loop thread not in `before`, after checking that no
/// edge thread exists. A new thread names itself once it runs, so wait
/// for the name.
fn loop_task(before: &[PathBuf]) -> PathBuf {
    let deadline = Instant::now() + Duration::from_secs(5);
    let new = || {
        let mut tasks = tasks_named("cfm-serve-loop");
        tasks.retain(|t| !before.contains(t));
        tasks
    };
    let mut tasks = new();
    while tasks.is_empty() && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(1));
        tasks = new();
    }
    assert_eq!(
        tasks_named("cfm-edge"),
        Vec::<PathBuf>::new(),
        "no edge thread"
    );
    assert_eq!(
        tasks.len(),
        1,
        "exactly one new event-loop thread: {tasks:?}"
    );
    tasks.into_iter().next().unwrap()
}

fn voluntary_switches(task: &Path) -> u64 {
    let status = std::fs::read_to_string(task.join("status")).unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .expect("status lists voluntary_ctxt_switches")
        .trim()
        .parse()
        .unwrap()
}

/// The scheduler state letter of `task` (`S` while it sleeps).
fn state(task: &Path) -> char {
    let stat = std::fs::read_to_string(task.join("stat")).unwrap();
    let after_comm = &stat[stat.rfind(')').expect("stat names the command") + 1..];
    after_comm.trim_start().chars().next().unwrap()
}

/// Wait until the loop has blocked in its edge's `epoll_wait` and sleeps
/// there.
fn wait_parked(edge: &EdgeHandle, task: &Path) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while edge.stats().parks == 0 || state(task) != 'S' {
        assert!(Instant::now() < deadline, "the idle loop never parked");
        thread::sleep(Duration::from_millis(1));
    }
}

/// Fail without dropping `leak` (a service, an edge handle, or both):
/// when a wake is lost, dropping them would wait forever for the parked
/// loop.
fn fail_leaking<T>(leak: T, why: &str) -> ! {
    std::mem::forget(leak);
    panic!("{why}");
}

/// Run `close` on a helper thread and return how long it took, or `None`
/// if it has not returned after 5 s — a lost wake then fails the test
/// instead of hanging it.
fn timed(close: impl FnOnce() + Send + 'static) -> Option<Duration> {
    let (tx, rx) = mpsc::channel();
    let closer = thread::spawn(move || {
        let start = Instant::now();
        close();
        tx.send(start.elapsed()).unwrap();
    });
    let took = rx.recv_timeout(Duration::from_secs(5)).ok()?;
    closer.join().unwrap();
    Some(took)
}

/// Over 200 ms of idleness the loop wakes a handful of times at most —
/// a loop that kept polling would wake thousands of times — and both
/// edge shutdown paths wake the blocked loop promptly.
#[test]
fn idle_edge_costs_nothing_and_stops_promptly() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (service, task) = service();
    let edge = service.serve_edge(EdgeConfig::default()).unwrap();
    // Let the loop take the edge, spin out its idle bound and park.
    thread::sleep(Duration::from_millis(20));
    let before = voluntary_switches(&task);
    thread::sleep(Duration::from_millis(200));
    let woke = voluntary_switches(&task) - before;
    assert!(woke <= 5, "idle loop woke {woke} times in 200 ms");

    let Some(took) = timed(move || {
        edge.shutdown();
    }) else {
        fail_leaking(service, "the parked loop never saw the edge shutdown");
    };
    assert!(took < Duration::from_millis(250), "shutdown took {took:?}");

    let edge = service.serve_edge(EdgeConfig::default()).unwrap();
    thread::sleep(Duration::from_millis(20));
    let Some(took) = timed(move || drop(edge)) else {
        fail_leaking(service, "the parked loop never saw the edge drop");
    };
    assert!(took < Duration::from_millis(250), "drop took {took:?}");
    service.drain();
}

/// An in-process submit reaches a loop parked in its edge's
/// `epoll_wait`: the submit writes the eventfd, not the condvar.
#[test]
fn in_process_submit_wakes_a_loop_parked_in_epoll() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (service, task) = service();
    let edge = service.serve_edge(EdgeConfig::default()).unwrap();
    wait_parked(&edge, &task);
    let parks = edge.stats().parks;

    let mut ticket = service.submit(0, Operation::read(3)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    let response = loop {
        if let Some(response) = ticket.try_take() {
            break response;
        }
        if Instant::now() > deadline {
            fail_leaking((service, edge), "the parked loop never saw the submit");
        }
        thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(response.tenant, 0);
    // The loop parked again once the submit was answered.
    wait_parked(&edge, &task);
    assert!(edge.stats().parks > parks);
    edge.shutdown();
    assert_eq!(service.drain().metrics.completed(), 1);
}

/// `drain` reaches a loop parked in its edge's `epoll_wait`, and the
/// drain closes the edge still attached: shutting the handle down
/// afterwards returns at once.
#[test]
fn drain_wakes_a_loop_parked_in_epoll_and_closes_the_edge() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (service, task) = service();
    let edge = service.serve_edge(EdgeConfig::default()).unwrap();
    wait_parked(&edge, &task);

    let (tx, rx) = mpsc::channel();
    let drainer = thread::spawn(move || tx.send(service.drain()).unwrap());
    let Ok(report) = rx.recv_timeout(Duration::from_secs(5)) else {
        // The drainer holds the service, blocked for good.
        fail_leaking(edge, "the parked loop never saw the drain");
    };
    drainer.join().unwrap();
    assert_eq!(report.stats.bank_conflicts, 0);

    let start = Instant::now();
    let stats = edge.shutdown();
    let took = start.elapsed();
    assert!(took < Duration::from_millis(250), "shutdown took {took:?}");
    assert_eq!(stats.active, 0);
}
