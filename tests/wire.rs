//! Wire-protocol robustness: property tests over the frame codec
//! (arbitrary bytes, truncation, frame round trips — the decoder must
//! never panic and every failure must be a typed
//! [`serve::WireError`](conflict_free_memory::serve::WireError)), plus
//! loopback integration tests: many concurrent wire clients through the
//! per-connection drain handshake against a real service, and clients
//! that disconnect with requests in flight.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use conflict_free_memory::core::config::CfmConfig;
use conflict_free_memory::core::op::Operation;
use conflict_free_memory::serve::wire::{self, Decoder, Frame};
use conflict_free_memory::serve::{
    EdgeConfig, Reject, Request, Service, ServiceConfig, TenantSpec, WireError, PROTOCOL_VERSION,
};
use proptest::prelude::*;

/// Build one frame from sampled integers — every client- and
/// server-side frame kind that is constructible without running a
/// machine (`Response` round trips are pinned in the codec's own unit
/// tests, since `Completion` values come from executions).
fn sample_frame(tag: u8, id: u64, a: u64, b: u64, words: Vec<u64>) -> Frame {
    match tag {
        0 => Frame::Hello {
            version: PROTOCOL_VERSION,
        },
        1 => Frame::Welcome {
            version: PROTOCOL_VERSION,
            banks: a as u32,
            offsets: b as u32,
            processors: (a ^ b) as u32,
        },
        2 => Frame::Submit {
            request_id: id,
            request: Request::new(a as usize, Operation::read(b as usize)),
        },
        3 => Frame::Submit {
            request_id: id,
            request: Request::new(a as usize, Operation::write(b as usize, words)),
        },
        4 => Frame::Submit {
            request_id: id,
            request: Request::new(a as usize, Operation::swap(b as usize, words)),
        },
        5 => Frame::Reject {
            request_id: id,
            reject: Reject::QueueFull {
                tenant: a as usize,
                capacity: b as usize,
                retry_after_slots: a.wrapping_add(b),
            },
        },
        6 => Frame::Reject {
            request_id: id,
            reject: Reject::Overloaded {
                queued: a as usize,
                limit: b as usize,
                retry_after_slots: a | 1,
            },
        },
        7 => Frame::Reject {
            request_id: id,
            reject: Reject::ShuttingDown,
        },
        8 => Frame::Reject {
            request_id: id,
            reject: Reject::Migrating {
                tenant: a as usize,
                retry_after_slots: b,
            },
        },
        9 => Frame::MetricsRequest,
        10 => Frame::Metrics {
            json: format!("{{\"completed\":{a},\"deferred\":{b}}}"),
        },
        11 => Frame::Drain,
        12 => Frame::Drained,
        13 => Frame::Reject {
            request_id: id,
            reject: Reject::UnknownTenant { tenant: a as usize },
        },
        14 => Frame::Reject {
            request_id: id,
            reject: Reject::NoSuchBlock {
                offset: a as usize,
                offsets: b as usize,
            },
        },
        15 => Frame::Reject {
            request_id: id,
            reject: Reject::WrongBlockLength {
                got: a as usize,
                want: b as usize,
            },
        },
        _ => Frame::Error {
            code: a as u16,
            message: format!("sampled error {b}"),
        },
    }
}

proptest! {
    /// Arbitrary bytes, fed in arbitrary chunk sizes, never panic the
    /// incremental decoder: every outcome is a decoded frame, a wait
    /// for more bytes, or a typed `WireError`.
    #[test]
    fn decoder_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(0u16..256, 0..512),
        chunk in 1usize..17,
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let mut dec = Decoder::new();
        let mut errored = false;
        for piece in bytes.chunks(chunk) {
            dec.feed(piece);
            loop {
                match dec.next_frame() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(e) => {
                        // Typed, displayable, stable error code.
                        prop_assert!(e.code() >= 1);
                        prop_assert!(!e.to_string().is_empty());
                        errored = true;
                        break;
                    }
                }
            }
            if errored {
                break;
            }
        }
    }

    /// Every sampled frame survives an encode → incremental-decode
    /// round trip byte-exactly, even when the bytes arrive one at a
    /// time.
    #[test]
    fn frames_round_trip_through_the_incremental_decoder(
        tag in 0u8..17,
        id in 0u64..u64::MAX,
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
        words in proptest::collection::vec(0u64..u64::MAX, 0..9),
    ) {
        let frame = sample_frame(tag, id, a, b, words);
        let bytes = wire::encode(&frame);
        let mut dec = Decoder::new();
        for byte in &bytes {
            prop_assert_eq!(dec.next_frame().unwrap(), None);
            dec.feed(std::slice::from_ref(byte));
        }
        prop_assert_eq!(dec.next_frame().unwrap(), Some(frame));
        prop_assert_eq!(dec.next_frame().unwrap(), None);
    }

    /// A strict prefix of one encoded frame never yields a frame and
    /// never errors: the decoder waits for the remaining bytes.
    #[test]
    fn truncated_frames_wait_rather_than_misparse(
        tag in 0u8..17,
        id in 0u64..u64::MAX,
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
        words in proptest::collection::vec(0u64..u64::MAX, 0..9),
        cut_seed in 0u64..u64::MAX,
    ) {
        let frame = sample_frame(tag, id, a, b, words);
        let bytes = wire::encode(&frame);
        let cut = (cut_seed % bytes.len() as u64) as usize;
        let mut dec = Decoder::new();
        dec.feed(&bytes[..cut]);
        prop_assert_eq!(dec.next_frame().unwrap(), None);
        // The rest of the bytes complete the frame exactly.
        dec.feed(&bytes[cut..]);
        prop_assert_eq!(dec.next_frame().unwrap(), Some(frame));
    }

    /// Pipelining many sampled frames into one buffer decodes them all,
    /// in order, regardless of how the bytes are chunked.
    #[test]
    fn pipelined_sampled_frames_decode_in_order(
        tags in proptest::collection::vec(0u16..17, 1..8),
        seed in 0u64..u64::MAX,
        chunk in 1usize..33,
    ) {
        let frames: Vec<Frame> = tags
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                sample_frame(t as u8, seed ^ i as u64, seed % 97, seed % 89, vec![seed; i % 4])
            })
            .collect();
        let mut bytes = Vec::new();
        for f in &frames {
            wire::encode_into(f, &mut bytes);
        }
        let mut dec = Decoder::new();
        let mut decoded = Vec::new();
        for piece in bytes.chunks(chunk) {
            dec.feed(piece);
            while let Some(f) = dec.next_frame().unwrap() {
                decoded.push(f);
            }
        }
        prop_assert_eq!(decoded, frames);
    }
}

/// Every frame that carries a block of words — a Write and a Swap
/// submit, a Read response — round-trips at every word count from 0 to
/// 64, and every cut of its body short of the end is refused as a typed
/// `Truncated`, never a panic, a misparse or a different error.
#[test]
fn word_blocks_round_trip_and_every_cut_tail_is_truncated() {
    use conflict_free_memory::core::op::{Completion, OpKind, Outcome};
    use conflict_free_memory::serve::Response;

    for n in 0..=64u64 {
        let words: Vec<u64> = (0..n)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let frames = [
            Frame::Submit {
                request_id: n,
                request: Request::new(1, Operation::write(5, words.clone())),
            },
            Frame::Submit {
                request_id: n,
                request: Request::new(2, Operation::swap(6, words.clone())),
            },
            Frame::Response {
                request_id: n,
                response: Response {
                    tenant: 3,
                    completion: Completion {
                        proc: 2,
                        kind: OpKind::Read,
                        offset: 7,
                        data: Some(words.clone().into_boxed_slice()),
                        issued_at: 40,
                        completed_at: 47,
                        restarts: 0,
                        outcome: Outcome::Completed,
                        torn: false,
                    },
                    queued_ns: 100,
                    total_ns: 900,
                },
            },
        ];
        for frame in frames {
            let bytes = wire::encode(&frame);
            let body = &bytes[4..];
            assert_eq!(wire::decode_body(body), Ok(frame.clone()), "{n} words");
            for cut in 0..body.len() {
                match wire::decode_body(&body[..cut]) {
                    Err(WireError::Truncated { needed, got }) => {
                        assert!(got < needed, "{n} words cut at {cut}: {got} ≥ {needed}")
                    }
                    other => panic!("{n} words cut at {cut}: expected Truncated, got {other:?}"),
                }
            }
        }
    }
}

/// Reject tags 6–8 name no reject any more, and the server never sends
/// them: a frame carrying one is a typed `UnknownTag`, not a misparse.
/// The surviving tags keep their numbers, so `Migrating` is still 9.
#[test]
fn retired_reject_tags_are_typed_unknown() {
    let shutting_down = wire::encode(&Frame::Reject {
        request_id: 7,
        reject: Reject::ShuttingDown,
    });
    let body = &shutting_down[4..];
    assert_eq!(body.last(), Some(&2), "the reject tag ends the body");
    for tag in 6u8..=8 {
        let mut retired = body.to_vec();
        *retired.last_mut().unwrap() = tag;
        // The payload the tag used to carry: two words and two flags.
        retired.extend_from_slice(&[0; 18]);
        assert_eq!(
            wire::decode_body(&retired),
            Err(WireError::UnknownTag {
                what: "reject",
                tag
            })
        );
    }
    let migrating = wire::encode(&Frame::Reject {
        request_id: 7,
        reject: Reject::Migrating {
            tenant: 1,
            retry_after_slots: 2,
        },
    });
    assert_eq!(migrating[4 + body.len() - 1], 9);
}

/// Stale protocol versions are a typed decode error with the stable
/// code the edge forwards to clients, not a panic or a garbled frame.
#[test]
fn stale_versions_are_typed() {
    let mut bytes = wire::encode(&Frame::Hello {
        version: PROTOCOL_VERSION,
    });
    let n = bytes.len();
    for stale in [0u16, 2, 9, u16::MAX] {
        if stale == PROTOCOL_VERSION {
            continue;
        }
        bytes[n - 2..].copy_from_slice(&stale.to_le_bytes());
        let mut dec = Decoder::new();
        dec.feed(&bytes);
        match dec.next_frame() {
            Err(WireError::VersionMismatch { got, want }) => {
                assert_eq!(got, stale);
                assert_eq!(want, PROTOCOL_VERSION);
            }
            other => panic!("expected VersionMismatch for v{stale}, got {other:?}"),
        }
    }
}

/// An adversarial length prefix is refused as `FrameTooLarge` from the
/// prefix alone — before the decoder buffers (or allocates) a payload.
#[test]
fn oversized_lengths_are_refused_from_the_prefix() {
    for len in [wire::MAX_FRAME as u32 + 1, u32::MAX / 2, u32::MAX] {
        let mut dec = Decoder::new();
        dec.feed(&len.to_le_bytes());
        match dec.next_frame() {
            Err(WireError::FrameTooLarge { len: got, max }) => {
                assert_eq!(got, len as usize);
                assert_eq!(max, wire::MAX_FRAME);
            }
            other => panic!("expected FrameTooLarge for len {len}, got {other:?}"),
        }
    }
}

/// Minimal blocking wire client for the loopback test.
struct Client {
    stream: TcpStream,
    dec: Decoder,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            stream,
            dec: Decoder::new(),
        }
    }

    fn send(&mut self, frame: &Frame) {
        self.stream.write_all(&wire::encode(frame)).unwrap();
    }

    fn recv(&mut self) -> Option<Frame> {
        loop {
            if let Some(f) = self.dec.next_frame().unwrap() {
                return Some(f);
            }
            let mut buf = [0u8; 4096];
            match self.stream.read(&mut buf) {
                Ok(0) => return None,
                Ok(n) => self.dec.feed(&buf[..n]),
                Err(e) => panic!("client read failed: {e}"),
            }
        }
    }
}

/// Many concurrent wire clients, each pipelining a window of submits
/// over real loopback TCP and finishing with the drain handshake: every
/// request is answered exactly once, every connection gets `Drained`,
/// and the machine underneath reports zero bank conflicts.
#[test]
fn concurrent_clients_drain_cleanly_over_loopback() {
    const CLIENTS: usize = 6;
    const OPS_PER_CLIENT: u64 = 150;
    const WINDOW: usize = 16;

    let machine = CfmConfig::new(4, 1, 16).unwrap();
    let banks = machine.banks();
    let config = ServiceConfig::new(machine, 32)
        .with_tenant(TenantSpec::new("alpha").queue_capacity(64))
        .with_tenant(TenantSpec::new("beta").queue_capacity(64));
    let service = Arc::new(Service::start(config).unwrap());
    let edge = service.serve_edge(EdgeConfig::default()).unwrap();
    let addr = edge.addr();

    let drivers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            thread::spawn(move || {
                let tenant = i % 2;
                let mut client = Client::connect(addr);
                client.send(&Frame::Hello {
                    version: PROTOCOL_VERSION,
                });
                assert!(matches!(client.recv(), Some(Frame::Welcome { .. })));

                let mut outstanding = std::collections::HashSet::new();
                let mut responses = 0u64;
                let mut rejects = 0u64;
                for id in 0..OPS_PER_CLIENT {
                    let offset = (id as usize * 7 + i) % 32;
                    let op = if id % 3 == 0 {
                        Operation::write(offset, vec![id; banks])
                    } else {
                        Operation::read(offset)
                    };
                    client.send(&Frame::Submit {
                        request_id: id,
                        request: Request::new(tenant, op),
                    });
                    assert!(outstanding.insert(id), "request IDs are unique");
                    while outstanding.len() >= WINDOW {
                        match client.recv() {
                            Some(Frame::Response { request_id, .. }) => {
                                assert!(outstanding.remove(&request_id), "answered exactly once");
                                responses += 1;
                            }
                            Some(Frame::Reject {
                                request_id,
                                reject: Reject::QueueFull { .. } | Reject::Overloaded { .. },
                            }) => {
                                assert!(outstanding.remove(&request_id), "answered exactly once");
                                rejects += 1;
                            }
                            other => panic!("unexpected frame mid-soak: {other:?}"),
                        }
                    }
                }

                client.send(&Frame::Drain);
                loop {
                    match client.recv() {
                        Some(Frame::Response { request_id, .. }) => {
                            assert!(outstanding.remove(&request_id));
                            responses += 1;
                        }
                        Some(Frame::Reject {
                            request_id,
                            reject: Reject::QueueFull { .. } | Reject::Overloaded { .. },
                        }) => {
                            assert!(outstanding.remove(&request_id));
                            rejects += 1;
                        }
                        Some(Frame::Drained) => break,
                        other => panic!("unexpected frame during drain: {other:?}"),
                    }
                }
                assert!(outstanding.is_empty(), "drain answered every submit");
                assert_eq!(client.recv(), None, "server closes after Drained");
                assert_eq!(responses + rejects, OPS_PER_CLIENT);
                responses
            })
        })
        .collect();

    let wire_responses: u64 = drivers.into_iter().map(|d| d.join().unwrap()).sum();

    let stats = edge.shutdown();
    assert_eq!(stats.accepted, CLIENTS as u64);
    assert_eq!(stats.drained_connections, CLIENTS as u64);
    assert_eq!(stats.wire_errors, 0);
    assert_eq!(stats.responses, wire_responses);

    let report = Arc::try_unwrap(service).ok().unwrap().drain();
    assert_eq!(report.stats.bank_conflicts, 0);
    assert_eq!(report.metrics.completed(), wire_responses);
}

/// A client that disconnects with requests still in the service leaves
/// completions behind for a closed connection. The connections accepted
/// after it reuse its connection slot (and usually its file descriptor)
/// and reuse its request IDs, yet must only ever receive their own
/// responses; the edge drops and counts the stale completions.
#[test]
fn stale_completions_never_reach_a_new_connection() {
    const ROUNDS: u64 = 3;
    const OPS: u64 = 32;

    let machine = CfmConfig::new(4, 1, 16).unwrap();
    // Tenant 0 issues one operation per 4096-slot window, so a leaver's
    // requests are still queued when it disconnects.
    let config = ServiceConfig::new(machine, 32)
        .with_tenant(TenantSpec::new("leaver").queue_capacity(128).bank_budget(1))
        .with_tenant(TenantSpec::new("stayer").queue_capacity(64))
        .budget_window(4096);
    let service = Arc::new(Service::start(config).unwrap());
    let edge = service.serve_edge(EdgeConfig::default()).unwrap();
    let addr = edge.addr();
    let submits = |client: &mut Client, tenant: usize| {
        let mut bytes = Vec::new();
        for id in 1..=OPS {
            wire::encode_into(
                &Frame::Submit {
                    request_id: id,
                    request: Request::new(tenant, Operation::read(id as usize % 32)),
                },
                &mut bytes,
            );
        }
        client.stream.write_all(&bytes).unwrap();
    };
    let hello = |client: &mut Client| {
        client.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
        });
        assert!(matches!(client.recv(), Some(Frame::Welcome { .. })));
    };
    let wait_for = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(1));
        }
    };

    for _ in 0..ROUNDS {
        // The leaver submits, and the Metrics answer that follows its
        // submits proves the edge handed them to the service. Then it
        // disconnects without draining.
        let mut leaver = Client::connect(addr);
        hello(&mut leaver);
        submits(&mut leaver, 0);
        leaver.send(&Frame::MetricsRequest);
        loop {
            match leaver.recv() {
                Some(Frame::Metrics { .. }) => break,
                Some(Frame::Response { response, .. }) => assert_eq!(response.tenant, 0),
                other => panic!("unexpected frame to the leaver: {other:?}"),
            }
        }
        drop(leaver);
        wait_for("the leaver's close", &|| edge.stats().active == 0);

        // The stayer takes the freed slot and the same request IDs.
        let mut stayer = Client::connect(addr);
        hello(&mut stayer);
        submits(&mut stayer, 1);
        let mut answered = [false; OPS as usize + 1];
        for _ in 0..OPS {
            match stayer.recv() {
                Some(Frame::Response {
                    request_id,
                    response,
                }) => {
                    assert_eq!(response.tenant, 1, "a leaver's response crossed over");
                    let slot = &mut answered[request_id as usize];
                    assert!(!*slot, "request {request_id} answered twice");
                    *slot = true;
                }
                other => panic!("unexpected frame to the stayer: {other:?}"),
            }
        }
        stayer.send(&Frame::Drain);
        assert_eq!(stayer.recv(), Some(Frame::Drained));
        assert_eq!(stayer.recv(), None);
    }

    // Every leaver request completes in the service; each completion
    // either reached its leaver before it closed or was dropped stale.
    wait_for("the leavers' requests", &|| {
        service.metrics().tenants[0].completed == ROUNDS * OPS
    });
    wait_for("the edge to count every completion", &|| {
        let stats = edge.stats();
        stats.responses + stats.stale_completions == service.metrics().completed()
    });
    let stats = edge.shutdown();
    assert!(
        stats.stale_completions >= 1,
        "no completion outlived its connection"
    );
    assert_eq!(stats.accepted, 2 * ROUNDS);
    assert_eq!(stats.drained_connections, ROUNDS);
    assert_eq!(stats.wire_errors, 0);
    let report = Arc::try_unwrap(service).ok().unwrap().drain();
    assert_eq!(report.stats.bank_conflicts, 0);
}
