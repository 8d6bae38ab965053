//! Property tests for the span-tracing layer: whatever an extension
//! does — return cleanly, panic (feeding the quarantine circuit
//! breaker), or exhaust its fuel budget mid-span — every per-CPU trace
//! stream stays balanced (strict stack discipline), timestamps stay
//! monotone, and the ring never silently drops an event.

use std::sync::Arc;

use proptest::prelude::*;

use bench::dispatch::{make_packets, run_batched, DispatchConfig};
use bench::Lane;
use ebpf::maps::MapRegistry;
use ebpf::program::ProgType;
use kernel_sim::trace::{SpanKind, SpanPhase, TraceEvent};
use kernel_sim::Kernel;
use safe_ext::{ExtInput, Extension, Quarantine, Runtime, RuntimeConfig};

/// What one generated run asks its extension to do.
#[derive(Debug, Clone, Copy)]
enum Behavior {
    /// Return the packet length.
    Clean,
    /// Panic after a few context calls (a kill; feeds quarantine).
    Panic,
    /// Loop on metered context calls until the fuel budget aborts the
    /// run mid-closure.
    BurnFuel,
}

fn behavior() -> impl Strategy<Value = Behavior> {
    prop_oneof![
        Just(Behavior::Clean),
        Just(Behavior::Panic),
        Just(Behavior::BurnFuel),
    ]
}

fn extension(b: Behavior) -> Extension {
    match b {
        Behavior::Clean => Extension::new("prop-clean", ProgType::SocketFilter, |ctx| {
            Ok(ctx.packet()?.len() as u64)
        }),
        Behavior::Panic => Extension::new("prop-panic", ProgType::SocketFilter, |ctx| {
            let _ = ctx.packet()?.load_u8(0)?;
            panic!("generated panic");
        }),
        Behavior::BurnFuel => Extension::new("prop-burn", ProgType::SocketFilter, |ctx| {
            let pkt = ctx.packet()?;
            loop {
                // Every call charges fuel; the meter errors out of the
                // loop once the budget is gone.
                let _ = pkt.load_u8(0)?;
            }
        }),
    }
}

/// Asserts strict stack discipline over one CPU's in-order stream:
/// every exit matches the innermost open enter (same kind, same
/// pre/post depth), timestamps never go backwards, and the stream ends
/// with no span left open.
fn check_stream(events: &[TraceEvent]) -> Result<(), TestCaseError> {
    let mut stack: Vec<(SpanKind, u32)> = Vec::new();
    let mut last_ns = 0u64;
    for e in events {
        prop_assert!(
            e.at_ns >= last_ns,
            "timestamp went backwards: {} after {last_ns}",
            e.at_ns
        );
        last_ns = e.at_ns;
        match e.phase {
            SpanPhase::Enter => {
                prop_assert_eq!(e.depth as usize, stack.len(), "enter depth mismatch");
                stack.push((e.kind, e.depth));
            }
            SpanPhase::Exit => {
                let Some((kind, depth)) = stack.pop() else {
                    return Err(TestCaseError::fail("exit with no open span"));
                };
                prop_assert_eq!(e.kind, kind, "exit kind != innermost enter kind");
                prop_assert_eq!(e.depth, depth, "exit depth != matching enter depth");
            }
            SpanPhase::Instant => {
                prop_assert_eq!(e.depth as usize, stack.len(), "instant depth mismatch");
            }
        }
    }
    prop_assert!(
        stack.is_empty(),
        "{} span(s) left open at end of stream",
        stack.len()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Safe-ext runs with panics and fuel exhaustion mixed in: spans
    /// close on every abort path (SpanGuard RAII + catch_unwind), so
    /// the stream stays balanced and monotone with zero drops.
    #[test]
    fn safe_ext_streams_stay_balanced_under_aborts(
        behaviors in prop::collection::vec(behavior(), 1..24),
        fuel in 8u64..200,
    ) {
        let kernel = Kernel::new();
        kernel.enable_tracing();
        let maps = MapRegistry::default();
        let runtime = Runtime::new(&kernel, &maps)
            .with_config(RuntimeConfig { fuel, ..Default::default() })
            .with_quarantine(Arc::new(Quarantine::new(3)));
        for (i, b) in behaviors.iter().enumerate() {
            kernel.trace.begin_task(i as u64);
            let outcome = runtime.run(&extension(*b), ExtInput::Packet(vec![7; 16]));
            kernel.trace.end_task();
            if matches!(b, Behavior::Clean) && outcome.result.is_err() {
                // Quarantine refusals are fine (prior kills tripped the
                // breaker); any other clean-run failure is a bug.
                prop_assert!(
                    matches!(outcome.result, Err(safe_ext::Abort::Quarantined)),
                    "clean run failed: {:?}", outcome.result
                );
            }
        }
        prop_assert_eq!(kernel.trace.dropped(), 0, "ring dropped events");
        check_stream(&kernel.trace.take())?;
    }

    /// The sharded dispatch engine at arbitrary batch sizes and shard
    /// counts: every shard's stream is independently balanced.
    #[test]
    fn dispatch_shard_streams_stay_balanced(
        packets in 1usize..80,
        shards in 1usize..6,
        seed in any::<u64>(),
        lane_ix in 0usize..5,
    ) {
        let lane = Lane::ALL[lane_ix];
        let batch = make_packets(packets);
        let cfg = DispatchConfig { shards, seed, trace: true, ..Default::default() };
        let report = run_batched(lane, &cfg, &batch).expect("dispatch");
        for shard in &report.shards {
            check_stream(&shard.trace)?;
        }
    }
}
