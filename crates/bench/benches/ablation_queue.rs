//! Ablation: the pending-queue structure.
//!
//! The paper's §7 proposes replacing the flat FIFO pending list with a list
//! of lists so the response time of a new event can be computed in constant
//! time at admission. This bench measures the *admission-time prediction*
//! cost of both structures as the backlog grows: the flat FIFO must repack
//! the live queue per prediction (`predict_slot`, O(n)), the list of lists
//! answers from its incremental packer (O(1)). Service-side both structures
//! now share the same O(log n) indexed FIFO-with-skip, so pushes alone no
//! longer separate them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rt_model::{EventId, HandlerId, Instant, Span};
use rt_taskserver::{PendingQueue, QueueKind, QueuedRelease, ServableHandler};
use std::hint::black_box;

fn release(id: u32, cost: u64) -> QueuedRelease {
    QueuedRelease::new(
        EventId::new(id),
        ServableHandler::new(HandlerId::new(id), Span::from_units(cost)),
        Instant::ZERO,
    )
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_queue");
    for backlog in [16usize, 128, 1024] {
        for kind in [QueueKind::Fifo, QueueKind::ListOfLists] {
            group.bench_with_input(
                BenchmarkId::new(format!("{kind:?}"), backlog),
                &backlog,
                |b, &n| {
                    b.iter(|| {
                        let mut queue = PendingQueue::new(
                            kind,
                            Span::from_units(4),
                            Span::from_units(6),
                            rt_model::QueueDiscipline::FifoSkip,
                        );
                        for i in 0..n as u32 {
                            let cost = Span::from_units(1 + (i as u64 % 3));
                            // Admission-time prediction for the incoming
                            // event, then the push itself.
                            let predicted =
                                queue.predict_slot(cost, Instant::ZERO, Span::from_units(4));
                            black_box(predicted);
                            let slot = queue.push(
                                release(i, 1 + (i as u64 % 3)),
                                Instant::ZERO,
                                Span::from_units(4),
                            );
                            black_box(slot);
                        }
                        black_box(queue.len())
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
