//! On-line admission control for aperiodic events (paper §7).
//!
//! A telemetry gateway accepts "query" events from operators. Each query has
//! a declared cost and a response-time requirement; the gateway only admits a
//! query if the on-line response-time computation of equations (1)–(4),
//! performed at arrival time, predicts that the requirement can be met by the
//! polling server. Each admitted query is then priced by equation (5), from
//! the slot it holds in the packing of the server's FIFO backlog.
//!
//! ```sh
//! cargo run --example online_admission
//! ```

use rt_model::{EventId, HandlerId};
use rtsj_event_framework::prelude::*;
use rtsj_event_framework::taskserver::{
    predicted_response, textbook_prediction, QueuedRelease, ServableHandler, ServerShared,
};

fn main() {
    // A polling server with capacity 4 / period 6 at the top priority.
    let params =
        TaskServerParameters::new(Span::from_units(4), Span::from_units(6), Priority::new(30));
    let mut shared = ServerShared::new(
        params,
        ServerPolicyKind::Polling,
        OverheadModel::none(),
        rtsj_event_framework::model::QueueDiscipline::FifoSkip,
    );
    // Operators will only wait 15 time units for an answer.
    let controller = AdmissionController::new(Span::from_units(15));

    // Queries arriving back-to-back at t = 1 with varied costs.
    let queries: [(u32, f64); 8] = [
        (0, 3.0),
        (1, 2.0),
        (2, 3.5),
        (3, 1.0),
        (4, 4.0),
        (5, 2.0),
        (6, 3.0),
        (7, 1.5),
    ];
    let now = Instant::from_units(1);

    println!("admission decisions at t = {now} (ceiling: 15 tu)");
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>10}",
        "query", "cost", "eq(1-4) rta", "eq(5) rta", "decision"
    );
    let mut admitted = 0usize;
    for (id, cost_units) in queries {
        let cost = Span::from_units_f64(cost_units);
        // Prediction for the *textbook* polling server, equations (1)–(4).
        let textbook = textbook_prediction(&shared, now, cost);
        // Decision against the ceiling.
        let accept = controller.admit(&shared, now, cost);
        if accept {
            // Register the query with the server's pending queue.
            shared.released(
                QueuedRelease::new(
                    EventId::new(id),
                    ServableHandler::new(HandlerId::new(id), cost),
                    now,
                ),
                now,
            );
            admitted += 1;
        }
        // Equation (5) prediction from the query's slot in the packing of
        // the backlog (only for admitted queries, which are the ones
        // actually pending).
        let implementation = predicted_response(&shared, EventId::new(id));
        println!(
            "{:>6} {:>8} {:>12} {:>12} {:>10}",
            format!("q{id}"),
            format!("{cost_units:.1}"),
            format!("{:.2}", textbook.as_units()),
            implementation.map_or("-".to_string(), |r| format!("{:.2}", r.as_units())),
            if accept { "ADMIT" } else { "reject" }
        );
    }
    println!("\nadmitted {admitted}/{} queries", queries.len());
    println!(
        "pending work after admission: {} events, {} tu declared",
        shared.queue.len(),
        shared
            .queue
            .iter()
            .map(|r| r.declared_cost().as_units())
            .sum::<f64>()
    );
}
