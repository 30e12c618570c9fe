//! On-line admission control for aperiodic events (paper §7).
//!
//! A telemetry gateway accepts "query" events from operators. Each query has
//! a declared cost and a response-time requirement; the gateway only admits a
//! query if the on-line response-time computation of equations (1)–(4),
//! performed at arrival time, predicts that the requirement can be met by the
//! polling server. Each admitted query is then priced by equation (5), from
//! the slot it takes in the §7 list of lists of the server's FIFO backlog
//! (`InstancePacker`).
//!
//! ```sh
//! cargo run --example online_admission
//! ```

use rtsj_event_framework::analysis::{textbook_ps_response_time, InstancePacker, ServerParams};
use rtsj_event_framework::prelude::*;

fn main() {
    // A polling server with capacity 4 / period 6 at the top priority.
    let server = ServerParams::new(Span::from_units(4), Span::from_units(6));
    // Operators will only wait 15 time units for an answer.
    let ceiling = Span::from_units(15);

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
    // Nothing has run yet: the server still holds its full capacity, and
    // the admitted backlog is packed from the instance current at `now`.
    let remaining = server.capacity;
    let mut packer = InstancePacker::new(server, now, remaining);
    let mut pending = Span::ZERO;

    println!("admission decisions at t = {now} (ceiling: 15 tu)");
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>10}",
        "query", "cost", "eq(1-4) rta", "eq(5) rta", "decision"
    );
    let mut admitted = 0usize;
    for (id, cost_units) in queries {
        let cost = Span::from_units_f64(cost_units);
        // Prediction for the *textbook* polling server, equations (1)–(4),
        // with the admitted backlog ahead of the query; the decision is
        // taken against the ceiling.
        let textbook = textbook_ps_response_time(server, now, remaining, pending + cost, now);
        let accept = textbook <= ceiling;
        // Equation (5) from the slot an admitted query takes in the packing
        // of the backlog.
        let implementation = accept.then(|| {
            pending += cost;
            admitted += 1;
            packer.push(cost).response_time(server, now)
        });
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
        "pending work after admission: {admitted} events, {} tu declared",
        pending.as_units()
    );
}
