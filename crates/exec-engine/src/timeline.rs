//! ASCII Gantt rendering of the engine's probe events.
//!
//! Produces the measured counterpart of the paper's Figure 1/7/9
//! schematics from the engine events a logging probe records (see
//! [`crate::single::run_traced`]): one lane per stream (execution, load
//! per slot, migration), time flowing left to right.
//!
//! ```text
//! exec      |..####=###############|
//! load s0   |#########             |
//! load s1   |####                  |
//! migrate   | ####                 |
//! ```
//!
//! `#` = busy, `=` = DHA execution, `.` = stalled, ` ` = idle.

use simcore::probe::{Event, ProbeEvent};
use simcore::time::SimTime;

/// One rendered lane.
#[derive(Debug, Clone)]
pub struct Lane {
    /// Lane label.
    pub label: String,
    /// Busy intervals `(start, end, glyph)`.
    pub intervals: Vec<(SimTime, SimTime, char)>,
}

/// Pairs start and end events into busy `'#'` intervals: `open` keys a
/// start event, `close` keys an end event, and each end closes the
/// first pending start with the same key.
fn pair(
    events: &[Event],
    open: impl Fn(ProbeEvent) -> Option<usize>,
    close: impl Fn(ProbeEvent) -> Option<usize>,
) -> Vec<(SimTime, SimTime, char)> {
    let mut pending: Vec<(usize, SimTime)> = Vec::new();
    let mut out = Vec::new();
    for e in events {
        if let Some(id) = open(e.what) {
            pending.push((id, e.at));
        } else if let Some(id) = close(e.what) {
            if let Some(pos) = pending.iter().position(|&(pid, _)| pid == id) {
                let (_, start) = pending.swap_remove(pos);
                out.push((start, e.at, '#'));
            }
        }
    }
    out
}

/// Extracts the lanes of engine run slot `run` from a probe log.
pub fn lanes(events: &[Event], run: usize) -> Vec<Lane> {
    // Execution lane: '#' for in-memory, '=' for DHA, '.' for stalls.
    let mut exec = Vec::new();
    let mut open: Option<(usize, SimTime, bool)> = None;
    // Load slots seen in the log, one lane each.
    let mut slots = Vec::new();
    for e in events {
        match e.what {
            ProbeEvent::ExecStarted {
                run: r, layer, dha, ..
            } if r == run => open = Some((layer, e.at, dha)),
            ProbeEvent::ExecFinished { run: r, layer, .. } if r == run => {
                if let Some((l, start, dha)) = open.take() {
                    if l == layer {
                        exec.push((start, e.at, if dha { '=' } else { '#' }));
                    }
                }
            }
            ProbeEvent::StallEnded { run: r, ns, .. } if r == run => {
                let start = SimTime::from_nanos(e.at.as_nanos().saturating_sub(ns));
                exec.push((start, e.at, '.'));
            }
            ProbeEvent::LoadStarted { run: r, slot, .. } if r == run => slots.push(slot),
            _ => {}
        }
    }
    let mut out = vec![Lane {
        label: "exec".to_string(),
        intervals: exec,
    }];

    slots.sort_unstable();
    slots.dedup();
    for s in slots {
        let intervals = pair(
            events,
            |w| match w {
                ProbeEvent::LoadStarted {
                    run: r,
                    layer,
                    slot,
                    ..
                } if r == run && slot == s => Some(layer),
                _ => None,
            },
            |w| match w {
                ProbeEvent::LoadFinished {
                    run: r,
                    layer,
                    slot,
                    ..
                } if r == run && slot == s => Some(layer),
                _ => None,
            },
        );
        out.push(Lane {
            label: format!("load s{s}"),
            intervals,
        });
    }

    // Migration lane (all secondaries together).
    let migrate = pair(
        events,
        |w| match w {
            ProbeEvent::MigrateStarted { run: r, layer, .. } if r == run => Some(layer),
            _ => None,
        },
        |w| match w {
            ProbeEvent::MigrateFinished { run: r, layer, .. } if r == run => Some(layer),
            _ => None,
        },
    );
    if !migrate.is_empty() {
        out.push(Lane {
            label: "migrate".to_string(),
            intervals: migrate,
        });
    }
    out
}

/// Renders lanes into a fixed-width ASCII chart.
pub fn render(lanes: &[Lane], width: usize) -> String {
    let end = lanes
        .iter()
        .flat_map(|l| l.intervals.iter().map(|(_, e, _)| e.as_nanos()))
        .max()
        .unwrap_or(1)
        .max(1);
    let label_w = lanes.iter().map(|l| l.label.len()).max().unwrap_or(4);
    let mut s = String::new();
    for lane in lanes {
        let mut row = vec![' '; width];
        for &(a, b, glyph) in &lane.intervals {
            let c0 = (a.as_nanos() as u128 * width as u128 / end as u128) as usize;
            let c1 = (b.as_nanos() as u128 * width as u128 / end as u128) as usize;
            let c1 = c1.max(c0 + 1).min(width);
            for cell in row
                .iter_mut()
                .take(c1)
                .skip(c0.min(width.saturating_sub(1)))
            {
                // Stall dots never overwrite busy glyphs.
                if glyph != '.' || *cell == ' ' {
                    *cell = glyph;
                }
            }
        }
        s.push_str(&format!(
            "{:<label_w$} |{}|\n",
            lane.label,
            row.iter().collect::<String>()
        ));
    }
    s.push_str(&format!(
        "{:<label_w$}  0{:>w$}\n",
        "",
        format!("{:.2}ms", end as f64 / 1e6),
        w = width - 1
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_log() -> Vec<Event> {
        let ev = |at: u64, what| Event {
            at: SimTime::from_nanos(at),
            what,
        };
        let (run, layer, gpu, slot) = (0, 0, 0, 0);
        vec![
            ev(
                0,
                ProbeEvent::LoadStarted {
                    run,
                    layer,
                    gpu,
                    slot,
                },
            ),
            ev(
                100,
                ProbeEvent::LoadFinished {
                    run,
                    layer,
                    gpu,
                    slot,
                },
            ),
            ev(
                100,
                ProbeEvent::StallEnded {
                    run,
                    layer,
                    gpu,
                    ns: 100,
                },
            ),
            ev(
                100,
                ProbeEvent::ExecStarted {
                    run,
                    layer,
                    gpu,
                    dha: false,
                },
            ),
            ev(200, ProbeEvent::ExecFinished { run, layer, gpu }),
            // Another run's events draw nothing on run 0's lanes.
            ev(
                200,
                ProbeEvent::LoadStarted {
                    run: 1,
                    layer,
                    gpu,
                    slot: 1,
                },
            ),
        ]
    }

    #[test]
    fn lanes_extracted() {
        let lanes = lanes(&toy_log(), 0);
        assert_eq!(lanes.len(), 2); // exec + load s0 (no migration).
        assert_eq!(lanes[0].label, "exec");
        // Exec lane: one stall interval + one busy interval.
        assert_eq!(lanes[0].intervals.len(), 2);
        assert_eq!(lanes[1].label, "load s0");
        assert_eq!(lanes[1].intervals.len(), 1);
    }

    #[test]
    fn render_produces_expected_shape() {
        let l = lanes(&toy_log(), 0);
        let chart = render(&l, 20);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 3); // exec, load, axis.
        assert!(lines[0].contains('#'), "exec busy missing: {}", lines[0]);
        assert!(lines[0].contains('.'), "stall missing: {}", lines[0]);
        assert!(lines[1].contains('#'));
        // Load occupies the first half, exec the second.
        let exec_row = lines[0];
        let hash_pos = exec_row.find('#').unwrap();
        let load_row = lines[1];
        let load_end = load_row.rfind('#').unwrap();
        assert!(hash_pos >= load_end.saturating_sub(1));
    }

    #[test]
    fn empty_trace_renders() {
        let chart = render(&[], 10);
        assert!(chart.contains("0"));
    }
}
