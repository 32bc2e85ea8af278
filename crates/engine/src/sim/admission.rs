//! Open-world arrivals (extension): the chained arrival event and
//! admission control against the repository's queue bound.

use super::{Event, Simulation};
use crate::arrivals::{AdmissionPolicy, Arrival};
use crate::config::FaultInjection;
use bc_simcore::{TraceEvent, TraceSink};

impl<S: TraceSink> Simulation<S> {
    /// The arrival cursor's chained event fired: inject every arrival
    /// due now, then re-chain for the next instant. Arrivals are rare
    /// relative to protocol events, so this stays off the inline path.
    #[cold]
    #[inline(never)]
    pub(super) fn on_arrival(&mut self) {
        let now = self.ws.agenda.now();
        loop {
            let ar = self.arrivals.as_deref_mut().expect("AR without runtime");
            let Some(&a) = ar.schedule.get(ar.state.cursor) else {
                return; // schedule exhausted; no re-chain
            };
            if a.at > now {
                self.ws.agenda.schedule(a.at - now, Event::Arrival);
                return;
            }
            let idx = ar.state.cursor as u32;
            ar.state.cursor += 1;
            ar.state.submitted += a.units;
            self.emit(TraceEvent::TaskArrival {
                class: a.class,
                units: a.units,
            });
            self.submit_arrival(a, idx);
        }
    }

    /// Admission control for one arrival: admit within the queue bound,
    /// otherwise shed (`Drop`) or backpressure (`Defer`).
    fn submit_arrival(&mut self, a: Arrival, idx: u32) {
        let ar = self.arrivals.as_deref_mut().expect("AR without runtime");
        if self.cur.remaining + a.units <= ar.queue_cap {
            self.admit_units(a.class, a.units);
            return;
        }
        match ar.policy {
            AdmissionPolicy::Drop => {
                ar.state.rejected += a.units;
                self.cur.finish_target -= a.units;
                self.emit(TraceEvent::TaskReject {
                    class: a.class,
                    units: a.units,
                });
                // The shed units may have been the last outstanding work.
                if self.cur.completed >= self.cur.finish_target {
                    self.cur.finished = true;
                }
            }
            AdmissionPolicy::Defer => {
                if let Some(FaultInjection::LeakQueuedTask { every }) = self.cfg.fault {
                    ar.state.leak_tick += 1;
                    if ar.state.leak_tick.is_multiple_of(every) {
                        // The injected bug: the arrival is counted as
                        // submitted but silently dropped — neither queued,
                        // admitted, nor rejected. Open-world conservation
                        // breaks and the checker must say so.
                        return;
                    }
                }
                ar.state.deferred.push_back(idx);
                ar.state.deferred_units += a.units;
                ar.state.deferrals += 1;
                ar.state.peak_deferred = ar.state.peak_deferred.max(ar.state.deferred_units);
                let waiting = ar.state.deferred_units;
                self.emit(TraceEvent::TaskDefer {
                    class: a.class,
                    units: a.units,
                    waiting,
                });
            }
        }
    }

    /// `units` tasks of `class` enter the repository queue.
    fn admit_units(&mut self, class: u32, units: u64) {
        let now = self.ws.agenda.now();
        self.cur.remaining += units;
        let queued = self.cur.remaining;
        let ar = self.arrivals.as_deref_mut().expect("AR without runtime");
        ar.state.admitted += units;
        ar.state.admitted_per_class[class as usize] += units;
        for _ in 0..units {
            ar.state.admit_times.push(now);
            ar.state.admit_class.push(class);
        }
        self.emit(TraceEvent::TaskAdmit {
            class,
            units,
            queued,
        });
        self.enqueue(0);
    }

    /// Re-admits deferred arrivals while the queue bound allows (called
    /// at each completion in open-world mode — dispatches have already
    /// freed the room by then).
    #[cold]
    #[inline(never)]
    pub(super) fn drain_deferred(&mut self) {
        loop {
            let ar = self.arrivals.as_deref_mut().expect("AR without runtime");
            let Some(&idx) = ar.state.deferred.front() else {
                return;
            };
            let a = ar.schedule[idx as usize];
            if self.cur.remaining + a.units > ar.queue_cap {
                return;
            }
            ar.state.deferred.pop_front();
            ar.state.deferred_units -= a.units;
            self.admit_units(a.class, a.units);
        }
    }
}
