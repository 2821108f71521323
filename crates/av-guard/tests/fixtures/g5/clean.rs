//! G5 fixture: the sanctioned shape — the poller's own bounded wait.

fn tick(poller: &Poller, events: &mut Events) {
    let _ = poller.wait(events);
}
