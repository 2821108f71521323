//! G5 fixture: a blocking join carrying a justified allow.

fn shutdown(handle: JoinHandle<()>) {
    // av-guard: allow(G5, reason = "fixture: joining an exited event-loop thread exercising the escape hatch")
    let _ = handle.join();
}
