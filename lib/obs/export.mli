(** Chrome trace-event / Perfetto JSON export.

    Renders a {!Tracer}'s spans as a trace-event JSON object loadable
    by [ui.perfetto.dev] or [chrome://tracing]. Timestamps are emitted
    in microseconds with nanosecond precision (three decimals); events
    appear in global sequence order, so a fixed-seed run exports
    byte-identical JSON. *)

val trace_events : ?process:string -> Tracer.t -> Json.t
(** The full document: thread/process-name metadata, one ["X"]
    (complete) event per closed interval/detail span, one ["i"]
    (instant) event per instant span. Open spans (RPCs still in
    flight, superseded retransmit roots) are skipped. This is
    {!multi_trace_events} with the one plane [(process, tracer)];
    [process] defaults to ["lauberhorn-sim"]. *)

val multi_trace_events : (string * Tracer.t) list -> Json.t
(** A multi-process document for a stitched rack trace: each
    [(label, tracer)] plane renders as its own process (pid = list
    position + 1, process name = label) with the tracer's tracks as
    threads — one plane per host, plus the switch/uplink and control
    planes. Spans keep their cross-plane trace/parent ids in [args],
    so one RPC's causal tree reads across processes in the viewer. *)

val to_string : ?process:string -> Tracer.t -> string

val write_file : ?process:string -> Tracer.t -> file:string -> unit
