(** The end-to-end Lauberhorn server stack (paper §5, Figures 3–5).

    Ties together every piece: frames enter through the MAC, stream
    through the hardware pipeline (parse → demux → hardware unmarshal →
    scheduling-state lookup), and are dispatched:

    - {b fast path}: a worker thread of the target service is parked on
      its endpoint's CONTROL line → the NIC stages the prepared line;
      the stalled load returns with code pointer + arguments; the
      handler runs with zero software dispatch overhead;
    - {b slow path}: no worker is active → the request still lands in
      the endpoint, and a KERNEL_DISPATCH message goes to a kernel
      dispatcher thread's own CONTROL lines; the dispatcher wakes a
      worker, which enters the user-mode loop (Figure 5).

    Workers receive TRYAGAIN on timeout or when the NIC kicks them to
    free a core (the kernel's wake-enqueue signal); they then yield,
    and after [tryagains_before_yield] consecutive empty cycles
    deactivate, implementing NIC-driven core scaling. Large payloads
    fall back to DMA per the configured threshold. *)

type service_spec = {
  service : Rpc.Interface.service_def;
  port : int;
  min_workers : int;  (** Workers kept active even when idle. *)
  max_workers : int;  (** Scale-up ceiling (≤ threads created). *)
}

val spec :
  ?min_workers:int -> ?max_workers:int -> port:int ->
  Rpc.Interface.service_def -> service_spec
(** Defaults: min 1, max 1. *)

type t

val create :
  Sim.Engine.t -> cfg:Config.t -> ncores:int ->
  ?kernel_costs:Osmodel.Kernel.costs ->
  ?mirror_mode:Sched_mirror.mode -> ?dispatchers:int ->
  ?fault:Fault.Plan.t -> ?metrics:Obs.Metrics.t -> ?tracer:Obs.Tracer.t ->
  ?sanitize:Sanitize.t ->
  services:service_spec list -> egress:(Net.Frame.t -> unit) -> unit -> t
(** Builds kernel, home agent, endpoints, demux table, mirror,
    dispatcher kernel threads and service worker threads; services with
    [min_workers > 0] start with that many workers already parked
    (hot services). [dispatchers] defaults to 2.

    [fault] (default {!Fault.Plan.none}) arms the coherence choke
    point: fills are delayed per the plan's [fill_delay] knobs, forcing
    workers through real TRYAGAIN recovery. The default plan draws no
    randomness and changes nothing.

    [metrics] (default a fresh registry) unifies the stack's exported
    scalars: the home agent's delayed-fill/TRYAGAIN tallies register as
    derived gauges.

    [tracer] (default a fresh, disabled tracer) collects per-RPC causal
    spans: a root span opened at {!ingress}, stage spans at each
    pipeline boundary (mac → nic_pipeline → queue → handler → collect →
    tx, with parse/demux/unmarshal detail spans on their own track),
    closed at egress. Stage durations telescope: they sum exactly to
    the recorder-measured end-system latency. Disabled, every emission
    is one branch.

    [sanitize] attaches the runtime sanitizers: home-agent generation
    discipline ({!Sanitize.Coherence_watch}) and scheduler-mirror
    convergence plus swept-pid dispatch checks
    ({!Sanitize.Mirror_watch}); run the end-of-run checks with
    {!Sanitize.finish}. *)

val ingress : t -> Net.Frame.t -> unit
(** Connect as the wire's deliver callback. *)

val kernel : t -> Osmodel.Kernel.t
val home_agent : t -> Coherence.Home_agent.t
val counters : t -> Sim.Counter.group

val active_workers : t -> service_id:int -> int
(** Currently active (scheduled or parked) workers of a service. *)

val telemetry : t -> Telemetry.t
(** NIC-gathered per-service statistics (paper §6). *)

val metrics : t -> Obs.Metrics.t
(** The unified metrics registry this stack exports through. *)

val tracer : t -> Obs.Tracer.t
(** The stack's span collector ({!Obs.Tracer.enable} to record). *)

val set_address : t -> Net.Frame.endpoint -> unit
(** This machine's network identity (source of outbound nested calls).
    Defaults to 10.0.0.1 / 02:00:00:00:00:01. *)

val add_remote_service :
  t -> service_id:int -> server:Net.Frame.endpoint ->
  response_schema:Rpc.Schema.t -> unit
(** Route nested calls to [service_id] over the wire to another
    machine ([server] is its address and service port). The response
    schema is registered so the NIC can unmarshal remote replies —
    microservice chains span machines in real deployments.
    @raise Invalid_argument if the service is hosted locally. *)

(** {1 Crash/restart lifecycle} *)

val kill_service : t -> service_id:int -> unit
(** Crash the service's process: every thread dies where it stands
    (kernel-side, immediately). The NIC is {e not} told synchronously —
    its scheduler mirror learns after the usual push lag, and only then
    does the NIC-side teardown run: CONTROL lines are reset, requests
    the dead process held are NACKed [err_dead] from the in-flight
    table ("stale dispatches caught"), NIC-SRAM queue contents move to
    a limbo queue for redelivery, and subsequent arrivals are refused
    on the wire until a restart. During the stale window, dispatches
    can still land on the corpse; they are caught by the sweep — never
    silently lost. No-op if already dead. *)

val restart_service : t -> service_id:int -> unit
(** Bring a killed service back: same pid, fresh worker threads over
    the surviving endpoints, [min_workers] re-activated. When the
    respawn push lands at the NIC, limbo'd requests are redelivered
    (counted as "requeues"). No-op if alive. *)

val on_handled : t -> (unit -> unit) -> unit
(** Register a callback invoked after each RPC handled by any worker
    (the server-fault injector's [crash_after_rpcs] trigger). *)

val dispatcher_count : t -> int

val retire_dispatcher : t -> idx:int -> bool
(** Send RETIRE to a parked dispatcher kernel thread: it leaves its CPU
    entirely (paper §5.2's core-reallocation path for non-preemptible
    kernels). Returns [false] if that dispatcher is not currently
    parked. *)

val resume_dispatcher : t -> idx:int -> unit
(** Wake a retired dispatcher; it re-enters its monitoring loop. *)

val driver : t -> Harness.Driver.t
(** Package as a harness driver. *)
