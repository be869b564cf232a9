(** The CC-NIC/nanoPU-style ablation: a coherently-attached NIC with
    the {e traditional} hardware/software split (paper §2: such designs
    "deliver packets directly into the register file" but "preserve the
    same hardware/software boundary ... this works well when the
    workload is relatively static, can be bound to dedicated cores, and
    is rarely idle").

    Concretely: the same CONTROL-line delivery mechanism as
    {!Stack} — parked loads, staged lines, fetch-exclusive response
    collection — but none of the OS integration:

    - each service is statically bound to one dedicated, pinned core;
    - the NIC has no scheduling-state mirror and no kernel channel:
      requests for a service can only go to its one endpoint;
    - workers never yield or retire — an idle service still owns its
      core (parked, not spinning — the coherent part still helps);
    - no NIC-driven scaling: a hot service cannot borrow a neighbour's
      core.

    Comparing this against {!Stack} in E6/E7 separates what the
    coherent interconnect buys (latency) from what OS integration buys
    (flexibility under dynamic load). *)

type service_spec = { service : Rpc.Interface.service_def; port : int }

val spec : port:int -> Rpc.Interface.service_def -> service_spec

type t

val create :
  Sim.Engine.t -> cfg:Config.t -> ncores:int ->
  ?kernel_costs:Osmodel.Kernel.costs -> ?fault:Fault.Plan.t ->
  ?metrics:Obs.Metrics.t -> ?tracer:Obs.Tracer.t ->
  ?sanitize:Sanitize.t ->
  services:service_spec list ->
  egress:(Net.Frame.t -> unit) -> unit -> t
(** Services are assigned to cores round-robin; more services than
    cores means multiple services pinned to the same core, sharing it
    by TRYAGAIN-timeout turns only (the static world's answer).

    [metrics] and [tracer] as in {!Stack.create}: home-agent tallies
    register as derived gauges; per-RPC stage spans (same stage names
    as {!Stack}) telescope to the measured latency. [sanitize] attaches
    the coherence sanitizer to the home agent.
    @raise Invalid_argument if [services] is empty. *)

val ingress : t -> Net.Frame.t -> unit
val kernel : t -> Osmodel.Kernel.t
val counters : t -> Sim.Counter.group
val metrics : t -> Obs.Metrics.t
val tracer : t -> Obs.Tracer.t

val kill_service : t -> service_id:int -> unit
(** Crash the service's pinned process. With no scheduler mirror in
    this ablation there is no push lag to model: the kill tears down
    kernel state and sweeps the NIC side in one step — NIC-SRAM queue
    contents are kept for redelivery, staged requests are NACKed
    [err_dead], and subsequent arrivals are refused on the wire.
    @raise Invalid_argument on an unknown service. *)

val restart_service : t -> service_id:int -> unit
(** Respawn a killed service on its original core and redeliver the
    crash survivors. @raise Invalid_argument on an unknown service. *)

val driver : t -> Harness.Driver.t
