(** The receive-path stages the four server stacks share.

    The paper's §2 describes one receive path — frame in, classify,
    dispatch, handle, reply — and Figures 1 and 3 differ only in where
    each step runs: on the NIC, in the kernel or in user space. Every
    stack ({!Stack}, {!Static_stack}, [Baseline.Linux_stack],
    [Baseline.Bypass_stack]) is its own placement mechanism wired
    through the stages below; a stage does the same thing wherever it
    is called from. The stages schedule no events of their own except
    the CC-NIC transmit delay ({!send_response}, {!nack}). *)

(** {1 The stack's shared context} *)

type t = {
  name : string;  (** Counter group, span track and driver name. *)
  engine : Sim.Engine.t;
  kern : Osmodel.Kernel.t;
  egress : Net.Frame.t -> unit;
  counters : Sim.Counter.group;
  metrics : Obs.Metrics.t;
  tracer : Obs.Tracer.t;
  trk : int;  (** Span track for the RPC stage chain. *)
  m_kills : Obs.Metrics.counter;
  m_respawns : Obs.Metrics.counter;
}

val create :
  Sim.Engine.t -> name:string -> ncores:int ->
  ?kernel_costs:Osmodel.Kernel.costs -> ?metrics:Obs.Metrics.t ->
  ?tracer:Obs.Tracer.t -> egress:(Net.Frame.t -> unit) -> unit -> t
(** The kernel, a fresh metrics registry and a fresh (disabled) tracer
    unless given, the [name] track and the [kills]/[respawns]
    counters. *)

val count : t -> string -> unit
(** Bump the named counter of the stack's group. *)

val span : t -> rpc:int64 -> string -> unit
(** Close the RPC's running stage at the current sim time. One branch
    when the tracer is disabled. *)

val trace_ingress : t -> Net.Frame.t -> unit
(** Ingress tracing: open the RPC's root span the instant a request
    frame reaches the server, and note its wire trace context. The
    header decode is paid only while tracing. *)

val driver : t -> ingress:(Net.Frame.t -> unit) -> describe:(unit -> string)
  -> Harness.Driver.t

(** {1 Classify}

    Wire header, then method, then arguments. *)

type reject =
  | Bad_rpc  (** [rx_bad_rpc]: the payload is not an RPC header. *)
  | No_service  (** [rx_no_service]: nothing bound to the port. *)
  | No_method  (** [rx_no_method]: the service has no such method. *)
  | Bad_args  (** [rx_bad_args]: the body fails the request schema. *)

type verdict = Call of Rpc.Interface.method_def * Rpc.Value.t | Reject of reject

val header : Net.Frame.t -> (Rpc.Wire_format.t, Rpc.Wire_format.error) result
val classify : Rpc.Interface.service_def -> Rpc.Wire_format.t -> verdict

val drop : t -> reject -> unit
(** Count a rejected frame under its [rx_*] counter. *)

(** {1 Software handler cost} (stacks that unmarshal on a CPU) *)

val handler_cost :
  Rpc.Interface.method_def -> Rpc.Wire_format.t -> Rpc.Value.t ->
  Sim.Units.duration
(** Software unmarshal of the request plus the handler's own time. *)

val marshal_cost : Rpc.Value.t -> bytes -> Sim.Units.duration
(** Software marshal of a result into its encoded body. *)

(** {1 Reply and transmit} *)

val reply_frame :
  src:Net.Frame.endpoint -> dst:Net.Frame.endpoint -> rpc_id:int64 ->
  service_id:int -> method_id:int -> ctx:bytes option ->
  Rpc.Wire_format.kind -> bytes -> Net.Frame.t
(** The reply (or NACK) frame: the request's ids echoed, sent from the
    request's destination back to its source. *)

val response_to : Net.Frame.t -> Rpc.Wire_format.t -> bytes -> Net.Frame.t
(** {!reply_frame} for a request still in hand: endpoints swapped, ids
    and trace context echoed from its header. *)

val transmit : t -> rpc:int64 -> Net.Frame.t -> unit
(** Tx completion: count [tx_frames], close the RPC's root span and put
    the frame on the wire. *)

val watch_rx_pool : t -> Sanitize.t option -> Nic.Dma_nic.t -> unit
(** Arm the DMA NIC's rx-pool sanitizer ([<name>-rx-pool]): buffers
    parked in un-consumed ring descriptors at cutoff are accounted, not
    leaked. *)

(** {1 CC-NIC stages} (shared by {!Stack} and {!Static_stack}) *)

type ccnic = {
  cfg : Config.t;
  ha : Coherence.Home_agent.t;
  trk_detail : int;  (** Span track for NIC pipeline sub-intervals. *)
  m_stale : Obs.Metrics.counter;  (** [stale_dispatch_caught] *)
  m_crash_nacks : Obs.Metrics.counter;
  m_requeues : Obs.Metrics.counter;
  m_drop_full : Obs.Metrics.counter;
}

val ccnic :
  t -> Config.t -> fault:Fault.Plan.t -> salt:int ->
  sanitize:Sanitize.t option -> ccnic
(** The home agent, its fill-delay choke point (the plan's
    [fill_delay], drawn from the plan's stream derived with [salt]),
    its [ha_delayed_fills]/[ha_tryagains] gauges and coherence
    sanitizer, the [nic-pipeline] track and the crash/drop counters. *)

val line_bytes : ccnic -> int

val control_request :
  ccnic -> Demux.entry -> Rpc.Interface.method_def -> Rpc.Wire_format.t ->
  Message.request
(** The CONTROL request the NIC stages for a classified call: inline
    prefix and auxiliary-line count, or DMA past the threshold or the
    endpoint window. *)

val pipeline_details :
  t -> ccnic -> rpc:int64 -> Pipeline.breakdown -> decrypt:Sim.Units.duration
  -> unit
(** Detail spans decomposing the NIC pipeline stage, reaching back from
    now (its completion). *)

val handler_time : Rpc.Interface.method_def -> Message.request ->
  Sim.Units.duration
(** The handler's time plus the DRAM read of a DMA-delivered body. *)

val respond_line :
  ccnic -> Endpoint.t -> idx:int -> rpc_id:int64 -> status:int ->
  body:bytes -> unit
(** The worker's response store into CONTROL line [idx]. *)

val tx_mac_delay : Sim.Units.duration

val send_response : t -> rpc:int64 -> after:Sim.Units.duration ->
  Net.Frame.t -> unit
(** After [after], close the [tx] stage and {!transmit}. *)

val nack :
  t -> rpc_id:int64 -> service_id:int -> method_id:int ->
  src:Net.Frame.endpoint -> dst:Net.Frame.endpoint -> code:int -> unit
(** An explicit transport-level reject on the wire ([Error_reply
    code]), sent after {!tx_mac_delay}: the client learns why its
    request did not complete instead of inferring a drop from a
    timeout. *)

type code_space

val code_space : int -> code_space
(** Fake code pages handed out from [base], one 4 KiB page per method
    slot. *)

val bind_service :
  Demux.t -> code_space -> port:int -> data_ptr:int64 ->
  Rpc.Interface.service_def -> unit
(** Bind the service's port with one code pointer per method id. *)

val crash_sweep :
  Endpoint.t array -> limbo:Message.request Queue.t ->
  (int64, 'a) Hashtbl.t -> owned:('a -> bool) -> doom:(int64 -> 'a -> unit)
  -> unit
(** NIC-side crash teardown: reset the dead process's endpoints, moving
    their NIC-SRAM queue contents into [limbo]; every other [owned]
    in-flight entry was in the dead process's hands — remove it and
    [doom] it (the stack NACKs it). *)

val redeliver :
  ccnic -> Message.request Queue.t -> deliver:(Message.request -> bool) ->
  refuse:(int64 -> unit) -> unit
(** Drain [limbo] after a restart: each survivor is delivered again
    ([requeues]) or, if its endpoint is full, counted in [crash_nacks]
    and [refuse]d. *)
