type t = {
  name : string;
  engine : Sim.Engine.t;
  kern : Osmodel.Kernel.t;
  egress : Net.Frame.t -> unit;
  counters : Sim.Counter.group;
  metrics : Obs.Metrics.t;
  tracer : Obs.Tracer.t;
  trk : int;
  m_kills : Obs.Metrics.counter;
  m_respawns : Obs.Metrics.counter;
}

let create engine ~name ~ncores ?kernel_costs ?metrics ?tracer ~egress () =
  let kern = Osmodel.Kernel.create engine ~ncores ?costs:kernel_costs () in
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  let tracer =
    match tracer with Some tr -> tr | None -> Obs.Tracer.create ()
  in
  {
    name;
    engine;
    kern;
    egress;
    counters = Sim.Counter.group name;
    metrics;
    tracer;
    trk = Obs.Tracer.track tracer name;
    m_kills = Obs.Metrics.counter metrics "kills";
    m_respawns = Obs.Metrics.counter metrics "respawns";
  }

let count c name = Sim.Counter.incr (Sim.Counter.counter c.counters name)
let now c = Sim.Engine.now c.engine

let span c ~rpc name =
  Obs.Tracer.stage c.tracer ~rpc ~track:c.trk ~name (now c)

let driver c ~ingress ~describe =
  Harness.Driver.make ~name:c.name ~ingress ~kernel:c.kern
    ~counters:c.counters ~metrics:c.metrics ~describe ()

(* ---------- Classify ------------------------------------------------ *)

type reject = Bad_rpc | No_service | No_method | Bad_args

type verdict = Call of Rpc.Interface.method_def * Rpc.Value.t | Reject of reject

let header frame = Rpc.Wire_format.decode frame.Net.Frame.payload

let classify service (wire : Rpc.Wire_format.t) =
  match Rpc.Interface.find_method service wire.Rpc.Wire_format.method_id with
  | None -> Reject No_method
  | Some mdef -> (
      match
        Rpc.Codec.decode mdef.Rpc.Interface.request wire.Rpc.Wire_format.body
      with
      | Ok args -> Call (mdef, args)
      | Error _ -> Reject Bad_args)

let drop c reason =
  count c
    (match reason with
    | Bad_rpc -> "rx_bad_rpc"
    | No_service -> "rx_no_service"
    | No_method -> "rx_no_method"
    | Bad_args -> "rx_bad_args")

(* The root span opens at the instant the request frame hits the
   server — the same sim time the harness stamps note_sent — so the
   root span IS the measured end-system latency. *)
let trace_ingress c frame =
  if Obs.Tracer.is_enabled c.tracer then
    match header frame with
    | Ok w when Rpc.Wire_format.is_request w -> (
        let rpc = w.Rpc.Wire_format.rpc_id in
        Obs.Tracer.rpc_begin c.tracer ~rpc ~track:c.trk (now c);
        match w.Rpc.Wire_format.ctx with
        | Some ctx -> Obs.Tracer.set_context c.tracer ~rpc ctx
        | None -> ())
    | Ok _ | Error _ -> ()

(* ---------- Software handler cost ----------------------------------- *)

let handler_cost (mdef : Rpc.Interface.method_def) (wire : Rpc.Wire_format.t)
    args =
  Rpc.Deser_cost.cost Rpc.Deser_cost.software
    ~fields:(Rpc.Value.field_count args)
    ~bytes:(Bytes.length wire.Rpc.Wire_format.body)
  + mdef.Rpc.Interface.handler_time

let marshal_cost result body =
  Rpc.Deser_cost.cost Rpc.Deser_cost.software_marshal
    ~fields:(Rpc.Value.field_count result) ~bytes:(Bytes.length body)

(* ---------- Reply and transmit -------------------------------------- *)

let reply_frame ~src ~dst ~rpc_id ~service_id ~method_id ~ctx kind body =
  Net.Frame.make ~src ~dst
    (Rpc.Wire_format.encode
       { Rpc.Wire_format.rpc_id; service_id; method_id; kind; ctx; body })

let response_to frame (wire : Rpc.Wire_format.t) body =
  reply_frame ~src:(Net.Frame.dst_endpoint frame)
    ~dst:(Net.Frame.src_endpoint frame) ~rpc_id:wire.Rpc.Wire_format.rpc_id
    ~service_id:wire.Rpc.Wire_format.service_id
    ~method_id:wire.Rpc.Wire_format.method_id ~ctx:wire.Rpc.Wire_format.ctx
    Rpc.Wire_format.Response body

let transmit c ~rpc frame =
  count c "tx_frames";
  Obs.Tracer.rpc_end c.tracer ~rpc (now c);
  c.egress frame

let watch_rx_pool c sanitize dnic =
  match sanitize with
  | None -> ()
  | Some z ->
      ignore
        (Sanitize.Pool_watch.attach z ~name:(c.name ^ "-rx-pool")
           ~in_flight:(fun () ->
             let occ = ref 0 in
             for queue = 0 to Nic.Dma_nic.nqueues dnic - 1 do
               occ :=
                 !occ + Nic.Ring.occupancy (Nic.Dma_nic.rx_ring dnic ~queue)
             done;
             !occ)
           (Nic.Dma_nic.pool dnic))

(* ---------- CC-NIC stages ------------------------------------------- *)

type ccnic = {
  cfg : Config.t;
  ha : Coherence.Home_agent.t;
  trk_detail : int;
  m_stale : Obs.Metrics.counter;
  m_crash_nacks : Obs.Metrics.counter;
  m_requeues : Obs.Metrics.counter;
  m_drop_full : Obs.Metrics.counter;
}

let ccnic c (cfg : Config.t) ~(fault : Fault.Plan.t) ~salt ~sanitize =
  (* The coherence choke point: with probability [fill_delay] a fill
     stays in flight for [fill_delay_ns] — longer than the TRYAGAIN
     timeout means the worker recovers through a real dummy fill while
     the data is still coming. *)
  let stage_delay =
    if fault.Fault.Plan.fill_delay > 0. then begin
      let frng = Fault.Plan.derived_rng fault ~salt in
      Some
        (fun () ->
          if Sim.Rng.float frng < fault.Fault.Plan.fill_delay then
            fault.Fault.Plan.fill_delay_ns
          else 0)
    end
    else None
  in
  let ha =
    Coherence.Home_agent.create c.engine cfg.Config.profile ?stage_delay
      ~timeout:cfg.Config.tryagain_timeout ()
  in
  Obs.Metrics.derive c.metrics "ha_delayed_fills" (fun () ->
      Coherence.Home_agent.delayed_stages ha);
  Obs.Metrics.derive c.metrics "ha_tryagains" (fun () ->
      Coherence.Home_agent.tryagains ha);
  Option.iter (fun z -> Sanitize.Coherence_watch.attach z ha) sanitize;
  {
    cfg;
    ha;
    trk_detail = Obs.Tracer.track c.tracer "nic-pipeline";
    m_stale = Obs.Metrics.counter c.metrics "stale_dispatch_caught";
    m_crash_nacks = Obs.Metrics.counter c.metrics "crash_nacks";
    m_requeues = Obs.Metrics.counter c.metrics "requeues";
    m_drop_full = Obs.Metrics.counter c.metrics "drop_full";
  }

let line_bytes cc =
  cc.cfg.Config.profile.Coherence.Interconnect.cache_line_bytes

(* Auxiliary lines for what does not fit inline. *)
let lines_for cc bytes =
  if bytes <= 0 then 0 else (bytes + line_bytes cc - 1) / line_bytes cc

let control_request cc (entry : Demux.entry) (mdef : Rpc.Interface.method_def)
    (wire : Rpc.Wire_format.t) =
  let body = wire.Rpc.Wire_format.body in
  let arg_bytes = Bytes.length body in
  let via_dma =
    arg_bytes > cc.cfg.Config.dma_threshold
    || arg_bytes > Config.endpoint_window cc.cfg
  in
  let inline_len = min (Config.inline_capacity cc.cfg) arg_bytes in
  {
    Message.rpc_id = wire.Rpc.Wire_format.rpc_id;
    service_id = entry.Demux.service.Rpc.Interface.service_id;
    method_id = mdef.Rpc.Interface.method_id;
    code_ptr = Demux.code_ptr entry ~method_id:mdef.Rpc.Interface.method_id;
    data_ptr = entry.Demux.data_ptr;
    total_args = arg_bytes;
    inline_args = Net.Slice.make body ~off:0 ~len:inline_len;
    aux_count = (if via_dma then 0 else lines_for cc (arg_bytes - inline_len));
    via_dma;
  }

let pipeline_details c cc ~rpc (b : Pipeline.breakdown) ~decrypt =
  if Obs.Tracer.is_enabled c.tracer then begin
    let seg = ref (now c - b.Pipeline.total - decrypt) in
    let detail name d =
      if d > 0 then begin
        Obs.Tracer.detail c.tracer ~rpc ~track:cc.trk_detail ~name ~start:!seg
          ~stop:(!seg + d);
        seg := !seg + d
      end
    in
    detail "parse" b.Pipeline.parse;
    detail "demux" b.Pipeline.demux;
    detail "hw_unmarshal" b.Pipeline.deser;
    detail "sched_lookup" b.Pipeline.sched_lookup;
    detail "decrypt" decrypt
  end

(* A DMA-delivered body is read from DRAM first (≈25 GB/s streaming). *)
let handler_time (mdef : Rpc.Interface.method_def) (r : Message.request) =
  mdef.Rpc.Interface.handler_time
  + if r.Message.via_dma then 100 + (r.Message.total_args / 25) else 0

let respond_line cc ep ~idx ~rpc_id ~status ~body =
  let line_bytes = line_bytes cc in
  let inline_len =
    min (Message.response_inline_capacity ~line_bytes) (Bytes.length body)
  in
  Coherence.Home_agent.cpu_store cc.ha (Endpoint.ctrl_line ep idx)
    (Message.encode_response ~line_bytes
       {
         Message.resp_rpc_id = rpc_id;
         status;
         total_len = Bytes.length body;
         inline_body = Net.Slice.make body ~off:0 ~len:inline_len;
         resp_aux_count = lines_for cc (Bytes.length body - inline_len);
       })

let tx_mac_delay = Sim.Units.ns 200

let send_response c ~rpc ~after frame =
  ignore
    (Sim.Engine.schedule_after c.engine ~after (fun () ->
         span c ~rpc "tx";
         transmit c ~rpc frame))

let nack c ~rpc_id ~service_id ~method_id ~src ~dst ~code =
  let frame =
    reply_frame ~src ~dst ~rpc_id ~service_id ~method_id
      ~ctx:(Obs.Tracer.context_of c.tracer ~rpc:rpc_id)
      (Rpc.Wire_format.Error_reply code) Bytes.empty
  in
  ignore
    (Sim.Engine.schedule_after c.engine ~after:tx_mac_delay (fun () ->
         transmit c ~rpc:rpc_id frame))

(* Process-wide so every service across every simulated host gets a
   distinct fake code page; atomic so stacks built for different shards
   can never tear it. Shard setup runs on the coordinator in shard
   order, so the assignment stays deterministic. *)
type code_space = int Atomic.t

let[@nondet_ok] code_space base = Atomic.make base

let[@nondet_ok] bind_service dmx space ~port ~data_ptr
    (svc : Rpc.Interface.service_def) =
  let code_ptrs =
    Array.init
      (List.fold_left
         (fun acc m -> max acc (m.Rpc.Interface.method_id + 1))
         1 svc.Rpc.Interface.methods)
      (fun i ->
        let page = Int64.of_int (Atomic.fetch_and_add space 0x1000) in
        Int64.add page (Int64.of_int (i * 64)))
  in
  Demux.bind dmx ~port { Demux.service = svc; code_ptrs; data_ptr }

let crash_sweep eps ~limbo inflight ~owned ~doom =
  let kept = Hashtbl.create 16 in
  Array.iter
    (fun ep ->
      List.iter
        (fun ((msg : Message.request), _kernel_dispatch) ->
          Hashtbl.replace kept msg.Message.rpc_id ();
          Queue.add msg limbo)
        (Endpoint.reset ep))
    eps;
  Hashtbl.fold
    (fun id e doomed ->
      if owned e && not (Hashtbl.mem kept id) then (id, e) :: doomed
      else doomed)
    inflight []
  |> List.iter (fun (id, e) ->
         Hashtbl.remove inflight id;
         doom id e)

let redeliver cc limbo ~deliver ~refuse =
  while not (Queue.is_empty limbo) do
    let msg = Queue.pop limbo in
    if deliver msg then Obs.Metrics.incr cc.m_requeues
    else begin
      Obs.Metrics.incr cc.m_crash_nacks;
      refuse msg.Message.rpc_id
    end
  done
