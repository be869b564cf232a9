type service_spec = { service : Rpc.Interface.service_def; port : int }

let spec ~port service = { service; port }

type inflight = {
  mdef : Rpc.Interface.method_def;
  args : Rpc.Value.t;
  svc_id : int;  (* owning service, for the crash-teardown sweep *)
  reply_src : Net.Frame.endpoint;
  reply_dst : Net.Frame.endpoint;
  mutable full_body : bytes;
}

type worker = {
  mutable wthread : Osmodel.Proc.thread;  (* replaced on restart *)
  wep : Endpoint.t;
  mutable cpu_idx : int;
  limbo : Message.request Queue.t;
      (* NIC-SRAM survivors of a crash, redelivered on restart *)
}

type t = {
  core : Rx_core.t;
  cc : Rx_core.ccnic;
  dmx : Demux.t;
  inflight : (int64, inflight) Hashtbl.t;
  by_service : (int, worker) Hashtbl.t;
  core_map : (int, int) Hashtbl.t;
  dead : (int, unit) Hashtbl.t;  (* crashed service ids *)
  mutable mac : Nic.Mac.t option;
}

let kernel t = t.core.kern
let counters t = t.core.counters
let metrics t = t.core.metrics
let tracer t = t.core.tracer

(* ---------- The pinned worker loop ---------- *)

let rec worker_loop t w () =
  (* Bind the thread at park time: a fill completing after a kill must
     be judged against the thread that parked, not a respawned one. *)
  let th = w.wthread in
  Osmodel.Kernel.stall_begin t.core.kern th;
  Coherence.Home_agent.cpu_load t.cc.ha
    (Endpoint.ctrl_line w.wep w.cpu_idx)
    (fun fill ->
      if Osmodel.Proc.is_exited th then ()
      else begin
      Osmodel.Kernel.stall_end t.core.kern th;
      match fill with
      | Coherence.Home_agent.Tryagain ->
          (* Share the core with any colocated pinned service: yield
             and come straight back. No retirement — the static world
             never gives the core up for good. *)
          Osmodel.Kernel.yield t.core.kern w.wthread (fun () ->
              worker_loop t w ())
      | Coherence.Home_agent.Data line -> (
          match Message.decode line with
          | Ok (Message.Request r) -> handle t w r
          | Ok (Message.Tryagain | Message.Retire | Message.Kernel_dispatch _)
          | Error _ ->
              Rx_core.count t.core "worker_bad_line";
              worker_loop t w ())
      end)

and handle t w (r : Message.request) =
  match Hashtbl.find_opt t.inflight r.Message.rpc_id with
  | None ->
      Rx_core.count t.core "worker_orphan_request";
      worker_loop t w ()
  | Some inf ->
      Rx_core.span t.core ~rpc:r.Message.rpc_id "queue";
      Osmodel.Kernel.run_for t.core.kern w.wthread
        ~kind:Osmodel.Cpu_account.User (Rx_core.handler_time inf.mdef r)
        (fun () ->
          Rx_core.span t.core ~rpc:r.Message.rpc_id "handler";
          let result = inf.mdef.Rpc.Interface.execute inf.args in
          let body = Rpc.Codec.encode result in
          inf.full_body <- body;
          Rx_core.respond_line t.cc w.wep ~idx:w.cpu_idx
            ~rpc_id:r.Message.rpc_id ~status:0 ~body;
          w.cpu_idx <- 1 - w.cpu_idx;
          Rx_core.count t.core "rpcs_handled";
          worker_loop t w ())

(* ---------- NIC side ---------- *)

let on_endpoint_response t (resp : Message.response) =
  let rpc = resp.Message.resp_rpc_id in
  match Hashtbl.find_opt t.inflight rpc with
  | None -> Rx_core.count t.core "orphan_response"
  | Some inf ->
      Hashtbl.remove t.inflight rpc;
      Rx_core.span t.core ~rpc "collect";
      Rx_core.send_response t.core ~rpc ~after:Rx_core.tx_mac_delay
        (Rx_core.reply_frame ~src:inf.reply_src ~dst:inf.reply_dst ~rpc_id:rpc
           ~service_id:inf.svc_id ~method_id:inf.mdef.Rpc.Interface.method_id
           ~ctx:(Obs.Tracer.context_of t.core.tracer ~rpc)
           Rpc.Wire_format.Response inf.full_body)

let rec nic_rx t frame =
  Rx_core.count t.core "rx_frames";
  match Rx_core.header frame with
  | Error _ -> Rx_core.drop t.core Rx_core.Bad_rpc
  | Ok wire -> (
      Rx_core.span t.core ~rpc:wire.Rpc.Wire_format.rpc_id "mac";
      match Demux.lookup t.dmx ~port:frame.Net.Frame.udp.Net.Udp.dst_port with
      | None -> Rx_core.drop t.core Rx_core.No_service
      | Some entry -> (
          match Rx_core.classify entry.Demux.service wire with
          | Rx_core.Reject r -> Rx_core.drop t.core r
          | Rx_core.Call (mdef, args) ->
              (* No scheduling state to consult: static binding. *)
              let breakdown =
                Pipeline.rx t.cc.cfg ~sched_lookup:0
                  ~fields:(Rpc.Value.field_count args)
                  ~arg_bytes:(Bytes.length wire.Rpc.Wire_format.body)
              in
              ignore
                (Sim.Engine.schedule_after t.core.engine
                   ~after:breakdown.Pipeline.total (fun () ->
                     let rpc = wire.Rpc.Wire_format.rpc_id in
                     Rx_core.pipeline_details t.core t.cc ~rpc breakdown
                       ~decrypt:0;
                     Rx_core.span t.core ~rpc "nic_pipeline";
                     dispatch t entry frame wire mdef args))))

and dispatch t (entry : Demux.entry) frame (wire : Rpc.Wire_format.t) mdef
    args =
  let rpc_id = wire.Rpc.Wire_format.rpc_id in
  let service_id = entry.Demux.service.Rpc.Interface.service_id in
  if Hashtbl.mem t.inflight rpc_id then
    Rx_core.count t.core "duplicate_rpc_id"
  else if Hashtbl.mem t.dead service_id then begin
    (* Statically-bound target is down: refuse on the wire. *)
    Obs.Metrics.incr t.cc.m_crash_nacks;
    Rx_core.nack t.core ~rpc_id ~service_id
      ~method_id:mdef.Rpc.Interface.method_id
      ~src:(Net.Frame.dst_endpoint frame) ~dst:(Net.Frame.src_endpoint frame)
      ~code:Rpc.Wire_format.err_dead
  end
  else begin
    Hashtbl.replace t.inflight rpc_id
      {
        mdef;
        args;
        svc_id = service_id;
        reply_src = Net.Frame.dst_endpoint frame;
        reply_dst = Net.Frame.src_endpoint frame;
        full_body = Bytes.empty;
      };
    let w = Hashtbl.find t.by_service service_id in
    let msg = Rx_core.control_request t.cc entry mdef wire in
    if not (Endpoint.deliver w.wep msg) then begin
      Hashtbl.remove t.inflight rpc_id;
      Rx_core.count t.core "nic_queue_drop";
      Obs.Metrics.incr t.cc.m_drop_full
    end
  end

(* ---------- Crash/restart lifecycle ---------- *)

let worker_of t ~service_id =
  match Hashtbl.find_opt t.by_service service_id with
  | Some w -> w
  | None ->
      invalid_arg
        (Printf.sprintf "Static_stack: unknown service %d" service_id)

(* The ablation has no scheduler mirror, so there is no push lag to
   model: the kill both tears the process down and sweeps the NIC side
   in one step. NIC-SRAM survivors go to limbo for redelivery; staged
   requests are NACKed — never silently lost. *)
let kill_service t ~service_id =
  let w = worker_of t ~service_id in
  let proc = w.wthread.Osmodel.Proc.proc in
  if proc.Osmodel.Proc.alive then begin
    Obs.Metrics.incr t.core.m_kills;
    Osmodel.Kernel.kill t.core.kern proc;
    Hashtbl.replace t.dead service_id ();
    Rx_core.crash_sweep [| w.wep |] ~limbo:w.limbo t.inflight
      ~owned:(fun inf -> Int.equal inf.svc_id service_id)
      ~doom:(fun id inf ->
        Obs.Metrics.incr t.cc.m_stale;
        Rx_core.nack t.core ~rpc_id:id ~service_id
          ~method_id:inf.mdef.Rpc.Interface.method_id ~src:inf.reply_src
          ~dst:inf.reply_dst ~code:Rpc.Wire_format.err_dead)
  end

let restart_service t ~service_id =
  let w = worker_of t ~service_id in
  let proc = w.wthread.Osmodel.Proc.proc in
  if not proc.Osmodel.Proc.alive then begin
    Obs.Metrics.incr t.core.m_respawns;
    Osmodel.Kernel.respawn t.core.kern proc;
    Hashtbl.remove t.dead service_id;
    let name = w.wthread.Osmodel.Proc.tname in
    let affinity =
      match Hashtbl.find_opt t.core_map service_id with
      | Some c -> c
      | None -> 0
    in
    let th =
      Osmodel.Kernel.spawn t.core.kern proc ~name ~affinity (fun () ->
          worker_loop t w ())
    in
    w.wthread <- th;
    w.cpu_idx <- 0;
    Osmodel.Kernel.wake t.core.kern th;
    Rx_core.redeliver t.cc w.limbo ~deliver:(Endpoint.deliver w.wep)
      ~refuse:(fun id ->
        match Hashtbl.find_opt t.inflight id with
        | Some inf ->
            Hashtbl.remove t.inflight id;
            Rx_core.nack t.core ~rpc_id:id ~service_id
              ~method_id:inf.mdef.Rpc.Interface.method_id ~src:inf.reply_src
              ~dst:inf.reply_dst ~code:Rpc.Wire_format.err_dead
        | None -> ())
  end

(* ---------- Construction ---------- *)

(* Process-wide, like Stack's, from a base of its own. *)
let[@nondet_ok] code_space = Rx_core.code_space 0x5000_0000

let create engine ~cfg ~ncores ?kernel_costs ?(fault = Fault.Plan.none)
    ?metrics ?tracer ?sanitize ~services ~egress () =
  if List.is_empty services then
    invalid_arg "Static_stack.create: no services";
  let core =
    Rx_core.create engine ~name:"ccnic-static" ~ncores ?kernel_costs ?metrics
      ?tracer ~egress ()
  in
  let cc = Rx_core.ccnic core cfg ~fault ~salt:22 ~sanitize in
  let t =
    {
      core;
      cc;
      dmx = Demux.create ();
      inflight = Hashtbl.create 4096;
      by_service = Hashtbl.create 32;
      core_map = Hashtbl.create 32;
      dead = Hashtbl.create 8;
      mac = None;
    }
  in
  List.iteri
    (fun i sspec ->
      let svc = sspec.service in
      let cpu = i mod ncores in
      let proc =
        Osmodel.Kernel.new_process core.kern
          ~name:svc.Rpc.Interface.service_name
      in
      let wep =
        Endpoint.create cc.ha cfg ~id:i
          ~on_response:(fun r -> on_endpoint_response t r)
          ()
      in
      let w_ref = ref None in
      let body () =
        match !w_ref with
        | Some w -> worker_loop t w ()
        | None -> assert false
      in
      let wthread =
        Osmodel.Kernel.spawn core.kern proc
          ~name:(svc.Rpc.Interface.service_name ^ "-pinned")
          ~affinity:cpu body
      in
      let w = { wthread; wep; cpu_idx = 0; limbo = Queue.create () } in
      w_ref := Some w;
      Hashtbl.replace t.by_service svc.Rpc.Interface.service_id w;
      Hashtbl.replace t.core_map svc.Rpc.Interface.service_id cpu;
      Rx_core.bind_service t.dmx code_space ~port:sspec.port
        ~data_ptr:(Int64.of_int (0x7800_0000 + (i * 0x10000)))
        svc;
      Osmodel.Kernel.wake core.kern wthread)
    services;
  t.mac <- Some (Nic.Mac.create engine ~sink:(fun f -> nic_rx t f) ());
  t

let ingress t frame =
  Rx_core.trace_ingress t.core frame;
  match t.mac with
  | Some mac -> Nic.Mac.rx mac frame
  | None -> invalid_arg "Static_stack.ingress: MAC not initialised"

let driver t =
  Rx_core.driver t.core
    ~ingress:(fun f -> ingress t f)
    ~describe:(fun () ->
      Printf.sprintf "ccnic-static(%s, %d cores, %d services)"
        t.cc.cfg.Config.profile.Coherence.Interconnect.name
        (Osmodel.Kernel.ncores t.core.kern)
        (Hashtbl.length t.by_service))
