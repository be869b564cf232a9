type service_spec = {
  service : Rpc.Interface.service_def;
  port : int;
  threads : int;
}

let spec ?(threads = 2) ~port service =
  if threads < 1 then invalid_arg "Linux_stack.spec: threads < 1";
  { service; port; threads }

type service_rt = {
  sspec : service_spec;
  socket : Net.Frame.t Osmodel.Socket.t;
  mutable sproc : Osmodel.Proc.process option;
      (* retained for crash/restart (threads are reachable through it) *)
}

module Rx_core = Lauberhorn.Rx_core

type t = {
  core : Rx_core.t;
  mutable nic : Nic.Dma_nic.t option;
  sw : Costs.t;
  by_port : (int, service_rt) Hashtbl.t;
}

let kernel t = t.core.kern
let metrics t = t.core.metrics
let tracer t = t.core.tracer
let counters t = t.core.counters

(* Stage boundaries inside the kernel path see only the frame; the
   wire-format decode to recover the RPC id is paid only when the
   tracer is on. *)
let span_stage_frame t frame name =
  if Obs.Tracer.is_enabled t.core.tracer then
    match Rx_core.header frame with
    | Ok w -> Rx_core.span t.core ~rpc:w.Rpc.Wire_format.rpc_id name
    | Error _ -> ()

let nic t =
  match t.nic with
  | Some n -> n
  | None -> invalid_arg "Linux_stack: NIC not initialised"

let napi_budget = 64

(* NAPI poll in softirq context on [core]: drain the ring with a
   budget, charging kernel time per packet; unmask when empty. The
   descriptor's bytes are parsed in place and its pooled buffer is
   recycled before the softirq delay elapses, so only frames with a
   registered consumer are copied out of the ring. *)
let rec napi t ~core ~queue ~budget () =
  match
    Nic.Dma_nic.consume (nic t) ~queue (fun v ->
        match Hashtbl.find_opt t.by_port v.Net.Frame.udp.Net.Udp.dst_port with
        | None -> None
        | Some rt -> Some (rt, Net.Frame.of_view v))
  with
  | None -> Nic.Dma_nic.unmask_irq (nic t) ~queue
  | Some delivery ->
      let cost = t.sw.Costs.softirq_per_packet + t.sw.Costs.socket_demux in
      Osmodel.Cpu_account.charge
        (Osmodel.Kernel.account t.core.kern ~core)
        Osmodel.Cpu_account.Kernel cost;
      ignore
        (Sim.Engine.schedule_after t.core.engine ~after:cost (fun () ->
             (match delivery with
             | None -> Rx_core.drop t.core Rx_core.No_service
             | Some (rt, frame) ->
                 (* MAC + DMA + interrupt + softirq, attributed at the
                    moment the frame reaches its socket. *)
                 span_stage_frame t frame "nic_irq";
                 Osmodel.Socket.enqueue rt.socket frame);
             if budget > 1 then napi t ~core ~queue ~budget:(budget - 1) ()
             else begin
               (* Budget exhausted: ksoftirqd would take over; model as
                  continued polling after a reschedule-sized gap. *)
               Rx_core.count t.core "napi_budget_exhausted";
               ignore
                 (Sim.Engine.schedule_after t.core.engine
                    ~after:
                      (Osmodel.Kernel.costs t.core.kern).Osmodel.Kernel.syscall
                    (napi t ~core ~queue ~budget:napi_budget))
             end))

let on_rx_interrupt t ~queue =
  Nic.Dma_nic.mask_irq (nic t) ~queue;
  Rx_core.count t.core "interrupts";
  Osmodel.Kernel.run_irq t.core.kern ~cost:(Sim.Units.ns 700)
    (fun ~core -> napi t ~core ~queue ~budget:napi_budget ())

(* One blocking server thread: recvfrom -> unmarshal -> handler ->
   marshal -> sendto -> doorbell -> NIC TX. *)
let rec server_loop t rt th () =
  Osmodel.Socket.recv rt.socket th (fun frame ->
      let payload = frame.Net.Frame.payload in
      let copy_cost =
        int_of_float
          (Float.round
             (t.sw.Costs.recv_copy_per_byte
             *. float_of_int (Bytes.length payload)))
      in
      Osmodel.Kernel.run_for t.core.kern th ~kind:Osmodel.Cpu_account.Kernel
        copy_cost (fun () ->
          match Rx_core.header frame with
          | Error _ ->
              Rx_core.drop t.core Rx_core.Bad_rpc;
              server_loop t rt th ()
          | Ok wire -> handle_rpc t rt th frame wire))

and handle_rpc t rt th frame (wire : Rpc.Wire_format.t) =
  (* Socket wait + wakeup + recv copy + header decode. *)
  Rx_core.span t.core ~rpc:wire.Rpc.Wire_format.rpc_id "socket";
  match Rx_core.classify rt.sspec.service wire with
  | Rx_core.Reject r ->
      Rx_core.drop t.core r;
      server_loop t rt th ()
  | Rx_core.Call (mdef, args) ->
      Osmodel.Kernel.run_for t.core.kern th ~kind:Osmodel.Cpu_account.User
        (Rx_core.handler_cost mdef wire args) (fun () ->
          let result = mdef.Rpc.Interface.execute args in
          let body = Rpc.Codec.encode result in
          Osmodel.Kernel.run_for t.core.kern th ~kind:Osmodel.Cpu_account.User
            (Rx_core.marshal_cost result body) (fun () ->
              send_reply t rt th frame wire body))

and send_reply t rt th frame wire body =
  (* Deserialize + handler + marshal, all user time. *)
  let rpc = wire.Rpc.Wire_format.rpc_id in
  Rx_core.span t.core ~rpc "app";
  let send_cost =
    t.sw.Costs.send_path
    + int_of_float
        (Float.round
           (t.sw.Costs.send_copy_per_byte *. float_of_int (Bytes.length body)))
    + t.sw.Costs.doorbell
  in
  Osmodel.Kernel.run_for t.core.kern th ~kind:Osmodel.Cpu_account.Kernel
    send_cost (fun () ->
      let out = Rx_core.response_to frame wire body in
      Rx_core.span t.core ~rpc "send";
      Nic.Dma_nic.transmit (nic t) out ~via:(fun f ->
          Rx_core.span t.core ~rpc "tx_dma";
          Rx_core.transmit t.core ~rpc f);
      server_loop t rt th ())

let spawn_server_threads t rt proc =
  for i = 0 to rt.sspec.threads - 1 do
    let th_ref = ref None in
    let body () =
      match !th_ref with
      | Some th -> server_loop t rt th ()
      | None -> assert false
    in
    let th =
      Osmodel.Kernel.spawn t.core.kern proc
        ~name:
          (Printf.sprintf "%s-t%d" rt.sspec.service.Rpc.Interface.service_name
             i)
        body
    in
    th_ref := Some th;
    Osmodel.Kernel.wake t.core.kern th
  done

(* Crash/restart lifecycle. A killed Linux service gives the client NO
   transport-level signal: in-socket datagrams stay queued (the kernel
   owns the socket buffer) and in-handler requests vanish with the
   process — clients discover the crash only by timeout. That silence
   is the baseline the NACKing stacks are contrasted against. *)
let service_rt_by_id t ~service_id =
  let found = ref None in
  Hashtbl.iter
    (fun _port rt ->
      if Int.equal rt.sspec.service.Rpc.Interface.service_id service_id then
        found := Some rt)
    t.by_port;
  match !found with
  | Some rt -> rt
  | None ->
      invalid_arg (Printf.sprintf "Linux_stack: unknown service %d" service_id)

let kill_service t ~service_id =
  let rt = service_rt_by_id t ~service_id in
  match rt.sproc with
  | Some proc when proc.Osmodel.Proc.alive ->
      Obs.Metrics.incr t.core.m_kills;
      Osmodel.Kernel.kill t.core.kern proc
  | Some _ | None -> ()

let restart_service t ~service_id =
  let rt = service_rt_by_id t ~service_id in
  match rt.sproc with
  | Some proc when not proc.Osmodel.Proc.alive ->
      Obs.Metrics.incr t.core.m_respawns;
      Osmodel.Kernel.respawn t.core.kern proc;
      (* Fresh threads; the socket and its backlog survived the crash,
         so queued datagrams are served first. *)
      spawn_server_threads t rt proc
  | Some _ | None -> ()

let create engine ~profile ~ncores ?kernel_costs ?(sw_costs = Costs.default)
    ?nic_config ?(fault = Fault.Plan.none) ?metrics ?tracer ?sanitize
    ~services ~egress
    () =
  if List.is_empty services then
    invalid_arg "Linux_stack.create: no services";
  let core =
    Rx_core.create engine ~name:"linux" ~ncores ?kernel_costs ?metrics ?tracer
      ~egress ()
  in
  let t = { core; nic = None; sw = sw_costs; by_port = Hashtbl.create 64 } in
  let nic_config =
    match nic_config with Some c -> c | None -> Nic.Dma_nic.default_config
  in
  let dnic =
    Nic.Dma_nic.create engine profile ~config:nic_config ~fault
      ~metrics:core.metrics
      ~on_rx_interrupt:(fun ~queue -> on_rx_interrupt t ~queue)
      ()
  in
  t.nic <- Some dnic;
  Rx_core.watch_rx_pool core sanitize dnic;
  List.iter
    (fun sspec ->
      let rt =
        { sspec; socket = Osmodel.Socket.create core.kern (); sproc = None }
      in
      if Hashtbl.mem t.by_port sspec.port then
        invalid_arg
          (Printf.sprintf "Linux_stack.create: port %d taken" sspec.port);
      Hashtbl.add t.by_port sspec.port rt;
      let proc =
        Osmodel.Kernel.new_process core.kern
          ~name:sspec.service.Rpc.Interface.service_name
      in
      rt.sproc <- Some proc;
      spawn_server_threads t rt proc)
    services;
  t

let ingress t frame =
  Rx_core.trace_ingress t.core frame;
  Nic.Dma_nic.rx_from_wire (nic t) frame

let driver t =
  Rx_core.driver t.core
    ~ingress:(fun f -> ingress t f)
    ~describe:(fun () ->
      Printf.sprintf "linux(%d cores, %d services)"
        (Osmodel.Kernel.ncores t.core.kern)
        (Hashtbl.length t.by_port))
