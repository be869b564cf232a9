type service_spec = { service : Rpc.Interface.service_def; port : int }

let spec ~port service = { service; port }

type poller = {
  pidx : int;
  core : int;
  mutable pthread : Osmodel.Proc.thread;
  mutable spin_since : Sim.Units.time option;
}

module Rx_core = Lauberhorn.Rx_core

type t = {
  core : Rx_core.t;
  mutable nic : Nic.Dma_nic.t option;
  sw : Costs.t;
  by_port : (int, service_spec) Hashtbl.t;
  port_to_poller : (int, int) Hashtbl.t;
  mutable pollers : poller array;
  mutable proc : Osmodel.Proc.process option;
}

let kernel t = t.core.kern
let metrics t = t.core.metrics
let tracer t = t.core.tracer
let counters t = t.core.counters

let nic t =
  match t.nic with
  | Some n -> n
  | None -> invalid_arg "Bypass_stack: NIC not initialised"

let charge_user t (p : poller) cost =
  Osmodel.Cpu_account.charge
    (Osmodel.Kernel.account t.core.kern ~core:p.core)
    Osmodel.Cpu_account.User cost

(* Run-to-completion handling of one frame on the poller's core. The
   poller thread owns its core outright, so we charge its ledger
   directly and sequence work with engine delays. *)
let rec poll_loop t p () =
  match Nic.Dma_nic.consume (nic t) ~queue:p.pidx Net.Frame.of_view with
  | Some frame ->
      let rx = t.sw.Costs.poll_rx_per_packet + t.sw.Costs.bypass_demux in
      charge_user t p rx;
      (* Capture the thread identity: if the process crashes while this
         packet is in flight, the continuation must die with it (the
         frame is already consumed from the ring, so it is simply lost —
         bypass gives the client no transport-level crash signal). *)
      let th = p.pthread in
      ignore
        (Sim.Engine.schedule_after t.core.engine ~after:rx (fun () ->
             if not (Osmodel.Proc.is_exited th) then handle t p frame))
  | None ->
      (* Park the (simulated) spin: the ring's produce callback resumes
         us and we back-charge the spin window. *)
      p.spin_since <- Some (Sim.Engine.now t.core.engine)

and drop t p reason =
  Rx_core.drop t.core reason;
  poll_loop t p ()

and handle t p frame =
  match Rx_core.header frame with
  | Error _ -> drop t p Rx_core.Bad_rpc
  | Ok wire -> (
      (* DMA delivery + poll-loop spin + per-packet rx cost. *)
      Rx_core.span t.core ~rpc:wire.Rpc.Wire_format.rpc_id "poll_rx";
      match
        Hashtbl.find_opt t.by_port frame.Net.Frame.udp.Net.Udp.dst_port
      with
      | None -> drop t p Rx_core.No_service
      | Some sspec -> (
          match Rx_core.classify sspec.service wire with
          | Rx_core.Reject r -> drop t p r
          | Rx_core.Call (mdef, args) -> execute t p frame wire mdef args))

and execute t p frame (wire : Rpc.Wire_format.t) mdef args =
  let work = Rx_core.handler_cost mdef wire args in
  charge_user t p work;
  let th = p.pthread in
  ignore
    (Sim.Engine.schedule_after t.core.engine ~after:work (fun () ->
         if not (Osmodel.Proc.is_exited th) then begin
           Rx_core.span t.core ~rpc:wire.Rpc.Wire_format.rpc_id "app";
           let result = mdef.Rpc.Interface.execute args in
           let body = Rpc.Codec.encode result in
           let marshal =
             Rx_core.marshal_cost result body + t.sw.Costs.doorbell
           in
           charge_user t p marshal;
           ignore
             (Sim.Engine.schedule_after t.core.engine ~after:marshal (fun () ->
                  if not (Osmodel.Proc.is_exited th) then begin
                    let out = Rx_core.response_to frame wire body in
                    let rpc = wire.Rpc.Wire_format.rpc_id in
                    Rx_core.span t.core ~rpc "marshal";
                    Nic.Dma_nic.transmit (nic t) out ~via:(fun f ->
                        Rx_core.span t.core ~rpc "tx_dma";
                        Rx_core.transmit t.core ~rpc f);
                    Rx_core.count t.core "rpcs_handled";
                    poll_loop t p ()
                  end))
         end))

let resume_from_spin t p () =
  if Osmodel.Proc.is_exited p.pthread then ()
  else
  match p.spin_since with
  | None -> ()
  | Some start ->
      p.spin_since <- None;
      let spun = Sim.Engine.now t.core.engine - start in
      (* Round up to whole poll iterations — the packet waits for the
         current ring check to come around. *)
      let iters = 1 + (spun / max 1 t.sw.Costs.poll_iteration) in
      Osmodel.Cpu_account.charge
        (Osmodel.Kernel.account t.core.kern ~core:p.core)
        Osmodel.Cpu_account.Spin
        (iters * t.sw.Costs.poll_iteration);
      let th = p.pthread in
      ignore
        (Sim.Engine.schedule_after t.core.engine
           ~after:t.sw.Costs.poll_iteration (fun () ->
             if not (Osmodel.Proc.is_exited th) then poll_loop t p ()))

let create engine ~profile ~ncores ?pollers ?kernel_costs
    ?(sw_costs = Costs.default) ?(fault = Fault.Plan.none) ?metrics ?tracer
    ?sanitize ?steering ~services ~egress () =
  if List.is_empty services then
    invalid_arg "Bypass_stack.create: no services";
  let npollers = match pollers with Some n -> n | None -> ncores in
  if npollers < 1 || npollers > ncores then
    invalid_arg "Bypass_stack.create: pollers out of [1, ncores]";
  let core =
    Rx_core.create engine ~name:"bypass" ~ncores ?kernel_costs ?metrics
      ?tracer ~egress ()
  in
  let metrics = core.metrics in
  let t =
    {
      core;
      nic = None;
      sw = sw_costs;
      by_port = Hashtbl.create 64;
      port_to_poller = Hashtbl.create 64;
      pollers = [||];
      proc = None;
    }
  in
  (* One RX queue per poller; interrupts permanently masked. *)
  let nic_config =
    {
      Nic.Dma_nic.default_config with
      Nic.Dma_nic.nqueues = npollers;
      coalesce_interval = 0;
    }
  in
  let dnic =
    Nic.Dma_nic.create engine profile ~config:nic_config ~fault ~metrics
      ~on_rx_interrupt:(fun ~queue:_ -> ())
      ()
  in
  for q = 0 to npollers - 1 do
    Nic.Dma_nic.mask_irq dnic ~queue:q
  done;
  t.nic <- Some dnic;
  Rx_core.watch_rx_pool core sanitize dnic;
  (* Static service -> poller assignment, round robin. *)
  List.iteri
    (fun i sspec ->
      Hashtbl.replace t.by_port sspec.port sspec;
      Hashtbl.replace t.port_to_poller sspec.port (i mod npollers))
    services;
  (match steering with
  | Some verified ->
      (* Application-defined receive-side steering: a statically
         verified program replaces the port→poller flow director. *)
      Nic.Steer_verify.install ~metrics ~nic:dnic verified
  | None ->
      (* Legacy flow director: each service's port to its poller's
         queue. Predates the verified steering path; raw table write
         reviewed — total (default queue 0), in-range by construction
         (poller index mod npollers), zero per-packet cost charged. *)
      (Nic.Dma_nic.set_steering dnic (fun frame ->
           match
             Hashtbl.find_opt t.port_to_poller
               frame.Net.Frame.udp.Net.Udp.dst_port
           with
           | Some q -> q
           | None -> 0)
       [@steer_seam]));
  (* Spawn pinned poller threads. *)
  let proc = Osmodel.Kernel.new_process core.kern ~name:"bypass-app" in
  t.proc <- Some proc;
  t.pollers <-
    Array.init npollers (fun pidx ->
        let p_ref = ref None in
        let body () =
          match !p_ref with
          | Some p -> poll_loop t p ()
          | None -> assert false
        in
        let pthread =
          Osmodel.Kernel.spawn core.kern proc
            ~name:(Printf.sprintf "poller%d" pidx)
            ~affinity:pidx body
        in
        let p = { pidx; core = pidx; pthread; spin_since = None } in
        p_ref := Some p;
        p);
  Array.iter
    (fun p ->
      let ring = Nic.Dma_nic.rx_ring dnic ~queue:p.pidx in
      Nic.Ring.on_produce ring (fun () -> resume_from_spin t p ());
      Osmodel.Kernel.wake core.kern p.pthread)
    t.pollers;
  t

let ingress t frame =
  Rx_core.trace_ingress t.core frame;
  Nic.Dma_nic.rx_from_wire (nic t) frame

let flush_spin t =
  (* Charge the open spin window of every idle poller up to now; the
     window restarts so repeated flushes do not double-charge. *)
  let now = Sim.Engine.now t.core.engine in
  Array.iter
    (fun p ->
      match p.spin_since with
      | None -> ()
      | Some start ->
          if now > start then begin
            Osmodel.Cpu_account.charge
              (Osmodel.Kernel.account t.core.kern ~core:p.core)
              Osmodel.Cpu_account.Spin (now - start);
            p.spin_since <- Some now
          end)
    t.pollers

let check_service t ~service_id =
  let known =
    Hashtbl.fold
      (fun _ s acc ->
        acc || Int.equal s.service.Rpc.Interface.service_id service_id)
      t.by_port false
  in
  if not known then
    invalid_arg
      (Printf.sprintf "Bypass_stack: unknown service %d" service_id)

let app_proc t =
  match t.proc with
  | Some p -> p
  | None -> invalid_arg "Bypass_stack: no process"

(* A bypass app is one process that owns every ring: a crash in any
   service takes down the whole address space, pollers and all. The
   rings survive in the NIC, so arrivals during the outage accumulate
   until the ring overflows (counted by the DMA NIC) — no NACK, no
   kernel-held backlog. *)
let kill_service t ~service_id =
  check_service t ~service_id;
  let proc = app_proc t in
  if proc.Osmodel.Proc.alive then begin
    (* Close every open spin window first so the CPU ledgers account
       the time actually spent spinning before the crash. *)
    flush_spin t;
    Array.iter (fun p -> p.spin_since <- None) t.pollers;
    Osmodel.Kernel.kill t.core.kern proc;
    Obs.Metrics.incr t.core.m_kills
  end

let restart_service t ~service_id =
  check_service t ~service_id;
  let proc = app_proc t in
  if not proc.Osmodel.Proc.alive then begin
    Osmodel.Kernel.respawn t.core.kern proc;
    Obs.Metrics.incr t.core.m_respawns;
    (* Fresh poller threads on the same pinned cores; each immediately
       drains whatever survived in its RX ring. The ring on_produce
       callbacks close over the mutable poller records, so they keep
       working against the new threads. *)
    Array.iter
      (fun p ->
        let pthread =
          Osmodel.Kernel.spawn t.core.kern proc
            ~name:(Printf.sprintf "poller%d" p.pidx)
            ~affinity:p.core
            (fun () -> poll_loop t p ())
        in
        p.pthread <- pthread;
        p.spin_since <- None;
        Osmodel.Kernel.wake t.core.kern pthread)
      t.pollers
  end

let poller_of_port t ~port =
  match Hashtbl.find_opt t.port_to_poller port with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Bypass_stack: unknown port %d" port)

let driver t =
  Rx_core.driver t.core
    ~ingress:(fun f -> ingress t f)
    ~describe:(fun () ->
      Printf.sprintf "bypass(%d pollers, %d services)"
        (Array.length t.pollers) (Hashtbl.length t.by_port))
