(* rack-sharded: a Cluster.Fabric rack of 16 Lauberhorn hosts behind
   the ToR switch with the round-robin balancer, mapped one host per
   shard onto the conservative-PDES engine. Open-loop clients on the
   uplink send 2.4M RPC/s rack-wide; every call arms a client timer
   (250 us x 1.5^k, 8 retries). The load is generated here, not by
   [Rack.setup_arrivals], and starts at t=0: calls issued before any
   host has registered are counted as unsteered, and their retry timer
   resends them. *)

module R = Experiments.Rack

let name = "rack-sharded"
let hosts = 16
let rate_per_s = 2_400_000.
let timeout = Sim.Units.us 250
let retries = 8
let backoff = 1.5

(* Long enough for the whole retry schedule (250 us x sum 1.5^k, k=0..8,
   about 18.7 ms) to resolve every call. *)
let drain = Sim.Units.ms 20
let max_timeout = Sim.Units.ms 8

type input = { gen : Gen.rack; horizon : Sim.Units.time }

let input ~seed ~horizon =
  { gen = Gen.rack ~seed ~rate_per_s ~horizon; horizon }

let per = Stats.per

(* Frame capture at the switch's host ports: every request the switch
   hands to a host and every reply a host hands back. *)
let capture probe fabric =
  let sw = Cluster.Fabric.switch fabric in
  let uplink_port = hosts in
  Cluster.Switch.set_hooks sw
    (Some
       {
         Cluster.Switch.on_ingress =
           (fun ~port ~time:_ f ->
             if port < uplink_port then Round.Probe.tap probe f);
         on_forward = (fun ~port:_ ~dst:_ ~time:_ _ -> ());
         on_transmit =
           (fun ~port ~time:_ f ->
             if port < uplink_port then Round.Probe.tap probe f);
       })

let observe probe (rack : R.rack) ~completed ~until =
  let p = probe in
  let fabric = rack.R.fabric in
  let st = Cluster.Switch.stats (Cluster.Fabric.switch fabric) in
  let c = rack.R.client in
  let ctl = rack.R.control in
  Round.Probe.set p "cluster.switch.frames_per_rpc"
    (per st.Cluster.Switch.delivered completed);
  Round.Probe.set p "cluster.switch.drops"
    (float_of_int
       (st.Cluster.Switch.drop_in + st.Cluster.Switch.drop_out
      + st.Cluster.Switch.unroutable + st.Cluster.Switch.port_drops
      + st.Cluster.Switch.partition_drops));
  Round.Probe.set p "cluster.control.msgs_per_ms"
    (float_of_int
       (Cluster.Control.probes_sent ctl
       + Cluster.Control.acks_received ctl
       + Cluster.Control.registrations ctl)
    /. Sim.Units.to_float_s until /. 1000.);
  Round.Probe.set p "cluster.unsteered" (float_of_int rack.R.unsteered);
  Round.Probe.set p "harness.client.timers_per_rpc"
    (per (Harness.Client.sent c + Harness.Client.retransmits c) completed);
  Round.Probe.set p "harness.client.retries"
    (float_of_int (Harness.Client.retransmits c));
  Round.Probe.set p "sim.shard.windows"
    (float_of_int (Cluster.Fabric.windows_run fabric));
  Round.Probe.set p "sim.shard.events_per_window"
    (per
       (Cluster.Fabric.events_processed fabric)
       (Cluster.Fabric.windows_run fabric));
  Round.Probe.set p "sim.shard.messages_merged"
    (float_of_int (Cluster.Fabric.messages_merged fabric));
  Array.iter
    (fun (s : Experiments.Common.server) ->
      match s.Experiments.Common.lauberhorn with
      | Some st ->
          Round.Probe.collect_stages p ~flavour:"lauberhorn"
            (Lauberhorn.Stack.tracer st)
      | None -> ())
    rack.R.servers

let round ?probe ~domains input =
  Round.fresh_heap ();
  let (rack : R.rack), setup_cost =
    Host.measure (fun () -> R.make_rack ~domains ~hosts ())
  in
  let fabric = rack.R.fabric in
  let master = Cluster.Fabric.master_engine fabric in
  let setup = rack.R.servers.(0).Experiments.Common.setup in
  let service_id = Workload.Scenario.service_id_of setup ~service_idx:0 in
  let lat = Stats.Buf.create () in
  (match probe with
  | Some p ->
      capture p fabric;
      Round.Probe.watch p ~timed:false master;
      for h = 0 to hosts - 1 do
        Round.Probe.watch p ~timed:false (Cluster.Fabric.host_engine fabric h)
      done;
      Array.iter
        (fun (s : Experiments.Common.server) ->
          match s.Experiments.Common.lauberhorn with
          | Some st -> Obs.Tracer.enable (Lauberhorn.Stack.tracer st)
          | None -> ())
        rack.R.servers
  | None -> ());
  let payload = Rpc.Value.Blob (Bytes.make 64 'w') in
  Gen.drive master input.gen.Gen.calls (fun _ ->
      let t0 = Sim.Engine.now master in
      ignore
        (Harness.Client.call_id ~timeout ~retries ~backoff ~max_timeout
           rack.R.client ~service_id ~method_id:0 ~port:rack.R.service_port
           payload (fun _ -> Stats.Buf.push lat (Sim.Engine.now master - t0))));
  let until = input.horizon + drain in
  let (), cost =
    Host.measure (fun () ->
        Cluster.Fabric.run fabric ~until;
        R.finish rack)
  in
  let c = rack.R.client in
  let sent = Harness.Client.sent c in
  let completed = Harness.Client.completed c in
  let abandoned = Harness.Client.abandoned c in
  let outstanding = Harness.Client.outstanding c in
  let lat = Stats.Buf.to_array lat in
  let events = Cluster.Fabric.events_processed fabric in
  let conserved =
    sent = Array.length input.gen.Gen.calls
    && completed + abandoned + outstanding = sent
    && Array.length lat = completed
  in
  (match probe with
  | Some p ->
      List.iter Round.Probe.unwatch
        (master
        :: List.init hosts (fun h -> Cluster.Fabric.host_engine fabric h));
      observe p rack ~completed ~until
  | None -> ());
  let st = Cluster.Switch.stats (Cluster.Fabric.switch fabric) in
  let sorted = Stats.sorted lat in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let digest =
    [
      Printf.sprintf
        "client sent=%d done=%d abandoned=%d out=%d retransmits=%d \
         rejected=%d unsteered=%d p50=%d p99=%d"
        sent completed abandoned outstanding
        (Harness.Client.retransmits c)
        (Harness.Client.rejected c)
        rack.R.unsteered
        (Stats.rank_value ~p:0.5 sorted)
        (Stats.rank_value ~p:0.99 sorted);
      Printf.sprintf
        "switch in=%d out=%d drop_in=%d drop_out=%d unroutable=%d undeliv=%d"
        st.Cluster.Switch.ingressed st.Cluster.Switch.delivered
        st.Cluster.Switch.drop_in st.Cluster.Switch.drop_out
        st.Cluster.Switch.unroutable
        (Cluster.Fabric.undeliverable fabric);
      Printf.sprintf "handled [%s]" (ints rack.R.handled);
      Printf.sprintf "steered [%s]" (ints (Cluster.Control.steered rack.R.control));
      Printf.sprintf "events=%d" events;
    ]
  in
  Round.of_parts ~lat
    [
      {
        Round.seg =
          { Round.name = "rack"; sent; completed; events; setup_s = setup_cost.Host.wall; cost };
        lines = digest;
        lat;
        conserved;
      };
    ]
