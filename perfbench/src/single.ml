(* One single-host segment of a round: build a server (timed as set-up),
   drive arrivals into it, run it through the drain, and read its
   recorder. Shared by the host-mix stacks and the nic-steer halves. *)

module C = Experiments.Common

type t = {
  server : C.server;
  metrics : Obs.Metrics.t;
  part : Round.part;
}

(* [make tap metrics] builds the server; [drive server] schedules the
   [expected] arrivals. *)
let run ?probe ~name ~flavour ~expected ~until ~make drive =
  Round.fresh_heap ();
  let metrics = Obs.Metrics.create () in
  let server, setup =
    Host.measure (fun () -> make (Option.map Round.Probe.tap probe) metrics)
  in
  let lat = Stats.Buf.create () in
  Harness.Recorder.on_complete server.C.recorder (fun ~rpc_id:_ ~latency ->
      Stats.Buf.push lat latency);
  Option.iter
    (fun p ->
      Obs.Tracer.enable server.C.tracer;
      Round.Probe.watch p ~timed:true server.C.engine)
    probe;
  drive server;
  let (), cost =
    Host.measure (fun () ->
        Sim.Engine.run server.C.engine ~until;
        server.C.flush ())
  in
  let r = server.C.recorder in
  let sent = Harness.Recorder.sent r in
  let completed = Harness.Recorder.completed r in
  let outstanding = Harness.Recorder.outstanding r in
  let events = Sim.Engine.events_processed server.C.engine in
  let lat = Stats.Buf.to_array lat in
  Option.iter
    (fun p ->
      Round.Probe.unwatch server.C.engine;
      Round.Probe.charge_cpu p ~flavour ~completed
        (Osmodel.Kernel.accounts server.C.driver.Harness.Driver.kernel);
      Round.Probe.add p "nic.rx_drops"
        (float_of_int
           (Option.value ~default:0
              (List.assoc_opt "nic_ring_drops" (Obs.Metrics.to_list metrics))));
      Round.Probe.collect_stages p ~flavour server.C.tracer)
    probe;
  let sorted = Stats.sorted lat in
  let lines =
    [ Printf.sprintf "%s sent=%d done=%d out=%d unmatched=%d p50=%d p99=%d events=%d"
      name sent completed outstanding (Harness.Recorder.unmatched r)
      (Stats.rank_value ~p:0.5 sorted) (Stats.rank_value ~p:0.99 sorted) events ]
  in
  {
    server;
    metrics;
    part =
      {
        Round.seg =
          { Round.name = flavour; sent; completed; events; setup_s = setup.Host.wall; cost };
        lines;
        lat;
        conserved =
          sent = expected && completed + outstanding = sent && Array.length lat = completed;
      };
  }
