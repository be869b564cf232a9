(* nic-steer: a poll-mode bypass host whose NIC runs a statically
   verified steering program: 8 lanes, 64 client flows, 512 Zipf(1.1)
   cache keys in 64 B payloads at 2M RPC/s. The first half of the input
   runs under [rss_all], the second under [key_affinity]; the handler
   is cheap, so the per-frame receive path dominates. *)

module C = Experiments.Common
module S = Experiments.Steering

let name = "nic-steer"
let lanes = S.nlanes
let flows = S.nflows
let keys = S.nkeys
let zipf_s = S.zipf_s
let rate_per_s = 2_000_000.
let drain = Sim.Units.ms 10
let env = S.steer_env ~queues:lanes
let programs = [ Nic.Steer.rss_all; S.affinity_program ~lanes ]

type input = { gen : Gen.steer; horizon : Sim.Units.time }

let input ~seed ~horizon =
  {
    gen = Gen.steer ~seed ~rate_per_s ~horizon ~keys ~zipf_s ~flows;
    horizon;
  }

(* The two halves of the input: [first, last] index ranges and the time
   each half's server starts at. *)
let halves input =
  let at = input.gen.Gen.sat in
  let mid = input.horizon / 2 in
  let n = Array.length at in
  let split =
    let rec find i = if i < n && at.(i) <= mid then find (i + 1) else i in
    find 0
  in
  [ (0, split - 1, 0); (split, n - 1, mid) ]

let verify_all () =
  List.map
    (fun prog ->
      match Nic.Steer_verify.verify ~env prog with
      | Ok v -> v
      | Error diags ->
          failwith
            (Printf.sprintf "steering program %s rejected: %s"
               prog.Nic.Steer.name (String.concat "; " diags)))
    programs

(* The application model E20 scores: a direct-mapped key cache per
   lane, fed the captured requests of this half in arrival order on the
   lanes the compiled program picks. The NIC's own per-lane counters
   must agree with the replay. *)
let score_lanes p prog ~port ~frames_before lane_counts =
  let rss = Nic.Rss.create ~queues:lanes () in
  let lane_of = Nic.Steer.compile ~rss:(Nic.Rss.queue_of_frame rss) prog in
  let model = S.lane_model ~lanes in
  Seq.iter
    (fun (f : Net.Frame.t) ->
      if f.Net.Frame.udp.Net.Udp.dst_port = port then
        S.model_touch model ~lane:(lane_of f mod lanes) ~key:(S.key_of_wire f))
    (Seq.drop frames_before (Queue.to_seq p.Round.Probe.frames));
  Round.Probe.add p "nic.lane_hits" (float_of_int model.S.hits);
  Round.Probe.add p "nic.lane_total" (float_of_int (model.S.hits + model.S.misses));
  if not (Array.for_all2 Int.equal model.S.lane_counts lane_counts) then
    Round.Probe.add p "nic.lane_mismatch" 1.

let segment ?probe input verified (first, last, shift) =
  let g = input.gen in
  let prog = Nic.Steer_verify.program verified in
  let fleet = Workload.Scenario.echo_fleet ~n:1 ~handler_time:S.handler_time () in
  let port = Workload.Scenario.port_of fleet ~service_idx:0 in
  let service_id = Workload.Scenario.service_id_of fleet ~service_idx:0 in
  let frames_before =
    match probe with Some p -> Queue.length p.Round.Probe.frames | None -> 0
  in
  let one =
    Single.run ?probe ~name:prog.Nic.Steer.name ~flavour:"bypass"
      ~expected:(last - first + 1) ~until:((input.horizon / 2) + drain)
      ~make:(fun tap metrics ->
        C.make_server ~ncores:lanes ?tap ~metrics ~steering:verified
          (C.Bypass Coherence.Interconnect.pcie_enzian)
          fleet)
      (fun server ->
        Gen.drive ~first ~last ~shift server.C.engine g.Gen.sat (fun i ->
            Harness.Traffic.inject server.C.recorder server.C.driver
              ~rpc_id:(Int64.of_int (i + 1))
              ~service_id ~method_id:0 ~port
              ~client:(Harness.Traffic.client_endpoint ~idx:g.Gen.flow.(i) ())
              (S.key_blob g.Gen.key.(i))))
  in
  let counter = Obs.Metrics.counter_value one.Single.metrics in
  let lane_counts = Array.init lanes (fun i -> counter (Printf.sprintf "steer_lane_%d" i)) in
  let decisions = counter "steer_decisions" in
  let part = one.Single.part in
  Option.iter (fun p -> score_lanes p prog ~port ~frames_before lane_counts) probe;
  {
    part with
    Round.lines =
      part.Round.lines
      @ [
          Printf.sprintf "%s lanes [%s]" prog.Nic.Steer.name
            (String.concat "," (Array.to_list (Array.map string_of_int lane_counts)));
        ];
    (* every request steered exactly once *)
    conserved =
      part.Round.conserved
      && Array.fold_left ( + ) 0 lane_counts = decisions
      && decisions = part.Round.seg.Round.sent;
  }

(* sim_p50/p99 pool the calls of both halves. *)
let round ?probe input =
  let verified, verify = Host.measure verify_all in
  let parts = List.map2 (segment ?probe input) verified (halves input) in
  Round.of_parts parts
    ~lat:(Array.concat (List.map (fun (p : Round.part) -> p.Round.lat) parts))
    ~steer_verify_s:verify.Host.wall
