(* The benchmark's metric catalogue: every metric's name, unit, better
   direction, clock (simulated time, host time, or a count), layer, and
   the end-to-end metric and workload it should move. METRICS.json and
   the metric lists of BENCHMARK.json are printed from this table
   ([main.exe --catalog]); the tests check that they agree. *)

type clock = Sim | Host | Count

(* The seed whose digests are committed under ref/, and a seed kept out
   of all tuning, for confirming later gain claims. *)
let default_seed = 1
let held_out_seed = 104729

type e2e = {
  name : string;
  unit_ : string;
  better : string;
  bound : float;
  clock : clock;
  meaning : string;
}

type layer = {
  lname : string;
  lunit : string;
  lbetter : string;
  lclock : clock;
  layer : string;
  moves : (string * string) list;  (** (end-to-end metric, workload) *)
}

let workloads =
  [
    ( "host-mix",
      "E7 end-system comparison: 4 receive-path stacks on one 8-core host, \
       no switch, sharding or steering program" );
    ( "rack-sharded",
      "16-host rack on the sharded engine, timed at 1 domain: windows, \
       cross-shard posts, switch, control plane and per-call client timers" );
    ( "nic-steer",
      "verified NIC steering at 64 B and 2M/s: frame parse, RSS, steering \
       programs and DMA rings dominate host time" );
  ]

let all_workloads = List.map fst workloads

let end_to_end =
  [
    {
      name = "host_rpc_per_s";
      unit_ = "1/s";
      better = "higher";
      bound = 0.25;
      clock = Host;
      meaning =
        "simulated RPCs completed per host wall-second, set-up excluded, \
         host-speed scaled (median over rounds)";
    };
    {
      name = "host_cpu_ns_per_rpc";
      unit_ = "ns";
      better = "lower";
      bound = 0.25;
      clock = Host;
      meaning =
        "process CPU time (all domains) per simulated RPC, host-speed scaled";
    };
    {
      name = "alloc_words_per_rpc";
      unit_ = "words";
      better = "lower";
      bound = 0.1;
      clock = Host;
      meaning =
        "minor-heap words allocated per simulated RPC, all domains \
         (rack-sharded: its 1-domain rounds)";
    };
    {
      name = "peak_heap_mb";
      unit_ = "MiB";
      better = "lower";
      bound = 0.15;
      clock = Host;
      meaning =
        "top major heap of a fresh process after one single-domain round";
    };
    {
      name = "setup_s";
      unit_ = "s";
      better = "lower";
      bound = 0.25;
      clock = Host;
      meaning =
        "building stacks, fabric and control plane and verifying steering \
         programs, before the first event, host-speed scaled (median over \
         rounds)";
    };
  ]

let l ?(clock = Count) ?(better = "lower") name unit_ layer moves =
  { lname = name; lunit = unit_; lbetter = better; lclock = clock; layer; moves }

let host_mix = [ "host-mix" ]
let rack = [ "rack-sharded" ]
let steer = [ "nic-steer" ]
let on metric ws = List.map (fun w -> (metric, w)) ws
let rps = "host_rpc_per_s"
let p99 = "sim_p99_us"
let flavours = [ "linux"; "bypass"; "ccnic-static"; "lauberhorn" ]

let stages =
  [
    ("linux", [ "nic_irq"; "socket"; "app"; "send"; "tx_dma" ]);
    ("bypass", [ "poll_rx"; "app"; "marshal"; "tx_dma" ]);
    ( "ccnic-static",
      [ "mac"; "nic_pipeline"; "queue"; "collect"; "handler"; "tx" ] );
    ("lauberhorn", [ "mac"; "nic_pipeline"; "queue"; "collect"; "handler"; "tx" ]);
  ]

let per_layer =
  [
    l ~clock:Sim "sim_p50_us" "us" "sim" [];
    l ~clock:Sim "sim_p99_us" "us" "sim" [];
    l "sim.events_per_rpc" "events/rpc" "sim" (on rps all_workloads);
    l ~clock:Host "sim.host_ns_per_event.p50" "ns" "sim" (on rps host_mix);
    l ~clock:Host "sim.host_ns_per_event.p99" "ns" "sim" (on rps host_mix);
    l "sim.pending_peak" "events" "sim" (on rps rack);
    l "sim.shard.windows" "count" "sim" (on rps rack);
    l ~better:"higher" "sim.shard.events_per_window" "events" "sim" (on rps rack);
    l "sim.shard.messages_merged" "count" "sim" (on rps rack);
    l ~clock:Host ~better:"higher" "sim.shard.speedup" "x" "sim" (on rps rack);
    l ~clock:Host "sim.shard.cpu_per_wall" "s/s" "sim"
      (on "host_cpu_ns_per_rpc" rack);
    l "net.frames_per_rpc" "frames/rpc" "net" (on rps all_workloads);
    l ~clock:Host "net.frame_codec_ns.64B" "ns" "net" (on rps steer);
    l ~clock:Host "net.frame_codec_ns.1400B" "ns" "net" (on rps host_mix);
    l ~clock:Host "rpc.codec_ns_per_call" "ns" "rpc" (on rps host_mix);
    l ~clock:Host "rpc.wire_hdr_ns" "ns" "rpc" (on rps host_mix);
    l ~clock:Host "nic.rss_ns_per_frame" "ns" "nic" (on rps (steer @ host_mix));
    l ~clock:Host "nic.rss_words_per_frame" "words" "nic"
      (on rps steer @ on "alloc_words_per_rpc" (steer @ host_mix));
    l ~clock:Host "nic.steer_ns_per_frame" "ns" "nic" (on rps steer);
    l ~clock:Host "nic.steer_verify_s" "s" "nic" (on "setup_s" steer);
    l ~better:"higher" "nic.lane_hit_ratio" "ratio" "nic" (on p99 steer);
    l "nic.rx_drops" "count" "nic" (on p99 steer);
  ]
  @ List.concat_map
      (fun f ->
        [
          l ~clock:Host
            (Printf.sprintf "stack.%s.host_ns_per_rpc" f)
            "ns" "stack" (on rps host_mix);
          l ~clock:Host
            (Printf.sprintf "stack.%s.words_per_rpc" f)
            "words" "stack"
            (on rps host_mix @ on "alloc_words_per_rpc" host_mix);
        ])
      flavours
  @ [
      l "stack.lauberhorn.worker_activations_per_krpc" "1/krpc" "stack"
        (on p99 host_mix);
      l "stack.lauberhorn.slow_path_dispatch_per_krpc" "1/krpc" "stack"
        (on p99 host_mix);
      l "coherence.fills_per_rpc.lauberhorn" "fills/rpc" "coherence"
        (on p99 host_mix);
      l "coherence.tryagain_per_rpc.lauberhorn" "1/rpc" "coherence"
        (on p99 host_mix);
      l "coherence.tryagain_per_rpc.ccnic-static" "1/rpc" "coherence"
        (on p99 host_mix);
    ]
  @ List.concat_map
      (fun f ->
        List.map
          (fun k ->
            l ~clock:Sim
              (Printf.sprintf "osmodel.%s.sim_ns_per_rpc.%s" f k)
              "ns" "osmodel"
              (on p99 host_mix
              @ if String.equal k "spin" then on rps host_mix else []))
          [ "user"; "kernel"; "spin"; "stall" ])
      flavours
  @ [
      l "cluster.switch.frames_per_rpc" "frames/rpc" "cluster" (on rps rack);
      l "cluster.switch.drops" "count" "cluster" (on rps rack);
      l "cluster.control.msgs_per_ms" "1/ms" "cluster" (on rps rack);
      l "cluster.unsteered" "count" "cluster" (on rps rack);
      l "harness.client.timers_per_rpc" "1/rpc" "harness" (on rps rack);
      l "harness.client.retries" "count" "harness" (on rps rack);
    ]
  @ List.concat_map
      (fun (f, names) ->
        List.map
          (fun s ->
            l ~clock:Sim
              (Printf.sprintf "stage.%s.%s.sim_share" f s)
              "ratio" "obs" (on p99 all_workloads))
          names)
      stages
  @ [
      l ~clock:Host "obs.trace_overhead" "x" "obs" [];
      l "gc.minor_collections_per_krpc" "1/krpc" "gc"
        (on rps (host_mix @ rack) @ on "alloc_words_per_rpc" (host_mix @ rack));
      l "gc.promoted_words_per_rpc" "words" "gc"
        (on rps (host_mix @ rack) @ on "alloc_words_per_rpc" (host_mix @ rack));
      l "gc.major_collections" "count" "gc"
        (on rps (host_mix @ rack) @ on "alloc_words_per_rpc" (host_mix @ rack));
    ]

(* A metric name: 1-64 letters, digits, '_', '.' and '-', starting with a
   letter or digit. *)
let valid_name s =
  let ok c =
    match c with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all ok s

let clock_name = function Sim -> "sim" | Host -> "host" | Count -> "count"

let to_json () =
  let open Obs.Json in
  Obj
    [
      ("default_seed", Int default_seed);
      ("held_out_seed", Int held_out_seed);
      ( "workloads",
        List (List.map (fun (n, why) -> Obj [ ("name", Str n); ("why", Str why) ]) workloads)
      );
      ( "end_to_end",
        List
          (List.map
             (fun m ->
               Obj
                 [
                   ("name", Str m.name);
                   ("unit", Str m.unit_);
                   ("better", Str m.better);
                   ("bound", Float m.bound);
                   ("clock", Str (clock_name m.clock));
                   ("meaning", Str m.meaning);
                 ])
             end_to_end) );
      ( "per_layer",
        List
          (List.map
             (fun m ->
               Obj
                 [
                   ("name", Str m.lname);
                   ("unit", Str m.lunit);
                   ("better", Str m.lbetter);
                   ("clock", Str (clock_name m.lclock));
                   ("layer", Str m.layer);
                   ( "moves",
                     List
                       (List.map
                          (fun (metric, w) ->
                            Obj [ ("metric", Str metric); ("workload", Str w) ])
                          m.moves) );
                 ])
             per_layer) );
    ]
