(* One benchmark run: generate the workload's input from the seed, repeat
   rounds of it for the requested time, check the simulated results,
   and compute the metrics. *)

type size = Full | Small

(* Plays one round. [true] selects the workload's main configuration,
   the one every timed round runs; [false] its alternative (the rack at
   2 domains), whose simulated results must be identical. *)
type player = bool -> ?probe:Round.Probe.t -> unit -> Round.t

type workload = {
  name : string;
  horizon : size -> Sim.Units.time;
  lanes : int;  (** NIC queues the layer replays model. *)
  prepare : seed:int -> horizon:Sim.Units.time -> player;
      (** Builds the input once and returns its player. *)
  has_alt : bool;  (** Whether the alternative configuration differs. *)
}

let host_mix =
  {
    name = Host_mix.name;
    horizon = (function Full -> Sim.Units.ms 40 | Small -> Sim.Units.ms 5);
    lanes = Host_mix.ncores;
    prepare =
      (fun ~seed ~horizon ->
        let input = Host_mix.input ~seed ~horizon in
        fun _ ?probe () -> Host_mix.round ?probe input);
    has_alt = false;
  }

let rack_sharded =
  {
    name = Rack_sharded.name;
    horizon = (function Full -> Sim.Units.ms 10 | Small -> Sim.Units.ms 1);
    lanes = 8;
    prepare =
      (fun ~seed ~horizon ->
        let input = Rack_sharded.input ~seed ~horizon in
        fun main ?probe () ->
          Rack_sharded.round ?probe ~domains:(if main then 1 else 2) input);
    has_alt = true;
  }

let nic_steer =
  {
    name = Nic_steer.name;
    horizon = (function Full -> Sim.Units.ms 40 | Small -> Sim.Units.ms 2);
    lanes = Nic_steer.lanes;
    prepare =
      (fun ~seed ~horizon ->
        let input = Nic_steer.input ~seed ~horizon in
        fun _ ?probe () -> Nic_steer.round ?probe input);
    has_alt = false;
  }

let workloads = [ host_mix; rack_sharded; nic_steer ]
let find name = List.find_opt (fun w -> String.equal w.name name) workloads

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  notes : string list;  (** Human-readable lines printed before the result. *)
  digest : string list;  (** Round 0's simulated results. *)
}

let per = Stats.per
let fper = Stats.fper

let unit_of name =
  match
    List.find_opt
      (fun (m : Catalog.e2e) -> String.equal m.Catalog.name name)
      Catalog.end_to_end
  with
  | Some m -> m.Catalog.unit_
  | None -> (
      match
        List.find_opt
          (fun (m : Catalog.layer) -> String.equal m.Catalog.lname name)
          Catalog.per_layer
      with
      | Some m -> m.Catalog.lunit
      | None -> invalid_arg ("unknown metric " ^ name))

type gc = { minor : int; promoted : float; major : int }

(* A measured round, the host-speed scale it ran at (see
   [Host.reference_work]), and its GC activity. Its host times are
   multiplied by [scale]. *)
type timed = { r : Round.t; scale : float; ref_s : float; gc : gc }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_collections;
    promoted = s.Gc.promoted_words;
    major = s.Gc.major_collections;
  }

(* Play a round between two runs of the reference computation: [before]
   is its time just before the round (in a series of rounds, the run
   that followed the previous round), and the time of the run just after
   is returned for the next round. The round's scale is the reference's
   nominal time over the mean of the two, so a change in host speed that
   lasts about a round cancels out; the shared host this was tuned on
   changed speed by up to 30% within seconds. *)
let timed_round ?probe (play : player) main ~before =
  let g0 = gc_now () in
  let r = play main ?probe () in
  let g1 = gc_now () in
  let gc =
    {
      minor = g1.minor - g0.minor;
      promoted = g1.promoted -. g0.promoted;
      major = g1.major - g0.major;
    }
  in
  let after = Host.reference_s () in
  let ref_s = (before +. after) /. 2. in
  ({ r; scale = Host.nominal_reference_s /. ref_s; ref_s; gc }, after)

let median_of f ts = Stats.median (List.map f ts)

(* Per-layer metrics of a traced run: one traced round, replays of its
   captured frames, and medians over the untraced [rounds]. [scale], the
   median scale of the rounds, scales the replays' host times. *)
let layer_metrics w ~play ~account ~problem ~same_digest ~first ~rounds
    ~alt_rounds ~scale ~sim_p50 ~sim_p99 =
  let wall t = t.r.Round.cost.Host.wall *. t.scale in
  let p = Round.Probe.create () in
  let traced, _ =
    timed_round ~probe:p play true ~before:(Host.reference_s ())
  in
  account traced.r;
  same_digest "traced" traced.r;
  if Hashtbl.mem p.Round.Probe.values "nic.lane_mismatch" then
    problem "NIC lane counters disagree with the replayed steering program";
  let med f = median_of f rounds in
  (* A stack's cost per RPC over all its segments of a round. *)
  let stack_med name f =
    med (fun t ->
        match
          List.filter
            (fun (s : Round.seg) -> String.equal s.Round.name name)
            t.r.Round.segs
        with
        | [] -> 0.
        | segs ->
            let done_ =
              List.fold_left
                (fun a (s : Round.seg) -> a + s.Round.completed)
                0 segs
            in
            f t (Round.seg_total segs) done_)
  in
  let events =
    List.fold_left
      (fun a (s : Round.seg) -> a + s.Round.events)
      0 first.Round.segs
  in
  let frames = List.of_seq (Queue.to_seq p.Round.Probe.frames) in
  let lane_total = Round.Probe.value p "nic.lane_total" in
  let ev = Stats.sorted (Stats.Buf.to_array p.Round.Probe.event_ns) in
  let ev_pct q = scale *. Option.value ~default:0. (Stats.percentile ~p:q ev) in
  let measured =
    [
      ("sim_p50_us", sim_p50);
      ("sim_p99_us", sim_p99);
      ("sim.events_per_rpc", per events first.Round.completed);
      ("sim.host_ns_per_event.p50", ev_pct 0.5);
      ("sim.host_ns_per_event.p99", ev_pct 0.99);
      ("sim.pending_peak", float_of_int (Round.Probe.pending_peak p));
      ( "sim.shard.speedup",
        if w.has_alt then med wall /. median_of wall alt_rounds else 0. );
      ( "sim.shard.cpu_per_wall",
        if w.has_alt then
          median_of
            (fun t -> t.r.Round.cost.Host.cpu /. t.r.Round.cost.Host.wall)
            alt_rounds
        else 0. );
      ("net.frames_per_rpc", per (List.length frames) traced.r.Round.completed);
      ( "nic.lane_hit_ratio",
        if lane_total > 0. then Round.Probe.value p "nic.lane_hits" /. lane_total
        else 0. );
      ( "nic.steer_verify_s",
        med (fun t -> t.r.Round.steer_verify_s *. t.scale) );
      ("obs.trace_overhead", wall traced /. med wall);
      ( "gc.minor_collections_per_krpc",
        med (fun t -> 1000. *. per t.gc.minor t.r.Round.completed) );
      ( "gc.promoted_words_per_rpc",
        med (fun t -> fper t.gc.promoted t.r.Round.completed) );
      ("gc.major_collections", med (fun t -> float_of_int t.gc.major));
    ]
    @ List.concat_map
        (fun f ->
          [
            ( Printf.sprintf "stack.%s.host_ns_per_rpc" f,
              stack_med f (fun t c d -> fper (c.Host.wall *. t.scale *. 1e9) d)
            );
            ( Printf.sprintf "stack.%s.words_per_rpc" f,
              stack_med f (fun _ c d -> fper c.Host.words d) );
          ])
        Catalog.flavours
    @ List.map
        (fun (name, x) ->
          (name, if String.equal (unit_of name) "ns" then x *. scale else x))
        (Layers.replay ~lanes:w.lanes frames)
    @ List.concat_map
        (fun f -> Round.Probe.cpu_per_rpc p ~flavour:f)
        Catalog.flavours
    @ List.map
        (fun (k, s) -> ("stage." ^ k ^ ".sim_share", s))
        (Round.Probe.stage_shares p)
  in
  (* Every catalogued layer metric is printed; one this workload does not
     exercise reads 0. *)
  List.map
    (fun (m : Catalog.layer) ->
      let name = m.Catalog.lname in
      match List.assoc_opt name measured with
      | Some x -> (name, x)
      | None -> (name, Round.Probe.value p name))
    Catalog.per_layer

(* Run [w] for [seconds] of measured rounds. [reference], when given, is
   the digest the simulated results must reproduce. *)
let run ?(min_rounds = 3) ~size ~seed ~seconds ~trace ~reference w =
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let play = w.prepare ~seed ~horizon:(w.horizon size) in
  let attempted = ref 0 and failed = ref 0 in
  let account (r : Round.t) =
    attempted := !attempted + r.Round.sent;
    failed := !failed + r.Round.failed;
    if not r.Round.conserved then
      problem "conservation broken: done + failures <> sent"
  in
  (* Round 0 warms caches and fixes the digest, which every other round
     must reproduce exactly; it is not timed. *)
  let first = play true () in
  account first;
  (* The top heap of one single-domain round in a fresh process. *)
  let peak_heap_mb = Host.peak_heap_mb () in
  let same_digest label (r : Round.t) =
    if not (List.equal String.equal first.Round.digest r.Round.digest) then
      problem "%s: digest differs from round 0" label
  in
  (match reference with
  | Some lines when not (List.equal String.equal lines first.Round.digest) ->
      problem "digest differs from the committed reference"
  | Some _ | None -> ());
  List.iter (note "digest %s") first.Round.digest;
  (* Measured rounds, all in the main configuration. The trace run
     alternates them with alternative-configuration rounds for the
     speedup figure. *)
  let rounds = ref [] and alt_rounds = ref [] in
  let t0 = Host.wall_s () in
  let k = ref 0 in
  let reference = ref (Host.reference_s ()) in
  while Host.wall_s () -. t0 < seconds || List.length !rounds < min_rounds do
    let alt = trace && w.has_alt && !k mod 2 = 1 in
    let t, after = timed_round play (not alt) ~before:!reference in
    reference := after;
    account t.r;
    same_digest "repeat" t.r;
    if alt then alt_rounds := t :: !alt_rounds else rounds := t :: !rounds;
    incr k
  done;
  let rounds = List.rev !rounds and alt_rounds = List.rev !alt_rounds in
  (* The untraced run checks the alternative configuration once, after
     the timed rounds and untimed: the 2-domain rack runs a coordinator
     and two worker domains, more threads than a small host has cores,
     so its wall time would measure the host's scheduler more than the
     simulator. *)
  if w.has_alt && not trace then begin
    let r = play false () in
    account r;
    same_digest "alternative configuration" r
  end;
  let med f = median_of f rounds in
  let scale = med (fun t -> t.scale) in
  let rpc_per_s scale t =
    float_of_int t.r.Round.completed /. (t.r.Round.cost.Host.wall *. scale t)
  in
  let cpu_ns_per_rpc scale t =
    fper (t.r.Round.cost.Host.cpu *. scale t *. 1e9) t.r.Round.completed
  in
  let scaled t = t.scale and raw _ = 1. in
  note "rounds %d: raw wall s %s" (List.length rounds)
    (String.concat " "
       (List.map
          (fun t -> Printf.sprintf "%.3f" t.r.Round.cost.Host.wall)
          rounds));
  note "host speed scale %.4f median (reference %.4f s nominal, %.4f s median)"
    scale Host.nominal_reference_s
    (med (fun t -> t.ref_s));
  note "raw host_rpc_per_s %.1f, raw host_cpu_ns_per_rpc %.1f"
    (med (rpc_per_s raw)) (med (cpu_ns_per_rpc raw));
  (* Simulated latency: deterministic for a seed, so the digest guards it
     exactly; printed with its sample counts. *)
  let lat = Stats.sorted first.Round.lat in
  let pct name p =
    let n = Array.length lat in
    match Stats.percentile ~p lat with
    | Some v ->
        note "%s %.4f us over %d samples (%d beyond)" name (v /. 1000.) n
          (n - 1 - int_of_float (Float.ceil (p *. float_of_int (n - 1))));
        v /. 1000.
    | None ->
        problem "%s rests on fewer than 10 samples beyond it" name;
        nan
  in
  let sim_p50 = pct "sim_p50_us" 0.5 in
  let sim_p99 = pct "sim_p99_us" 0.99 in
  let metrics =
    if trace then
      layer_metrics w ~play ~account ~problem:(problem "%s") ~same_digest
        ~first ~rounds ~alt_rounds ~scale ~sim_p50 ~sim_p99
    else
      [
        ("host_rpc_per_s", med (rpc_per_s scaled));
        ("host_cpu_ns_per_rpc", med (cpu_ns_per_rpc scaled));
        ( "alloc_words_per_rpc",
          med (fun t -> fper t.r.Round.cost.Host.words t.r.Round.completed) );
        ("peak_heap_mb", peak_heap_mb);
        ("setup_s", med (fun t -> t.r.Round.setup_s *. t.scale));
      ]
  in
  let problems = List.rev !problems in
  List.iter (note "CHECK FAILED: %s") problems;
  let correct = match problems with [] -> true | _ :: _ -> false in
  {
    correct;
    attempted = !attempted;
    failed = (if correct then !failed else !attempted);
    metrics = List.map (fun (n, x) -> (n, x, unit_of n)) metrics;
    notes = List.rev !notes;
    digest = first.Round.digest;
  }

let json r =
  let open Obs.Json in
  let value x = if Float.is_finite x then Float x else Null in
  to_string
    (Obj
       [
         ("correct", Bool r.correct);
         ("attempted", Int r.attempted);
         ("failed", Int r.failed);
         ( "metrics",
           Obj
             (List.map
                (fun (n, x, u) -> (n, Obj [ ("value", value x); ("unit", Str u) ]))
                r.metrics) );
       ])
