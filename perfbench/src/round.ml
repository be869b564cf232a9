(* One round: a complete, deterministic simulation of a workload's
   input, with the host cost it took. A run repeats rounds on the same
   input and reports medians. *)

type seg = {
  name : string;  (** Stack flavour, or "rack" for the whole rack. *)
  sent : int;
  completed : int;
  events : int;
  setup_s : float;
  cost : Host.cost;  (** Simulation phase only; set-up excluded. *)
}

type t = {
  sent : int;  (** Operations issued: one simulated RPC each. *)
  completed : int;
  failed : int;
      (** Operations not completed when the drain ended: lost, shed,
          abandoned, unsteered or still outstanding. *)
  conserved : bool;  (** completed + counted failures = sent. *)
  digest : string list;  (** The simulated results, as text. *)
  lat : int array;  (** Simulated latency samples (ns) behind sim_p50/p99. *)
  setup_s : float;
  cost : Host.cost;
  segs : seg list;
  steer_verify_s : float;  (** Host time verifying steering programs. *)
}

(* Collect the heap before each segment, so a segment's cost and the
   peak heap do not depend on the garbage the one before left. Not
   timed. *)
let fresh_heap () = Gc.full_major ()

let seg_total segs =
  List.fold_left (fun acc (s : seg) -> Host.add acc s.cost) Host.zero segs

(* A segment with its digest lines, its latency samples and whether it
   conserved operations. *)
type part = { seg : seg; lines : string list; lat : int array; conserved : bool }

(* A round made of [parts]; [lat] picks the samples behind sim_p50/p99.
   Verifying steering programs counts as set-up. *)
let of_parts ?(steer_verify_s = 0.) ~lat parts =
  let segs = List.map (fun p -> p.seg) parts in
  let sum f = List.fold_left (fun a s -> a + f s) 0 segs in
  let sent = sum (fun (s : seg) -> s.sent) in
  let completed = sum (fun (s : seg) -> s.completed) in
  {
    sent;
    completed;
    failed = sent - completed;
    conserved = List.for_all (fun p -> p.conserved) parts;
    digest = List.concat_map (fun p -> p.lines) parts;
    lat;
    setup_s =
      List.fold_left (fun a (s : seg) -> a +. s.setup_s) steer_verify_s segs;
    cost = seg_total segs;
    segs;
    steer_verify_s;
  }

let osmodel_kinds =
  Osmodel.Cpu_account.
    [ (User, "user"); (Kernel, "kernel"); (Spin, "spin"); (Stall, "stall") ]

(* Layer observations of a traced round. Everything here is read
   through the library's public seams: frame taps, the engine monitor,
   the stage tracer, and the counter and metrics accessors. *)
module Probe = struct
  type t = {
    frames : Net.Frame.t Queue.t;  (** Frames crossing the server edges. *)
    event_ns : Stats.Buf.t;
        (** Host ns between consecutive events of one engine. *)
    mutable peaks : int ref list;  (** Per-engine pending-event peaks. *)
    stage_ns : (string, int) Hashtbl.t;
        (** "flavour.stage" -> simulated ns spent in the stage. *)
    root_ns : (string, int) Hashtbl.t;
        (** flavour -> simulated ns of all traced RPCs. *)
    values : (string, float) Hashtbl.t;  (** Per-layer metrics by name. *)
  }

  let create () =
    {
      frames = Queue.create ();
      event_ns = Stats.Buf.create ();
      peaks = [];
      stage_ns = Hashtbl.create 32;
      root_ns = Hashtbl.create 8;
      values = Hashtbl.create 64;
    }

  let set p name v = Hashtbl.replace p.values name v

  let add p name v =
    let old = Option.value ~default:0. (Hashtbl.find_opt p.values name) in
    Hashtbl.replace p.values name (old +. v)

  let tap p (f : Net.Frame.t) = Queue.push f p.frames
  let value p name = Option.value ~default:0. (Hashtbl.find_opt p.values name)

  (* Accumulate a stack's simulated CPU ledgers; [cpu_per_rpc] divides
     by the RPCs completed across every segment of the flavour. *)
  let charge_cpu p ~flavour ~completed accounts =
    let acct = Osmodel.Cpu_account.merge accounts in
    List.iter
      (fun (kind, label) ->
        add p
          (Printf.sprintf "osmodel.%s.sim_ns.%s" flavour label)
          (float_of_int (Osmodel.Cpu_account.charged acct kind)))
      osmodel_kinds;
    add p (Printf.sprintf "osmodel.%s.rpcs" flavour) (float_of_int completed)

  let cpu_per_rpc p ~flavour =
    let rpcs = value p (Printf.sprintf "osmodel.%s.rpcs" flavour) in
    List.map
      (fun (_, label) ->
        ( Printf.sprintf "osmodel.%s.sim_ns_per_rpc.%s" flavour label,
          if rpcs > 0. then
            value p (Printf.sprintf "osmodel.%s.sim_ns.%s" flavour label) /. rpcs
          else 0. ))
      osmodel_kinds

  (* Watch an engine: its pending-queue peak always, and the host time
     between its events when [timed] (single-engine workloads only —
     on a sharded run the gaps would include barrier waits). The
     monitor's state is private to the engine, so it is safe on any
     domain. *)
  let watch p ~timed engine =
    let peak = ref 0 in
    p.peaks <- peak :: p.peaks;
    let last = ref 0L in
    Sim.Engine.set_monitor engine
      (Some
         (fun _ ->
           let n = Sim.Engine.pending engine in
           if n > !peak then peak := n;
           if timed then begin
             let now = Host.now_ns () in
             if !last <> 0L then
               Stats.Buf.push p.event_ns (Int64.to_int (Int64.sub now !last));
             last := now
           end))

  let unwatch engine = Sim.Engine.set_monitor engine None

  let pending_peak p = List.fold_left (fun acc r -> max acc !r) 0 p.peaks

  (* Fold a stack tracer's closed stage chains into per-stage sums. The
     stages of an RPC tile its latency exactly, so the shares of one
     flavour sum to 1. *)
  let collect_stages p ~flavour tracer =
    let bump tbl k v =
      Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))
    in
    List.iter
      (fun (s : Obs.Span.t) ->
        match s.Obs.Span.kind with
        | Obs.Span.Interval when Obs.Span.is_closed s ->
            if s.Obs.Span.parent = Obs.Span.no_parent then
              bump p.root_ns flavour (Obs.Span.duration s)
            else
              bump p.stage_ns
                (flavour ^ "." ^ s.Obs.Span.name)
                (Obs.Span.duration s)
        | Obs.Span.Interval | Obs.Span.Detail | Obs.Span.Instant -> ())
      (Obs.Tracer.spans tracer)

  let stage_shares p =
    Hashtbl.fold
      (fun key ns acc ->
        let flavour = List.hd (String.split_on_char '.' key) in
        match Hashtbl.find_opt p.root_ns flavour with
        | Some total when total > 0 ->
            (key, float_of_int ns /. float_of_int total) :: acc
        | Some _ | None -> acc)
      p.stage_ns []
end
