(* Domain-sharded conservative PDES over an array of per-shard
   engines.

   The model: each shard (a simulated host, or an isolated pipeline
   stage) owns a private {!Engine} and shares no mutable simulation
   state with any other shard. The only inter-shard channel is
   {!post}, which carries a closure across the wire with a delivery
   time at least [lookahead] past the sender's clock — the classic
   conservative-PDES contract, with the lookahead equal to the
   inter-shard wire latency.

   Execution proceeds in barrier-synchronized windows:

   {v
     a  = min over shards of next pending event time
     window = [a, a + lookahead - 1]          (inclusive)
     every shard runs its own events inside the window, in parallel
     barrier; deliver posted messages; repeat
   v}

   Safety: any message posted during a window has delivery time
   [>= sender clock + lookahead > a + lookahead - 1], i.e. strictly
   beyond the window — so no shard can receive, during a window, a
   message that should have preempted an event it already ran. This is
   why windows need no rollback and the engine stays deterministic.
   It also guarantees progress: each window advances the global clock
   floor by at least one lookahead.

   Determinism, the stronger property this repo leans on: the output
   is byte-identical for ANY domain count, including 1.

   - Within a shard, events run on that shard's engine in (time, seq)
     order; which OS thread hosts the engine is invisible to it.
   - Cross-shard messages are collected at the barrier and delivered
     by the coordinator alone, ordered by [(delivery time, source
     shard, posting order)]. Each per-source outbox is appended only
     by the domain running that source, so the posting order is the
     source's deterministic execution order, and the merged order is a
     pure function of the simulation — not of thread scheduling.
   - Delivery = [Engine.schedule_at] in merged order, so destination
     tie-break seqs are assigned identically every run.

   The barrier discipline (coordinator writes control fields only
   between a done-wait and the next start-wait, workers read them only
   after the start-wait) makes the plain mutable fields data-race
   free; the barrier's mutex provides the happens-before edges. *)

type outbox_item = {
  at : Units.time;
  src : int;
  dst : int;
  fn : unit -> unit;
}

type probe =
  shard:int -> window_end:Units.time -> events:int -> posted:int -> unit

type t = {
  engines : Engine.t array;
  lookahead : Units.duration;
      (* conservative window width: the uniform lookahead, or the
         minimum entry of the latency matrix *)
  latency : Units.duration array array option;
      (* per-pair wire latencies; [None] means uniform [lookahead] *)
  domains : int;
  (* per-source outboxes, reverse posting order; outbox.(s) is written
     only by the domain currently running shard [s], and drained by
     the coordinator at barriers *)
  outbox : outbox_item list array;
  mutable windows : int;
  mutable merged : int;
  (* window control block, written by the coordinator between barrier
     epochs (see the module comment for the discipline) *)
  mutable window_end : Units.time;
  mutable stop : bool;
  (* per-(shard, window) profiler hook; [None] (the default) costs one
     load-and-branch per shard-window. Invoked by whichever domain
     runs the shard, with sim-time-deterministic arguments only — the
     callee owns per-shard storage (see Obs.Profiler). *)
  mutable profiler : probe option;
  (* wire-fault seam; [None] (the default) costs one load-and-branch
     per post. Consulted by the posting domain, so the predicate must
     be a pure function of (src, dst, at) — typically a Fault.Plan
     schedule — and any counting it does must live in per-src storage
     touched only by the posting domain (the outbox discipline). *)
  mutable wire_fault : (src:int -> dst:int -> at:Units.time -> bool) option;
}

let env_domains () =
  match Sys.getenv_opt "LAUBERHORN_SHARDS" with
  | None | Some "" -> 1
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 && n <= 64 -> n
      | Some _ | None ->
          invalid_arg
            (Printf.sprintf "LAUBERHORN_SHARDS=%s: expected 1..64" s))

let make ?domains ~lookahead ~latency engines =
  if Array.length engines = 0 then
    invalid_arg "Shard_engine.create: no shards";
  if lookahead <= 0 then
    invalid_arg "Shard_engine.create: lookahead must be positive";
  let n = Array.length engines in
  let domains =
    match domains with
    | None -> min n (env_domains ())
    | Some d when d >= 1 -> min n d
    | Some d ->
        invalid_arg (Printf.sprintf "Shard_engine.create: %d domains" d)
  in
  {
    engines;
    lookahead;
    latency;
    domains;
    outbox = Array.make n [];
    windows = 0;
    merged = 0;
    window_end = 0;
    stop = false;
    profiler = None;
    wire_fault = None;
  }

let create ?domains ~lookahead engines =
  make ?domains ~lookahead ~latency:None engines

(* Per-pair lookahead: the window width is the matrix minimum — the
   rack's shortest link bounds how far any shard may safely run ahead —
   while each post is validated against its own pair's latency, so a
   model bug on a long link is caught even when it clears the global
   minimum. *)
let create_matrix ?domains ~latency engines =
  let n = Array.length engines in
  if n = 0 then invalid_arg "Shard_engine.create_matrix: no shards";
  if not (Int.equal (Array.length latency) n) then
    invalid_arg "Shard_engine.create_matrix: latency matrix is not NxN";
  let min_latency = ref max_int in
  Array.iteri
    (fun s row ->
      if not (Int.equal (Array.length row) n) then
        invalid_arg "Shard_engine.create_matrix: latency matrix is not NxN";
      Array.iteri
        (fun d l ->
          if l <= 0 then
            invalid_arg
              (Printf.sprintf
                 "Shard_engine.create_matrix: latency.(%d).(%d) = %d must be \
                  positive"
                 s d l);
          if l < !min_latency then min_latency := l)
        row)
    latency;
  make ?domains ~lookahead:!min_latency ~latency:(Some latency) engines

let shards t = Array.length t.engines
let domains t = t.domains
let set_profiler t p = t.profiler <- p
let set_wire_fault t f = t.wire_fault <- f
let lookahead t = t.lookahead
let engine t i = t.engines.(i)
let windows_run t = t.windows
let messages_merged t = t.merged

(* Post a closure from shard [src] to run on shard [dst] at absolute
   time [at]. The conservative contract demands [at] be at least one
   lookahead past the source's clock; violating it would let a window
   deliver into its own past, so it is rejected loudly. Must be called
   from [src]'s own events (or from the coordinator before [run]). *)
let post t ~src ~dst ~at fn =
  let n = Array.length t.engines in
  if src < 0 || src >= n then invalid_arg "Shard_engine.post: bad src";
  if dst < 0 || dst >= n then invalid_arg "Shard_engine.post: bad dst";
  let pair_lookahead =
    match t.latency with
    | None -> t.lookahead
    | Some m -> m.(src).(dst)
  in
  let horizon = Engine.now t.engines.(src) + pair_lookahead in
  if at < horizon then
    invalid_arg
      (Printf.sprintf
         "Shard_engine.post: delivery %d violates lookahead (src %d now %d + \
          lookahead %d = %d)"
         at src
         (Engine.now t.engines.(src))
         pair_lookahead horizon);
  (* The wire-fault seam: a cut wire swallows the message *after* the
     lookahead contract is enforced, so chaos runs still catch model
     bugs. The hook observes (and may count) the drop; dropping here —
     before the outbox — keeps faulted posts invisible to the merge
     order, which is what makes the cut deterministic per shard count. *)
  let dropped =
    match t.wire_fault with None -> false | Some f -> f ~src ~dst ~at
  in
  if not dropped then t.outbox.(src) <- { at; src; dst; fn } :: t.outbox.(src)

(* Deliver every outboxed message, in an order that is a pure function
   of the simulation state: sort by (delivery time, source shard),
   stable over each source's posting order. Coordinator only. *)
let merge t =
  let items = ref [] in
  for s = Array.length t.outbox - 1 downto 0 do
    (* rev_append un-reverses the outbox; prepending source [s] ahead
       of the already-gathered [s+1..] keeps sources ascending *)
    items := List.rev_append t.outbox.(s) !items;
    t.outbox.(s) <- []
  done;
  match !items with
  | [] -> ()
  | items ->
      let arr = Array.of_list items in
      let cmp a b =
        let c = Int.compare a.at b.at in
        if c <> 0 then c else Int.compare a.src b.src
      in
      (* stable: equal (at, src) keeps posting order *)
      Array.stable_sort cmp arr;
      Array.iter
        (fun it ->
          t.merged <- t.merged + 1;
          ignore (Engine.schedule_at t.engines.(it.dst) ~at:it.at it.fn))
        arr

(* Earliest pending event across all shards, [max_int] when every
   queue is drained; read once per window, without allocating. *)
let min_time t =
  let best = ref max_int in
  for i = 0 to Array.length t.engines - 1 do
    let tm = Engine.min_time t.engines.(i) in
    if tm < !best then best := tm
  done;
  !best

(* Run the shards owned by [worker] — indices ≡ worker (mod domains) —
   up to the current window end, in ascending shard order. *)
let run_owned t worker =
  let d = t.domains in
  let limit = t.window_end in
  let n = Array.length t.engines in
  let i = ref worker in
  while !i < n do
    (match t.profiler with
    | None -> Engine.run t.engines.(!i) ~until:limit
    | Some probe ->
        let e = t.engines.(!i) in
        let before = Engine.events_processed e in
        Engine.run e ~until:limit;
        (* the outbox was drained at the window's merge, so its length
           here is exactly what this shard posted this window *)
        probe ~shard:!i ~window_end:limit
          ~events:(Engine.events_processed e - before)
          ~posted:(List.length t.outbox.(!i)));
    i := !i + d
  done

(* One coordinator pass: deliver messages, find the next window, set
   the control block. Returns [false] when the simulation is complete
   up to [until] (all clocks advanced to the horizon). *)
let plan_window t ~until =
  merge t;
  let a = min_time t in
  t.window_end <-
    (if a < max_int && a <= until then
       (* cap at the horizon: the run must not execute past [until] *)
       min (a + t.lookahead - 1) until
     else
       (* drained (or nothing left before the horizon): fill every
          clock to the horizon, exactly like a plain [Engine.run] *)
       until);
  t.windows <- t.windows + 1;
  true

(* Completion check separate from [plan_window]: the final
   clock-filling window must still be executed by the workers. Events
   scheduled beyond the horizon stay queued — exactly as a plain
   [Engine.run ~until] leaves them — so completion only demands that
   nothing at or before [until] remains, in a queue or in flight. *)
let complete t ~until =
  Array.for_all (fun e -> Engine.now e >= until) t.engines
  && (let a = min_time t in
      Int.equal a max_int || a > until)
  && Array.for_all (fun l -> match l with [] -> true | _ :: _ -> false)
       t.outbox

(* Sequential reference: the coordinator itself runs every shard,
   window by window, in shard order. The parallel path below produces
   byte-identical output; this one exists so [domains = 1] costs no
   thread machinery and serves as the determinism oracle. *)
let run_sequential t ~until =
  let continue = ref true in
  while !continue do
    ignore (plan_window t ~until);
    run_owned t 0;
    if complete t ~until then continue := false
  done

exception Worker_failed of int * exn

(* Parallel path: [domains] worker domains, one of which is driven by
   the caller's domain after it finishes coordinating. Two barrier
   epochs per window: one releasing the workers into the window, one
   collecting them before the coordinator touches shared state. A
   worker that trips an exception records it, then keeps honouring
   barrier epochs doing no work (never abandons the protocol —
   abandoning would deadlock the rest) until the coordinator notices,
   raises the stop flag, and every domain exits at the next epoch. *)
let[@nondet_ok] run_parallel t ~until =
  let d = t.domains in
  let barrier = Barrier.create (d + 1) in
  let failures = Array.make d None in
  let worker w =
    let continue = ref true in
    while !continue do
      Barrier.await barrier (* start epoch: window is planned *);
      if t.stop then continue := false
      else begin
        (try run_owned t w
         with e -> if Option.is_none failures.(w) then failures.(w) <- Some e);
        Barrier.await barrier (* done epoch: window fully executed *)
      end
    done
  in
  let handles = Array.init d (fun w -> Domain.spawn (fun () -> worker w)) in
  let first_failure () =
    let r = ref None in
    Array.iteri
      (fun w f ->
        match (f, !r) with
        | Some e, None -> r := Some (w, e)
        | (Some _ | None), _ -> ())
      failures;
    !r
  in
  let continue = ref true in
  while !continue do
    ignore (plan_window t ~until);
    Barrier.await barrier (* release workers into the window *);
    Barrier.await barrier (* wait for the window to complete *);
    if Option.is_some (first_failure ()) || complete t ~until then
      continue := false
  done;
  t.stop <- true;
  Barrier.await barrier (* final epoch: workers observe stop and exit *);
  Array.iter Domain.join handles;
  t.stop <- false;
  match first_failure () with
  | Some (w, e) ->
      (* lowest worker index wins so the report is stable run-to-run *)
      raise (Worker_failed (w, e))
  | None -> ()

let run t ~until =
  if t.domains = 1 then run_sequential t ~until else run_parallel t ~until
