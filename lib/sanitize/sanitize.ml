type violation = {
  checker : string;
  detail : string;
  at : Sim.Units.time;
}

exception Violation of violation

type mode = Raise | Collect

type t = {
  smode : mode;
  engine : Sim.Engine.t;
  mutable recorded : violation list;  (* newest first *)
  mutable checks : int;
  mutable finishers : (unit -> unit) list;  (* reverse registration order *)
  mutable finished : bool;
}

let create ?(mode = Raise) engine =
  {
    smode = mode;
    engine;
    recorded = [];
    checks = 0;
    finishers = [];
    finished = false;
  }

let mode t = t.smode

let report t ~checker detail =
  let v = { checker; detail; at = Sim.Engine.now t.engine } in
  t.recorded <- v :: t.recorded;
  match t.smode with Raise -> raise (Violation v) | Collect -> ()

let violations t = List.rev t.recorded
let checks_run t = t.checks
let tick t = t.checks <- t.checks + 1
let on_finish t f = t.finishers <- f :: t.finishers

let finish t =
  if not t.finished then begin
    t.finished <- true;
    List.iter (fun f -> f ()) (List.rev t.finishers)
  end

let pp_violation ppf v =
  Format.fprintf ppf "[%s] at %a: %s" v.checker Sim.Units.pp_duration v.at
    v.detail

module Pool_watch = struct
  let poison_byte = '\xdd'
  let poison_min_len = 8

  type watch = {
    z : t;
    name : string;
    in_flight : (unit -> int) option;
    mutable held : bytes list;  (* physical identities outstanding *)
  }

  let outstanding w = List.length w.held

  (* Remove the first physically-equal element; [None] if absent. *)
  let take_phys b held =
    let rec go acc = function
      | [] -> None
      | x :: rest ->
          if x == b then Some (List.rev_append acc rest)
          else go (x :: acc) rest
    in
    go [] held

  let attach z ?(name = "pool") ?in_flight pool =
    let w = { z; name; in_flight; held = [] } in
    Net.Pool.set_monitor pool
      (Some
         {
           Net.Pool.on_acquire =
             (fun b ->
               tick z;
               if List.memq b w.held then
                 report z ~checker:"pool"
                   (Printf.sprintf
                      "%s: acquire returned a buffer already outstanding \
                       (the freelist holds a double-released buffer)"
                      w.name);
               w.held <- b :: w.held);
           Net.Pool.on_release =
             (fun b ->
               tick z;
               match take_phys b w.held with
               | Some rest ->
                   w.held <- rest;
                   Bytes.fill b 0 (Bytes.length b) poison_byte
               | None ->
                   report z ~checker:"pool"
                     (Printf.sprintf
                        "%s: release of a %dB buffer that is not \
                         outstanding (double release, or a buffer foreign \
                         to this pool); %d legitimately outstanding"
                        w.name (Bytes.length b) (List.length w.held)));
         });
    on_finish z (fun () ->
        tick z;
        let expected =
          match w.in_flight with None -> 0 | Some f -> f ()
        in
        let held = List.length w.held in
        if not (Int.equal held expected) then
          report z ~checker:"pool"
            (Printf.sprintf
               "%s: %d buffer(s) still outstanding at quiesce (%d accounted \
                for by ring occupancy) — leaked acquire without release"
               w.name held expected));
    w

  let assert_live w s =
    tick w.z;
    let len = Net.Slice.length s in
    if len >= poison_min_len then begin
      let poisoned = ref true in
      for i = 0 to len - 1 do
        if not (Char.equal (Net.Slice.get s i) poison_byte) then
          poisoned := false
      done;
      if !poisoned then
        report w.z ~checker:"pool"
          (Printf.sprintf
             "%s: use-after-release — a %dB slice reads as all-poison \
              (0x%02x); its backing buffer was returned to the pool"
             w.name len (Char.code poison_byte))
    end
end

module Engine_watch = struct
  let attach z engine =
    let last = ref min_int in
    Sim.Engine.set_monitor engine
      (Some
         (fun time ->
           tick z;
           if time < !last then
             report z ~checker:"engine"
               (Printf.sprintf
                  "event fires at %d after the clock already reached %d \
                   (time moved backwards)"
                  time !last)
           else last := time));
    on_finish z (fun () ->
        tick z;
        match Sim.Engine.validate engine with
        | Ok () -> ()
        | Error e -> report z ~checker:"event_heap" e)
end

module Coherence_watch = struct
  let attach z ha =
    let gens = Hashtbl.create 64 in
    Coherence.Home_agent.set_sanitizer ha
      (Some
         (function
           | Coherence.Home_agent.Fill
               { line; gen_at_issue; gen_now; tryagain } ->
               tick z;
               if not (Int.equal gen_now gen_at_issue) then
                 report z ~checker:"coherence"
                   (Printf.sprintf
                      "line %d: %s fill delivered across a reset_line \
                       (generation %d at issue, %d at delivery)"
                      line
                      (if tryagain then "TRYAGAIN" else "data")
                      gen_at_issue gen_now)
           | Coherence.Home_agent.Reset { line; new_gen } -> (
               tick z;
               let prev =
                 match Hashtbl.find_opt gens line with
                 | Some g -> g
                 | None -> 0
               in
               if new_gen <= prev then
                 report z ~checker:"coherence"
                   (Printf.sprintf
                      "line %d: generation counter not monotone (reset to \
                       %d after %d)"
                      line new_gen prev)
               else Hashtbl.replace gens line new_gen)))
end

module Mirror_watch = struct
  type watch = { z : t; name : string }

  let attach z ?quiesced ~name ~truth ~view () =
    let w = { z; name } in
    on_finish z (fun () ->
        let settled =
          match quiesced with None -> true | Some f -> f ()
        in
        if settled then begin
          tick z;
          let tr = truth () in
          let vw = view () in
          if not (String.equal tr vw) then
            report z ~checker:"mirror"
              (Printf.sprintf
                 "%s: NIC mirror diverged from kernel state after quiesce — \
                  kernel %s, mirror %s"
                 name tr vw)
        end);
    w

  let dispatch w ~pid ~alive =
    tick w.z;
    if not alive then
      report w.z ~checker:"mirror"
        (Printf.sprintf
           "%s: dispatch targets pid %d after the NIC swept it (death push \
            already landed)"
           w.name pid)
end
