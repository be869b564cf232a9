type svc_stats = {
  mutable rate : float;  (* arrivals/s, EWMA *)
  mutable last_arrival : Sim.Units.time option;
  mutable accepted : int;
  mutable completed : int;
  mutable shedding : bool;  (* admission-control state (hysteretic) *)
}

type t = {
  ewma_tau : float;  (* seconds *)
  hi_watermark : int;
  target_util : float;
  shed : bool;
  shed_hi : int;
  shed_lo : int;
  table : (int, svc_stats) Hashtbl.t;
}

let create ?(ewma_tau = Sim.Units.us 100) ?(hi_watermark = 4)
    ?(target_util = 0.7) ?(shed = false) ?(shed_hi = 16) ?(shed_lo = 4) () =
  if ewma_tau <= 0 then invalid_arg "Nic_sched.create: non-positive tau";
  if target_util <= 0. || target_util > 1. then
    invalid_arg "Nic_sched.create: target_util out of (0,1]";
  if shed && (shed_lo < 0 || shed_hi <= shed_lo) then
    invalid_arg "Nic_sched.create: need 0 <= shed_lo < shed_hi";
  {
    ewma_tau = Sim.Units.to_float_s ewma_tau;
    hi_watermark;
    target_util;
    shed;
    shed_hi;
    shed_lo;
    table = Hashtbl.create 32;
  }

let stats t service =
  match Hashtbl.find_opt t.table service with
  | Some s -> s
  | None ->
      let s =
        { rate = 0.; last_arrival = None; accepted = 0; completed = 0;
          shedding = false }
      in
      Hashtbl.add t.table service s;
      s

let on_arrival t ~service ~now =
  let s = stats t service in
  s.accepted <- s.accepted + 1;
  (match s.last_arrival with
  | None -> ()
  | Some prev ->
      let dt = Sim.Units.to_float_s (max 1 (now - prev)) in
      let inst = 1. /. dt in
      (* Time-constant EWMA: weight decays with the gap length, so idle
         periods pull the estimate down. *)
      let alpha = 1. -. exp (-.dt /. t.ewma_tau) in
      s.rate <- s.rate +. (alpha *. (inst -. s.rate)));
  s.last_arrival <- Some now

let on_complete t ~service =
  let s = stats t service in
  s.completed <- s.completed + 1

let rate t ~service = (stats t service).rate
let outstanding t ~service =
  let s = stats t service in
  s.accepted - s.completed

type decision = Steady | Add_worker | Release_worker | Shed

let decide t ~service ~queue_depth ~workers ~handler_time =
  let s = stats t service in
  (* Admission control runs ahead of scaling: once the backlog blows
     through shed_hi the service sheds every arrival until it drains
     back below shed_lo. The wide hysteresis band keeps the gate from
     chattering at a constant arrival rate. *)
  if t.shed then begin
    if s.shedding then begin
      if queue_depth <= t.shed_lo then s.shedding <- false
    end
    else if queue_depth >= t.shed_hi then s.shedding <- true
  end;
  if t.shed && s.shedding then Shed
  else if queue_depth > t.hi_watermark then Add_worker
  else if workers > 1 then begin
    (* Would one fewer worker still sit below the utilisation target? *)
    let per_req = Sim.Units.to_float_s handler_time in
    let util_with = s.rate *. per_req /. float_of_int (workers - 1) in
    if util_with < t.target_util *. 0.5 && queue_depth = 0 then
      Release_worker
    else Steady
  end
  else Steady
