type t = {
  mutable clock : Units.time;
  queue : (unit -> unit) Event_heap.t;
  mutable fired : int;
  mutable monitor : (Units.time -> unit) option;
}

type handle = (unit -> unit) Event_heap.handle

let create () =
  { clock = 0; queue = Event_heap.create (); fired = 0; monitor = None }

let set_monitor t m = t.monitor <- m
let validate t = Event_heap.validate t.queue
let now t = t.clock

let[@hot_path] schedule_at t ~at f =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %d is before now (%d)" at
         t.clock);
  Event_heap.push t.queue ~time:at f

let[@hot_path] schedule_after t ~after f =
  if after < 0 then invalid_arg "Engine.schedule_after: negative delay";
  Event_heap.push t.queue ~time:(t.clock + after) f

let[@hot_path] cancel t h = Event_heap.cancel t.queue h
let pending t = Event_heap.live_count t.queue
let[@hot_path] min_time t = Event_heap.min_time t.queue

(* Fire the earliest event, whose timestamp [time] the caller has just
   read with [Event_heap.min_time]. *)
let[@hot_path] [@inline] fire t time =
  let f = Event_heap.pop_min t.queue in
  (match t.monitor with None -> () | Some m -> m time);
  t.clock <- time;
  t.fired <- t.fired + 1;
  f ()

(* [min_time] answers [max_int] for an empty queue; [is_empty] tells
   that apart from an event scheduled at [max_int]. *)
let[@hot_path] [@inline] has_event t time =
  time < max_int || not (Event_heap.is_empty t.queue)

let[@hot_path] step t =
  let time = Event_heap.min_time t.queue in
  if has_event t time then begin
    fire t time;
    true
  end
  else false

(* One [min_time] read per event serves both the horizon test and the
   fire. *)
let[@hot_path] run_until t limit =
  let continue = ref true in
  while !continue do
    let time = Event_heap.min_time t.queue in
    if time <= limit && has_event t time then fire t time
    else continue := false
  done;
  (* Advance the clock to the horizon so that rate computations over
     [0, until] are well defined even if the queue drained early. *)
  if t.clock < limit then t.clock <- limit

let run ?until t =
  match until with
  | None ->
      while step t do
        ()
      done
  | Some limit -> run_until t limit

let events_processed t = t.fired
