type line_id = int
type fill = Data of bytes | Tryagain

type sanitizer_event =
  | Fill of {
      line : line_id;
      gen_at_issue : int;
      gen_now : int;
      tryagain : bool;
    }
  | Reset of { line : line_id; new_gen : int }

type parked = {
  callback : fill -> unit;
  timer : Sim.Engine.handle;
}

type line = {
  id : line_id;
  mutable staged : bytes option;
  mutable parked : parked option;
  mutable cpu_copy : bytes option;  (* last CPU store, until fetched *)
  mutable on_load : (served:bool -> unit) option;
  mutable on_store : (bytes -> unit) option;
  mutable gen : int;
      (* bumped by [reset_line]; loads in flight across a reset are
         discarded when they land *)
}

type t = {
  engine : Sim.Engine.t;
  prof : Interconnect.profile;
  timeout : Sim.Units.duration;
  stage_delay : (unit -> Sim.Units.duration) option;
      (* fault injection: per-stage extra interconnect latency *)
  mutable lines : line array;
  mutable n_lines : int;
  mutable loads : int;
  mutable fills : int;
  mutable tryagains : int;
  mutable stores : int;
  mutable delayed_stages : int;
  mutable sanitizer : (sanitizer_event -> unit) option;
}

let create engine prof ?stage_delay ~timeout () =
  if timeout <= 0 then invalid_arg "Home_agent.create: non-positive timeout";
  {
    engine;
    prof;
    timeout;
    stage_delay;
    lines = Array.init 16 (fun i ->
        { id = i; staged = None; parked = None; cpu_copy = None;
          on_load = None; on_store = None; gen = 0 });
    n_lines = 0;
    loads = 0;
    fills = 0;
    tryagains = 0;
    stores = 0;
    delayed_stages = 0;
    sanitizer = None;
  }

let profile t = t.prof
let engine t = t.engine
let set_sanitizer t f = t.sanitizer <- f

let alloc_line t =
  if Int.equal t.n_lines (Array.length t.lines) then begin
    let bigger =
      Array.init (2 * t.n_lines) (fun i ->
          if i < t.n_lines then t.lines.(i)
          else
            { id = i; staged = None; parked = None; cpu_copy = None;
              on_load = None; on_store = None; gen = 0 })
    in
    t.lines <- bigger
  end;
  let id = t.n_lines in
  t.n_lines <- t.n_lines + 1;
  id

let line t id =
  if id < 0 || id >= t.n_lines then
    invalid_arg (Printf.sprintf "Home_agent: unknown line %d" id);
  t.lines.(id)

let set_on_load t id f = (line t id).on_load <- Some f
let set_on_store t id f = (line t id).on_store <- Some f

let respond t ln k fill =
  (match fill with
  | Data _ -> t.fills <- t.fills + 1
  | Tryagain -> t.tryagains <- t.tryagains + 1);
  let gen_at_issue = ln.gen in
  ignore
    (Sim.Engine.schedule_after t.engine ~after:t.prof.Interconnect.load_response
       (fun () ->
         (match t.sanitizer with
         | None -> ()
         | Some observe ->
             observe
               (Fill
                  {
                    line = ln.id;
                    gen_at_issue;
                    gen_now = ln.gen;
                    tryagain =
                      (match fill with Tryagain -> true | Data _ -> false);
                  }));
         k fill))

let complete_parked t ln fill =
  match ln.parked with
  | None -> ()
  | Some p ->
      ln.parked <- None;
      Sim.Engine.cancel t.engine p.timer;
      respond t ln p.callback fill

let cpu_load t id k =
  let ln = line t id in
  t.loads <- t.loads + 1;
  let gen = ln.gen in
  (* The miss takes load_request to reach the home agent. *)
  ignore
    (Sim.Engine.schedule_after t.engine ~after:t.prof.Interconnect.load_request
       (fun () ->
         (* A line reset while this load request was on the interconnect
            means the loader's process is gone: the request dies here
            instead of parking. *)
         if Int.equal ln.gen gen then
         match ln.staged with
         | Some data ->
             ln.staged <- None;
             respond t ln k (Data data);
             (match ln.on_load with Some f -> f ~served:true | None -> ())
         | None ->
             if Option.is_some ln.parked then
               invalid_arg
                 (Printf.sprintf
                    "Home_agent.cpu_load: line %d already has a parked load"
                    id);
             let timer =
               Sim.Engine.schedule_after t.engine ~after:t.timeout (fun () ->
                   match ln.parked with
                   | None -> ()
                   | Some p ->
                       ln.parked <- None;
                       respond t ln p.callback Tryagain)
             in
             ln.parked <- Some { callback = k; timer };
             (match ln.on_load with Some f -> f ~served:false | None -> ())))

let stage t id data =
  let ln = line t id in
  if Bytes.length data > t.prof.Interconnect.cache_line_bytes then
    invalid_arg
      (Printf.sprintf "Home_agent.stage: %d bytes exceeds line size %d"
         (Bytes.length data) t.prof.Interconnect.cache_line_bytes);
  let apply () =
    match ln.parked with
    | Some _ -> complete_parked t ln (Data data)
    | None -> ln.staged <- Some data
  in
  match t.stage_delay with
  | None -> apply ()
  | Some f ->
      let d = f () in
      if d <= 0 then apply ()
      else begin
        (* A delayed interconnect fill: while it is in flight the
           parked load's timeout may win the race and answer Tryagain
           first — exactly the recovery path the paper's §5.1 dummy
           fill exists for. The data still lands when the transfer
           completes (staged, or filling the re-parked load). *)
        t.delayed_stages <- t.delayed_stages + 1;
        ignore (Sim.Engine.schedule_after t.engine ~after:d apply)
      end

let stage_pending t id = Option.is_some (line t id).staged
let load_parked t id = Option.is_some (line t id).parked

let kick t id =
  let ln = line t id in
  complete_parked t ln Tryagain

let reset_line t id =
  let ln = line t id in
  (match ln.parked with
  | None -> ()
  | Some p ->
      (* Drop the parked load without answering it: the loader is dead
         and its continuation must never fire. *)
      ln.parked <- None;
      Sim.Engine.cancel t.engine p.timer);
  ln.gen <- ln.gen + 1;
  ln.staged <- None;
  ln.cpu_copy <- None;
  match t.sanitizer with
  | None -> ()
  | Some observe -> observe (Reset { line = ln.id; new_gen = ln.gen })

let cpu_store t id data =
  let ln = line t id in
  t.stores <- t.stores + 1;
  ln.cpu_copy <- Some data;
  ignore
    (Sim.Engine.schedule_after t.engine
       ~after:t.prof.Interconnect.store_release (fun () ->
         match ln.on_store with Some f -> f data | None -> ()))

let fetch_exclusive t id k =
  let ln = line t id in
  ignore
    (Sim.Engine.schedule_after t.engine
       ~after:t.prof.Interconnect.fetch_exclusive (fun () ->
         let data = ln.cpu_copy in
         ln.cpu_copy <- None;
         k data))

let loads t = t.loads
let fills t = t.fills
let tryagains t = t.tryagains
let stores t = t.stores
let delayed_stages t = t.delayed_stages
