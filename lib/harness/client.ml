type t = {
  engine : Sim.Engine.t;
  send : Net.Frame.t -> unit;
  endpoint : Net.Frame.endpoint;
  continuations : Rpc.Value.t Rpc.Continuation.t;
  epochs : (int, int) Hashtbl.t;
      (* continuation id -> epoch: a recycled id must not accept a late
         response meant for its previous owner (ABA) *)
  mutable next_epoch : int;
  schemas : (int * int, Rpc.Schema.t) Hashtbl.t;
  rng : Sim.Rng.t;  (* backoff jitter; only drawn when jitter > 0 *)
  mutable sent : int;
  mutable completed : int;
  mutable errors : int;
  mutable retransmits : int;
  mutable abandoned : int;
  mutable duplicates : int;
  mutable rejected : int;
  mutable retry_budget : int;
  mutable budget_exhausted : int;
}

(* rpc_id = epoch << 20 | continuation id. *)
let cont_bits = 20

let rpc_id_of ~epoch ~cont =
  Int64.logor
    (Int64.shift_left (Int64.of_int epoch) cont_bits)
    (Int64.of_int cont)

let split_rpc_id id =
  ( Int64.to_int (Int64.shift_right_logical id cont_bits),
    Int64.to_int (Int64.logand id (Int64.of_int ((1 lsl cont_bits) - 1))) )

let create engine ~send ?endpoint ?(seed = 0x7e7) ?(retry_budget = max_int)
    ?metrics () =
  let endpoint =
    match endpoint with Some e -> e | None -> Traffic.client_endpoint ()
  in
  if retry_budget < 0 then invalid_arg "Client.create: negative retry_budget";
  let t =
    {
      engine;
      send;
      endpoint;
      continuations = Rpc.Continuation.create ();
      epochs = Hashtbl.create 64;
      next_epoch = 1;
      schemas = Hashtbl.create 16;
      rng = Sim.Rng.create ~seed;
      sent = 0;
      completed = 0;
      errors = 0;
      retransmits = 0;
      abandoned = 0;
      duplicates = 0;
      rejected = 0;
      retry_budget;
      budget_exhausted = 0;
    }
  in
  (match metrics with
  | None -> ()
  | Some m ->
      Obs.Metrics.derive m "client_sent" (fun () -> t.sent);
      Obs.Metrics.derive m "client_completed" (fun () -> t.completed);
      Obs.Metrics.derive m "client_errors" (fun () -> t.errors);
      Obs.Metrics.derive m "client_retransmits" (fun () -> t.retransmits);
      Obs.Metrics.derive m "client_abandoned" (fun () -> t.abandoned);
      Obs.Metrics.derive m "client_rejected" (fun () -> t.rejected);
      Obs.Metrics.derive m "client_duplicates" (fun () -> t.duplicates);
      Obs.Metrics.derive m "client_budget_exhausted" (fun () ->
          t.budget_exhausted));
  t

let expect t ~service_id ~method_id schema =
  Hashtbl.replace t.schemas (service_id, method_id) schema

(* Exponential growth saturates well below max_int so the float->int
   conversion stays exact-enough and never overflows. *)
let grow base backoff =
  let next = float_of_int base *. backoff in
  if next > 1e15 then 1_000_000_000_000_000 else int_of_float (Float.round next)

let call_id ?timeout ?(retries = 3) ?(backoff = 1.) ?(max_timeout = max_int)
    ?(jitter = 0.) t ~service_id ~method_id ~port args k =
  if backoff < 1. then invalid_arg "Client.call: backoff < 1";
  if jitter < 0. || jitter >= 1. then
    invalid_arg "Client.call: jitter out of [0,1)";
  if max_timeout <= 0 then invalid_arg "Client.call: non-positive max_timeout";
  let done_flag = ref false in
  let cont_ref = ref (-1) in
  let cont =
    Rpc.Continuation.alloc t.continuations (fun v ->
        done_flag := true;
        Hashtbl.remove t.epochs !cont_ref;
        k v)
  in
  cont_ref := cont;
  if cont >= 1 lsl cont_bits then
    invalid_arg "Client.call: too many outstanding calls";
  let epoch = t.next_epoch in
  t.next_epoch <- t.next_epoch + 1;
  Hashtbl.replace t.epochs cont epoch;
  let frame () =
    Traffic.request_frame
      ~rpc_id:(rpc_id_of ~epoch ~cont)
      ~service_id ~method_id ~port ~client:t.endpoint args
  in
  t.sent <- t.sent + 1;
  t.send (frame ());
  (match timeout with
  | None -> ()
  | Some timeout ->
      if timeout <= 0 then invalid_arg "Client.call: non-positive timeout";
      let rec arm attempts_left base =
        let wait =
          if jitter > 0. then
            max 1
              (int_of_float
                 (float_of_int base *. (1. -. (jitter *. Sim.Rng.float t.rng))))
          else base
        in
        ignore
          (Sim.Engine.schedule_after t.engine ~after:wait (fun () ->
               if not !done_flag then
                 if attempts_left > 0 && t.retry_budget > 0 then begin
                   t.retransmits <- t.retransmits + 1;
                   t.retry_budget <- t.retry_budget - 1;
                   t.send (frame ());
                   arm (attempts_left - 1) (min max_timeout (grow base backoff))
                 end
                 else begin
                   if attempts_left > 0 then
                     t.budget_exhausted <- t.budget_exhausted + 1;
                   t.abandoned <- t.abandoned + 1;
                   Hashtbl.remove t.epochs cont;
                   ignore (Rpc.Continuation.cancel t.continuations cont)
                 end))
      in
      arm retries timeout);
  rpc_id_of ~epoch ~cont

let call ?timeout ?retries t ~service_id ~method_id ~port args k =
  ignore (call_id ?timeout ?retries t ~service_id ~method_id ~port args k)

let on_reply t frame =
  match Rpc.Wire_format.decode frame.Net.Frame.payload with
  | Error _ -> ()
  | Ok msg -> (
      match msg.Rpc.Wire_format.kind with
      | Rpc.Wire_format.Request -> ()
      | Rpc.Wire_format.Error_reply code ->
          let epoch, cont = split_rpc_id msg.Rpc.Wire_format.rpc_id in
          if Hashtbl.find_opt t.epochs cont = Some epoch then
            if Rpc.Wire_format.retriable_error code then
              (* An explicit transport-level reject (shed under
                 overload, dead service): keep the call armed — the
                 backoff timer already running for it will retransmit,
                 exactly as if the request had been lost, except the
                 client learns immediately instead of burning a
                 timeout. *)
              t.rejected <- t.rejected + 1
            else begin
              t.errors <- t.errors + 1;
              Hashtbl.remove t.epochs cont;
              ignore (Rpc.Continuation.cancel t.continuations cont)
            end
      | Rpc.Wire_format.Response ->
          let epoch, cont = split_rpc_id msg.Rpc.Wire_format.rpc_id in
          if Hashtbl.find_opt t.epochs cont <> Some epoch then
            (* A duplicate, or a late response to an abandoned (and
               possibly recycled) id: drop it. *)
            t.duplicates <- t.duplicates + 1
          else
            let key =
              (msg.Rpc.Wire_format.service_id, msg.Rpc.Wire_format.method_id)
            in
            let value =
              match Hashtbl.find_opt t.schemas key with
              | Some schema -> (
                  match Rpc.Codec.decode schema msg.Rpc.Wire_format.body with
                  | Ok v -> Some v
                  | Error _ -> None)
              | None -> Some (Rpc.Value.Blob msg.Rpc.Wire_format.body)
            in
            (match value with
            | Some v ->
                if Rpc.Continuation.fire t.continuations cont v then
                  t.completed <- t.completed + 1
            | None ->
                t.errors <- t.errors + 1;
                Hashtbl.remove t.epochs cont;
                ignore (Rpc.Continuation.cancel t.continuations cont)))

let outstanding t = Rpc.Continuation.live t.continuations
let completed t = t.completed
let errors t = t.errors

let sent t = t.sent
let retransmits t = t.retransmits
let abandoned t = t.abandoned
let duplicates t = t.duplicates
let rejected t = t.rejected
let budget_exhausted t = t.budget_exhausted
