type path = Fast | Queued | Cold

type svc = {
  hist : Sim.Histogram.t;
  mutable fast : int;
  mutable queued : int;
  mutable cold : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
}

type t = { table : (int, svc) Hashtbl.t; mutable total : int }

let create () = { table = Hashtbl.create 32; total = 0 }

let svc t service_id =
  match Hashtbl.find_opt t.table service_id with
  | Some s -> s
  | None ->
      let s =
        {
          hist = Sim.Histogram.create ();
          fast = 0;
          queued = 0;
          cold = 0;
          bytes_in = 0;
          bytes_out = 0;
        }
      in
      Hashtbl.add t.table service_id s;
      s

let record t ~service_id ~path ~latency ~bytes_in ~bytes_out =
  let s = svc t service_id in
  Sim.Histogram.record s.hist latency;
  (match path with
  | Fast -> s.fast <- s.fast + 1
  | Queued -> s.queued <- s.queued + 1
  | Cold -> s.cold <- s.cold + 1);
  s.bytes_in <- s.bytes_in + bytes_in;
  s.bytes_out <- s.bytes_out + bytes_out;
  t.total <- t.total + 1

let services t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] |> List.sort Int.compare

let get t service_id =
  match Hashtbl.find_opt t.table service_id with
  | Some s -> s
  | None ->
      invalid_arg (Printf.sprintf "Telemetry: unknown service %d" service_id)

let latency t ~service_id = (get t service_id).hist

let path_counts t ~service_id =
  let s = get t service_id in
  (s.fast, s.queued, s.cold)

let bytes t ~service_id =
  let s = get t service_id in
  (s.bytes_in, s.bytes_out)

let total_rpcs t = t.total
