type entry = {
  service : Rpc.Interface.service_def;
  code_ptrs : int64 array;
  data_ptr : int64;
}

type t = { by_port : (int, entry) Hashtbl.t }

let create () = { by_port = Hashtbl.create 64 }

let bind t ~port entry =
  if Hashtbl.mem t.by_port port then
    invalid_arg (Printf.sprintf "Demux.bind: port %d already bound" port);
  Hashtbl.add t.by_port port entry

let lookup t ~port = Hashtbl.find_opt t.by_port port

let port_of_service t ~service_id =
  Hashtbl.fold
    (fun port e acc ->
      match acc with
      | Some _ -> acc
      | None ->
          if Int.equal e.service.Rpc.Interface.service_id service_id then
            Some port
          else None)
    t.by_port None

let code_ptr e ~method_id =
  if method_id < 0 || method_id >= Array.length e.code_ptrs then
    invalid_arg (Printf.sprintf "Demux.code_ptr: unknown method %d" method_id);
  e.code_ptrs.(method_id)
