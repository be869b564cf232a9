type call_fn =
  service_id:int -> method_id:int -> Value.t -> (Value.t -> unit) -> unit

type nested_handler =
  call:call_fn -> Value.t -> done_:(Value.t -> unit) -> unit

type method_def = {
  method_id : int;
  method_name : string;
  request : Schema.t;
  response : Schema.t;
  execute : Value.t -> Value.t;
  handler_time : Sim.Units.duration;
  nested : nested_handler option;
}

type service_def = {
  service_id : int;
  service_name : string;
  methods : method_def list;
}

let service ~id ~name methods =
  let ids = List.map (fun m -> m.method_id) methods in
  let sorted = List.sort_uniq Int.compare ids in
  if List.length sorted <> List.length ids then
    invalid_arg ("Interface.service: duplicate method ids in " ^ name);
  { service_id = id; service_name = name; methods }

(* Top-level, so a lookup allocates only its [Some]: it runs once per
   received RPC. *)
let rec find_in id = function
  | [] -> None
  | m :: rest -> if Int.equal m.method_id id then Some m else find_in id rest

let find_method s id = find_in id s.methods

let method_def ~id ~name ~request ~response ?(handler_time = Sim.Units.ns 500)
    ?nested execute =
  { method_id = id; method_name = name; request; response; execute;
    handler_time; nested }

let echo_service ~id =
  service ~id ~name:"echo"
    [
      method_def ~id:0 ~name:"echo" ~request:Schema.Blob ~response:Schema.Blob
        (fun v -> v);
    ]

let counter_service ~id =
  let total = ref 0L in
  service ~id ~name:"counter"
    [
      method_def ~id:0 ~name:"add" ~request:Schema.Int ~response:Schema.Int
        (fun v ->
          (match v with
          | Value.Int n -> total := Int64.add !total n
          | _ -> ());
          Value.Int !total);
      method_def ~id:1 ~name:"read" ~request:Schema.Unit ~response:Schema.Int
        (fun _ -> Value.Int !total);
    ]

let kv_service ~id ?(handler_time = Sim.Units.ns 800) () =
  let store : (string, bytes) Hashtbl.t = Hashtbl.create 64 in
  let get v =
    match v with
    | Value.Str k -> (
        match Hashtbl.find_opt store k with
        | Some b -> Value.Tuple [ Value.Bool true; Value.Blob b ]
        | None -> Value.Tuple [ Value.Bool false; Value.Blob Bytes.empty ])
    | _ -> Value.Tuple [ Value.Bool false; Value.Blob Bytes.empty ]
  in
  let put v =
    (match v with
    | Value.Tuple [ Value.Str k; Value.Blob b ] -> Hashtbl.replace store k b
    | _ -> ());
    Value.Unit
  in
  let delete v =
    match v with
    | Value.Str k ->
        let existed = Hashtbl.mem store k in
        Hashtbl.remove store k;
        Value.Bool existed
    | _ -> Value.Bool false
  in
  service ~id ~name:"kv"
    [
      method_def ~id:0 ~name:"get" ~request:Schema.Str
        ~response:(Schema.Tuple [ Schema.Bool; Schema.Blob ])
        ~handler_time get;
      method_def ~id:1 ~name:"put"
        ~request:(Schema.Tuple [ Schema.Str; Schema.Blob ])
        ~response:Schema.Unit ~handler_time put;
      method_def ~id:2 ~name:"delete" ~request:Schema.Str
        ~response:Schema.Bool ~handler_time delete;
    ]
