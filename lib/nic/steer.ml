type field = Src_ip | Dst_ip | Src_port | Dst_port | Length | Payload of int

type atom = { field : field; lo : int; hi : int }
type guard = atom list

type target =
  | Queue of int
  | Worker of int
  | Hash_lane of { key : field list; lanes : int; base : int }
  | Rss

type rule = { guard : guard; target : target }

type t = {
  name : string;
  rules : rule list;
  default : target option;
  on_dead : target option;
}

let field_domain = function
  | Src_ip | Dst_ip -> (0, 0xffff_ffff)
  | Src_port | Dst_port | Length -> (0, 0xffff)
  | Payload _ -> (0, 0xff)

let pp_field fmt = function
  | Src_ip -> Format.pp_print_string fmt "src_ip"
  | Dst_ip -> Format.pp_print_string fmt "dst_ip"
  | Src_port -> Format.pp_print_string fmt "src_port"
  | Dst_port -> Format.pp_print_string fmt "dst_port"
  | Length -> Format.pp_print_string fmt "length"
  | Payload i -> Format.fprintf fmt "payload[%d]" i

(* Field width in bytes when gathered into a hash key. *)
let field_width = function
  | Src_ip | Dst_ip -> 4
  | Src_port | Dst_port | Length -> 2
  | Payload _ -> 1

let field_value (f : Net.Frame.t) = function
  | Src_ip -> Net.Ip_addr.to_int f.Net.Frame.ip.Net.Ipv4.src
  | Dst_ip -> Net.Ip_addr.to_int f.Net.Frame.ip.Net.Ipv4.dst
  | Src_port -> f.Net.Frame.udp.Net.Udp.src_port
  | Dst_port -> f.Net.Frame.udp.Net.Udp.dst_port
  | Length -> Bytes.length f.Net.Frame.payload
  | Payload i ->
      let p = f.Net.Frame.payload in
      if i >= 0 && i < Bytes.length p then Char.code (Bytes.get p i) else 0

let[@hot_path] rec matches frame guard =
  match guard with
  | [] -> true
  | { field; lo; hi } :: rest ->
      let v = field_value frame field in
      lo <= v && v <= hi && matches frame rest

(* Gather the key fields of a Hash_lane into [scratch] (big-endian per
   field, fields in declaration order) and return the byte count. *)
let[@hot_path] rec gather_key frame key scratch off =
  match key with
  | [] -> off
  | field :: rest ->
      let v = field_value frame field in
      let w = field_width field in
      for i = 0 to w - 1 do
        Bytes.set scratch (off + i)
          (Char.chr ((v lsr (8 * (w - 1 - i))) land 0xff))
      done;
      gather_key frame rest scratch (off + w)

let key_width key = List.fold_left (fun a f -> a + field_width f) 0 key

let rec resolve ~rss ~alive ~worker_lane ~on_dead ~scratch frame = function
  | Queue q -> q
  | Rss -> rss frame
  | Hash_lane { key; lanes; base } ->
      let n = gather_key frame key scratch 0 in
      base + (Rss.hash_sub scratch n mod lanes)
  | Worker w ->
      if alive w then worker_lane w
      else (
        match on_dead with
        | Some fb -> resolve ~rss ~alive ~worker_lane ~on_dead:None ~scratch frame fb
        | None ->
            (* Statically impossible: Steer_verify requires on_dead for
               any program containing Worker targets. *)
            failwith "Steer: dead worker target and no on_dead fallback")

let max_key_width t =
  let of_target = function Hash_lane { key; _ } -> key_width key | _ -> 0 in
  List.fold_left
    (fun acc r -> max acc (of_target r.target))
    (max
       (match t.default with Some tg -> of_target tg | None -> 0)
       (match t.on_dead with Some tg -> of_target tg | None -> 0))
    t.rules

let eval ~rss ?(alive = fun _ -> true) ?(worker_lane = fun w -> w) t frame =
  let scratch = Bytes.create (max 1 (max_key_width t)) in
  let matching = List.filter (fun r -> matches frame r.guard) t.rules in
  let target =
    match (matching, t.default) with
    | [ r ], _ -> r.target
    | [], Some d -> d
    | [], None ->
        failwith (Printf.sprintf "Steer.eval: %s: packet matched no rule" t.name)
    | _ :: _ :: _, _ ->
        failwith
          (Printf.sprintf "Steer.eval: %s: packet matched multiple rules" t.name)
  in
  resolve ~rss ~alive ~worker_lane ~on_dead:t.on_dead ~scratch frame target

(* Target of the first rule from [i] whose guard the frame satisfies,
   else the program's default. *)
let[@hot_path] rec first_target t rules frame i =
  if i >= Array.length rules then
    match t.default with
    | Some d -> d
    | None ->
        failwith (Printf.sprintf "Steer: %s: packet matched no rule" t.name)
  else if matches frame rules.(i).guard then rules.(i).target
  else first_target t rules frame (i + 1)

let compile ~rss ?(alive = fun _ -> true) ?(worker_lane = fun w -> w) t =
  let scratch = Bytes.create (max 1 (max_key_width t)) in
  let rules = Array.of_list t.rules in
  fun frame ->
    resolve ~rss ~alive ~worker_lane ~on_dead:t.on_dead ~scratch frame
      (first_target t rules frame 0)

(* --- shipped programs ------------------------------------------------ *)

let rss_all = { name = "rss_all"; rules = []; default = Some Rss; on_dead = None }

let key_affinity ?(name = "key_affinity") ~key_off ~key_len ~lanes () =
  {
    name;
    rules = [];
    default =
      Some
        (Hash_lane
           { key = List.init key_len (fun i -> Payload (key_off + i)); lanes; base = 0 });
    on_dead = None;
  }

let size_split ?(fast_cutoff = 128) ~fast_lanes ~slow_queue () =
  {
    name = "size_split";
    rules =
      [
        {
          guard = [ { field = Length; lo = 0; hi = fast_cutoff } ];
          target =
            Hash_lane
              { key = [ Src_ip; Src_port; Dst_port ]; lanes = fast_lanes; base = 0 };
        };
        {
          guard = [ { field = Length; lo = fast_cutoff + 1; hi = 0xffff } ];
          target = Queue slow_queue;
        };
      ];
    default = None;
    on_dead = None;
  }

let priority_lanes ~port ~queue =
  {
    name = "priority_lanes";
    rules = [ { guard = [ { field = Dst_port; lo = port; hi = port } ]; target = Queue queue } ];
    default = Some Rss;
    on_dead = None;
  }

let builtins =
  [
    rss_all;
    key_affinity ~key_off:20 ~key_len:4 ~lanes:4 ();
    size_split ~fast_lanes:3 ~slow_queue:3 ();
    priority_lanes ~port:7_000 ~queue:0;
  ]
